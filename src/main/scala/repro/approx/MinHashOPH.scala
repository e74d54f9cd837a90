package repro.approx

import repro.baseline.SeqGraph
import repro.util.Hashing

/** One-permutation (k-partition) MinHash for approximate Jaccard
  * similarity (§2.1.2, §6.3; Li et al. [41]).
  *
  * A single 64-bit hash h plays the role of the random permutation of the
  * universe. The universe is split into k bins by h mod k; the sketch of
  * N̄(v) stores, per bin, the minimum h(x) over the members that land in
  * that bin (Long.MaxValue = empty). The Jaccard estimate for two sets is
  * (#bins with equal non-empty minima) / (k − #bins empty in both) — the
  * standard OPH estimator. Sketching costs O(k + |N̄(v)|) per vertex.
  */
object MinHashOPH {

  /** v's k-bin sketch of N̄(v): its CSR row plus v itself, hashed by
    * original vertex id.
    */
  def sketch(g: SeqGraph, v: Int, k: Int, seed: Long): Array[Long] = {
    val out = Array.fill(k)(Long.MaxValue)
    def add(x: Long): Unit = {
      val h   = Hashing.combine(seed, x)
      val bin = math.floorMod(h, k.toLong).toInt
      // Shift to non-negative so Long.MaxValue is a safe "empty".
      val hv = h >>> 1
      if (hv < out(bin)) out(bin) = hv
    }
    add(g.ids(v))
    g.adj(v).foreach(x => add(g.ids(x)))
    out
  }

  /** Estimated Jaccard similarity of two k-bin sketches. */
  def estimate(a: Array[Long], b: Array[Long]): Double = {
    var matched   = 0
    var bothEmpty = 0
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (x == Long.MaxValue && y == Long.MaxValue) bothEmpty += 1
      else if (x == y) matched += 1
      i += 1
    }
    val denom = a.length - bothEmpty
    if (denom == 0) 0.0 else matched.toDouble / denom
  }
}
