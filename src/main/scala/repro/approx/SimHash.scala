package repro.approx

import repro.baseline.SeqGraph
import repro.util.Hashing

/** SimHash sketches for approximate (weighted) cosine similarity (§2.1.2,
  * §5). The sketch of N̄(v) is k sign bits: bit i is
  * sign(Σ_{x ∈ N̄(v)} w(v,x) · g_i(x)) where g_i(x) is a standard normal
  * deviate drawn deterministically from (seed, i, x), x the original vertex
  * id. An edge's similarity estimate is cos(π · hammingDistance / k).
  *
  * Sketching costs O(k · Σ|N̄(v)|) = O(km) work, matching Theorem 5.1.
  */
object SimHash {

  /** v's k-bit sketch, bit-packed into ceil(k/64) longs, read from its CSR
    * row plus the self entry (x = v, w = 1). The sums run over N̄(v) in
    * ascending id order, so equal neighborhoods get equal sketches.
    */
  def sketch(g: SeqGraph, v: Int, k: Int, seed: Long): Array[Long] = {
    val sums = new Array[Double](k)
    def add(x: Long, w: Double): Unit = {
      var i = 0
      while (i < k) { sums(i) += w * Hashing.gaussianAt(seed, i, x); i += 1 }
    }
    val (nbrs, wts) = (g.adj(v), g.wts(v))
    val self = -java.util.Arrays.binarySearch(nbrs, v) - 1
    for (j <- 0 to nbrs.length) {
      if (j == self) add(g.ids(v), 1.0)
      if (j < nbrs.length) add(g.ids(nbrs(j)), wts(j))
    }
    val out = new Array[Long]((k + 63) / 64)
    var i = 0
    while (i < k) {
      if (sums(i) >= 0) out(i >> 6) |= (1L << (i & 63))
      i += 1
    }
    out
  }

  /** Estimated cosine similarity of two k-bit sketches. */
  def estimate(a: Array[Long], b: Array[Long], k: Int): Double = {
    var diff = 0
    var i = 0
    while (i < a.length) { diff += java.lang.Long.bitCount(a(i) ^ b(i)); i += 1 }
    math.cos(math.Pi * diff / k)
  }
}
