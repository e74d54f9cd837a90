package repro.baseline

import org.apache.spark.sql.DataFrame
import scala.reflect.ClassTag

/** Driver-side compact adjacency representation for the sequential
  * baselines (GS*-Index, original SCAN) and the Spark operators, which
  * read it as the prepared graph (`repro.core.PreparedGraph`). Vertex ids
  * are remapped to dense ints 0..n-1 (ascending by original id); adjacency
  * lists are sorted by neighbor index — the precondition of the §6.1
  * merge-based triangle counting, and what GBBS's file format guarantees.
  */
final class SeqGraph(
    val n: Int,
    val ids: Array[Long],              // dense index -> original vertex id
    val adj: Array[Array[Int]],        // sorted neighbor indices
    val wts: Array[Array[Double]])     // weights aligned with adj
    extends Serializable {

  /** Original vertex id -> dense index (binary search over `ids`). */
  def idOf(id: Long): Int = {
    val i = java.util.Arrays.binarySearch(ids, id)
    if (i >= 0) i else throw new NoSuchElementException(s"vertex $id is not in the graph")
  }

  def degree(u: Int): Int = adj(u).length

  /** Largest degree; 0 for a graph with no edges. */
  def maxDegree: Int = adj.foldLeft(0)((mx, a) => math.max(mx, a.length))

  /** m = number of undirected edges. */
  val numEdges: Long = adj.iterator.map(_.length.toLong).sum / 2

  /** Canonical edge iterator (u < v by dense index). */
  def edges: Iterator[(Int, Int, Double)] =
    (0 until n).iterator.flatMap { u =>
      adj(u).iterator.zip(wts(u).iterator).filter(_._1 > u).map { case (v, w) => (u, v, w) }
    }

  /** Edge id of every adjacency slot: edges are numbered 0..m-1 in the
    * order `edges` yields them, so u's slots above u hold consecutive ids
    * and a slot below u holds the id the lower endpoint gave the edge.
    */
  lazy val eids: Array[Array[Int]] = {
    val out  = adj.map(a => new Array[Int](a.length))
    var next = 0
    for (u <- 0 until n; k <- adj(u).indices) {
      val v = adj(u)(k)
      out(u)(k) = if (v > u) { next += 1; next - 1 } else out(v)(java.util.Arrays.binarySearch(adj(v), u))
    }
    out
  }

  /** §6.1's orientation: each edge directed toward its endpoint of higher
    * (degree, id). `out(v)` holds v's out-neighbors, ascending as in `adj`,
    * with their weights (`outW`) and edge ids (`outEid`) aligned. Built
    * once, on first use, for every merge-kernel stripe and later build.
    */
  lazy val (out, outW, outEid) = {
    def rank(v: Int): Long = (degree(v).toLong << 32) | v.toLong
    val keep = Array.tabulate(n)(v => adj(v).indices.filter(k => rank(v) < rank(adj(v)(k))).toArray)
    def pick[T: ClassTag](col: Array[Array[T]]) = Array.tabulate(n)(v => keep(v).map(col(v)(_)))
    (pick(adj), pick(wts), pick(eids))
  }

  /** Squared closed-neighborhood norms ‖N̄(v)‖² = 1 + Σ_{x ∈ N(v)} w(v,x)²,
    * built once, on first use. Every cosine similarity divides by
    * sqrt(sqNorms(u) · sqNorms(v)), the same floating-point expression in
    * every implementation, so unweighted similarities are bit-identical.
    */
  lazy val sqNorms: Array[Double] = Array.tabulate(n) { v =>
    var s = 1.0
    val w = wts(v)
    var i = 0
    while (i < w.length) { s += w(i) * w(i); i += 1 }
    s
  }

  /** Edge id of {u, v}, or -1 if it is not an edge. */
  def eidOf(u: Int, v: Int): Int = {
    val k = java.util.Arrays.binarySearch(adj(u), v)
    if (k >= 0) eids(u)(k) else -1
  }

  /** Weight lookup via binary search on the sorted adjacency list. */
  def weight(u: Int, v: Int): Double = {
    val i = java.util.Arrays.binarySearch(adj(u), v)
    if (i >= 0) wts(u)(i) else 0.0
  }
}

object SeqGraph {

  /** Collect a canonical (src, dst, weight) DataFrame to the driver. */
  def fromDataFrame(canonical: DataFrame): SeqGraph = {
    val rows = canonical.select("src", "dst", "weight").collect()
    fromEdges(rows.map(_.getLong(0)), rows.map(_.getLong(1)), rows.map(_.getDouble(2)))
  }

  /** Build the CSR from canonical edges given as aligned arrays. Rejects
    * a non-finite weight (NO would sort a NaN similarity first and hide
    * every ε-neighbor behind it), a self-loop and an edge given twice.
    */
  def fromEdges(src: Array[Long], dst: Array[Long], w: Array[Double]): SeqGraph = {
    // Edge ids and the 2m adjacency slots are Int-indexed (and n ≤ 2m).
    val m = src.length
    require(m <= (Int.MaxValue - 8) / 2, s"SeqGraph: $m edges do not fit the CSR's Int vertex and edge ids")
    for (i <- 0 until m) {
      require(java.lang.Double.isFinite(w(i)), s"SeqGraph: edge (${src(i)}, ${dst(i)}) has weight ${w(i)}; weights must be finite")
      require(src(i) != dst(i), s"SeqGraph: edge (${src(i)}, ${dst(i)}) is a self-loop")
    }
    // Dense index = position among the distinct endpoints, ascending.
    val all = src ++ dst
    java.util.Arrays.sort(all)
    val ids = all.indices.iterator.filter(i => i == 0 || all(i) != all(i - 1)).map(all(_)).toArray
    val s   = src.map(java.util.Arrays.binarySearch(ids, _))
    val d   = dst.map(java.util.Arrays.binarySearch(ids, _))
    // Scatter both directions into lists, then transpose: reading the lists
    // in ascending vertex order appends to every neighbor's list in
    // ascending order, so the result is sorted without a sort.
    val degs = new Array[Int](ids.length)
    (s ++ d).foreach(degs(_) += 1)
    def scatter(from: Iterator[(Int, Int, Double)]): (Array[Array[Int]], Array[Array[Double]]) = {
      val (adj, wts, pos) = (degs.map(new Array[Int](_)), degs.map(new Array[Double](_)), new Array[Int](degs.length))
      from.foreach { case (u, v, x) => adj(u)(pos(u)) = v; wts(u)(pos(u)) = x; pos(u) += 1 }
      (adj, wts)
    }
    val (tmpAdj, tmpW) = scatter((0 until m).iterator.flatMap(i => Iterator((s(i), d(i), w(i)), (d(i), s(i), w(i)))))
    val (adj, wts) = scatter(tmpAdj.indices.iterator.flatMap(v => tmpAdj(v).indices.iterator.map(k => (tmpAdj(v)(k), v, tmpW(v)(k)))))
    // Sorted lists hold a repeated edge in adjacent slots.
    for (u <- adj.indices; k <- 1 until adj(u).length)
      require(adj(u)(k) != adj(u)(k - 1), s"SeqGraph: edge (${ids(u)}, ${ids(adj(u)(k))}) appears more than once")
    new SeqGraph(ids.length, ids, adj, wts)
  }
}
