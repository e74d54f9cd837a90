package repro.baseline

import org.apache.spark.sql.{DataFrame, Row}
import repro.core.{PreparedGraph, ScanQuery, Similarity, Stripes}
import scala.collection.mutable

/** ppSCAN-like baseline (Che et al. [18]): a parallel, per-query,
  * *index-free* SCAN with pruning, as one Spark job of vertex stripes over
  * the prepared graph (`PreparedGraph`). For each query (μ, ε) it
  * recomputes only the similarities that can matter:
  *
  * - core-relevance pruning: only a vertex with |N̄(v)| ≥ μ can be a core,
  *   so only those compute similarities;
  * - degree pruning: σ(u,v) ≤ sqrt(min(|N̄u|,|N̄v|)/max(...)) for cosine and
  *   ≤ min/max for Jaccard, so an edge whose bound is below ε is skipped.
  *   The cosine bound holds for unit weights only (one heavy edge between
  *   vertices whose other edges are light has σ near 1 whatever the
  *   degrees), so weighted cosine computes every edge.
  *
  * Each surviving edge's σ is the per-edge merge `SeqScanIndex.edgeSim`,
  * not the index's triangle kernel. Each task returns its cores' ε-similar
  * neighbors; the driver walks them with the index query's ε-edge walk and
  * `merge`, so the two produce identical outputs — the experiment in
  * Figures 6–7 measures exactly this recompute-vs-index gap.
  */
object PpScan {

  /** Full clustering for (μ, ε) without any precomputed index. */
  def cluster(
      canonical: DataFrame,
      measure: Similarity.Measure,
      mu: Int,
      eps: Double): DataFrame = {
    require(mu >= 2, s"SCAN requires mu >= 2, got $mu")
    val (spark, bg) = (canonical.sparkSession, PreparedGraph.of(canonical))
    val g       = bg.value
    val bounded = measure == Similarity.Jaccard || g.wts.forall(_.forall(_ == 1.0))
    val p       = math.min(spark.sparkContext.defaultParallelism, g.n)
    val cores   = Stripes.tasks(spark.sparkContext, p)(coreStripe(bg.value, measure, bounded, mu, eps, _, _)).flatten.toArray
    val isCore  = new java.util.BitSet(g.n)
    cores.foreach(c => isCore.set(c._1))
    val part = SeqScanIndex.walkEpsEdges(eps, cores.iterator, isCore.get(_))
    ScanQuery.local(spark, "v LONG, cluster LONG",
      SeqScanIndex.merge(g, cores.map(_._1), Seq(part)).map { case (v, c) => Row(v, c) })
  }

  /** The cores among the vertices v ≡ `stripe` (mod `stripes`), each with
    * its ε-similar neighbors and their similarities. Degree pruning applies
    * only when `bounded`.
    */
  private def coreStripe(
      g: SeqGraph,
      measure: Similarity.Measure,
      bounded: Boolean,
      mu: Int,
      eps: Double,
      stripe: Int,
      stripes: Int): Array[(Int, Array[Int], Array[Double])] = {
    val normSqs = SeqScanIndex.normSquares(g, measure == Similarity.Jaccard)
    // The σ of an edge whose dot is the smaller closed degree, in the
    // kernel's own expressions: rounding is monotone, so no σ exceeds it
    // (sqrt(min/max) can round below σ, e.g. closed degrees 2 and 3).
    def bound(dv: Double, du: Double): Double = {
      val lo = math.min(dv, du)
      if (measure == Similarity.Cosine) lo / math.sqrt(dv * du) else lo / (dv + du - lo)
    }
    val out = Array.newBuilder[(Int, Array[Int], Array[Double])]
    var v = stripe
    while (v < g.n) {
      val d = g.degree(v)
      if (d + 1 >= mu) {
        val (nbrs, sims) = (mutable.ArrayBuilder.make[Int], mutable.ArrayBuilder.make[Double])
        var k = 0
        while (k < d) {
          val u = g.adj(v)(k)
          if (!bounded || bound(d + 1.0, g.degree(u) + 1.0) >= eps) {
            val s = SeqScanIndex.edgeSim(g, measure, normSqs, v, k)
            if (s >= eps) { nbrs += u; sims += s }
          }
          k += 1
        }
        val epsNbrs = nbrs.result()
        if (1 + epsNbrs.length >= mu) out += ((v, epsNbrs, sims.result()))
      }
      v += stripes
    }
    out.result()
  }
}
