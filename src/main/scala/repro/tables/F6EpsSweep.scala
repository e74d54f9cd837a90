package repro.tables

import org.apache.spark.sql.SparkSession
import repro.baseline.{PpScan, SeqGraph, SeqScanIndex}
import repro.core.{PreparedGraph, ScanIndex, ScanQuery, Similarity}
import repro.util.Timing
import TableResult.secs

/** Figure 6: clustering-query time with μ = 5 and varying ε, exact cosine.
  *
  * Columns mirror the figure's series:
  *  - ours (spark)   → index query (Algorithms 3–5) on the Spark index
  *  - GS*-Index(seq) → sequential index query on the sequential index
  *  - ppSCAN-like    → parallel per-query pruned SCAN (no index, recomputes
  *                     similarities every query)
  * Index construction time is excluded (both index implementations query a
  * prebuilt index), exactly as in the paper's figure.
  */
object F6EpsSweep {

  private val mu      = 5
  private val epsList = Seq(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
  private val trials  = 3

  def run(spark: SparkSession, scale: String): TableResult =
    TableResult(
      s"Figure 6 (scale=$scale): query time, mu=$mu, varying eps, cosine [s]",
      Seq("graph", "eps", "ours(spark)", "GS*-query(seq)", "ppSCAN-like(spark)"),
      sweep(spark, scale)(_ => epsList.map(eps => (mu, eps, f"$eps%.1f"))))

  /** Figs. 6–7's query-time loop: on each graph, build the Spark and the
    * sequential index once, then time each (μ, ε, label) point that
    * `points` gives for the prepared graph — the index query, the
    * GS*-query and ppSCAN-like, each the median of three trials — as the
    * rows (graph, label, three times).
    */
  private[tables] def sweep(spark: SparkSession, scale: String)(
      points: SeqGraph => Seq[(Int, Double, String)]): Seq[Seq[String]] =
    Datasets.all.flatMap { bg =>
      val edges  = bg.load(spark, scale)
      val index  = ScanIndex.build(edges, Similarity.Cosine)
      val g      = PreparedGraph.of(edges).value
      val seqIdx = SeqScanIndex.buildOpt(g, Similarity.Cosine)

      val out = points(g).map { case (mu, eps, label) =>
        val (_, tOurs) = Timing.medianTime(trials)(ScanQuery.cluster(index, mu, eps).collect())
        val (_, tSeq)  = Timing.medianTime(trials)(seqIdx.cluster(mu, eps))
        val (_, tPp)   = Timing.medianTime(trials)(
          PpScan.cluster(edges, Similarity.Cosine, mu, eps).collect())
        Seq(bg.name, label, secs(tOurs), secs(tSeq), secs(tPp))
      }
      index.unpersist()
      edges.unpersist()
      out
    }
}
