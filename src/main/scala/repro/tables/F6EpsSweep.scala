package repro.tables

import org.apache.spark.sql.SparkSession
import repro.baseline.{PpScan, SeqScanIndex}
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

  val defaultEps: Seq[Double] = Seq(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

  def run(
      spark: SparkSession,
      scale: String,
      mu: Int = 5,
      epsList: Seq[Double] = defaultEps,
      trials: Int = 3,
      graphNames: Option[Seq[String]] = None): TableResult = {
    val rows = Datasets.select(scale, graphNames).flatMap { bg =>
      val edges  = bg.load(spark)
      val index  = ScanIndex.build(edges, Similarity.Cosine)
      val g      = PreparedGraph.of(edges).value
      val seqIdx = SeqScanIndex.buildOpt(g, Similarity.Cosine)

      val out = epsList.map { eps =>
        val (_, tOurs) = Timing.medianTime(trials)(ScanQuery.cluster(index, mu, eps).collect())
        val (_, tSeq)  = Timing.medianTime(trials)(seqIdx.cluster(mu, eps))
        val (_, tPp)   = Timing.medianTime(trials)(
          PpScan.cluster(edges, Similarity.Cosine, mu, eps).collect())
        Seq(bg.name, f"$eps%.1f", secs(tOurs), secs(tSeq), secs(tPp))
      }
      index.unpersist()
      edges.unpersist()
      out
    }
    TableResult(
      s"Figure 6 (scale=$scale): query time, mu=$mu, varying eps, cosine [s]",
      Seq("graph", "eps", "ours(spark)", "GS*-query(seq)", "ppSCAN-like(spark)"),
      rows)
  }
}
