package repro.tables

import org.apache.spark.sql.SparkSession
import repro.baseline.{PpScan, SeqScanIndex}
import repro.core.{PreparedGraph, ScanIndex, ScanQuery, Similarity}
import repro.util.Timing
import TableResult.secs

/** Figure 7: clustering-query time with ε = 0.6 and varying μ, exact
  * cosine. μ sweeps powers of two up to
  * min(16384, 2^⌊log2(max degree)⌋), as in the paper.
  */
object F7MuSweep {

  def run(
      spark: SparkSession,
      scale: String,
      eps: Double = 0.6,
      trials: Int = 3,
      muCap: Int = 16384,
      graphNames: Option[Seq[String]] = None): TableResult = {
    val rows = Datasets.select(scale, graphNames).flatMap { bg =>
      val edges  = bg.load(spark)
      val index  = ScanIndex.build(edges, Similarity.Cosine)
      val g      = PreparedGraph.of(edges).value
      val seqIdx = SeqScanIndex.buildOpt(g, Similarity.Cosine)

      val maxDeg = g.maxDegree
      val mus = Iterator
        .iterate(2)(_ * 2)
        .takeWhile(m => m <= math.min(muCap, Integer.highestOneBit(maxDeg)))
        .toSeq

      val out = mus.map { mu =>
        val (_, tOurs) = Timing.medianTime(trials)(ScanQuery.cluster(index, mu, eps).collect())
        val (_, tSeq)  = Timing.medianTime(trials)(seqIdx.cluster(mu, eps))
        val (_, tPp)   = Timing.medianTime(trials)(
          PpScan.cluster(edges, Similarity.Cosine, mu, eps).collect())
        Seq(bg.name, mu.toString, secs(tOurs), secs(tSeq), secs(tPp))
      }
      index.unpersist()
      edges.unpersist()
      out
    }
    TableResult(
      s"Figure 7 (scale=$scale): query time, eps=$eps, varying mu, cosine [s]",
      Seq("graph", "mu", "ours(spark)", "GS*-query(seq)", "ppSCAN-like(spark)"),
      rows)
  }
}
