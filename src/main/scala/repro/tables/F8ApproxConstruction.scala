package repro.tables

import org.apache.spark.sql.SparkSession
import repro.approx.ApproxSimilarity
import repro.core.{ScanIndex, Similarity}
import repro.util.Timing
import TableResult.secs

/** Figure 8: approximate index construction times with varying numbers of
  * LSH samples k (SimHash for cosine; k-partition MinHash for Jaccard —
  * Jaccard only on unweighted graphs, as in the paper). The exact
  * construction time is reported alongside as the reference line.
  *
  * Each trial uses a fresh pseudorandom seed, as in §7.3.3; each cell is
  * the median of two trials (`Timing.medianTime`: the faster of the two).
  */
object F8ApproxConstruction {

  private val ks     = Seq(4, 16, 64, 256)
  private val trials = 2

  def run(spark: SparkSession, scale: String): TableResult = {
    var seedCounter = 1000L
    val rows = Datasets.all.flatMap { bg =>
      val edges = bg.load(spark, scale)
      val measures: Seq[(String, Similarity.Measure)] =
        if (bg.weighted) Seq("cosine" -> Similarity.Cosine)
        else Seq("cosine" -> Similarity.Cosine, "jaccard" -> Similarity.Jaccard)

      val out = measures.flatMap { case (mname, measure) =>
        val (_, tExact) = Timing.medianTime(trials) {
          val idx = ScanIndex.build(edges, measure)
          idx.unpersist()
          idx
        }
        ks.map { k =>
          val (_, tApprox) = Timing.medianTime(trials) {
            seedCounter += 1
            val idx = ApproxSimilarity.buildIndex(edges, measure, k, seedCounter)
            idx.unpersist()
            idx
          }
          Seq(bg.name, mname, k.toString, secs(tApprox), secs(tExact))
        }
      }
      edges.unpersist()
      out
    }
    TableResult(
      s"Figure 8 (scale=$scale): approx index construction time vs k [s]",
      Seq("graph", "measure", "k", "approx", "exact(ref)"),
      rows)
  }
}
