package repro.tables

import org.apache.spark.sql.SparkSession
import repro.approx.ApproxSimilarity
import repro.core.{ScanIndex, ScanQuery, Similarity}
import repro.quality.Ari
import repro.util.Timing
import TableResult.secs

/** Figure 10: ARI of the approximate clustering against the exact-index
  * "ground truth" clustering, at the modularity-maximizing (μ, ε) of the
  * *exact* measure (the paper's protocol), with construction time
  * alongside. Border assignment is already deterministic everywhere in
  * this repo (§7.3.4's de-randomization).
  */
object F10Ari {

  def run(spark: SparkSession, scale: String): TableResult = {
    var seedCounter = 4000L
    val rows = F9Modularity.graphs.flatMap { bg =>
      val edges   = bg.load(spark, scale)
      val measure = Similarity.Cosine

      val exactIdx = ScanIndex.build(edges, measure)
      val (_, muBest, epsBest) = F9Modularity.bestModularity(edges, exactIdx)
      val truth = ScanQuery.cluster(exactIdx, muBest, epsBest)
      exactIdx.unpersist()

      val out = F9Modularity.ks.map { k =>
        seedCounter += 1
        val (idx, tApprox) = Timing.time(ApproxSimilarity.buildIndex(edges, measure, k, seedCounter))
        val approx = ScanQuery.cluster(idx, muBest, epsBest)
        val a = Ari.ari(edges, approx, truth)
        idx.unpersist()
        Seq(bg.name, s"($muBest, $epsBest)", s"k=$k", secs(tApprox), f"$a%.4f")
      }
      edges.unpersist()
      out
    }
    TableResult(
      s"Figure 10 (scale=$scale): ARI of approx clustering vs exact (cosine/SimHash)",
      Seq("graph", "(mu, eps)", "k", "construction[s]", "ARI"),
      rows)
  }
}
