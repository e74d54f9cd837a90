package repro.tables

import org.apache.spark.sql.SparkSession
import repro.approx.ApproxSimilarity
import repro.core.{ScanIndex, ScanQuery, Similarity}
import repro.graph.GraphOps
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

  def run(
      spark: SparkSession,
      scale: String,
      graphNames: Seq[String] = Seq("orkut-lite", "vessel-lite", "cochlea-lite"),
      ks: Seq[Int] = F9Modularity.defaultKs,
      mus: Seq[Int] = F9Modularity.defaultMus,
      epsList: Seq[Double] = F9Modularity.defaultEps): TableResult = {
    var seedCounter = 4000L
    val rows = Datasets.suite(scale).filter(g => graphNames.contains(g.name)).flatMap { bg =>
      val edges   = bg.load(spark)
      val verts   = GraphOps.vertices(edges)
      val measure = Similarity.Cosine

      val exactIdx = ScanIndex.build(edges, measure)
      val (_, muBest, epsBest) =
        F9Modularity.bestModularity(edges, exactIdx, mus, epsList)
      val truth = ScanQuery.cluster(exactIdx, muBest, epsBest)
      exactIdx.unpersist()

      val out = ks.map { k =>
        seedCounter += 1
        val (idx, tApprox) = Timing.time(ApproxSimilarity.buildIndex(edges, measure, k, seedCounter))
        val approx = ScanQuery.cluster(idx, muBest, epsBest)
        val a = Ari.ari(approx, truth, verts)
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
