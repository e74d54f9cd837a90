package repro.tables

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.approx.ApproxSimilarity
import repro.core.{PreparedGraph, ScanIndex, ScanQuery, Similarity}
import repro.quality.Modularity
import repro.util.Timing
import TableResult.secs

/** Figure 9: trade-off between approximate index construction time and the
  * best modularity found over the parameter grid Σ, per sample count k.
  *
  * The paper's Σ = {2,4,…,2^18} × {.01,…,.99} is reduced (DESIGN.md) to
  * {2,8,32} × {.3,.5,.7}; unclustered vertices count as singleton
  * clusters, as in §7.3.4.
  */
object F9Modularity {

  val defaultMus: Seq[Int]     = Seq(2, 8, 32)
  val defaultEps: Seq[Double]  = Seq(0.3, 0.5, 0.7)
  val defaultKs: Seq[Int]      = Seq(16, 64, 256)

  /** Best modularity over the grid plus the argmax parameters. */
  def bestModularity(
      edges: DataFrame,
      index: ScanIndex,
      mus: Seq[Int],
      epsList: Seq[Double]): (Double, Int, Double) = {
    val scored = for { mu <- mus; eps <- epsList }
      yield (Modularity.modularity(edges, ScanQuery.cluster(index, mu, eps)), mu, eps)
    scored.maxBy(_._1)
  }

  def run(
      spark: SparkSession,
      scale: String,
      graphNames: Seq[String] = Seq("orkut-lite", "vessel-lite", "cochlea-lite"),
      ks: Seq[Int] = defaultKs,
      mus: Seq[Int] = defaultMus,
      epsList: Seq[Double] = defaultEps): TableResult = {
    var seedCounter = 9000L
    val rows = Datasets.suite(scale).filter(g => graphNames.contains(g.name)).flatMap { bg =>
      val edges   = bg.load(spark)
      val measure = Similarity.Cosine
      PreparedGraph.of(edges) // collected before timing, so no build pays for it

      val (exactIdx, tExact) = Timing.time(ScanIndex.build(edges, measure))
      val (qExact, muE, epsE) = bestModularity(edges, exactIdx, mus, epsList)
      exactIdx.unpersist()
      val exactRow = Seq(bg.name, "exact", secs(tExact), f"$qExact%.4f", s"($muE, $epsE)")

      val approxRows = ks.map { k =>
        seedCounter += 1
        val (idx, tApprox) = Timing.time(ApproxSimilarity.buildIndex(edges, measure, k, seedCounter))
        val (q, muB, epsB) = bestModularity(edges, idx, mus, epsList)
        idx.unpersist()
        Seq(bg.name, s"k=$k", secs(tApprox), f"$q%.4f", s"($muB, $epsB)")
      }
      edges.unpersist()
      exactRow +: approxRows
    }
    TableResult(
      s"Figure 9 (scale=$scale): construction time vs best modularity (cosine/SimHash)",
      Seq("graph", "setting", "construction[s]", "best modularity", "argmax (mu, eps)"),
      rows)
  }
}
