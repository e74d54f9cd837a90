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

  /** Figs. 9–10's graphs (one power-law, two dense weighted), sample counts
    * and Σ.
    */
  private[tables] val graphs =
    Datasets.all.filter(g => Set("orkut-lite", "vessel-lite", "cochlea-lite").contains(g.name))
  private[tables] val ks = Seq(16, 64, 256)
  private val mus         = Seq(2, 8, 32)
  private val epsList     = Seq(0.3, 0.5, 0.7)

  /** Best modularity over Σ plus the argmax parameters. */
  private[tables] def bestModularity(edges: DataFrame, index: ScanIndex): (Double, Int, Double) = {
    val scored = for { mu <- mus; eps <- epsList }
      yield (Modularity.modularity(edges, ScanQuery.cluster(index, mu, eps)), mu, eps)
    scored.maxBy(_._1)
  }

  def run(spark: SparkSession, scale: String): TableResult = {
    var seedCounter = 9000L
    val rows = graphs.flatMap { bg =>
      val edges   = bg.load(spark, scale)
      val measure = Similarity.Cosine
      PreparedGraph.of(edges) // collected before timing, so no build pays for it

      val (exactIdx, tExact) = Timing.time(ScanIndex.build(edges, measure))
      val (qExact, muE, epsE) = bestModularity(edges, exactIdx)
      exactIdx.unpersist()
      val exactRow = Seq(bg.name, "exact", secs(tExact), f"$qExact%.4f", s"($muE, $epsE)")

      val approxRows = ks.map { k =>
        seedCounter += 1
        val (idx, tApprox) = Timing.time(ApproxSimilarity.buildIndex(edges, measure, k, seedCounter))
        val (q, muB, epsB) = bestModularity(edges, idx)
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
