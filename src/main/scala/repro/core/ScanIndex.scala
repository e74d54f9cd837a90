package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.baseline.{IndexLayout, SeqGraph, SeqScanIndex}

/** The GS*-Index structure (§3.2 / §4.1, Algorithm 2): NO and CO as arrays
  * (`IndexLayout`), built by the build and kept on the driver as `layout`,
  * which every index query reads beside the prepared graph (`graph`). The
  * layout, like the similarities, is broadcast only when a task or a view
  * first reads it (`Shipped`).
  *
  * - NO[v]: v's neighbors by descending similarity, ties by ascending id.
  *   Rank 1 of the closed neighbor order is v itself with σ(v,v) = 1, so
  *   the μ-th entry is the (μ−1)-th most similar neighbor.
  * - CO[μ]: the vertices with |N̄(v)| ≥ μ by descending threshold (v's NO
  *   similarity at rank μ); v is a core at (μ, ε) iff its threshold is
  *   ≥ ε. Size Σ_v deg(v) = 2m, the paper's index-space bound.
  *
  * The ε-similar neighbors of v are a prefix of NO[v], and the
  * (μ, ε)-cores a prefix of CO[μ]. The DataFrames below are uncached views
  * of the arrays, for tests and checks: `neighborOrder` (v, rank, nbr, sim)
  * with rank 2..deg+1, written by vertex stripes, and `coreOrder` (mu,
  * coreRank, v, threshold) with coreRank from 1, written by μ stripes.
  */
final class ScanIndex private (
    edgeSims: EdgeSims,
    private[repro] val layout: Shipped[IndexLayout],
    kept: Option[DataFrame],
    orders: Stripes.Phase) {

  /** Kept here so a query builds no DataFrame to find its session. */
  val spark: SparkSession = edgeSims.spark

  /** The prepared graph the index is over: its dense ids are the layout's. */
  private[core] def graph: Broadcast[SeqGraph] = edgeSims.graph

  /** Largest μ for which any vertex can be a core (= max |N̄(v)|); 1 for an
    * index with no edges.
    */
  val maxMu: Int = layout.value.maxMu

  /** How each stripe phase of the build ran: the similarities' phases,
    * then "orders".
    */
  val phases: Seq[Stripes.Phase] = edgeSims.phases :+ orders

  /** (src, dst, sim): the DataFrame given to `fromSimilarities`, else a view. */
  def similarities: DataFrame = kept.getOrElse(edgeSims.similarities)

  def neighborOrder: DataFrame = {
    val (bl, bg) = (layout, graph)
    EdgeSims.rows(spark, bg.value.n, "v LONG, rank INT, nbr LONG, sim DOUBLE") { v =>
      val (ix, g) = (bl.value, bg.value)
      ix.noNbr(v).indices.iterator.map(i => Row(g.ids(v), i + 2, g.ids(ix.noNbr(v)(i)), ix.noSim(v)(i)))
    }
  }

  def coreOrder: DataFrame = {
    val (bl, bg) = (layout, graph)
    EdgeSims.rows(spark, maxMu + 1, "mu INT, coreRank INT, v LONG, threshold DOUBLE") { mu =>
      val (ix, g) = (bl.value, bg.value)
      ix.coVert(mu).indices.iterator.map(j => Row(mu, j + 1, g.ids(ix.coVert(mu)(j)), ix.coThresh(mu)(j)))
    }
  }

  /** A no-op: the build leaves the index in memory, as driver arrays. */
  def cache(): ScanIndex = this

  /** A no-op: the build has built every array of the index. */
  def materialize(): ScanIndex = this

  /** Release the index: drop its similarities and layout, destroying the
    * broadcast of each that a task or a view read, and unpersist the
    * DataFrame `fromSimilarities` kept; the prepared graph stays. A later
    * query or read of a view is refused.
    */
  def unpersist(): Unit = {
    kept.foreach(_.unpersist())
    edgeSims.byEdge.release()
    layout.release()
  }
}

object ScanIndex {

  /** Build the full index for a canonical graph under `measure`. */
  def build(canonical: DataFrame, measure: Similarity.Measure): ScanIndex =
    fromEdgeSims(EdgeSims.exact(canonical, measure))

  /** Build the index from precomputed per-edge similarities. The index
    * keeps `sims` as its `similarities`, cached before the collect so a
    * costly producer runs once; `unpersist` releases it.
    */
  def fromSimilarities(canonical: DataFrame, sims: DataFrame): ScanIndex =
    assemble(EdgeSims.collect(canonical, sims.cache()), Some(sims))

  /** The index over given similarities, e.g. `EdgeSims.approx`'s estimates. */
  def fromEdgeSims(sims: EdgeSims): ScanIndex = assemble(sims, None)

  /** The stripe phase "orders" (`Stripes`), bounded by the 2m NO entries:
    * stripe i sorts NO[v] for v ≡ i (mod p) and the stripe's sorted run of
    * each CO[μ] (`SeqScanIndex.orders`); the driver places NO and merges
    * the runs (`SeqScanIndex.layout`), as the sequential build does for its
    * one stripe.
    */
  private def assemble(sims: EdgeSims, kept: Option[DataFrame]): ScanIndex = {
    val (sc, bg, bs) = (sims.spark.sparkContext, sims.graph, sims.byEdge)
    val phase = Stripes.phase("orders", 2 * bg.value.numEdges, Stripes.OrdersGrain)
    val parts = Stripes.run(sc, phase, sc.defaultParallelism)((i, p) => SeqScanIndex.orders(bg.value, bs.value, i, p))
    new ScanIndex(sims, new Shipped(sc, "the index layout", SeqScanIndex.layout(bg.value, parts.toArray)), kept, phase)
  }
}
