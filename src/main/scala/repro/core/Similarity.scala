package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.GraphOps

/** Exact structural-similarity computation (Algorithm 1 + §6.1).
  *
  * For adjacent u, v the paper defines (weighted) cosine similarity over
  * closed neighborhoods with w(x,x) = 1:
  *
  *   σ(u,v) = dot(u,v) / (‖N̄(u)‖ · ‖N̄(v)‖)
  *   dot(u,v) = 2·w(u,v) + Σ_{x ∈ N(u)∩N(v)} w(u,x)·w(v,x)
  *   ‖N̄(v)‖² = 1 + Σ_{x ∈ N(v)} w(v,x)²
  *
  * (the 2·w(u,v) term is the x=u and x=v contributions of the closed
  * neighborhoods). For unweighted graphs all weights are 1, so dot is
  * |N̄(u) ∩ N̄(v)| and Jaccard similarity is dot / (|N̄(u)|+|N̄(v)|−dot).
  */
object Similarity {

  /** Similarity measure selector. Jaccard is defined for unweighted graphs
    * only (the paper does not use weighted Jaccard; §2.1.2).
    */
  sealed trait Measure
  case object Cosine  extends Measure
  case object Jaccard extends Measure

  /** Exact similarities for every edge: the §6.1 merge kernel over a
    * broadcast degree-directed CSR, one vertex stripe per task (`EdgeSims`).
    * Each triangle is found exactly once and contributes to its three edges.
    *
    * Returns (src, dst, sim) in canonical orientation.
    */
  def similarities(canonical: DataFrame, measure: Measure): DataFrame =
    EdgeSims.exact(canonical, measure).similarities

  /** Exact similarities via a per-edge closed-neighborhood join — the
    * "hash table" flavor of Algorithm 1. Asymptotically worse shuffles on
    * skewed graphs but trivially restrictable to an edge subset; used as a
    * cross-check and by the §6.3 approximation heuristic's exact fallback.
    */
  def similaritiesNaive(canonical: DataFrame, measure: Measure): DataFrame =
    similaritiesForEdges(canonical, canonical.select("src", "dst"), measure)

  /** Exact similarities restricted to `subset` (columns src, dst in
    * canonical orientation; must be a subset of the graph's edges).
    */
  def similaritiesForEdges(canonical: DataFrame, subset: DataFrame, measure: Measure): DataFrame = {
    val edges  = forMeasure(canonical, measure)
    val target = subset.select(col("src"), col("dst")).join(edges, Seq("src", "dst"))
    val cadj   = GraphOps.closedAdjacency(edges)

    // dot(u,v) = Σ_{x ∈ N̄(u) ∩ N̄(v)} w(u,x)·w(v,x); the closed adjacency
    // contains the self rows, so the x=u and x=v terms appear naturally.
    val aSide = cadj.select(col("v").as("av"), col("nbr").as("ax"), col("weight").as("aw"))
    val bSide = cadj.select(col("v").as("bv"), col("nbr").as("bx"), col("weight").as("bw"))
    val withDot = target
      .join(aSide, col("src") === col("av"))
      .join(bSide, col("dst") === col("bv") && col("ax") === col("bx"))
      .groupBy("src", "dst")
      .agg(sum(col("aw") * col("bw")).as("dot"))

    finish(withDot, edges, measure)
  }

  /** Squared closed-neighborhood norms: (v, normsq) with
    * normsq = 1 + Σ w(v,x)².
    */
  def normSquares(edges: DataFrame): DataFrame =
    GraphOps
      .symmetrize(edges)
      .groupBy("v")
      .agg((lit(1.0) + sum(col("weight") * col("weight"))).as("normsq"))

  /** Jaccard ignores weights: coerce to the unweighted graph first. */
  private def forMeasure(canonical: DataFrame, measure: Measure): DataFrame =
    measure match {
      case Cosine  => canonical
      case Jaccard => canonical.select(col("src"), col("dst"), lit(1.0).as("weight"))
    }

  /** Turn per-edge dots into the requested similarity score. */
  private def finish(withDot: DataFrame, edges: DataFrame, measure: Measure): DataFrame =
    measure match {
      case Cosine =>
        val ns = normSquares(edges)
        withDot
          .join(ns.select(col("v").as("nsv"), col("normsq").as("nsqs")), col("src") === col("nsv"))
          .join(ns.select(col("v").as("nsw"), col("normsq").as("nsqd")), col("dst") === col("nsw"))
          .select(col("src"), col("dst"), (col("dot") / sqrt(col("nsqs") * col("nsqd"))).as("sim"))
      case Jaccard =>
        // dot = |N̄(u) ∩ N̄(v)| under all-ones weights.
        val deg = GraphOps.degrees(edges)
        withDot
          .join(deg.select(col("v").as("dgv"), col("deg").as("degs")), col("src") === col("dgv"))
          .join(deg.select(col("v").as("dgw"), col("deg").as("degd")), col("dst") === col("dgw"))
          .select(
            col("src"),
            col("dst"),
            (col("dot") / (col("degs") + lit(1.0) + col("degd") + lit(1.0) - col("dot"))).as("sim"))
    }
}
