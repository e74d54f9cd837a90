package repro.core

import org.apache.spark.sql.DataFrame

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

  /** Exact similarities for every edge: the §6.1 merge kernel over the
    * prepared graph's degree-directed CSR, in vertex stripes (`EdgeSims`).
    * Each triangle is found exactly once and contributes to its three edges.
    *
    * Returns (src, dst, sim) in canonical orientation, a local relation
    * built on the driver.
    */
  def similarities(canonical: DataFrame, measure: Measure): DataFrame =
    EdgeSims.exact(canonical, measure).similarities
}
