package repro.quality

import org.apache.spark.sql.DataFrame
import repro.core.{PreparedGraph, ScanQuery}

/** Modularity (§7.2, Newman–Girvan [49]; weighted extension [48]).
  *
  * Q = Σ_c [ w_in(c)/W − (S_c / 2W)² ] where W is the total edge weight
  * (each undirected edge counted once), w_in(c) the weight of edges inside
  * cluster c, and S_c the summed (weighted) degree of c's members. This is
  * algebraically the paper's (1/2m) Σ_{u,v} (A_uv − |N(u)||N(v)|/2m) δ_uv
  * generalized to weights.
  *
  * As in §7.3.4, unclustered vertices are treated as singleton clusters
  * (they contribute −(s_v/2W)² each and no intra-cluster weight).
  */
object Modularity {

  /** One O(m) pass over the prepared graph's CSR and the dense labels of
    * `clusters` (`ScanQuery.labels`); on a prepared graph and a cluster
    * query's own result it runs no Spark job and collects no rows.
    */
  def modularity(canonical: DataFrame, clusters: DataFrame): Double = {
    val g     = PreparedGraph.of(canonical).value
    val label = ScanQuery.labels(g.ids, clusters)
    val k     = label.foldLeft(-1)(math.max) + 1
    val (win, sc) = (new Array[Double](k), new Array[Double](k))
    var (w, singletons) = (0.0, 0.0)
    for (u <- 0 until g.n) {
      val (nbrs, wts, c) = (g.adj(u), g.wts(u), label(u))
      var s = 0.0
      for (i <- nbrs.indices) {
        s += wts(i)
        if (nbrs(i) > u) {
          w += wts(i)
          if (c >= 0 && label(nbrs(i)) == c) win(c) += wts(i)
        }
      }
      if (c >= 0) sc(c) += s else singletons += s * s
    }
    if (w == 0.0) return 0.0
    (0 until k).map(c => win(c) / w - (sc(c) / (2 * w)) * (sc(c) / (2 * w))).sum - singletons / (4 * w * w)
  }
}
