package repro.quality

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.GraphOps

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

  def modularity(canonical: DataFrame, clusters: DataFrame): Double = {
    val assign = Labels.withSingletons(GraphOps.vertices(canonical), clusters)

    val wTotalRow = canonical.agg(sum("weight")).collect()(0)
    if (wTotalRow.isNullAt(0)) return 0.0
    val w = wTotalRow.getDouble(0)
    if (w == 0.0) return 0.0

    val intra = canonical
      .join(assign.select(col("v").as("av"), col("cluster").as("cs")), col("src") === col("av"))
      .join(assign.select(col("v").as("bv"), col("cluster").as("cd")), col("dst") === col("bv"))
      .filter(col("cs") === col("cd"))
      .groupBy(col("cs").as("cluster"))
      .agg(sum("weight").as("win"))

    val strength = GraphOps
      .symmetrize(canonical)
      .groupBy("v")
      .agg(sum("weight").as("s"))
    val clusterStrength = assign
      .join(strength, Seq("v"), "left")
      .groupBy("cluster")
      .agg(sum(coalesce(col("s"), lit(0.0))).as("sc"))

    val terms = clusterStrength
      .join(intra, Seq("cluster"), "left")
      .select(
        (coalesce(col("win"), lit(0.0)) / w -
          (col("sc") / (2 * w)) * (col("sc") / (2 * w))).as("q"))
      .agg(sum("q"))
      .collect()(0)
    if (terms.isNullAt(0)) 0.0 else terms.getDouble(0)
  }
}
