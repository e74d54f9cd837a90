package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Graph substrate: canonical simple-graph edge lists, the input every
  * operator reads through its prepared graph (`repro.core.PreparedGraph`).
  *
  * Convention (see DESIGN.md "Data model"): canonical edges are
  * (src: Long, dst: Long, weight: Double), src < dst, no self-loops, no
  * duplicate edges; weight = 1.0 for unweighted graphs.
  */
object GraphOps {

  /** Normalize an arbitrary (src, dst[, weight]) edge DataFrame into
    * canonical form: orient src < dst, drop self-loops, merge duplicate
    * edges keeping the maximum weight.
    */
  def canonicalize(edges: DataFrame): DataFrame = {
    val w = if (edges.columns.contains("weight")) col("weight") else lit(1.0)
    edges
      .select(
        least(col("src"), col("dst")).as("src"),
        greatest(col("src"), col("dst")).as("dst"),
        w.cast("double").as("weight"))
      .filter(col("src") =!= col("dst"))
      .groupBy("src", "dst")
      .agg(max("weight").as("weight"))
  }
}
