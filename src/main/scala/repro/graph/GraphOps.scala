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
    * canonical form: ids as Long, orient src < dst, drop self-loops, merge
    * duplicate edges keeping the maximum weight. A null stays null, for
    * the prepared graph (`SeqGraph.fromDataFrame`) to refuse by its row:
    * a row with a null endpoint keeps its orientation (`least` and
    * `greatest` skip a null, which would make (null, v) the self-loop
    * (v, v)), and an edge with a null weight among its rows keeps a null
    * weight (`max` skips a null).
    */
  def canonicalize(edges: DataFrame): DataFrame = {
    val (s, d) = (col("src").cast("long"), col("dst").cast("long"))
    val open   = s.isNull || d.isNull
    val w      = if (edges.columns.contains("weight")) col("weight") else lit(1.0)
    edges
      .select(
        when(open, s).otherwise(least(s, d)).as("src"),
        when(open, d).otherwise(greatest(s, d)).as("dst"),
        w.cast("double").as("weight"))
      .filter(coalesce(col("src") =!= col("dst"), lit(true)))
      .groupBy("src", "dst")
      .agg(when(count(lit(1)) === count(col("weight")), max("weight")).as("weight"))
  }
}
