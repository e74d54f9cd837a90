package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Graph substrate: canonical simple-graph edge lists and derived views.
  *
  * Conventions (see DESIGN.md "Data model"):
  *   - canonical edges: (src: Long, dst: Long, weight: Double), src < dst,
  *     no self-loops, no duplicate edges; weight = 1.0 for unweighted graphs.
  *   - symmetric adjacency: (v, nbr, weight), both directions of every edge.
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

  /** Both directions of every canonical edge: (v, nbr, weight). */
  def symmetrize(canonical: DataFrame): DataFrame =
    canonical
      .select(col("src").as("v"), col("dst").as("nbr"), col("weight"))
      .unionByName(
        canonical.select(col("dst").as("v"), col("src").as("nbr"), col("weight")))

  /** All vertices incident to at least one edge: (v). */
  def vertices(canonical: DataFrame): DataFrame =
    symmetrize(canonical).select("v").distinct()

  /** Open degrees |N(v)|: (v, deg). Vertices with degree 0 do not appear. */
  def degrees(canonical: DataFrame): DataFrame =
    symmetrize(canonical).groupBy("v").agg(count(lit(1)).as("deg"))

  /** Number of edges. */
  def numEdges(canonical: DataFrame): Long = canonical.count()

  /** Number of (non-isolated) vertices. */
  def numVertices(canonical: DataFrame): Long = vertices(canonical).count()
}
