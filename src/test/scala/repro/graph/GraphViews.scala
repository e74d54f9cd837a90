package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** DataFrame views of a canonical graph, derived with Spark SQL alone and
  * so independent of the prepared graph (`repro.core.PreparedGraph`) that
  * the program reads: tests check the program's degrees, vertex sets and
  * counts against them, and `GraphOpsSpec` checks them against DuckDB.
  */
object GraphViews {

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
