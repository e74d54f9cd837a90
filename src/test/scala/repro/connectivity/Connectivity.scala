package repro.connectivity

import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel

/** Connectivity oracle for the tests (§2.3.2): GraphX's distributed
  * `connectedComponents`, itself checked against DuckDB's recursive CTE.
  * The queries run their own union-find (`SeqScanIndex.walkEpsEdges` and
  * `merge`, §6.2's choice).
  *
  * Returns (v, component) where `component` is the minimum vertex id of v's
  * component — the canonical labeling that makes cluster outputs
  * comparable across all implementations in this repo.
  */
object Connectivity {

  private val outSchema =
    StructType(Seq(StructField("v", LongType, false), StructField("component", LongType, false)))

  /** Connected components via GraphX. `vertices` must contain every vertex
    * that needs a label (isolated vertices become singleton components);
    * `edges` is any (src, dst) DataFrame over those vertices.
    */
  def connectedComponentsGraphX(
      spark: SparkSession,
      vertices: DataFrame,
      edges: DataFrame): DataFrame = {
    val vr = vertices.select(col("v").cast("long")).rdd.map(r => (r.getLong(0), 1))
    val er = edges
      .select(col("src").cast("long"), col("dst").cast("long"))
      .rdd
      .map(r => Edge(r.getLong(0), r.getLong(1), 1))
    val graph = Graph(vr, er, defaultVertexAttr = 1,
      edgeStorageLevel = StorageLevel.MEMORY_ONLY,
      vertexStorageLevel = StorageLevel.MEMORY_ONLY)
    val comps = graph.connectedComponents().vertices.map { case (v, c) => Row(v, c) }
    spark.createDataFrame(comps, outSchema)
  }
}
