package repro.connectivity

import org.apache.spark.graphx.{Edge, Graph}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types.{LongType, StructField, StructType}
import org.apache.spark.storage.StorageLevel

/** Connectivity substrate for the clustering query (§4.2 line 6).
  *
  * The paper uses a parallel connectivity algorithm (Gazit / union-find in
  * the implementation). On Spark the vertex-centric analogue is GraphX's
  * `connectedComponents`, the distributed implementation. The index query
  * runs its own union-find inside `SeqScanIndex.clusterStripe`/`merge`; the
  * ppSCAN-like tail uses the driver-side union-find below, which tests
  * cross-check against GraphX.
  *
  * Both return (v, component) where `component` is the minimum vertex id of
  * v's component — this canonical labeling is what makes cluster outputs
  * comparable across all implementations in this repo.
  */
object Connectivity {

  private val outSchema =
    StructType(Seq(StructField("v", LongType, false), StructField("component", LongType, false)))

  /** Connected components via driver-side union-find over the collected
    * edge list — the dataflow mirror of §6.2, where the paper's
    * implementation likewise replaces a full parallel connectivity
    * algorithm with union-find for query practicality. The core subgraph
    * of a query is far smaller than the graph (O(Z) of Theorem 4.3), so
    * collecting it avoids tens of Pregel supersteps of per-job scheduler
    * overhead. The connectivity of the ppSCAN-like baseline
    * (`ScanQuery.clusterFrom`); cross-checked against GraphX in tests.
    */
  def connectedComponentsUnionFind(
      spark: SparkSession,
      vertices: DataFrame,
      edges: DataFrame): DataFrame = {
    val vs = vertices.select(col("v").cast("long")).collect().map(_.getLong(0)).sorted
    val idOf = vs.iterator.zipWithIndex.map { case (id, i) => id -> i }.toMap
    val parent = Array.tabulate(vs.length)(identity)
    def find(x: Int): Int = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != c) { val nx = parent(c); parent(c) = r; c = nx }
      r
    }
    edges.select(col("src").cast("long"), col("dst").cast("long")).collect().foreach { row =>
      val (a, b) = (find(idOf(row.getLong(0))), find(idOf(row.getLong(1))))
      // Link the larger root under the smaller: vs is sorted, so the root
      // index is always the minimum dense index = minimum original id.
      if (a != b) parent(math.max(a, b)) = math.min(a, b)
    }
    val rows = new java.util.ArrayList[Row](vs.length)
    var i = 0
    while (i < vs.length) { rows.add(Row(vs(i), vs(find(i)))); i += 1 }
    spark.createDataFrame(rows, outSchema)
  }

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
