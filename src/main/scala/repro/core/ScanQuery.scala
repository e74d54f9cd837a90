package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.baseline.SeqScanIndex
import scala.jdk.CollectionConverters._
import scala.reflect.ClassTag

/** Clustering queries over the SCAN index (§4.2, Algorithms 3–5) and
  * hub/outlier determination (§4.3).
  *
  * Cluster labels are the minimum core vertex id of each cluster's core
  * component; border (non-core) vertices are assigned deterministically to
  * the cluster of their most similar ε-similar core neighbor, ties broken
  * toward the lower core id (the de-randomized rule of §7.3.4, used here
  * everywhere so outputs are equality-comparable across implementations).
  *
  * Index queries read the broadcast array layout (`ScanIndex.layout`) and
  * run the sequential GS*-Index kernels (`IndexLayout.clusterStripe`,
  * `SeqScanIndex.rolesStripe`) in one Spark job of p stripes; the driver
  * maps dense ids back through the prepared graph. Results are local
  * DataFrames, so actions on them start no further job.
  */
object ScanQuery {

  /** GetCores (Algorithm 3): vertices v with |N_ε(v)| ≥ μ, the prefix of
    * CO[μ] with threshold ≥ ε, read on the driver.
    */
  def cores(index: ScanIndex, mu: Int, eps: Double): DataFrame = {
    require(mu >= 2, s"SCAN requires mu >= 2, got $mu")
    val ids = index.graph.value.ids
    local(index.spark, "v LONG", index.layout.value.cores(mu, eps).map(v => Row(ids(v))))
  }

  /** Cluster (Algorithm 5): full clustering for (μ, ε) as (v, cluster).
    * One job of p = min(defaultParallelism, cores) tasks, task i walking
    * the cores at CO[μ] prefix positions ≡ i (mod p); the driver merges
    * their spanning forests and border picks. No cores, no job.
    */
  def cluster(index: ScanIndex, mu: Int, eps: Double): DataFrame = {
    require(mu >= 2, s"SCAN requires mu >= 2, got $mu")
    val (spark, layout) = (index.spark, index.layout)
    val cores = layout.value.cores(mu, eps)
    val p     = math.min(spark.sparkContext.defaultParallelism, cores.length)
    val parts = inTasks(spark, p)(i => layout.value.clusterStripe(mu, eps, i, p))
    local(spark, "v LONG, cluster LONG", SeqScanIndex.merge(index.graph.value, cores, parts).map { case (v, c) => Row(v, c) })
  }

  /** Hubs and outliers (§4.3): unclustered vertices classified by how many
    * distinct clusters their (graph) neighbors belong to — ≥ 2 → hub,
    * otherwise outlier. Returns (v, role) with role ∈ {"hub", "outlier"}.
    * The dense cluster labels (`labels`) are broadcast beside the
    * prepared graph (`PreparedGraph`); one job of vertex stripes runs
    * `rolesStripe`.
    */
  def hubsAndOutliers(canonical: DataFrame, clusters: DataFrame): DataFrame = {
    val (spark, bg) = (canonical.sparkSession, PreparedGraph.of(canonical))
    val bl = spark.sparkContext.broadcast(labels(bg.value.ids, clusters))
    val p = math.min(spark.sparkContext.defaultParallelism, bg.value.n)
    val roles = inTasks(spark, p)(i => SeqScanIndex.rolesStripe(bg.value, bl.value, i, p).toArray).flatten
    bl.destroy()
    local(spark, "v LONG, role STRING", roles.map { case (v, r) => Row(v, r) })
  }

  /** `clusters` (v, cluster), collected, as dense labels over the
    * ascending ids `ids` (`SeqScanIndex.labels`); a query's local result
    * collects without a job.
    */
  private[repro] def labels(ids: Array[Long], clusters: DataFrame): Array[Int] = {
    val rows = clusters.select("v", "cluster").collect()
    SeqScanIndex.labels(ids, rows.iterator.map(r => r.getAs[Number](0).longValue -> r.getAs[Number](1).longValue))
  }

  /** f(0), ..., f(p − 1) in one job of p tasks; no job when p = 0. */
  private[repro] def inTasks[T: ClassTag](spark: SparkSession, p: Int)(f: Int => T): Seq[T] =
    if (p == 0) Seq.empty else spark.sparkContext.parallelize(0 until p, p).map(f).collect().toSeq

  /** A DataFrame over driver-side rows (a local relation: collecting it
    * runs no job).
    */
  private[repro] def local(spark: SparkSession, schema: String, rows: Seq[Row]): DataFrame =
    spark.createDataFrame(rows.asJava, StructType.fromDDL(schema))
}
