package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.baseline.SeqScanIndex

/** Clustering queries over the SCAN index (§4.2, Algorithms 3–5) and
  * hub/outlier determination (§4.3).
  *
  * Cluster labels are the minimum core vertex id of each cluster's core
  * component; border (non-core) vertices are assigned deterministically to
  * the cluster of their most similar ε-similar core neighbor, ties broken
  * toward the lower core id (the de-randomized rule of §7.3.4, used here
  * everywhere so outputs are equality-comparable across implementations).
  *
  * A cluster query reads the index's array layout (`ScanIndex.layout`)
  * and runs the sequential GS*-Index stripe kernel
  * (`IndexLayout.clusterStripe`) as a stripe phase (`Stripes`): below its
  * grain as its single stripe on the driver — exactly the sequential
  * query, no job — and above it as one Spark job of p stripes, which
  * broadcasts the layout the first time one runs. The driver merges the
  * stripes and maps dense ids back through the prepared graph. Roles
  * always run on the driver (`SeqScanIndex.roles`). Results are local
  * DataFrames, so actions on them start no further job, and a cluster
  * query's result keeps its driver-side pairs, which `labels` reads
  * without collecting its rows, and its phase record (`phase`).
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
    * The work bound is the length of the cores' ε-prefixes of NO
    * (`IndexLayout.epsPrefixes`). Below the grain the driver walks all
    * cores as one stripe; otherwise one job of
    * p = min(defaultParallelism, cores) tasks, task i walking the cores at
    * CO[μ] prefix positions ≡ i (mod p). The driver merges their spanning
    * forests and border picks. No cores, no job.
    */
  def cluster(index: ScanIndex, mu: Int, eps: Double): DataFrame = {
    require(mu >= 2, s"SCAN requires mu >= 2, got $mu")
    val (spark, layout) = (index.spark, index.layout)
    val ix    = layout.value
    val cores = ix.cores(mu, eps)
    val phase = Stripes.phase("cluster", ix.epsPrefixes(cores, eps), Stripes.ClusterGrain)
    val p     = math.min(spark.sparkContext.defaultParallelism, cores.length)
    val parts = Stripes.run(spark.sparkContext, phase, p)((i, p) => layout.value.clusterStripe(mu, eps, i, p))
    val pairs = SeqScanIndex.merge(index.graph.value, cores, parts)
    val df    = local(spark, "v LONG, cluster LONG", pairs.map { case (v, c) => Row(v, c) })
    results.synchronized(results.put(df, Result(pairs, phase)))
    df
  }

  /** How the cluster query that returned `clusters` ran; None for a
    * DataFrame that no query returned.
    */
  def phase(clusters: DataFrame): Option[Stripes.Phase] =
    Option(results.synchronized(results.get(clusters))).map(_.phase)

  /** Hubs and outliers (§4.3): unclustered vertices classified by how many
    * distinct clusters their (graph) neighbors belong to — ≥ 2 → hub,
    * otherwise outlier. Returns (v, role) with role ∈ {"hub", "outlier"}.
    * Only a neighbor of a clustered vertex can be a hub, so the driver
    * walks the clustered vertices' adjacency in the prepared graph
    * (`PreparedGraph`, `SeqScanIndex.roles`) over the dense labels
    * (`labels`); an empty clustering walks nothing. No Spark job.
    */
  def hubsAndOutliers(canonical: DataFrame, clusters: DataFrame): DataFrame = {
    val g     = PreparedGraph.of(canonical).value
    val label = labels(g.ids, clusters)
    val roles = SeqScanIndex.roles(g, label)
    local(canonical.sparkSession, "v LONG, role STRING", roles.map { case (v, r) => Row(v, r) })
  }

  /** A cluster query's `merge` pairs and its phase record. */
  private final case class Result(pairs: Array[(Long, Long)], phase: Stripes.Phase)

  /** Each cluster query's result, keyed by its DataFrame: weak and by
    * reference (`Dataset` does not override `equals`), like
    * `PreparedGraph`, so an entry goes with its DataFrame.
    */
  private val results = new java.util.WeakHashMap[DataFrame, Result]

  /** Bytes a collected (v, cluster) row is estimated to take on the
    * driver, as a `GenericRow` of two boxed longs with the pair built from
    * it; not measured.
    */
  private val BytesPerRow = 100L

  /** `clusters` (v, cluster) as dense labels over the ascending ids `ids`
    * (`SeqScanIndex.labels`). A cluster query's own result is read from the
    * pairs it keeps; any other DataFrame is collected in one pass, refused
    * if it has more rows than fit a quarter of the driver's max heap.
    */
  private[repro] def labels(ids: Array[Long], clusters: DataFrame): Array[Int] = {
    val kept = results.synchronized(results.get(clusters))
    val pairs =
      if (kept != null) kept.pairs.iterator
      else {
        val maxRows = maxRowsFor(Runtime.getRuntime.maxMemory)
        val rows    = clusters.select("v", "cluster").limit(maxRows + 1).collect()
        requireRowsFit(rows.length, maxRows)
        rows.iterator.map(r => r.getAs[Number](0).longValue -> r.getAs[Number](1).longValue)
      }
    SeqScanIndex.labels(ids, pairs)
  }

  /** The most (v, cluster) rows `labels` collects on a driver whose max
    * heap is `maxHeap` bytes: those that take a quarter of it.
    */
  private[core] def maxRowsFor(maxHeap: Long): Int = math.min(maxHeap / 4 / BytesPerRow, Int.MaxValue - 1L).toInt

  /** `labels` refuses a clustering of more than `maxRows` rows. */
  private[core] def requireRowsFit(rows: Int, maxRows: Int): Unit =
    require(rows <= maxRows,
      s"labels: a DataFrame that no ScanQuery.cluster call returned has more than $maxRows (v, cluster) rows, the most that fit a quarter of the driver's max heap at an estimated $BytesPerRow B a row; pass the DataFrame ScanQuery.cluster returned, whose labels are read without a collect")

  /** A DataFrame over driver-side rows (a local relation: collecting it
    * runs no job).
    */
  private[repro] def local(spark: SparkSession, schema: String, rows: Array[Row]): DataFrame =
    spark.createDataFrame(java.util.Arrays.asList(rows: _*), StructType.fromDDL(schema))
}
