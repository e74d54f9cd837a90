package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.connectivity.Connectivity
import repro.graph.GraphOps

/** Clustering queries over the SCAN index (§4.2, Algorithms 3–5) and
  * hub/outlier determination (§4.3).
  *
  * Cluster labels are the minimum core vertex id of each cluster's core
  * component; border (non-core) vertices are assigned deterministically to
  * the cluster of their most similar ε-similar core neighbor, ties broken
  * toward the lower core id (the de-randomized rule of §7.3.4, used here
  * everywhere so outputs are equality-comparable across implementations).
  */
object ScanQuery {

  /** GetCores (Algorithm 3): vertices v with |N_ε(v)| ≥ μ, read off CO[μ]. */
  def cores(index: ScanIndex, mu: Int, eps: Double): DataFrame = {
    require(mu >= 2, s"SCAN requires mu >= 2, got $mu")
    index.coreOrder.filter(col("mu") === mu && col("threshold") >= eps).select("v")
  }

  /** Cluster (Algorithm 5): full clustering for (μ, ε) as (v, cluster). */
  def cluster(index: ScanIndex, mu: Int, eps: Double): DataFrame = {
    val coresDf = cores(index, mu, eps)
    // ε-similar edges incident on cores — the NO-prefix retrieval of
    // Algorithm 5 line 4 (the index's sort order makes this a prefix; the
    // dataflow analogue is a filter over the indexed order).
    val simEdges = index.neighborOrder
      .filter(col("sim") >= eps)
      .join(coresDf, Seq("v"))
      .select(col("v"), col("nbr"), col("sim"))
    clusterFrom(index.neighborOrder.sparkSession, coresDf, simEdges)
  }

  /** Shared clustering tail used by both the index query and the
    * ppSCAN-like baseline: from the core set and the ε-similar edges
    * incident on cores (v = core, nbr = any neighbor), compute components
    * on the core-core subgraph and attach border vertices.
    */
  def clusterFrom(spark: SparkSession, coresDf: DataFrame, simEdges: DataFrame): DataFrame = {
    val coreSet = coresDf.select(col("v")).distinct()

    // Core-core ε-similar edges (each appears once, canonical orientation).
    val coreCore = simEdges
      .join(coreSet.withColumnRenamed("v", "cv"), col("nbr") === col("cv"))
      .filter(col("v") < col("nbr"))
      .select(col("v").as("src"), col("nbr").as("dst"))

    // Every core belongs to a cluster (possibly a singleton).
    val comp = Connectivity.connectedComponentsUnionFind(spark, coreSet, coreCore)

    // Border vertices: non-core ε-similar neighbors of cores; deterministic
    // assignment to the most similar core (Algorithm 4, de-randomized).
    val borderCand = simEdges
      .join(coreSet.withColumnRenamed("v", "cv"), col("nbr") === col("cv"), "left_anti")
    val bestCore = borderCand
      .withColumn(
        "rk",
        row_number().over(Window.partitionBy("nbr").orderBy(desc("sim"), asc("v"))))
      .filter(col("rk") === 1)
      .select(col("nbr").as("bv"), col("v").as("core"))
    val borders = bestCore
      .join(comp.withColumnRenamed("v", "compv"), col("core") === col("compv"))
      .select(col("bv").as("v"), col("component").as("cluster"))

    comp
      .select(col("v"), col("component").as("cluster"))
      .unionByName(borders)
  }

  /** Hubs and outliers (§4.3): unclustered vertices classified by how many
    * distinct clusters their (graph) neighbors belong to — ≥ 2 → hub,
    * otherwise outlier. Returns (v, role) with role ∈ {"hub", "outlier"}.
    */
  def hubsAndOutliers(canonical: DataFrame, clusters: DataFrame): DataFrame = {
    val unclustered = GraphOps
      .vertices(canonical)
      .join(clusters.select("v"), Seq("v"), "left_anti")
    val nbrClusters = GraphOps
      .symmetrize(canonical)
      .join(clusters.withColumnRenamed("v", "cv"), col("nbr") === col("cv"))
      .select(col("v"), col("cluster"))
    unclustered
      .join(nbrClusters.groupBy("v").agg(countDistinct("cluster").as("nc")), Seq("v"), "left")
      .select(
        col("v"),
        when(coalesce(col("nc"), lit(0L)) >= 2, lit("hub")).otherwise(lit("outlier")).as("role"))
  }
}
