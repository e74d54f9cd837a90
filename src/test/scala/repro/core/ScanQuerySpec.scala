package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestUtil}
import repro.approx.ApproxSimilarity
import repro.baseline.{SeqGraph, SeqScanIndex}
import repro.graph.{GraphGen, GraphOps}

class ScanQuerySpec extends SparkSpec {

  private lazy val fig    = GraphGen.figureLike(spark).cache()
  private lazy val figIdx = ScanIndex.build(fig, Similarity.Cosine).cache()

  // ---------------------------------------------------- hand-verified ----

  test("figureLike at (mu=3, eps=0.8): two K4 clusters") {
    val clusters = TestUtil.clustersToMap(ScanQuery.cluster(figIdx, 3, 0.8))
    assert(clusters == Map(
      0L -> 0L, 1L -> 0L, 2L -> 0L, 3L -> 0L,
      4L -> 4L, 5L -> 4L, 6L -> 4L, 7L -> 4L))
  }

  test("figureLike at (mu=3, eps=0.8): vertex 8 is a hub, 9 an outlier") {
    val clusters = ScanQuery.cluster(figIdx, 3, 0.8)
    val roles    = TestUtil.rolesToMap(ScanQuery.hubsAndOutliers(fig, clusters))
    assert(roles == Map(8L -> "hub", 9L -> "outlier"))
  }

  test("figureLike at (mu=2, eps=0.44): everything merges into one cluster") {
    // eps below σ(0,8)=σ(4,8)=.447 and σ(8,9)=.707 → 8 and 9 join.
    val clusters = TestUtil.clustersToMap(ScanQuery.cluster(figIdx, 2, 0.44))
    assert(clusters.keySet == (0L to 9L).toSet)
    assert(clusters.values.toSet.size == 1)
  }

  test("figureLike at (mu=5, eps=0.85): only the K4 interiors stay clustered") {
    // Cores need 5 eps-similar closed neighbors; only vertices 1,2,3 (and
    // 5,6,7) have |N̄|=4 < 5 — no vertex qualifies → empty clustering.
    val clusters = TestUtil.clustersToMap(ScanQuery.cluster(figIdx, 5, 0.85))
    assert(clusters.isEmpty)
  }

  test("figureLike at (mu=4, eps=0.85): K4 interiors cluster, 0 and 4 join as borders") {
    // Cores: 1,2,3 (σ=1 between interiors, .894 to 0 — eps .85: 1,2,3 have
    // N_eps = {self,0?no(.894>=.85 yes)...}; check: σ(1,0)=.894 ≥ .85 so
    // N_eps(1) = {1,0,2,3} size 4 ≥ 4 → 1,2,3 cores. 0: σ(0,1..3)=.894,
    // σ(0,8)=.447 → N_eps(0)={0,1,2,3} size 4 → 0 is a core too.
    val clusters = TestUtil.clustersToMap(ScanQuery.cluster(figIdx, 4, 0.85))
    assert(clusters == Map(
      0L -> 0L, 1L -> 0L, 2L -> 0L, 3L -> 0L,
      4L -> 4L, 5L -> 4L, 6L -> 4L, 7L -> 4L))
  }

  test("path graph at (mu=2, eps=0.5): one chain cluster") {
    val idx = ScanIndex.build(GraphGen.path(spark, 5), Similarity.Cosine)
    val clusters = TestUtil.clustersToMap(ScanQuery.cluster(idx, 2, 0.5))
    assert(clusters.keySet == (0L to 4L).toSet)
    assert(clusters.values.toSet == Set(0L))
  }

  test("two disjoint cliques produce two clusters") {
    val g = GraphGen.fromEdges(spark,
      Seq((0L, 1L), (0L, 2L), (1L, 2L), (10L, 11L), (10L, 12L), (11L, 12L)))
    val idx = ScanIndex.build(g, Similarity.Cosine)
    val clusters = TestUtil.clustersToMap(ScanQuery.cluster(idx, 2, 0.9))
    assert(clusters == Map(0L -> 0L, 1L -> 0L, 2L -> 0L, 10L -> 10L, 11L -> 10L, 12L -> 10L))
  }

  test("isolated core forms a singleton cluster") {
    // Star: at (mu=2, eps above spoke sims) no vertex has an eps-similar
    // neighbor → no cores → empty clustering.
    val idx = ScanIndex.build(GraphGen.star(spark, 6), Similarity.Cosine)
    assert(TestUtil.clustersToMap(ScanQuery.cluster(idx, 2, 0.99)).isEmpty)
    // At eps below spoke sims the whole star is one cluster.
    val all = TestUtil.clustersToMap(ScanQuery.cluster(idx, 2, 0.1))
    assert(all.keySet == (0L to 5L).toSet)
  }

  test("mu below 2 is rejected") {
    intercept[IllegalArgumentException](ScanQuery.cluster(figIdx, 1, 0.5))
  }

  // ------------------------------------ the differential harness ------

  // Named inputs of the differential harness, one test per point and query path.

  private val grid = Seq(
    (2, 0.2), (2, 0.5), (2, 0.8),
    (3, 0.3), (3, 0.6),
    (5, 0.4), (5, 0.7),
    (8, 0.5), (16, 0.6))

  for ((name, g) <- Seq[(String, () => DataFrame)](
      "figureLike" -> (() => GraphGen.figureLike(spark)),
      "rmat-10" -> (() => GraphGen.rmat(spark, 10, 3000, seed = 71)),
      "er-200" -> (() => GraphGen.erdosRenyi(spark, 200, 1400, seed = 72)),
      "dense-weighted-80" -> (() => GraphGen.denseWeighted(spark, 80, 1000, seed = 73)),
      "planted-90" -> (() => GraphGen.plantedPartition(spark, 90, 3, 0.5, 0.02, seed = 74)))) {
    lazy val d = Differential(g(), Similarity.Cosine)
    for ((path, grain) <- TestUtil.stripePaths; (mu, eps) <- grid)
      test(s"index query equals sequential SCAN on $name at (mu=$mu, eps=$eps)$path")(d.checkPoint(mu, eps, Seq(path -> grain)))
  }

  // ----------------------------------- hubs/outliers against the oracle --

  for ((path, grain) <- TestUtil.stripePaths; (mu, eps) <- Seq((2, 0.5), (3, 0.6), (3, 0.8), (5, 0.5))) {
    test(s"hubs/outliers match the DuckDB oracle on rmat at (mu=$mu, eps=$eps)$path") {
      val g        = GraphGen.rmat(spark, 9, 1800, seed = 76)
      val idx      = ScanIndex.build(g, Similarity.Cosine)
      val clusters = TestUtil.cluster(idx, mu, eps, grain).cache()
      Oracle.assertEquivalent(
        ScanQuery.hubsAndOutliers(g, clusters).select("v", "role"),
        TestUtil.hubsOutliersSql,
        "edges" -> g,
        "clusters" -> clusters)
      clusters.unpersist()
    }
  }

  test("hubs/outliers partition the unclustered vertices") {
    val g        = GraphGen.rmat(spark, 9, 1500, seed = 77)
    val idx      = ScanIndex.build(g, Similarity.Cosine)
    val clusters = ScanQuery.cluster(idx, 3, 0.6).cache()
    val roles    = ScanQuery.hubsAndOutliers(g, clusters)
    val nClustered   = clusters.count()
    val nUnclustered = roles.count()
    assert(nClustered + nUnclustered == repro.graph.GraphViews.numVertices(g))
    clusters.unpersist()
  }

  test("clustered vertices never appear in hubsAndOutliers") {
    val clusters = ScanQuery.cluster(figIdx, 3, 0.8).cache()
    val roles    = ScanQuery.hubsAndOutliers(fig, clusters)
    val overlap  = roles.join(clusters, Seq("v")).count()
    assert(overlap == 0)
    clusters.unpersist()
  }

  test("roles of an empty clustering and of one that covers every vertex equal the sequential roles") {
    val seq = SeqScanIndex.buildOpt(SeqGraph.fromDataFrame(fig), Similarity.Cosine)
    // (5, 0.85) has no core, so every vertex is an outlier; at (2, 0.44)
    // one cluster covers all ten vertices, so there are no roles.
    assert(seq.hubsAndOutliers(seq.cluster(5, 0.85)) == (0L to 9L).map(_ -> "outlier").toMap)
    assert(seq.hubsAndOutliers(seq.cluster(2, 0.44)).isEmpty)
    Differential(fig, Similarity.Cosine).checkPoints(Seq((5, 0.85), (2, 0.44)))
  }

  test("Spark query equals the sequential query on RMAT-9 with negative and near-Long.MaxValue ids") {
    val d = Differential(GraphOps.canonicalize(TestUtil.extremeIds(GraphGen.rmat(spark, 9, 2000, seed = 78))), Similarity.Cosine)
    d.checkPoints(grid :+ ((d.index.maxMu + 1, 0.1)))
  }

  test("Spark query equals the sequential query at every eps equal to a similarity of figureLike") {
    Differential.check(fig, Similarity.Cosine)
  }

  test("a border vertex equally similar to cores of two clusters joins the lower core's") {
    // Two K4s joined through vertex 20: σ(20, 3) = σ(20, 13) = 2/√15 ≈ 0.516
    // by the same expression, and 3 and 13 are cores at (4, 0.5).
    val k4 = (b: Long) => for (i <- 0L to 3L; j <- i + 1 to 3L) yield (b + i, b + j)
    val g = GraphGen.fromEdges(spark, k4(0L) ++ k4(10L) ++ Seq((3L, 20L), (13L, 20L)))
    val d = Differential(g, Similarity.Cosine)
    assert(TestUtil.clustersToMap(ScanQuery.cluster(d.index, 4, 0.5)).get(20L) == Some(0L))
    d.checkPoints(Seq((4, 0.5), (2, 0.5)))
  }

  test("Spark query equals the sequential query on a weighted fromSimilarities index") {
    val g = GraphGen.denseWeighted(spark, 60, 700, seed = 79)
    val d = new Differential(g, Similarity.Cosine, ScanIndex.fromSimilarities(g, Similarity.similarities(g, Similarity.Cosine)))
    assert(d.exact)
    d.checkPoints(grid)
  }

  test("Spark query equals the sequential query on an approximate index") {
    val g = GraphGen.denseWeighted(spark, 60, 900, seed = 80)
    new Differential(g, Similarity.Cosine, ApproxSimilarity.buildIndex(g, Similarity.Cosine, 16, seed = 81)).checkPoints(grid)
  }

  test("labels of a DataFrame that no query returned are collected only if they fit the driver") {
    // A 1 GiB heap: a quarter of it at 100 B a row.
    val maxRows = ScanQuery.maxRowsFor(1L << 30)
    assert(maxRows == 2684354)
    ScanQuery.requireRowsFit(maxRows, maxRows)
    val e = intercept[IllegalArgumentException](ScanQuery.requireRowsFit(maxRows + 1, maxRows))
    assert(Seq("more than 2684354 (v, cluster) rows", "100 B a row", "ScanQuery.cluster").forall(e.getMessage.contains), e.getMessage)
    assert(ScanQuery.maxRowsFor(Long.MaxValue) == Int.MaxValue - 1)
  }

  test("a cluster query records its cores' ε-prefixes of NO as its work, and the path it ran on") {
    val g   = GraphGen.rmat(spark, 9, 2000, seed = 65).cache()
    val idx = ScanIndex.build(g, Similarity.Cosine)
    val ix  = idx.layout.value
    for ((mu, eps) <- Seq((2, 0.3), (3, 0.6), (idx.maxMu + 1, 0.1)); (path, grain) <- TestUtil.stripePaths) {
      val clusters = TestUtil.cluster(idx, mu, eps, grain)
      val work     = ix.cores(mu, eps).map(v => ix.noSim(v).count(_ >= eps).toLong).sum
      assert(ScanQuery.phase(clusters).contains(Stripes.Phase("cluster", work, grain.getOrElse(Stripes.ClusterGrain))), s"($mu, $eps)$path")
      assert(ScanQuery.phase(clusters).get.inline == grain.isEmpty, s"($mu, $eps)$path")
    }
    assert(ScanQuery.phase(ScanQuery.local(spark, "v LONG, cluster LONG", Array.empty)).isEmpty)
    idx.unpersist(); g.unpersist()
  }

  // -------------------------------------------------- structural gates ---

  // Caps are the counts measured on the test session once the layout
  // exists. Below the grain the query and its roles run on the driver; an
  // empty point has no work on either path.
  test("on RMAT-9 a query below the grain and its roles run 0 Spark jobs, and so does an empty point with its roles") {
    val g = GraphGen.rmat(spark, 9, 2000, seed = 65).cache()
    val idx = ScanIndex.build(g, Similarity.Cosine).cache().materialize()
    val maxMu = idx.maxMu
    var clusters: DataFrame = null
    val query = TestUtil.sparkJobs(spark) { clusters = ScanQuery.cluster(idx, 3, 0.6); clusters.collect() }
    val roles = TestUtil.sparkJobs(spark)(ScanQuery.hubsAndOutliers(g, clusters).collect())
    val empty = TestUtil.sparkJobs(spark) {
      for ((mu, eps) <- Seq((maxMu + 1, 0.1), (2, 1.5)))
        ScanQuery.hubsAndOutliers(g, ScanQuery.cluster(idx, mu, eps)).collect()
    }
    info(s"query $query, roles $roles, empty points with roles $empty jobs")
    assert(clusters.count() > 0)
    assert(query == 0, s"$query Spark jobs")
    assert(roles == 0, s"$roles Spark jobs")
    assert(empty == 0, s"$empty Spark jobs")
    idx.unpersist(); g.unpersist()
  }

  // With grain 0 the cluster query is one job of stripes and an empty one
  // runs none; roles run on the driver, with no job.
  test("on RMAT-9 a query runs at most 1 Spark job, an empty one 0 and its roles at most 1") {
    val g = GraphGen.rmat(spark, 9, 2000, seed = 65).cache()
    val idx = ScanIndex.build(g, Similarity.Cosine).cache().materialize()
    val maxMu = idx.maxMu
    var clusters: DataFrame = null
    val query = TestUtil.sparkJobs(spark) { clusters = TestUtil.cluster(idx, 3, 0.6, Some(0L)); clusters.collect() }
    val empty = TestUtil.sparkJobs(spark) {
      TestUtil.cluster(idx, maxMu + 1, 0.1, Some(0L)).collect(); TestUtil.cluster(idx, 2, 1.5, Some(0L)).collect()
    }
    val roles = TestUtil.sparkJobs(spark)(ScanQuery.hubsAndOutliers(g, clusters).collect())
    info(s"query $query, empty $empty, roles $roles jobs")
    assert(clusters.count() > 0)
    assert(query <= 1, s"$query Spark jobs")
    assert(empty == 0, s"$empty Spark jobs")
    assert(roles <= 1, s"$roles Spark jobs")
    idx.unpersist(); g.unpersist()
  }
}
