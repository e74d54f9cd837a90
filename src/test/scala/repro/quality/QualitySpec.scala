package repro.quality

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestUtil}
import repro.core.{ScanIndex, ScanQuery, Similarity}
import repro.graph.{GraphGen, GraphOps}

class QualitySpec extends SparkSpec {
  import spark.implicits._

  private def clustersDf(m: Map[Long, Long]): DataFrame =
    m.toSeq.toDF("v", "cluster")

  // ------------------------------------------------------- modularity ----

  test("modularity of two disconnected triangles clustered by component is 0.5") {
    val g = GraphGen.fromEdges(spark,
      Seq((0L, 1L), (1L, 2L), (0L, 2L), (3L, 4L), (4L, 5L), (3L, 5L)))
    val c = clustersDf(Map(0L -> 0L, 1L -> 0L, 2L -> 0L, 3L -> 3L, 4L -> 3L, 5L -> 3L))
    assert(math.abs(Modularity.modularity(g, c) - 0.5) < 1e-12)
  }

  test("modularity of everything in one cluster is 0") {
    val g = GraphGen.complete(spark, 5)
    val c = clustersDf((0L to 4L).map(_ -> 0L).toMap)
    assert(math.abs(Modularity.modularity(g, c)) < 1e-12)
  }

  test("modularity of all singletons is negative") {
    val g = GraphGen.complete(spark, 4)
    val c = clustersDf(Map.empty)
    assert(Modularity.modularity(g, c) < 0)
  }

  test("modularity hand-check: K4 + K4 with a bridge, clustered by clique") {
    // 13 edges total; intra = 12.
    val g = GraphGen.fromEdges(spark,
      Seq((0L, 1L), (0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L), (2L, 3L),
          (4L, 5L), (4L, 6L), (4L, 7L), (5L, 6L), (5L, 7L), (6L, 7L),
          (3L, 4L)))
    val c = clustersDf((0L to 3L).map(_ -> 0L).toMap ++ (4L to 7L).map(_ -> 4L).toMap)
    // W = 13. Cluster A: w_in = 6, S = 3+3+3+4 = 13. Same for B.
    val expect = 2 * (6.0 / 13.0 - math.pow(13.0 / 26.0, 2))
    assert(math.abs(Modularity.modularity(g, c) - expect) < 1e-12)
  }

  test("weighted modularity uses edge weights") {
    val g = GraphGen.fromWeightedEdges(spark, Seq((0L, 1L, 2.0), (2L, 3L, 1.0)))
    val c = clustersDf(Map(0L -> 0L, 1L -> 0L, 2L -> 2L, 3L -> 2L))
    // W = 3; cluster {0,1}: win=2, S=4 → 2/3 − (4/6)²; cluster {2,3}: 1/3 − (2/6)²
    val expect = (2.0 / 3 - math.pow(4.0 / 6, 2)) + (1.0 / 3 - math.pow(2.0 / 6, 2))
    assert(math.abs(Modularity.modularity(g, c) - expect) < 1e-12)
  }

  test("unclustered vertices are treated as singletons") {
    val g = GraphGen.fromEdges(spark, Seq((0L, 1L), (1L, 2L), (3L, 0L)))
    val partial = clustersDf(Map(0L -> 0L, 1L -> 0L))
    val full    = clustersDf(Map(0L -> 0L, 1L -> 0L, 2L -> 2L, 3L -> 3L))
    assert(math.abs(
      Modularity.modularity(g, partial) - Modularity.modularity(g, full)) < 1e-12)
  }

  /** Modularity of `g` under `label` (None = unclustered) against the
    * DuckDB oracle.
    */
  private def assertOracleModularity(g: DataFrame, label: Long => Option[Long]): Unit = {
    val clusters = GraphOps.vertices(g).collect().map(_.getLong(0)).flatMap(v => label(v).map(v -> _)).toMap
    val cdf = clustersDf(clusters)
    Oracle.assertEquivalent(
      Seq(Modularity.modularity(g, cdf)).toDF("q"),
      TestUtil.modularitySql,
      "edges" -> g,
      "clusters" -> cdf)
  }

  for (seed <- Seq(1L, 2L, 3L)) {
    test(s"modularity matches the DuckDB oracle on a random clustering (seed=$seed)") {
      // arbitrary 5-way clustering of every vertex
      assertOracleModularity(GraphGen.erdosRenyi(spark, 80, 400, seed = seed), v => Some(v % 5))
    }

    test(s"modularity matches the DuckDB oracle with unclustered vertices (seed=$seed)") {
      assertOracleModularity(GraphGen.erdosRenyi(spark, 80, 400, seed = seed), v => Option.when(v % 3 != 0)(v % 5))
    }

    test(s"modularity matches the DuckDB oracle on a graph with negative ids (seed=$seed)") {
      // Ids -40..39; vertex -1 is unclustered beside cluster 0, which a
      // singleton label of -v - 1 would merge it into.
      val g = GraphGen.erdosRenyi(spark, 80, 400, seed = seed)
        .select(($"src" - 40).as("src"), ($"dst" - 40).as("dst"), $"weight")
      assertOracleModularity(g, v => Option.when(math.floorMod(v, 3L) != 2)(math.floorMod(v, 5L)))
    }
  }

  test("on a prepared graph, modularity of an index query's clusters runs no Spark job") {
    val g = GraphGen.rmat(spark, 9, 2000, seed = 65).cache()
    val idx = ScanIndex.build(g, Similarity.Cosine)
    val clusters = ScanQuery.cluster(idx, 3, 0.6)
    var q = 0.0
    val jobs = TestUtil.sparkJobs(spark) { q = Modularity.modularity(g, clusters) }
    info(s"modularity $q, $jobs jobs")
    assert(clusters.count() > 0)
    assert(jobs == 0, s"$jobs Spark jobs")
    idx.unpersist(); g.unpersist()
  }

  // An index query's own DataFrame is read from the pairs the query kept;
  // any other DataFrame is collected.
  test("a fresh DataFrame with an index query's rows gives the same roles, modularity and ARI as the query's own") {
    val g = GraphGen.rmat(spark, 9, 2000, seed = 65).cache()
    val idx = ScanIndex.build(g, Similarity.Cosine)
    val (own, other) = (ScanQuery.cluster(idx, 3, 0.6), ScanQuery.cluster(idx, 2, 0.3))
    val fresh = clustersDf(TestUtil.clustersToMap(own))
    val vs = GraphOps.vertices(g)
    val roles = TestUtil.rolesToMap(ScanQuery.hubsAndOutliers(g, own))
    assert(fresh.count() > 0 && roles.nonEmpty)
    assert(TestUtil.rolesToMap(ScanQuery.hubsAndOutliers(g, fresh)) == roles)
    assert(math.abs(Modularity.modularity(g, fresh) - Modularity.modularity(g, own)) < 1e-12)
    assert(math.abs(Ari.ari(fresh, other, vs) - Ari.ari(own, other, vs)) < 1e-12)
    assert(Ari.ari(fresh, own, vs) == 1.0)
    idx.unpersist(); g.unpersist()
  }

  test("planted-partition ground truth has higher modularity than random labels") {
    val g = GraphGen.plantedPartition(spark, 120, 3, 0.4, 0.02, seed = 5)
    val truth  = clustersDf((0L until 120L).map(v => v -> (v / 40)).toMap)
    val random = clustersDf((0L until 120L).map(v => v -> (v % 3)).toMap)
    assert(Modularity.modularity(g, truth) > Modularity.modularity(g, random) + 0.2)
  }

  test("SCAN clustering on planted partitions scores positive modularity") {
    val g   = GraphGen.plantedPartition(spark, 120, 3, 0.5, 0.01, seed = 6)
    val idx = ScanIndex.build(g, Similarity.Cosine)
    val clusters = ScanQuery.cluster(idx, 3, 0.3)
    assert(Modularity.modularity(g, clusters) > 0.3)
  }

  // -------------------------------------------------------------- ARI ----

  private def verts(n: Long): DataFrame = (0L until n).toDF("v")

  test("ARI of identical clusterings is 1") {
    val c = clustersDf((0L until 20L).map(v => v -> (v % 4)).toMap)
    assert(Ari.ari(c, c, verts(20)) == 1.0)
  }

  test("ARI is invariant to relabeling") {
    val a = clustersDf((0L until 20L).map(v => v -> (v % 4)).toMap)
    val b = clustersDf((0L until 20L).map(v => v -> (100 + v % 4)).toMap)
    assert(math.abs(Ari.ari(a, b, verts(20)) - 1.0) < 1e-12)
  }

  test("ARI hand-check on a 6-vertex example") {
    // truth: {0,1,2} {3,4,5}; proposed: {0,1} {2,3} {4,5}
    val truth    = clustersDf(Map(0L -> 0, 1L -> 0, 2L -> 0, 3L -> 1, 4L -> 1, 5L -> 1))
    val proposed = clustersDf(Map(0L -> 0, 1L -> 0, 2L -> 1, 3L -> 1, 4L -> 2, 5L -> 2))
    // contingency: n00=2, n01=1, n11=1, n12=2 → Σcomb2(nij) = 1+0+0+1 = 2
    // ai: 2,2,2 → 3; bj: 3,3 → 6; n=6 → C(6,2)=15
    // ARI = (2 − 3*6/15) / ((3+6)/2 − 3*6/15) = (2−1.2)/(4.5−1.2) = 0.8/3.3
    val expect = 0.8 / 3.3
    assert(math.abs(Ari.ari(proposed, truth, verts(6)) - expect) < 1e-12)
  }

  test("ARI symmetric in its arguments") {
    val a = clustersDf((0L until 30L).map(v => v -> (v % 3)).toMap)
    val b = clustersDf((0L until 30L).map(v => v -> (v % 5)).toMap)
    assert(math.abs(Ari.ari(a, b, verts(30)) - Ari.ari(b, a, verts(30))) < 1e-12)
  }

  test("ARI near zero for independent clusterings") {
    val a = clustersDf((0L until 400L).map(v => v -> (v % 2)).toMap)
    val b = clustersDf((0L until 400L).map(v => v -> ((v / 7) % 2)).toMap)
    assert(math.abs(Ari.ari(a, b, verts(400))) < 0.1)
  }

  test("ARI handles missing vertices as singletons") {
    val a = clustersDf(Map(0L -> 0L, 1L -> 0L))
    val b = clustersDf(Map(0L -> 5L, 1L -> 5L))
    // vertices 2, 3 unclustered in both → singletons in both → ARI 1.
    assert(math.abs(Ari.ari(a, b, verts(4)) - 1.0) < 1e-12)
  }

  test("ARI of a refinement is strictly between 0 and 1") {
    val truth    = clustersDf((0L until 40L).map(v => v -> (v / 20)).toMap)
    val refined  = clustersDf((0L until 40L).map(v => v -> (v / 10)).toMap)
    val a = Ari.ari(refined, truth, verts(40))
    assert(a > 0.0 && a < 1.0)
  }

  // --------------------------------------------- singleton labels ----

  test("an unclustered vertex with a negative id stays a singleton beside cluster 0") {
    // Labeling an unclustered v as -v-1 gave vertex -1 the label 0, the
    // label of the cluster {0, 1, 2}, and merged it into that cluster.
    val g       = GraphGen.fromEdges(spark, Seq((0L, 1L), (1L, 2L), (0L, 2L), (-1L, 0L)))
    val partial = clustersDf(Map(0L -> 0L, 1L -> 0L, 2L -> 0L))
    val full    = clustersDf(Map(0L -> 0L, 1L -> 0L, 2L -> 0L, -1L -> 7L))
    assert(math.abs(Modularity.modularity(g, partial) - Modularity.modularity(g, full)) < 1e-12)
    assert(Ari.ari(partial, full, GraphOps.vertices(g)) == 1.0)
  }
}
