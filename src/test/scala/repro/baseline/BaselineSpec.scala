package repro.baseline

import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestUtil}
import repro.core.{Differential, ScanIndex, Similarity}
import repro.graph.GraphGen

class BaselineSpec extends SparkSpec {

  private lazy val fig   = GraphGen.figureLike(spark).cache()
  private lazy val figSg = SeqGraph.fromDataFrame(fig)

  // ------------------------------------------------------------ SeqGraph --

  test("SeqGraph round-trips vertex ids and degrees") {
    val sg = figSg
    assert(sg.n == 10)
    assert(sg.numEdges == 15)
    val degById = (0 until sg.n).map(i => sg.ids(i) -> sg.degree(i)).toMap
    assert(degById(0L) == 4 && degById(8L) == 3 && degById(9L) == 1)
  }

  test("SeqGraph adjacency lists are sorted") {
    (0 until figSg.n).foreach { v =>
      assert(figSg.adj(v).sameElements(figSg.adj(v).sorted))
    }
  }

  test("SeqGraph.weight finds edge weights and returns 0 for non-edges") {
    val g  = GraphGen.fromWeightedEdges(spark, Seq((1L, 2L, 0.5), (2L, 3L, 0.75)))
    val sg = SeqGraph.fromDataFrame(g)
    assert(sg.weight(sg.idOf(1L), sg.idOf(2L)) == 0.5)
    assert(sg.weight(sg.idOf(2L), sg.idOf(3L)) == 0.75)
    assert(sg.weight(sg.idOf(1L), sg.idOf(3L)) == 0.0)
  }

  test("SeqGraph.edges yields each canonical edge once") {
    assert(figSg.edges.size == 15)
  }

  private def rejected(src: Long*)(dst: Long*)(w: Double*): String =
    intercept[IllegalArgumentException](SeqGraph.fromEdges(src.toArray, dst.toArray, w.toArray)).getMessage

  test("SeqGraph rejects NaN and infinite weights, naming the edge") {
    assert(rejected(1L, 2L)(2L, 3L)(1.0, Double.NaN).contains("edge (2, 3) has weight NaN"))
    assert(rejected(1L, 2L)(2L, 3L)(Double.PositiveInfinity, 1.0).contains("edge (1, 2) has weight Infinity"))
    // Every Spark operator meets the check when it prepares the graph.
    val g = GraphGen.fromWeightedEdges(spark, Seq((1L, 2L, 0.5), (2L, 3L, Double.NaN)))
    val e = intercept[IllegalArgumentException](ScanIndex.build(g, Similarity.Cosine))
    assert(e.getMessage.contains("edge (2, 3) has weight NaN"))
  }

  test("SeqGraph rejects a self-loop, naming the edge") {
    assert(rejected(1L, 2L)(2L, 2L)(1.0, 1.0).contains("edge (2, 2) is a self-loop"))
  }

  test("SeqGraph rejects an edge given twice, in either orientation, naming the edge") {
    assert(rejected(1L, 2L, 1L)(2L, 3L, 2L)(1.0, 1.0, 1.0).contains("edge (1, 2) appears more than once"))
    assert(rejected(1L, 3L, 3L)(3L, 4L, 1L)(1.0, 1.0, 0.5).contains("edge (1, 3) appears more than once"))
  }

  // ------------------------------------------------- sequential indexes --

  test("buildBasic and buildOpt produce identical neighbor orders (unweighted)") {
    val sg = SeqGraph.fromDataFrame(GraphGen.rmat(spark, 9, 2000, seed = 81))
    val a  = SeqScanIndex.buildBasic(sg, Similarity.Cosine)
    val b  = SeqScanIndex.buildOpt(sg, Similarity.Cosine)
    (0 until sg.n).foreach { v =>
      assert(a.noNbr(v).sameElements(b.noNbr(v)), s"NO nbr mismatch at $v")
      assert(a.noSim(v).sameElements(b.noSim(v)), s"NO sim mismatch at $v")
    }
    (2 to a.maxMu).foreach { mu =>
      assert(a.coVert(mu).sameElements(b.coVert(mu)), s"CO mismatch at mu=$mu")
    }
  }

  test("sequential index query equals sequential original SCAN across a grid") {
    Differential(GraphGen.rmat(spark, 10, 3000, seed = 82), Similarity.Cosine)
      .checkPoints(Seq((2, 0.3), (2, 0.7), (3, 0.5), (5, 0.4), (5, 0.8), (8, 0.6)))
  }

  test("sequential index query equals the Spark index query across a grid") {
    Differential(GraphGen.erdosRenyi(spark, 250, 2000, seed = 83), Similarity.Cosine).checkPoints(Seq((2, 0.4), (3, 0.6), (4, 0.5), (6, 0.3)))
  }

  test("sequential index cores are a sorted prefix (doubling search correctness)") {
    val sg  = SeqGraph.fromDataFrame(GraphGen.rmat(spark, 9, 1500, seed = 84))
    val idx = SeqScanIndex.buildOpt(sg, Similarity.Cosine)
    for (mu <- 2 to math.min(6, idx.maxMu); eps <- Seq(0.2, 0.5, 0.9)) {
      val cs = idx.cores(mu, eps).toSet
      // Brute-force definition check.
      val expect = (0 until sg.n).filter { v =>
        sg.degree(v) + 1 >= mu && {
          val sims = idx.noSim(v)
          sims.length >= mu - 1 && sims(mu - 2) >= eps
        }
      }.toSet
      assert(cs == expect, s"(mu=$mu, eps=$eps)")
    }
  }

  test("sequential hubs/outliers on figureLike at (mu=3, eps=0.8)") {
    val idx      = SeqScanIndex.buildOpt(figSg, Similarity.Cosine)
    val clusters = idx.cluster(3, 0.8)
    val roles    = idx.hubsAndOutliers(clusters)
    assert(roles == Map(8L -> "hub", 9L -> "outlier"))
  }

  test("roles from the clustered side equal the definition, isolated vertices included") {
    // Two K4s, 20 between them, 21 behind 20, and the isolated 30 and 31,
    // which no canonical edge list can hold.
    val edges = (for (b <- Seq(0, 10); i <- 0 to 3; j <- i + 1 to 3) yield (b + i, b + j)) ++ Seq((3, 20), (13, 20), (20, 21))
    val ids   = (edges.flatMap { case (a, b) => Seq(a, b) } ++ Seq(30, 31)).distinct.sorted.map(_.toLong).toArray
    val adj   = ids.map(v => edges.collect { case (a, b) if a == v => b; case (a, b) if b == v => a }.map(x => ids.indexOf(x.toLong)).sorted.toArray)
    val g     = new SeqGraph(ids.length, ids, adj, adj.map(_.map(_ => 1.0)))
    // The definition: an unclustered vertex with neighbors in ≥ 2 clusters is a hub.
    def definition(labels: Array[Int]): Map[Long, String] =
      labels.indices.filter(labels(_) < 0).map { v =>
        ids(v) -> (if (g.adj(v).map(labels).filter(_ >= 0).distinct.length >= 2) "hub" else "outlier")
      }.toMap
    val byId = (f: Long => Int) => ids.map(f)
    val clusterings = Seq(
      "empty" -> byId(_ => -1),
      "every vertex" -> byId(v => (v / 10).toInt),
      "two K4s" -> byId(v => if (v < 10) 0 else if (v < 20) 1 else -1),
      // 20 sees a third cluster after it is already a hub.
      "two K4s and 21" -> byId(v => if (v < 10) 0 else if (v < 20) 1 else if (v == 21) 2 else -1),
      "one K4" -> byId(v => if (v < 10) 0 else -1))
    for ((name, labels) <- clusterings)
      assert(SeqScanIndex.roles(g, labels).toMap == definition(labels), name)
    assert(definition(clusterings(2)._2) == Map(20L -> "hub", 21L -> "outlier", 30L -> "outlier", 31L -> "outlier"))
  }

  // --------------------------------------------------------- ppSCAN-like --

  // Named inputs of the differential harness, whose original SCAN shares no `merge`.
  for ((name, g, points) <- Seq[(String, () => DataFrame, Seq[(Int, Double)])](
      ("figureLike", () => GraphGen.figureLike(spark), Seq((2, 0.44), (3, 0.8), (2, 0.9), (4, 0.85))),
      ("rmat-9", () => GraphGen.rmat(spark, 9, 2200, seed = 85), Seq((2, 0.3), (3, 0.6), (5, 0.5), (5, 0.9))),
      ("dense-weighted-60", () => GraphGen.denseWeighted(spark, 60, 700, seed = 86), Seq((2, 0.5), (4, 0.7))))) {
    lazy val d = Differential(g(), Similarity.Cosine)
    for ((path, grain) <- TestUtil.stripePaths; (mu, eps) <- points)
      test(s"ppSCAN-like equals the index query on $name at (mu=$mu, eps=$eps)$path")(d.checkPoint(mu, eps, Seq(path -> grain)))
  }

  // A fresh graph is prepared by the query's first job; a prepared one
  // leaves only the stripe job.
  test("a ppSCAN-like query runs at most 2 Spark jobs, 1 on a prepared graph") {
    val g = GraphGen.figureLike(spark).cache()
    g.count()
    val jobs = TestUtil.sparkJobs(spark)(PpScan.cluster(g, Similarity.Cosine, 3, 0.8).collect())
    val again = TestUtil.sparkJobs(spark)(PpScan.cluster(g, Similarity.Cosine, 2, 0.5).collect())
    info(s"$jobs jobs, then $again")
    assert(jobs <= 2, s"$jobs Spark jobs")
    assert(again <= 1, s"$again Spark jobs on the prepared graph")
    g.unpersist()
  }

  test("ppSCAN-like on jaccard equals the jaccard index query") {
    Differential(GraphGen.rmat(spark, 9, 1800, seed = 87), Similarity.Jaccard).checkPoints(Seq((2, 0.3), (3, 0.5)))
  }

  // σ(1, 2) ≈ 0.9995, but the unit-weight degree bound sqrt(2/22) ≈ 0.30.
  test("ppSCAN-like does not degree-prune a heavy edge on a weighted graph") {
    val g  = GraphGen.fromWeightedEdges(spark, (1L, 2L, 1.0) +: (100L to 119L).map(x => (2L, x, 0.01)))
    val sg = SeqGraph.fromDataFrame(g)
    val expect = Map(1L -> 1L, 2L -> 1L)
    assert(SeqScan.cluster(sg, Similarity.Cosine, 2, 0.5) == expect)
    assert(TestUtil.clustersToMap(PpScan.cluster(g, Similarity.Cosine, 2, 0.5)) == expect)
  }

  // Path 0-1-2: σ = 2/sqrt(6) on both edges, while sqrt(2/3) rounds one ulp
  // below it, so a bound computed that way prunes both at ε = σ.
  test("ppSCAN-like keeps an edge tied with eps at its degree bound") {
    val g   = GraphGen.path(spark, 3)
    val eps = 2.0 / math.sqrt(6.0)
    val expect = SeqScan.cluster(SeqGraph.fromDataFrame(g), Similarity.Cosine, 2, eps)
    assert(expect == Map(0L -> 0L, 1L -> 0L, 2L -> 0L))
    assert(TestUtil.clustersToMap(PpScan.cluster(g, Similarity.Cosine, 2, eps)) == expect)
  }

  test("degree pruning bound is valid: pruned edges are never eps-similar") {
    val g    = GraphGen.rmat(spark, 9, 2000, seed = 88)
    val sims = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Cosine))
    val sg   = SeqGraph.fromDataFrame(g)
    sims.foreach { case ((u, v), s) =>
      val du = sg.degree(sg.idOf(u)) + 1.0
      val dv = sg.degree(sg.idOf(v)) + 1.0
      val ub = math.sqrt(math.min(du, dv) / math.max(du, dv))
      assert(s <= ub + 1e-12, s"cosine ub violated on ($u,$v): $s > $ub")
    }
    val jsims = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Jaccard))
    jsims.foreach { case ((u, v), s) =>
      val du = sg.degree(sg.idOf(u)) + 1.0
      val dv = sg.degree(sg.idOf(v)) + 1.0
      val ub = math.min(du, dv) / math.max(du, dv)
      assert(s <= ub + 1e-12, s"jaccard ub violated on ($u,$v): $s > $ub")
    }
  }
}
