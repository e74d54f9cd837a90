package repro.approx

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestUtil}
import repro.baseline.SeqGraph
import repro.core.{Differential, PreparedGraph, ScanIndex, ScanQuery, Similarity, Stripes}
import repro.graph.{GraphGen, GraphViews}

class ApproxSpec extends SparkSpec {

  /** Pure-LSH similarities for every edge, no heuristic: every vertex is
    * sketched and every edge estimated, straight from SimHash or MinHash
    * over the prepared graph, so the theorem-accuracy tests speak to the
    * raw estimator (Theorems 5.2/5.3). Keyed by canonical (src, dst).
    */
  private def lsh(g: DataFrame, measure: Similarity.Measure, k: Int, seed: Long): Map[(Long, Long), Double] = {
    val sg = PreparedGraph.of(g).value
    val estimate: (Int, Int) => Double = measure match {
      case Similarity.Cosine =>
        val sk = Array.tabulate(sg.n)(SimHash.sketch(sg, _, k, seed))
        (u, v) => SimHash.estimate(sk(u), sk(v), k)
      case Similarity.Jaccard =>
        val sk = Array.tabulate(sg.n)(MinHashOPH.sketch(sg, _, k, seed))
        (u, v) => MinHashOPH.estimate(sk(u), sk(v))
    }
    sg.edges.map { case (u, v, _) => (sg.ids(u), sg.ids(v)) -> estimate(u, v) }.toMap
  }

  /** The approximate index's similarities, with the §6.3 heuristic. */
  private def heuristic(g: DataFrame, measure: Similarity.Measure, k: Int, seed: Long): DataFrame =
    ApproxSimilarity.buildIndex(g, measure, k, seed).similarities

  // --------------------------------------------------------- SimHash -----

  test("SimHash sketches are deterministic in the seed") {
    val g  = GraphGen.erdosRenyi(spark, 60, 400, seed = 1)
    val a  = lsh(g, Similarity.Cosine, 64, seed = 5)
    val b  = lsh(g, Similarity.Cosine, 64, seed = 5)
    TestUtil.assertSimsEqual(a, b, 0.0)
  }

  test("SimHash estimates differ across seeds") {
    val g = GraphGen.erdosRenyi(spark, 60, 400, seed = 1)
    val a = lsh(g, Similarity.Cosine, 32, seed = 5)
    val b = lsh(g, Similarity.Cosine, 32, seed = 6)
    assert(a != b)
  }

  test("SimHash sketch has k bits packed into ceil(k/64) longs") {
    val g = SeqGraph.fromDataFrame(GraphGen.path(spark, 4))
    assert(g.n == 4)
    (0 until g.n).foreach(v => assert(SimHash.sketch(g, v, 130, seed = 2).length == 3))
  }

  test("SimHash estimate of identical neighborhoods is 1 (twins in K3)") {
    // In K3 all closed neighborhoods are equal → identical sketches → cos(0)=1.
    val g = GraphGen.complete(spark, 3)
    val s = lsh(g, Similarity.Cosine, 64, seed = 3)
    s.values.foreach(v => assert(math.abs(v - 1.0) < 1e-12))
  }

  test("Theorem 5.2: high-k SimHash classifies edges outside the eps band correctly") {
    val g   = GraphGen.denseWeighted(spark, 50, 500, seed = 4)
    val n   = GraphViews.numVertices(g).toDouble
    val m   = GraphViews.numEdges(g).toDouble
    val eps = 0.5
    val delta = 0.25
    val kMin = math.ceil(math.Pi * math.Pi * math.log(n * m) / (2 * delta * delta)).toInt
    val k = Integer.highestOneBit(kMin) * 2 // round up to a power of two
    val exact  = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Cosine))
    val approx = lsh(g, Similarity.Cosine, k, seed = 7)
    val lo = eps - delta
    val hi = eps + math.sqrt(1 - eps * eps) * delta
    exact.foreach { case (e, s) =>
      if (s <= lo) assert(approx(e) < eps, s"edge $e: exact=$s approx=${approx(e)} should be < $eps")
      if (s >= hi) assert(approx(e) >= eps, s"edge $e: exact=$s approx=${approx(e)} should be >= $eps")
    }
  }

  // --------------------------------------------------------- MinHash -----

  test("MinHash OPH sketches are deterministic in the seed") {
    val g = GraphGen.erdosRenyi(spark, 60, 400, seed = 11)
    val a = lsh(g, Similarity.Jaccard, 32, seed = 5)
    val b = lsh(g, Similarity.Jaccard, 32, seed = 5)
    assert(a == b)
  }

  test("MinHash estimate of identical sets is 1 (twins in K4)") {
    val g = GraphGen.complete(spark, 4)
    val s = lsh(g, Similarity.Jaccard, 64, seed = 13)
    s.values.foreach(v => assert(v == 1.0))
  }

  test("MinHash estimates are within [0, 1]") {
    val g = GraphGen.rmat(spark, 8, 700, seed = 14)
    val s = lsh(g, Similarity.Jaccard, 16, seed = 15)
    s.values.foreach(v => assert(v >= 0.0 && v <= 1.0))
  }

  test("Theorem 5.3 analogue: high-k MinHash classifies edges outside eps±delta") {
    val g     = GraphGen.erdosRenyi(spark, 64, 600, seed = 16)
    val n     = GraphViews.numVertices(g).toDouble
    val m     = GraphViews.numEdges(g).toDouble
    val eps   = 0.4
    val delta = 0.22
    // Theorem 5.3 is for standard MinHash; OPH has lower variance in
    // practice (§6.3) — we allow a small failure count for the tail bound
    // not formally covering OPH.
    val k = math.max(256, math.ceil(math.log(n * m) / (2 * delta * delta)).toInt)
    val exact  = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Jaccard))
    val approx = lsh(g, Similarity.Jaccard, k, seed = 17)
    var bad = 0
    exact.foreach { case (e, s) =>
      if (s <= eps - delta && !(approx(e) < eps)) bad += 1
      if (s >= eps + delta && !(approx(e) >= eps)) bad += 1
    }
    assert(bad <= math.max(1, exact.size / 100), s"$bad of ${exact.size} misclassified")
  }

  // -------------------------------------------------------- heuristic ----

  test("heuristic: edges with a low-degree endpoint get exact similarities") {
    val g = GraphGen.rmat(spark, 8, 900, seed = 21)
    val k = 8
    val exact  = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Cosine))
    val approx = TestUtil.simsToMap(heuristic(g, Similarity.Cosine, k, seed = 22))
    assert(approx.keySet == exact.keySet)
    val deg = GraphViews.degrees(g).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    exact.foreach { case ((u, v), s) =>
      if (deg(u) <= k || deg(v) <= k) {
        assert(approx((u, v)) == s, s"low-degree edge ($u,$v) not exact")
      }
    }
  }

  test("heuristic thresholds: cosine sketches only vertices with degree > k") {
    // On a star, the center has high degree but every edge touches a
    // degree-1 leaf → all edges exact, and the result matches exact sims.
    val g = GraphGen.star(spark, 30)
    val approx = TestUtil.simsToMap(heuristic(g, Similarity.Cosine, 4, seed = 23))
    val exact  = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Cosine))
    TestUtil.assertSimsEqual(approx, exact, 0.0)
  }

  test("heuristic: jaccard threshold is 3k/2") {
    val k = 4 // threshold 6
    val g = GraphGen.complete(spark, 8) // all degrees 7 > 6 → all approximated
    val approx = TestUtil.simsToMap(heuristic(g, Similarity.Jaccard, k, seed = 24))
    // identical closed neighborhoods → estimate exactly 1 regardless of k
    approx.values.foreach(v => assert(v == 1.0))
    val g2 = GraphGen.complete(spark, 7) // all degrees 6 <= 6 → all exact
    val approx2 = TestUtil.simsToMap(heuristic(g2, Similarity.Jaccard, k, seed = 25))
    val exact2  = TestUtil.simsToMap(Similarity.similarities(g2, Similarity.Jaccard))
    TestUtil.assertSimsEqual(approx2, exact2, 0.0)
  }

  test("heuristic on a weighted graph: fallback edges equal exact sims, sketched ones lie in [-1, 1]") {
    val g   = GraphGen.denseWeighted(spark, 80, 600, seed = 28).cache()
    val deg = GraphViews.degrees(g).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    val k   = deg.values.toSeq.sorted.apply(deg.size / 2).toInt // median degree
    val exact  = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Cosine))
    val approx = TestUtil.simsToMap(heuristic(g, Similarity.Cosine, k, seed = 29))
    assert(approx.keySet == exact.keySet)
    val (fallback, sketched) = exact.keySet.partition { case (u, v) => deg(u) <= k || deg(v) <= k }
    assert(fallback.nonEmpty && sketched.nonEmpty, s"k=$k: ${fallback.size} fallback, ${sketched.size} sketched")
    fallback.foreach(e => assert(math.abs(approx(e) - exact(e)) <= 1e-9, s"fallback edge $e"))
    sketched.foreach(e => assert(approx(e) >= -1.0 && approx(e) <= 1.0, s"sketched edge $e: ${approx(e)}"))
    g.unpersist()
  }

  test("approximate similarities cover every edge exactly once") {
    val g = GraphGen.denseWeighted(spark, 80, 1200, seed = 26)
    val df = heuristic(g, Similarity.Cosine, 16, seed = 27)
    assert(df.count() == g.count())
    assert(df.groupBy("src", "dst").count().filter(col("count") > 1).count() == 0)
  }

  // ------------------------------------------------- end-to-end index ----

  test("approximate index supports clustering queries end-to-end") {
    val g   = GraphGen.denseWeighted(spark, 80, 1200, seed = 31)
    val idx = ApproxSimilarity.buildIndex(g, Similarity.Cosine, 32, seed = 32).cache()
    val clusters = ScanQuery.cluster(idx, 3, 0.5)
    // sanity: output labels reference clustered vertices only
    val cm = TestUtil.clustersToMap(clusters)
    cm.values.foreach(label => assert(cm.contains(label)))
    idx.unpersist()
  }

  // Every degree is below k, so the index is exact: the harness asserts equal
  // similarities (within 1e-9 on this weighted graph) and equal clusters.
  test("high-k approximate clustering matches exact clustering (dense graph)") {
    Differential(GraphGen.denseWeighted(spark, 60, 900, seed = 33), Similarity.Cosine).checkApprox(2048, Seq((3, 0.5)))
  }

  // The cap is the count this build measures on the test session with
  // every phase in tasks (grain 0): collect the graph, sketch, estimate,
  // then the NO job. Below the grains, only the collect runs.
  test("an approximate SimHash build of a dense weighted graph runs at most 4 Spark jobs") {
    val g = GraphGen.denseWeighted(spark, 60, 1200, seed = 37).cache()
    g.count()
    var idx: ScanIndex = null
    val jobs = TestUtil.sparkJobs(spark) {
      idx = Stripes.withGrain(0L)(ApproxSimilarity.buildIndex(g, Similarity.Cosine, 32, seed = 38).cache().materialize())
    }
    idx.unpersist()
    val inline = TestUtil.sparkJobs(spark) { idx = ApproxSimilarity.buildIndex(g, Similarity.Cosine, 32, seed = 38).cache().materialize() }
    info(s"$jobs jobs in tasks, $inline below the grains; phases ${idx.phases.mkString(", ")}")
    assert(jobs <= 4, s"$jobs Spark jobs")
    assert(idx.phases.forall(_.inline) && inline == 0, s"$inline Spark jobs")
    idx.unpersist(); g.unpersist()
  }

  test("approximate index neighbor order is still rank-contiguous") {
    val g   = GraphGen.denseWeighted(spark, 50, 600, seed = 35)
    val idx = ApproxSimilarity.buildIndex(g, Similarity.Cosine, 16, seed = 36)
    val (ix, sg) = (idx.layout.value, SeqGraph.fromDataFrame(g))
    // NO[v] holds ranks 2..deg+1 in slots 0..deg−1: one per neighbor of v.
    assert(ix.noNbr.length == sg.n && ix.noSim.length == sg.n)
    for (v <- 0 until sg.n) {
      assert(ix.noNbr(v).sorted.sameElements(sg.adj(v)), s"NO[${sg.ids(v)}] neighbors")
      assert(ix.noSim(v).length == sg.degree(v), s"NO[${sg.ids(v)}] similarities")
    }
    idx.unpersist()
  }
}
