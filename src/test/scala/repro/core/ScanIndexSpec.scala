package repro.core

import java.io.{ObjectOutputStream, OutputStream}
import org.apache.spark.SparkException
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.{Oracle, SparkSpec, TestUtil}
import repro.approx.ApproxSimilarity
import repro.baseline.{SeqGraph, SeqScanIndex}
import repro.graph.{GraphGen, GraphOps}

class ScanIndexSpec extends SparkSpec {

  private lazy val g     = GraphGen.rmat(spark, 9, 2000, seed = 61).cache()
  private lazy val index = ScanIndex.build(g, Similarity.Cosine).cache()

  test("neighbor order ranks are contiguous 2..deg+1 per vertex") {
    val bad = index.neighborOrder
      .groupBy("v")
      .agg(min("rank").as("lo"), max("rank").as("hi"), count(lit(1)).as("c"))
      .join(GraphOps.degrees(g), Seq("v"))
      .filter(col("lo") =!= 2 || col("hi") =!= col("deg") + 1 || col("c") =!= col("deg"))
    assert(bad.count() == 0)
  }

  test("neighbor order sims are non-increasing in rank") {
    val no = index.neighborOrder
    val bad = no.as("a")
      .join(no.as("b"), col("a.v") === col("b.v") && col("a.rank") + 1 === col("b.rank"))
      .filter(col("a.sim") < col("b.sim"))
    assert(bad.count() == 0)
  }

  test("neighbor order ties broken by ascending neighbor id") {
    val no = index.neighborOrder
    val bad = no.as("a")
      .join(no.as("b"), col("a.v") === col("b.v") && col("a.rank") + 1 === col("b.rank"))
      .filter(col("a.sim") === col("b.sim") && col("a.nbr") > col("b.nbr"))
    assert(bad.count() == 0)
  }

  test("neighbor order contains each symmetric edge exactly once") {
    assert(index.neighborOrder.count() == 2 * g.count())
    val dup = index.neighborOrder.groupBy("v", "nbr").count().filter(col("count") > 1)
    assert(dup.count() == 0)
  }

  test("core order has one row per (vertex, mu) with |N̄(v)| >= mu") {
    // Row count = Σ_v deg(v) (mu ranges 2..deg+1).
    val expected = GraphOps.degrees(g).agg(sum("deg")).collect()(0).getLong(0)
    assert(index.coreOrder.count() == expected)
  }

  test("core order thresholds equal the NO sim at rank = mu") {
    val joined = index.coreOrder
      .join(
        index.neighborOrder.select(col("v"), col("rank").as("mu"), col("sim")),
        Seq("v", "mu"))
      .filter(col("threshold") =!= col("sim"))
    assert(joined.count() == 0)
  }

  test("core order is sorted by descending threshold within each mu") {
    val co = index.coreOrder
    val bad = co.as("a")
      .join(co.as("b"), col("a.mu") === col("b.mu") && col("a.coreRank") + 1 === col("b.coreRank"))
      .filter(col("a.threshold") < col("b.threshold"))
    assert(bad.count() == 0)
  }

  test("core thresholds are non-increasing in mu for a fixed vertex") {
    val co = index.coreOrder
    val bad = co.as("a")
      .join(co.as("b"), col("a.v") === col("b.v") && col("a.mu") + 1 === col("b.mu"))
      .filter(col("a.threshold") < col("b.threshold"))
    assert(bad.count() == 0)
  }

  test("maxMu equals the maximum closed degree") {
    val maxDeg = GraphOps.degrees(g).agg(max("deg")).collect()(0).getLong(0)
    assert(index.maxMu == maxDeg + 1)
  }

  test("fromSimilarities preserves the similarity values") {
    val sims = Similarity.similarities(g, Similarity.Cosine)
    val idx2 = ScanIndex.fromSimilarities(g, sims)
    TestUtil.assertSimsEqual(
      TestUtil.simsToMap(idx2.similarities),
      TestUtil.simsToMap(index.similarities),
      0.0)
  }

  test("index on the figureLike graph: core thresholds for vertex 0") {
    val idx = ScanIndex.build(GraphGen.figureLike(spark), Similarity.Cosine)
    // NO[0] (closed): rank1=self, then 1,2,3 (sim .894), then 8 (.447).
    val t = idx.coreOrder
      .filter(col("v") === 0)
      .collect()
      .map(r => r.getAs[Int]("mu") -> r.getAs[Double]("threshold"))
      .toMap
    assert(math.abs(t(2) - 4.0 / math.sqrt(20.0)) < 1e-12)
    assert(math.abs(t(4) - 4.0 / math.sqrt(20.0)) < 1e-12)
    assert(math.abs(t(5) - 2.0 / math.sqrt(20.0)) < 1e-12)
    assert(!t.contains(6))
  }

  for ((mu, eps) <- Seq((2, 0.3), (3, 0.5), (5, 0.6), (4, 0.8))) {
    test(s"cores from the index match the DuckDB oracle at (mu=$mu, eps=$eps)") {
      Oracle.assertEquivalent(
        ScanQuery.cores(index, mu, eps).select("v"),
        TestUtil.coresSql(mu, eps),
        "sims" -> index.similarities)
    }
  }

  test("cores with mu greater than maxMu is empty") {
    assert(ScanQuery.cores(index, index.maxMu + 1, 0.0).count() == 0)
  }

  test("cores at eps=0 and mu=2 is every vertex with a neighbor") {
    val idx = ScanIndex.build(GraphGen.path(spark, 6), Similarity.Cosine)
    assert(TestUtil.vertexSet(ScanQuery.cores(idx, 2, 0.0)) == (0L to 5L).toSet)
  }

  // ------------------------------------------- Spark index vs buildOpt --

  /** The Spark index's NO and CO equal the sequential index's arrays:
    * neighbors and order exactly, similarities within `tol`.
    */
  private def assertSameIndex(idx: ScanIndex, seq: SeqScanIndex, tol: Double): Unit = {
    val g = seq.g
    def same(a: Double, b: Double) =
      if (tol == 0.0) java.lang.Double.compare(a, b) == 0 else math.abs(a - b) <= tol
    val no = idx.neighborOrder.collect().map(r => (r.getLong(0), r.getInt(1)) -> (r.getLong(2), r.getDouble(3))).toMap
    val seqNo = for (v <- 0 until g.n; i <- seq.noNbr(v).indices)
      yield (g.ids(v), i + 2) -> (g.ids(seq.noNbr(v)(i)), seq.noSim(v)(i))
    assert(no.size == seqNo.size)
    seqNo.foreach { case (k, (nbr, sim)) =>
      assert(no.get(k).exists { case (n2, s2) => n2 == nbr && same(s2, sim) }, s"NO at $k: ${no.get(k)} vs ($nbr, $sim)")
    }
    val co = idx.coreOrder.collect().map(r => (r.getInt(0), r.getInt(1)) -> (r.getLong(2), r.getDouble(3))).toMap
    val seqCo = for (mu <- 2 to seq.maxMu; i <- seq.coVert(mu).indices)
      yield (mu, i + 1) -> (g.ids(seq.coVert(mu)(i)), seq.coThresh(mu)(i))
    assert(co.size == seqCo.size)
    seqCo.foreach { case (k, (v, t)) =>
      assert(co.get(k).exists { case (v2, t2) => v2 == v && same(t2, t) }, s"CO at $k: ${co.get(k)} vs ($v, $t)")
    }
    assert(idx.maxMu == math.max(seq.maxMu, 1))
  }

  /** On both build paths (`TestUtil.stripePaths`): the Spark index equals
    * buildOpt's, similarities within `tasksTol` in tasks (weighted sums
    * there add the stripes' triangle sums in another order) and bit for
    * bit on the driver, and every phase ran on the path's side of its grain.
    */
  private def assertBuildMatchesBuildOpt(graph: DataFrame, measure: Similarity.Measure = Similarity.Cosine, tasksTol: Double = 0.0): Unit = {
    val seq = SeqScanIndex.buildOpt(SeqGraph.fromDataFrame(graph), measure)
    for ((path, grain) <- TestUtil.stripePaths) {
      val idx = TestUtil.onPath(grain)(ScanIndex.build(graph, measure))
      assert(idx.phases.map(_.name) == Seq("triangles", "orders"))
      assert(idx.phases.forall(_.inline == grain.isEmpty), s"path '$path': ${idx.phases}")
      assertSameIndex(idx, seq, if (grain.isEmpty) 0.0 else tasksTol)
      idx.unpersist()
    }
  }

  test("Spark index NO and CO equal buildOpt exactly on an unweighted RMAT graph") {
    assertBuildMatchesBuildOpt(g)
  }

  test("Spark index NO and CO equal buildOpt with negative and near-Long.MaxValue ids") {
    val remap = (c: String) =>
      when(col(c) % 3 === 0, lit(Long.MaxValue) - col(c))
        .when(col(c) % 3 === 1, lit(Long.MinValue) + col(c))
        .otherwise(-col(c) * 7919)
    val raw = GraphGen.rmat(spark, 7, 600, seed = 62)
      .select(remap("src").as("src"), remap("dst").as("dst"), col("weight"))
    val ids = GraphOps.canonicalize(raw).cache()
    assert(ids.filter(col("src") < 0).count() > 0 && ids.filter(col("dst") > Long.MaxValue - 200).count() > 0)
    assertBuildMatchesBuildOpt(ids)
    ids.unpersist()
  }

  test("Spark index on a one-edge graph and on a graph without triangles") {
    val one = GraphGen.fromEdges(spark, Seq((5L, 9L)))
    assertBuildMatchesBuildOpt(one)
    assert(ScanIndex.build(one, Similarity.Cosine).neighborOrder.collect().map(_.getDouble(3)).toSeq == Seq(1.0, 1.0))
    // A tree: every dot is 2, so sims come from the norms alone.
    assertBuildMatchesBuildOpt(GraphGen.fromEdges(spark, Seq((0L, 1L), (0L, 2L), (0L, 3L), (3L, 4L), (4L, 5L), (4L, 6L))))
  }

  test("an empty graph gives an empty index with maxMu 1") {
    val idx = ScanIndex.build(GraphGen.fromEdges(spark, Seq.empty), Similarity.Cosine)
    assert(idx.neighborOrder.count() == 0 && idx.coreOrder.count() == 0 && idx.similarities.count() == 0)
    assert(idx.maxMu == 1)
  }

  // SimHash at k = 8 estimates cos(π·h/8) for h in 0..8: stripes meet
  // equal thresholds, so this pins the tie-break of the CO run merge.
  test("an approximate SimHash index at k = 8 has the NO and CO of buildFromSims over its own estimates") {
    val gw   = GraphGen.denseWeighted(spark, 80, 1500, seed = 68).cache()
    val idx  = ApproxSimilarity.buildIndex(gw, Similarity.Cosine, 8, seed = 9)
    val sg   = SeqGraph.fromDataFrame(gw)
    val sims = new Array[Double](sg.numEdges.toInt)
    idx.similarities.collect().foreach(r => sims(sg.eidOf(sg.idOf(r.getLong(0)), sg.idOf(r.getLong(1)))) = r.getDouble(2))
    assert(sims.exists(_ < 0) && sims.distinct.length <= 9, sims.distinct.sorted.mkString(", "))
    assertSameIndex(idx, SeqScanIndex.buildFromSims(sg, sims), 0.0)
    idx.unpersist(); gw.unpersist()
  }

  test("the layout broadcast serializes no SeqGraph") {
    def graphsIn(obj: AnyRef): Int = {
      var seen = 0
      val out = new ObjectOutputStream(OutputStream.nullOutputStream()) {
        enableReplaceObject(true)
        override def replaceObject(o: AnyRef): AnyRef = { if (o.isInstanceOf[SeqGraph]) seen += 1; o }
      }
      out.writeObject(obj); out.close()
      seen
    }
    // The hook sees a graph where one is.
    assert(graphsIn(SeqScanIndex.buildOpt(SeqGraph.fromDataFrame(g), Similarity.Cosine)) == 1)
    assert(graphsIn(index.layout.value) == 0)
  }

  test("Spark index NO and CO on a weighted graph equal buildOpt within 1e-9, and bit for bit on the driver") {
    val gw = GraphGen.denseWeighted(spark, 60, 700, seed = 69).cache()
    assertBuildMatchesBuildOpt(gw, tasksTol = 1e-9)
    gw.unpersist()
  }

  test("Spark index NO and CO under Jaccard equal buildOpt exactly") {
    assertBuildMatchesBuildOpt(g, Similarity.Jaccard)
  }

  for (measure <- Seq(Similarity.Cosine, Similarity.Jaccard)) {
    test(s"an approximate $measure index is the same on the driver and in tasks") {
      val gw = GraphGen.denseWeighted(spark, 80, 1500, seed = 70).cache()
      val Seq(driver, tasks) = TestUtil.stripePaths.map { case (_, grain) =>
        TestUtil.onPath(grain)(ApproxSimilarity.buildIndex(gw, measure, 8, seed = 71))
      }
      assert(driver.phases.map(_.name) == Seq("sketch", "estimate", "orders"))
      assert(driver.phases.forall(_.inline) && tasks.phases.forall(!_.inline), s"${driver.phases} / ${tasks.phases}")
      assert(driver.phases.map(_.work) == tasks.phases.map(_.work))
      assertSameIndex(tasks, new SeqScanIndex(SeqGraph.fromDataFrame(gw), driver.layout.value), 0.0)
      driver.unpersist(); tasks.unpersist(); gw.unpersist()
    }
  }

  test("each build phase records its work bound") {
    val sg  = SeqGraph.fromDataFrame(g)
    val Seq(tri, ord) = index.phases
    assert(tri == Stripes.Phase("triangles", SeqScanIndex.mergeWork(sg), Stripes.TriangleGrain))
    assert(ord == Stripes.Phase("orders", 2 * sg.numEdges, Stripes.OrdersGrain))
    // Σ over oriented edges a → b of |out(a)| + |out(b)|, counted edge by edge.
    val oriented = for (a <- 0 until sg.n; b <- sg.out(a)) yield (sg.out(a).length + sg.out(b).length).toLong
    assert(tri.work == oriented.sum && oriented.length == sg.numEdges)
  }

  test("fromSimilarities on a weighted graph equals buildOpt within 1e-9") {
    val gw  = GraphGen.denseWeighted(spark, 60, 700, seed = 63).cache()
    val idx = ScanIndex.fromSimilarities(gw, Similarity.similarities(gw, Similarity.Cosine))
    assertSameIndex(idx, SeqScanIndex.buildOpt(SeqGraph.fromDataFrame(gw), Similarity.Cosine), 1e-9)
    gw.unpersist()
  }

  test("fromSimilarities rejects similarities that miss an edge") {
    val sims = Similarity.similarities(g, Similarity.Cosine)
    val e = intercept[IllegalArgumentException](ScanIndex.fromSimilarities(g, sims.limit(10)))
    assert(e.getMessage.contains("no similarity"))
  }

  // ------------------------------------------------------ cache handling --

  test("unpersist leaves a graph the caller cached cached") {
    val mine = GraphGen.rmat(spark, 7, 500, seed = 64).cache()
    mine.count()
    val idx = ScanIndex.build(mine, Similarity.Cosine).cache().materialize()
    idx.unpersist()
    assert(mine.storageLevel != StorageLevel.NONE)
    assert(idx.neighborOrder.storageLevel == StorageLevel.NONE)
    mine.unpersist()
  }

  // -------------------------------------------------- structural gate ---

  // Caps are the counts this build measures with grain 0: cold, it
  // collects the graph, then runs the triangle job and the NO job; warm,
  // the graph is already prepared. The first query then runs only its own
  // job.
  test("a cold exact build of RMAT-9 runs at most 3 Spark jobs, a warm one 2, and its first query 1") {
    val graph = GraphGen.rmat(spark, 9, 2000, seed = 65).cache()
    graph.count()
    var idx: ScanIndex = null
    Stripes.withGrain(0L) {
      val cold = TestUtil.sparkJobs(spark) { idx = ScanIndex.build(graph, Similarity.Cosine).cache().materialize() }
      idx.unpersist()
      val warm  = TestUtil.sparkJobs(spark) { idx = ScanIndex.build(graph, Similarity.Cosine).cache().materialize() }
      val query = TestUtil.sparkJobs(spark)(ScanQuery.cluster(idx, 3, 0.6).collect())
      info(s"cold $cold, warm $warm, first query $query jobs")
      assert(cold <= 3, s"$cold Spark jobs")
      assert(warm <= 2, s"$warm Spark jobs")
      assert(query <= 1, s"$query Spark jobs")
    }
    idx.unpersist(); graph.unpersist()
  }

  // Below the grains every phase runs on the driver: the cold build only
  // collects the graph, and the warm one starts no job and, since no task
  // reads the similarities or the layout, broadcasts nothing.
  test("on RMAT-9 a cold exact build below the grain runs 1 Spark job, and a warm one 0 with no broadcast") {
    val graph = GraphGen.rmat(spark, 9, 2000, seed = 72).cache()
    graph.count()
    var idx: ScanIndex = null
    val cold = TestUtil.sparkJobs(spark) { idx = ScanIndex.build(graph, Similarity.Cosine).cache().materialize() }
    idx.unpersist()
    val before = TestUtil.broadcastIds(spark)
    val warm   = TestUtil.sparkJobs(spark) { idx = ScanIndex.build(graph, Similarity.Cosine).cache().materialize() }
    val made   = TestUtil.broadcastIds(spark) -- before
    info(s"cold $cold, warm $warm jobs; phases ${idx.phases.mkString(", ")}")
    assert(idx.phases.forall(_.inline), idx.phases)
    assert(cold == 1, s"$cold Spark jobs")
    assert(warm == 0, s"$warm Spark jobs")
    assert(made.isEmpty, s"broadcasts $made")
    idx.unpersist(); graph.unpersist()
  }

  test("a query in tasks after a driver build broadcasts the layout once, and unpersist destroys it") {
    val graph = GraphGen.rmat(spark, 8, 900, seed = 73).cache()
    val idx   = ScanIndex.build(graph, Similarity.Cosine)
    assert(idx.layout.broadcastId.isEmpty)
    val first = TestUtil.cluster(idx, 2, 0.5, Some(0L))
    assert(ScanQuery.phase(first).exists(!_.inline))
    val id = idx.layout.broadcastId
    assert(id.exists(TestUtil.broadcastIds(spark).contains), s"layout broadcast $id")
    TestUtil.cluster(idx, 3, 0.5, Some(0L)).collect()
    assert(idx.layout.broadcastId == id)
    // A view of the similarities ships them; the layout keeps its broadcast.
    assert(idx.similarities.count() == graph.count() && idx.layout.broadcastId == id)
    idx.unpersist()
    val deadline = System.nanoTime() + 10000000000L
    while (TestUtil.broadcastIds(spark).contains(id.get) && System.nanoTime() < deadline) Thread.sleep(20)
    assert(!TestUtil.broadcastIds(spark).contains(id.get), s"broadcast ${id.get} survives unpersist")
    graph.unpersist()
  }

  test("unpersist destroys the index's broadcasts but not the prepared graph") {
    val graph = GraphGen.rmat(spark, 8, 900, seed = 67).cache()
    val idx = ScanIndex.build(graph, Similarity.Cosine)
    idx.unpersist()
    // A released index refuses to be read, on the driver, in tasks or
    // through a view, and broadcasts nothing again. A view is refused when
    // Spark serializes its task, which reports the refusal as the cause.
    def messages(e: Throwable): String = Iterator.iterate(e)(_.getCause).takeWhile(_ != null).map(_.getMessage).mkString(" / ")
    val before = TestUtil.broadcastIds(spark)
    val refused = Seq(
      intercept[IllegalStateException](idx.layout.value),
      intercept[IllegalStateException](ScanQuery.cluster(idx, 3, 0.5)),
      intercept[IllegalStateException](TestUtil.cluster(idx, 3, 0.5, Some(0L))),
      intercept[SparkException](idx.similarities.collect()),
      intercept[SparkException](idx.neighborOrder.collect())).map(messages)
    refused.foreach(m => assert(m.contains("released by unpersist"), m))
    assert(refused(3).contains("the similarities: released") && refused(4).contains("the index layout: released"), refused)
    assert((TestUtil.broadcastIds(spark) -- before).isEmpty)
    var again: ScanIndex = null
    val jobs = TestUtil.sparkJobs(spark) { again = ScanIndex.build(graph, Similarity.Cosine) }
    assert(jobs <= 2, s"$jobs Spark jobs: the second build collected the graph again")
    val seq = SeqScanIndex.buildOpt(SeqGraph.fromDataFrame(graph), Similarity.Cosine)
    assert(TestUtil.clustersToMap(ScanQuery.cluster(again, 3, 0.5)) == seq.cluster(3, 0.5))
    again.unpersist(); graph.unpersist()
  }

  test("the driver sum of the triangle arrays is bounded by the heap") {
    EdgeSims.requireTriangleSumFits(4, 1000000L, 1L << 30)
    val e = intercept[IllegalArgumentException](EdgeSims.requireTriangleSumFits(4, 1000000000L, 8L << 30))
    assert(Seq("4 stripes", "1000000000 edges", "32000000000 B").forall(e.getMessage.contains), e.getMessage)
  }

  // The first build prepares the graph (one collect); the second reads the
  // same broadcast CSR.
  test("a second exact build on the same cached graph runs fewer Spark jobs than the first") {
    val graph = GraphGen.rmat(spark, 9, 2000, seed = 66).cache()
    graph.count()
    def build(): Int = {
      var idx: ScanIndex = null
      val jobs = TestUtil.sparkJobs(spark) { idx = ScanIndex.build(graph, Similarity.Cosine).cache().materialize() }
      idx.unpersist()
      jobs
    }
    val (first, second) = (build(), build())
    info(s"first $first, second $second jobs")
    assert(second < first, s"first $first, second $second Spark jobs")
    graph.unpersist()
  }
}
