package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.baseline.{SeqGraph, SeqScan, SeqScanIndex}
import repro.graph.GraphGen

class SimilaritySpec extends SparkSpec {

  private def sims(g: DataFrame, m: Similarity.Measure = Similarity.Cosine) =
    TestUtil.simsToMap(Similarity.similarities(g, m))

  // ------------------------------------------------------ hand-computed --

  test("triangle K3: all cosine sims are 1") {
    val s = sims(GraphGen.complete(spark, 3))
    assert(s.size == 3)
    s.values.foreach(v => assert(math.abs(v - 1.0) < 1e-12))
  }

  test("clique K5: all cosine sims are 1") {
    sims(GraphGen.complete(spark, 5)).values.foreach(v => assert(math.abs(v - 1.0) < 1e-12))
  }

  test("path 0-1-2: end edges have sim 2/sqrt(6)") {
    val s = sims(GraphGen.path(spark, 3))
    assert(math.abs(s((0L, 1L)) - 2.0 / math.sqrt(6.0)) < 1e-12)
    assert(math.abs(s((1L, 2L)) - 2.0 / math.sqrt(6.0)) < 1e-12)
  }

  test("star S5: spoke sims are 2/sqrt(2*(n)) with center closed degree n") {
    val n = 5
    val s = sims(GraphGen.star(spark, n))
    // center closed degree = n, leaf closed degree = 2; shared = {center, leaf}
    val expect = 2.0 / math.sqrt(2.0 * n)
    s.values.foreach(v => assert(math.abs(v - expect) < 1e-12))
  }

  test("figureLike graph: hand-computed cosine sims") {
    val s = sims(GraphGen.figureLike(spark))
    assert(math.abs(s((1L, 2L)) - 1.0) < 1e-12)
    assert(math.abs(s((5L, 6L)) - 1.0) < 1e-12)
    assert(math.abs(s((0L, 1L)) - 4.0 / math.sqrt(20.0)) < 1e-12)
    assert(math.abs(s((4L, 7L)) - 4.0 / math.sqrt(20.0)) < 1e-12)
    assert(math.abs(s((0L, 8L)) - 2.0 / math.sqrt(20.0)) < 1e-12)
    assert(math.abs(s((4L, 8L)) - 2.0 / math.sqrt(20.0)) < 1e-12)
    assert(math.abs(s((8L, 9L)) - 2.0 / math.sqrt(8.0)) < 1e-12)
  }

  test("figureLike graph: hand-computed Jaccard sims") {
    val s = sims(GraphGen.figureLike(spark), Similarity.Jaccard)
    // σJ(1,2): N̄ both {0,1,2,3} → 4 / 4 = 1
    assert(math.abs(s((1L, 2L)) - 1.0) < 1e-12)
    // σJ(0,1): inter 4, union 5 → 0.8
    assert(math.abs(s((0L, 1L)) - 0.8) < 1e-12)
    // σJ(0,8): inter {0,8} = 2, union 7 → 2/7
    assert(math.abs(s((0L, 8L)) - 2.0 / 7.0) < 1e-12)
    // σJ(8,9): inter 2, union 4 → 0.5
    assert(math.abs(s((8L, 9L)) - 0.5) < 1e-12)
  }

  test("weighted triangle: hand-computed weighted cosine") {
    // 0-1 (w=.5), 1-2 (w=.5), 0-2 (w=1)
    val g = GraphGen.fromWeightedEdges(spark, Seq((0L, 1L, 0.5), (1L, 2L, 0.5), (0L, 2L, 1.0)))
    val s = sims(g)
    // σ(0,1): dot = 2*0.5 + w(0,2)*w(1,2) = 1 + .5 = 1.5
    // norms² : v0 = 1+.25+1 = 2.25; v1 = 1+.25+.25 = 1.5
    assert(math.abs(s((0L, 1L)) - 1.5 / math.sqrt(2.25 * 1.5)) < 1e-12)
    // σ(0,2): dot = 2*1 + .5*.5 = 2.25; norms² v2 = 1+1+.25 = 2.25
    assert(math.abs(s((0L, 2L)) - 2.25 / math.sqrt(2.25 * 2.25)) < 1e-12)
  }

  test("unweighted graphs: sim values are in [0, 1]") {
    val g = GraphGen.rmat(spark, 9, 2000, seed = 21)
    Similarity.similarities(g, Similarity.Cosine).collect().foreach { r =>
      val s = r.getDouble(2)
      assert(s >= 0.0 && s <= 1.0 + 1e-12)
    }
  }

  test("every edge gets a similarity (count matches m)") {
    val g = GraphGen.rmat(spark, 9, 2000, seed = 22)
    assert(Similarity.similarities(g, Similarity.Cosine).count() == g.count())
  }

  // --------------------------------------------------------- vs. oracle --

  for ((name, gen) <- Seq(
      "figureLike" -> (() => GraphGen.figureLike(spark)),
      "rmat-9"     -> (() => GraphGen.rmat(spark, 9, 1200, seed = 31)),
      "er-150"     -> (() => GraphGen.erdosRenyi(spark, 150, 900, seed = 32)),
      "star-20"    -> (() => GraphGen.star(spark, 20)))) {
    test(s"cosine sims match the DuckDB oracle on $name") {
      val g = gen()
      Oracle.assertEquivalent(
        Similarity.similarities(g, Similarity.Cosine).select("src", "dst", "sim"),
        TestUtil.cosineUnweightedSql,
        "edges" -> g)
    }

    test(s"jaccard sims match the DuckDB oracle on $name") {
      val g = gen()
      Oracle.assertEquivalent(
        Similarity.similarities(g, Similarity.Jaccard).select("src", "dst", "sim"),
        TestUtil.jaccardSql,
        "edges" -> g)
    }
  }

  for ((name, gen) <- Seq(
      "dense-weighted-60" -> (() => GraphGen.denseWeighted(spark, 60, 700, seed = 33)),
      "weighted-rand"     -> (() => GraphGen.denseWeighted(spark, 80, 500, seed = 34)))) {
    test(s"weighted cosine sims match the DuckDB oracle on $name") {
      val g = gen()
      Oracle.assertEquivalent(
        Similarity.similarities(g, Similarity.Cosine).select("src", "dst", "sim"),
        TestUtil.cosineWeightedSql,
        "edges" -> g)
    }
  }

  // ------------------------------------------- directed vs naive vs seq --
  // "naive" is Algorithm 1 per edge (`SeqScanIndex.edgeSim` over every
  // edge of the CSR): a per-edge merge, not the directed triangle kernel.

  private def naiveSims(g: DataFrame, m: Similarity.Measure): Map[(Long, Long), Double] = {
    val sg = SeqGraph.fromDataFrame(g)
    (for (u <- 0 until sg.n; k <- sg.adj(u).indices if sg.adj(u)(k) > u)
      yield (sg.ids(u), sg.ids(sg.adj(u)(k))) -> SeqScanIndex.edgeSim(sg, m, u, k)).toMap
  }

  for ((name, gen, weighted) <- Seq(
      ("figureLike", () => GraphGen.figureLike(spark), false),
      ("rmat-10", () => GraphGen.rmat(spark, 10, 3000, seed = 41), false),
      ("er-200", () => GraphGen.erdosRenyi(spark, 200, 1500, seed = 42), false),
      ("dense-weighted", () => GraphGen.denseWeighted(spark, 70, 900, seed = 43), true))) {

    test(s"directed and naive similarity implementations agree on $name") {
      val g = gen()
      val tol = if (weighted) 1e-9 else 0.0
      TestUtil.assertSimsEqual(
        TestUtil.simsToMap(Similarity.similarities(g, Similarity.Cosine)),
        naiveSims(g, Similarity.Cosine),
        tol)
    }

    test(s"Spark and sequential similarity implementations agree on $name") {
      val g   = gen()
      val sg  = SeqGraph.fromDataFrame(g)
      val tol = if (weighted) 1e-9 else 0.0
      val sparkSims = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Cosine))
      val basic = SeqScanIndex.simsBasic(sg, Similarity.Cosine)
      val opt   = SeqScanIndex.buildOpt(sg, Similarity.Cosine)
      val fn    = SeqScan.similarityFn(sg, Similarity.Cosine)
      sparkSims.foreach { case ((u, v), s) =>
        val (ui, vi) = (sg.idOf(u), sg.idOf(v))
        val k = (math.min(ui, vi).toLong << 32) | (math.max(ui, vi).toLong & 0xffffffffL)
        assert(math.abs(basic(k) - s) <= tol, s"basic mismatch on ($u,$v)")
        assert(math.abs(opt.noSim(ui)(opt.noNbr(ui).indexOf(vi)) - s) <= tol, s"opt mismatch on ($u,$v)")
        assert(math.abs(fn(math.min(ui, vi), math.max(ui, vi)) - s) <= tol, s"seqscan mismatch on ($u,$v)")
      }
    }
  }

  test("jaccard agreement between directed, naive, and sequential on rmat") {
    val g  = GraphGen.rmat(spark, 9, 2000, seed = 44)
    val sg = SeqGraph.fromDataFrame(g)
    val a  = TestUtil.simsToMap(Similarity.similarities(g, Similarity.Jaccard))
    val b  = naiveSims(g, Similarity.Jaccard)
    TestUtil.assertSimsEqual(a, b, 0.0)
    val basic = SeqScanIndex.simsBasic(sg, Similarity.Jaccard)
    a.foreach { case ((u, v), s) =>
      val (ui, vi) = (sg.idOf(u), sg.idOf(v))
      val k = (math.min(ui, vi).toLong << 32) | (math.max(ui, vi).toLong & 0xffffffffL)
      assert(basic(k) == s, s"jaccard mismatch on ($u,$v)")
    }
  }

  test("jaccard ignores weights (weighted graph treated as unweighted)") {
    val gw = GraphGen.denseWeighted(spark, 40, 300, seed = 53)
    val gu = gw.select(col("src"), col("dst"), lit(1.0).as("weight"))
    TestUtil.assertSimsEqual(
      TestUtil.simsToMap(Similarity.similarities(gw, Similarity.Jaccard)),
      TestUtil.simsToMap(Similarity.similarities(gu, Similarity.Jaccard)),
      0.0)
  }

  test("sqNorms: 1 + sum of squared weights") {
    val g = GraphGen.fromWeightedEdges(spark, Seq((0L, 1L, 0.5), (0L, 2L, 2.0)))
    val sg = SeqGraph.fromDataFrame(g)
    val ns = sg.sqNorms
    assert(math.abs(ns(sg.idOf(0L)) - (1 + 0.25 + 4.0)) < 1e-12)
    assert(math.abs(ns(sg.idOf(1L)) - 1.25) < 1e-12)
    assert(math.abs(ns(sg.idOf(2L)) - 5.0) < 1e-12)
  }
}
