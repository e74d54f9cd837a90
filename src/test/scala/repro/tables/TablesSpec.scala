package repro.tables

import repro.SparkSpec

/** Smoke tests for every table harness at "test" scale with reduced
  * parameter grids and a two-graph subset (one unweighted, one weighted) —
  * the bench suites run the full configurations.
  */
class TablesSpec extends SparkSpec {

  private val twoGraphs = Some(Seq("orkut-lite", "vessel-lite"))

  private def allPositive(rows: Seq[Seq[String]], col: Int): Unit =
    rows.foreach(r => assert(r(col).toDouble >= 0, s"negative time in row $r"))

  test("Table 2 lists all six graphs with positive sizes") {
    val t = T2Datasets.run(spark, "test")
    assert(t.rows.length == 6)
    assert(t.rows.map(_.head).toSet == Datasets.suite("test").map(_.name).toSet)
    t.rows.foreach { r =>
      assert(r(1).toLong > 0 && r(2).toLong > 0)
      assert(Set("weighted", "unweighted").contains(r(3)))
    }
    println(t.render)
  }

  test("Figure 5 harness produces timings for the selected graphs") {
    val t = F5Construction.run(spark, "test", trials = 1, graphNames = twoGraphs)
    assert(t.rows.length == 2)
    allPositive(t.rows, 1); allPositive(t.rows, 2); allPositive(t.rows, 3)
    // Test-scale graphs are below every grain: the build runs on the driver.
    assert(t.rows.forall(_(6) == "triangles inline, orders inline"), t.rows.map(_(6)))
    println(t.render)
  }

  test("Figure 6 harness produces a row per (graph, eps)") {
    val t = F6EpsSweep.run(spark, "test", mu = 2, epsList = Seq(0.5), trials = 1,
      graphNames = twoGraphs)
    assert(t.rows.length == 2)
    allPositive(t.rows, 2); allPositive(t.rows, 3); allPositive(t.rows, 4)
    println(t.render)
  }

  test("Figure 7 harness sweeps mu up to the cap") {
    val t = F7MuSweep.run(spark, "test", eps = 0.6, trials = 1, muCap = 4,
      graphNames = twoGraphs)
    assert(t.rows.nonEmpty)
    t.rows.foreach(r => assert(r(1).toInt >= 2 && r(1).toInt <= 4))
    allPositive(t.rows, 2)
    println(t.render)
  }

  test("Figure 8 harness covers cosine everywhere and jaccard on unweighted") {
    val t = F8ApproxConstruction.run(spark, "test", ks = Seq(4), trials = 1,
      graphNames = twoGraphs)
    // orkut-lite (unweighted): cosine+jaccard; vessel-lite (weighted): cosine
    assert(t.rows.length == 3)
    allPositive(t.rows, 3); allPositive(t.rows, 4)
    println(t.render)
  }

  test("Figure 9 harness reports exact and per-k modularity rows") {
    val t = F9Modularity.run(
      spark, "test",
      graphNames = Seq("vessel-lite"),
      ks = Seq(8), mus = Seq(2), epsList = Seq(0.4, 0.6))
    assert(t.rows.length == 2) // exact + k=8
    t.rows.foreach(r => assert(math.abs(r(3).toDouble) <= 1.0))
    println(t.render)
  }

  test("Figure 10 harness reports ARI in [-1, 1]") {
    val t = F10Ari.run(
      spark, "test",
      graphNames = Seq("vessel-lite"),
      ks = Seq(8), mus = Seq(2), epsList = Seq(0.4, 0.6))
    assert(t.rows.length == 1)
    t.rows.foreach(r => assert(r(4).toDouble >= -1.0 && r(4).toDouble <= 1.0))
    println(t.render)
  }

  test("TableResult renders an aligned grid") {
    val t = TableResult("demo", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.render.linesIterator.toSeq
    assert(lines.head == "== demo ==")
    assert(lines.drop(1).map(_.length).distinct.size == 1)
  }
}
