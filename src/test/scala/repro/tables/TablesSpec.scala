package repro.tables

import repro.SparkSpec
import repro.core.PreparedGraph
import repro.jobs.Figures

/** Every table exactly as `Figures <name> test` runs it: each harness comes
  * from `Figures`' own list, and a harness without a test here fails.
  */
class TablesSpec extends SparkSpec {

  private def allPositive(rows: Seq[Seq[String]], col: Int): Unit =
    rows.foreach(r => assert(r(col).toDouble >= 0, s"negative time in row $r"))

  private val checks: Seq[(String, String, TableResult => Unit)] = Seq(
    ("table2", "Table 2 lists all six graphs with positive sizes", { t =>
      // The test-scale sizes of the generators and seeds in `Datasets`.
      assert(t.rows.map(r => (r(0), r(1).toLong, r(2).toLong)) == Seq(
        ("orkut-lite", 697L, 3299L),
        ("brain-lite", 256L, 3781L),
        ("webbase-lite", 971L, 2789L),
        ("friendster-lite", 757L, 4676L),
        ("vessel-lite", 100L, 1284L),
        ("cochlea-lite", 100L, 1963L)))
      assert(t.rows.map(_(3)) == Seq.fill(4)("unweighted") ++ Seq.fill(2)("weighted"))
    }),
    ("fig5", "Figure 5 harness produces timings for every graph", { t =>
      assert(t.rows.map(_.head) == Datasets.all.map(_.name))
      allPositive(t.rows, 1); allPositive(t.rows, 2); allPositive(t.rows, 3)
      // Test-scale graphs are below every grain: the build runs on the driver.
      assert(t.rows.forall(_(6) == "triangles inline, orders inline"), t.rows.map(_(6)))
    }),
    ("fig6", "Figure 6 harness produces a row per (graph, eps)", { t =>
      assert(t.rows.length == 54) // 6 graphs × 9 eps
      allPositive(t.rows, 2); allPositive(t.rows, 3); allPositive(t.rows, 4)
    }),
    ("fig7", "Figure 7 harness sweeps mu up to the cap", { t =>
      val expected = Datasets.all.flatMap { bg =>
        val edges = bg.load(spark, "test")
        val top   = math.min(16384, Integer.highestOneBit(PreparedGraph.of(edges).value.maxDegree))
        edges.unpersist()
        Iterator.iterate(2)(_ * 2).takeWhile(_ <= top).map(mu => (bg.name, mu.toString))
      }
      assert(t.rows.map(r => (r(0), r(1))) == expected)
      assert(t.rows.length == 37)
      allPositive(t.rows, 2)
    }),
    ("fig8", "Figure 8 harness covers cosine everywhere and jaccard on unweighted", { t =>
      // 4 unweighted graphs × 2 measures × 4 ks + 2 weighted graphs × cosine × 4 ks
      assert(t.rows.length == 40)
      assert(t.rows.filter(_(1) == "jaccard").map(_.head).distinct ==
        Datasets.all.filterNot(_.weighted).map(_.name))
      allPositive(t.rows, 3); allPositive(t.rows, 4)
    }),
    ("fig9", "Figure 9 harness reports exact and per-k modularity rows", { t =>
      assert(t.rows.length == 12) // 3 graphs × (exact + 3 ks)
      t.rows.foreach(r => assert(math.abs(r(3).toDouble) <= 1.0))
    }),
    ("fig10", "Figure 10 harness reports ARI in [-1, 1]", { t =>
      assert(t.rows.length == 9) // 3 graphs × 3 ks
      t.rows.foreach(r => assert(r(4).toDouble >= -1.0 && r(4).toDouble <= 1.0))
    }))

  test("every Figures harness has a test here") {
    assert(checks.map(_._1) == Figures.harnesses.map(_._1))
  }

  for ((name, title, check) <- checks)
    test(title) {
      val run = Figures.harnesses.toMap.getOrElse(name, fail(s"Figures has no harness '$name'"))
      val t   = run(spark, "test")
      check(t)
      println(t.render)
    }

  test("Figures rejects an unknown figure or scale before starting a session") {
    val sc = spark.sparkContext // the shared session, which `main` must leave running
    intercept[IllegalArgumentException](Figures.main(Array("table2", "huge")))
    intercept[IllegalArgumentException](Figures.main(Array("fig11")))
    assert(!sc.isStopped)
  }

  test("TableResult renders an aligned grid") {
    val t = TableResult("demo", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.render.linesIterator.toSeq
    assert(lines.head == "== demo ==")
    assert(lines.drop(1).map(_.length).distinct.size == 1)
  }
}
