package repro.connectivity

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.graph.{GraphGen, GraphOps}

class ConnectivitySpec extends SparkSpec {
  import spark.implicits._

  private def compsOf(df: DataFrame): Map[Long, Long] =
    df.select("v", "component").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  private val impls: Seq[(String, (org.apache.spark.sql.SparkSession, DataFrame, DataFrame) => DataFrame)] =
    Seq(
      "GraphX"    -> Connectivity.connectedComponentsGraphX,
      "UnionFind" -> Connectivity.connectedComponentsUnionFind)

  private def run(vertices: Seq[Long], edges: Seq[(Long, Long)],
      impl: (org.apache.spark.sql.SparkSession, DataFrame, DataFrame) => DataFrame): Map[Long, Long] = {
    val vdf = vertices.toDF("v")
    val edf = edges.toDF("src", "dst")
    compsOf(impl(spark, vdf, edf))
  }

  for ((name, impl) <- impls) {

    test(s"$name: single path is one component labeled by its minimum") {
      val comps = run(0L to 4L, (0L to 3L).map(i => (i, i + 1)), impl)
      assert(comps == (0L to 4L).map(_ -> 0L).toMap)
    }

    test(s"$name: two components get min-id labels") {
      val comps = run(Seq(1L, 2L, 3L, 10L, 11L), Seq((1L, 2L), (2L, 3L), (10L, 11L)), impl)
      assert(comps == Map(1L -> 1L, 2L -> 1L, 3L -> 1L, 10L -> 10L, 11L -> 10L))
    }

    test(s"$name: isolated vertices become singleton components") {
      val comps = run(Seq(5L, 7L, 9L), Seq.empty, impl)
      assert(comps == Map(5L -> 5L, 7L -> 7L, 9L -> 9L))
    }

    test(s"$name: empty vertex set yields empty output") {
      assert(run(Seq.empty, Seq.empty, impl).isEmpty)
    }

    test(s"$name: a cycle is one component") {
      val comps = run(0L to 5L, (0L to 4L).map(i => (i, i + 1)) :+ ((5L, 0L)), impl)
      assert(comps.values.toSet == Set(0L))
    }
  }

  test("GraphX and UnionFind implementations agree on random graphs") {
    for (seed <- 1 to 4) {
      val g = GraphGen.erdosRenyi(spark, 300, 350, seed = seed.toLong) // sparse → many components
      val v = GraphOps.vertices(g)
      val a = compsOf(Connectivity.connectedComponentsGraphX(spark, v, g))
      val c = compsOf(Connectivity.connectedComponentsUnionFind(spark, v, g))
      assert(a == c, s"seed=$seed graphx-vs-unionfind")
    }
  }

  test("UnionFind components match the DuckDB recursive-CTE oracle") {
    val g = GraphGen.erdosRenyi(spark, 40, 35, seed = 96)
    val v = GraphOps.vertices(g)
    Oracle.assertEquivalent(
      Connectivity.connectedComponentsUnionFind(spark, v, g).select("v", "component"),
      TestUtil.componentsSql,
      "edges" -> g)
  }

  test("GraphX components match the DuckDB recursive-CTE oracle") {
    val g = GraphGen.erdosRenyi(spark, 40, 35, seed = 99)
    val v = GraphOps.vertices(g)
    Oracle.assertEquivalent(
      Connectivity.connectedComponentsGraphX(spark, v, g).select("v", "component"),
      TestUtil.componentsSql,
      "edges" -> g)
  }

  test("component label is always the minimum member id") {
    val g = GraphGen.rmat(spark, 8, 400, seed = 97)
    val v = GraphOps.vertices(g)
    val comps = Connectivity.connectedComponentsGraphX(spark, v, g)
    val bad = comps.groupBy("component").agg(min("v").as("mn"))
      .filter(col("component") =!= col("mn"))
    assert(bad.count() == 0)
  }
}
