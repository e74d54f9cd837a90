package repro.connectivity

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestUtil}
import repro.graph.{GraphGen, GraphOps}

class ConnectivitySpec extends SparkSpec {
  import spark.implicits._

  private def compsOf(df: DataFrame): Map[Long, Long] =
    df.select("v", "component").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  private def run(vertices: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Long] =
    compsOf(Connectivity.connectedComponentsGraphX(spark, vertices.toDF("v"), edges.toDF("src", "dst")))

  test("GraphX: single path is one component labeled by its minimum") {
    val comps = run(0L to 4L, (0L to 3L).map(i => (i, i + 1)))
    assert(comps == (0L to 4L).map(_ -> 0L).toMap)
  }

  test("GraphX: two components get min-id labels") {
    val comps = run(Seq(1L, 2L, 3L, 10L, 11L), Seq((1L, 2L), (2L, 3L), (10L, 11L)))
    assert(comps == Map(1L -> 1L, 2L -> 1L, 3L -> 1L, 10L -> 10L, 11L -> 10L))
  }

  test("GraphX: isolated vertices become singleton components") {
    val comps = run(Seq(5L, 7L, 9L), Seq.empty)
    assert(comps == Map(5L -> 5L, 7L -> 7L, 9L -> 9L))
  }

  test("GraphX: empty vertex set yields empty output") {
    assert(run(Seq.empty, Seq.empty).isEmpty)
  }

  test("GraphX: a cycle is one component") {
    val comps = run(0L to 5L, (0L to 4L).map(i => (i, i + 1)) :+ ((5L, 0L)))
    assert(comps.values.toSet == Set(0L))
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
