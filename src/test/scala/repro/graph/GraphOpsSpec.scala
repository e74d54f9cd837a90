package repro.graph

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec, TestUtil}
import repro.core.{ScanIndex, Similarity}

class GraphOpsSpec extends SparkSpec {
  import spark.implicits._

  test("canonicalize orients edges with src < dst") {
    val df = GraphOps.canonicalize(Seq((5L, 2L), (1L, 3L)).toDF("src", "dst"))
    val rows = df.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(rows == Set((2L, 5L), (1L, 3L)))
  }

  test("canonicalize drops self-loops") {
    val df = GraphOps.canonicalize(Seq((1L, 1L), (1L, 2L), (3L, 3L)).toDF("src", "dst"))
    assert(df.count() == 1)
  }

  test("canonicalize merges duplicate edges keeping max weight") {
    val df = GraphOps.canonicalize(
      Seq((1L, 2L, 0.3), (2L, 1L, 0.7), (1L, 2L, 0.5)).toDF("src", "dst", "weight"))
    val rows = df.collect()
    assert(rows.length == 1)
    assert(rows(0).getDouble(2) == 0.7)
  }

  test("canonicalize defaults weight to 1.0 when absent") {
    val df = GraphOps.canonicalize(Seq((1L, 2L)).toDF("src", "dst"))
    assert(df.collect()(0).getDouble(2) == 1.0)
  }

  test("canonicalize makes Int ids Long, so a build reads them") {
    val g = GraphOps.canonicalize(Seq((0, 1), (1, 2), (0, 2), (2, 3)).toDF("src", "dst"))
    assert(g.schema.map(_.dataType.simpleString) == Seq("bigint", "bigint", "double"))
    assert(ScanIndex.build(g, Similarity.Cosine).maxMu == 4)
  }

  // least/greatest skip a null: (null, 2) became the self-loop (2, 2) and vanished.
  test("a null endpoint or weight is refused when the graph is prepared, naming the row") {
    def refused(raw: DataFrame) = intercept[IllegalArgumentException](ScanIndex.build(GraphOps.canonicalize(raw), Similarity.Cosine)).getMessage
    assert(refused(Seq[(java.lang.Long, java.lang.Long)]((1L, 2L), (null, 2L)).toDF("src", "dst")).contains("edge row (null, 2, 1.0) has a null"))
    val weights = Seq[(Long, Long, java.lang.Double)]((1L, 2L, 0.5), (2L, 3L, null), (3L, 2L, 0.5))
    assert(refused(weights.toDF("src", "dst", "weight")).contains("edge row (2, 3, null) has a null"))
  }

  test("symmetrize doubles the edge count") {
    val g = GraphGen.figureLike(spark)
    assert(GraphViews.symmetrize(g).count() == 2 * g.count())
  }

  test("symmetrize preserves weights in both directions") {
    val g = GraphGen.fromWeightedEdges(spark, Seq((1L, 2L, 0.25)))
    val rows = GraphViews.symmetrize(g).collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSet
    assert(rows == Set((1L, 2L, 0.25), (2L, 1L, 0.25)))
  }

  test("degrees of the path graph") {
    val degs = GraphViews.degrees(GraphGen.path(spark, 5))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(degs == Map(0L -> 1L, 1L -> 2L, 2L -> 2L, 3L -> 2L, 4L -> 1L))
  }

  test("degrees of the star graph") {
    val degs = GraphViews.degrees(GraphGen.star(spark, 6))
      .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(degs(0L) == 5L)
    (1L to 5L).foreach(v => assert(degs(v) == 1L))
  }

  test("degrees of the complete graph K6") {
    val degs = GraphViews.degrees(GraphGen.complete(spark, 6)).collect()
    assert(degs.length == 6)
    degs.foreach(r => assert(r.getLong(1) == 5L))
  }

  test("degrees match the DuckDB oracle on an RMAT graph") {
    val g = GraphGen.rmat(spark, 8, 500, seed = 7)
    Oracle.assertEquivalent(GraphViews.degrees(g).select($"v", $"deg"), TestUtil.degreesSql, "edges" -> g)
  }

  test("vertices excludes nothing that has an edge") {
    val g = GraphGen.fromEdges(spark, Seq((10L, 20L), (20L, 30L)))
    assert(TestUtil.vertexSet(GraphViews.vertices(g)) == Set(10L, 20L, 30L))
  }

  test("numEdges and numVertices on K5") {
    val g = GraphGen.complete(spark, 5)
    assert(GraphViews.numEdges(g) == 10)
    assert(GraphViews.numVertices(g) == 5)
  }

  test("canonicalize is idempotent") {
    val g  = GraphGen.rmat(spark, 7, 300, seed = 3)
    val g2 = GraphOps.canonicalize(g)
    assert(g.collect().toSet == g2.collect().toSet)
  }
}
