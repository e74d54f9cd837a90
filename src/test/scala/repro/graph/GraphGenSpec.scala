package repro.graph

import org.apache.spark.sql.functions._
import repro.SparkSpec

class GraphGenSpec extends SparkSpec {

  private def assertCanonical(df: org.apache.spark.sql.DataFrame): Unit = {
    assert(df.filter(col("src") >= col("dst")).count() == 0, "src < dst violated")
    assert(df.groupBy("src", "dst").count().filter(col("count") > 1).count() == 0, "duplicates")
  }

  test("rmat is deterministic in seed") {
    val a = GraphGen.rmat(spark, 9, 1000, seed = 42).collect().toSet
    val b = GraphGen.rmat(spark, 9, 1000, seed = 42).collect().toSet
    assert(a == b)
  }

  test("rmat differs across seeds") {
    val a = GraphGen.rmat(spark, 9, 1000, seed = 1).collect().toSet
    val b = GraphGen.rmat(spark, 9, 1000, seed = 2).collect().toSet
    assert(a != b)
  }

  test("rmat output is canonical and within the vertex range") {
    val g = GraphGen.rmat(spark, 8, 800, seed = 5)
    assertCanonical(g)
    assert(g.filter(col("dst") >= (1L << 8)).count() == 0)
    assert(g.filter(col("src") < 0).count() == 0)
  }

  test("rmat produces a skewed degree distribution") {
    val degs = GraphViews.degrees(GraphGen.rmat(spark, 10, 8000, seed = 6))
      .select("deg").collect().map(_.getLong(0))
    assert(degs.max >= 4 * (degs.sum / degs.length), "expected heavy-tailed degrees")
  }

  test("erdosRenyi is deterministic and canonical") {
    val a = GraphGen.erdosRenyi(spark, 200, 1500, seed = 9)
    val b = GraphGen.erdosRenyi(spark, 200, 1500, seed = 9)
    assert(a.collect().toSet == b.collect().toSet)
    assertCanonical(a)
  }

  test("denseWeighted weights lie in (0, 1]") {
    val g = GraphGen.denseWeighted(spark, 50, 600, seed = 8)
    assert(g.filter(col("weight") <= 0 || col("weight") > 1).count() == 0)
    assertCanonical(g)
  }

  test("denseWeighted weights are deterministic in seed") {
    val a = GraphGen.denseWeighted(spark, 50, 400, seed = 4).collect().toSet
    val b = GraphGen.denseWeighted(spark, 50, 400, seed = 4).collect().toSet
    assert(a == b)
  }

  test("plantedPartition has denser intra-community structure") {
    val g = GraphGen.plantedPartition(spark, 120, 3, pIn = 0.5, pOut = 0.01, seed = 2)
    val commSize = 40
    val sameComm = g.filter((col("src") / commSize).cast("long") === (col("dst") / commSize).cast("long")).count()
    val diffComm = g.count() - sameComm
    assert(sameComm > 3 * diffComm, s"intra=$sameComm inter=$diffComm")
  }

  test("complete graph K7 has 21 edges") {
    assert(GraphGen.complete(spark, 7).count() == 21)
  }

  test("path graph has n-1 edges") {
    assert(GraphGen.path(spark, 9).count() == 8)
  }

  test("star graph has n-1 edges all incident to the center") {
    val g = GraphGen.star(spark, 8)
    assert(g.count() == 7)
    assert(g.filter(col("src") === 0).count() == 7)
  }

  test("figureLike graph shape: 10 vertices, 15 edges") {
    val g = GraphGen.figureLike(spark)
    assert(GraphViews.numVertices(g) == 10)
    assert(GraphViews.numEdges(g) == 15)
  }

  test("fromWeightedEdges round-trips weights") {
    val g = GraphGen.fromWeightedEdges(spark, Seq((3L, 1L, 0.5), (2L, 4L, 0.9)))
    val m = g.collect().map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    assert(m == Map((1L, 3L) -> 0.5, (2L, 4L) -> 0.9))
  }
}
