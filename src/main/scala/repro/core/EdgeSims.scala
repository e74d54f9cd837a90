package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.baseline.{SeqGraph, SeqScanIndex}

/** Per-edge similarities by `SeqGraph.eids`, broadcast with their driver
  * graph. Every DataFrame read off them runs in p = defaultParallelism
  * tasks, task i over the vertex stripe v ≡ i (mod p): §6.1's parallel
  * loop over vertices.
  */
final class EdgeSims private (spark: SparkSession, graph: Broadcast[SeqGraph], sims: Broadcast[Array[Double]]) {

  /** (src, dst, sim) in canonical orientation. */
  def similarities: DataFrame = perVertex("src LONG, dst LONG, sim DOUBLE") { (g, s, u) =>
    g.adj(u).indices.iterator.filter(g.adj(u)(_) > u).map(k => Row(g.ids(u), g.ids(g.adj(u)(k)), s(g.eids(u)(k))))
  }

  /** NO (v, rank, nbr, sim): each vertex sorts its own list with
    * `SeqGraph.neighborOrder`; ranks run 2..deg+1.
    */
  def neighborOrder: DataFrame = perVertex("v LONG, rank INT, nbr LONG, sim DOUBLE") { (g, s, v) =>
    val vs = g.eids(v).map(s(_))
    g.neighborOrder(v, vs).iterator.zipWithIndex.map { case (k, i) => Row(g.ids(v), i + 2, g.ids(g.adj(v)(k)), vs(k)) }
  }

  /** Open degrees (v, deg). */
  def degrees: DataFrame =
    perVertex("v LONG, deg LONG")((g, _, v) => Iterator.single(Row(g.ids(v), g.degree(v).toLong)))

  private def perVertex(schema: String)(rows: (SeqGraph, Array[Double], Int) => Iterator[Row]): DataFrame = {
    val (bg, bs, p) = (graph, sims, spark.sparkContext.defaultParallelism)
    val rdd = spark.sparkContext.parallelize(0 until p, p).flatMap { i =>
      Iterator.range(i, bg.value.n, p).flatMap(rows(bg.value, bs.value, _))
    }
    spark.createDataFrame(rdd, StructType.fromDDL(schema))
  }
}

object EdgeSims {

  /** Exact similarities: collect the graph into the driver CSR, broadcast
    * it, run the merge kernel over one vertex stripe per task, and add the
    * per-task triangle sums in stripe order.
    */
  def exact(canonical: DataFrame, measure: Similarity.Measure): EdgeSims = {
    val (spark, g) = (canonical.sparkSession, SeqGraph.fromDataFrame(canonical))
    val (bg, m, p) = (spark.sparkContext.broadcast(g), g.numEdges.toInt, spark.sparkContext.defaultParallelism)
    val tri = spark.sparkContext.parallelize(0 until p, p).map { i =>
      val t = new Array[Double](m)
      SeqScanIndex.mergeStripe(bg.value, measure, t, i, p)
      t
    }.collect().reduceLeft((a, b) => { for (e <- 0 until m) a(e) += b(e); a })
    new EdgeSims(spark, bg, spark.sparkContext.broadcast(SeqScanIndex.simsByEdge(g, measure, tri)))
  }

  /** Given (src, dst, sim) for every edge, e.g. approximate ones: collect
    * both the graph and the similarities, by edge id.
    */
  def collect(canonical: DataFrame, simsDf: DataFrame): EdgeSims = {
    val (spark, g) = (canonical.sparkSession, SeqGraph.fromDataFrame(canonical))
    val (sims, seen) = (new Array[Double](g.numEdges.toInt), new java.util.BitSet)
    simsDf.select("src", "dst", "sim").collect().foreach { r =>
      val u = g.idOf(r.getLong(0))
      val k = java.util.Arrays.binarySearch(g.adj(u), g.idOf(r.getLong(1)))
      require(k >= 0 && !seen.get(g.eids(u)(k)), s"similarities: (${r.getLong(0)}, ${r.getLong(1)}) is not an edge, or repeats")
      seen.set(g.eids(u)(k)); sims(g.eids(u)(k)) = r.getDouble(2)
    }
    require(seen.cardinality == sims.length, "similarities: some edge has no similarity")
    new EdgeSims(spark, spark.sparkContext.broadcast(g), spark.sparkContext.broadcast(sims))
  }
}
