package repro.core

import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, Encoders, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import repro.approx.{MinHashOPH, SimHash}
import repro.baseline.{SeqGraph, SeqScanIndex}
import scala.collection.mutable
import scala.reflect.ClassTag

/** Per-edge similarities by `SeqGraph.eids`, broadcast beside their
  * prepared graph (`PreparedGraph`). A DataFrame read off them runs in
  * p = defaultParallelism tasks, task i over the vertex stripe
  * v ≡ i (mod p): §6.1's parallel loop over vertices.
  */
final class EdgeSims private (val spark: SparkSession, val graph: Broadcast[SeqGraph], private[core] val byEdge: Broadcast[Array[Double]]) {

  /** (src, dst, sim) in canonical orientation. */
  def similarities: DataFrame = {
    val (bg, bs) = (graph, byEdge)
    EdgeSims.rows(spark, bg.value.n, "src LONG, dst LONG, sim DOUBLE") { u =>
      val g = bg.value
      EdgeSims.upper(g, u).map(k => Row(g.ids(u), g.ids(g.adj(u)(k)), bs.value(g.eids(u)(k))))
    }
  }
}

object EdgeSims {

  /** Exact similarities: run the merge kernel over the prepared graph, one
    * vertex stripe per task, and add the per-task triangle sums in stripe
    * order.
    */
  def exact(canonical: DataFrame, measure: Similarity.Measure): EdgeSims = {
    val (spark, bg) = (canonical.sparkSession, PreparedGraph.of(canonical))
    val (g, m, p)   = (bg.value, bg.value.numEdges.toInt, spark.sparkContext.defaultParallelism)
    requireTriangleSumFits(p, m, Runtime.getRuntime.maxMemory)
    val tri = spark.sparkContext.parallelize(0 until p, p).map { i =>
      val t = new Array[Double](m)
      SeqScanIndex.mergeStripe(bg.value, measure, t, i, p)
      t
    }.collect().reduceLeft((a, b) => { for (e <- 0 until m) a(e) += b(e); a })
    new EdgeSims(spark, bg, spark.sparkContext.broadcast(SeqScanIndex.simsByEdge(g, measure, tri)))
  }

  /** `exact` holds the p stripes' triangle arrays on the driver, to sum
    * them in stripe order (deterministic weighted sums): p·m·8 bytes, at
    * most a quarter of the driver's max heap.
    */
  private[core] def requireTriangleSumFits(p: Int, m: Long, maxHeap: Long): Unit = {
    val bytes = p * m * 8
    require(bytes <= maxHeap / 4,
      s"exact similarities: $p stripes × $m edges × 8 B = $bytes B of triangle sums exceed a quarter of the driver's max heap ($maxHeap B)")
  }

  /** LSH similarities (§5) on the edges whose endpoints both have degree
    * above `t`, exact ones elsewhere (§6.3), over the prepared graph in two
    * stripe passes:
    *
    * 1. sketch each vertex above t that has a neighbor above t — SimHash
    *    for cosine, one-permutation MinHash for Jaccard — and broadcast the
    *    sketches (each is smaller than its vertex's adjacency, as t ≥ k);
    * 2. give each edge with two sketched endpoints its estimate, and every
    *    other edge its exact value by the per-edge merge
    *    (`SeqScanIndex.edgeSim`); each stripe returns its edge ids and
    *    similarities as two primitive arrays.
    */
  def approx(canonical: DataFrame, measure: Similarity.Measure, k: Int, seed: Long, t: Long): EdgeSims = {
    val (spark, bg) = (canonical.sparkSession, PreparedGraph.of(canonical))
    val (sc, g)     = (spark.sparkContext, bg.value)
    val (sketch, estimate): ((SeqGraph, Int) => Array[Long], (Array[Long], Array[Long]) => Double) = measure match {
      case Similarity.Cosine  => (SimHash.sketch(_, _, k, seed), SimHash.estimate(_, _, k))
      case Similarity.Jaccard => (MinHashOPH.sketch(_, _, k, seed), MinHashOPH.estimate)
    }
    val sketches = new Array[Array[Long]](g.n)
    stripes(sc, bg) { (g, v) =>
      if (g.degree(v) > t && g.adj(v).exists(g.degree(_) > t)) Iterator.single(v -> sketch(g, v)) else Iterator.empty
    }.collect().foreach { case (v, s) => sketches(v) = s }
    val (bsk, bn) = (sc.broadcast(sketches), sc.broadcast(SeqScanIndex.normSquares(g, measure == Similarity.Jaccard)))
    val (sims, p) = (new Array[Double](g.numEdges.toInt), sc.defaultParallelism)
    sc.parallelize(0 until p, p).map { i =>
      val (g, sk, es, ss) = (bg.value, bsk.value, new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble)
      for (u <- i until g.n by p; slot <- upper(g, u)) {
        val v = g.adj(u)(slot)
        es += g.eids(u)(slot)
        ss += (if (sk(u) != null && sk(v) != null) estimate(sk(u), sk(v)) else SeqScanIndex.edgeSim(g, measure, bn.value, u, slot))
      }
      (es.result(), ss.result())
    }.collect().foreach { case (es, ss) => for (j <- es.indices) sims(es(j)) = ss(j) }
    new EdgeSims(spark, bg, sc.broadcast(sims))
  }

  /** Given (src, dst, sim) for every edge, e.g. approximate ones: collect
    * the similarities by edge id of the prepared graph.
    */
  def collect(canonical: DataFrame, simsDf: DataFrame): EdgeSims = {
    val (spark, bg) = (canonical.sparkSession, PreparedGraph.of(canonical))
    val g = bg.value
    val (sims, seen) = (new Array[Double](g.numEdges.toInt), new java.util.BitSet)
    simsDf.select("src", "dst", "sim").collect().foreach { r =>
      val e = eidOf(g, r.getLong(0), r.getLong(1))
      require(!seen.get(e), s"similarities: (${r.getLong(0)}, ${r.getLong(1)}) repeats")
      seen.set(e); sims(e) = r.getDouble(2)
    }
    require(seen.cardinality == sims.length, "similarities: some edge has no similarity")
    new EdgeSims(spark, bg, spark.sparkContext.broadcast(sims))
  }

  private def eidOf(g: SeqGraph, src: Long, dst: Long): Int = {
    val e = g.eidOf(g.idOf(src), g.idOf(dst))
    require(e >= 0, s"similarities: ($src, $dst) is not an edge")
    e
  }

  /** u's adjacency slots that hold its canonical edges {u, v > u}. */
  private def upper(g: SeqGraph, u: Int): Iterator[Int] = g.adj(u).indices.iterator.filter(g.adj(u)(_) > u)

  /** One task per vertex stripe v ≡ i (mod p), p = defaultParallelism. */
  private def stripes[T: ClassTag](sc: SparkContext, bg: Broadcast[SeqGraph])(f: (SeqGraph, Int) => Iterator[T]): RDD[T] = {
    val p = sc.defaultParallelism
    sc.parallelize(0 until p, p).flatMap(i => Iterator.range(i, bg.value.n, p).flatMap(f(bg.value, _)))
  }

  /** The rows f gives for 0 until n, task i over x ≡ i (mod p) as in
    * `stripes`. A Dataset serializes f only when an action runs, so a view
    * of a released index can still be defined.
    */
  private[core] def rows(spark: SparkSession, n: Int, schema: String)(f: Int => Iterator[Row]): DataFrame = {
    val p = spark.sparkContext.defaultParallelism
    spark.range(0, p, 1, p).flatMap((i: java.lang.Long) => Iterator.range(i.toInt, n, p).flatMap(f))(Encoders.row(StructType.fromDDL(schema)))
  }
}
