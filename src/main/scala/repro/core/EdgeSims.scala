package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import repro.approx.{MinHashOPH, SimHash}
import repro.baseline.{SeqGraph, SeqScanIndex}
import scala.collection.mutable

/** Per-edge similarities by `SeqGraph.eids`, kept on the driver beside
  * their prepared graph (`PreparedGraph`) and, like it, broadcast only
  * when a stripe task reads them (`Shipped`). `phases` records how each
  * stripe phase of the computation ran (`Stripes`).
  */
final class EdgeSims private (
    val spark: SparkSession,
    val graph: Shipped[SeqGraph],
    private[core] val byEdge: Shipped[Array[Double]],
    val phases: Seq[Stripes.Phase]) {

  /** (src, dst, sim) in canonical orientation: a local relation built on
    * the driver from the by-edge array, so reading it runs no job and
    * ships nothing.
    */
  def similarities: DataFrame = {
    val (g, sims) = (graph.value, byEdge.value) // a released index is refused here
    ScanQuery.local(spark, "src LONG, dst LONG, sim DOUBLE", Array.range(0, g.n).flatMap { u =>
      EdgeSims.upper(g, u).map(k => Row(g.ids(u), g.ids(g.adj(u)(k)), sims(g.eids(u)(k))))
    })
  }
}

object EdgeSims {

  /** Exact similarities: run the merge kernel over the prepared graph as a
    * stripe phase (`Stripes`) bounded by its merge lengths
    * (`SeqScanIndex.mergeWork`), and add the stripes' triangle sums in
    * stripe order.
    */
  def exact(canonical: DataFrame, measure: Similarity.Measure): EdgeSims = {
    val (spark, bg) = (canonical.sparkSession, PreparedGraph.of(canonical))
    val (sc, g)     = (spark.sparkContext, bg.value)
    val (m, p)      = (g.numEdges.toInt, sc.defaultParallelism)
    val phase       = Stripes.phase("triangles", SeqScanIndex.mergeWork(g), Stripes.TriangleGrain)
    if (!phase.inline) requireTriangleSumFits(p, m, Runtime.getRuntime.maxMemory)
    val tri = Stripes.run(sc, phase, p) { (i, p) =>
      val t = new Array[Double](m)
      SeqScanIndex.mergeStripe(bg.value, measure, t, i, p)
      t
    }.reduceLeft((a, b) => { for (e <- 0 until m) a(e) += b(e); a })
    new EdgeSims(spark, bg, new Shipped(sc, "the similarities", SeqScanIndex.simsByEdge(g, measure, tri)), Seq(phase))
  }

  /** `exact` in tasks holds the p stripes' triangle arrays on the driver,
    * to sum them in stripe order (deterministic weighted sums): p·m·8
    * bytes, at most a quarter of the driver's max heap.
    */
  private[core] def requireTriangleSumFits(p: Int, m: Long, maxHeap: Long): Unit = {
    val bytes = p * m * 8
    require(bytes <= maxHeap / 4,
      s"exact similarities: $p stripes × $m edges × 8 B = $bytes B of triangle sums exceed a quarter of the driver's max heap ($maxHeap B)")
  }

  /** LSH similarities (§5) on the edges whose endpoints both have degree
    * above the §6.3 threshold t (`threshold`), exact ones elsewhere, over
    * the prepared graph in two stripe phases (`Stripes`):
    *
    * 1. "sketch": sketch each vertex above t that has a neighbor above t —
    *    SimHash for cosine, one-permutation MinHash for Jaccard; the bound
    *    is k·(deg + 1) per sketched vertex. Each sketch is smaller than its
    *    vertex's adjacency, as t ≥ k;
    * 2. "estimate": give each edge with two sketched endpoints its
    *    estimate, and every other edge its exact value by the per-edge
    *    merge (`SeqScanIndex.edgeSim`); the bound is k per estimate and
    *    deg(u) + deg(v) per merge. Each stripe returns its edge ids and
    *    similarities as two primitive arrays.
    */
  def approx(canonical: DataFrame, measure: Similarity.Measure, k: Int, seed: Long): EdgeSims = {
    val (spark, bg) = (canonical.sparkSession, PreparedGraph.of(canonical))
    val (sc, g, p)  = (spark.sparkContext, bg.value, spark.sparkContext.defaultParallelism)
    val t           = threshold(measure, k)
    val (sketch, estimate): ((SeqGraph, Int) => Array[Long], (Array[Long], Array[Long]) => Double) = measure match {
      case Similarity.Cosine  => (SimHash.sketch(_, _, k, seed), SimHash.estimate(_, _, k))
      case Similarity.Jaccard => (MinHashOPH.sketch(_, _, k, seed), MinHashOPH.estimate)
    }
    val sketchPhase = Stripes.phase("sketch",
      (0 until g.n).iterator.filter(sketched(g, t, _)).map(v => k.toLong * (g.degree(v) + 1)).sum, Stripes.SketchGrain)
    val sketches = new Array[Array[Long]](g.n)
    Stripes.run(sc, sketchPhase, p) { (i, p) =>
      val g = bg.value
      Iterator.range(i, g.n, p).filter(sketched(g, t, _)).map(v => v -> sketch(g, v)).toArray
    }.foreach(_.foreach { case (v, s) => sketches(v) = s })
    val estimatePhase = Stripes.phase("estimate",
      (0 until g.n).iterator.flatMap(u => upper(g, u).map { slot =>
        val v = g.adj(u)(slot)
        if (sketches(u) != null && sketches(v) != null) k.toLong else g.degree(u).toLong + g.degree(v)
      }).sum, Stripes.EstimateGrain)
    val (bsk, sims) = (new Shipped(sc, "the sketches", sketches), new Array[Double](g.numEdges.toInt))
    Stripes.run(sc, estimatePhase, p) { (i, p) =>
      val (g, sk, es, ss) = (bg.value, bsk.value, new mutable.ArrayBuilder.ofInt, new mutable.ArrayBuilder.ofDouble)
      for (u <- i until g.n by p; slot <- upper(g, u)) {
        val v = g.adj(u)(slot)
        es += g.eids(u)(slot)
        ss += (if (sk(u) != null && sk(v) != null) estimate(sk(u), sk(v)) else SeqScanIndex.edgeSim(g, measure, u, slot))
      }
      (es.result(), ss.result())
    }.foreach { case (es, ss) => for (j <- es.indices) sims(es(j)) = ss(j) }
    bsk.release()
    new EdgeSims(spark, bg, new Shipped(sc, "the similarities", sims), Seq(sketchPhase, estimatePhase))
  }

  /** The §6.3 degree threshold t for k samples. */
  private def threshold(measure: Similarity.Measure, k: Int): Long = measure match {
    case Similarity.Cosine  => k.toLong
    case Similarity.Jaccard => 3L * k / 2
  }

  /** Given (src, dst, sim) for every edge, e.g. approximate ones: collect
    * the similarities by edge id of the prepared graph. A similarity that
    * is NaN or infinite is refused, naming its edge: NO would sort a NaN
    * first and hide every ε-neighbor behind it.
    */
  def collect(canonical: DataFrame, simsDf: DataFrame): EdgeSims = {
    val (spark, bg) = (canonical.sparkSession, PreparedGraph.of(canonical))
    val g = bg.value
    val (sims, seen) = (new Array[Double](g.numEdges.toInt), new java.util.BitSet)
    simsDf.select("src", "dst", "sim").collect().foreach { r =>
      val (src, dst, sim) = (r.getLong(0), r.getLong(1), r.getDouble(2))
      val e = eidOf(g, src, dst)
      require(!seen.get(e), s"similarities: ($src, $dst) repeats")
      require(java.lang.Double.isFinite(sim), s"similarities: edge ($src, $dst) has similarity $sim; similarities must be finite")
      seen.set(e); sims(e) = sim
    }
    require(seen.cardinality == sims.length, "similarities: some edge has no similarity")
    new EdgeSims(spark, bg, new Shipped(spark.sparkContext, "the similarities", sims), Seq.empty)
  }

  private def eidOf(g: SeqGraph, src: Long, dst: Long): Int = {
    val e = g.eidOf(g.idOf(src), g.idOf(dst))
    require(e >= 0, s"similarities: ($src, $dst) is not an edge")
    e
  }

  /** u's adjacency slots that hold its canonical edges {u, v > u}. */
  private def upper(g: SeqGraph, u: Int): Iterator[Int] = g.adj(u).indices.iterator.filter(g.adj(u)(_) > u)

  /** §6.3: v is sketched if its degree and a neighbor's are above t. */
  private def sketched(g: SeqGraph, t: Long, v: Int): Boolean = g.degree(v) > t && g.adj(v).exists(g.degree(_) > t)
}
