package repro.core

import java.util.concurrent.{ConcurrentHashMap, Executors}
import org.apache.spark.sql.DataFrame
import org.scalatest.Assertions._
import repro.TestUtil
import repro.approx.ApproxSimilarity
import repro.baseline.{PpScan, SeqGraph, SeqScan, SeqScanIndex}
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.util.{Failure, Try}
import scala.util.control.NonFatal

/** The differential harness: every SCAN implementation over one canonical
  * graph, checked for agreement (DESIGN.md "Correctness strategy"). The
  * references run over the program's CSR, the prepared graph `g`. `index`
  * is the index whose queries are checked.
  */
final class Differential(val canonical: DataFrame, val measure: Similarity.Measure, val index: ScanIndex) {
  import Differential._

  val g: SeqGraph = PreparedGraph.of(canonical).value
  private val weighted = g.wts.exists(_.exists(_ != 1.0))

  /** Bit for bit, but within 1e-9 on a weighted graph, summed in other orders. */
  private val tol = if (weighted) 1e-9 else 0.0

  /** The index's similarities by edge id of `g`, and the GS*-query over them. */
  val (sims, gs) = { val s = byEdge(index.similarities); (s, SeqScanIndex.buildFromSims(g, s)) }

  /** The per-edge merge's similarities by edge id, which ppSCAN-like and
    * the approximate index at large k compute; and whether the index's are
    * these, as every index's but an approximate one's that sketched.
    */
  private val exactSims = new Array[Double](g.numEdges.toInt)
  for (u <- 0 until g.n; k <- g.adj(u).indices) exactSims(g.eids(u)(k)) = SeqScanIndex.edgeSim(g, measure, u, k)
  val exact: Boolean = close(sims, exactSims, tol)

  /** Original SCAN's similarities: its own on an exact unweighted index, so
    * that it shares no code with the others; else the index's, so that
    * neither an estimate nor the order of a weighted sum decides a point.
    */
  private val scanSim: (Int, Int) => Double =
    if (exact && !weighted) SeqScan.similarityFn(g, measure) else (u, v) => sims(g.eidOf(u, v))

  /** The points whose references `pointAt` has checked. */
  private val referred = ConcurrentHashMap.newKeySet[(Int, Double)]()

  /** μ ∈ 2 to maxMu + 1 × ε ∈ every distinct similarity (so every tie), 0.3, 0.6, 0.9. */
  def points: Seq[(Int, Double)] =
    for (mu <- 2 to index.maxMu + 1; eps <- (sims ++ Seq(0.3, 0.6, 0.9)).distinct) yield (mu, eps)

  /** Whether the per-edge merge, which sums weights in another order, must
    * decide ε as the index does: no weighted similarity is within 1e-9 of ε.
    */
  private def untied(eps: Double): Boolean = !(weighted && sims.exists(s => math.abs(s - eps) <= 1e-9))

  /** A point a test names must be one where ppSCAN-like is compared. */
  private def named(mu: Int, eps: Double): Unit =
    assert(!exact || untied(eps), s"($mu, $eps): eps lies within 1e-9 of a similarity of this weighted graph, where ppSCAN-like is not compared")

  /** `pointAt` at a point a test names. */
  def checkPoint(mu: Int, eps: Double, paths: Seq[(String, Option[Long])] = TestUtil.stripePaths): Unit = { named(mu, eps); pointAt(mu, eps, paths) }
  def checkPoints(points: Seq[(Int, Double)]): Unit = all(points, pointPool)(p => checkPoint(p._1, p._2))

  /** At (μ, ε), on each of `paths`, the Spark query's clusters and roles are
    * the GS*-query's, and so, once a point, are original SCAN's clusters and,
    * on an exact index where `untied`, ppSCAN-like's.
    */
  private def pointAt(mu: Int, eps: Double, paths: Seq[(String, Option[Long])]): Unit = {
    val (at, want) = (s"($mu, $eps)", gs.cluster(mu, eps))
    if (referred.add((mu, eps))) {
      same(s"original SCAN at $at", SeqScan.clusterWithSims(g, scanSim, mu, eps), want)
      if (exact && untied(eps)) same(s"ppSCAN-like at $at", TestUtil.clustersToMap(PpScan.cluster(canonical, measure, mu, eps)), want)
    }
    for ((path, grain) <- paths) {
      val clusters = TestUtil.cluster(index, mu, eps, grain)
      same(s"Spark clusters at $at$path", TestUtil.clustersToMap(clusters), want)
      same(s"Spark roles at $at$path", TestUtil.rolesToMap(ScanQuery.hubsAndOutliers(canonical, clusters)), gs.hubsAndOutliers(want))
    }
  }

  /** On both build paths, `ScanIndex.build`'s NO and CO are `buildOpt`'s,
    * bit for bit but within 1e-9 for a weighted graph in tasks.
    */
  def checkIndex(): Unit = {
    val opt = SeqScanIndex.buildOpt(g, measure)
    for ((path, grain) <- TestUtil.stripePaths) {
      val idx = TestUtil.onPath(grain)(ScanIndex.build(canonical, measure))
      assert(idx.phases.map(_.name) == Seq("triangles", "orders"))
      assert(idx.phases.forall(_.inline == grain.isEmpty), s"path '$path': ${idx.phases}")
      assertSameIndex(idx, opt, if (grain.nonEmpty) tol else 0.0)
      idx.unpersist()
    }
  }

  /** The approximate index at `k` above every degree, where §6.3 sketches no
    * vertex: its similarities are the per-edge merge's, within `tol`, and on
    * an exact index its clusters are the GS*-query's at the named `points`.
    */
  def checkApprox(k: Int, points: Seq[(Int, Double)]): Unit = {
    points.foreach { case (mu, eps) => named(mu, eps) }
    val approx = ApproxSimilarity.buildIndex(canonical, measure, k, seed = k)
    assert(approx.phases.head == Stripes.Phase("sketch", 0, Stripes.SketchGrain), approx.phases)
    assert(close(byEdge(approx.similarities), exactSims, tol), "approximate similarities")
    if (exact) all(points, pointPool) { case (mu, eps) =>
      same(s"approximate clusters at ($mu, $eps)", TestUtil.clustersToMap(ScanQuery.cluster(approx, mu, eps)), gs.cluster(mu, eps))
    }
    approx.unpersist()
  }

  private def byEdge(simsDf: DataFrame): Array[Double] = {
    val out = new Array[Double](g.numEdges.toInt)
    simsDf.select("src", "dst", "sim").collect().foreach(r => out(g.eidOf(g.idOf(r.getLong(0)), g.idOf(r.getLong(1)))) = r.getDouble(2))
    out
  }
}

object Differential {

  /** The harness over `ScanIndex.build`'s index, which must be exact. */
  def apply(canonical: DataFrame, measure: Similarity.Measure): Differential = {
    val d = new Differential(canonical, measure, ScanIndex.build(canonical, measure))
    assert(d.exact, "ScanIndex.build's similarities are not the per-edge merge's")
    d
  }

  /** Every check over `canonical`: the index arrays, the queries at every
    * point, and the approximate index at k above every degree where `untied`.
    */
  def check(canonical: DataFrame, measure: Similarity.Measure): Unit = {
    val d = apply(canonical, measure)
    d.checkIndex()
    all(d.points, pointPool)(p => d.pointAt(p._1, p._2, TestUtil.stripePaths))
    d.checkApprox(d.g.maxDegree + 1, d.points.filter(p => d.untied(p._2)))
    d.index.unpersist()
  }

  /** `check` on each of `inputs`, four graphs at a time, so that one graph's
    * set-up overlaps another's points; then the first failure, named.
    */
  def checkAll(inputs: Seq[(String, DataFrame, Similarity.Measure)]): Unit =
    all(inputs, graphPool) { case (name, canonical, measure) =>
      try check(canonical, measure) catch { case NonFatal(e) => fail(s"$name: $e", e) }
    }

  /** Daemon threads that inherit no thread-local value, so no point runs
    * under a grain (`Stripes.withGrain`) that it did not set itself: eight
    * for points, which spend most of their time waiting for Spark jobs, and
    * four for the graphs that wait for their points.
    */
  private def daemons(n: Int) = ExecutionContext.fromExecutorService(Executors.newFixedThreadPool(n, r => {
    val t = new Thread(null, r, "differential", 0, false); t.setDaemon(true); t
  }))
  private val (pointPool, graphPool) = (daemons(8), daemons(4))

  /** `f` on each of `xs` on `pool`; then the first failure, once every call
    * has ended, so that no call's Spark jobs outlive the test.
    */
  private def all[A](xs: Seq[A], pool: ExecutionContext)(f: A => Unit): Unit =
    Await.result(Future.traverse(xs)(x => Future(Try(f(x)))(pool))(implicitly, pool), Duration.Inf)
      .collectFirst { case Failure(e) => throw e }

  private def same[A](what: String, got: Map[Long, A], want: Map[Long, A]): Unit =
    assert(got == want, s"$what: only here ${(got.toSet -- want.toSet).take(5)}, only in the GS*-query ${(want.toSet -- got.toSet).take(5)}")

  /** Equal lengths and values, bit for bit if `tol` is 0. */
  private def close(a: Array[Double], b: Array[Double], tol: Double): Boolean =
    a.length == b.length && a.indices.forall(i => if (tol == 0.0) java.lang.Double.compare(a(i), b(i)) == 0 else math.abs(a(i) - b(i)) <= tol)

  /** NO's and CO's order for a boxed reference sort: similarity descending
    * under `java.lang.Double.compare`, then id ascending.
    */
  private val order: Ordering[(Double, Int)] = Ordering.Tuple2(Ordering.Double.TotalOrdering.reverse, Ordering.Int)

  /** The Spark index's NO and CO equal the sequential index's arrays over
    * the same vertex ids, neighbors exactly and similarities within `tol`,
    * and each list is in `order`.
    */
  def assertSameIndex(idx: ScanIndex, seq: SeqScanIndex, tol: Double): Unit = {
    val (ix, g) = (idx.layout.value, seq.g)
    def check(what: String, v: Array[Int], s: Array[Double], wantV: Array[Int], wantS: Array[Double]): Unit = {
      assert(v.sameElements(wantV) && close(s, wantS, tol), s"$what: ${s.zip(v).mkString(", ")} vs ${wantS.zip(wantV).mkString(", ")}")
      assert(s.toSeq.zip(v).sorted(order) == s.toSeq.zip(v), s"$what out of order")
    }
    assert(idx.graph.value.ids.sameElements(g.ids) && ix.noNbr.length == g.n && ix.noSim.length == g.n)
    for (v <- 0 until g.n) check(s"NO[${g.ids(v)}]", ix.noNbr(v), ix.noSim(v), seq.noNbr(v), seq.noSim(v))
    assert(idx.maxMu == math.max(seq.maxMu, 1) && ix.coVert.take(2).forall(_.isEmpty))
    for (mu <- 2 to seq.maxMu) check(s"CO[$mu]", ix.coVert(mu), ix.coThresh(mu), seq.coVert(mu), seq.coThresh(mu))
  }
}
