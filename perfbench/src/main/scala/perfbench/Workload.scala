package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.approx.ApproxSimilarity
import repro.baseline.{PpScan, SeqGraph, SeqScanIndex}
import repro.core.{ScanIndex, ScanQuery, Similarity}
import repro.graph.GraphGen
import repro.util.Hashing

/** One workload: a generated graph plus the closed-loop sequence of
  * operations the benchmark times on it. Every workload reports the same
  * end-to-end metrics; `op_s` times its primary operation. The paper's
  * sequential comparator for that operation is timed alongside and
  * reported, but not gated: on a shared host its run-to-run spread exceeds
  * any usable bound.
  *
  * Every timed output is checked against the sequential reference
  * (`SeqScanIndex.buildOpt`) before the next operation starts.
  */
abstract class Workload(val spark: SparkSession, val seed: Long, val rec: Recorder, val tracer: Tracer) {

  def graphDescription: String
  protected def generate(): DataFrame
  /** Sequential reference outputs, rebuilt with every data set-up. */
  protected def reference(): Unit
  /** Untimed warm-up and workload-specific preparation, once per run;
    * `traced` if the run will make traced iterations.
    */
  def prepare(traced: Boolean): Unit
  /** One iteration of timed operations (operation ids `i * 100` to `i * 100 + 99`). */
  def step(i: Int): Unit
  /** Iterations a run makes even when they outlast its window. */
  def minIterations: Int = 1
  /** Operations only the traced run makes. */
  def tracedExtras(i: Int): Unit = ()
  /** Algorithm counters of this workload, counted outside the timed calls. */
  def counters: Map[String, Double] = Map.empty

  var edges: DataFrame = _
  var g: SeqGraph = _
  var m = 0L
  def n: Long = if (g == null) 0L else g.n.toLong
  val genS = scala.collection.mutable.ArrayBuffer.empty[Double]
  val collectS = scala.collection.mutable.ArrayBuffer.empty[Double]
  private var postSetupStorage = 0L

  /** Generate and cache the graph, collect the driver-side copy and build
    * the sequential reference. Repeated `Bench.SetupRepeats` times.
    */
  def setupData(): Unit = {
    if (edges != null) edges.unpersist(true)
    genS += Recorder.seconds { edges = generate().cache(); m = edges.count() }
    collectS += Recorder.seconds { g = SeqGraph.fromDataFrame(edges) }
    reference()
    postSetupStorage = storageBytes()
  }

  protected def storageBytes(): Long =
    spark.sparkContext.getRDDStorageInfo.map(i => i.memSize + i.diskSize).sum

  /** Free a built index and return to the post-setup state.
    *
    * `ScanIndex.unpersist` also unpersists `index.edges`, which is the
    * benchmark's cached graph, so the graph is cached again (untimed).
    * Storage must then come back to its post-setup level: a cached frame
    * that leaks from one iteration would speed up the next.
    */
  protected def release(index: ScanIndex, what: String): Unit = {
    index.unpersist()
    edges.cache()
    edges.count()
    val deadline = System.nanoTime() + 10000000000L
    var now = storageBytes()
    while (math.abs(now - postSetupStorage) > postSetupStorage / 100 && System.nanoTime() < deadline) {
      Thread.sleep(20)
      now = storageBytes()
    }
    if (math.abs(now - postSetupStorage) > postSetupStorage / 100)
      rec.fail(s"$what: storage $now B after unpersist, expected $postSetupStorage B")
  }

  /** The exact index: one `ScanIndex.build`, or (`split`, as in traced
    * iterations) its two public halves so each layer gets its own span.
    */
  protected def buildExact(op: Int, split: Boolean = tracer.isEnabled): ScanIndex =
    if (!split) ScanIndex.build(edges, Similarity.Cosine).cache().materialize()
    else {
      val sims = tracer.span("similarity", op) {
        // A cache plus count computes and stores every column; a bare
        // count would let Catalyst prune the dot/norm joins.
        val s = Similarity.similarities(edges, Similarity.Cosine).cache()
        s.count()
        s
      }
      tracer.span("scan_index", op) { ScanIndex.fromSimilarities(edges, sims).cache().materialize() }
    }

  /** Time one exact build, check its similarities against `ref` within
    * `tol`, record the index size and free it.
    */
  protected def timedExactBuild(metric: String, op: Int, ref: Sims, tol: Double, sizeMetric: Boolean): Unit = {
    val before = storageBytes()
    rec.op(metric, s"exact build op $op")(tracer.span("op.build", op)(buildExact(op))).foreach { ix =>
      if (sizeMetric) rec.add("index_mb", (storageBytes() - before) / (1024.0 * 1024.0))
      tracer.span("bench.check", op) {
        rec.verify(Sims.collect(ix.similarities).matches(ref, tol), s"exact build op $op")
        release(ix, s"exact build op $op")
      }
    }
  }

  /** Time the sequential build `SeqScanIndex.buildOpt`, the paper's
    * comparator, three times (it takes a fraction of a Spark build).
    */
  protected def timedSeqBuilds(measure: Similarity.Measure, ref: Sims, op: Int): Unit =
    (1 to 3).foreach { j =>
      rec.op("seq_build_s", s"buildOpt op ${op + j}") {
        tracer.span("baseline.seq_build", op + j)(SeqScanIndex.buildOpt(g, measure))
      }.foreach(ix => rec.verify(Sims.of(ix).matches(ref, 0.0), s"buildOpt op ${op + j}"))
    }

  protected val lshSeed: Long = Hashing.combine(seed, 0x15bL)
}

object Workload {
  /** Untimed builds before the first timed one: after one or two, timed
    * builds still got 20-30% faster over the window as the JIT caught up.
    */
  val WarmUpBuilds = 4

  val Names: Seq[String] = Seq("build-powerlaw", "approx-dense", "query-sweep")

  def apply(name: String, spark: SparkSession, seed: Long, scale: String, rec: Recorder, tracer: Tracer): Workload = {
    val tiny = scale == "tiny"
    name match {
      case "build-powerlaw" =>
        if (tiny) new BuildPowerlaw(spark, seed, rec, tracer, 7, 600) else new BuildPowerlaw(spark, seed, rec, tracer, 12, 40000)
      case "approx-dense" =>
        if (tiny) new ApproxDense(spark, seed, rec, tracer, 60, 800, 8) else new ApproxDense(spark, seed, rec, tracer, 300, 12000, 32)
      case "query-sweep" =>
        if (tiny) new QuerySweep(spark, seed, rec, tracer, 7, 600) else new QuerySweep(spark, seed, rec, tracer, 11, 16000)
    }
  }
}

/** Skewed degrees: degree-directed triangle enumeration and the NO/CO
  * window sorts do almost all the work (`similarity`, `scan_index`).
  * op = Spark exact build; comparator = `SeqScanIndex.buildOpt`, the
  * paper's "ours, 1 thread" (Fig. 5).
  */
final class BuildPowerlaw(spark: SparkSession, seed: Long, rec: Recorder, tracer: Tracer, scale: Int, samples: Long)
    extends Workload(spark, seed, rec, tracer) {
  def graphDescription = s"rmat(scale=$scale,samples=$samples,unweighted)"
  private var ref: Sims = _

  protected def generate(): DataFrame = GraphGen.rmat(spark, scale, samples, seed)
  protected def reference(): Unit = ref = Sims.of(SeqScanIndex.buildOpt(g, Similarity.Cosine))

  /** A traced run also warms the split build its traced iterations make:
    * run cold, it took twice as long as the untraced build.
    */
  def prepare(traced: Boolean): Unit = {
    (1 to Workload.WarmUpBuilds).foreach { _ =>
      release(buildExact(-1, split = false), "warm-up build")
      SeqScanIndex.buildOpt(g, Similarity.Cosine)
    }
    if (traced) (1 to Workload.WarmUpBuilds).foreach(_ => release(buildExact(-1, split = true), "warm-up build"))
  }

  def step(i: Int): Unit = {
    timedExactBuild("op_s", i * 100, ref, tol = 0.0, sizeMetric = true)
    timedSeqBuilds(Similarity.Cosine, ref, i * 100)
  }
}

/** Uniform high degree, far above k: the §6.3 sketch path dominates
  * `approx`. op = a SimHash (weighted cosine) approximate index build;
  * comparator = the exact sequential build. The traced run adds a MinHash build and
  * the Spark exact build, whose `similarity` counters on this dense graph
  * show changes tuned for skew that cost dense graphs.
  */
final class ApproxDense(spark: SparkSession, seed: Long, rec: Recorder, tracer: Tracer, vertices: Long, samples: Long, k: Int)
    extends Workload(spark, seed, rec, tracer) {
  def graphDescription = s"denseWeighted(n=$vertices,samples=$samples),k=$k"
  private var refCos: Sims = _
  private var refJac: Sims = _

  protected def generate(): DataFrame = GraphGen.denseWeighted(spark, vertices, samples, seed)
  protected def reference(): Unit = {
    refCos = Sims.of(SeqScanIndex.buildOpt(g, Similarity.Cosine))
    refJac = Sims.of(SeqScanIndex.buildOpt(g, Similarity.Jaccard))
  }

  /** A traced run also warms the builds only it makes. */
  def prepare(traced: Boolean): Unit = {
    (1 to Workload.WarmUpBuilds).foreach { _ =>
      release(approxBuild(Similarity.Cosine), "warm-up approximate build")
      SeqScanIndex.buildOpt(g, Similarity.Cosine)
    }
    if (traced) (1 to Workload.WarmUpBuilds).foreach { _ =>
      release(approxBuild(Similarity.Jaccard), "warm-up approximate build")
      release(buildExact(-1, split = true), "warm-up build")
    }
  }

  private def approxBuild(measure: Similarity.Measure): ScanIndex =
    ApproxSimilarity.buildIndex(edges, measure, k, lshSeed).cache().materialize()

  /** Time one approximate build, check it covers every edge with a value
    * in [-1, 1], record its error against the exact similarities, free it.
    */
  private def timedApproxBuild(metric: String, kind: String, measure: Similarity.Measure, ref: Sims, op: Int): Unit = {
    val before = storageBytes()
    rec.op(metric, s"$kind build op $op")(tracer.span(s"approx.$kind", op)(approxBuild(measure))).foreach { ix =>
      if (metric == "op_s") rec.add("index_mb", (storageBytes() - before) / (1024.0 * 1024.0))
      tracer.span("bench.check", op) {
        val got = Sims.collect(ix.similarities)
        val ok = got.sameEdges(ref) && got.sim.forall(s => s >= -1.0 && s <= 1.0)
        rec.verify(ok, s"$kind build op $op")
        if (ok) rec.add(s"${kind}_mae", got.meanAbsError(ref))
        release(ix, s"$kind build op $op")
      }
    }
  }

  def step(i: Int): Unit = {
    timedApproxBuild("op_s", "simhash", Similarity.Cosine, refCos, i * 100)
    timedSeqBuilds(Similarity.Cosine, refCos, i * 100)
  }

  /** Once per traced run: MinHash (Jaccard, which ignores the weights) and
    * the Spark exact build, whose weighted similarities must agree with the
    * sequential ones within 1e-9.
    */
  override def tracedExtras(i: Int): Unit = {
    timedApproxBuild("minhash_s", "minhash", Similarity.Jaccard, refJac, i * 100)
    timedExactBuild("exact_build_s", i * 100 + 10, refCos, tol = 1e-9, sizeMetric = false)
  }

  override def counters: Map[String, Double] = {
    // §6.3: an edge is sketched only if both endpoint degrees exceed t
    // (t = k for SimHash); every other edge falls back to the exact value.
    val sketched = (0 until g.n).iterator.map { u =>
      if (g.degree(u) <= k) 0L else g.adj(u).count(v => v > u && g.degree(v) > k).toLong
    }.sum.toDouble
    Map(
      "approx.approx_edges" -> sketched,
      "approx.fallback_edges" -> (m - sketched),
      "approx.approx_share" -> (if (m == 0) 0.0 else sketched / m))
  }
}

/** Build layers idle: `query`, `connectivity` and Spark job scheduling
  * dominate. The timed (μ, ε) points span outputs from O(m) down to empty,
  * so the paper's "cost falls with output" shape (Theorem 4.3) shows in
  * the trace. op = one pass of index queries (`ScanQuery.cluster` then
  * `hubsAndOutliers`, both collected), reported as its mean query time;
  * comparator = the sequential GS*-Index query at the same (μ, ε).
  */
final class QuerySweep(spark: SparkSession, seed: Long, rec: Recorder, tracer: Tracer, scale: Int, samples: Long)
    extends Workload(spark, seed, rec, tracer) {
  def graphDescription = s"rmat(scale=$scale,samples=$samples,unweighted)"
  private var seqIx: SeqScanIndex = _
  private var index: ScanIndex = _

  /** The timed points: the four corners of the grid μ ∈ {2, 5, 16} ×
    * ε ∈ {0.2, 0.5, 0.8}. On this graph they have about 1200, 220, 12
    * and 0 cores, so the pass spans outputs from O(m) down to empty. One
    * pass over all nine points takes longer than a run can spend (an index
    * query costs 1–2.5 s on 4 cores), and three of the other five points
    * are empty too. Every iteration is one whole pass, so every run times
    * the same queries however many passes fit in its window.
    */
  val points: Seq[(Int, Double)] = Seq((2, 0.2), (16, 0.2), (2, 0.8), (16, 0.8))

  protected def generate(): DataFrame = GraphGen.rmat(spark, scale, samples, seed)
  protected def reference(): Unit = seqIx = SeqScanIndex.buildOpt(g, Similarity.Cosine)

  def prepare(traced: Boolean): Unit = {
    val before = storageBytes()
    index = ScanIndex.build(edges, Similarity.Cosine).cache().materialize()
    rec.add("index_mb", (storageBytes() - before) / (1024.0 * 1024.0))
    rec.attempted += 1
    rec.verify(Sims.collect(index.similarities).matches(Sims.of(seqIx), 0.0), "query-sweep index build")
    // Warm up with one untimed pass: after a single warm-up query the
    // first timed pass still ran 20-40% slower than the second.
    points.foreach { case (mu, eps) => query(mu, eps, -1) }
    seqQuery(2, 0.2)
  }

  private def seqQuery(mu: Int, eps: Double): (Map[Long, Long], Map[Long, String]) = {
    val c = seqIx.cluster(mu, eps)
    (c, seqIx.hubsAndOutliers(c))
  }

  /** One index query, both outputs collected. The spans cost nothing
    * when tracing is off.
    */
  private def query(mu: Int, eps: Double, op: Int): (Map[Long, Long], Map[Long, String]) = {
    val (cl, clusters) = tracer.span("query.cluster", op) {
      // The call itself runs only the union-find's two driver collects
      // (cores, core-core ε-edges); everything after it is lazy.
      val cl = tracer.span("connectivity", op)(ScanQuery.cluster(index, mu, eps))
      (cl, cl.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap)
    }
    val roles = tracer.span("query.roles", op) {
      ScanQuery.hubsAndOutliers(edges, cl).collect().map(r => r.getLong(0) -> r.getString(1)).toMap
    }
    (clusters, roles)
  }

  /** One pass: `op_s` is its mean query time, so every point weighs in
    * (a median over four distinct points would follow only the middle
    * two). Each query's own time goes to `query_s`.
    */
  /** A pass takes about as long as the window; two passes keep a slow
    * first pass from being a run's only sample.
    */
  override def minIterations: Int = 2

  def step(i: Int): Unit = {
    val times = points.zipWithIndex.flatMap { case (point, j) => timedQuery(point, i * 100 + 10 * j) }
    if (times.size == points.size) rec.add("op_s", times.sum / times.size)
  }

  /** Time one index query and check it against the sequential query;
    * returns its time if it ran.
    */
  private def timedQuery(point: (Int, Double), op: Int): Option[Double] = {
    val (mu, eps) = point
    // GetCores on its own, for the query layer's trace only: the timed
    // query runs it inside `cluster`.
    if (tracer.isEnabled) tracer.span("query.cores", op)(ScanQuery.cores(index, mu, eps).collect())
    val got = rec.timed("query_s", s"query ($mu, $eps) op $op")(tracer.span("op.query", op)(query(mu, eps, op)))
    // The sequential query takes about a millisecond: five repetitions.
    var want: Option[(Map[Long, Long], Map[Long, String])] = None
    (1 to 5).foreach { _ =>
      want = rec.op("seq_query_s", s"seq query ($mu, $eps) op ${op + 1}") {
        tracer.span("baseline.seq_query", op + 1)(seqQuery(mu, eps))
      }
    }
    for ((gw, _) <- got; ww <- want) rec.verify(gw == ww, s"query ($mu, $eps) op $op")
    // Output size of the point (Theorem 4.3), counted outside the timed call.
    val cores = seqIx.cores(mu, eps)
    rec.add("query.core_count", cores.length.toDouble)
    rec.add("query.eps_edges", cores.iterator.map(v => seqIx.noSim(v).count(_ >= eps).toLong).sum.toDouble)
    got.foreach { case ((clusters, _), _) => rec.add("query.output_rows", clusters.size.toDouble) }
    got.map(_._2)
  }

  /** ppSCAN-like recomputes similarities on every query (§7.3): once per
    * traced run, at (5, 0.2), checked against the sequential query. The
    * usual (5, 0.5) has no cores on this graph, which would make the check
    * compare two empty outputs.
    */
  override def tracedExtras(i: Int): Unit = {
    val op = i * 100
    rec.op("ppscan_s", s"ppscan op $op") {
      tracer.span("baseline.ppscan", op) {
        PpScan.cluster(edges, Similarity.Cosine, 5, 0.2).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
      }
    }.foreach(c => rec.verify(c == seqIx.cluster(5, 0.2), s"ppscan op $op"))
  }
}

/** Per-edge similarities (src < dst), sorted by edge. */
final class Sims(val src: Array[Long], val dst: Array[Long], val sim: Array[Double]) {
  def sameEdges(o: Sims): Boolean =
    java.util.Arrays.equals(src, o.src) && java.util.Arrays.equals(dst, o.dst)

  /** Same edges and every similarity within `tol` (0 = bit-identical). */
  def matches(o: Sims, tol: Double): Boolean =
    sameEdges(o) && sim.indices.forall { i =>
      if (tol == 0.0) java.lang.Double.compare(sim(i), o.sim(i)) == 0 else math.abs(sim(i) - o.sim(i)) <= tol
    }

  def meanAbsError(o: Sims): Double =
    if (sim.isEmpty) 0.0 else sim.indices.iterator.map(i => math.abs(sim(i) - o.sim(i))).sum / sim.length
}

object Sims {
  private def sorted(rows: Array[(Long, Long, Double)]): Sims = {
    val s = rows.sortBy(r => (r._1, r._2))
    new Sims(s.map(_._1), s.map(_._2), s.map(_._3))
  }

  def collect(df: DataFrame): Sims =
    sorted(df.select("src", "dst", "sim").collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))))

  def of(ix: SeqScanIndex): Sims = {
    val g = ix.g
    sorted((0 until g.n).iterator.flatMap { v =>
      ix.noNbr(v).indices.iterator.collect {
        case i if g.ids(v) < g.ids(ix.noNbr(v)(i)) => (g.ids(v), g.ids(ix.noNbr(v)(i)), ix.noSim(v)(i))
      }
    }.toArray)
  }
}
