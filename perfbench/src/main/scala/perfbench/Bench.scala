package perfbench

import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession
import scala.collection.mutable
import scala.util.control.NonFatal

/** Entry point: one process runs one workload as a closed loop with a single
  * client (the driver thread issues the next operation only after the
  * previous one returned), then prints a report whose last line is the JSON
  * result.
  *
  * Usage: Bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *              [--scale full|tiny] [--out <dir>] [--commit <id>]
  */
object Bench {

  final case class Config(
      workload: String,
      seed: Long,
      seconds: Double,
      trace: Boolean,
      scale: String,
      outDir: String,
      commit: String)

  /** Data set-up (graph generation, caching, sequential reference) is
    * repeated this many times and its median enters `setup_s`.
    */
  val SetupRepeats = 3

  /** End-to-end metrics, reported by every workload with tracing off. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s"   -> "s",
    "op_s"      -> "s",
    "index_mb"  -> "MB",
  )

  def main(argv: Array[String]): Unit = {
    val jvmStartMs = ManagementFactory.getRuntimeMXBean.getStartTime
    val cfg = parse(argv)
    Files.createDirectories(Paths.get(cfg.outDir))
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("perfbench")
      // One shuffle partition per core, and broadcast joins off so the
      // shuffle joins that large graphs need are the ones measured.
      .config("spark.sql.shuffle.partitions", cores.toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      // On graphs this small an operation is mostly driver work, so the
      // session drops driver work that is not the program's (README,
      // "Spark session"): adaptive re-planning of every query stage, plan
      // strings of unbounded length for listener events, and a generated
      // code cache too small to hold one iteration's classes.
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.maxPlanStringLength", "1024")
      .config("spark.sql.ui.explainMode", "simple")
      .config("spark.sql.codegen.cache.maxEntries", "5000")
      .config("spark.ui.enabled", "false")
      .config("spark.local.dir", Paths.get(cfg.outDir, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(cfg.outDir, "warehouse").toAbsolutePath.toString)
      .getOrCreate()
    val code =
      try run(cfg, spark, jvmStartMs)
      finally spark.stop()
    sys.exit(code)
  }

  private def run(cfg: Config, spark: SparkSession, jvmStartMs: Long): Int = {
    val sessionS = (System.currentTimeMillis() - jvmStartMs) / 1e3
    val tracer = new Tracer(spark.sparkContext)
    val rec = new Recorder
    val wl = Workload(cfg.workload, spark, cfg.seed, cfg.scale, rec, tracer)

    val dataSetupS = (1 to SetupRepeats).map(_ => Recorder.seconds(wl.setupData()))
    val prepareS = Recorder.seconds(wl.prepare(cfg.trace))
    val setupS = sessionS + Recorder.median(dataSetupS) + prepareS

    // The workload's minimum of iterations, then more until the window is
    // used up. A traced run alternates untraced and traced iterations (the
    // minimum of each), so a JVM that is still warming up speeds up both
    // alike and the run reports its own tracing overhead.
    def traced(on: Boolean)(f: => Unit): Unit =
      if (!on) f
      else {
        tracer.start()
        rec.traced = true
        try f
        finally { tracer.stop(); rec.traced = false }
      }
    val t0 = System.nanoTime()
    def elapsed = (System.nanoTime() - t0) / 1e9
    var i = 0
    while (i < wl.minIterations * (if (cfg.trace) 2 else 1) || elapsed < cfg.seconds) {
      traced(cfg.trace && i % 2 == 1)(wl.step(i))
      i += 1
    }
    if (cfg.trace) traced(on = true)(wl.tracedExtras(1000))
    val measuredS = elapsed

    val context = runContext(cfg, spark, wl)
    val e2e = Map(
      "setup_s"  -> setupS,
      "op_s"     -> rec.median("op_s", traced = false),
      "index_mb" -> rec.median("index_mb", traced = false))
    val layers =
      if (cfg.trace) Layers.metrics(tracer, rec, wl, spark.sparkContext.defaultParallelism)
      else Map.empty[String, Double]

    report(context, rec, e2e, sessionS, dataSetupS, prepareS, measuredS, layers)
    writeResults(cfg, context, rec, e2e, layers, tracer)

    val correct = rec.failed == 0
    val metrics =
      if (cfg.trace) Layers.Units.map { case (n, u) => n -> (layers(n), u) }
      else EndToEnd.map { case (n, u) => n -> (e2e(n), u) }
    println(Json.obj(Seq(
      "correct"   -> Json.bool(correct),
      "attempted" -> rec.attempted.toString,
      "failed"    -> rec.failed.toString,
      "metrics"   -> Json.obj(metrics.map { case (n, (v, u)) =>
        n -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(u)))
      }))))
    0
  }

  private def parse(argv: Array[String]): Config = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val workload = need("workload")
    require(Workload.Names.contains(workload),
      s"unknown workload '$workload'; expected one of ${Workload.Names.mkString(", ")}")
    val scale = kv.getOrElse("scale", "full")
    require(scale == "full" || scale == "tiny", s"--scale must be full or tiny, got '$scale'")
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got '$trace'")
    Config(
      workload = workload,
      seed = need("seed").toLong,
      seconds = need("seconds").toDouble,
      trace = trace == "1",
      scale = scale,
      outDir = kv.getOrElse("out", "perfbench-out"),
      commit = kv.getOrElse("commit", "unknown"))
  }

  private def runContext(cfg: Config, spark: SparkSession, wl: Workload): Seq[(String, String)] = {
    val memKb = scala.util.Try {
      scala.io.Source.fromFile("/proc/meminfo").getLines()
        .find(_.startsWith("MemTotal:")).map(_.split("\\s+")(1).toLong).getOrElse(0L)
    }.getOrElse(0L)
    val conf = spark.conf
    Seq(
      "workload" -> cfg.workload,
      "seed" -> cfg.seed.toString,
      "scale" -> cfg.scale,
      "trace" -> (if (cfg.trace) "1" else "0"),
      "seconds" -> cfg.seconds.toString,
      "commit" -> cfg.commit,
      "nproc" -> Runtime.getRuntime.availableProcessors().toString,
      "mem_total_gb" -> f"${memKb / 1048576.0}%.1f",
      "jvm_max_heap_gb" -> f"${Runtime.getRuntime.maxMemory() / 1073741824.0}%.1f",
      "spark_version" -> spark.version,
      "master" -> spark.sparkContext.master,
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "adaptive" -> conf.get("spark.sql.adaptive.enabled"),
      "graph" -> wl.graphDescription,
      "graph_n" -> wl.n.toString,
      "graph_m" -> wl.m.toString)
  }

  private def report(
      context: Seq[(String, String)],
      rec: Recorder,
      e2e: Map[String, Double],
      sessionS: Double,
      dataSetupS: Seq[Double],
      prepareS: Double,
      measuredS: Double,
      layers: Map[String, Double]): Unit = {
    println("perfbench " + context.map { case (k, v) => s"$k=$v" }.mkString(" "))
    println(f"setup: session ${sessionS}%.3f s + data set-up median ${Recorder.median(dataSetupS)}%.3f s " +
      s"(${dataSetupS.map(s => f"$s%.3f").mkString(", ")}) " + f"+ warm-up/prepare ${prepareS}%.3f s")
    println(f"measured ${measuredS}%.1f s, closed loop, 1 client")
    println("end-to-end (tracing off):")
    EndToEnd.foreach { case (n, u) =>
      val samples = rec.samples(n, traced = false)
      val extra =
        if (n == "setup_s") ""
        else {
          val tail = Recorder.tail(samples).map { case (p, v) => f", p$p%d $v%.4f" }.getOrElse("")
          s" (n=${samples.size}$tail)"
        }
      println(f"  $n%-10s ${e2e(n)}%12.4f $u%s$extra")
    }
    rec.otherSeries.foreach { n =>
      val s = rec.samples(n, traced = false)
      if (s.nonEmpty) println(f"  $n%-22s median ${Recorder.median(s)}%.4f (n=${s.size})")
    }
    val errRate = if (rec.attempted == 0) 0.0 else rec.failed.toDouble / rec.attempted
    println(f"  error_rate ${errRate}%.4f 1 (${rec.failed} failed of ${rec.attempted} attempted)")
    rec.failures.take(10).foreach(f => println(s"  FAILED: $f"))
    if (layers.nonEmpty) {
      println("per-layer (traced half of the run):")
      Layers.Units.foreach { case (n, u) => println(f"  $n%-34s ${layers(n)}%14.4f $u") }
    }
  }

  private def writeResults(
      cfg: Config,
      context: Seq[(String, String)],
      rec: Recorder,
      e2e: Map[String, Double],
      layers: Map[String, Double],
      tracer: Tracer): Unit = {
    val spans = tracer.allSpans.map { s =>
      val c = tracer.countersOf(s.id)
      Json.obj(Seq(
        "id" -> s.id.toString, "name" -> Json.str(s.name), "parent" -> s.parent.toString,
        "op" -> s.op.toString, "start_ns" -> s.startNs.toString, "end_ns" -> s.endNs.toString,
        "jobs" -> c.jobs.toString, "stages" -> c.stages.toString, "tasks" -> c.tasks.toString,
        "busy_s" -> Json.num(c.busyS), "gc_s" -> Json.num(c.gcS),
        "shuffle_write_mb" -> Json.num(c.shuffleWriteMb), "shuffle_read_mb" -> Json.num(c.shuffleReadMb),
        "spill_mb" -> Json.num(c.spillMb), "driver_result_mb" -> Json.num(c.driverResultMb),
        "task_skew" -> Json.num(c.taskSkew)))
    }
    val samples = (EndToEnd.map(_._1).filter(_ != "setup_s") ++ rec.otherSeries).map { n =>
      n -> Json.arr(rec.samples(n, traced = false).map(Json.num))
    }
    val doc = Json.obj(Seq(
      "context" -> Json.obj(context.map { case (k, v) => k -> Json.str(v) }),
      "attempted" -> rec.attempted.toString,
      "failed" -> rec.failed.toString,
      "failures" -> Json.arr(rec.failures.map(Json.str).toSeq),
      "end_to_end" -> Json.obj(e2e.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) }),
      "samples" -> Json.obj(samples),
      "per_layer" -> Json.obj(layers.toSeq.sortBy(_._1).map { case (k, v) => k -> Json.num(v) }),
      "spans" -> Json.arr(spans)))
    val file = Paths.get(cfg.outDir, s"${cfg.workload}-seed${cfg.seed}-trace${if (cfg.trace) 1 else 0}.json")
    Files.write(file, doc.getBytes(StandardCharsets.UTF_8))
  }
}

/** Samples, attempts and failures of one run. An operation that throws or
  * whose output does not match the sequential reference counts as failed;
  * neither aborts the run.
  */
final class Recorder {
  private val series = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[(Double, Boolean)]]
  var attempted = 0L
  var failed = 0L
  val failures = mutable.ArrayBuffer.empty[String]
  var traced = false

  def add(name: String, value: Double): Unit =
    series.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += ((value, traced))

  def samples(name: String, traced: Boolean): Seq[Double] =
    series.get(name).map(_.collect { case (v, t) if t == traced => v }.toSeq).getOrElse(Nil)

  def median(name: String, traced: Boolean): Double = Recorder.median(samples(name, traced))

  def otherSeries: Seq[String] = series.keys.filterNot(Bench.EndToEnd.map(_._1).contains).toSeq

  def fail(what: String): Unit = { failed += 1; failures += what }

  /** Time `f` as one attempted operation recorded under `metric`; returns
    * None (and counts a failure) if it throws.
    */
  def op[A](metric: String, what: => String)(f: => A): Option[A] = timed(metric, what)(f).map(_._1)

  /** As `op`, and also returns the time in seconds. */
  def timed[A](metric: String, what: => String)(f: => A): Option[(A, Double)] = {
    attempted += 1
    try {
      val t0 = System.nanoTime()
      val r = f
      val s = (System.nanoTime() - t0) / 1e9
      add(metric, s)
      Some((r, s))
    } catch {
      case NonFatal(e) =>
        fail(s"$what: ${e.getClass.getSimpleName}: ${e.getMessage}")
        None
    }
  }

  /** Count a failure for an operation whose output did not verify. */
  def verify(ok: Boolean, what: => String): Unit = if (!ok) fail(s"$what: output mismatch")
}

object Recorder {
  def seconds(f: => Unit): Double = { val t0 = System.nanoTime(); f; (System.nanoTime() - t0) / 1e9 }

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) Double.NaN
    else {
      val s = xs.sorted
      val n = s.length
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }

  /** The highest of p90/p99 that has at least ten samples above it. */
  def tail(xs: Seq[Double]): Option[(Int, Double)] = {
    val s = xs.sorted
    Seq(99, 90).find(p => s.length - math.ceil(s.length * p / 100.0).toInt >= 10).map { p =>
      p -> s(math.ceil(s.length * p / 100.0).toInt - 1)
    }
  }
}

/** Just enough JSON writing for the result line and the results file. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case '\n' => "\\n"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""
  def num(d: Double): String = if (d.isNaN || d.isInfinite) "null" else d.toString
  def bool(b: Boolean): String = b.toString
  def obj(kvs: Seq[(String, String)]): String = kvs.map { case (k, v) => str(k) + ": " + v }.mkString("{", ", ", "}")
  def arr(vs: Seq[String]): String = vs.mkString("[", ", ", "]")
}
