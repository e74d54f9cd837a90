package perfbench

import java.util.concurrent.ConcurrentHashMap
import org.apache.spark.SparkContext
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call from the benchmark into a layer. Spans of one benchmark
  * operation share `op`; `parent` is the enclosing span (-1 at the top).
  */
final case class Span(id: Int, name: String, parent: Int, op: Int, startNs: Long, endNs: Long) {
  def wallS: Double = (endNs - startNs) / 1e9
}

/** Spark task counters summed over the tasks of one (span, stage) pair. */
final class StageCounters {
  var tasks = 0L
  var busyMs = 0L
  var gcMs = 0L
  var shuffleWriteB = 0L
  var shuffleReadB = 0L
  var spillB = 0L
  var resultB = 0L
  val taskMs = mutable.ArrayBuffer.empty[Long]
}

/** Counters attributed to one span, as reported per layer. */
final case class SpanCounters(
    jobs: Long,
    stages: Long,
    tasks: Long,
    busyS: Double,
    gcS: Double,
    shuffleWriteMb: Double,
    shuffleReadMb: Double,
    spillMb: Double,
    driverResultMb: Double,
    taskSkew: Double)

/** Spans around the benchmark's calls into each layer, plus a SparkListener
  * that attributes Spark work to them.
  *
  * Attribution goes through a thread-local Spark property: `span` sets it
  * on the calling thread before the call, so every job the call submits
  * carries the id of the innermost open span (adaptive execution, when
  * on, copies local properties to the threads that submit its stages).
  * The listener bus delivers events asynchronously, so the property — not
  * the time an event arrives — decides which span a task belongs to.
  *
  * Until `start` no listener is registered and `span` only runs its body:
  * that is the untraced mode the end-to-end metrics come from.
  */
final class Tracer(sc: SparkContext) extends SparkListener {
  private val PropKey = "perfbench.span"
  private var enabled = false
  private val spans = mutable.ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil
  private var nextId = 0

  // Written on the listener-bus thread, read after `drain`.
  private val stageSpan = new ConcurrentHashMap[Int, Int]()
  private val jobsBySpan = new ConcurrentHashMap[Int, Long]()
  private val stagesBySpan = new ConcurrentHashMap[Int, Long]()
  private val counters = new ConcurrentHashMap[(Int, Int), StageCounters]()
  @volatile private var unattributedTasks = 0L

  def start(): Unit = if (!enabled) { sc.addSparkListener(this); enabled = true }

  def stop(): Unit = if (enabled) {
    drain()
    sc.removeSparkListener(this)
    sc.setLocalProperty(PropKey, null)
    enabled = false
  }

  def isEnabled: Boolean = enabled

  /** Run `f` inside a span named `name` belonging to operation `op`. */
  def span[A](name: String, op: Int)(f: => A): A =
    if (!enabled) f
    else {
      val id = nextId; nextId += 1
      val parent = open.headOption.getOrElse(-1)
      open = id :: open
      sc.setLocalProperty(PropKey, id.toString)
      val t0 = System.nanoTime()
      try f
      finally {
        spans += Span(id, name, parent, op, t0, System.nanoTime())
        open = open.tail
        sc.setLocalProperty(PropKey, open.headOption.map(_.toString).orNull)
      }
    }

  /** Wait until the listener has seen every event posted so far. */
  def drain(): Unit = org.apache.spark.perfbench.ListenerBusAccess.waitUntilEmpty(sc)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val id = Option(e.properties).flatMap(p => Option(p.getProperty(PropKey))).map(_.toInt).getOrElse(-1)
    e.stageInfos.foreach(s => stageSpan.put(s.stageId, id))
    jobsBySpan.merge(id, 1L, (a: Long, b: Long) => a + b)
    stagesBySpan.merge(id, e.stageInfos.size.toLong, (a: Long, b: Long) => a + b)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val id = stageSpan.getOrDefault(e.stageId, -1)
    if (id < 0) unattributedTasks += 1
    val c = counters.computeIfAbsent((id, e.stageId), _ => new StageCounters)
    val m = e.taskMetrics
    c.synchronized {
      c.tasks += 1
      c.taskMs += e.taskInfo.duration
      if (m != null) {
        c.busyMs += m.executorRunTime
        c.gcMs += m.jvmGCTime
        c.shuffleWriteB += m.shuffleWriteMetrics.bytesWritten
        c.shuffleReadB += m.shuffleReadMetrics.totalBytesRead
        c.spillB += m.memoryBytesSpilled + m.diskBytesSpilled
        c.resultB += m.resultSize
      }
    }
  }

  def allSpans: Seq[Span] = spans.toSeq

  def unattributed: Long = unattributedTasks

  /** Counters of the jobs submitted while `spanId` was the innermost span. */
  def countersOf(spanId: Int): SpanCounters = {
    val stages = counters.asScala.collect { case ((sid, _), c) if sid == spanId => c }.toSeq
    val mb = 1024.0 * 1024.0
    // Skew of the stage that kept executors busiest: a straggler there is
    // what stretches the span.
    val skew = stages.filter(_.taskMs.nonEmpty).sortBy(-_.busyMs).headOption.map { c =>
      val sorted = c.taskMs.sorted
      sorted.last.toDouble / math.max(1L, sorted(sorted.length / 2)).toDouble
    }.getOrElse(0.0)
    SpanCounters(
      jobs = jobsBySpan.getOrDefault(spanId, 0L),
      stages = stagesBySpan.getOrDefault(spanId, 0L),
      tasks = stages.map(_.tasks).sum,
      busyS = stages.map(_.busyMs).sum / 1e3,
      gcS = stages.map(_.gcMs).sum / 1e3,
      shuffleWriteMb = stages.map(_.shuffleWriteB).sum / mb,
      shuffleReadMb = stages.map(_.shuffleReadB).sum / mb,
      spillMb = stages.map(_.spillB).sum / mb,
      driverResultMb = stages.map(_.resultB).sum / mb,
      taskSkew = skew)
  }
}
