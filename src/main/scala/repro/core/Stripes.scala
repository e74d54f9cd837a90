package repro.core

import java.io.ObjectOutputStream
import org.apache.spark.SparkContext
import org.apache.spark.broadcast.Broadcast
import scala.reflect.ClassTag
import scala.util.DynamicVariable

/** Granularity control for every stripe phase of the build and of the
  * index queries, as in GBBS (Dhulipala, Blelloch and Shun, SPAA 2018),
  * whose parallel loops run sequentially below a grain. A phase states its
  * work bound in its kernel's units. Below the phase's grain the driver
  * runs the kernel as its one stripe, f(0, 1): the sequential code, no
  * job. Otherwise one Spark job runs the p stripes f(i, p), i < p.
  *
  * Each grain is the warm cost of an empty 4-task job, 22 ms, over the
  * kernel's median time per unit of its bound on the bench graphs, both
  * measured on a 4-core VM (DESIGN.md, "Granularity control").
  */
object Stripes {

  /** A phase's record: its name, its work bound and the grain it was held
    * against. It ran on the driver iff `inline`.
    */
  final case class Phase(name: String, work: Long, grain: Long) {
    def inline: Boolean = work < grain
    override def toString: String = s"$name ${if (inline) "inline" else "tasks"}"
  }

  /** The triangle kernel (`SeqScanIndex.mergeStripe`), 9.66 ns per merge
    * step of its bound (`SeqScanIndex.mergeWork`).
    */
  val TriangleGrain = 2280000L

  /** The orders kernel (`SeqScanIndex.orders` and `layout`), 234 ns per NO
    * entry (2m).
    */
  val OrdersGrain = 94000L

  /** The LSH sketch pass, 50.2 ns per hash draw: k·(deg + 1) per sketched
    * vertex.
    */
  val SketchGrain = 438000L

  /** The estimate pass, 3.71 ns per unit: deg(u) + deg(v) for an exact
    * edge, k for an estimated one.
    */
  val EstimateGrain = 5930000L

  /** The cluster kernel (`IndexLayout.clusterStripe`), 169 ns per entry of
    * its cores' ε-prefixes of NO (`IndexLayout.epsPrefixes`).
    */
  val ClusterGrain = 130000L

  /** A grain that replaces every phase's own, set only by `withGrain`. */
  private val forced = new DynamicVariable[Option[Long]](None)

  /** The record of phase `name`, whose bound is `work`, against `grain`. */
  def phase(name: String, work: Long, grain: Long): Phase = Phase(name, work, forced.value.getOrElse(grain))

  /** `body` with every phase held against `grain`, e.g. 0 to run each one
    * in Spark tasks.
    */
  private[repro] def withGrain[A](grain: Long)(body: => A): A = forced.withValue(Some(grain))(body)

  /** f(0, 1) on the driver if `phase` is inline, else `tasks`. */
  private[repro] def run[T: ClassTag](sc: SparkContext, phase: Phase, p: Int)(f: (Int, Int) => T): Seq[T] =
    if (phase.inline) Seq(f(0, 1)) else tasks(sc, p)(f)

  /** f(0, p), ..., f(p − 1, p) in one job of p tasks; no job when p = 0.
    * Apart from reading its input DataFrames, the program starts Spark
    * jobs only here.
    */
  private[repro] def tasks[T: ClassTag](sc: SparkContext, p: Int)(f: (Int, Int) => T): Seq[T] =
    if (p == 0) Seq.empty else sc.parallelize(0 until p, p).map(f(_, p)).collect().toSeq
}

/** A driver value that Spark tasks read through a broadcast, made the first
  * time a closure holding it is serialized. Only a stripe task's closure
  * (`Stripes.tasks`) holds one, so a phase that runs on the driver, and
  * every read on the driver, broadcasts nothing. `value` is the driver's
  * object on the driver and the broadcast's value in a task.
  *
  * `release` destroys the broadcast if one was made and drops the value;
  * from then on reading it, on the driver or in a task, is refused.
  */
final class Shipped[A <: AnyRef: ClassTag](@transient private val sc: SparkContext, what: String, @transient @volatile private var local: A)
    extends Serializable {

  @volatile private var shipped: Broadcast[A] = _
  @transient @volatile private var released   = false

  def value: A = {
    val l = local
    val s = shipped
    if (l != null) l
    else if (s != null && !released) s.value
    else throw new IllegalStateException(refusal)
  }

  /** The broadcast's id, once a stripe task has read the value. */
  def broadcastId: Option[Long] = Option(shipped).map(_.id)

  def release(): Unit = synchronized {
    released = true
    if (shipped != null) shipped.destroy()
    shipped = null.asInstanceOf[Broadcast[A]]
    local = null.asInstanceOf[A]
  }

  private def refusal: String = s"$what: released by unpersist; build the index again to read it"

  private def writeObject(out: ObjectOutputStream): Unit = {
    synchronized {
      if (released) throw new IllegalStateException(refusal)
      if (shipped == null) shipped = sc.broadcast(local)
    }
    out.defaultWriteObject()
  }
}
