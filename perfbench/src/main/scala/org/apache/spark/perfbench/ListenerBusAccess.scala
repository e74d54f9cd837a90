package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** The listener bus is private to Spark; the tracer needs to wait for it to
  * deliver every event before it reads its counters.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
