package org.apache.spark.repro

import org.apache.spark.SparkContext

/** The listener bus is private to Spark; structural tests wait for it to
  * deliver every event before they read a listener's counters.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
