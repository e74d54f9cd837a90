package org.apache.spark.repro

import org.apache.spark.{SparkContext, SparkEnv}
import org.apache.spark.storage.BroadcastBlockId

/** The listener bus and the block manager are private to Spark; structural
  * tests wait for the bus to deliver every event before they read a
  * listener's counters, and read which broadcasts hold blocks.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()

  /** Ids of the broadcasts with a block in the driver's block manager. */
  def broadcastIds(sc: SparkContext): Set[Long] =
    SparkEnv.get.blockManager.getMatchingBlockIds(_.isBroadcast).collect { case b: BroadcastBlockId => b.broadcastId }.toSet
}
