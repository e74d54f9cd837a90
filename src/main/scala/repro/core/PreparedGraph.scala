package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame
import repro.baseline.SeqGraph

/** The prepared graph: each canonical DataFrame's driver CSR (`SeqGraph`),
  * collected and broadcast once and then read by every operator on that
  * DataFrame — the exact and approximate builds, ppSCAN-like's per-edge
  * similarities and the hub/outlier query — as GBBS loads its CSR once
  * for every algorithm.
  *
  * Graphs are keyed by the DataFrame object: `Dataset` does not override
  * `equals`/`hashCode`, so the weak map compares keys by reference, and a
  * different DataFrame over the same edges is prepared again. The key is
  * weak: once a DataFrame is unreachable its entry goes, and Spark's
  * `ContextCleaner` frees the broadcast.
  */
object PreparedGraph {

  private val graphs = new java.util.WeakHashMap[DataFrame, Broadcast[SeqGraph]]

  /** `canonical`'s broadcast CSR, collected on the first call. */
  def of(canonical: DataFrame): Broadcast[SeqGraph] = graphs.synchronized {
    var g = graphs.get(canonical)
    if (g == null) {
      g = canonical.sparkSession.sparkContext.broadcast(SeqGraph.fromDataFrame(canonical))
      graphs.put(canonical, g)
    }
    g
  }
}
