package repro.core

import org.apache.spark.sql.DataFrame
import repro.baseline.SeqGraph

/** The prepared graph: each canonical DataFrame's driver CSR (`SeqGraph`,
  * with its degrees, norms and adjacency), collected once and then read by
  * every operator on that DataFrame — the exact and approximate builds,
  * ppSCAN-like's per-edge similarities, the hub/outlier query, modularity
  * and ARI — as GBBS loads its CSR once for every algorithm. Like every
  * other driver value, it is broadcast only when a stripe task first
  * reads it (`Shipped`), so a phase that runs on the driver ships nothing.
  *
  * Graphs are keyed by the DataFrame object: `Dataset` does not override
  * `equals`/`hashCode`, so the weak map compares keys by reference, and a
  * different DataFrame over the same edges is prepared again. The key is
  * weak: once a DataFrame is unreachable its entry goes, and Spark's
  * `ContextCleaner` frees the broadcast if one was made.
  */
object PreparedGraph {

  private val graphs = new java.util.WeakHashMap[DataFrame, Shipped[SeqGraph]]

  /** `canonical`'s CSR, collected on the first call. */
  def of(canonical: DataFrame): Shipped[SeqGraph] = graphs.synchronized {
    var g = graphs.get(canonical)
    if (g == null) {
      g = new Shipped(canonical.sparkSession.sparkContext, "the prepared graph", SeqGraph.fromDataFrame(canonical))
      graphs.put(canonical, g)
    }
    g
  }
}
