package repro.quality

import org.apache.spark.sql.DataFrame
import repro.core.{PreparedGraph, ScanQuery}

/** Adjusted Rand index (§7.2, Hubert & Arabie [38]) between a proposed
  * clustering and a ground-truth clustering over the vertices of a
  * canonical graph, read off its prepared graph (`PreparedGraph`).
  *
  * Vertices missing from either clustering are treated as singleton
  * clusters, mirroring the modularity treatment of unclustered vertices:
  * with dense labels (−1 for unclustered) a singleton adds C(1, 2) = 0 to
  * every pair count, so it is counted only in n and, when the other side
  * clusters it, in that cluster's size.
  */
object Ari {

  def ari(canonical: DataFrame, proposed: DataFrame, truth: DataFrame): Double = {
    val ids    = PreparedGraph.of(canonical).value.ids
    val (a, b) = (ScanQuery.labels(ids, proposed), ScanQuery.labels(ids, truth))

    def pairs[K](keys: Iterable[K]): Double =
      keys.groupMapReduce(identity)(_ => 1L)(_ + _).values.map(c => c * (c - 1) / 2.0).sum
    val sumNij = pairs(ids.indices.filter(i => a(i) >= 0 && b(i) >= 0).map(i => (a(i), b(i))))
    val sumAi  = pairs(a.filter(_ >= 0))
    val sumBj  = pairs(b.filter(_ >= 0))
    val n      = ids.length.toDouble

    val totalPairs = n * (n - 1) / 2.0
    if (totalPairs == 0) return 1.0
    val expected = sumAi * sumBj / totalPairs
    val maxIndex = (sumAi + sumBj) / 2.0
    if (maxIndex == expected) 1.0 // both clusterings trivial and identical
    else (sumNij - expected) / (maxIndex - expected)
  }
}
