package repro.approx

import org.apache.spark.sql.DataFrame
import repro.core.{EdgeSims, ScanIndex, Similarity}

/** Approximate similarity computation with the §6.3 low-degree heuristic:
  *
  * - an edge is *approximated* (via LSH sketches) only if **both** of its
  *   endpoints have degree above a threshold t — t = k for cosine/SimHash,
  *   t = 3k/2 for Jaccard/MinHash (the paper's values);
  * - every other edge gets its **exact** similarity (cheap and more
  *   accurate for small neighborhoods);
  * - sketches are built only for high-degree vertices that actually have an
  *   approximated edge (no sketches for vertices with no high-degree
  *   neighbor), matching §6.3.
  *
  * Both steps run over the prepared graph (`EdgeSims.approx`).
  */
object ApproxSimilarity {

  /** Build a full approximate SCAN index (Theorem 5.1's pipeline: sketch,
    * estimate, then the same neighbor-order/core-order construction).
    *
    * @param k    number of LSH samples
    * @param seed randomness seed (each bench trial uses a fresh seed, as in
    *             the paper's five-trial protocol)
    */
  def buildIndex(
      canonical: DataFrame,
      measure: Similarity.Measure,
      k: Int,
      seed: Long): ScanIndex =
    ScanIndex.fromEdgeSims(EdgeSims.approx(canonical, measure, k, seed))
}
