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
  * Both steps run over the broadcast driver CSR (`EdgeSims.approx`).
  */
object ApproxSimilarity {

  /** The §6.3 degree threshold t for k samples. */
  private def threshold(measure: Similarity.Measure, k: Int): Long = measure match {
    case Similarity.Cosine  => k.toLong
    case Similarity.Jaccard => 3L * k / 2
  }

  /** Per-edge (src, dst, sim) with LSH estimates on the dense part and
    * exact values elsewhere.
    *
    * @param k    number of LSH samples
    * @param seed randomness seed (each bench trial uses a fresh seed, as in
    *             the paper's five-trial protocol)
    */
  def similarities(
      canonical: DataFrame,
      measure: Similarity.Measure,
      k: Int,
      seed: Long): DataFrame =
    EdgeSims.approx(canonical, measure, k, seed, threshold(measure, k)).similarities

  /** Build a full approximate SCAN index (Theorem 5.1's pipeline: sketch,
    * estimate, then the same neighbor-order/core-order construction).
    */
  def buildIndex(
      canonical: DataFrame,
      measure: Similarity.Measure,
      k: Int,
      seed: Long): ScanIndex =
    ScanIndex.fromEdgeSims(EdgeSims.approx(canonical, measure, k, seed, threshold(measure, k)))

  /** Pure-LSH similarities for all edges, no heuristic — used by the
    * theorem-accuracy tests (Theorems 5.2/5.3 speak to the raw estimator).
    */
  def similaritiesNoHeuristic(
      canonical: DataFrame,
      measure: Similarity.Measure,
      k: Int,
      seed: Long): DataFrame =
    EdgeSims.approx(canonical, measure, k, seed, t = -1).similarities
}
