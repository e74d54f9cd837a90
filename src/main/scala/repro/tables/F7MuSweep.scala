package repro.tables

import org.apache.spark.sql.SparkSession

/** Figure 7: clustering-query time with ε = 0.6 and varying μ, exact
  * cosine. μ sweeps powers of two up to
  * min(16384, 2^⌊log2(max degree)⌋), as in the paper. The series are
  * Figure 6's (`F6EpsSweep.sweep`).
  */
object F7MuSweep {

  def run(
      spark: SparkSession,
      scale: String,
      eps: Double = 0.6,
      trials: Int = 3,
      muCap: Int = 16384,
      graphNames: Option[Seq[String]] = None): TableResult =
    TableResult(
      s"Figure 7 (scale=$scale): query time, eps=$eps, varying mu, cosine [s]",
      Seq("graph", "mu", "ours(spark)", "GS*-query(seq)", "ppSCAN-like(spark)"),
      F6EpsSweep.sweep(spark, scale, trials, graphNames) { g =>
        Iterator
          .iterate(2)(_ * 2)
          .takeWhile(m => m <= math.min(muCap, Integer.highestOneBit(g.maxDegree)))
          .map(mu => (mu, eps, mu.toString))
          .toSeq
      })
}
