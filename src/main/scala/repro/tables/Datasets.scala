package repro.tables

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.GraphGen

/** One graph of the Table 2 suite: a synthetic stand-in for a paper graph
  * (substitution rationale in DESIGN.md), with the paper graph's name and
  * (n, m), and its generator at each scale: "test" (unit-test sized) and
  * "bench" (the sizes EXPERIMENTS.md reports).
  */
final case class BenchGraph(
    name: String,
    paperName: String,
    paperSize: (Long, Long),
    weighted: Boolean,
    test: SparkSession => DataFrame,
    bench: SparkSession => DataFrame) {

  /** Generate, cache, and materialize the canonical edge DataFrame at
    * `scale`.
    */
  def load(spark: SparkSession, scale: String): DataFrame = {
    val gen = scale match {
      case "test"  => test
      case "bench" => bench
      case other   => throw new IllegalArgumentException(s"unknown scale '$other'")
    }
    val df = gen(spark).cache()
    df.count()
    df
  }
}

object Datasets {

  /** The scales `BenchGraph.load` accepts. */
  val scales: Seq[String] = Seq("test", "bench")

  /** The six graphs, in Table 2's order. */
  val all: Seq[BenchGraph] = Seq(
    BenchGraph("orkut-lite", "Orkut", (3072441L, 117185083L), weighted = false,
      GraphGen.rmat(_, 10, 4000L, seed = 11), GraphGen.rmat(_, 16, 600000L, seed = 11)),
    BenchGraph("brain-lite", "brain", (784262L, 267844669L), weighted = false,
      GraphGen.erdosRenyi(_, 256, 4000L, seed = 12), GraphGen.erdosRenyi(_, 4096, 400000L, seed = 12)),
    BenchGraph("webbase-lite", "WebBase", (118142155L, 854809761L), weighted = false,
      GraphGen.rmat(_, 11, 3000L, seed = 13), GraphGen.rmat(_, 17, 400000L, seed = 13)),
    BenchGraph("friendster-lite", "Friendster", (65608366L, 1806067135L), weighted = false,
      GraphGen.rmat(_, 10, 6000L, seed = 14), GraphGen.rmat(_, 16, 900000L, seed = 14)),
    BenchGraph("vessel-lite", "blood vessel", (25825L, 70240269L), weighted = true,
      GraphGen.denseWeighted(_, 100, 1500L, seed = 15), GraphGen.denseWeighted(_, 1500, 250000L, seed = 15)),
    BenchGraph("cochlea-lite", "cochlea", (25825L, 282977319L), weighted = true,
      GraphGen.denseWeighted(_, 100, 2500L, seed = 16), GraphGen.denseWeighted(_, 1500, 450000L, seed = 16)),
  )
}
