package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.util.Hashing

/** Synthetic graph generators — the dataset substitutes for Table 2.
  *
  * All generators are deterministic in (parameters, seed): edge endpoints
  * and weights are pure functions of the row id via splitmix64, so repeated
  * runs (and the DuckDB oracle) see identical graphs regardless of Spark
  * partitioning. All outputs are canonical simple graphs (GraphOps).
  */
object GraphGen {

  /** RMAT / Kronecker-style power-law graph with quadrant probabilities
    * (a, b, c, d) = (0.57, 0.19, 0.19, 0.05), unweighted (stand-in for the
    * paper's social/web graphs: Orkut, Friendster, WebBase).
    *
    * @param scale     log2 of the number of vertices
    * @param numEdges  number of edge samples drawn (final count is slightly
    *                  lower after dedup/self-loop removal)
    */
  def rmat(spark: SparkSession, scale: Int, numEdges: Long, seed: Long): DataFrame = {
    val (a, b, c) = (0.57, 0.19, 0.19)
    val pair = udf { (id: Long) =>
      var s = 0L
      var d = 0L
      var h = Hashing.combine(seed, id)
      var lvl = 0
      while (lvl < scale) {
        h = Hashing.splitmix64(h)
        val r = Hashing.uniform(h)
        val (sb, db) =
          if (r < a) (0L, 0L)
          else if (r < a + b) (0L, 1L)
          else if (r < a + b + c) (1L, 0L)
          else (1L, 1L)
        s = (s << 1) | sb
        d = (d << 1) | db
        lvl += 1
      }
      (s, d)
    }
    val raw = spark
      .range(numEdges)
      .select(col("id"), pair(col("id")).as("e"))
      .select(col("id"), col("e._1").as("src"), col("e._2").as("dst"))
    GraphOps.canonicalize(withWeight(raw, weighted = false, seed))
  }

  /** Erdős–Rényi-style graph by sampling `numEdges` uniform pairs
    * (stand-in for the dense unweighted "brain" graph when n is small
    * relative to numEdges).
    */
  def erdosRenyi(spark: SparkSession, n: Long, numEdges: Long, seed: Long): DataFrame =
    uniformPairs(spark, n, numEdges, seed, weighted = false)

  /** Dense weighted graph with uniform [0,1) weights (stand-in for the
    * HumanBase tissue graphs: blood vessel, cochlea). Small n, high degree.
    */
  def denseWeighted(spark: SparkSession, n: Long, numEdges: Long, seed: Long): DataFrame =
    uniformPairs(spark, n, numEdges, seed, weighted = true)

  private def uniformPairs(spark: SparkSession, n: Long, numEdges: Long, seed: Long, weighted: Boolean): DataFrame = {
    val pair = udf { (id: Long) =>
      val h1 = Hashing.combine(seed, 2 * id)
      val h2 = Hashing.combine(seed, 2 * id + 1)
      (math.floorMod(h1, n), math.floorMod(h2, n))
    }
    val raw = spark
      .range(numEdges)
      .select(col("id"), pair(col("id")).as("e"))
      .select(col("id"), col("e._1").as("src"), col("e._2").as("dst"))
    GraphOps.canonicalize(withWeight(raw, weighted, seed))
  }

  /** Planted-partition graph: k equal communities, intra-community edge
    * probability pIn, inter pOut. O(n^2) pair enumeration — test scale only.
    * Used by the quality-metric tests (modularity/ARI ground truth).
    */
  def plantedPartition(
      spark: SparkSession,
      n: Int,
      k: Int,
      pIn: Double,
      pOut: Double,
      seed: Long): DataFrame = {
    val commSize = math.max(1, n / k)
    val keep = udf { (i: Long, j: Long) =>
      val same = (i / commSize) == (j / commSize)
      val p    = if (same) pIn else pOut
      Hashing.uniform(Hashing.combine(seed, i, j)) < p
    }
    val pairs = spark
      .range(n.toLong * n.toLong)
      .select((col("id") / n).cast("long").as("src"), (col("id") % n).cast("long").as("dst"))
      .filter(col("src") < col("dst"))
      .filter(keep(col("src"), col("dst")))
    GraphOps.canonicalize(pairs)
  }

  /** Complete graph K_n on vertices 0..n-1. */
  def complete(spark: SparkSession, n: Int): DataFrame = {
    val pairs = spark
      .range(n.toLong * n.toLong)
      .select((col("id") / n).cast("long").as("src"), (col("id") % n).cast("long").as("dst"))
      .filter(col("src") < col("dst"))
    GraphOps.canonicalize(pairs)
  }

  /** Path graph 0-1-2-...-(n-1). */
  def path(spark: SparkSession, n: Int): DataFrame =
    GraphOps.canonicalize(
      spark.range(n - 1).select(col("id").as("src"), (col("id") + 1).as("dst")))

  /** Star graph: center 0 connected to 1..n-1. */
  def star(spark: SparkSession, n: Int): DataFrame =
    GraphOps.canonicalize(
      spark.range(1, n).select(lit(0L).as("src"), col("id").as("dst")))

  /** Build a graph from an explicit edge list (test helper). */
  def fromEdges(spark: SparkSession, edges: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    GraphOps.canonicalize(edges.toDF("src", "dst"))
  }

  /** Build a weighted graph from an explicit edge list (test helper). */
  def fromWeightedEdges(spark: SparkSession, edges: Seq[(Long, Long, Double)]): DataFrame = {
    import spark.implicits._
    GraphOps.canonicalize(edges.toDF("src", "dst", "weight"))
  }

  /** Hand-verified example in the spirit of the paper's Figure 1: two K4
    * communities {0,1,2,3} and {4,5,6,7}, a bridge vertex 8 adjacent to 0
    * and 4, and a pendant 9 adjacent to 8.
    *
    * Hand-computed cosine similarities:
    *   - σ(1,2)=σ(1,3)=σ(2,3)=σ(5,6)=σ(5,7)=σ(6,7)=1
    *   - σ(0,1)=σ(0,2)=σ(0,3)=σ(4,5)=σ(4,6)=σ(4,7)=4/√20≈0.894
    *   - σ(0,8)=σ(4,8)=2/√20≈0.447,  σ(8,9)=2/√8≈0.707
    * At (μ=3, ε=0.8): clusters {0,1,2,3} and {4,5,6,7}; 8 is a hub
    * (neighbors both clusters), 9 is an outlier.
    */
  def figureLike(spark: SparkSession): DataFrame =
    fromEdges(
      spark,
      Seq(
        (0L, 1L), (0L, 2L), (0L, 3L), (1L, 2L), (1L, 3L), (2L, 3L),
        (4L, 5L), (4L, 6L), (4L, 7L), (5L, 6L), (5L, 7L), (6L, 7L),
        (0L, 8L), (4L, 8L), (8L, 9L)))

  private def withWeight(raw: DataFrame, weighted: Boolean, seed: Long): DataFrame =
    if (!weighted) raw.select(col("src"), col("dst"), lit(1.0).as("weight"))
    else {
      val wUdf = udf { (id: Long) =>
        // weights in (0, 1] — mirrors HumanBase "probability of functional
        // relationship" edge weights.
        1.0 - Hashing.uniform(Hashing.combine(seed ^ 0x5eedL, id))
      }
      raw.select(col("src"), col("dst"), wUdf(col("id")).as("weight"))
    }
}
