package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.StructType
import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.graph.GraphOps

/** The differential harness (`Differential.check`) on generated graphs. */
class DifferentialSpec extends SparkSpec {
  import DifferentialSpec._

  test("every SCAN implementation agrees on generated graphs, under cosine and, unweighted, Jaccard") {
    val cases = (0 until 10).flatMap(i => raw.apply(Gen.Parameters.default, Seed(i.toLong)).map(i -> _))
    // The generator reaches the inputs the harness must see.
    val rows = cases.flatMap(_._2.edges)
    assert(cases.exists(_._2.unweighted) && cases.exists(!_._2.unweighted) && cases.exists(_._2.ints))
    assert(rows.exists(e => e._1 == e._2) && cases.exists(c => c._2.edges.map(e => (e._1 min e._2, e._1 max e._2)).distinct.size < c._2.edges.size))
    assert(rows.exists(_._1 < 0) && rows.exists(_._1 > Long.MaxValue - 100) && rows.exists(_._1 < Long.MinValue + 100))
    Differential.checkAll(for ((seed, r) <- cases; g = GraphOps.canonicalize(r.frame(spark)); measure <- Seq(Similarity.Cosine, Similarity.Jaccard) if measure == Similarity.Cosine || r.unweighted)
      yield (s"seed $seed, $measure, raw edges $r", g, measure))
  }
}

object DifferentialSpec {

  /** A raw (src, dst, weight) edge list for `canonicalize`, with Int ids if `ints`. */
  final case class Raw(edges: Seq[(Long, Long, Double)], ints: Boolean) {
    def unweighted: Boolean = edges.forall(_._3 == 1.0)

    def frame(spark: SparkSession): DataFrame = spark.createDataFrame(
      java.util.Arrays.asList(edges.map { case (s, d, w) => if (ints) Row(s.toInt, d.toInt, w) else Row(s, d, w) }: _*),
      StructType.fromDDL(if (ints) "src INT, dst INT, weight DOUBLE" else "src LONG, dst LONG, weight DOUBLE"))

    override def toString: String = (if (ints) "Int ids " else "") + edges.mkString(" ")
  }

  /** Vertex i's id: dense, sparse, negative, or near both ends of Long. */
  private val ids: Gen[Int => Long] = Gen.oneOf(Seq[Int => Long](
    i => i.toLong,
    i => 1000003L * i - 4000000L,
    i => -7919L * i,
    i => if (i % 2 == 0) Long.MaxValue - i else Long.MinValue + i))

  /** Weights from a few values, so weighted similarities tie too, or arbitrary. */
  private val weight: Gen[Double] = Gen.frequency(2 -> Gen.oneOf(0.5, 1.0, 2.0), 1 -> Gen.choose(0.05, 1.0))

  /** 3 to 11 vertices, as 2 would give no edge: two planted cliques of the
    * same size, mostly the largest that fits, so cores exist, and a vertex
    * adjacent to one member of each, so a border vertex can be equally
    * similar to cores of two clusters; then up to n/3 random pairs among the
    * other vertices, which hold self-loops, and some rows again, reversed
    * and with new weights.
    */
  val raw: Gen[Raw] = for {
    n      <- Gen.choose(3, 11)
    id     <- ids
    k      <- Gen.frequency(3 -> Gen.const((n - 1) / 2), 1 -> Gen.choose(0, (n - 1) / 2))
    order  <- Gen.pick(n, 0 until n)
    (a, b)  = (order.take(k), order.slice(k, 2 * k))
    dense   = for (gr <- Seq(a, b); x <- gr; y <- gr if x < y) yield (x, y)
    bridge  = if (k > 0 && 2 * k < n) Seq((order(2 * k), a.head), (order(2 * k), b.head)) else Nil
    rest    = order.filterNot(bridge.flatMap(e => Seq(e._1, e._2)).contains)
    noise  <- if (rest.isEmpty) Gen.const(Nil) else Gen.choose(0, n / 3).flatMap(Gen.listOfN(_, Gen.zip(Gen.oneOf(rest), Gen.oneOf(rest))))
    pairs   = dense ++ bridge ++ noise
    again  <- Gen.someOf(pairs)
    unit   <- Gen.oneOf(true, false)
    ws     <- Gen.listOfN(pairs.size + again.size, if (unit) Gen.const(1.0) else weight)
    ints   <- if ((0 until n).forall(i => id(i).isValidInt)) Gen.oneOf(true, false) else Gen.const(false)
  } yield Raw((pairs ++ again.map(_.swap)).zip(ws).map { case ((x, y), w) => (id(x), id(y), w) }, ints)
}
