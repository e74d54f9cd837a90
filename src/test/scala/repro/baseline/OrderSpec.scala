package repro.baseline

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** The NO/CO order helper (`SeqScanIndex.sortBySim`) against a boxed
  * reference sort: descending `java.lang.Double.compare`, ties by ascending
  * id.
  */
class OrderSpec extends AnyFunSuite {

  /** Similarities drawn from a few values, so ties are common, beside
    * arbitrary ones in [−1, 1]; 0.0 and −0.0 both occur.
    */
  private val sim: Gen[Double] =
    Gen.frequency(3 -> Gen.oneOf(0.0, -0.0, 1.0, -1.0, 0.5, -0.5, math.cos(3 * math.Pi / 8)), 1 -> Gen.choose(-1.0, 1.0))

  /** (sims, ids, from, until): runs up to 300 long, so the merge path runs
    * as well as the insertion sort, with ids from a small range.
    */
  private val input: Gen[(Array[Double], Array[Int], Int, Int)] = for {
    n     <- Gen.choose(0, 300)
    sims  <- Gen.containerOfN[Array, Double](n, sim)
    ids   <- Gen.containerOfN[Array, Int](n, Gen.choose(-5, 40))
    from  <- Gen.choose(0, n)
    until <- Gen.choose(from, n)
  } yield (sims, ids, from, until)

  private def reference(sims: Array[Double], ids: Array[Int]): Seq[(Double, Int)] =
    sims.zip(ids).toSeq.sortWith { (a, b) =>
      val c = java.lang.Double.compare(a._1, b._1)
      c > 0 || (c == 0 && a._2 < b._2)
    }

  /** Pairs with the similarity's bits, so 0.0 and −0.0 differ. */
  private def bits(s: Seq[(Double, Int)]): Seq[(Long, Int)] =
    s.map { case (x, v) => java.lang.Double.doubleToRawLongBits(x) -> v }

  test("sortBySim sorts a range like Double.compare then id, leaving the rest alone") {
    val cases = (0 until 400).flatMap(i => input.apply(Gen.Parameters.default, Seed(i.toLong)))
    // The generator reaches the cases the order must get right.
    val all = cases.flatMap(_._1)
    assert(all.exists(_ < 0) && all.exists(x => x == 0.0 && 1 / x > 0) && all.exists(x => x == 0.0 && 1 / x < 0))
    assert(cases.exists { case (s, _, f, u) => u - f > 64 && s.slice(f, u).distinct.length < u - f })
    cases.foreach { case (sims, ids, from, until) =>
      val (s, v) = (sims.clone(), ids.clone())
      SeqScanIndex.sortBySim(s, v, from, until)
      val want = sims.take(from).zip(ids.take(from)).toSeq ++
        reference(sims.slice(from, until), ids.slice(from, until)) ++ sims.drop(until).zip(ids.drop(until))
      assert(bits(s.zip(v).toSeq) == bits(want), s"range [$from, $until) of ${sims.length}")
    }
  }
}
