package repro.core

import repro.{SparkSpec, TestUtil}
import repro.baseline.{SeqGraph, SeqScanIndex}
import repro.graph.GraphGen

class PreparedGraphSpec extends SparkSpec {

  private val points = Seq((2, 0.3), (2, 0.5), (3, 0.4), (4, 0.6))

  test("the same DataFrame object gets the same broadcast graph") {
    val g = GraphGen.figureLike(spark)
    assert(PreparedGraph.of(g) eq PreparedGraph.of(g))
  }

  test("a different DataFrame with equal content gets its own broadcast graph") {
    val (a, b) = (GraphGen.figureLike(spark), GraphGen.figureLike(spark))
    val (ga, gb) = (PreparedGraph.of(a), PreparedGraph.of(b))
    assert(ga.id != gb.id)
    assert(ga.value.ids.sameElements(gb.value.ids))
    assert(ga.value.adj.map(_.toSeq).toSeq == gb.value.adj.map(_.toSeq).toSeq)
  }

  // The two query tests run on both paths (`TestUtil.stripePaths`).
  for ((path, grain) <- TestUtil.stripePaths) {
    test(s"roles on g1 after builds on g1 and then g2 equal the sequential roles of g1$path") {
      val g1 = GraphGen.rmat(spark, 8, 900, seed = 91).cache()
      val g2 = GraphGen.rmat(spark, 9, 2000, seed = 92).cache()
      val idx1 = ScanIndex.build(g1, Similarity.Cosine).cache()
      val idx2 = ScanIndex.build(g2, Similarity.Cosine).cache()
      val seq1 = SeqScanIndex.buildOpt(SeqGraph.fromDataFrame(g1), Similarity.Cosine)
      val roles = points.map { case (mu, eps) =>
        val clusters = TestUtil.cluster(idx1, mu, eps, grain)
        val want     = seq1.cluster(mu, eps)
        assert(TestUtil.clustersToMap(clusters) == want, s"clusters at ($mu, $eps)")
        val got = TestUtil.rolesToMap(ScanQuery.hubsAndOutliers(g1, clusters))
        assert(got == seq1.hubsAndOutliers(want), s"roles at ($mu, $eps)")
        got
      }
      assert(roles.exists(_.values.exists(_ == "hub")))
      idx1.unpersist(); idx2.unpersist(); g1.unpersist(); g2.unpersist()
    }

    test(s"hubsAndOutliers on another DataFrame of the index's graph gives the same roles$path") {
      val built = GraphGen.rmat(spark, 8, 900, seed = 93).cache()
      val other = GraphGen.rmat(spark, 8, 900, seed = 93)
      val idx = ScanIndex.build(built, Similarity.Cosine).cache()
      for ((mu, eps) <- points) {
        val clusters = TestUtil.cluster(idx, mu, eps, grain)
        val want = TestUtil.rolesToMap(ScanQuery.hubsAndOutliers(built, clusters))
        assert(TestUtil.rolesToMap(ScanQuery.hubsAndOutliers(other, clusters)) == want, s"roles at ($mu, $eps)")
      }
      assert(PreparedGraph.of(other).id != PreparedGraph.of(built).id)
      idx.unpersist(); built.unpersist()
    }
  }
}
