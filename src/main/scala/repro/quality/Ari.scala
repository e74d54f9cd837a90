package repro.quality

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Adjusted Rand index (§7.2, Hubert & Arabie [38]) between a proposed
  * clustering and a ground-truth clustering over the same vertex set.
  *
  * Vertices missing from either clustering are treated as singleton
  * clusters (`Labels.withSingletons`), mirroring the modularity treatment
  * of unclustered vertices.
  */
object Ari {

  def ari(proposed: DataFrame, truth: DataFrame, allVertices: DataFrame): Double = {
    val a = Labels.withSingletons(allVertices, proposed).withColumnRenamed("cluster", "ca")
    val b = Labels.withSingletons(allVertices, truth).withColumnRenamed("cluster", "cb")

    val contingency = a
      .join(b, Seq("v"))
      .groupBy("ca", "cb")
      .agg(count(lit(1)).as("nij"))
      .cache()

    def comb2(c: org.apache.spark.sql.Column) = c * (c - 1) / 2.0

    val sumNij = getD(contingency.agg(sum(comb2(col("nij")))))
    val sumAi  = getD(
      contingency.groupBy("ca").agg(sum("nij").as("ai")).agg(sum(comb2(col("ai")))))
    val sumBj = getD(
      contingency.groupBy("cb").agg(sum("nij").as("bj")).agg(sum(comb2(col("bj")))))
    val n = allVertices.count().toDouble
    contingency.unpersist()

    val totalPairs = n * (n - 1) / 2.0
    if (totalPairs == 0) return 1.0
    val expected = sumAi * sumBj / totalPairs
    val maxIndex = (sumAi + sumBj) / 2.0
    if (maxIndex == expected) 1.0 // both clusterings trivial and identical
    else (sumNij - expected) / (maxIndex - expected)
  }

  private def getD(df: DataFrame): Double = {
    val r = df.collect()(0)
    if (r.isNullAt(0)) 0.0 else r.getDouble(0)
  }
}
