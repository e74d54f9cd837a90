package repro

import org.apache.spark.sql.functions._

/** Sanity checks for the DuckDB oracle so a broken oracle cannot silently
  * bless wrong results.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  test("Oracle accepts an equivalent aggregation") {
    val df = Seq((1L, "a"), (2L, "a"), (3L, "b")).toDF("k", "g")
    Oracle.assertEquivalent(
      df.groupBy("g").agg(count(lit(1)).as("c"), sum("k").as("s")).select("g", "c", "s"),
      "SELECT g, COUNT(*) AS c, SUM(CAST(k AS BIGINT)) AS s FROM t GROUP BY g",
      "t" -> df)
  }

  test("Oracle rejects a wrong result") {
    val df = Seq((1L, "a"), (2L, "b")).toDF("k", "g")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.groupBy("g").agg((count(lit(1)) + 1).as("c")).select("g", "c"),
        "SELECT g, COUNT(*) AS c FROM t GROUP BY g",
        "t" -> df)
    }
  }

  test("Oracle rejects mismatched column sets") {
    val df = Seq((1L, "a")).toDF("k", "g")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(
        df.select(col("k").as("wrong")),
        "SELECT k FROM t",
        "t" -> df)
    }
  }
}
