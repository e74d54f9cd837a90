package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables._

/** The one entry point for the paper's table and figures: run with
  *   spark-submit --class repro.jobs.Figures <jar> <figure> [scale]
  * or `sbt "runMain repro.jobs.Figures <figure> [scale]"`, where figure is
  * table2, fig5 … fig10 or all, and scale is "test" (tiny) or "bench"
  * (default). Each rendered table is printed to stdout.
  */
object Figures {

  private val harnesses: Seq[(String, (SparkSession, String) => TableResult)] = Seq(
    "table2" -> ((s, sc) => T2Datasets.run(s, sc)),
    "fig5"   -> ((s, sc) => F5Construction.run(s, sc)),
    "fig6"   -> ((s, sc) => F6EpsSweep.run(s, sc)),
    "fig7"   -> ((s, sc) => F7MuSweep.run(s, sc)),
    "fig8"   -> ((s, sc) => F8ApproxConstruction.run(s, sc)),
    "fig9"   -> ((s, sc) => F9Modularity.run(s, sc)),
    "fig10"  -> ((s, sc) => F10Ari.run(s, sc)))

  def main(args: Array[String]): Unit = {
    val usage = s"usage: Figures <${(harnesses.map(_._1) :+ "all").mkString("|")}> [test|bench]"
    require(args.nonEmpty && args.length <= 2, usage)
    val figure = args(0)
    val scale  = args.lift(1).getOrElse("bench")
    val chosen = if (figure == "all") harnesses else harnesses.filter(_._1 == figure)
    require(chosen.nonEmpty, s"unknown figure '$figure'; $usage")
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"figures-$figure")
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try chosen.foreach { case (_, run) => println(run(spark, scale).render) }
    finally spark.stop()
  }
}
