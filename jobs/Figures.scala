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

  private[repro] val harnesses: Seq[(String, (SparkSession, String) => TableResult)] = Seq(
    "table2" -> T2Datasets.run,
    "fig5"   -> F5Construction.run,
    "fig6"   -> F6EpsSweep.run,
    "fig7"   -> F7MuSweep.run,
    "fig8"   -> F8ApproxConstruction.run,
    "fig9"   -> F9Modularity.run,
    "fig10"  -> F10Ari.run)

  def main(args: Array[String]): Unit = {
    val usage =
      s"usage: Figures <${(harnesses.map(_._1) :+ "all").mkString("|")}> [${Datasets.scales.mkString("|")}]"
    require(args.nonEmpty && args.length <= 2, usage)
    val figure = args(0)
    val scale  = args.lift(1).getOrElse("bench")
    val chosen = if (figure == "all") harnesses else harnesses.filter(_._1 == figure)
    require(chosen.nonEmpty, s"unknown figure '$figure'; $usage")
    require(Datasets.scales.contains(scale), s"unknown scale '$scale'; $usage")
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
