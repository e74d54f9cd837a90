package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.PreparedGraph

/** Table 2: summary of the experiment graphs (here: their synthetic
  * stand-ins; paper graph and paper sizes shown alongside for diffing).
  */
object T2Datasets {

  private val paperSizes: Map[String, (Long, Long)] = Map(
    "Orkut"        -> (3072441L, 117185083L),
    "brain"        -> (784262L, 267844669L),
    "WebBase"      -> (118142155L, 854809761L),
    "Friendster"   -> (65608366L, 1806067135L),
    "blood vessel" -> (25825L, 70240269L),
    "cochlea"      -> (25825L, 282977319L),
  )

  def run(spark: SparkSession, scale: String): TableResult = {
    val rows = Datasets.suite(scale).map { bg =>
      val edges = bg.load(spark)
      val g = PreparedGraph.of(edges).value
      val (pn, pm) = paperSizes(bg.paperName)
      edges.unpersist()
      Seq(
        bg.name,
        g.n.toString,
        g.numEdges.toString,
        if (bg.weighted) "weighted" else "unweighted",
        bg.paperName,
        pn.toString,
        pm.toString)
    }
    TableResult(
      s"Table 2 (scale=$scale): graphs",
      Seq("name", "vertices", "edges", "type", "paper graph", "paper vertices", "paper edges"),
      rows)
  }
}
