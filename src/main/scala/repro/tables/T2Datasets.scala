package repro.tables

import org.apache.spark.sql.SparkSession
import repro.core.PreparedGraph

/** Table 2: summary of the experiment graphs (here: their synthetic
  * stand-ins; paper graph and paper sizes shown alongside for diffing).
  */
object T2Datasets {

  def run(spark: SparkSession, scale: String): TableResult = {
    val rows = Datasets.all.map { bg =>
      val edges = bg.load(spark, scale)
      val g = PreparedGraph.of(edges).value
      val (pn, pm) = bg.paperSize
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
