package repro.quality

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Cluster labels of every vertex for the quality measures, with each
  * unclustered vertex a singleton (§7.3.4).
  */
private[quality] object Labels {

  /** (v, cluster) for every row of `vertices`, where `cluster` is the pair
    * (clustered, id): (true, its cluster) or (false, v). A singleton's
    * label therefore never equals a cluster's, whatever the ids' signs.
    */
  def withSingletons(vertices: DataFrame, clusters: DataFrame): DataFrame = {
    def label(clustered: Boolean, id: String) = struct(lit(clustered).as("clustered"), col(id).cast("long").as("id"))
    vertices
      .join(clusters.select("v", "cluster"), Seq("v"), "left")
      .select(col("v"), when(col("cluster").isNull, label(false, "v")).otherwise(label(true, "cluster")).as("cluster"))
  }
}
