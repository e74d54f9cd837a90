package perfbench

/** Per-layer metrics of a traced run, named `<layer>.<metric>` after the
  * repository's modules: graph (GraphGen, GraphOps), similarity, scan_index,
  * query, connectivity (reached through ScanQuery.cluster), approx (SimHash,
  * MinHashOPH, ApproxSimilarity) and baseline (SeqGraph, SeqScanIndex,
  * PpScan). Every workload reports every metric; a layer the workload does
  * not call reads 0. Span values are medians over the spans of that name.
  */
object Layers {

  val Units: Seq[(String, String)] = Seq(
    "graph.gen_s" -> "s",
    "graph.edges" -> "count",
    "graph.vertices" -> "count",
    "baseline.seqgraph_collect_s" -> "s",
    "similarity.wall_s" -> "s",
    "similarity.jobs" -> "count",
    "similarity.stages" -> "count",
    "similarity.tasks" -> "count",
    "similarity.busy_s" -> "s",
    "similarity.gc_s" -> "s",
    "similarity.shuffle_write_mb" -> "MB",
    "similarity.shuffle_read_mb" -> "MB",
    "similarity.spill_mb" -> "MB",
    "similarity.task_skew" -> "1",
    "similarity.utilization" -> "1",
    "scan_index.wall_s" -> "s",
    "scan_index.jobs" -> "count",
    "scan_index.tasks" -> "count",
    "scan_index.busy_s" -> "s",
    "scan_index.shuffle_write_mb" -> "MB",
    "scan_index.spill_mb" -> "MB",
    "scan_index.task_skew" -> "1",
    "scan_index.utilization" -> "1",
    "approx.simhash_wall_s" -> "s",
    "approx.minhash_wall_s" -> "s",
    "approx.jobs" -> "count",
    "approx.tasks" -> "count",
    "approx.busy_s" -> "s",
    "approx.shuffle_write_mb" -> "MB",
    "approx.task_skew" -> "1",
    "approx.approx_edges" -> "count",
    "approx.fallback_edges" -> "count",
    "approx.approx_share" -> "1",
    "approx.simhash_mae" -> "1",
    "approx.minhash_mae" -> "1",
    "query.cores_s" -> "s",
    "query.cluster_s" -> "s",
    "query.roles_s" -> "s",
    "query.jobs" -> "count",
    "query.tasks" -> "count",
    "query.busy_s" -> "s",
    "query.utilization" -> "1",
    "query.output_rows" -> "count",
    "query.eps_edges" -> "count",
    "query.core_count" -> "count",
    "connectivity.wall_s" -> "s",
    "connectivity.jobs" -> "count",
    "connectivity.driver_result_mb" -> "MB",
    "baseline.seq_build.wall_s" -> "s",
    "baseline.seq_query.wall_s" -> "s",
    "baseline.ppscan.wall_s" -> "s",
    "baseline.ppscan.jobs" -> "count",
    "baseline.ppscan.tasks" -> "count",
    "baseline.ppscan.shuffle_write_mb" -> "MB",
    "trace.overhead_pct" -> "%",
    "trace.traced_ops" -> "count",
    "trace.unattributed_tasks" -> "count",
  )

  def metrics(
      tracer: Tracer,
      rec: Recorder,
      wl: Workload,
      cores: Int): Map[String, Double] = {
    val spans = tracer.allSpans
    def named(name: String) = spans.filter(_.name == name)
    def med(xs: Seq[Double]) = if (xs.isEmpty) 0.0 else Recorder.median(xs)
    def util(busy: Double, wall: Double) = if (wall <= 0) 0.0 else busy / (wall * cores)

    /** wall_s of the spans with one of `names` and the counters of those
      * spans and their children, summed per operation; then the median
      * over operations.
      */
    def layer(prefix: String, names: Seq[String]): Map[String, Double] = {
      val byOp = spans.filter(s => names.contains(s.name)).groupBy(_.op).values.toSeq
      val per = byOp.map { ss =>
        val ids = ss.map(_.id).toSet
        val cs = spans.filter(s => ids(s.id) || ids(s.parent)).map(s => tracer.countersOf(s.id))
        val wall = ss.map(_.wallS).sum
        val busy = cs.map(_.busyS).sum
        Map(
          "wall_s" -> wall,
          "jobs" -> cs.map(_.jobs).sum.toDouble,
          "stages" -> cs.map(_.stages).sum.toDouble,
          "tasks" -> cs.map(_.tasks).sum.toDouble,
          "busy_s" -> busy,
          "gc_s" -> cs.map(_.gcS).sum,
          "shuffle_write_mb" -> cs.map(_.shuffleWriteMb).sum,
          "shuffle_read_mb" -> cs.map(_.shuffleReadMb).sum,
          "spill_mb" -> cs.map(_.spillMb).sum,
          "task_skew" -> cs.map(_.taskSkew).max,
          "utilization" -> util(busy, wall))
      }
      val keys = Seq("wall_s", "jobs", "stages", "tasks", "busy_s", "gc_s", "shuffle_write_mb",
        "shuffle_read_mb", "spill_mb", "task_skew", "utilization")
      keys.map(k => s"$prefix.$k" -> med(per.map(_(k)))).toMap
    }

    val connectivity = named("connectivity").map(s => tracer.countersOf(s.id))
    val ppscan = named("baseline.ppscan").map(s => tracer.countersOf(s.id))
    def anySeries(n: String) = med(rec.samples(n, traced = false) ++ rec.samples(n, traced = true))
    val untracedOp = rec.median("op_s", traced = false)
    val tracedOp = rec.median("op_s", traced = true)

    val values =
      layer("similarity", Seq("similarity")) ++
      layer("scan_index", Seq("scan_index")) ++
      layer("approx", Seq("approx.simhash", "approx.minhash")) ++
      // The timed query is cluster + roles; query.cores is an extra call.
      layer("query", Seq("query.cluster", "query.roles")) ++
      Map(
        "graph.gen_s" -> med(wl.genS.toSeq),
        "graph.edges" -> wl.m.toDouble,
        "graph.vertices" -> wl.n.toDouble,
        "baseline.seqgraph_collect_s" -> med(wl.collectS.toSeq),
        "approx.simhash_wall_s" -> med(named("approx.simhash").map(_.wallS)),
        "approx.minhash_wall_s" -> med(named("approx.minhash").map(_.wallS)),
        "approx.simhash_mae" -> anySeries("simhash_mae"),
        "approx.minhash_mae" -> anySeries("minhash_mae"),
        "query.cores_s" -> med(named("query.cores").map(_.wallS)),
        "query.cluster_s" -> med(named("query.cluster").map(_.wallS)),
        "query.roles_s" -> med(named("query.roles").map(_.wallS)),
        "query.output_rows" -> anySeries("query.output_rows"),
        "query.eps_edges" -> anySeries("query.eps_edges"),
        "query.core_count" -> anySeries("query.core_count"),
        "connectivity.wall_s" -> med(named("connectivity").map(_.wallS)),
        "connectivity.jobs" -> med(connectivity.map(_.jobs.toDouble)),
        "connectivity.driver_result_mb" -> med(connectivity.map(_.driverResultMb)),
        "baseline.seq_build.wall_s" -> med(named("baseline.seq_build").map(_.wallS)),
        "baseline.seq_query.wall_s" -> med(named("baseline.seq_query").map(_.wallS)),
        "baseline.ppscan.wall_s" -> med(named("baseline.ppscan").map(_.wallS)),
        "baseline.ppscan.jobs" -> med(ppscan.map(_.jobs.toDouble)),
        "baseline.ppscan.tasks" -> med(ppscan.map(_.tasks.toDouble)),
        "baseline.ppscan.shuffle_write_mb" -> med(ppscan.map(_.shuffleWriteMb)),
        // Traced path against untraced path: for builds the traced path
        // runs the two halves of ScanIndex.build as separate plans.
        "trace.overhead_pct" -> (if (untracedOp > 0 && !tracedOp.isNaN) (tracedOp / untracedOp - 1) * 100 else 0.0),
        "trace.traced_ops" -> rec.samples("op_s", traced = true).size.toDouble,
        "trace.unattributed_tasks" -> tracer.unattributed.toDouble) ++
      wl.counters
    Units.map { case (n, _) => n -> values.getOrElse(n, 0.0) }.toMap
  }
}
