package repro

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.repro.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{ScanIndex, ScanQuery, Stripes}

/** Shared helpers for the test suites: DataFrame → driver-side maps and
  * the DuckDB oracle SQL used to cross-check every relational quantity of
  * the SCAN pipeline (see DESIGN.md "Correctness strategy").
  */
object TestUtil {

  /** Number of Spark jobs `body` starts, for structural gates. */
  def sparkJobs(spark: SparkSession)(body: => Unit): Int = {
    val jobs = new AtomicInteger()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = { jobs.incrementAndGet(); () }
    }
    val sc = spark.sparkContext
    ListenerBusAccess.waitUntilEmpty(sc)
    sc.addSparkListener(listener)
    try { body; ListenerBusAccess.waitUntilEmpty(sc); jobs.get }
    finally sc.removeSparkListener(listener)
  }

  /** The two ways each stripe phase (`Stripes`) runs, as (test-name
    * suffix, grain): the public call, which runs these small graphs'
    * builds and queries on the driver, and grain 0, which runs every phase
    * in Spark tasks (a query only if it has cores).
    */
  val stripePaths: Seq[(String, Option[Long])] = Seq("" -> None, " in tasks" -> Some(0L))

  /** `ScanQuery.cluster`, with `grain` if one is given. */
  def cluster(index: ScanIndex, mu: Int, eps: Double, grain: Option[Long]): DataFrame =
    onPath(grain)(ScanQuery.cluster(index, mu, eps))

  /** `body` with every stripe phase held against `grain`, if one is given. */
  def onPath[A](grain: Option[Long])(body: => A): A = grain.fold(body)(Stripes.withGrain(_)(body))

  /** Ids of the broadcasts whose blocks the driver holds. */
  def broadcastIds(spark: SparkSession): Set[Long] = ListenerBusAccess.broadcastIds(spark.sparkContext)

  /** `broadcastIds` without the task binary Spark broadcasts for each stage
    * it runs: the broadcasts of values, such as a `Shipped` one.
    */
  def valueBroadcastIds(spark: SparkSession): Set[Long] = ListenerBusAccess.valueBroadcastIds(spark.sparkContext)

  /** (src, dst, sim) DataFrame → map keyed by canonical (src, dst). */
  def simsToMap(df: DataFrame): Map[(Long, Long), Double] =
    df.select("src", "dst", "sim")
      .collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2))
      .toMap

  /** (v, cluster) DataFrame → map. */
  def clustersToMap(df: DataFrame): Map[Long, Long] =
    df.select("v", "cluster").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  /** (v, role) DataFrame → map. */
  def rolesToMap(df: DataFrame): Map[Long, String] =
    df.select("v", "role").collect().map(r => r.getLong(0) -> r.getString(1)).toMap

  /** (v) DataFrame → set. */
  def vertexSet(df: DataFrame): Set[Long] =
    df.select("v").collect().map(_.getLong(0)).toSet

  /** Compare two per-edge similarity maps within tolerance. */
  def assertSimsEqual(
      a: Map[(Long, Long), Double],
      b: Map[(Long, Long), Double],
      tol: Double): Unit = {
    assert(a.keySet == b.keySet, s"edge sets differ: only-a=${(a.keySet -- b.keySet).take(5)} only-b=${(b.keySet -- a.keySet).take(5)}")
    a.foreach { case (k, v) =>
      assert(math.abs(v - b(k)) <= tol, s"sim mismatch at $k: $v vs ${b(k)}")
    }
  }

  // ---------------------------------------------------------------- SQL --
  // All oracle input tables are VARCHAR (Oracle stores strings), hence the
  // CASTs. Tables named: edges(src, dst, weight), sims(src, dst, sim),
  // clusters(v, cluster).

  private val symEdges =
    """e AS (SELECT CAST(src AS BIGINT) s, CAST(dst AS BIGINT) d,
      |             CAST(weight AS DOUBLE) w FROM edges),
      |sym AS (SELECT s AS v, d AS n, w FROM e UNION ALL SELECT d, s, w FROM e)""".stripMargin

  /** Open degrees: (v, deg). */
  val degreesSql: String =
    s"""WITH $symEdges
       |SELECT v, COUNT(*) AS deg FROM sym GROUP BY v""".stripMargin

  /** Exact unweighted cosine sims over closed neighborhoods. */
  val cosineUnweightedSql: String =
    s"""WITH $symEdges,
       |deg AS (SELECT v, COUNT(*) AS dg FROM sym GROUP BY v),
       |cmn AS (SELECT e.s, e.d, COUNT(*) AS c
       |        FROM e JOIN sym a ON a.v = e.s JOIN sym b ON b.v = e.d AND b.n = a.n
       |        GROUP BY e.s, e.d)
       |SELECT e.s AS src, e.d AS dst,
       |       (COALESCE(c.c, 0) + 2) / SQRT((da.dg + 1.0) * (db.dg + 1.0)) AS sim
       |FROM e
       |LEFT JOIN cmn c ON c.s = e.s AND c.d = e.d
       |JOIN deg da ON da.v = e.s
       |JOIN deg db ON db.v = e.d""".stripMargin

  /** Exact weighted cosine sims (w(x,x) = 1). */
  val cosineWeightedSql: String =
    s"""WITH $symEdges,
       |nrm AS (SELECT v, 1.0 + SUM(w * w) AS nsq FROM sym GROUP BY v),
       |cmn AS (SELECT e.s, e.d, SUM(a.w * b.w) AS c
       |        FROM e JOIN sym a ON a.v = e.s JOIN sym b ON b.v = e.d AND b.n = a.n
       |        GROUP BY e.s, e.d)
       |SELECT e.s AS src, e.d AS dst,
       |       (COALESCE(c.c, 0.0) + 2.0 * e.w) / SQRT(na.nsq * nb.nsq) AS sim
       |FROM e
       |LEFT JOIN cmn c ON c.s = e.s AND c.d = e.d
       |JOIN nrm na ON na.v = e.s
       |JOIN nrm nb ON nb.v = e.d""".stripMargin

  /** Exact Jaccard sims over closed neighborhoods (unweighted). */
  val jaccardSql: String =
    s"""WITH $symEdges,
       |deg AS (SELECT v, COUNT(*) AS dg FROM sym GROUP BY v),
       |cmn AS (SELECT e.s, e.d, COUNT(*) AS c
       |        FROM e JOIN sym a ON a.v = e.s JOIN sym b ON b.v = e.d AND b.n = a.n
       |        GROUP BY e.s, e.d)
       |SELECT e.s AS src, e.d AS dst,
       |       (COALESCE(c.c, 0) + 2.0) /
       |       ((da.dg + 1.0) + (db.dg + 1.0) - (COALESCE(c.c, 0) + 2.0)) AS sim
       |FROM e
       |LEFT JOIN cmn c ON c.s = e.s AND c.d = e.d
       |JOIN deg da ON da.v = e.s
       |JOIN deg db ON db.v = e.d""".stripMargin

  /** Core vertices for (mu, eps) from a sims table:
    * |N_eps(v)| = 1 + #{eps-similar neighbors} >= mu (the +1 is v itself).
    */
  def coresSql(mu: Int, eps: Double): String =
    s"""WITH s AS (SELECT CAST(src AS BIGINT) a, CAST(dst AS BIGINT) b,
       |                  CAST(sim AS DOUBLE) sim FROM sims),
       |ssym AS (SELECT a AS v, b AS n, sim FROM s UNION ALL SELECT b, a, sim FROM s),
       |cnt AS (SELECT v,
       |               1 + COUNT(*) FILTER (WHERE sim >= $eps) AS ec,
       |               1 + COUNT(*) AS cd
       |        FROM ssym GROUP BY v)
       |SELECT v FROM cnt WHERE cd >= $mu AND ec >= $mu""".stripMargin

  /** Connected components (min reachable id) via recursive CTE — small
    * graphs only (transitive closure).
    */
  val componentsSql: String =
    s"""WITH RECURSIVE $symEdges,
       |vs AS (SELECT DISTINCT v FROM sym),
       |reach(a, b) AS (
       |  SELECT v, v FROM vs
       |  UNION
       |  SELECT r.a, s.n FROM reach r JOIN sym s ON s.v = r.b)
       |SELECT a AS v, MIN(b) AS component FROM reach GROUP BY a""".stripMargin

  /** Hub/outlier classification of unclustered vertices from edges +
    * clusters tables.
    */
  val hubsOutliersSql: String =
    s"""WITH $symEdges,
       |c AS (SELECT CAST(v AS BIGINT) v, CAST(cluster AS BIGINT) cl FROM clusters),
       |vs AS (SELECT DISTINCT v FROM sym),
       |un AS (SELECT v FROM vs WHERE v NOT IN (SELECT v FROM c)),
       |nc AS (SELECT s.v, COUNT(DISTINCT c.cl) AS k
       |       FROM sym s JOIN c ON c.v = s.n GROUP BY s.v)
       |SELECT u.v AS v,
       |       CASE WHEN COALESCE(nc.k, 0) >= 2 THEN 'hub' ELSE 'outlier' END AS role
       |FROM un u LEFT JOIN nc ON nc.v = u.v""".stripMargin

  /** Modularity (weighted, unclustered = singletons) as a single scalar.
    * Labels are strings, 'c' || cluster or 's' || v for a singleton, so a
    * singleton never shares a cluster's label, whatever the ids' signs.
    */
  val modularitySql: String =
    s"""WITH $symEdges,
       |c AS (SELECT CAST(v AS BIGINT) v, CAST(cluster AS BIGINT) cl FROM clusters),
       |vs AS (SELECT DISTINCT v FROM sym),
       |asg AS (SELECT vs.v, COALESCE('c' || CAST(c.cl AS VARCHAR), 's' || CAST(vs.v AS VARCHAR)) AS cl
       |        FROM vs LEFT JOIN c ON c.v = vs.v),
       |w AS (SELECT SUM(w) AS tot FROM e),
       |intra AS (SELECT a1.cl, SUM(e.w) AS win
       |          FROM e JOIN asg a1 ON a1.v = e.s JOIN asg a2 ON a2.v = e.d
       |          WHERE a1.cl = a2.cl GROUP BY a1.cl),
       |str AS (SELECT v, SUM(w) AS s FROM sym GROUP BY v),
       |cs AS (SELECT asg.cl, SUM(COALESCE(str.s, 0)) AS sc
       |       FROM asg LEFT JOIN str ON str.v = asg.v GROUP BY asg.cl)
       |SELECT SUM(COALESCE(intra.win, 0) / w.tot
       |           - (cs.sc / (2 * w.tot)) * (cs.sc / (2 * w.tot))) AS q
       |FROM cs LEFT JOIN intra ON intra.cl = cs.cl CROSS JOIN w""".stripMargin
}
