package repro.baseline

import repro.core.Similarity
import scala.collection.mutable

/** Sequential GS*-Index baseline (§3.2 / Wen et al. [68]) with two
  * similarity-computation strategies:
  *
  * - `buildBasic`: per-edge closed-neighborhood hash-set intersection and
  *   per-list comparison sorts — mirrors the original GS*-Index code path.
  * - `buildOpt`: degree-directed merge-based triangle counting — the §6.1
  *   optimization ("our algorithm on one thread"), which the paper credits
  *   for its 1.4–2.2× single-thread advantage over GS*-Index.
  *
  * Queries walk the sorted core order and neighbor-order prefixes and run
  * sequential union-find — the GS*-Index query algorithm. Border vertices
  * use the deterministic most-similar-core rule (§7.3.4) so outputs match
  * the Spark implementation exactly.
  */
final class SeqScanIndex(
    val g: SeqGraph,
    // Neighbor order: for each v, neighbor dense-indices sorted by
    // descending similarity (ties: ascending neighbor id); parallel sims.
    val noNbr: Array[Array[Int]],
    val noSim: Array[Array[Double]],
    // Core order: for each mu (index 2..maxMu), vertices sorted by
    // descending core threshold (ties: ascending id); parallel thresholds.
    val coVert: Array[Array[Int]],
    val coThresh: Array[Array[Double]]) {

  val maxMu: Int = coVert.length - 1

  /** Core vertices at (μ, ε): the prefix of CO[μ] with threshold ≥ ε. */
  def cores(mu: Int, eps: Double): Array[Int] = {
    if (mu < 2 || mu > maxMu) return Array.empty
    val vs = coVert(mu); val ts = coThresh(mu)
    val cut = prefixEnd(ts, eps)
    vs.take(cut)
  }

  /** Clustering at (μ, ε): map original-vertex-id -> cluster label, where
    * the label is the minimum original core id in the cluster's component.
    */
  def cluster(mu: Int, eps: Double): Map[Long, Long] = {
    val cs = cores(mu, eps)
    if (cs.isEmpty) return Map.empty
    val isCore = new Array[Boolean](g.n)
    cs.foreach(isCore(_) = true)

    val parent = Array.tabulate(g.n)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); var c = x; while (parent(c) != c) { val nx = parent(c); parent(c) = r; c = nx }; r }
    def union(a: Int, b: Int): Unit = { val (ra, rb) = (find(a), find(b)); if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb) }

    // ε-similar prefix of NO[v] for each core v; union core-core edges and
    // record border candidates (most similar core, tie to lower core id).
    val borderBest = mutable.HashMap.empty[Int, (Double, Int)]
    cs.foreach { v =>
      val nbrs = noNbr(v); val sims = noSim(v)
      val cut  = prefixEnd(sims, eps)
      var i = 0
      while (i < cut) {
        val u = nbrs(i)
        if (isCore(u)) union(v, u)
        else {
          val s = sims(i)
          val cur = borderBest.get(u)
          val better = cur match {
            case None => true
            case Some((bs, bv)) =>
              s > bs || (s == bs && g.ids(v) < g.ids(bv))
          }
          if (better) borderBest(u) = (s, v)
        }
        i += 1
      }
    }

    // Component label = min original core id in the component.
    val label = mutable.HashMap.empty[Int, Long]
    cs.foreach { v =>
      val r = find(v)
      val cur = label.getOrElse(r, Long.MaxValue)
      if (g.ids(v) < cur) label(r) = g.ids(v)
    }
    val out = Map.newBuilder[Long, Long]
    cs.foreach(v => out += g.ids(v) -> label(find(v)))
    borderBest.foreach { case (u, (_, core)) => out += g.ids(u) -> label(find(core)) }
    out.result()
  }

  /** Hubs and outliers (§4.3) given a clustering. */
  def hubsAndOutliers(clusters: Map[Long, Long]): Map[Long, String] = {
    val out = Map.newBuilder[Long, String]
    var v = 0
    while (v < g.n) {
      val id = g.ids(v)
      if (!clusters.contains(id)) {
        val nbrClusters = g.adj(v).iterator.flatMap(u => clusters.get(g.ids(u))).toSet
        out += id -> (if (nbrClusters.size >= 2) "hub" else "outlier")
      }
      v += 1
    }
    out.result()
  }

  /** Index of the first entry of `sorted` (descending) strictly below eps —
    * doubling search as in Algorithms 2/3 (cheap on the driver; retained
    * for fidelity to the paper's prefix-retrieval structure).
    */
  private def prefixEnd(sorted: Array[Double], eps: Double): Int = {
    val n = sorted.length
    if (n == 0 || sorted(0) < eps) return 0
    var hi = 1
    while (hi < n && sorted(hi) >= eps) hi = math.min(n, hi * 2)
    var lo = hi / 2
    var end = math.min(hi, n)
    // binary search in (lo, end]
    var l = lo; var r = end
    while (l < r) {
      val m = (l + r) / 2
      if (sorted(m) >= eps) l = m + 1 else r = m
    }
    l
  }
}

object SeqScanIndex {

  /** GS*-Index construction with hash-set intersection similarities. */
  def buildBasic(g: SeqGraph, measure: Similarity.Measure): SeqScanIndex =
    build(g, simsBasic(g, measure))

  /** Construction with §6.1 directed merge-based triangle counting. */
  def buildOpt(g: SeqGraph, measure: Similarity.Measure): SeqScanIndex =
    build(g, simsOpt(g, measure))

  /** Per-edge similarity map keyed by packed (minIdx, maxIdx). */
  private def key(u: Int, v: Int): Long =
    (math.min(u, v).toLong << 32) | (math.max(u, v).toLong & 0xffffffffL)

  /** Hash-set based sims: for each edge intersect the smaller closed
    * neighborhood against the larger one (Algorithm 1 as GS*-Index runs it).
    */
  def simsBasic(g: SeqGraph, measure: Similarity.Measure): mutable.LongMap[Double] = {
    val unweighted = measure == Similarity.Jaccard
    val nbrSets = Array.tabulate(g.n)(v => g.adj(v).toSet)
    val norms   = normSquares(g, unweighted)
    val sims    = new mutable.LongMap[Double](2 * g.numEdges.toInt + 1)
    g.edges.foreach { case (u, v, w0) =>
      val w = if (unweighted) 1.0 else w0
      val (lo, hi) = if (g.degree(u) <= g.degree(v)) (u, v) else (v, u)
      var dot = 2.0 * w
      val hiSet = nbrSets(hi)
      val ln = g.adj(lo); val lw = g.wts(lo)
      var i = 0
      while (i < ln.length) {
        val x = ln(i)
        if (x != hi && hiSet.contains(x)) {
          val wl = if (unweighted) 1.0 else lw(i)
          val wh = if (unweighted) 1.0 else g.weight(hi, x)
          dot += wl * wh
        }
        i += 1
      }
      sims(key(u, v)) = finish(g, measure, u, v, dot, norms)
    }
    sims
  }

  /** §6.1 sims: the merge kernel over all vertices on one thread. */
  def simsOpt(g: SeqGraph, measure: Similarity.Measure): mutable.LongMap[Double] = {
    val tri = new Array[Double](g.numEdges.toInt)
    mergeStripe(g, measure, tri, 0, 1)
    val byEdge = simsByEdge(g, measure, tri)
    val sims   = new mutable.LongMap[Double](2 * tri.length + 1)
    g.edges.zipWithIndex.foreach { case ((u, v, _), e) => sims(key(u, v)) = byEdge(e) }
    sims
  }

  /** The §6.1 merge kernel, shared by `simsOpt` (one stripe) and the Spark
    * build (one stripe per task): orient edges toward the higher-(degree,
    * id) endpoint, merge sorted out-neighborhoods to enumerate each triangle
    * once, and accumulate weight products into all three edges. Adds the
    * triangles whose lowest-ranked vertex a has a ≡ stripe (mod stripes).
    *
    * Accumulators are flat arrays indexed by the dense edge id
    * (`SeqGraph.eids`, carried alongside the directed out-neighborhoods),
    * not a hash map — the cache-friendliness of this accumulation is
    * precisely what the paper's merge-based optimization buys over the
    * hash-intersection approach.
    */
  def mergeStripe(g: SeqGraph, measure: Similarity.Measure, tri: Array[Double], stripe: Int, stripes: Int): Unit = {
    val unweighted = measure == Similarity.Jaccard
    def rank(v: Int): Long = (g.degree(v).toLong << 32) | v.toLong

    // Directed out-neighborhoods with aligned weights and edge ids
    // (sorted by neighbor index, inherited from adj).
    val out    = new Array[Array[Int]](g.n)
    val outW   = new Array[Array[Double]](g.n)
    val outEid = new Array[Array[Int]](g.n)
    var v = 0
    while (v < g.n) {
      val keepIdx = g.adj(v).indices.filter(i => rank(v) < rank(g.adj(v)(i))).toArray
      out(v) = keepIdx.map(g.adj(v))
      outW(v) = keepIdx.map(i => if (unweighted) 1.0 else g.wts(v)(i))
      outEid(v) = keepIdx.map(g.eids(v))
      v += 1
    }

    // For each directed edge (a -> b), merge out(a) and out(b).
    var a = stripe
    while (a < g.n) {
      val oa = out(a); val wa = outW(a); val ea = outEid(a)
      var bi = 0
      while (bi < oa.length) {
        val b = oa(bi); val wab = wa(bi); val eab = ea(bi)
        val ob = out(b); val wb = outW(b); val eb = outEid(b)
        var i = 0; var j = 0
        while (i < oa.length && j < ob.length) {
          val x = oa(i); val y = ob(j)
          if (x == y) {
            val wax = wa(i); val wbx = wb(j)
            // triangle (a, b, x): contribute to {a,b}, {a,x}, {b,x}
            tri(eab) += wax * wbx
            tri(ea(i)) += wab * wbx
            tri(eb(j)) += wab * wax
            i += 1; j += 1
          } else if (x < y) i += 1
          else j += 1
        }
        bi += 1
      }
      a += stripes
    }
  }

  /** Similarities by edge id from the triangle sums of every stripe:
    * dot = 2·w(u,v) + tri.
    */
  def simsByEdge(g: SeqGraph, measure: Similarity.Measure, tri: Array[Double]): Array[Double] = {
    val unweighted = measure == Similarity.Jaccard
    val norms = normSquares(g, unweighted)
    g.edges.zipWithIndex.map { case ((u, v, w), e) =>
      finish(g, measure, u, v, 2.0 * (if (unweighted) 1.0 else w) + tri(e), norms)
    }.toArray
  }

  /** Exact similarity of the edge in u's adjacency slot k: Algorithm 1 for
    * one edge, merging the sorted lists N(u) and N(v) for
    * dot = 2·w(u,v) + Σ_{x ∈ N(u)∩N(v)} w(u,x)·w(v,x) and finishing it
    * like `simsByEdge`, so unweighted values equal the kernel's bit for bit.
    */
  def edgeSim(g: SeqGraph, measure: Similarity.Measure, normSqs: Array[Double], u: Int, k: Int): Double = {
    val unweighted = measure == Similarity.Jaccard
    val v = g.adj(u)(k)
    val (au, wu, av, wv) = (g.adj(u), g.wts(u), g.adj(v), g.wts(v))
    var dot = 2.0 * (if (unweighted) 1.0 else wu(k))
    var i = 0; var j = 0
    while (i < au.length && j < av.length) {
      val x = au(i); val y = av(j)
      if (x == y) {
        dot += (if (unweighted) 1.0 else wu(i) * wv(j))
        i += 1; j += 1
      } else if (x < y) i += 1
      else j += 1
    }
    finish(g, measure, u, v, dot, normSqs)
  }

  /** Squared closed-neighborhood norms 1 + Σ w(v,x)² (all weights 1 when
    * `unweighted`); the final division uses sqrt(nsqU * nsqV) — the same
    * floating-point expression in every implementation, so unweighted
    * results are bit-identical across implementations.
    */
  def normSquares(g: SeqGraph, unweighted: Boolean): Array[Double] =
    Array.tabulate(g.n) { v =>
      var s = 1.0
      val w = g.wts(v)
      var i = 0
      while (i < w.length) { val x = if (unweighted) 1.0 else w(i); s += x * x; i += 1 }
      s
    }

  private def finish(
      g: SeqGraph,
      measure: Similarity.Measure,
      u: Int,
      v: Int,
      dot: Double,
      normSqs: Array[Double]): Double =
    measure match {
      case Similarity.Cosine  => dot / math.sqrt(normSqs(u) * normSqs(v))
      case Similarity.Jaccard => dot / ((g.degree(u) + 1) + (g.degree(v) + 1) - dot)
    }

  /** Shared index assembly: sort NO lists by descending sim and build CO. */
  def build(g: SeqGraph, sims: mutable.LongMap[Double]): SeqScanIndex =
    buildFromSims(g, (u, v) => sims(key(u, v)))

  /** Assemble the index from an arbitrary per-edge similarity function
    * (dense indices). Used by tests to feed Spark-computed sims into the
    * sequential query for FP-consistent comparisons.
    */
  def buildFromSims(g: SeqGraph, simOf: (Int, Int) => Double): SeqScanIndex = {
    val noNbr = new Array[Array[Int]](g.n)
    val noSim = new Array[Array[Double]](g.n)
    var maxMu = 1
    var v = 0
    while (v < g.n) {
      val nbrs = g.adj(v)
      val sims = nbrs.map(simOf(v, _))
      val order = g.neighborOrder(v, sims)
      noNbr(v) = order.map(nbrs)
      noSim(v) = order.map(sims)
      maxMu = math.max(maxMu, nbrs.length + 1)
      v += 1
    }
    // CO[mu] for mu in 2..maxMu: vertices with |N̄| ≥ mu, threshold =
    // similarity with the (mu-1)-th most similar neighbor.
    val coVert   = new Array[Array[Int]](maxMu + 1)
    val coThresh = new Array[Array[Double]](maxMu + 1)
    var mu = 2
    while (mu <= maxMu) {
      val entries = (0 until g.n).iterator
        .filter(u => g.degree(u) + 1 >= mu)
        .map(u => (u, noSim(u)(mu - 2)))
        .toArray
        .sortBy { case (u, t) => (-t, g.ids(u)) }
      coVert(mu) = entries.map(_._1)
      coThresh(mu) = entries.map(_._2)
      mu += 1
    }
    // mu = 0, 1 unused
    coVert(0) = Array.empty; coThresh(0) = Array.empty
    if (maxMu >= 1) { coVert(1) = Array.empty; coThresh(1) = Array.empty }
    new SeqScanIndex(g, noNbr, noSim, coVert, coThresh)
  }
}
