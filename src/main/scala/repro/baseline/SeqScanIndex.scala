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
  * union-find — the GS*-Index query algorithm. The walk is a stripe kernel
  * (`clusterStripe`): the sequential query runs one stripe,
  * `repro.core.ScanQuery` runs one stripe on the driver below its grain
  * and p stripes in Spark tasks over the `IndexLayout` (this index's
  * arrays without its graph), broadcast on first need, above it, and all
  * finish with `merge` over the driver's graph, as does ppSCAN-like
  * (`PpScan`) over its own ε-neighbor lists. Both queries find hubs and
  * outliers with `roles` on the driver. Border vertices use the
  * deterministic most-similar-core rule (§7.3.4) so outputs match across
  * implementations exactly.
  */
final class SeqScanIndex(val g: SeqGraph, layout: IndexLayout)
    extends IndexLayout(layout.noNbr, layout.noSim, layout.coVert, layout.coThresh) {
  import SeqScanIndex.merge

  /** Clustering at (μ, ε): map original-vertex-id -> cluster label, where
    * the label is the minimum original core id in the cluster's component.
    */
  def cluster(mu: Int, eps: Double): Map[Long, Long] =
    merge(g, cores(mu, eps), Seq(clusterStripe(mu, eps, 0, 1))).toMap

  /** Hubs and outliers (§4.3) given a clustering. */
  def hubsAndOutliers(clusters: Map[Long, Long]): Map[Long, String] = {
    val labels = SeqScanIndex.labels(g.ids, clusters.iterator)
    SeqScanIndex.roles(g, labels).toMap
  }
}

/** The index's NO and CO arrays without the graph, over its dense ids: what
  * the Spark index keeps (`repro.core.ScanIndex.layout`) and the query
  * stripes read, broadcast only when a task reads it.
  *
  * - NO[v] = (`noNbr(v)`, `noSim(v)`): v's neighbors by descending
  *   similarity, ties by ascending id (`SeqScanIndex.precedes`).
  * - CO[μ] = (`coVert(μ)`, `coThresh(μ)`) for μ in 2..maxMu: the vertices
  *   with deg + 1 ≥ μ by descending threshold, v's NO similarity at slot
  *   μ−2, ties by ascending id; CO[0] and CO[1] are empty.
  */
class IndexLayout(
    val noNbr: Array[Array[Int]],
    val noSim: Array[Array[Double]],
    val coVert: Array[Array[Int]],
    val coThresh: Array[Array[Double]])
    extends Serializable {
  import SeqScanIndex.{Part, prefixEnd, walkEpsEdges}

  val maxMu: Int = coVert.length - 1

  /** Number of cores at (μ, ε): the length of CO[μ]'s prefix with
    * threshold ≥ ε.
    */
  private def coreCount(mu: Int, eps: Double): Int =
    if (mu < 2 || mu > maxMu) 0 else prefixEnd(coThresh(mu), eps)

  /** Core vertices at (μ, ε): the prefix of CO[μ] with threshold ≥ ε. */
  def cores(mu: Int, eps: Double): Array[Int] = {
    val c = coreCount(mu, eps)
    if (c == 0) Array.empty else coVert(mu).take(c)
  }

  /** v is a core at (μ, ε) iff its CO[μ] threshold, the μ-th entry of its
    * closed neighbor order (NO slot μ−2), is ≥ ε: O(1), no core set.
    */
  private def isCore(v: Int, mu: Int, eps: Double): Boolean =
    noSim(v).length + 1 >= mu && noSim(v)(mu - 2) >= eps

  /** The cluster kernel's work bound over `cores`: the length of each
    * one's ε-prefix of NO, found by one doubling search per core.
    */
  def epsPrefixes(cores: Array[Int], eps: Double): Long =
    cores.iterator.map(v => prefixEnd(noSim(v), eps).toLong).sum

  /** Algorithm 5 for the cores at positions ≡ `stripe` (mod `stripes`) of
    * the (μ, ε) prefix of CO[μ]: the ε-edge walk over each one's NO, with
    * the O(1) core test. O(the stripe's ε-edges).
    */
  def clusterStripe(mu: Int, eps: Double, stripe: Int, stripes: Int): Part =
    walkEpsEdges(eps, Iterator.range(stripe, coreCount(mu, eps), stripes).map { j =>
      val v = coVert(mu)(j)
      (v, noNbr(v), noSim(v))
    }, isCore(_, mu, eps))
}

object SeqScanIndex {

  /** One query stripe's output: spanning-forest edges between cores and
    * each border vertex's best core as (similarity, core), in dense ids.
    */
  final case class Part(forest: Array[(Int, Int)], borders: Map[Int, (Double, Int)])

  /** Algorithm 5's ε-edge walk, shared by the index query and ppSCAN-like:
    * for each core v with its neighbors `nbrs` and their similarities
    * `sims`, up to the first one below ε (the ε-prefix when sorted like
    * NO), union core–core edges in a local union-find and keep each
    * non-core neighbor's best core (highest similarity, ties to the lower
    * id). Returns the spanning forest of those unions and the border
    * picks, both O(the ε-edges walked).
    */
  def walkEpsEdges(eps: Double, cores: Iterator[(Int, Array[Int], Array[Double])], isCore: Int => Boolean): Part = {
    val (uf, forest, borders) = (new UnionFind, Array.newBuilder[(Int, Int)], mutable.HashMap.empty[Int, (Double, Int)])
    cores.foreach { case (v, nbrs, sims) =>
      var i = 0
      while (i < nbrs.length && sims(i) >= eps) {
        val u = nbrs(i)
        if (!isCore(u)) offer(borders, u, sims(i), v)
        else if (uf.union(v, u)) forest += ((v, u))
        i += 1
      }
    }
    Part(forest.result(), borders.toMap)
  }

  /** Joins the walks of one query: unions their forests, labels each
    * component with its minimum core id, and gives each border vertex the
    * cluster of its best core over all walks (the `walkEpsEdges` rule).
    * Returns (original id, cluster) for every core in `cores` and every
    * border vertex.
    */
  def merge(g: SeqGraph, cores: Array[Int], parts: Seq[Part]): Array[(Long, Long)] = {
    val (uf, best) = (new UnionFind, mutable.HashMap.empty[Int, (Double, Int)])
    parts.foreach(_.forest.foreach { case (a, b) => uf.union(a, b) })
    parts.foreach(_.borders.foreach { case (u, (s, c)) => offer(best, u, s, c) })
    // Dense ids ascend with original ids, so the minimum root is the
    // minimum core id.
    def label(v: Int): Long = g.ids(uf.find(v))
    cores.map(v => g.ids(v) -> label(v)) ++ best.iterator.map { case (u, (_, c)) => g.ids(u) -> label(c) }
  }

  /** Keep (s, core) as u's best core if it beats the current pick: higher
    * similarity, ties to the lower core id.
    */
  private def offer(best: mutable.HashMap[Int, (Double, Int)], u: Int, s: Double, core: Int): Unit =
    if (best.get(u).forall { case (bs, bc) => s > bs || (s == bs && core < bc) }) best(u) = (s, core)

  /** Union-find over dense ids whose root is always its component's
    * minimum; sparse, so it costs O(the vertices it links).
    */
  private final class UnionFind {
    private val parent = mutable.HashMap.empty[Int, Int]
    def find(x: Int): Int = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent(r)
      var c = x
      while (c != r) { val nx = parent(c); parent(c) = r; c = nx }
      r
    }
    /** Link the larger root under the smaller; true if a and b were apart. */
    def union(a: Int, b: Int): Boolean = {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
      ra != rb
    }
  }

  /** A clustering as dense labels over `ids` (ascending original ids):
    * each distinct cluster of `clusters` (original id -> cluster) gets a
    * label from 0 up, each vertex it leaves out −1, which no cluster
    * shares whatever the ids' signs. Vertices not in `ids` are ignored.
    * Roles, modularity and ARI all read this array.
    */
  def labels(ids: Array[Long], clusters: Iterator[(Long, Long)]): Array[Int] = {
    val (out, dense) = (Array.fill(ids.length)(-1), mutable.HashMap.empty[Long, Int])
    clusters.foreach { case (v, c) =>
      val i = java.util.Arrays.binarySearch(ids, v)
      if (i >= 0) out(i) = dense.getOrElseUpdate(c, dense.size)
    }
    out
  }

  /** Hubs and outliers (§4.3) from the clustered side, over `labels`
    * (dense, −1 for unclustered): only an unclustered neighbor of a
    * clustered vertex can be a hub, so walk the clustered vertices'
    * adjacency and note for each unclustered neighbor the one cluster it
    * sees, or −2 once it sees a second. Returns (original id, role) for
    * every unclustered vertex: a hub if it saw two or more clusters,
    * otherwise an outlier. O(vol(clustered vertices)) plus one pass over
    * `labels`.
    */
  def roles(g: SeqGraph, labels: Array[Int]): Array[(Long, String)] = {
    val seen = Array.fill(g.n)(-1)
    var v = 0
    while (v < g.n) {
      val c = labels(v)
      if (c >= 0) {
        val a = g.adj(v)
        var i = 0
        while (i < a.length) {
          val u = a(i)
          if (labels(u) < 0) seen(u) = if (seen(u) == -1 || seen(u) == c) c else -2
          i += 1
        }
      }
      v += 1
    }
    labels.indices.iterator.filter(labels(_) < 0).map(v => g.ids(v) -> (if (seen(v) == -2) "hub" else "outlier")).toArray
  }

  /** Index of the first entry of `sorted` (descending) strictly below eps —
    * doubling search as in Algorithms 2/3 (retained for fidelity to the
    * paper's prefix-retrieval structure).
    */
  private[baseline] def prefixEnd(sorted: Array[Double], eps: Double): Int = {
    val n = sorted.length
    if (n == 0 || sorted(0) < eps) return 0
    var hi = 1
    while (hi < n && sorted(hi) >= eps) hi = math.min(n, hi * 2)
    // binary search in (hi / 2, min(hi, n)]
    var l = hi / 2; var r = math.min(hi, n)
    while (l < r) {
      val m = (l + r) / 2
      if (sorted(m) >= eps) l = m + 1 else r = m
    }
    l
  }

  /** GS*-Index construction with hash-set intersection similarities. */
  def buildBasic(g: SeqGraph, measure: Similarity.Measure): SeqScanIndex = {
    val sims = simsBasic(g, measure)
    buildFromSims(g, g.edges.map { case (u, v, _) => sims(key(u, v)) }.toArray)
  }

  /** Construction with §6.1 directed merge-based triangle counting. */
  def buildOpt(g: SeqGraph, measure: Similarity.Measure): SeqScanIndex =
    buildFromSims(g, optByEdge(g, measure))

  /** Per-edge similarity map keyed by packed (minIdx, maxIdx). */
  private def key(u: Int, v: Int): Long =
    (math.min(u, v).toLong << 32) | (math.max(u, v).toLong & 0xffffffffL)

  /** Hash-set based sims: for each edge intersect the smaller closed
    * neighborhood against the larger one (Algorithm 1 as GS*-Index runs it).
    */
  def simsBasic(g: SeqGraph, measure: Similarity.Measure): mutable.LongMap[Double] = {
    val unweighted = measure == Similarity.Jaccard
    val nbrSets = Array.tabulate(g.n)(v => g.adj(v).toSet)
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
      sims(key(u, v)) = finish(g, measure, u, v, dot)
    }
    sims
  }

  private def optByEdge(g: SeqGraph, measure: Similarity.Measure): Array[Double] = {
    val tri = new Array[Double](g.numEdges.toInt)
    mergeStripe(g, measure, tri, 0, 1)
    simsByEdge(g, measure, tri)
  }

  /** The §6.1 merge kernel, shared by `buildOpt` (one stripe) and the Spark
    * build (one stripe per task): over the graph's orientation toward the
    * higher-(degree, id) endpoint (`SeqGraph.out`, built once per graph),
    * merge sorted out-neighborhoods to enumerate each triangle once, and
    * accumulate weight products into all three edges. Adds the triangles
    * whose lowest-ranked vertex a has a ≡ stripe (mod stripes).
    *
    * Accumulators are flat arrays indexed by the dense edge id
    * (`SeqGraph.outEid`, aligned with the out-neighborhoods),
    * not a hash map — the cache-friendliness of this accumulation is
    * precisely what the paper's merge-based optimization buys over the
    * hash-intersection approach.
    */
  def mergeStripe(g: SeqGraph, measure: Similarity.Measure, tri: Array[Double], stripe: Int, stripes: Int): Unit = {
    // The graph's orientation (`SeqGraph.out`), its weights replaced by one
    // array of ones for the unweighted measure.
    val (out, outEid) = (g.out, g.outEid)
    val ones = if (measure == Similarity.Jaccard) Array.fill(out.foldLeft(0)(_ max _.length))(1.0) else null
    def outW(v: Int): Array[Double] = if (ones == null) g.outW(v) else ones

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

  /** `mergeStripe`'s work bound: for each oriented edge a → b, the merge
    * length |out(a)| + |out(b)|. O(m) over the orientation.
    */
  def mergeWork(g: SeqGraph): Long = {
    val out = g.out
    var w = 0L; var a = 0
    while (a < g.n) {
      val oa = out(a)
      var bi = 0
      while (bi < oa.length) { w += oa.length + out(oa(bi)).length; bi += 1 }
      a += 1
    }
    w
  }

  /** Similarities by edge id from the triangle sums of every stripe:
    * dot = 2·w(u,v) + tri.
    */
  def simsByEdge(g: SeqGraph, measure: Similarity.Measure, tri: Array[Double]): Array[Double] = {
    val unweighted = measure == Similarity.Jaccard
    val sims = new Array[Double](tri.length)
    for (u <- 0 until g.n) {
      val (a, w, e) = (g.adj(u), g.wts(u), g.eids(u))
      for (k <- a.indices) if (a(k) > u)
        sims(e(k)) = finish(g, measure, u, a(k), 2.0 * (if (unweighted) 1.0 else w(k)) + tri(e(k)))
    }
    sims
  }

  /** Exact similarity of the edge in u's adjacency slot k: Algorithm 1 for
    * one edge, merging the sorted lists N(u) and N(v) for
    * dot = 2·w(u,v) + Σ_{x ∈ N(u)∩N(v)} w(u,x)·w(v,x) and finishing it
    * like `simsByEdge`, so unweighted values equal the kernel's bit for bit.
    */
  def edgeSim(g: SeqGraph, measure: Similarity.Measure, u: Int, k: Int): Double = {
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
    finish(g, measure, u, v, dot)
  }

  /** σ(u, v) from its dot: over the graph's norms for cosine
    * (`SeqGraph.sqNorms`), over the closed degrees for Jaccard.
    */
  private def finish(g: SeqGraph, measure: Similarity.Measure, u: Int, v: Int, dot: Double): Double =
    measure match {
      case Similarity.Cosine  => dot / math.sqrt(g.sqNorms(u) * g.sqNorms(v))
      case Similarity.Jaccard => dot / ((g.degree(u) + 1) + (g.degree(v) + 1) - dot)
    }

  /** Assemble the index from similarities by edge id (`SeqGraph.eids`):
    * the one-stripe case of the Spark build's `orders` and `layout`.
    */
  def buildFromSims(g: SeqGraph, sims: Array[Double]): SeqScanIndex =
    new SeqScanIndex(g, layout(g, Array(orders(g, sims, 0, 1))))

  /** One vertex stripe's share of the index, as flat primitive arrays:
    * NO[v] for its vertices v ≡ stripe (mod stripes), ascending, deg(v)
    * entries each (`noNbr`, `noSim`), and its sorted run of CO[μ] at
    * `coStart(μ)` until `coStart(μ + 1)` (`coVert`, `coThresh`), for μ in
    * 2..maxDegree + 1.
    */
  final class StripeOrders(
      val noNbr: Array[Int],
      val noSim: Array[Double],
      val coStart: Array[Int],
      val coVert: Array[Int],
      val coThresh: Array[Double])
      extends Serializable

  /** Sort NO[v] for the stripe's vertices and their CO runs: each vertex
    * drops its NO entries straight into its runs of CO[2..deg+1] — v's NO
    * entry at slot μ−2 is its CO[μ] threshold — and each run is sorted in
    * NO's order. The Spark build runs one stripe per task.
    */
  def orders(g: SeqGraph, sims: Array[Double], stripe: Int, stripes: Int): StripeOrders = {
    val maxMu = g.maxDegree + 1
    // size(μ) = #{stripe vertices with deg + 1 ≥ μ}, the length of run μ.
    val (size, coStart) = (new Array[Int](maxMu + 2), new Array[Int](maxMu + 2))
    for (v <- stripe until g.n by stripes) size(g.degree(v) + 1) += 1
    for (mu <- maxMu - 1 to 2 by -1) size(mu) += size(mu + 1)
    for (mu <- 2 to maxMu) coStart(mu + 1) = coStart(mu) + size(mu)
    val total = coStart(maxMu + 1)
    val (noNbr, noSim, coVert, coThresh) = (new Array[Int](total), new Array[Double](total), new Array[Int](total), new Array[Double](total))
    val fill = coStart.clone()
    var off  = 0
    for (v <- stripe until g.n by stripes) {
      val (a, e) = (g.adj(v), g.eids(v))
      System.arraycopy(a, 0, noNbr, off, a.length)
      for (k <- a.indices) noSim(off + k) = sims(e(k))
      sortBySim(noSim, noNbr, off, off + a.length)
      for (k <- a.indices) {
        val mu = k + 2
        coVert(fill(mu)) = v; coThresh(fill(mu)) = noSim(off + k); fill(mu) += 1
      }
      off += a.length
    }
    for (mu <- 2 to maxMu) sortBySim(coThresh, coVert, coStart(mu), coStart(mu + 1))
    new StripeOrders(noNbr, noSim, coStart, coVert, coThresh)
  }

  /** The index over every stripe's `orders`, stripe i holding v ≡ i (mod
    * p): NO[v] is copied out of its stripe and each CO[μ] merges the p
    * sorted runs, O(p) per entry. O(p·m) in all.
    */
  def layout(g: SeqGraph, parts: Array[StripeOrders]): IndexLayout = {
    val (p, maxMu) = (parts.length, g.maxDegree + 1)
    val (noNbr, noSim, off) = (new Array[Array[Int]](g.n), new Array[Array[Double]](g.n), new Array[Int](p))
    for (v <- 0 until g.n) {
      val (i, d) = (v % p, g.degree(v))
      noNbr(v) = java.util.Arrays.copyOfRange(parts(i).noNbr, off(i), off(i) + d)
      noSim(v) = java.util.Arrays.copyOfRange(parts(i).noSim, off(i), off(i) + d)
      off(i) += d
    }
    val (coVert, coThresh) = (Array.fill(maxMu + 1)(Array.emptyIntArray), Array.fill(maxMu + 1)(Array.emptyDoubleArray))
    val head = new Array[Int](p)
    for (mu <- 2 to maxMu) {
      var size = 0
      for (i <- 0 until p) { head(i) = parts(i).coStart(mu); size += parts(i).coStart(mu + 1) - head(i) }
      val (cv, ct) = (new Array[Int](size), new Array[Double](size))
      for (k <- 0 until size) {
        // The run whose head comes first in NO's order.
        var best = -1
        for (i <- 0 until p) {
          val s = parts(i); val h = head(i)
          if (h < s.coStart(mu + 1) &&
              (best < 0 || precedes(s.coThresh(h), s.coVert(h), parts(best).coThresh(head(best)), parts(best).coVert(head(best)))))
            best = i
        }
        cv(k) = parts(best).coVert(head(best)); ct(k) = parts(best).coThresh(head(best)); head(best) += 1
      }
      coVert(mu) = cv; coThresh(mu) = ct
    }
    new IndexLayout(noNbr, noSim, coVert, coThresh)
  }

  /** (s, v) comes before (t, w) in the order of NO and of each CO[μ]:
    * descending similarity under `java.lang.Double.compare` (so 0.0 before
    * −0.0), ties by ascending dense id, so by ascending original id.
    */
  def precedes(s: Double, v: Int, t: Double, w: Int): Boolean = {
    val c = java.lang.Double.compare(s, t)
    c > 0 || (c == 0 && v < w)
  }

  /** Sort the aligned `sims` and `vs` in place over [from, until) by
    * `precedes`: a merge sort on the primitive arrays, insertion sort on
    * runs of at most 32.
    */
  def sortBySim(sims: Array[Double], vs: Array[Int], from: Int, until: Int): Unit =
    if (until - from > 1) mergeSort(sims, vs, from, until, new Array[Double]((until - from + 1) / 2), new Array[Int]((until - from + 1) / 2))

  private def mergeSort(s: Array[Double], v: Array[Int], lo: Int, hi: Int, ts: Array[Double], tv: Array[Int]): Unit =
    if (hi - lo <= 32) {
      for (i <- lo + 1 until hi) {
        val x = s(i); val y = v(i)
        var j = i - 1
        while (j >= lo && precedes(x, y, s(j), v(j))) { s(j + 1) = s(j); v(j + 1) = v(j); j -= 1 }
        s(j + 1) = x; v(j + 1) = y
      }
    } else {
      val mid = (lo + hi) >>> 1
      mergeSort(s, v, lo, mid, ts, tv)
      mergeSort(s, v, mid, hi, ts, tv)
      // Merge the left half, moved aside, with the right half in place.
      val n = mid - lo
      System.arraycopy(s, lo, ts, 0, n); System.arraycopy(v, lo, tv, 0, n)
      var i = 0; var j = mid; var k = lo
      while (i < n) {
        if (j < hi && precedes(s(j), v(j), ts(i), tv(i))) { s(k) = s(j); v(k) = v(j); j += 1 }
        else { s(k) = ts(i); v(k) = tv(i); i += 1 }
        k += 1
      }
    }
}
