import functools
import heapq
import itertools
import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from spanner_forge.geom import (
    A_HI,
    A_LO,
    B_HI,
    B_LO,
    BAND_TOL,
    GEOM_RTOL,
    DegenerateSegment,
    GeomError,
    PointSet,
    Region,
    normalize,
)
from spanner_forge.graph import Disconnected, GraphError
from spanner_forge.instances import gen_lightness_lb, gen_lightness_lb_x


def random_points(n, d, seed):
    return normalize(np.random.default_rng(seed).random((n, d)))


def int_grid(side, d):
    """The side^d integer grid; its minimum distance is already 1."""
    return PointSet(np.array(list(itertools.product(range(side), repeat=d)), dtype=float))


def point_dist(X, i, j) -> float:
    """Euclidean distance between points i and j of X, one ``norm`` call:
    the reference for the bits of ``geom._dot_lengths``."""
    return float(np.linalg.norm(X.coords[i] - X.coords[j]))


def validate_weights(G, X):
    """Every edge weight of G equals the Euclidean length of its pair."""
    for u, v, w in G.edges:
        d = point_dist(X, u, v)
        assert abs(w - d) <= GEOM_RTOL * max(1.0, d), f"edge ({u},{v}) weight {w} != distance {d}"


def check_invariants(H):
    """Separation and covering at every level of a net hierarchy, and a
    single top point (O(n^2) per level)."""
    c = H.points.coords
    for i, members in enumerate(H.levels):
        r = 2.0**i
        pts = c[members]
        if len(members) > 1:
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            np.fill_diagonal(d, np.inf)
            assert d.min() > r * (1.0 - GEOM_RTOL), f"separation fails at level {i}"
        if i > 0:
            prev = c[H.levels[i - 1]]
            d = np.linalg.norm(prev[:, None, :] - pts[None, :, :], axis=2)
            assert d.min(axis=1).max() <= r * (1.0 + GEOM_RTOL), f"covering fails at level {i}"
    assert len(H.levels[-1]) == 1, "top level must be a single point"


def net_parent(H, u, i):
    """The parent of (u, i) in a net hierarchy: the closest level-(i+1)
    point to u, ties to the smallest index."""
    net = H.levels[i + 1]
    # levels are ascending, so argmin's first minimum is the smallest index
    return int(net[np.argmin(H.points.distances()[u, net])])


def approximate_edge(H, spanner, u, v):
    """Cross edge of a net-tree spanner between the lowest-level distinct
    ancestors of u and v, as (u', v', level)."""
    assert u != v
    edge_set = spanner.edge_set()
    au, av = u, v
    top = len(H.levels) - 1
    for i in range(top + 1):
        if au != av and (min(au, av), max(au, av)) in edge_set:
            return au, av, i
        if i < top:
            au = net_parent(H, au, i)
            av = net_parent(H, av, i)
    raise AssertionError(f"no approximate edge for pair ({u},{v})")


def lemma_sequence(rng, eps, n_edges=None):
    """Random edge sequence whose projections cover a unit segment ab and
    whose total length is at most (1+eps)|ab|.

    The edges need not form a polygonal path.  Returns (edges, a, b)
    with edges as (p, q) coordinate pairs.
    """
    a = np.zeros(2)
    b = np.array([1.0, 0.0])
    m = n_edges or int(rng.integers(3, 20))
    cuts = np.sort(rng.random(m - 1))
    ts = np.concatenate([[0.0], cuts, [1.0]])
    dx = np.diff(ts)
    h_raw = np.abs(rng.normal(0.0, 1.0, m)) * dx
    budget = 1.0 + eps * rng.uniform(0.2, 0.95)

    def total(scale):
        return float(np.sum(np.hypot(dx, scale * h_raw)))

    lo, hi = 0.0, 1.0
    while total(hi) < budget:
        hi *= 2.0
        if hi > 1e9:
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if total(mid) < budget:
            lo = mid
        else:
            hi = mid
    scale = lo
    edges = []
    for i in range(m):
        y0 = rng.uniform(-0.2, 0.2)
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        p = np.array([ts[i], y0])
        q = np.array([ts[i + 1], y0 + sgn * scale * h_raw[i]])
        edges.append((p, q))
    return edges, a, b


def reconciles(report) -> bool:
    """Whether a pruning ``PhaseReport``'s counters add up: per bucket and
    in total for phase 1, over the type-2 edges for phase 2."""
    if report.phase == 1:
        for info in report.levels.values():
            if info["type1"] != info["pruned"] + info["kept"]:
                return False
        if report.genuine_substitutes > min(report.substitutes_added, report.type1_pruned):
            return False
        return report.type1_pruned == sum(i["pruned"] for i in report.levels.values())
    return report.type2_total == report.type2_kept + report.type2_dropped


# Geometry and graph helpers that only the tests use.


class ZeroVector(GeomError):
    pass


def angle_between(e1, e2) -> float:
    """Undirected angle between two vectors, in [0, pi/2].

    Computed as arccos(|e1.e2| / (|e1||e2|)); the absolute value folds
    antiparallel onto parallel.
    """
    v1 = np.asarray(e1, dtype=np.float64)
    v2 = np.asarray(e2, dtype=np.float64)
    n1 = float(np.linalg.norm(v1))
    n2 = float(np.linalg.norm(v2))
    if n1 == 0.0 or n2 == 0.0:
        raise ZeroVector("angle undefined for a zero vector")
    c = abs(float(np.dot(v1, v2))) / (n1 * n2)
    return math.acos(min(1.0, c))


def proj_fraction(s, t, x) -> float:
    """Signed fraction along st of the orthogonal projection of x.

    0 at s, 1 at t; negative or > 1 when the foot of the projection
    falls outside the segment.
    """
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    st = t - s
    d2 = float(np.dot(st, st))
    if d2 == 0.0:
        raise DegenerateSegment("s and t coincide")
    return float(np.dot(np.asarray(x, dtype=np.float64) - s, st)) / d2


def region_of(s, t, x, eps: float) -> Region:
    """Scalar reference for ``geom.region_codes``: classify x against the
    (1+eps)-ellipse with foci s and t.

    OUTSIDE when |sx|+|xt| > (1+eps)|st|; otherwise IN_A / IN_B when the
    projection fraction of x lies in the band around 3/8 resp. 5/8
    (closed intervals, tolerance 1e-12), else INSIDE_NEITHER.  Points
    whose projection falls outside the segment are never IN_A / IN_B.
    """
    if not 0.0 < eps < 1.0:
        raise GeomError("eps must lie in (0, 1)")
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    d = float(np.linalg.norm(t - s))
    if d == 0.0:
        raise DegenerateSegment("s and t coincide")
    ds = float(np.linalg.norm(x - s))
    dt = float(np.linalg.norm(x - t))
    if ds + dt > (1.0 + eps) * d * (1.0 + BAND_TOL):
        return Region.OUTSIDE
    f = proj_fraction(s, t, x)
    if A_LO - BAND_TOL <= f <= A_HI + BAND_TOL:
        return Region.IN_A
    if B_LO - BAND_TOL <= f <= B_HI + BAND_TOL:
        return Region.IN_B
    return Region.INSIDE_NEITHER


def low_angle_weight(edges, a, b, theta: float) -> float:
    """Total length of the edges making angle <= theta with segment ab.

    ``edges`` is a sequence of (p, q) endpoint pairs; zero-length
    entries contribute nothing.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = b - a
    if float(np.dot(ab, ab)) == 0.0:
        raise DegenerateSegment("a and b coincide")
    total = 0.0
    for p, q in edges:
        e = np.asarray(q, dtype=np.float64) - np.asarray(p, dtype=np.float64)
        ln = float(np.linalg.norm(e))
        if ln == 0.0:
            continue
        if angle_between(e, ab) <= theta + BAND_TOL:
            total += ln
    return total


# The package runs scipy's csgraph Dijkstra; this heap Dijkstra over
# adjacency lists is the independent reference the tests check it against.
def bounded_dijkstra(adj, source: int, limit: float, target: int | None = None) -> dict:
    """Dijkstra labels of the vertices settled within ``limit`` of ``source``.

    ``adj`` is a per-vertex list of (neighbor, weight) lists.  Labels
    above ``limit`` are never pushed; the search stops as soon as
    ``target`` is settled.  The returned dict lists vertices in settle
    order.
    """
    settled: dict = {}
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        if u == target:
            break
        for v, w in adj[u]:
            nd = d + w
            if nd <= limit and nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


@functools.lru_cache(maxsize=16)
def adjacency(G):
    """Per-vertex list of (neighbor, weight) of a graph, kept for reuse."""
    adj = [[] for _ in range(G.n)]
    for u, v, w in G.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def shortest_dist(G, s: int, t: int, cutoff: float | None = None) -> float:
    """Exact shortest-path distance from s to t (Dijkstra).

    Returns inf when t is unreachable; with ``cutoff`` the search stops
    once every frontier label exceeds it, returning inf for
    "unreachable within cutoff".
    """
    if not (0 <= s < G.n and 0 <= t < G.n):
        raise GraphError("vertex index out of range")
    if s == t:
        return 0.0
    limit = math.inf if cutoff is None else cutoff * (1.0 + GEOM_RTOL)
    return bounded_dijkstra(adjacency(G), s, limit, t).get(t, math.inf)


# The package computes its O(n^2) Euclidean lengths in row blocks through
# geom._lengths; these row-by-row scans are the references it is checked
# against, on the inputs below.


def coo_symmetric_csr(n, u, v, w):
    """``graph.symmetric_csr`` by scipy's COO-to-CSR conversion, which
    sorts each row's columns and sums entries on the same pair."""
    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    return csr_matrix((np.concatenate([w, w]), (rows, cols)), shape=(n, n))


def verify_stretch_rows(G, X):
    """verify_stretch as a per-row loop over undirected scipy Dijkstra."""
    c, best, witness = X.coords, -1.0, None
    for s in range(X.n - 1):
        row = dijkstra(G.as_csr(), directed=False, indices=s)
        eu = np.linalg.norm(c[s + 1 :] - c[s], axis=1)
        gr = row[s + 1 :]
        if np.isinf(gr).any():
            raise Disconnected((s, int(np.argmax(np.isinf(gr))) + s + 1))
        ratio = gr / eu
        j = int(np.argmax(ratio))
        if ratio[j] > best:
            best, witness = float(ratio[j]), (s, j + s + 1)
    return best, witness


def sorted_pairs(X):
    """All vertex pairs in (length, u, v) order, the order in which path
    greedy takes them: ``iu``, ``iv`` and the lengths ``norm(c[u] -
    c[v])`` of one whole-array ``norm(axis=1)``."""
    iu, iv = np.triu_indices(X.n, k=1)
    w = np.linalg.norm(X.coords[iu] - X.coords[iv], axis=1)
    order = np.lexsort((iv, iu, w))
    return iu[order], iv[order], w[order]


def prim_weight_rows(X):
    """EMST weight by dense Prim, one ``norm(axis=1)`` row per step."""
    n, c = X.n, X.coords
    if n <= 1:
        return 0.0
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = np.linalg.norm(c - c[0], axis=1)
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(best))
        total += float(best[j])
        in_tree[j] = True
        np.minimum(best, np.linalg.norm(c - c[j], axis=1), out=best)
        best[in_tree] = np.inf
    return total


def pairwise_extremes_rows(X):
    """(min, max) pairwise distance, one ``norm(axis=1)`` row per point."""
    lo, hi = math.inf, 0.0
    c = X.coords
    for i in range(X.n - 1):
        d = np.linalg.norm(c[i + 1 :] - c[i], axis=1)
        lo = min(lo, float(d.min()))
        hi = max(hi, float(d.max()))
    return lo, hi


def _uniform(n, d):
    return lambda: random_points(n, d, 100 * d + n)


# name: (points, greedy stretch factor).  The row blocks hold 64 rows, so
# n = 64, 65 and 130 end a block exactly, one past it and two past it;
# from d = 8 up the kernel takes numpy's own norm.
LENGTH_CASES = {
    "grid12": (lambda: int_grid(12, 2), 1.1),
    "line130": (lambda: PointSet(np.arange(130.0)[:, None]), 1.1),
    "collinear-d2": (lambda: PointSet(np.arange(70.0)[:, None] * [[0.6, 0.8]]), 1.1),
    "arc": (lambda: normalize(gen_lightness_lb(0.01).points), 1.01),
    "arc-x": (lambda: normalize(gen_lightness_lb_x(0.025, 2).points), 1.05),
    **{
        f"uniform-d{d}-n{n}": (_uniform(n, d), 1.1)
        for d in (1, 4, 9)
        for n in (2, 64, 65, 130)
    },
}
