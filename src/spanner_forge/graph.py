"""Spanner graphs over a point set.

Exact shortest paths, exact all-pairs stretch verification, Euclidean
MST weight, summary metrics, the path-greedy builder, and an exact
branch-and-bound oracle for the sparsest / lightest (1+eps)-spanner on
tiny inputs.
"""

from __future__ import annotations

import heapq
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .geom import GEOM_RTOL, PointSet

# Greedy skip guard: a pair is skipped when the current graph distance is
# within this relative slack of t*|uv|.  Keeps knife-edge equalities (which
# the hard instances produce by construction) deterministic without
# affecting decisions whose true margin is meaningful.
GREEDY_RTOL = 1e-12

# Above this point count the matrix-based greedy would need too much
# memory; fall back to per-pair Dijkstra.
MATRIX_GREEDY_LIMIT = 4000

VERIFY_N_MAX = 5000


class GraphError(ValueError):
    pass


class Disconnected(GraphError):
    """Raised when a graph expected to be connected is not."""

    def __init__(self, pair):
        super().__init__(f"graph is disconnected; unreachable pair {pair}")
        self.pair = pair


class TooLarge(GraphError):
    pass


class RefusedTooLarge(GraphError):
    pass


class SpannerGraph:
    """Weighted undirected graph on point indices.

    Edges are stored as (u, v, w) with u < v, no parallel edges and no
    self-loops.  Instances are treated as immutable once built.
    """

    __slots__ = ("n", "edges", "_adj", "_csr", "meta")

    def __init__(self, n: int, edges, meta: dict | None = None):
        self.n = int(n)
        seen = set()
        norm = []
        for u, v, w in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            if (u, v) in seen:
                raise GraphError(f"parallel edge ({u},{v})")
            seen.add((u, v))
            norm.append((u, v, float(w)))
        self.edges = norm
        self._adj = None
        self._csr = None
        self.meta = dict(meta) if meta else {}

    @classmethod
    def from_pairs(cls, X: PointSet, pairs, meta: dict | None = None) -> "SpannerGraph":
        """Build a graph over X; weights are the Euclidean distances."""
        c = X.coords
        edges = [
            (u, v, float(np.linalg.norm(c[u] - c[v]))) for u, v in pairs
        ]
        return cls(X.n, edges, meta=meta)

    def edge_set(self) -> frozenset:
        return frozenset((u, v) for u, v, _ in self.edges)

    def weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    @property
    def adjacency(self):
        """Per-vertex list of (neighbor, weight)."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                adj[u].append((v, w))
                adj[v].append((u, w))
            self._adj = adj
        return self._adj

    def as_csr(self) -> csr_matrix:
        if self._csr is None:
            if self.edges:
                us = np.fromiter((e[0] for e in self.edges), dtype=np.int64)
                vs = np.fromiter((e[1] for e in self.edges), dtype=np.int64)
                ws = np.fromiter((e[2] for e in self.edges), dtype=np.float64)
                rows = np.concatenate([us, vs])
                cols = np.concatenate([vs, us])
                data = np.concatenate([ws, ws])
            else:
                rows = cols = np.zeros(0, dtype=np.int64)
                data = np.zeros(0, dtype=np.float64)
            self._csr = csr_matrix((data, (rows, cols)), shape=(self.n, self.n))
        return self._csr

    def validate_weights(self, X: PointSet, rtol: float = GEOM_RTOL) -> None:
        c = X.coords
        for u, v, w in self.edges:
            d = float(np.linalg.norm(c[u] - c[v]))
            if abs(w - d) > rtol * max(1.0, d):
                raise GraphError(f"edge ({u},{v}) weight {w} != distance {d}")

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        seen = bytearray(self.n)
        stack = [0]
        seen[0] = 1
        count = 1
        adj = self.adjacency
        while stack:
            u = stack.pop()
            for v, _ in adj[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == self.n

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpannerGraph(n={self.n}, m={len(self.edges)})"


@dataclass
class MetricsReport:
    edge_count: int
    sparsity: float
    weight: float
    mst_weight: float
    lightness: float
    max_stretch: float
    witness_pair: tuple

    def to_dict(self) -> dict:
        return {
            "edge_count": self.edge_count,
            "sparsity": self.sparsity,
            "weight": self.weight,
            "mst_weight": self.mst_weight,
            "lightness": self.lightness,
            "max_stretch": self.max_stretch,
            "witness_pair": list(self.witness_pair),
        }


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


def shortest_dist(G: SpannerGraph, s: int, t: int, cutoff: float | None = None) -> float:
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
    return bounded_dijkstra(G.adjacency, s, limit, t).get(t, math.inf)


def _worker_count() -> int:
    env = os.environ.get("SPANNER_FORGE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _stretch_chunk(G: SpannerGraph, X: PointSet, sources: np.ndarray):
    """Max stretch over pairs (s, t), s in sources, t > s.

    Returns (max_stretch, witness_pair, unreachable_pair_or_None); the
    witness is the lexicographically first argmax within the chunk.
    """
    gd = _csgraph_dijkstra(G.as_csr(), directed=False, indices=sources)
    c = X.coords
    best = -1.0
    witness = None
    for row_i, s in enumerate(sources):
        if s >= X.n - 1:
            continue
        eu = np.linalg.norm(c[s + 1 :] - c[s], axis=1)
        gr = gd[row_i, s + 1 :]
        if np.isinf(gr).any():
            t = int(np.argmax(np.isinf(gr))) + s + 1
            return math.nan, None, (int(s), t)
        ratio = gr / eu
        j = int(np.argmax(ratio))
        if ratio[j] > best:
            best = float(ratio[j])
            witness = (int(s), int(j + s + 1))
    return best, witness, None


def verify_stretch(
    G: SpannerGraph,
    X: PointSet,
    workers: int | None = None,
    n_max: int = VERIFY_N_MAX,
    force: bool = False,
):
    """Exact maximum stretch of G over X, with an argmax witness pair.

    Runs one single-source computation per vertex; refuses n > n_max
    unless ``force``.  Ties break to the lexicographically smallest
    pair.  Raises :class:`Disconnected` (carrying an unreachable pair)
    when G is not connected.
    """
    if G.n != X.n:
        raise GraphError("graph and point set sizes differ")
    if X.n > n_max and not force:
        raise RefusedTooLarge(
            f"n={X.n} exceeds verification cap {n_max}; pass force=True"
        )
    if X.n < 2:
        return 1.0, (0, 0)
    workers = workers or _worker_count()
    chunk = 64
    chunks = [
        np.arange(lo, min(lo + chunk, X.n - 1), dtype=np.int64)
        for lo in range(0, X.n - 1, chunk)
    ]
    if workers > 1 and len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda ch: _stretch_chunk(G, X, ch), chunks))
    else:
        results = [_stretch_chunk(G, X, ch) for ch in chunks]
    best = -1.0
    witness = None
    for mx, wit, bad in results:  # fixed chunk order keeps the reduction deterministic
        if bad is not None:
            raise Disconnected(bad)
        if wit is not None and mx > best:
            best, witness = mx, wit
    return best, witness


def emst_weight(X: PointSet) -> float:
    """Weight of a Euclidean minimum spanning tree (dense Prim scan)."""
    n = X.n
    if n <= 1:
        return 0.0
    c = X.coords
    in_tree = np.zeros(n, dtype=bool)
    in_tree[0] = True
    best = np.linalg.norm(c - c[0], axis=1)
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(best))
        total += float(best[j])
        in_tree[j] = True
        d = np.linalg.norm(c - c[j], axis=1)
        np.minimum(best, d, out=best)
        best[in_tree] = np.inf
    return total


def metrics(G: SpannerGraph, X: PointSet, workers: int | None = None, force: bool = False) -> MetricsReport:
    """Sparsity, lightness, weight and exact max stretch of G over X."""
    ms, wit = verify_stretch(G, X, workers=workers, force=force)
    w = G.weight()
    mst = emst_weight(X)
    return MetricsReport(
        edge_count=len(G.edges),
        sparsity=len(G.edges) / X.n,
        weight=w,
        mst_weight=mst,
        lightness=w / mst if mst > 0 else math.inf,
        max_stretch=ms,
        witness_pair=wit,
    )


def _sorted_pairs(X: PointSet):
    """All vertex pairs ordered by (length, u, v)."""
    n = X.n
    iu, iv = np.triu_indices(n, k=1)
    c = X.coords
    w = np.linalg.norm(c[iu] - c[iv], axis=1)
    order = np.lexsort((iv, iu, w))
    return iu[order], iv[order], w[order]


# Incremental exact APSP restricted to the rows and columns the new edge shortens.
def _path_greedy_matrix(X: PointSet, t: float) -> list:
    n = X.n
    iu, iv, w = _sorted_pairs(X)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    edges = []
    # chunked tolist() avoids both numpy scalar indexing and n^2 Python objects
    chunk = 1024
    for lo in range(0, len(w), chunk):
        for u, v, wk in zip(*(a[lo : lo + chunk].tolist() for a in (iu, iv, w))):
            if dist[u, v] <= t * wk * (1.0 + GREEDY_RTOL):
                continue
            edges.append((u, v, wk))
            # a -> u -> v -> b improves dist[a, b] only for a in A, b in B;
            # A and B are disjoint (a vertex in both would give 2 wk < 0).
            # dist stays exactly symmetric, so rows stand in for columns.
            du, dv = dist[u], dist[v]
            A = (du + wk < dv).nonzero()[0]
            B = (dv + wk < du).nonzero()[0]
            via = np.add.outer(du[A], dv[B])
            via += wk
            np.minimum(dist[A[:, None], B], via, out=via)
            dist[A[:, None], B] = via
            dist[B[:, None], A] = via.T
    return edges


def _path_greedy_dijkstra(X: PointSet, t: float) -> list:
    n = X.n
    iu, iv, w = _sorted_pairs(X)
    adj = [[] for _ in range(n)]
    edges = []
    for k in range(len(w)):
        u, v, wk = int(iu[k]), int(iv[k]), float(w[k])
        limit = t * wk * (1.0 + GREEDY_RTOL)
        if v in bounded_dijkstra(adj, u, limit, v):
            continue
        edges.append((u, v, wk))
        adj[u].append((v, wk))
        adj[v].append((u, wk))
    return edges


def path_greedy(X: PointSet, t: float, mode: str = "auto") -> SpannerGraph:
    """Path-greedy t-spanner.

    Processes pairs by increasing distance (ties lexicographic) and adds
    an edge iff the current graph distance exceeds t times the pair
    distance.  ``mode`` is "matrix" (incremental exact APSP restricted
    to the rows and columns the new edge shortens, fast for n up to a
    few thousand), "dijkstra", or "auto".
    """
    if t < 1.0:
        raise GraphError("stretch factor must be >= 1")
    if X.n < 2:
        return SpannerGraph(X.n, [], meta={"t": t})
    if mode == "auto":
        mode = "matrix" if X.n <= MATRIX_GREEDY_LIMIT else "dijkstra"
    if mode == "matrix":
        edges = _path_greedy_matrix(X, t)
    elif mode == "dijkstra":
        edges = _path_greedy_dijkstra(X, t)
    else:
        raise GraphError(f"unknown greedy mode {mode!r}")
    return SpannerGraph(X.n, edges, meta={"t": t, "builder": "path_greedy"})


# ---------------------------------------------------------------------------
# exact oracle for tiny instances


def _apsp_small(n: int, wmat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Floyd-Warshall over the edges selected by mask (dense, tiny n)."""
    d = np.where(mask, wmat, np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def brute_force_optimal(
    X: PointSet,
    eps: float,
    objective: str = "min_edges",
    limit_n: int = 10,
) -> SpannerGraph:
    """Exact optimal (1+eps)-spanner for tiny point sets.

    Branch-and-bound over all candidate pairs, seeded with the greedy
    solution as incumbent.  Edges whose removal alone breaks
    feasibility are forced up front; include branches update the exact
    distance matrix incrementally and exclude branches recheck
    feasibility of what remains.  ``objective`` is "min_edges" or
    "min_weight"; ties break toward the lexicographically smallest edge
    set.  Raises TooLarge above ``limit_n`` points.
    """
    n = X.n
    if n > limit_n:
        raise TooLarge(f"n={n} exceeds oracle limit {limit_n}")
    if objective not in ("min_edges", "min_weight"):
        raise GraphError(f"unknown objective {objective!r}")
    t = 1.0 + eps
    c = X.coords
    wmat = np.linalg.norm(c[:, None, :] - c[None, :, :], axis=2)
    target = t * wmat * (1.0 + GREEDY_RTOL)
    np.fill_diagonal(target, np.inf)

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # branch on long pairs first; excluding them early fails fast
    pairs.sort(key=lambda p: (-wmat[p], p))

    greedy = path_greedy(X, t)
    best_set = sorted(greedy.edge_set())
    if objective == "min_edges":
        best_cost = len(best_set)
    else:
        best_cost = float(sum(wmat[p] for p in best_set))

    def feasible_mask(mask: np.ndarray) -> bool:
        d = _apsp_small(n, wmat, mask)
        return bool(np.all(d <= target))

    full = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        full[u, v] = full[v, u] = True
    if not feasible_mask(full):
        raise GraphError("complete graph is not a (1+eps)-spanner (numerical)")

    # every feasible subset contains the edges whose lone removal breaks
    # the complete graph
    forced = []
    free = []
    for u, v in pairs:
        full[u, v] = full[v, u] = False
        if feasible_mask(full):
            free.append((u, v))
        else:
            forced.append((u, v))
        full[u, v] = full[v, u] = True
    m = len(free)

    d0 = np.full((n, n), np.inf)
    np.fill_diagonal(d0, 0.0)
    chosen = list(forced)
    cost0 = len(forced) if objective == "min_edges" else float(
        sum(wmat[p] for p in forced)
    )
    for u, v in forced:
        via = np.add.outer(d0[:, u], d0[v, :]) + wmat[u, v]
        np.minimum(d0, via, out=d0)
        np.minimum(d0, via.T, out=d0)

    min_free_w = min((wmat[p] for p in free), default=0.0)

    def lower_bound(cost, d):
        # connectivity: each missing component costs at least one edge
        finite = np.isfinite(d)
        comps = len({int(row.argmax()) for row in finite})
        need = comps - 1
        if need == 0 and not bool(np.all(d <= target)):
            need = 1
        if objective == "min_edges":
            return cost + need
        return cost + need * min_free_w

    def rec(idx: int, d: np.ndarray, avail_mask: np.ndarray, cost):
        nonlocal best_cost, best_set
        eps_cmp = 1e-12 * max(1.0, abs(best_cost))
        if lower_bound(cost, d) > best_cost + eps_cmp:
            return
        if bool(np.all(d <= target)):
            cset = sorted(chosen)
            if cost < best_cost - eps_cmp or (
                abs(cost - best_cost) <= eps_cmp and cset < best_set
            ):
                best_cost, best_set = cost, cset
            return  # supersets only cost more
        if idx == m:
            return
        u, v = free[idx]
        step = 1 if objective == "min_edges" else float(wmat[u, v])
        # exclude first (steers toward sparse solutions); viable only if
        # what remains can still span
        avail_mask[u, v] = avail_mask[v, u] = False
        can_exclude = feasible_mask(avail_mask)
        if can_exclude:
            rec(idx + 1, d, avail_mask, cost)
        avail_mask[u, v] = avail_mask[v, u] = True
        via = np.add.outer(d[:, u], d[v, :]) + wmat[u, v]
        d2 = np.minimum(d, via)
        np.minimum(d2, via.T, out=d2)
        chosen.append((u, v))
        rec(idx + 1, d2, avail_mask, cost + step)
        chosen.pop()

    rec(0, d0, full.copy(), cost0)
    return SpannerGraph.from_pairs(
        X, best_set, meta={"builder": "oracle", "objective": objective, "eps": eps}
    )


# ---------------------------------------------------------------------------
# edge list files: one "u v" pair of 0-based indices per line


def write_edge_list(G: SpannerGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for u, v, _ in sorted(G.edges):
            fh.write(f"{u} {v}\n")


def read_edge_list(path, X: PointSet) -> SpannerGraph:
    """Load an edge list; weights are recomputed from the coordinates."""
    pairs = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphError(f"{path}: line {lineno}: expected 'u v'")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphError(f"{path}: line {lineno}: bad index") from exc
            pairs.append((u, v))
    return SpannerGraph.from_pairs(X, pairs)
