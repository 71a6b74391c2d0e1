"""Spanner graphs over a point set.

Exact all-pairs stretch verification, Euclidean MST weight, summary
metrics, the path-greedy builder, and an exact branch-and-bound oracle
for the sparsest / lightest (1+eps)-spanner on tiny inputs.  Verification
runs scipy's csgraph Dijkstra on a CSR.  On a graph with more than one
block of sources that holds at least half of all pairs, it first bounds
each source's ratios by direct edges and two-hop paths, on a dense n x n
weight matrix, and searches only the sources whose bound can still win.
The oracle runs a dense Floyd-Warshall (:func:`_apsp_small`) on its at
most ten points; it starts its search with no incumbent, so it builds no
greedy spanner.  scipy is imported inside the functions that build or
search a CSR, so that importing this module does not load it.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import asdict, dataclass
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from .geom import _ROW_BLOCK, PointSet, _dot_lengths, _lengths

if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

# Greedy skip guard: a pair is skipped when the current graph distance is
# within this relative slack of t*|uv|.  Keeps knife-edge equalities (which
# the hard instances produce by construction) deterministic without
# affecting decisions whose true margin is meaningful.
GREEDY_RTOL = 1e-12

# Largest point count brute_force_optimal accepts.
ORACLE_N_MAX = 10
# the oracle holds a set of candidate edges in the bits of one uint64 word
assert ORACLE_N_MAX * (ORACLE_N_MAX - 1) // 2 <= 64


class GraphError(ValueError):
    pass


class Disconnected(GraphError):
    """Raised when a graph expected to be connected is not."""

    def __init__(self, pair):
        super().__init__(f"graph is disconnected; unreachable pair {pair}")
        self.pair = pair


class TooLarge(GraphError):
    pass


class BadEdge(GraphError):
    """An edge rejected by :func:`_ordered_pairs`; ``index`` is its
    position in the input."""

    def __init__(self, msg, index):
        super().__init__(msg)
        self.index = index


def _ordered_pairs(n: int, u: np.ndarray, v: np.ndarray):
    """Endpoints of the edges u[k]-v[k] as (min, max) arrays.

    Raises :class:`BadEdge` for the first bad edge in input order,
    checking each edge for a self-loop, then an endpoint outside
    [0, n), then an earlier edge on the same pair.
    """
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    loop = u == v
    out = ~loop & ((lo < 0) | (hi >= n))
    bad = loop | out
    key = np.where(bad, -1, lo * n + hi)
    # a stable sort puts each pair's first occurrence first
    order = np.argsort(key, kind="stable")
    ks = key[order]
    bad[order[1:]] |= (ks[1:] == ks[:-1]) & (ks[1:] >= 0)
    if bad.any():
        k = int(np.argmax(bad))
        a, b = int(lo[k]), int(hi[k])
        if loop[k]:
            raise BadEdge(f"self-loop at vertex {a}", k)
        if out[k]:
            raise BadEdge(f"edge ({a},{b}) out of range for n={n}", k)
        raise BadEdge(f"parallel edge ({a},{b})", k)
    return lo, hi


def sum_in_order(values) -> float:
    """0.0 plus ``values`` left to right, as ``sum()`` adds up to Python 3.11;
    from 3.12 on ``sum()`` compensates, and ``np.sum`` adds pairwise."""
    return float(np.add.accumulate(np.append(0.0, values))[-1])


def symmetric_csr(n: int, u, v, w) -> csr_matrix:
    """n x n CSR holding both arcs of each edge u[k]-v[k] of weight w[k].

    The edges must not repeat a pair.  The arrays are built directly:
    ``indptr`` from the row counts, and ``indices`` and ``data`` in
    (row, column) order by one sort, so they equal those of scipy's
    COO-to-CSR conversion.  Searches run on it as a directed graph: each
    edge is then relaxed once from each side, with no transposed copy.
    """
    from scipy.sparse import csr_matrix

    rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
    # no pair repeats and none is a loop, so the keys are distinct and any
    # sort gives this order; the stable kind is kept because it merges the
    # presorted runs of a net tree's ordered pairs, where it is the faster
    order = np.argsort(rows * n + cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    # scipy narrows the index arrays to int32 where they fit, as COO does
    return csr_matrix((np.concatenate([w, w])[order], cols[order], indptr), shape=(n, n))


class SpannerGraph:
    """Weighted undirected graph on point indices.

    The edges are three read-only columns in input order: ``u`` and
    ``v`` (int64, u < v) and ``w`` (float64), with no parallel edges
    and no self-loops.  ``edges`` lists them as (u, v, w) tuples, built
    on first read.  Instances are treated as immutable once built.
    """

    __slots__ = ("n", "u", "v", "w", "_edges", "_csr", "meta")

    def __init__(self, n: int, edges, meta: dict | None = None):
        # item j of every row, converted as int or float would
        rows = list(edges)
        u, v, w = (np.fromiter(map(itemgetter(j), rows), dt, len(rows))
                   for j, dt in enumerate((np.int64, np.int64, np.float64)))
        self._store(int(n), *_ordered_pairs(int(n), u, v), w, meta)

    def _store(self, n: int, u, v, w, meta) -> None:
        """Keep columns already checked by :func:`_ordered_pairs`."""
        for a in (u, v, w):
            a.flags.writeable = False
        self.n, self.u, self.v, self.w = n, u, v, w
        self._edges = self._csr = None
        self.meta = dict(meta) if meta else {}

    @classmethod
    def from_pairs(cls, X: PointSet, pairs, meta: dict | None = None) -> "SpannerGraph":
        """Build a graph over X from a sequence of pairs or an (m, 2)
        integer array; weights are the Euclidean distances.

        The pairs are checked before any coordinate is read.
        """
        p = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        u, v = _ordered_pairs(X.n, p[:, 0], p[:, 1])
        G = cls.__new__(cls)
        G._store(X.n, u, v, _dot_lengths(X.coords, u, v), meta)
        return G

    @classmethod
    def from_columns(cls, n: int, u, v, w, meta: dict | None = None) -> "SpannerGraph":
        """Build a graph from edge columns ``u``, ``v`` and ``w``, checked as
        the constructor checks its rows; ``u`` and ``v`` are widened to int64."""
        u, v = (np.asarray(a, dtype=np.int64) for a in (u, v))
        G = cls.__new__(cls)
        G._store(int(n), *_ordered_pairs(int(n), u, v), np.asarray(w, dtype=np.float64), meta)
        return G

    @property
    def edges(self) -> list:
        """The edges as (u, v, w) tuples of Python numbers."""
        if self._edges is None:
            self._edges = list(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))
        return self._edges

    def edge_set(self) -> frozenset:
        return frozenset(zip(self.u.tolist(), self.v.tolist()))

    def weight(self) -> float:
        """The edge weights summed left to right, in edge order."""
        return sum_in_order(self.w)

    def as_csr(self) -> csr_matrix:
        if self._csr is None:
            self._csr = symmetric_csr(self.n, self.u, self.v, self.w)
        return self._csr

    def is_connected(self) -> bool:
        from scipy.sparse.csgraph import connected_components

        # scipy counts 0 components when n = 0
        return self.n <= 1 or connected_components(self.as_csr(), directed=False)[0] == 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpannerGraph(n={self.n}, m={len(self.u)})"


def _csgraph_dijkstra(csr, **kwargs):
    """scipy's csgraph Dijkstra, the one search :func:`verify_stretch` runs."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(csr, **kwargs)


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
        return {**asdict(self), "witness_pair": list(self.witness_pair)}


def verify_stretch(G: SpannerGraph, X: PointSet):
    """Exact maximum stretch of G over X, with an argmax witness pair.

    Runs single-source computations, 64 sources per scipy call.  The CSR
    already holds both arcs of every edge, so scipy runs it as a directed
    graph: each edge is relaxed once from each side, with no transposed
    copy per call, and the labels are those of the undirected search.
    The lengths and ratios of a block's pairs right of the diagonal are
    taken in one array pass.  Ties break to the lexicographically
    smallest pair.  Raises :class:`Disconnected` (carrying the first
    unreachable pair) when G is not connected.

    A graph with more than one block of sources (n - 1 > 64) and at
    least as many edges as missing pairs is screened first: each source
    s gets an upper bound on the ratios of its row, from w(s, v) for an
    edge and the shortest two-hop sum for a missing pair
    (:func:`_stretch_bounds`).  Sources without a bound are searched
    first, in order, so a disconnected graph raises the same pair.  The
    others follow, highest bound first, while a bound can still beat the
    best ratio found or tie it at a smaller pair.  The screen holds one
    dense n x n weight matrix while it runs, at most about 4/3 of the
    graph's own CSR.  Every other graph searches every source in order
    and holds only (64, n) blocks beside the graph.  Both routes return
    the same result, bit for bit.
    """
    if G.n != X.n:
        raise GraphError("graph and point set sizes differ")
    if X.n < 2:
        return 1.0, (0, 0)
    n = X.n
    csr = G.as_csr()
    best = -1.0
    witness = None

    def search(sources):
        """Scan the rows of ``sources`` (ascending), a block per call."""
        nonlocal best, witness
        for lo in range(0, len(sources), _ROW_BLOCK):
            block = sources[lo : lo + _ROW_BLOCK]
            # every column left of first + 1 is below the diagonal for the whole block
            first = int(block[0])
            cols = np.arange(first + 1, n)
            gr = _csgraph_dijkstra(csr, directed=True, indices=block)[:, first + 1 :]
            upper = cols > block[:, None]
            gone = np.isinf(gr) & upper
            if gone.any():
                i, j = np.unravel_index(np.argmax(gone), gone.shape)
                raise Disconnected((int(block[i]), int(cols[j])))
            eu = _lengths(X.coords, block[:, None], cols)
            ratio = np.divide(gr, eu, out=np.zeros_like(gr), where=upper)
            # the row-major first maximum is the block's lexicographically smallest pair
            k = int(np.argmax(ratio))
            i, j = divmod(k, len(cols))
            r, pair = float(ratio.flat[k]), (int(block[i]), int(cols[j]))
            if r > best or (r == best and pair < witness):
                best, witness = r, pair

    if n - 1 <= _ROW_BLOCK or 4 * len(G.u) < n * (n - 1):
        search(np.arange(n - 1))
        return best, witness
    ub = _stretch_bounds(G, X.coords)
    # a vertex unreachable from 0 leaves source 0 unbounded, so a
    # disconnected graph raises the same first pair as the full scan
    search(np.flatnonzero(np.isinf(ub)))
    finite = np.flatnonzero(np.isfinite(ub))
    ranked = finite[np.argsort(-ub[finite], kind="stable")]  # by (-ub, source)
    batch = 1  # the top source alone, so that later calls are screened against it
    while len(ranked):
        head = ranked[:batch]
        # a source can still win with a larger ratio, or an equal one at a smaller pair
        src = n if witness is None else witness[0]
        wins = (ub[head] > best) | ((ub[head] == best) & (head < src))
        # the winners are a prefix: bounds fall along the ranking, sources rise within a tie
        m = len(head) if wins.all() else int(np.argmin(wins))
        if m == 0:
            break
        search(np.sort(head[:m]))
        ranked = ranked[m:]
        batch = _ROW_BLOCK
    return best, witness


def _stretch_bounds(G: SpannerGraph, c: np.ndarray) -> np.ndarray:
    """For each source s < n - 1, an upper bound on the ratios
    :func:`verify_stretch` computes for the pairs (s, v), v > s.

    scipy's label for (s, v) is at most the left-to-right float sum of
    any s-v path, since float addition rounds monotonically.  So it is
    at most w(s, v) for an edge, and at most min_x w(s, x) + w(x, v) for
    a missing pair; float division keeps the order, so dividing either
    by the pair's length bounds its ratio.  A source with a pair that
    has neither bound gets inf.  The weights are held in one dense n x n
    matrix, inf off the edges; it is exactly symmetric, so the two-hop
    sums are rows ``W[s] + W[v]``, taken for (64, n) chunks of missing
    pairs.  Ratios are taken over the same (64, n) row blocks as the
    search.
    """
    n = G.n
    W = np.full((n, n), np.inf)
    W[G.u, G.v] = G.w
    W[G.v, G.u] = G.w
    ub = np.empty(n - 1)
    for lo in range(0, n - 1, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n - 1)
        rows = np.arange(lo, hi)
        cols = np.arange(lo + 1, n)
        upper = cols > rows[:, None]
        bound = W[lo:hi, lo + 1 :].copy()
        i, j = np.nonzero(np.isinf(bound) & upper)
        for k in range(0, len(i), _ROW_BLOCK):
            a, b = i[k : k + _ROW_BLOCK], j[k : k + _ROW_BLOCK]
            bound[a, b] = (W[rows[a]] + W[cols[b]]).min(axis=1)
        eu = _lengths(c, rows[:, None], cols)
        ub[lo:hi] = np.divide(bound, eu, out=np.zeros_like(bound), where=upper).max(axis=1)
    return ub


def emst_weight(X: PointSet) -> float:
    """Weight of a Euclidean minimum spanning tree (dense Prim scan).

    The scan runs once per point set; the weight is kept on ``X``.  It
    reads the rows of ``X``'s distance matrix when that is already built,
    and computes each row otherwise; it never builds the matrix.
    """
    if X._emst is None:
        X._emst = _prim_weight(X)
    return X._emst


def _prim_weight(X: PointSet) -> float:
    n = X.n
    if n <= 1:
        return 0.0
    c, D = X.coords, X._dist
    cols = np.arange(n)

    def row(j):
        # the rows of PointSet.distances are these lengths, bit for bit
        return _lengths(c, j, cols) if D is None else D[j]

    outside = np.ones(n, dtype=bool)
    outside[0] = False
    best = np.array(row(0))
    best[0] = np.inf
    total = 0.0
    for _ in range(n - 1):
        j = int(np.argmin(best))
        total += float(best[j])
        outside[j] = False
        best[j] = np.inf
        # vertices in the tree stay at inf
        np.minimum(best, row(j), out=best, where=outside)
    return total


def metrics(G: SpannerGraph, X: PointSet) -> MetricsReport:
    """Sparsity, lightness, weight and exact max stretch of G over X."""
    ms, wit = verify_stretch(G, X)
    w = G.weight()
    mst = emst_weight(X)
    return MetricsReport(
        edge_count=len(G.u),
        sparsity=len(G.u) / X.n,
        weight=w,
        mst_weight=mst,
        lightness=w / mst if mst > 0 else math.inf,
        max_stretch=ms,
        witness_pair=wit,
    )


# Pair lengths are computed this many pairs at a time, so the coordinate
# differences never exist for all pairs at once; up to n = 362 is one pass.
_PAIR_PASS = 1 << 16

# Pairs per length block, on average over the range of lengths.
_BLOCK_PAIRS = 1024


def _grouped_pairs(X: PointSet):
    """All vertex pairs grouped into blocks of increasing length.

    Returns int32 ``iu``, ``iv``, float64 lengths ``w`` and ``bounds``:
    block b holds the pairs ``bounds[b]:bounds[b + 1]``, none of them
    empty.  Each length is ``norm(c[u] - c[v])`` as a whole-array
    ``norm(axis=1)`` computes it, in passes of :data:`_PAIR_PASS` pairs.
    A pair's block is ``uint16(w / w.max() * K)`` for K = m //
    :data:`_BLOCK_PAIRS` (at most 65535): each float step is monotone in
    w, so every length in a block is at most every length in the next,
    and equal lengths share a block.  The pairs are built in (u, v) order
    and grouped by one stable sort of the 16-bit keys, which numpy runs as
    a radix sort, so each block stays in (u, v) order.  With K = 0, or
    lengths that are all zero or not all finite, there is one block.
    """
    n = X.n
    m = n * (n - 1) // 2
    iu = np.repeat(np.arange(n - 1, dtype=np.int32), np.arange(n - 1, 0, -1))
    # iv counts up by one within a row and restarts at u + 1 on the next
    # row: a running sum of steps, one step per pair
    iv = np.ones(m, dtype=np.int32)
    iv[np.cumsum(np.arange(n - 1, 1, -1))] = np.arange(1, n - 1) + 2 - n
    np.cumsum(iv, out=iv)
    w = np.empty(m)
    for k in range(0, m, _PAIR_PASS):
        w[k : k + _PAIR_PASS] = _lengths(X.coords, iu[k : k + _PAIR_PASS], iv[k : k + _PAIR_PASS])
    top = w.max()
    # the keys run from 0 to K
    K = min(m // _BLOCK_PAIRS, np.iinfo(np.uint16).max) if 0.0 < top < math.inf else 0
    if K == 0:
        return iu, iv, w, np.array([0, m])
    # keys and block sizes a pass at a time too: a bincount of all keys
    # would widen them to intp, and freed whole-array temporaries here let
    # the allocator serve the permutations below from a heap that keeps
    # freed memory resident (RSS, not the traced peak, grew by 2 n^2)
    blk = np.empty(m, dtype=np.uint16)
    sizes = np.zeros(K + 1, dtype=np.int64)
    for k in range(0, m, _PAIR_PASS):
        blk[k : k + _PAIR_PASS] = w[k : k + _PAIR_PASS] / top * K
        sizes += np.bincount(blk[k : k + _PAIR_PASS], minlength=K + 1)
    order = np.argsort(blk, kind="stable")
    del blk
    # one array at a time, so the ungrouped copy of each is freed early
    iu = iu[order]
    iv = iv[order]
    w = w[order]
    bounds = np.concatenate(([0], np.cumsum(sizes)[sizes > 0]))
    return iu, iv, w, bounds


# Incremental exact APSP restricted to the rows and columns the new edge shortens;
# the accepted edges are int32 / int32 / float64 columns, 16 bytes an edge.
def _path_greedy_matrix(X: PointSet, t: float) -> tuple:
    n = X.n
    iu, iv, w, bounds = _grouped_pairs(X)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    eu, ev, ew = array("i"), array("i"), array("d")
    # chunked tolist() avoids both numpy scalar indexing and n^2 Python objects
    chunk = 1024
    # the block ends are read from the array one by one: as Python lists
    # they would outweigh the loop's other temporaries
    for b in range(len(bounds) - 1):
        # dist only falls, so a pair met at the start of its block or of
        # its chunk is met at its turn
        lo = int(bounds[b])
        end = _sort_open(dist, t, iu, iv, w, lo, int(bounds[b + 1]))
        for c in range(lo, end, chunk):
            e = min(c + chunk, end)
            su, sv, sw = iu[c:e], iv[c:e], w[c:e]
            if c > lo:  # dist may have fallen since the block's test
                open_ = ~(dist[su, sv] <= t * sw * (1.0 + GREEDY_RTOL))
                su, sv, sw = su[open_], sv[open_], sw[open_]
            # the open ones are re-tested one by one against the current dist
            for u, v, wk in zip(su.tolist(), sv.tolist(), sw.tolist()):
                if dist[u, v] <= t * wk * (1.0 + GREEDY_RTOL):
                    continue
                eu.append(u)
                ev.append(v)
                ew.append(wk)
                _add_edge(dist, u, v, wk)
    return eu, ev, ew


def _sort_open(dist: np.ndarray, t: float, iu, iv, w, lo: int, hi: int) -> int:
    """Move the pairs ``lo:hi`` that ``dist`` leaves open to the front of
    that range, in (length, u, v) order, and return where they end.

    The pairs are tested a pass at a time and sorted in place, so that a
    block of nearly all pairs (a far outlier makes one) stays within
    24 n^2 bytes.  They arrive in (u, v) order, so a stable sort by
    length orders them by (length, u, v).
    """
    end = lo
    for k in range(lo, hi, _PAIR_PASS):
        e = min(k + _PAIR_PASS, hi)
        open_ = ~(dist[iu[k:e], iv[k:e]] <= t * w[k:e] * (1.0 + GREEDY_RTOL))
        step = int(np.count_nonzero(open_))
        for a in (iu, iv, w):
            a[end : end + step] = a[k:e][open_]
        end += step
    order = np.argsort(w[lo:end], kind="stable")
    iu[lo:end] = iu[lo:end][order]
    iv[lo:end] = iv[lo:end][order]
    # sorted in place: the values are the same in any order of their ties
    w[lo:end].sort()
    return end


def _add_edge(dist: np.ndarray, u: int, v: int, wk: float) -> None:
    """Lower ``dist`` to the distances after adding the edge u-v of weight wk.

    a -> u -> v -> b improves dist[a, b] only for a in A, b in B; A and B
    are disjoint (a vertex in both would give 2 wk < 0), and A holds u, B
    holds v.  dist stays exactly symmetric, so rows stand in for columns.
    When A or B is the one vertex u or v, the block is one row: the
    general sum (du[a] + dv[b]) + wk then adds a 0, which changes no bit.
    """
    du, dv = dist[u], dist[v]
    A = (du + wk < dv).nonzero()[0]
    B = (dv + wk < du).nonzero()[0]
    if len(A) == 1:
        row = dv[B] + wk
        np.minimum(du[B], row, out=row)
        dist[u, B] = row
        dist[B, u] = row
    elif len(B) == 1:
        row = du[A] + wk
        np.minimum(dv[A], row, out=row)
        dist[v, A] = row
        dist[A, v] = row
    else:
        via = np.add.outer(du[A], dv[B])
        via += wk
        np.minimum(dist[A[:, None], B], via, out=via)
        dist[A[:, None], B] = via
        dist[B[:, None], A] = via.T


def path_greedy(X: PointSet, t: float) -> SpannerGraph:
    """Path-greedy t-spanner.

    Processes pairs by increasing distance (ties lexicographic) and adds
    an edge iff the current graph distance exceeds t times the pair
    distance.  Graph distances live in an n x n matrix, and each new
    edge updates only the rows and columns it shortens, as one row when
    either side of the update is a single vertex.  The pairs are not
    sorted as a whole: one radix sort groups them into blocks of
    increasing length (:func:`_grouped_pairs`).  At the start of a block
    its pairs are tested against the matrix, and only those still open
    are sorted, by (length, u, v).  They are tested again 1024 at a
    time, and then one by one at their turn.

    The grouped pairs (16 bytes each) and the matrix take 16 n^2 bytes,
    and each edge 16 bytes of columns.  RSS growth measured on uniform
    points at n = 2000 was 19.9 n^2 bytes at d = 2 and 18.2 at d = 5
    (t = 1.1), and 40.6 when every pair is an edge (t = 1.0), where the
    widened columns' check after the loop sets the peak.  Raises
    :class:`TooLarge` before allocating when 41 n^2 bytes exceed the
    machine's physical memory.
    """
    if not (math.isfinite(t) and t >= 1.0):
        raise GraphError(f"stretch factor must be finite and >= 1, got {t}")
    meta = {"t": t, "builder": "path_greedy"}
    if X.n < 2:
        return SpannerGraph(X.n, [], meta=meta)
    need = 41 * X.n * X.n
    have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > have:
        raise TooLarge(
            f"n={X.n} needs about {need / 2**30:.1f} GiB for greedy, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )
    return SpannerGraph.from_columns(X.n, *_path_greedy_matrix(X, t), meta=meta)


# ---------------------------------------------------------------------------
# exact oracle for tiny instances


# _BIT[k] is bit k of a uint64 word
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _apsp_small(n: int, wmat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Floyd-Warshall over the edges selected by mask (dense, tiny n)."""
    d = np.where(mask, wmat, np.inf)
    d.flat[:: n + 1] = 0.0
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d


def brute_force_optimal(
    X: PointSet,
    eps: float,
    objective: str = "min_edges",
) -> SpannerGraph:
    """Exact optimal (1+eps)-spanner for tiny point sets.

    Branch-and-bound over all candidate pairs, longest first, with no
    incumbent: the best cost is inf until the exclude-first search reaches
    its first leaf.  Edges whose removal alone breaks
    feasibility are forced up front.  A node carries the distances ``d``
    of the chosen edges, updated incrementally on include, and ``da`` of
    the available ones (chosen and undecided), recomputed on exclude,
    which is also that branch's feasibility check.  The only lower bound
    packs unmet pairs with disjoint candidate sets; the sets depend only
    on ``da``, so each ``da`` carries them, as bitsets over the undecided
    edges, down its include branches.
    ``eps`` must be finite and >= 0.  ``objective`` only picks each
    pair's cost, 1.0 for "min_edges" and the pair's length for
    "min_weight"; ties break toward the lexicographically smallest edge
    set.  ``meta`` counts the search ``nodes`` and its
    ``feasibility_checks`` (Floyd-Warshall runs).  Raises TooLarge above
    :data:`ORACLE_N_MAX` points.
    """
    n = X.n
    if not (math.isfinite(eps) and eps >= 0.0):
        raise GraphError(f"eps must be finite and >= 0, got {eps}")
    if n > ORACLE_N_MAX:
        raise TooLarge(f"n={n} exceeds oracle limit {ORACLE_N_MAX}")
    if objective not in ("min_edges", "min_weight"):
        raise GraphError(f"unknown objective {objective!r}")
    t = 1.0 + eps
    wmat = X.distances()
    target = t * wmat * (1.0 + GREEDY_RTOL)
    np.fill_diagonal(target, np.inf)

    iu, iv = np.triu_indices(n, k=1)
    tgt = target[iu, iv]
    # branch on long pairs first, ties by (u, v); excluding them early
    # fails fast
    pw = wmat[iu, iv]
    order = np.lexsort((iv, iu, -pw))
    pu, pv, pw = iu[order], iv[order], pw[order]

    # the root's check always passes: Floyd-Warshall only lowers entries
    # below wmat, and target >= wmat off the diagonal
    full = ~np.eye(n, dtype=bool)
    da0 = _apsp_small(n, wmat, full)
    nodes, checks = 0, 1

    # every feasible subset contains the edges whose lone removal breaks
    # the complete graph.  Removing uv changes only d(u,v), and by the
    # triangle inequality its shortest detour has two hops.
    via = wmat[:, :, None] + wmat[None, :, :]  # via[u, k, v] = |uk| + |kv|
    ks = np.arange(n)
    via[ks, ks, :] = via[:, ks, ks] = np.inf
    detour = via.min(axis=1, initial=np.inf)
    is_forced = detour[pu, pv] > target[pu, pv]
    forced = list(zip(pu[is_forced].tolist(), pv[is_forced].tolist()))
    fp, fq, fw = pu[~is_forced], pv[~is_forced], pw[~is_forced]
    free = list(zip(fp.tolist(), fq.tolist()))
    # edge counts are small integers, which floats hold exactly
    pcost = pw if objective == "min_weight" else np.ones_like(pw)
    fcost = pcost[~is_forced].tolist()

    def with_edge(d, u, v):
        # a -> u -> v -> b and a -> v -> u -> b may shorten d[a, b]
        via = np.add.outer(d[:, u], d[v, :]) + wmat[u, v]
        return np.minimum(np.minimum(d, via), via.T)

    d0 = np.full((n, n), np.inf)
    d0.flat[:: n + 1] = 0.0
    for u, v in forced:
        d0 = with_edge(d0, u, v)
    chosen = list(forced)
    cost0 = sum_in_order(pcost[is_forced])

    # widened so that rounding can only weaken the bound
    loose = tgt * (1.0 + 1e-9)

    def candidates(bad, da):
        # a pair ab that d leaves too long needs one of its candidates, the
        # undecided edges pq with da[a,p] + |pq| + da[q,b] within its target.
        # The test reads only da, so the sets serve every node below that
        # shares da: there d only falls, and its too-long pairs are among
        # these.  Each set is an int whose bit k stands for free[k]; a node
        # at free[idx] shifts out the decided ones.
        a, b, lim = iu[bad], iv[bad], loose[bad, None]
        dp, dq = da[:, fp], da[:, fq]
        cand = (dp[a] + fw + dq[b] <= lim) | (dq[a] + fw + dp[b] <= lim)
        return dict(zip(bad.tolist(), (cand @ _BIT[: len(free)]).tolist()))

    def lower_bound(cost, bad, idx, sets):
        # pairs whose candidate sets are disjoint need distinct edges
        bits = [sets[i] >> idx for i in bad.tolist()]
        if not all(bits):
            return math.inf
        used, packed = 0, 0.0
        # smallest sets first, ties in pair order
        for s in sorted(bits, key=int.bit_count):
            if not s & used:
                used |= s
                # free is ordered by non-increasing weight, so the highest
                # set bit is a cheapest candidate
                packed += fcost[idx + s.bit_length() - 1]
        return cost + packed

    best_cost, best_set = math.inf, None

    def rec(idx: int, d: np.ndarray, da: np.ndarray, avail_mask: np.ndarray, cost, sets=None):
        nonlocal best_cost, best_set, nodes, checks
        nodes += 1
        # no tie window until a leaf has set best_cost
        eps_cmp = 1e-12 * best_cost if best_set is not None else 0.0
        bad = (d[iu, iv] > tgt).nonzero()[0]
        if sets is None:
            sets = candidates(bad, da)
        # with no undecided edge left, an unmet pair makes the bound inf,
        # which must prune while best_cost is still inf too
        lb = lower_bound(cost, bad, idx, sets)
        if lb == math.inf or lb > best_cost + eps_cmp:
            return
        # d and target are symmetric and the diagonal's target is inf, so
        # no unmet pair means d <= target everywhere
        if not len(bad):
            cset = sorted(chosen)
            if cost < best_cost - eps_cmp or (
                abs(cost - best_cost) <= eps_cmp and cset < best_set
            ):
                best_cost, best_set = cost, cset
            return  # supersets only cost more
        u, v = free[idx]
        # exclude first (steers toward sparse solutions); viable only if
        # what remains can still span
        avail_mask[u, v] = avail_mask[v, u] = False
        dx = _apsp_small(n, wmat, avail_mask)
        checks += 1
        if bool(np.all(dx <= target)):
            rec(idx + 1, d, dx, avail_mask, cost)
        avail_mask[u, v] = avail_mask[v, u] = True
        # including leaves the available edges, da and the candidate sets
        # unchanged
        chosen.append((u, v))
        rec(idx + 1, with_edge(d, u, v), da, avail_mask, cost + fcost[idx], sets)
        chosen.pop()

    rec(0, d0, da0, full, cost0)
    meta = {"builder": "oracle", "objective": objective, "eps": eps}
    meta.update(nodes=nodes, feasibility_checks=checks)
    return SpannerGraph.from_pairs(X, best_set, meta=meta)


# ---------------------------------------------------------------------------
# edge list files: one "u v" pair of 0-based indices per line


def write_edge_list(G: SpannerGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        order = np.lexsort((G.v, G.u))
        fh.writelines(f"{u} {v}\n" for u, v in zip(G.u[order].tolist(), G.v[order].tolist()))


def _ascii_lines(path, error) -> list:
    """The lines of the text file at ``path``.  A byte outside ASCII
    raises ``error(lineno, message)`` for the first one, counting lines
    by their ``\\n``."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        pass  # the decoder's offset is within one chunk: find the byte in the file
    with open(path, "rb") as fh:
        data = fh.read()
    k = int(np.argmax(np.frombuffer(data, dtype=np.uint8) >= 0x80))
    raise error(data.count(b"\n", 0, k) + 1, f"non-ASCII byte 0x{data[k]:02x}")


def read_edge_list(path, X: PointSet) -> SpannerGraph:
    """Load an edge list; weights are recomputed from the coordinates.
    Every rejected edge, and a byte outside ASCII, is reported with the
    file and its line."""
    lines = _ascii_lines(path, lambda lineno, msg: GraphError(f"{path}: line {lineno}: {msg}"))
    pairs, linenos = [], []
    for lineno, line in enumerate(lines, start=1):
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
        # checked as Python ints: numpy cannot hold an index too long for int64
        if not (0 <= u < X.n and 0 <= v < X.n):
            raise GraphError(f"{path}: line {lineno}: index out of range for n={X.n}")
        pairs.append((u, v))
        linenos.append(lineno)
    try:
        return SpannerGraph.from_pairs(X, pairs)
    except BadEdge as exc:
        raise GraphError(f"{path}: line {linenos[exc.index]}: {exc}") from None
