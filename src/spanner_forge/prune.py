"""Two-phase greedy pruning of a Euclidean spanner.

Edges are classified by whether both waist regions of their ellipse
contain input points.  Phase 1 repeatedly adds a substitute pair that
lets many same-scale region-free (type-1) edges be deleted at once;
phase 2 re-adds region-bearing (type-2) edges only when their distance
is not already approximately preserved, pairing each kept edge with a
helper edge drawn from the two regions.  Iterating the phases with the
documented parameter updates trades a bounded stretch increase for
sparsity and weight reductions.  The knobs are eps, delta, alpha and the
one constant kappa (:class:`PruneParams`).  scipy is imported inside
:func:`phase2`, whose exact backend runs its Dijkstra.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .geom import PointSet, _dot_lengths, _ellipse_bands
from .graph import GraphError, SpannerGraph, path_greedy, symmetric_csr
from .nets import build_cluster_graph, cluster_dist

_RTOL = 1e-12
# Edges per ellipse-membership mask (edges x n booleans), and point pairs
# per candidate pass; both bound temporaries, not results.
_MASK_EDGES = 128
_PASS_PAIRS = 1 << 14

# Ratio of the geometric length buckets (weights in [BETA^j, BETA^{j+1})).
BETA = 1.01
# Sparsity update after a round: alpha -> max(ALPHA_LOG_CONST * ln(alpha), 4).
ALPHA_LOG_CONST = 4.0


class PruneError(GraphError):
    pass


class InternalInconsistency(PruneError):
    """A kept type-2 edge turned out to have an empty witness region."""


def _product_minus_one(terms) -> float:
    # prod(1 + x_i) - 1 without the cancellation the literal form
    # suffers at tiny x_i
    return math.expm1(sum(math.log1p(x) for x in terms))


def delta_growth(kappa: float, delta: float) -> float:
    """One-iteration stretch-bound update:
    (1+delta)(1+kappa*delta)(1+kappa^2*delta) - 1."""
    return _product_minus_one([delta, kappa * delta, kappa * kappa * delta])


@dataclass
class PruneParams:
    """All knobs of the pruning pipeline.

    ``kappa`` is the one constant of the construction: phase 1 prunes at
    thresholds alpha/(2^i kappa) and phase 2 accepts detours up to
    (1 + kappa^2 delta).  The analysis constant, to which the proven
    stretch/size guarantees attach, is kappa = 1e4; the default 10 makes
    the pruning observable on small instances.  The update constant
    :data:`ALPHA_LOG_CONST` and the bucket ratio :data:`BETA` are fixed.
    Every value must be finite; ``alpha`` must be positive and ``kappa``
    at least 2.

    The number of rounds is ``greedy_prune``'s ``k``.  The keyword
    ``iterations`` is still accepted so that existing callers keep
    working, but it is not a field and nothing reads it.
    """

    eps: float
    delta: float | None = None  # defaults to eps
    alpha: float | None = None  # defaults to eps^(-2 d) when the dimension is known
    kappa: float = 10.0
    iterations: InitVar[int | None] = None

    def __post_init__(self, iterations):
        if iterations is not None:
            warnings.warn(
                "PruneParams(iterations=...) is ignored; greedy_prune's k sets the rounds",
                DeprecationWarning,
                stacklevel=3,
            )
        for name in ("eps", "delta", "alpha", "kappa"):
            val = getattr(self, name)
            if val is not None and not math.isfinite(val):
                raise PruneError(f"{name} must be finite, got {val}")
        if not 0.0 < self.eps:
            raise PruneError("eps must be positive")
        if self.delta is not None and self.delta < self.eps * (1.0 - _RTOL):
            raise PruneError("delta must be at least eps")
        if self.alpha is not None and not 0.0 < self.alpha:
            raise PruneError("alpha must be positive")
        if self.kappa < 2:
            raise PruneError("kappa must be at least 2")

    @property
    def delta_value(self) -> float:
        return self.eps if self.delta is None else self.delta

    def alpha_value(self, dim: int) -> float:
        if self.alpha is not None:
            return self.alpha
        return float(self.eps) ** (-2 * dim)


@dataclass
class PhaseReport:
    """Observable outcome of one pruning phase.

    ``levels`` maps a length bucket j (weights in [BETA^j, BETA^{j+1}))
    to its old-edge counts; ``measured_delta`` is the largest relative
    detour observed for an edge handled in this phase.
    ``genuine_substitutes`` counts the phase-1 substitutions whose cover
    held an edge other than the substitute pair itself; the rest of
    ``substitutes_added`` only protect an existing edge.
    """

    phase: int
    iteration: int = 0
    levels: dict = field(default_factory=dict)
    substitutes_added: int = 0
    genuine_substitutes: int = 0
    type1_pruned: int = 0
    type2_total: int = 0
    type2_kept: int = 0
    type2_dropped: int = 0
    helpers_added: int = 0
    measured_delta: float = 0.0


def _ellipse_masks(dist, S, T, limit):
    """Which points lie in the ellipses of edges (S[e], T[e]).

    Yields ``(lo, mask)`` per chunk of up to :data:`_MASK_EDGES` edges,
    where ``mask[r, p]`` says ``dist[S[lo+r], p] + dist[T[lo+r], p] <=
    limit[lo+r]`` in the shared matrix ``dist``.
    """
    for lo in range(0, len(S), _MASK_EDGES):
        hi = lo + _MASK_EDGES
        yield lo, dist[S[lo:hi]] + dist[T[lo:hi]] <= limit[lo:hi, None]


def classify_edges(X: PointSet, E: SpannerGraph, eps: float):
    """The type-1 and type-2 edges of E, as int64 pair-code arrays: the
    codes ``u * n + v`` of the edges, in E's edge order.

    An edge is type-2 when both waist regions of its ellipse contain
    input points, type-1 otherwise.  A type-2 edge needs its two
    endpoints and one point in each waist region inside the ellipse, so
    an edge with fewer than four points within a slightly widened
    ellipse (read from the shared matrix :meth:`PointSet.distances`) is
    type-1 at once.  The other edges of each chunk of ellipse masks get
    their waist regions in one array pass, with the bits of
    :func:`region_codes` per edge.
    """
    coords = X.coords
    dist = X.distances()
    # the 1e-9 slack exceeds region_codes' own BAND_TOL, so every point
    # it counts as inside the ellipse passes this filter
    limit = (1.0 + eps) * dist[E.u, E.v] * (1.0 + 1e-9)
    is2 = np.zeros(len(limit), dtype=bool)
    for lo, mask in _ellipse_masks(dist, E.u, E.v, limit):
        rows = lo + np.flatnonzero(np.count_nonzero(mask, axis=1) >= 4)
        S, T = E.u[rows], E.v[rows]
        _, in_a, in_b = _ellipse_bands(coords[S], coords[T], coords, eps, dist[S] + dist[T])
        is2[rows] = in_a.any(axis=1) & in_b.any(axis=1)
    code = E.u * X.n + E.v
    return code[~is2], code[is2]


def _buckets(w):
    """The length bucket j of each weight, BETA**j <= w < BETA**(j+1),
    and BETA**j.

    The logs of the extreme weights bracket the buckets, and a search in
    a table of Python ``BETA**j`` values places each weight exactly,
    whatever the rounding of the logs.
    """
    if not len(w):
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    # a log is off by far less than one bucket
    lo = math.floor(math.log(w.min()) / math.log(BETA)) - 1
    hi = math.floor(math.log(w.max()) / math.log(BETA)) + 2
    table = np.array([BETA**j for j in range(lo, hi + 1)])
    at = np.searchsorted(table, w, side="right") - 1
    return lo + at, table[at]


def _group_pairs(count):
    """Index pairs (i, j), i < j, within consecutive groups of ``count[g]``
    items, with the group g of each pair; in (i, j) order."""
    size = int(count.sum())
    group = np.repeat(np.arange(len(count)), count)
    after = np.cumsum(count)[group] - 1 - np.arange(size)  # later items in the group
    i = np.repeat(np.arange(size), after)
    run = np.cumsum(after) - after  # where i's run of pairs starts
    j = i + 1 + np.arange(len(i)) - np.repeat(run, after)
    return i, j, group[i]


def _candidate_triples(dist, S, T, W, min_len, factor):
    """Every pair (x, y), x < y, that could replace the edge (S[e], T[e]).

    A pair qualifies for edge e when |sx|+|xy|+|yt| (either orientation)
    stays within factor*W[e] and |xy| >= min_len[e].  All lengths are
    looked up in ``dist``, the matrix of :meth:`PointSet.distances`.
    Returns the arrays ``(x, y, e)``, grouped by edge in input order and
    each edge's pairs in (x, y) order, so edges sorted by bucket give
    triples sorted by bucket.  They are int32 when the point and edge
    indices fit, as they hold one entry per triple.
    """
    budget = factor * W * (1.0 + _RTOL)
    shortest = min_len * (1.0 - _RTOL)
    small = max(len(dist), len(S)) <= np.iinfo(np.int32).max
    dtype = np.int32 if small else np.intp
    parts = tuple([np.zeros(0, dtype=dtype)] for _ in range(3))  # x, y, e
    for lo, mask in _ellipse_masks(dist, S, T, budget):
        rows, pts = np.nonzero(mask)  # each edge's points in ascending order
        count = np.bincount(rows, minlength=len(mask))
        ends = np.cumsum(count)
        load = np.cumsum(count * (count - 1) // 2)
        r0 = 0
        while r0 < len(mask):
            # the edges from r0 whose pairs fit in one pass, at least one
            done = load[r0 - 1] if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(load, done + _PASS_PAIRS, side="right")))
            p0 = ends[r0] - count[r0]
            i, j, g = _group_pairs(count[r0:r1])
            a, b, e = pts[p0 + i], pts[p0 + j], lo + r0 + g
            s, t, pd = S[e], T[e], dist[a, b]
            dsa, dta, dsb, dtb = dist[s, a], dist[t, a], dist[s, b], dist[t, b]
            B = budget[e]
            # each orientation summed from both ends: float addition is
            # not associative, and the test must not depend on which
            # endpoint of the edge is s
            ok = (pd >= shortest[e]) & (
                (dsa + pd + dtb <= B)
                | (dta + pd + dsb <= B)
                | (dsb + pd + dta <= B)
                | (dtb + pd + dsa <= B)
            )
            for part, col in zip(parts, (a, b, e)):
                part.append(col[ok].astype(dtype, copy=False))
            r0 = r1
    out = []
    for part in parts:  # each column's parts are freed before the next is joined
        out.append(np.concatenate(part))
        part.clear()
    return tuple(out)


def phase1(
    X: PointSet,
    E: SpannerGraph,
    params: PruneParams,
    classification,
):
    """Substitute-edge pruning of the type-1 edges, ``classification[0]``.

    Within each sub-iteration and length bucket, while some candidate
    pair covers at least alpha/(2^i kappa) live type-1 edges, the
    best-covering pair (ties lexicographic) is added as a new edge and
    its covered edges are deleted.  New edges are never pruned.
    Returns the surviving graph (new pairs recorded in its meta) and a
    report.

    Candidate pairs depend on geometry alone, so one pass of
    :func:`_candidate_triples` over all type-1 edges, sorted by bucket
    (:func:`_buckets`), finds them before the loop; lengths come from the
    shared :meth:`PointSet.distances` matrix.  The loop only records its
    picks and the edges they prune: the report's counts, the detours
    behind ``measured_delta`` and the output graph come from array passes
    after it, the weights of new pairs and the detours with the bits of
    :func:`geom._dot_lengths`.  Each pair of a bucket gets an
    id, in (bucket, x, y) order, and an exact count of the live edges it
    covers.  A count drops when one of its edges leaves ``live``, pruned
    or protected as an old edge that coincides with a new pair, and
    never grows.  So each bucket keeps one heap of cover sizes from its
    first visit on (lazy greedy max-coverage): an entry is stale when its
    size differs from its id's count, and the top is the best pair once
    it is current.  A bucket is skipped without a visit when it holds
    fewer live edges than the threshold; the loop stops as soon as the
    bucket holds no live edge, as every count in it is then 0.
    """
    eps = params.eps
    kappa = params.kappa
    alpha = params.alpha_value(X.dim)
    n = X.n
    bucket, power = _buckets(E.w)
    # type-1 edges by bucket; an edge is its position k in this order
    t1 = np.flatnonzero(np.isin(E.u * n + E.v, classification[0]))
    t1 = t1[np.argsort(bucket[t1], kind="stable")]
    S, T = E.u[t1], E.v[t1]
    pos = dict(zip((S * n + T).tolist(), range(len(t1))))  # edge k at its pair's code
    order, rank, n_live = np.unique(bucket[t1], return_inverse=True, return_counts=True)
    dist = X.distances()
    xs, ys, ks = _candidate_triples(dist, S, T, E.w[t1], power[t1] / 25.0, 1.0 + eps)
    # each triple's key (bucket rank, x, y) as rank*n^2 + x*n + y, in place
    n2 = n * n
    key = rank[ks]
    key *= n
    key += xs
    key *= n
    key += ys
    del xs, ys  # arrays of one entry per triple go as soon as they are used
    # a pair id per key, in key order: a stable sort puts each pair's
    # triples together, in edge order; count[p] is the number of live
    # edges that pair p covers
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    cover_at = np.append(np.flatnonzero(new), len(key))
    keys, count = key[cover_at[:-1]], np.diff(cover_at)
    del key
    pair = np.empty(len(ks), dtype=np.intp)
    pair[by_key] = np.cumsum(new) - 1
    del new
    # pair p covers the edges covers[cover_at[p] : cover_at[p + 1]], edge k
    # is covered by the pairs pair[pairs_at[k] : pairs_at[k + 1]], and the
    # pairs of bucket order[r] are the ids from bucket_at[r] to bucket_at[r + 1]
    covers = ks[by_key]
    del by_key
    pairs_at = np.searchsorted(ks, np.arange(len(t1) + 1)).tolist()
    bucket_at = np.searchsorted(keys, np.arange(len(order) + 1) * n2).tolist()
    count, rank, n_live = count.tolist(), rank.tolist(), n_live.tolist()
    live = bytearray(b"\x01") * len(t1)  # old type-1 edges still present and prunable

    def leave(k):
        live[k] = 0
        n_live[rank[k]] -= 1
        for p in pair[pairs_at[k] : pairs_at[k + 1]].tolist():
            count[p] -= 1

    report = PhaseReport(phase=1)
    picks: list = []  # the pair of each substitution
    gone: list = []  # the pruned edges, by position k
    gone_by: list = []  # the pair that pruned each of them
    # per bucket rank, its heap of entries pair - size * n_pairs, which
    # order as the tuples (-cover size, pair) would, in one int each
    n_pairs = len(keys)
    heaps = [None] * len(order)
    n_sub = max(1, math.ceil(math.log2(max(alpha, 2.0))))
    for i in range(1, n_sub + 1):
        thr = alpha / (2.0**i * kappa)
        for r in range(len(order)):
            if n_live[r] < thr:
                continue
            heap = heaps[r]
            if heap is None:
                # Max-heap of (cover size, pair), smallest pair first on
                # ties.  Counts only fall, so a stored size is an upper
                # bound: the top is the best pair once its size is current.
                lo, hi = bucket_at[r], bucket_at[r + 1]
                heap = heaps[r] = [p - c * n_pairs for p, c in enumerate(count[lo:hi], lo) if c]
                heapq.heapify(heap)
            while heap and n_live[r]:
                neg_size, best = divmod(heap[0], n_pairs)
                size = count[best]
                if size != -neg_size:
                    if size:
                        heapq.heapreplace(heap, best - size * n_pairs)
                    else:
                        heapq.heappop(heap)
                    continue
                if size < thr:
                    break
                heapq.heappop(heap)  # its whole cover is about to leave live
                picks.append(best)
                same = pos.get(keys.item(best) % n2, -1)
                if same >= 0 and live[same]:  # a coinciding old edge is now protected
                    leave(same)
                cover = covers[cover_at[best] : cover_at[best + 1]].tolist()
                others = [k for k in cover if live[k]]
                if not others:
                    continue
                report.genuine_substitutes += 1
                for k in others:
                    leave(k)
                gone += others
                gone_by += [best] * len(others)
    report.substitutes_added = len(picks)
    report.type1_pruned = len(gone)
    old = t1[np.array(gone, dtype=np.intp)]  # the pruned edges' positions in E
    # buckets in the order of their first edge
    js, first, inv, n_edges = np.unique(
        bucket, return_index=True, return_inverse=True, return_counts=True
    )
    n_type1 = np.bincount(inv[t1], minlength=len(js))
    n_pruned = np.bincount(inv[old], minlength=len(js))
    at = np.argsort(first)
    for j, total, typ1, cut in zip(*(a[at].tolist() for a in (js, n_edges, n_type1, n_pruned))):
        report.levels[j] = {"edges": total, "type1": typ1, "pruned": cut, "kept": typ1 - cut}
    c = X.coords
    if len(old):
        xy = keys[np.array(gone_by, dtype=np.intp)] % n2
        x, y, s, t = xy // n, xy % n, E.u[old], E.v[old]
        wxy = _dot_lengths(c, x, y)
        detour = np.minimum(
            _dot_lengths(c, s, x) + wxy + _dot_lengths(c, t, y),
            _dot_lengths(c, s, y) + wxy + _dot_lengths(c, t, x),
        )
        report.measured_delta = max(0.0, float((detour / E.w[old] - 1.0).max()))
    # new pairs as sorted codes; one that is not a surviving old edge is added
    new = np.unique(keys[np.array(picks, dtype=np.intp)] % n2)
    keep = np.isin(np.arange(len(E.w)), old, invert=True)
    add = new[~np.isin(new, E.u[keep] * n + E.v[keep])]
    au, av = add // n, add % n
    E1 = SpannerGraph.from_columns(
        n,
        np.concatenate([E.u[keep], au]),
        np.concatenate([E.v[keep], av]),
        np.concatenate([E.w[keep], _dot_lengths(c, au, av)]),
        meta={"new_pairs": [divmod(p, n) for p in new.tolist()]},
    )
    return E1, report


def _pair_codes(pairs, n: int) -> np.ndarray:
    """The codes u*n + v of pairs (u, v), such as ``meta["new_pairs"]``."""
    return np.array(list(pairs), dtype=np.int64).reshape(-1, 2) @ np.array([n, 1])


def _helper(X: PointSet, u: int, v: int, eps: float):
    """The helper edge (a, b, weight) of a kept type-2 edge (u, v): the
    longest pair between its waist regions, the smallest on ties.  The
    regions have :func:`region_codes`' bits, and the weight comes from
    :func:`geom._dot_lengths`."""
    c, dist = X.coords, X.distances()
    _, in_a, in_b = _ellipse_bands(c[[u]], c[[v]], c, eps, dist[[u]] + dist[[v]])
    a_pts, b_pts = np.flatnonzero(in_a), np.flatnonzero(in_b)
    if len(a_pts) == 0 or len(b_pts) == 0:
        raise InternalInconsistency(f"kept type-2 edge ({u},{v}) has an empty witness region")
    pd = dist[np.ix_(a_pts, b_pts)]
    best = pd.max()
    # band geometry guarantees helpers at least a fifth of the edge
    if best < 0.2 * _dot_lengths(c, u, v):
        raise InternalInconsistency(f"short helper candidate for edge ({u},{v})")
    ii, jj = np.nonzero(pd >= best * (1.0 - _RTOL))
    lo, hi = np.sort([a_pts[ii], b_pts[jj]], axis=0)
    a, b = divmod(int((lo * X.n + hi).min()), X.n)
    return a, b, float(_dot_lengths(c, a, b))


def phase2(
    X: PointSet,
    E1: SpannerGraph,
    params: PruneParams,
    classification,
    dist_backend: str = "exact",
):
    """Helper-edge pruning of the type-2 edges, ``classification[1]``.

    Starts from E1 minus its old type-2 edges and scans those by
    increasing weight (ties lexicographic): an edge is dropped when its
    endpoints are already connected within (1+kappa^2 delta) times its
    length, otherwise it is kept and one helper edge joining its two
    waist regions is added.  The kept edges are columns in E1's order,
    then in the order kept; a helper kept again keeps its place.
    ``dist_backend`` chooses the distance query: "exact" runs scipy's
    Dijkstra on the CSR of the kept edges, rebuilt after each kept
    edge; "clusters" asks a bounded-hop cluster graph at scale 2^i,
    i = floor(log2 w), rebuilt from the shorter kept edges whenever i
    changes (the scan is sorted by weight, so each scale is one run),
    and accepts a detour d when d + eps^2 2^i is within
    (1+eps)(1+kappa^2 delta) times the length.
    """
    from scipy.sparse.csgraph import dijkstra

    if dist_backend not in ("exact", "clusters"):
        raise PruneError(f"unknown distance backend {dist_backend!r}")
    exact = dist_backend == "exact"
    eps, n = params.eps, X.n
    code = E1.u * n + E1.v
    new = _pair_codes(E1.meta.get("new_pairs", []), n)
    old2 = np.isin(code, classification[1]) & ~np.isin(code, new)
    scan = np.flatnonzero(old2)[np.lexsort((E1.v[old2], E1.u[old2], E1.w[old2]))]
    report = PhaseReport(phase=2, type2_total=len(scan))
    # the kept edges are the first m entries of ku, kv, kw, the one of a
    # pair at[its code]; a kept type-2 edge adds itself and its helper
    pad = np.zeros(2 * len(scan), dtype=np.int64)
    ku, kv, kw = (np.concatenate([col[~old2], pad]) for col in (E1.u, E1.v, E1.w))
    at = {c: k for k, c in enumerate(code[~old2].tolist())}
    m, helpers = len(at), []
    bound = 1.0 + params.kappa * params.kappa * params.delta_value
    thr_mult = bound if exact else (1.0 + eps) * bound
    csr = F = None  # the exact backend's graph, the clusters backend's graph
    for w, u, v in zip(*(col[scan].tolist() for col in (E1.w, E1.u, E1.v))):
        limit = thr_mult * w * (1.0 + _RTOL)
        if exact:
            if csr is None:
                csr = symmetric_csr(n, ku[:m], kv[:m], kw[:m])
            d, slack = float(dijkstra(csr, indices=u, limit=limit)[v]), 0.0
        else:
            i = int(math.floor(math.log2(w)))
            if F is None or F.level != i:
                low = np.flatnonzero(kw[:m] < 2.0**i * (1.0 - _RTOL))
                below = SpannerGraph.from_columns(n, ku[low], kv[low], kw[low])
                F = build_cluster_graph(below, i, eps, contract=True)
            d, slack = cluster_dist(F, u, v), eps * eps * 2.0**i
        if d + slack <= limit:
            report.type2_dropped += 1
            report.measured_delta = max(report.measured_delta, d / w - 1.0)
            continue
        report.type2_kept += 1
        a, b, wab = _helper(X, u, v, eps)
        kept = [(u, v, w)]
        if a * n + b not in at:
            kept.append((a, b, wab))
            report.helpers_added += 1
            helpers.append(a * n + b)
        for s, t, wst in kept:  # each joins the output and the query's graph
            k = at.setdefault(s * n + t, m)
            ku[k], kv[k], kw[k] = s, t, wst
            m = len(at)
        if not exact:
            F.add_bridges(*zip(*kept))
        csr = None  # rebuilt at the next query
    meta = {"new_pairs": [divmod(p, n) for p in sorted(set(new.tolist() + helpers))]}
    return SpannerGraph.from_columns(n, ku[:m], kv[:m], kw[:m], meta=meta), report


def update_params(params: PruneParams) -> PruneParams:
    """Parameter update after one pruning iteration.

    The stretch bound grows by the documented three-factor product and
    the sparsity bound drops to max(ALPHA_LOG_CONST * ln(alpha), 4).
    """
    if params.alpha is None:
        raise PruneError("alpha must be resolved before updating")
    nd = delta_growth(params.kappa, params.delta_value)
    na = max(ALPHA_LOG_CONST * math.log(params.alpha), 4.0)
    return replace(params, delta=nd, alpha=na)


def greedy_prune(
    X: PointSet,
    eps: float,
    k: int,
    params: PruneParams | None = None,
    seed_spanner: SpannerGraph | None = None,
    dist_backend: str = "exact",
):
    """Full pruning pipeline: k rounds of classify / phase1 / phase2.

    The seed defaults to the path-greedy (1+eps)-spanner;
    ``dist_backend`` is phase 2's "exact" or "clusters" backend.  Returns
    the final graph and the per-phase reports; the output is re-verified
    to be connected.
    """
    if not X.is_normalized():
        raise PruneError("point set must be normalized first")
    if k < 0:
        raise PruneError("iteration count must be nonnegative")
    if dist_backend not in ("exact", "clusters"):
        raise PruneError(f"unknown distance backend {dist_backend!r}")
    if seed_spanner is not None and seed_spanner.n != X.n:
        raise PruneError("seed spanner and point set sizes differ")
    if params is None:
        params = PruneParams(eps=eps)
    if abs(params.eps - eps) > _RTOL * eps:
        raise PruneError("params.eps disagrees with eps argument")
    if params.alpha is None:
        params = replace(params, alpha=params.alpha_value(X.dim))
    E = seed_spanner if seed_spanner is not None else path_greedy(X, 1.0 + eps)
    reports: list = []
    for it in range(1, k + 1):
        classification = classify_edges(X, E, eps)
        E1, r1 = phase1(X, E, params, classification)
        r1.iteration = it
        E2, r2 = phase2(X, E1, params, classification, dist_backend=dist_backend)
        r2.iteration = it
        reports.extend([r1, r2])
        E = E2
        params = update_params(params)
    if not E.is_connected():
        raise PruneError("pruned spanner lost connectivity")
    return E, reports
