"""Hierarchical nets and cluster graphs.

A geometric net hierarchy, the cross-edge spanner it induces, and the
paper's bounded-hop cluster-graph distance proxy: a cluster graph keeps
its inter-cluster edges as ``(a, b, w)`` columns, and
:func:`cluster_dist` relaxes them over paths of at most ``HOP_CAP``
edges.  The pruning pipeline does not use the cluster graph; its phase 2
runs an exact bounded Dijkstra.  scipy is imported inside
:func:`build_cluster_graph`, its only user here.
"""

from __future__ import annotations

import math

import numpy as np

from .geom import _ROW_BLOCK, GEOM_RTOL, GeomError, PointSet, _dot_lengths
from .graph import GraphError, SpannerGraph, symmetric_csr

# The cross-edge radius at level i is cross_radius_const(eps) * 2^i.
def cross_radius_const(eps: float) -> float:
    return 4.0 / eps + 32.0


# The most edges a cluster_dist path may have, intra edges included.
HOP_CAP = 20


class NetHierarchy:
    """Nested nets N_0 >= N_1 >= ...

    Level i is a (2^i)-net of level i-1; the top level is a single
    point.
    """

    def __init__(self, X: PointSet, levels, spread: float):
        self.points = X
        self.levels = levels
        self.spread = spread

    def radius(self, i: int) -> float:
        return float(2.0**i)


def build_hierarchy(X: PointSet) -> NetHierarchy:
    """Greedy nested nets over a normalized point set.

    Points are scanned in index order at every level, which makes the
    construction deterministic: a point of level i-1 joins level i when
    no center chosen before it lies within 2^i.  A boolean vector marks
    the points some center already covers, and each new center u ORs in
    the row ``D[u] <= 2^i`` of the distance matrix, which is symmetric
    bit for bit (each entry squares the same coordinate differences).
    """
    if X.n < 1:
        raise GeomError("empty point set")
    if X.n == 1:
        return NetHierarchy(X, [np.array([0])], 1.0)
    if not X.is_normalized():
        raise GeomError("hierarchy requires a normalized point set")
    D = X.distances()
    spread = X.spread()
    levels = [np.arange(X.n, dtype=np.int64)]
    level = 0
    max_levels = math.ceil(math.log2(max(spread, 2.0))) + 2
    while len(levels[-1]) > 1:
        level += 1
        r = 2.0**level
        covered = np.zeros(X.n, dtype=bool)
        chosen: list = []
        for u in levels[-1].tolist():
            if not covered[u]:
                chosen.append(u)
                covered |= D[u] <= r
        levels.append(np.array(chosen, dtype=np.int64))
        if level > max_levels:  # pragma: no cover - safety net
            raise GeomError("hierarchy failed to converge")
    return NetHierarchy(X, levels, spread)


def build_net_tree_spanner(H: NetHierarchy, eps: float) -> SpannerGraph:
    """Union over levels of all cross edges.

    A cross edge at level i joins two level-i net points at distance at
    most (4/eps + 32) * 2^i.  The levels must be nested (``GeomError``
    otherwise), so a pair shares every level up to the lower of its two
    points' top levels, L, and the limit only grows with i: the pair is
    an edge exactly when its distance is at most (4/eps + 32) * 2^L.
    That one test runs over the upper triangle in row blocks, so the
    edges come in (u, v) order; their weights have the bits of
    :func:`geom._dot_lengths`.
    """
    if not 0.0 < eps < 1.0:
        raise GeomError("eps must lie in (0, 1)")
    R = cross_radius_const(eps)
    n = H.points.n
    # limit[x] is the cross radius at x's top level; -inf outside every level
    limit = np.full(n, -np.inf)
    for i, members in enumerate(H.levels):
        if i and not np.isin(members, H.levels[i - 1]).all():
            raise GeomError(f"net level {i} is not a subset of level {i - 1}")
        limit[members] = R * H.radius(i)
    D = H.points.distances()
    us, vs = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, n - 1, _ROW_BLOCK):
        hi = min(lo + _ROW_BLOCK, n - 1)
        rows = np.arange(lo, hi)[:, None]
        cols = np.arange(lo + 1, n)
        near = D[lo:hi, lo + 1 :] <= np.minimum(limit[rows], limit[cols])
        r, c = np.nonzero(near & (cols > rows))
        us.append(r + lo)
        vs.append(c + (lo + 1))
    u = np.concatenate(us)
    v = np.concatenate(vs)
    del us, vs  # the blocks' parts, before the weight pass
    return SpannerGraph.from_columns(
        n,
        u,
        v,
        _dot_lengths(H.points.coords, u, v),
        meta={"builder": "net_tree", "eps": eps, "radius_const": R},
    )


# ---------------------------------------------------------------------------
# cluster graphs


class ClusterGraph:
    """Cluster-graph distance proxy at a single scale.

    Built from a source graph whose edges are all shorter than 2^level.
    Points are covered by radius eps*2^level balls in the graph metric;
    intra edges join members to their centers, inter edges join nearby
    centers.  ``inter`` holds the inter edges as columns (a, b, w) of
    center ids and weights; a center pair may appear more than once.
    Ultra-short edges are collapsed first and all distances live on the
    quotient.
    """

    def __init__(self, level, centers, membership, inter, rep):
        self.level = level
        self.centers = centers
        self.membership = membership  # rep point -> list of (center, dist)
        self.inter = inter  # columns (a, b, w)
        self.rep = rep  # original point -> representative

    def add_bridges(self, us, vs, ws) -> None:
        """Register new source-graph edges (us[k], vs[k]) of weights ws[k]
        as inter-cluster edges between every pair of containing clusters,
        in one concatenation."""
        m, rep = self.membership, self.rep
        rows = [(c1, c2, d1 + w + d2) for u, v, w in zip(us, vs, ws)
                for c1, d1 in m[rep[u]] for c2, d2 in m[rep[v]] if c1 != c2]
        new = zip(*rows) if rows else ((), (), ())
        self.inter = tuple(
            np.concatenate([col, np.array(x, dtype=col.dtype)]) for col, x in zip(self.inter, new)
        )


def build_cluster_graph(
    G_below: SpannerGraph,
    i: int,
    eps: float,
) -> ClusterGraph:
    """Cluster graph at scale 2^i over a graph of shorter edges.

    Greedy cover by radius eps*2^i balls in the graph metric, scanning
    points in index order; inter edges join centers at graph distance at
    most 2^i, plus bridges through existing edges between clusters.
    Edges of weight at most 2^i * eps^2 / n (n the graph's point count)
    are collapsed first and the cover is built on the quotient, whose
    source distances undercut the uncontracted ones by at most
    2^i * eps^2 along any simple path.
    """
    from scipy.sparse.csgraph import connected_components, dijkstra

    scale = 2.0**i
    n, eu, ev, ew = G_below.n, G_below.u, G_below.v, G_below.w
    too_long = np.flatnonzero(ew >= scale * (1.0 + GEOM_RTOL))
    if len(too_long):
        raise GraphError(f"edge of weight {float(ew[too_long[0]])} >= scale {scale}")
    # max(n, 1): an empty graph has nothing to contract
    short = ew <= scale * eps * eps / max(n, 1) * (1.0 + GEOM_RTOL)
    _, labels = connected_components(symmetric_csr(n, eu[short], ev[short], ew[short]))
    # a point's representative is the smallest index in its component
    _, first = np.unique(labels, return_index=True)
    rep = first[labels]
    ru, rv = rep[eu], rep[ev]
    cross = ru != rv
    # the quotient graph; of the edges contracted onto one pair of
    # representatives, the lightest
    a, b, w = np.minimum(ru, rv)[cross], np.maximum(ru, rv)[cross], ew[cross]
    order = np.argsort(w, kind="stable")
    _, first = np.unique((a * n + b)[order], return_index=True)
    lightest = order[first]
    csr = symmetric_csr(n, a[lightest], b[lightest], w[lightest])
    nodes = np.unique(rep).tolist()
    radius = eps * scale
    centers: list = []
    membership: dict = {u: [] for u in nodes}
    nearest = np.full(n, np.inf)
    for u in nodes:
        if nearest[u] <= radius * (1.0 + GEOM_RTOL):
            continue
        centers.append(u)
        d = dijkstra(csr, indices=u, limit=radius * (1.0 + GEOM_RTOL))
        ball = np.flatnonzero(d < np.inf)
        for v, dv in zip(ball.tolist(), d[ball].tolist()):
            membership[v].append((u, dv))
        np.minimum(nearest, d, out=nearest)
    # centers within 2^i of each other, by the shorter of the two searches
    c = np.array(centers, dtype=np.int64)
    d = dijkstra(csr, indices=c, limit=scale * (1.0 + GEOM_RTOL))[:, c]
    d = np.minimum(d, d.T)
    i1, i2 = np.nonzero(np.triu(d < np.inf, k=1))
    F = ClusterGraph(i, centers, membership, (c[i1], c[i2], d[i1, i2]), rep.tolist())
    # bridge inter edges through existing edges between clusters
    F.add_bridges(eu[cross].tolist(), ev[cross].tolist(), ew[cross].tolist())
    return F


def cluster_dist(F: ClusterGraph, s: int, t: int) -> float:
    """Bounded-hop distance through the cluster graph.

    Minimum weight of a path of at most ``HOP_CAP`` edges whose only
    intra-cluster edges are the first and the last; +inf when no such
    path exists.  Of the inter entries of one center pair the lightest
    decides, since rounding is monotone: x + min(w) is min(x + w).
    """
    rs, rt = F.rep[s], F.rep[t]
    if rs == rt:
        return 0.0
    a, b, w = F.inter
    dist = np.full(len(F.rep), np.inf)
    for c, d in F.membership[rs]:
        dist[c] = d
    for _ in range(HOP_CAP - 2):
        nd = dist.copy()
        np.minimum.at(nd, b, dist[a] + w)
        np.minimum.at(nd, a, dist[b] + w)
        if not (nd < dist).any():
            break
        dist = nd
    return float(min(dist[c] + d for c, d in F.membership[rt]))
