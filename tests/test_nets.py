import math

import numpy as np
import pytest

from spanner_forge import nets
from spanner_forge.geom import GEOM_RTOL, GeomError, PointSet, normalize
from spanner_forge.graph import SpannerGraph, path_greedy, symmetric_csr, verify_stretch
from spanner_forge.nets import (
    NetHierarchy,
    build_cluster_graph,
    build_hierarchy,
    build_net_tree_spanner,
    cluster_dist,
    cross_radius_const,
)

from spanner_forge.instances import gen_random

from conftest import (
    approximate_edge,
    check_invariants,
    int_grid,
    net_parent,
    point_dist,
    random_points,
    shortest_dist,
)


@pytest.mark.parametrize("call, match", [
    (lambda: build_hierarchy(PointSet(np.array([[0.0], [3.0], [7.0]]))), "normalized"),
    (lambda: build_net_tree_spanner(build_hierarchy(random_points(10, 2, 3)), 0.0), "eps"),
    (lambda: build_net_tree_spanner(build_hierarchy(random_points(10, 2, 3)), 1.0), "eps"),
], ids=["unnormalized", "eps=0", "eps=1"])
def test_hierarchy_and_net_tree_reject_bad_input(call, match):
    with pytest.raises(GeomError, match=match):
        call()


def test_hierarchy_two_points():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    H = build_hierarchy(X)
    assert len(H.levels[0]) == 2
    assert len(H.levels[-1]) == 1


def test_hierarchy_collinear():
    X = PointSet(np.arange(8.0)[:, None])
    H = build_hierarchy(X)
    n1 = H.levels[1]
    pts = X.coords[n1]
    d = np.abs(pts[:, None, 0] - pts[None, :, 0])
    np.fill_diagonal(d, np.inf)
    assert d.min() > 2.0
    d_all = np.abs(X.coords[:, None, 0] - pts[None, :, 0])
    assert d_all.min(axis=1).max() <= 2.0


def test_hierarchy_random_invariants():
    X = random_points(500, 2, 20)
    H = build_hierarchy(X)
    check_invariants(H)
    assert len(H.levels[-1]) == 1
    assert len(H.levels) <= math.ceil(math.log2(H.spread)) + 2


def test_hierarchy_deterministic():
    X = random_points(120, 3, 21)
    H1 = build_hierarchy(X)
    H2 = build_hierarchy(X)
    assert all(np.array_equal(a, b) for a, b in zip(H1.levels, H2.levels))
    for i in range(len(H1.levels) - 1):
        for u in H1.levels[i].tolist():
            assert net_parent(H1, u, i) == net_parent(H2, u, i)


def test_net_tree_spanner_two_points():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    G = build_net_tree_spanner(build_hierarchy(X), 0.5)
    assert G.edge_set() == {(0, 1)}


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_net_tree_spanner_stretch(eps):
    X = random_points(100, 2, 22)
    G = build_net_tree_spanner(build_hierarchy(X), eps)
    ms, _ = verify_stretch(G, X)
    assert ms <= 1.0 + eps + 1e-9


def test_net_tree_spanner_grid_edge_count():
    xs, ys = np.meshgrid(np.arange(10.0), np.arange(10.0))
    X = PointSet(np.column_stack([xs.ravel(), ys.ravel()]))
    G = build_net_tree_spanner(build_hierarchy(X), 0.25)
    per_point = len(G.edges) / X.n
    # record the observed constant; the bound is eps^(-O(d)) * n
    print(f"net-tree grid 10x10, eps=0.25: {len(G.edges)} edges, {per_point:.1f}/point")
    assert per_point <= X.n  # sanity: never beyond the complete graph


def loop_hierarchy(X):
    """The greedy nested nets, one min over the chosen centers per point:
    the reference for build_hierarchy's covered vector."""
    if X.n == 1:
        return [np.array([0])]
    D = X.distances()
    levels = [np.arange(X.n, dtype=np.int64)]
    level = 0
    while len(levels[-1]) > 1:
        level += 1
        r = 2.0**level
        chosen: list = []
        for u in levels[-1].tolist():
            if not chosen or float(D[u, chosen].min()) > r:
                chosen.append(u)
        levels.append(np.array(chosen, dtype=np.int64))
    return levels


def loop_net_tree_spanner(H, eps):
    """Net-tree edge columns from one n x n mask that each level ORs its
    members' block into, with one norm per edge: the reference for
    build_net_tree_spanner's top-level test."""
    R = cross_radius_const(eps)
    D = H.points.distances()
    cross = np.zeros(D.shape, dtype=bool)
    for i, members in enumerate(H.levels):
        block = np.ix_(members, members)
        cross[block] |= D[block] <= R * H.radius(i)
    u, v = np.nonzero(np.triu(cross, k=1))
    c = H.points.coords
    w = np.array([np.linalg.norm(c[a] - c[b]) for a, b in zip(u, v)], dtype=np.float64)
    return u.astype(np.int64), v.astype(np.int64), w


def relabeled_uniform(n, d, seed):
    """A workload-style uniform instance: generator seed 0, rows permuted."""
    points = gen_random(n, d, "uniform", 0).points.coords
    return normalize(points[np.random.default_rng(seed).permutation(n)])


NET_INPUTS = {
    **{f"uniform-d{d}-n{n}": (lambda n=n, d=d: random_points(n, d, 60 + d))
       for n in (60, 250) for d in (1, 2, 3, 4)},
    "uniform-d2-n129": lambda: random_points(129, 2, 7),
    "relabeled-d2-n300": lambda: relabeled_uniform(300, 2, 3),
    "relabeled-d3-n300": lambda: relabeled_uniform(300, 3, 3),
    "clustered-d2-n300": lambda: normalize(gen_random(300, 2, "clustered", 7).points),
    "grid8x8": lambda: int_grid(8, 2),
    "n1": lambda: PointSet(np.zeros((1, 2))),
    "n2": lambda: PointSet(np.array([[0.0, 0.0], [1.0, 0.0]])),
}


@pytest.mark.parametrize(
    "make", list(NET_INPUTS.values()) + [lambda: PointSet(np.arange(40.0)[:, None])],
    ids=list(NET_INPUTS) + ["line40"],
)
def test_hierarchy_matches_loop(make):
    # the unit-spaced line and the grid put points at exactly r = 2^i
    X = make()
    got, want = build_hierarchy(X).levels, loop_hierarchy(X)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.int64
        assert np.array_equal(a, b)


@pytest.mark.parametrize("make", list(NET_INPUTS.values()), ids=list(NET_INPUTS))
def test_net_tree_spanner_matches_loop(make):
    H = build_hierarchy(make())
    for eps in (0.1, 0.5):
        G = build_net_tree_spanner(H, eps)
        for got, want in zip((G.u, G.v, G.w), loop_net_tree_spanner(H, eps)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert all(tuple(map(type, e)) == (int, int, float) for e in G.edges)


def test_net_tree_spanner_rejects_levels_that_are_not_nested():
    X = PointSet(np.arange(4.0)[:, None])
    levels = [np.arange(4), np.array([0, 2]), np.array([1])]
    with pytest.raises(GeomError, match="level 2 is not a subset of level 1"):
        build_net_tree_spanner(NetHierarchy(X, levels, 3.0), 0.5)


def test_approximate_edge_direct_cross_edge():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [40.0, 0.0]]))
    H = build_hierarchy(X)
    G = build_net_tree_spanner(H, 0.5)
    u2, v2, lvl = approximate_edge(H, G, 0, 1)
    assert (u2, v2, lvl) == (0, 1, 0)  # adjacent at level 0


def test_approximate_edge_displacement_bound():
    eps = 0.25
    X = random_points(200, 2, 23)
    H = build_hierarchy(X)
    G = build_net_tree_spanner(H, eps)
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 500:
        u, v = (int(z) for z in rng.integers(0, X.n, 2))
        if u == v:
            continue
        a, b, lvl = approximate_edge(H, G, u, v)
        d = point_dist(X, u, v)
        assert np.linalg.norm(X.coords[a] - X.coords[u]) <= eps * d + 1e-12
        assert np.linalg.norm(X.coords[b] - X.coords[v]) <= eps * d + 1e-12
        checked += 1


def test_cluster_graph_empty_edges():
    X = random_points(10, 2, 25)
    G = SpannerGraph(X.n, [])
    F = build_cluster_graph(G, 2, 0.25)
    assert sorted(F.centers) == list(range(X.n))
    assert [(len(col), col.dtype) for col in F.inter] == [
        (0, np.int64), (0, np.int64), (0, np.float64)
    ]
    for u in range(X.n):
        assert F.membership[u] == [(u, 0.0)]


def test_cluster_graph_of_empty_graph_is_empty_with_and_without_contraction():
    # the contraction threshold divides by n, which is 0 here
    for c in (False, True):
        F = build_cluster_graph(SpannerGraph(0, []), 1, 0.25, contract=c)
        assert (F.level, F.centers, F.membership, F.rep) == (1, [], {}, [])
        assert [col.tolist() for col in F.inter] == [[], [], []]


def test_contraction_keeps_lighter_of_parallel_quotient_edges():
    # 0-1 and 2-3 contract, so 0-2 (0.9) and 1-3 (0.4) both join the
    # representatives 0 and 2; only the lighter one may count, not their sum
    rows = [(0, 1, 0.01), (2, 3, 0.01), (0, 2, 0.9), (1, 3, 0.4), (3, 4, 0.4)]
    F = build_cluster_graph(SpannerGraph(5, rows), 1, 0.25, contract=True)
    assert F.rep == [0, 0, 2, 2, 4]
    assert F.centers == [0, 4]
    assert F.membership == {
        0: [(0, 0.0)],
        2: [(0, pytest.approx(0.4)), (4, pytest.approx(0.4))],
        4: [(4, 0.0)],
    }
    # every inter entry joins 0 and 4: the centers' own link (0.8) and the
    # bridges through 0-2 (1.3), 1-3 and 3-4 (0.8 each); the lightest counts
    a, b, w = F.inter
    assert sorted(zip(a.tolist(), b.tolist())) == [(0, 4)] * 4
    assert sorted(w.tolist()) == pytest.approx([0.8, 0.8, 0.8, 1.3])
    assert cluster_dist(F, 0, 4) == pytest.approx(0.8)


def test_cluster_graph_path_radii():
    n = 40
    X = PointSet(np.arange(float(n))[:, None])
    G = SpannerGraph.from_pairs(X, [(i, i + 1) for i in range(n - 1)])
    i, eps = 3, 0.25
    F = build_cluster_graph(G, i, eps)
    radius = eps * 2.0**i  # = 2 in the graph metric
    for u, lst in F.membership.items():
        for c, d in lst:
            assert d <= radius * (1 + 1e-9)
            assert abs(u - c) <= 2  # BFS oracle on the path graph


def test_cluster_center_separation():
    X = random_points(200, 2, 26)
    S = path_greedy(X, 1.3)
    i = 4
    below = [(u, v, w) for u, v, w in S.edges if w < 2.0**i]
    GB = SpannerGraph(X.n, below)
    eps = 0.2
    F = build_cluster_graph(GB, i, eps)
    sep = eps * 2.0**i
    for a in range(len(F.centers)):
        for b in range(a + 1, len(F.centers)):
            d = shortest_dist(GB, F.centers[a], F.centers[b])
            assert d > sep * (1 - 1e-9)


def test_cluster_dist_identity_and_same_cluster():
    X = random_points(50, 2, 27)
    S = path_greedy(X, 1.3)
    i = 4
    below = [(u, v, w) for u, v, w in S.edges if w < 2.0**i]
    GB = SpannerGraph(X.n, below)
    F = build_cluster_graph(GB, i, 0.25)
    assert cluster_dist(F, 7, 7) == 0.0
    # any member pair sharing a center is within two intra hops
    for u in range(X.n):
        for c, d in F.membership[u]:
            for v in range(X.n):
                for c2, d2 in F.membership[v]:
                    if c2 == c and u != v:
                        assert cluster_dist(F, u, v) <= d + d2 + 1e-9


def test_cluster_dist_sandwich():
    eps = 0.2
    X = random_points(300, 2, 28)
    S = path_greedy(X, 1.0 + eps)
    rng = np.random.default_rng(8)
    med = np.median(
        [point_dist(X, int(a), int(b)) for a, b in rng.integers(0, X.n, (60, 2)) if a != b]
    )
    i = int(math.floor(math.log2(med)))
    below = [(u, v, w) for u, v, w in S.edges if w < 2.0**i]
    GB = SpannerGraph(X.n, below)
    F = build_cluster_graph(GB, i, eps)
    worst = 1.0
    checked = 0
    for _ in range(2000):
        if checked >= 200:
            break
        u, v = (int(z) for z in rng.integers(0, X.n, 2))
        if u == v:
            continue
        d_eu = point_dist(X, u, v)
        if not 2.0**i <= d_eu < 2.0 ** (i + 1):
            continue
        exact = shortest_dist(GB, u, v)
        if math.isinf(exact):
            continue
        cd = cluster_dist(F, u, v)
        assert cd >= exact * (1 - 1e-9)  # never underestimates
        worst = max(worst, cd / exact)
        checked += 1
    assert checked >= 100
    print(f"cluster_dist overestimation factor: {worst:.4f} (c = {(worst-1)/eps:.2f})")
    assert worst <= 1.0 + 10 * eps


def test_contracted_cluster_graph_deviation():
    # spread ~2^21 so that the contraction threshold 2^i eps^2 / n
    # exceeds the unit edge weights at the top scale
    blob1 = np.arange(20.0)
    blob2 = blob1 + 2.0**21
    X = PointSet(np.concatenate([blob1, blob2])[:, None])
    pairs = [(i, i + 1) for i in range(19)] + [(20 + i, 21 + i) for i in range(19)]
    pairs.append((19, 20))  # long bridge
    G = SpannerGraph.from_pairs(X, pairs)
    i = 22
    eps = 0.1
    below = [(u, v, w) for u, v, w in G.edges if w < 2.0**i]
    GB = SpannerGraph(X.n, below)
    F = build_cluster_graph(GB, i, eps, contract=False)
    Fc = build_cluster_graph(GB, i, eps, contract=True)
    thr = 2.0**i * eps * eps / X.n
    assert thr > 1.0  # short edges really are contracted
    assert any(r != u for u, r in enumerate(Fc.rep))
    slack = 2.0**i * eps * eps
    rng = np.random.default_rng(9)
    for _ in range(100):
        u, v = (int(z) for z in rng.integers(0, X.n, 2))
        d1 = cluster_dist(F, u, v)
        d2 = cluster_dist(Fc, u, v)
        if math.isinf(d1) and math.isinf(d2):
            continue
        assert d2 <= d1 + 1e-9
        assert d1 <= d2 + slack + 1e-9


def union_find_reps(G, thr):
    """Contraction representatives from a union-find that keeps the
    smaller root: the reference for build_cluster_graph's components."""
    p = list(range(G.n))

    def find(x):
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    for u, v, w in G.edges:
        if w <= thr * (1.0 + 1e-9):
            ru, rv = find(u), find(v)
            p[max(ru, rv)] = min(ru, rv)
    return [find(x) for x in range(G.n)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contraction_reps_match_union_find(seed):
    X = normalize(gen_random(120, 2, "clustered", seed).points)
    S = path_greedy(X, 1.3)
    sizes = []
    # above the spread every edge is below 2^i and the threshold keeps growing
    for eps in (0.25, 0.5):
        for i in range(1, int(math.log2(X.spread())) + 14):
            GB = SpannerGraph(X.n, [e for e in S.edges if e[2] < 2.0**i])
            F = build_cluster_graph(GB, i, eps, contract=True)
            assert F.rep == union_find_reps(GB, 2.0**i * eps * eps / X.n)
            assert all(type(r) is int for r in F.rep)
            sizes.append(len(set(F.rep)))
    assert min(sizes) == 1 and any(1 < k < X.n // 2 for k in sizes)


def test_cluster_graph_rejects_long_edges():
    X = random_points(10, 2, 29)
    pairs = [(u, v) for u in range(10) for v in range(u + 1, 10)]
    G = SpannerGraph.from_pairs(X, pairs)
    with pytest.raises(Exception):
        build_cluster_graph(G, 0, 0.25)


def test_cluster_dist_matches_bounded_hop_enumeration(monkeypatch):
    # independent oracle: depth-limited search over inter-cluster edges,
    # with a hop cap that binds
    monkeypatch.setattr(nets, "HOP_CAP", 8)
    X = random_points(60, 2, 42)
    S = path_greedy(X, 1.3)
    i = 4
    below = [(u, v, w) for u, v, w in S.edges if w < 2.0**i]
    GB = SpannerGraph(X.n, below)
    F = build_cluster_graph(GB, i, 0.25)
    nbrs = {}
    for a, b, w in zip(*(col.tolist() for col in F.inter)):
        nbrs.setdefault(a, []).append((b, w))
        nbrs.setdefault(b, []).append((a, w))

    def oracle(s, t, cap):
        if F.rep[s] == F.rep[t]:
            return 0.0
        best = math.inf
        goal = {c: d for c, d in F.membership[F.rep[t]]}
        frontier = {c: d for c, d in F.membership[F.rep[s]]}
        for c, d in frontier.items():
            if c in goal:
                best = min(best, d + goal[c])
        for _ in range(cap - 2):
            nxt = dict(frontier)
            for c, d in frontier.items():
                for c2, w in nbrs.get(c, ()):
                    nd = d + w
                    if nd < nxt.get(c2, math.inf):
                        nxt[c2] = nd
            frontier = nxt
            for c, d in frontier.items():
                if c in goal:
                    best = min(best, d + goal[c])
        return best

    rng = np.random.default_rng(43)
    for _ in range(60):
        s, t = (int(z) for z in rng.integers(0, X.n, 2))
        got = cluster_dist(F, s, t)
        want = oracle(s, t, 8)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, rel=1e-12)


class DictClusterGraph:
    """The cluster graph with its inter edges in a dict: (c1, c2) with
    c1 < c2 -> the lightest weight.  The reference for the columns."""

    def __init__(self, level, centers, membership, inter, rep):
        self.level = level
        self.centers = centers
        self.membership = membership
        self.inter = inter
        self.rep = rep

    def add_bridge(self, s, t, w):
        rs, rt = self.rep[s], self.rep[t]
        for c1, d1 in self.membership.get(rs, ()):
            for c2, d2 in self.membership.get(rt, ()):
                if c1 == c2:
                    continue
                key = (c1, c2) if c1 < c2 else (c2, c1)
                cand = d1 + w + d2
                if cand < self.inter.get(key, math.inf):
                    self.inter[key] = cand


def dict_cluster_graph(G_below, i, eps, contract=False):
    """build_cluster_graph, one dict update per inter edge."""
    from scipy.sparse.csgraph import connected_components, dijkstra

    scale = 2.0**i
    n, eu, ev, ew = G_below.n, G_below.u, G_below.v, G_below.w
    rep = np.arange(n)
    if contract and n:
        short = ew <= scale * eps * eps / n * (1.0 + GEOM_RTOL)
        _, labels = connected_components(symmetric_csr(n, eu[short], ev[short], ew[short]))
        _, first = np.unique(labels, return_index=True)
        rep = first[labels]
    ru, rv = rep[eu], rep[ev]
    cross = ru != rv
    a, b, w = np.minimum(ru, rv)[cross], np.maximum(ru, rv)[cross], ew[cross]
    order = np.argsort(w, kind="stable")
    _, first = np.unique((a * n + b)[order], return_index=True)
    lightest = order[first]
    csr = symmetric_csr(n, a[lightest], b[lightest], w[lightest])
    nodes = np.unique(rep).tolist()
    radius = eps * scale
    centers, membership = [], {u: [] for u in nodes}
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
    c = np.array(centers, dtype=np.int64)
    d = dijkstra(csr, indices=c, limit=scale * (1.0 + GEOM_RTOL))[:, c]
    d = np.minimum(d, d.T)
    i1, i2 = np.nonzero(np.triu(d < np.inf, k=1))
    inter = dict(zip(zip(c[i1].tolist(), c[i2].tolist()), d[i1, i2].tolist()))
    F = DictClusterGraph(i, centers, membership, inter, rep.tolist())
    for u, v, w in zip(eu[cross].tolist(), ev[cross].tolist(), ew[cross].tolist()):
        F.add_bridge(u, v, w)
    return F


def dict_cluster_dist(F, s, t, hop_cap=20):
    """cluster_dist over a DictClusterGraph: a center -> position map and
    the inter columns rebuilt from the dict on every query."""
    rs, rt = F.rep[s], F.rep[t]
    if rs == rt:
        return 0.0
    start = F.membership.get(rs, ())
    goal = F.membership.get(rt, ())
    if not start or not goal:
        return math.inf
    idx = {c: k for k, c in enumerate(F.centers)}
    dist = np.full(len(F.centers), np.inf)
    for c, d in start:
        dist[idx[c]] = min(dist[idx[c]], d)
    if F.inter:
        e_a = np.fromiter((idx[a] for a, _ in F.inter), dtype=np.int64, count=len(F.inter))
        e_b = np.fromiter((idx[b] for _, b in F.inter), dtype=np.int64, count=len(F.inter))
        e_w = np.fromiter(F.inter.values(), dtype=np.float64, count=len(F.inter))
        for _ in range(max(0, hop_cap - 2)):
            nd = dist.copy()
            np.minimum.at(nd, e_b, dist[e_a] + e_w)
            np.minimum.at(nd, e_a, dist[e_b] + e_w)
            if not (nd < dist).any():
                break
            dist = nd
    best = math.inf
    for c, d in goal:
        best = min(best, dist[idx[c]] + d)
    return float(best)


def hexes(dist, F, pairs):
    return [dist(F, s, t).hex() for s, t in pairs]


@pytest.mark.parametrize("distribution, seed", [("uniform", 1), ("clustered", 2), ("uniform", 3)])
def test_cluster_dist_matches_dict_reference_bit_for_bit(distribution, seed):
    X = normalize(gen_random(80, 2, distribution, seed).points)
    S = path_greedy(X, 1.1)
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, X.n, (40, 2)).tolist()
    levels = range(1, int(math.log2(X.spread())) + 2)
    for i in levels:
        GB = SpannerGraph(X.n, [e for e in S.edges if e[2] < 2.0**i])
        for contract in (False, True):
            F = build_cluster_graph(GB, i, 0.2, contract)
            R = dict_cluster_graph(GB, i, 0.2, contract)
            assert (F.centers, F.membership, F.rep) == (R.centers, R.membership, R.rep)
            lightest = {}
            for a, b, w in zip(*(col.tolist() for col in F.inter)):
                key = (min(a, b), max(a, b))
                lightest[key] = min(w, lightest.get(key, math.inf))
            assert lightest == R.inter
            assert hexes(cluster_dist, F, pairs) == hexes(dict_cluster_dist, R, pairs)
            # and after bridges through new edges, as phase 2 adds its kept ones
            for s, t in rng.integers(0, X.n, (3, 2)).tolist():
                if s != t:
                    w = point_dist(X, s, t)
                    F.add_bridges([s], [t], [w])
                    R.add_bridge(s, t, w)
                assert hexes(cluster_dist, F, pairs) == hexes(dict_cluster_dist, R, pairs)
