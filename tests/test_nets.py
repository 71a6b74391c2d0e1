import math

import numpy as np
import pytest

from spanner_forge.geom import GeomError, PointSet, normalize
from spanner_forge.graph import SpannerGraph, path_greedy, verify_stretch
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
    assert F.inter == {}
    for u in range(X.n):
        assert F.membership[u] == [(u, 0.0)]


def test_cluster_graph_of_empty_graph_is_empty_with_and_without_contraction():
    # the contraction threshold divides by n, which is 0 here
    F, Fc = (build_cluster_graph(SpannerGraph(0, []), 1, 0.25, contract=c) for c in (False, True))
    assert vars(Fc) == vars(F)
    assert (F.centers, F.membership, F.inter, F.rep) == ([], {}, {}, [])


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
    assert F.inter == {(0, 4): pytest.approx(0.8)}


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


def test_cluster_dist_matches_bounded_hop_enumeration():
    # independent oracle: depth-limited search over inter-cluster edges
    X = random_points(60, 2, 42)
    S = path_greedy(X, 1.3)
    i = 4
    below = [(u, v, w) for u, v, w in S.edges if w < 2.0**i]
    GB = SpannerGraph(X.n, below)
    F = build_cluster_graph(GB, i, 0.25)
    nbrs = {}
    for (a, b), w in F.inter.items():
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
        got = cluster_dist(F, s, t, hop_cap=8)
        want = oracle(s, t, 8)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, rel=1e-12)
