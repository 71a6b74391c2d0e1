import itertools
import math

import numpy as np
import pytest

from spanner_forge.geom import PointSet, normalize
from spanner_forge.graph import (
    GREEDY_RTOL,
    Disconnected,
    GraphError,
    SpannerGraph,
    TooLarge,
    brute_force_optimal,
    emst_weight,
    metrics,
    path_greedy,
    read_edge_list,
    shortest_dist,
    verify_stretch,
    write_edge_list,
    _sorted_pairs,
)
from spanner_forge.instances import (
    gen_lightness_lb,
    gen_motivating,
    gen_random,
    gen_sparsity_lb,
    gen_sparsity_lb_x,
)

from conftest import random_points


def floyd_warshall(n, edges):
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for u, v, w in edges:
        d[u, v] = d[v, u] = min(d[u, v], w)
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    return d


def square_corners():
    return PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))


def test_shortest_dist_path_graph():
    G = SpannerGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert shortest_dist(G, 0, 2) == pytest.approx(2.0)
    assert shortest_dist(G, 1, 1) == 0.0


def test_shortest_dist_matches_floyd_warshall():
    rng = np.random.default_rng(0)
    X = random_points(40, 2, 7)
    G = path_greedy(X, 1.5)
    d = floyd_warshall(X.n, G.edges)
    for _ in range(20):
        s, t = (int(v) for v in rng.integers(0, X.n, 2))
        assert shortest_dist(G, s, t) == pytest.approx(d[s, t], rel=1e-12)


def test_shortest_dist_cutoff():
    G = SpannerGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert math.isinf(shortest_dist(G, 0, 2, cutoff=1.5))
    assert shortest_dist(G, 0, 2, cutoff=2.0) == pytest.approx(2.0)


def test_shortest_dist_symmetry_and_triangle():
    X = random_points(30, 2, 8)
    G = path_greedy(X, 1.3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = (int(v) for v in rng.integers(0, X.n, 3))
        dab = shortest_dist(G, a, b)
        assert dab == pytest.approx(shortest_dist(G, b, a), rel=1e-12)
        assert dab <= shortest_dist(G, a, c) + shortest_dist(G, c, b) + 1e-9


def test_verify_stretch_complete_graph():
    X = random_points(20, 2, 9)
    pairs = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    G = SpannerGraph.from_pairs(X, pairs)
    ms, _ = verify_stretch(G, X)
    assert ms == pytest.approx(1.0)


def test_verify_stretch_collinear_path():
    X = PointSet(np.array([[0.0], [1.0], [3.0]]))
    G = SpannerGraph.from_pairs(X, [(0, 1), (1, 2)])
    ms, _ = verify_stretch(G, X)
    assert ms == pytest.approx(1.0)


def test_verify_stretch_square_boundary():
    X = square_corners()
    G = SpannerGraph.from_pairs(X, [(0, 1), (0, 2), (1, 3), (2, 3)])
    ms, wit = verify_stretch(G, X)
    assert ms == pytest.approx(math.sqrt(2.0))
    assert wit == (0, 3)  # lexicographically first diagonal


def test_verify_stretch_disconnected():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]))
    G = SpannerGraph.from_pairs(X, [(0, 1)])
    with pytest.raises(Disconnected) as exc:
        verify_stretch(G, X)
    assert exc.value.pair == (0, 2)


def test_verify_stretch_matches_dijkstra_oracle():
    X = random_points(60, 3, 10)
    G = path_greedy(X, 1.4)
    ms, wit = verify_stretch(G, X)
    u, v = wit
    assert shortest_dist(G, u, v) / X.dist(u, v) == pytest.approx(ms, rel=1e-12)
    d = floyd_warshall(X.n, G.edges)
    eu = np.linalg.norm(X.coords[:, None, :] - X.coords[None, :, :], axis=2)
    iu, iv = np.triu_indices(X.n, 1)
    assert (d[iu, iv] / eu[iu, iv]).max() == pytest.approx(ms, rel=1e-12)


def test_adding_edge_never_increases_stretch():
    X = random_points(25, 2, 11)
    G = path_greedy(X, 1.5)
    ms, _ = verify_stretch(G, X)
    present = G.edge_set()
    rng = np.random.default_rng(2)
    for _ in range(5):
        u, v = sorted(int(x) for x in rng.integers(0, X.n, 2))
        if u == v or (u, v) in present:
            continue
        G2 = SpannerGraph.from_pairs(X, list(present) + [(u, v)])
        ms2, _ = verify_stretch(G2, X)
        assert ms2 <= ms + 1e-12


def test_emst_two_points_and_chain():
    assert emst_weight(PointSet(np.array([[0.0], [1.0]]))) == pytest.approx(1.0)
    m = 7
    chain = PointSet(np.arange(m + 1.0)[:, None])
    assert emst_weight(chain) == pytest.approx(m)


def test_emst_square_vs_enumeration():
    X = square_corners()
    # enumerate all 16 spanning trees of K4 (Cayley: 4^2)
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    w = {p: X.dist(*p) for p in pairs}
    best = math.inf
    for tree in itertools.combinations(pairs, 3):
        parent = list(range(4))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for u, v in tree:
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        if ok:
            best = min(best, sum(w[p] for p in tree))
    assert best == pytest.approx(3.0)
    assert emst_weight(X) == pytest.approx(best)


def test_emst_not_above_random_spanning_trees():
    X = random_points(15, 2, 12)
    base = emst_weight(X)
    rng = np.random.default_rng(3)
    for _ in range(100):
        # random spanning tree: random permutation, connect each to a prior
        perm = rng.permutation(X.n)
        wsum = 0.0
        for i in range(1, X.n):
            j = perm[int(rng.integers(0, i))]
            wsum += X.dist(int(perm[i]), int(j))
        assert base <= wsum + 1e-9


def test_metrics_mst_and_complete():
    X = random_points(12, 2, 13)
    # MST edges via dense search against emst_weight
    pairs = [(u, v) for u in range(X.n) for v in range(u + 1, X.n)]
    sorted_pairs = sorted(pairs, key=lambda p: X.dist(*p))
    parent = list(range(X.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = []
    for u, v in sorted_pairs:
        if find(u) != find(v):
            parent[find(u)] = find(v)
            tree.append((u, v))
    mst = SpannerGraph.from_pairs(X, tree)
    rep = metrics(mst, X)
    assert rep.lightness == pytest.approx(1.0)
    comp = SpannerGraph.from_pairs(X, pairs)
    rep2 = metrics(comp, X)
    assert rep2.sparsity == pytest.approx((X.n - 1) / 2)
    assert rep2.max_stretch == pytest.approx(1.0)


def test_metrics_greedy_random():
    X = random_points(200, 2, 14)
    G = path_greedy(X, 1.2)
    rep = metrics(G, X)
    assert rep.max_stretch <= 1.2 + 1e-9
    assert rep.lightness >= 1.0


def test_path_greedy_modes_agree_and_deterministic():
    X = random_points(40, 2, 15)
    g1 = path_greedy(X, 1.25, mode="matrix")
    g2 = path_greedy(X, 1.25, mode="dijkstra")
    g3 = path_greedy(X, 1.25, mode="matrix")
    assert g1.edge_set() == g2.edge_set() == g3.edge_set()


def full_update_greedy(X, t):
    """Path greedy with a full n x n distance update per accepted edge."""
    n = X.n
    iu, iv, w = _sorted_pairs(X)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    buf = np.empty((n, n))
    edges = []
    for k in range(len(w)):
        u, v, wk = int(iu[k]), int(iv[k]), float(w[k])
        if dist[u, v] <= t * wk * (1.0 + GREEDY_RTOL):
            continue
        edges.append((u, v, wk))
        np.add.outer(dist[:, u], dist[v, :], out=buf)
        buf += wk
        np.minimum(dist, buf, out=dist)
        np.minimum(dist, buf.T, out=dist)
    return edges


def _int_grid(side, d):
    return PointSet(np.array(list(itertools.product(range(side), repeat=d)), dtype=float))


@pytest.mark.parametrize(
    "make, t",
    [
        (lambda: normalize(gen_lightness_lb(0.02).points), 1.02),
        (lambda: normalize(gen_sparsity_lb(1e-4).points), 1.0 + 1e-4),
        (lambda: normalize(gen_sparsity_lb_x(1e-4, 2).points), 1.0 + 1e-4),
        (lambda: normalize(gen_motivating(0.01).points), 1.01),
        (lambda: normalize(gen_random(150, 2, "clustered", 0).points), 1.1),
        (lambda: _int_grid(15, 2), 1.0),
        (lambda: _int_grid(15, 2), 1.1),
        (lambda: _int_grid(15, 2), 1.5),
        (lambda: _int_grid(6, 3), 1.1),
        (lambda: PointSet(np.arange(60.0)[:, None]), 1.0),
    ],
    ids=[
        "lightness-lb", "sparsity-lb", "sparsity-lb-x", "motivating", "clustered",
        "grid2-1.0", "grid2-1.1", "grid2-1.5", "grid3-1.1", "line-1.0",
    ],
)
def test_path_greedy_matrix_matches_full_update(make, t):
    X = make()
    assert path_greedy(X, t, mode="matrix").edges == full_update_greedy(X, t)


def test_brute_force_collinear():
    X = PointSet(np.array([[0.0], [1.0], [3.0]]))
    G = brute_force_optimal(X, 0.3)
    assert G.edge_set() == {(0, 1), (1, 2)}


def test_brute_force_square_vs_full_enumeration():
    X = square_corners()
    eps = 0.5
    G = brute_force_optimal(X, eps)
    assert G.edge_set() == {(0, 1), (0, 2), (1, 3), (2, 3)}
    # independent oracle: enumerate all 64 subsets of the 6 candidate edges
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    best = None
    for r in range(7):
        for sub in itertools.combinations(pairs, r):
            d = floyd_warshall(4, [(u, v, X.dist(u, v)) for u, v in sub])
            eu = np.array([[X.dist(u, v) if u != v else 1.0 for v in range(4)] for u in range(4)])
            if np.all(d <= (1 + eps) * eu * (1 + 1e-12)):
                best = set(sub)
                break
        if best is not None:
            break
    assert G.edge_set() == best


def test_brute_force_vs_full_enumeration_random():
    X = random_points(5, 2, 16)
    eps = 0.2
    G = brute_force_optimal(X, eps)
    pairs = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    eu = np.ones((5, 5))
    for u in range(5):
        for v in range(5):
            if u != v:
                eu[u, v] = X.dist(u, v)
    sizes = []
    for r in range(len(pairs) + 1):
        found = False
        for sub in itertools.combinations(pairs, r):
            d = floyd_warshall(5, [(u, v, X.dist(u, v)) for u, v in sub])
            if np.all(d <= (1 + eps) * eu * (1 + 1e-12)):
                found = True
                break
        if found:
            sizes.append(r)
            break
    assert len(G.edges) == sizes[0]


def test_brute_force_oracle_not_above_greedy():
    for seed in range(5):
        X = random_points(8, 2, 100 + seed)
        G = brute_force_optimal(X, 0.1)
        g = path_greedy(X, 1.1)
        assert len(G.edges) <= len(g.edges)
        ms, _ = verify_stretch(G, X)
        assert ms <= 1.1 + 1e-9


def test_brute_force_min_weight():
    X = square_corners()
    G = brute_force_optimal(X, 0.5, objective="min_weight")
    ms, _ = verify_stretch(G, X)
    assert ms <= 1.5 + 1e-9
    assert G.weight() <= 4.0 + 1e-9


def test_brute_force_too_large():
    X = random_points(12, 2, 17)
    with pytest.raises(TooLarge):
        brute_force_optimal(X, 0.5)


def test_edge_list_round_trip(tmp_path):
    X = random_points(30, 2, 18)
    G = path_greedy(X, 1.3)
    path = tmp_path / "edges.txt"
    write_edge_list(G, path)
    G2 = read_edge_list(path, X)
    assert G2.edge_set() == G.edge_set()
    for (u, v, w), (u2, v2, w2) in zip(sorted(G.edges), sorted(G2.edges)):
        assert (u, v) == (u2, v2)
        assert w == pytest.approx(w2, rel=1e-15)


def test_spanner_graph_invariants():
    with pytest.raises(GraphError):
        SpannerGraph(3, [(0, 0, 1.0)])
    with pytest.raises(GraphError):
        SpannerGraph(3, [(0, 1, 1.0), (1, 0, 1.0)])
    with pytest.raises(GraphError):
        SpannerGraph(2, [(0, 5, 1.0)])
    X = square_corners()
    G = SpannerGraph.from_pairs(X, [(0, 1)])
    G.validate_weights(X)


def test_verify_stretch_worker_count_invariant(monkeypatch):
    X = random_points(180, 2, 19)
    G = path_greedy(X, 1.4)
    base = verify_stretch(G, X, workers=1)
    assert verify_stretch(G, X, workers=4) == base
    monkeypatch.setenv("SPANNER_FORGE_THREADS", "3")
    assert verify_stretch(G, X) == base
