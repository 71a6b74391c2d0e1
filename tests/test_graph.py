import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from spanner_forge.geom import PointSet, TooFewPoints, normalize
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
    symmetric_csr,
    verify_stretch,
    write_edge_list,
    _grouped_pairs,
    _prim_weight,
)
import spanner_forge.nets as nets
from spanner_forge.nets import build_cluster_graph, build_hierarchy, build_net_tree_spanner
from spanner_forge.prune import greedy_prune
from spanner_forge.instances import (
    gen_lightness_lb,
    gen_motivating,
    gen_random,
    gen_sparsity_lb,
    gen_sparsity_lb_x,
)

from conftest import (
    LENGTH_CASES,
    bounded_dijkstra,
    coo_symmetric_csr,
    int_grid,
    point_dist,
    prim_weight_rows,
    random_points,
    shortest_dist,
    sorted_pairs,
    validate_weights,
    verify_stretch_rows,
)


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
    X1 = PointSet(np.array([[0.0]]))  # one point: no pair to stretch
    assert verify_stretch(SpannerGraph.from_pairs(X1, []), X1) == (1.0, (0, 0))


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


def test_verify_stretch_has_no_size_cap():
    # the largest arc sweep has n = 5389; verification holds (64, n) blocks
    n = 5001
    X = PointSet(np.arange(float(n))[:, None])
    G = SpannerGraph.from_pairs(X, np.column_stack((np.arange(n - 1), np.arange(1, n))))
    assert verify_stretch(G, X)[0] == 1.0


# name: (points, greedy stretch factor; None builds a net tree at eps=0.5)
VERIFY_CASES = {
    "arc": (lambda: normalize(gen_lightness_lb(0.01).points), 1.01),
    "grid15": (lambda: int_grid(15, 2), 1.1),  # many tied lengths
    "net-tree-d3": (lambda: normalize(gen_random(80, 3, "uniform", 4).points), None),
    "clustered": (lambda: normalize(gen_random(150, 2, "clustered", 0).points), 1.1),
    "n2": (lambda: PointSet(np.array([[0.0], [1.0]])), 1.5),
}


@pytest.mark.parametrize("case", list(VERIFY_CASES))
def test_verify_stretch_matches_undirected_rows(case):
    points, t = VERIFY_CASES[case]
    X = points()
    G = build_net_tree_spanner(build_hierarchy(X), 0.5) if t is None else path_greedy(X, t)
    assert verify_stretch(G, X) == verify_stretch_rows(G, X)


def test_verify_stretch_disconnected_pair_matches_undirected_rows():
    X = int_grid(6, 2)
    G = path_greedy(X, 1.1)
    keep = (G.u != 14) & (G.v != 14)  # vertex 14 loses every edge
    H = SpannerGraph.from_pairs(X, np.stack([G.u[keep], G.v[keep]], axis=1))
    with pytest.raises(Disconnected) as got:
        verify_stretch(H, X)
    with pytest.raises(Disconnected) as want:
        verify_stretch_rows(H, X)
    assert got.value.pair == want.value.pair == (0, 14)


@pytest.mark.parametrize("case", list(LENGTH_CASES))
def test_verify_stretch_and_prim_match_row_scans(case):
    points, t = LENGTH_CASES[case]
    X = points()
    G = path_greedy(X, t)
    assert verify_stretch(G, X) == verify_stretch_rows(G, X)
    # the EMST computes its rows and builds no matrix, or reads the rows
    # of one already built
    want = prim_weight_rows(X)
    assert emst_weight(X) == want and X._dist is None
    X.distances()
    assert _prim_weight(X) == want


@pytest.mark.parametrize("cut", [100, 70, 65])
def test_verify_stretch_disconnected_past_first_block(cut):
    # row 0 reaches every vertex of a connected graph, so the first
    # unreachable pair is always (0, j); here j lies past the first block
    c = np.random.default_rng(7).random((130, 2))
    c[65:] += 10.0  # two far clusters: greedy joins each one inside itself
    X = normalize(c)
    G = path_greedy(X, 1.1)
    if cut == 65:  # drop the edges between the clusters
        keep = (G.u < 65) == (G.v < 65)
    else:  # isolate one vertex
        keep = (G.u != cut) & (G.v != cut)
    H = SpannerGraph.from_pairs(X, np.stack([G.u[keep], G.v[keep]], axis=1))
    with pytest.raises(Disconnected) as got:
        verify_stretch(H, X)
    with pytest.raises(Disconnected) as want:
        verify_stretch_rows(H, X)
    assert got.value.pair == want.value.pair == (0, cut)


def dense_graph(X, seed, drop, thin=0, parts=None):
    """X's pairs less a random share ``drop`` of them.  ``thin`` random
    vertices keep only two pairs, to vertices not thinned, so that some
    pairs need three or more hops.  ``parts`` labels the vertices, and
    only pairs with equal labels stay."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(X.n, 1)
    keep = rng.random(len(iu)) >= drop
    if parts is not None:
        keep &= parts[iu] == parts[iv]
    thinned = rng.choice(X.n, thin, replace=False)
    for x in thinned:
        at = np.flatnonzero((iu == x) | (iv == x))
        keep[at] = False
        to = np.flatnonzero(~np.isin(iu[at] + iv[at] - x, thinned))
        keep[at[rng.choice(to, 2, replace=False)]] = True
    return SpannerGraph.from_pairs(X, np.column_stack((iu[keep], iv[keep])))


def screened(G):
    """verify_stretch bounds the sources of G before searching them."""
    return G.n - 1 > 64 and 4 * len(G.u) >= G.n * (G.n - 1)


def near_collinear(n, seed):
    rng = np.random.default_rng(seed)
    c = np.zeros((n, 2))
    c[:, 0] = rng.permutation(n)
    c[:, 1] = 1e-6 * rng.random(n)
    return normalize(c)


# name: (points, share of pairs dropped, vertices thinned)
DENSE_CASES = {
    "uniform2-66": (lambda: random_points(66, 2, 1), 0.35, 3),
    "uniform2-130": (lambda: random_points(130, 2, 2), 0.3, 5),
    "uniform3-97": (lambda: random_points(97, 3, 3), 0.1, 2),
    "uniform2-110-two-hops": (lambda: random_points(110, 2, 4), 0.4, 0),
    "grid9x9": (lambda: int_grid(9, 2), 0.3, 4),  # tied ratios
    "grid11x11": (lambda: int_grid(11, 2), 0.4, 0),
    "grid5x5x5": (lambda: int_grid(5, 3), 0.2, 6),
    "near-collinear-80": (lambda: near_collinear(80, 5), 0.35, 2),
    "near-collinear-128": (lambda: near_collinear(128, 6), 0.2, 0),
}


@pytest.mark.parametrize("case", list(DENSE_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_verify_stretch_matches_undirected_rows_on_dense_graphs(case, seed):
    points, drop, thin = DENSE_CASES[case]
    X = points()
    G = dense_graph(X, seed, drop, thin)
    assert screened(G) and G.is_connected()
    assert verify_stretch(G, X) == verify_stretch_rows(G, X)


@pytest.mark.parametrize("n", [66, 100, 130])
def test_verify_stretch_complete_graph_witness_is_one_ulp(n):
    # edge weights and the lengths of the ratios come from different
    # kernels, so some edge pair reads one ulp above 1
    X = random_points(n, 2, n)
    G = dense_graph(X, 0, 0.0)
    ms, wit = verify_stretch(G, X)
    assert (ms, wit) == verify_stretch_rows(G, X)
    assert ms == np.nextafter(1.0, 2.0)
    assert wit in G.edge_set()


@pytest.mark.parametrize("side, d", [(9, 2), (5, 3)])
def test_verify_stretch_complete_grid_ties_every_ratio(side, d):
    # integer lengths are exact in both kernels: every ratio is 1, every
    # source ties the best bound, and the first pair is the witness
    X = int_grid(side, d)
    G = dense_graph(X, 0, 0.0)
    assert verify_stretch(G, X) == verify_stretch_rows(G, X) == (1.0, (0, 1))


# name: (n, the vertices cut off from vertex 0, the first of them)
DENSE_CUTS = {
    "isolated-past-first-block": (120, [100], 100),
    "tail-past-first-block": (120, range(90, 120), 90),
    "scattered-from-first-block": (110, [40, 77, 93, 108], 40),
    "small-head": (120, range(30, 120), 30),
}


@pytest.mark.parametrize("case", list(DENSE_CUTS))
def test_verify_stretch_disconnected_pair_matches_undirected_rows_on_dense_graphs(case):
    n, cut, first = DENSE_CUTS[case]
    X = random_points(n, 2, 8)
    parts = np.zeros(n, dtype=np.int64)
    parts[list(cut)] = 1
    G = dense_graph(X, 3, 0.1, parts=parts)
    assert screened(G)
    with pytest.raises(Disconnected) as got:
        verify_stretch(G, X)
    with pytest.raises(Disconnected) as want:
        verify_stretch_rows(G, X)
    assert got.value.pair == want.value.pair == (0, first)


def counted_sources(monkeypatch):
    """The sources verify_stretch passes to scipy, a list per call."""
    calls = []

    def counting(csr, **kwargs):
        calls.append(np.atleast_1d(kwargs["indices"]).tolist())
        return dijkstra(csr, **kwargs)

    monkeypatch.setattr("spanner_forge.graph._csgraph_dijkstra", counting)
    return calls


def test_verify_stretch_searches_few_sources_of_a_complete_net_tree(monkeypatch):
    X = normalize(gen_random(80, 3, "uniform", 4).points)  # VERIFY_CASES' net-tree-d3
    G = build_net_tree_spanner(build_hierarchy(X), 0.5)
    assert len(G.u) == 80 * 79 // 2
    calls = counted_sources(monkeypatch)
    assert verify_stretch(G, X) == verify_stretch_rows(G, X)
    assert sum(map(len, calls)) <= 64  # at most one call's worth


@pytest.mark.parametrize(
    "n, make",
    [
        (150, lambda X: path_greedy(X, 1.1)),
        (150, lambda X: dense_graph(X, 0, 0.55)),  # a little under half of all pairs
        (65, lambda X: dense_graph(X, 0, 0.0)),  # complete, one block of sources
    ],
    ids=["greedy", "random-under-half", "complete-one-block"],
)
def test_verify_stretch_searches_every_source_in_order_unless_screened(n, make, monkeypatch):
    X = random_points(n, 2, 3)
    G = make(X)
    assert not screened(G)
    calls = counted_sources(monkeypatch)
    assert verify_stretch(G, X) == verify_stretch_rows(G, X)
    assert calls == [list(range(lo, min(lo + 64, n - 1))) for lo in range(0, n - 1, 64)]


@pytest.mark.parametrize(
    "n, edges, connected",
    [
        (0, [], True),
        (1, [], True),
        (3, [(0, 1, 1.0)], False),  # vertex 2 is isolated
        (4, [(0, 1, 1.0), (2, 3, 1.0)], False),
        (4, [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0)], True),  # joined by a zero-weight edge
        (2, [(0, 1, 0.0)], True),
    ],
    ids=["n0", "n1", "isolated", "two-components", "zero-weight-bridge", "zero-weight-only"],
)
def test_is_connected(n, edges, connected):
    assert SpannerGraph(n, edges).is_connected() is connected


def test_verify_stretch_matches_dijkstra_oracle():
    X = random_points(60, 3, 10)
    G = path_greedy(X, 1.4)
    ms, wit = verify_stretch(G, X)
    u, v = wit
    assert shortest_dist(G, u, v) / point_dist(X, u, v) == pytest.approx(ms, rel=1e-12)
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
    w = {p: point_dist(X, *p) for p in pairs}
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
            wsum += point_dist(X, int(perm[i]), int(j))
        assert base <= wsum + 1e-9


def test_emst_weight_scans_once_per_point_set(monkeypatch):
    calls = []

    def counting(X):
        calls.append(X)
        return _prim_weight(X)

    monkeypatch.setattr("spanner_forge.graph._prim_weight", counting)
    X = random_points(30, 2, 3)
    assert emst_weight(X) == emst_weight(X) == _prim_weight(X)
    assert len(calls) == 1
    # a new point set with the same coordinates scans again
    assert emst_weight(random_points(30, 2, 3)) == emst_weight(X)
    assert len(calls) == 2


def test_metrics_mst_and_complete():
    X = random_points(12, 2, 13)
    # MST edges via dense search against emst_weight
    pairs = [(u, v) for u in range(X.n) for v in range(u + 1, X.n)]
    sorted_pairs = sorted(pairs, key=lambda p: point_dist(X, *p))
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


def dijkstra_greedy(X, t):
    """Path greedy with one bounded Dijkstra per pair on the growing graph."""
    iu, iv, w = sorted_pairs(X)
    adj = [[] for _ in range(X.n)]
    edges = []
    for k in range(len(w)):
        u, v, wk = int(iu[k]), int(iv[k]), float(w[k])
        if v in bounded_dijkstra(adj, u, t * wk * (1.0 + GREEDY_RTOL), v):
            continue
        edges.append((u, v, wk))
        adj[u].append((v, wk))
        adj[v].append((u, wk))
    return edges


def test_path_greedy_modes_agree_and_deterministic():
    X = random_points(40, 2, 15)
    g1 = path_greedy(X, 1.25)
    g2 = path_greedy(X, 1.25)
    assert g1.edges == dijkstra_greedy(X, 1.25) == g2.edges


def line(n):
    return PointSet(np.arange(float(n)).reshape(n, 1))


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_path_greedy_rejects_non_finite_stretch(t):
    with pytest.raises(GraphError):
        path_greedy(line(30), t)


def test_path_greedy_meta_same_for_tiny_inputs():
    want = {"t": 1.5, "builder": "path_greedy"}
    assert path_greedy(line(1), 1.5).meta == path_greedy(line(2), 1.5).meta == want


def test_path_greedy_refuses_matrix_beyond_physical_memory(monkeypatch):
    # 4 pages of 4 KiB = 16384 bytes: a 19-point line needs 41 * 19^2 =
    # 14801 bytes and fits; a 20-point line needs 16400 and does not
    pages = {"SC_PHYS_PAGES": 4, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr("os.sysconf", lambda name: pages[name])
    assert len(path_greedy(line(19), 1.1).edges) == 18
    monkeypatch.setattr(
        "spanner_forge.graph._grouped_pairs",
        lambda X: pytest.fail("allocated before the memory check"),
    )
    with pytest.raises(TooLarge):
        path_greedy(line(20), 1.1)


@pytest.mark.parametrize("pass_pairs", [5, 1 << 16])
@pytest.mark.parametrize(
    "make",
    [
        lambda: int_grid(15, 2),
        lambda: int_grid(5, 3),
        lambda: line(40),
        lambda: normalize(gen_lightness_lb(0.04).points),
        lambda: line(2),
    ],
    ids=["grid2", "grid3", "line", "lightness-lb", "n2"],
)
def test_grouped_pairs_blocks_ordered_by_length(make, pass_pairs, monkeypatch):
    # tie-heavy inputs; with 5 pairs per pass most passes split a row, and
    # with 1 pair per block on average most ties meet a block end
    monkeypatch.setattr("spanner_forge.graph._PAIR_PASS", pass_pairs)
    X = make()
    want_u, want_v = np.triu_indices(X.n, k=1)
    want_w = np.linalg.norm(X.coords[want_u] - X.coords[want_v], axis=1)
    for block_pairs in (1, 1024):
        monkeypatch.setattr("spanner_forge.graph._BLOCK_PAIRS", block_pairs)
        iu, iv, w, bounds = _grouped_pairs(X)
        assert iu.dtype == iv.dtype == np.int32
        # every pair once, with the reference's length bits
        got = np.lexsort((iv, iu))
        assert np.array_equal(iu[got], want_u) and np.array_equal(iv[got], want_v)
        assert np.array_equal(w[got], want_w)
        assert bounds[0] == 0 and bounds[-1] == len(w) and (np.diff(bounds) > 0).all()
        blocks = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        for b in blocks:  # (u, v) order inside a block
            assert (np.diff(iu[b].astype(np.int64) * X.n + iv[b]) > 0).all()
        # blocks rise in length, and equal lengths never straddle a block end
        for b, c in zip(blocks, blocks[1:]):
            assert w[b].max() < w[c].min()


def full_update_greedy(X, t):
    """Path greedy with a full n x n distance update per accepted edge."""
    n = X.n
    iu, iv, w = sorted_pairs(X)
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


@pytest.mark.parametrize(
    "make, t",
    [
        (lambda: normalize(gen_lightness_lb(0.02).points), 1.02),
        (lambda: normalize(gen_sparsity_lb(1e-4).points), 1.0 + 1e-4),
        (lambda: normalize(gen_sparsity_lb_x(1e-4, 2).points), 1.0 + 1e-4),
        (lambda: normalize(gen_motivating(0.01).points), 1.01),
        (lambda: normalize(gen_random(150, 2, "clustered", 0).points), 1.1),
        (lambda: int_grid(15, 2), 1.0),
        (lambda: int_grid(15, 2), 1.1),
        (lambda: int_grid(15, 2), 1.5),
        (lambda: int_grid(6, 3), 1.1),
        (lambda: PointSet(np.arange(60.0)[:, None]), 1.0),
    ],
    ids=[
        "lightness-lb", "sparsity-lb", "sparsity-lb-x", "motivating", "clustered",
        "grid2-1.0", "grid2-1.1", "grid2-1.5", "grid3-1.1", "line-1.0",
    ],
)
def test_path_greedy_matrix_matches_full_update(make, t):
    X = make()
    assert path_greedy(X, t).edges == full_update_greedy(X, t)


def _far_outlier(n):
    # every pair of the cluster falls in the first length block
    c = gen_random(n, 2, "clustered", 0).points.coords.copy()
    c[0] += 1e3
    return normalize(c)


def _scaled(s):
    return lambda: PointSet(np.random.default_rng(3).random((60, 2)) * s)


@pytest.mark.parametrize("pass_pairs", [5, 1 << 16])
@pytest.mark.parametrize(
    "make, t, block_pairs",
    [
        (lambda: _far_outlier(150), 1.1, 1024),
        # m = 1035, K = 1: block 1 holds only the longest pair
        (lambda: random_points(46, 2, 4), 1.1, 1024),
        (lambda: line(2), 1.0, 1024),
        (lambda: random_points(2, 3, 5), 1.5, 1),
        # every length underflows to 0: one block
        (_scaled(1e-300), 1.1, 1024),
        # the largest lengths whose squares stay finite
        (_scaled(1e150), 1.1, 1024),
        (lambda: int_grid(8, 2), 1.1, 1),  # one pair per block, or a tie
        (lambda: normalize(gen_random(80, 3, "clustered", 2).points), 1.2, 1),
    ],
    ids=["far-outlier", "K1", "n2", "n2-one-pair-blocks", "scaled-1e-300",
         "scaled-1e150", "grid2-one-pair-blocks", "clustered-one-pair-blocks"],
)
def test_path_greedy_blocks_match_full_update(make, t, block_pairs, pass_pairs, monkeypatch):
    # with 5 pairs per pass, a block's open pairs move to its front in many passes
    monkeypatch.setattr("spanner_forge.graph._PAIR_PASS", pass_pairs)
    monkeypatch.setattr("spanner_forge.graph._BLOCK_PAIRS", block_pairs)
    X = make()
    assert path_greedy(X, t).edges == full_update_greedy(X, t)


@pytest.mark.parametrize(
    "make, t, bound",
    [
        (lambda: random_points(400, 2, 6), 1.1, 24),
        (lambda: _far_outlier(400), 1.1, 24),
        # 26,786 edges, which must cost no Python object each
        (lambda: random_points(400, 5, 6), 1.1, 24),
        # every pair an edge: the columns, widened, are checked after the loop
        (lambda: random_points(300, 2, 6), 1.0, 41),
    ],
    ids=["uniform", "far-outlier", "uniform-d5", "all-pairs"],
)
def test_path_greedy_traced_peak_within_memory_check(make, t, bound):
    # path_greedy refuses an input when 41 n^2 bytes exceed physical memory;
    # inputs short of all pairs stay within 24 n^2
    X = make()
    tracemalloc.start()
    try:
        path_greedy(X, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * X.n**2


def assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert got.shape == want.shape


def _graph_columns(G):
    return G.n, G.u, G.v, G.w


@pytest.mark.parametrize(
    "make",
    [
        lambda: SpannerGraph(0, []),
        lambda: SpannerGraph(1, []),
        lambda: SpannerGraph(5, []),
        lambda: SpannerGraph(6, [(3, 4, 1.0), (0, 1, 0.5), (2, 3, 2.0), (1, 2, 0.25), (4, 5, 3.0)]),
        lambda: SpannerGraph.from_pairs(
            random_points(9, 2, 3), [(u, v) for v in range(9) for u in range(v)]
        ),
        lambda: path_greedy(random_points(40, 3, 4), 1.2),
    ],
    ids=["n0", "n1", "no-edges", "path", "complete", "greedy"],
)
def test_symmetric_csr_matches_coo_route(make):
    args = _graph_columns(make())
    assert_same_csr(symmetric_csr(*args), coo_symmetric_csr(*args))


def test_symmetric_csr_of_contracted_quotient_matches_coo_route(monkeypatch):
    seen = []

    def recording(*args):
        seen.append(args)
        return symmetric_csr(*args)

    monkeypatch.setattr(nets, "symmetric_csr", recording)
    # 0-1 and 2-3 contract; 0-2 and 1-3 join the same representatives
    rows = [(0, 1, 0.01), (2, 3, 0.01), (0, 2, 0.9), (1, 3, 0.4), (3, 4, 0.4)]
    F = build_cluster_graph(SpannerGraph(5, rows), 1, 0.25)
    assert F.rep == [0, 0, 2, 2, 4]
    contracted, quotient = seen
    assert contracted[1].tolist() == [0, 2]  # the short edges 0-1 and 2-3
    assert len(quotient[1]) == 2  # the quotient's two edges
    for args in seen:
        assert_same_csr(symmetric_csr(*args), coo_symmetric_csr(*args))


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
            d = floyd_warshall(4, [(u, v, point_dist(X, u, v)) for u, v in sub])
            eu = np.array(
                [[point_dist(X, u, v) if u != v else 1.0 for v in range(4)] for u in range(4)]
            )
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
                eu[u, v] = point_dist(X, u, v)
    sizes = []
    for r in range(len(pairs) + 1):
        found = False
        for sub in itertools.combinations(pairs, r):
            d = floyd_warshall(5, [(u, v, point_dist(X, u, v)) for u, v in sub])
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


@pytest.mark.parametrize("eps", [-0.5, math.nan, math.inf])
def test_brute_force_rejects_bad_eps_before_any_work(eps):
    X = random_points(6, 2, 19)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphError, match="eps"):
            brute_force_optimal(X, eps)
    assert X._dist is None  # the distance matrix was not built


@pytest.mark.parametrize("call, match", [
    (lambda X: verify_stretch(path_greedy(random_points(5, 2, 19), 1.5), X), "sizes differ"),
    (lambda X: brute_force_optimal(X, 0.5, "bogus"), "unknown objective 'bogus'"),
], ids=["verify-size-mismatch", "oracle-objective"])
def test_graph_functions_reject_bad_arguments(call, match):
    with pytest.raises(GraphError, match=match):
        call(random_points(6, 2, 19))


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
    validate_weights(G, X)


def loop_spanner_edges(n, edges):
    """SpannerGraph's edge check as one pass over the edges: the reference
    for its array form."""
    seen = set()
    norm = []
    for u, v, w in edges:
        u, v = int(u), int(v)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if u > v:
            u, v = v, u
        if not (0 <= u < v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if (u, v) in seen:
            raise GraphError(f"parallel edge ({u},{v})")
        seen.add((u, v))
        norm.append((u, v, float(w)))
    return norm


def test_spanner_graph_errors_match_loop():
    # a self-loop, one outside [0, n) at each end, a self-loop outside it,
    # and the same pair twice; every order names the loop's first bad edge
    bad = [(0, 1, 1.0), (2, 2, 1.0), (5, 1, 1.0), (-1, 3, 1.0), (7, 7, 1.0), (1, 0, 2.0)]
    for edges in itertools.permutations(bad):
        with pytest.raises(GraphError) as want:
            loop_spanner_edges(4, edges)
        with pytest.raises(GraphError) as got:
            SpannerGraph(4, edges)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "wrap", [list, iter, lambda e: (x for x in e)], ids=["list", "iter", "gen"]
)
@pytest.mark.parametrize(
    "edges",
    [[], [(2, 0, 1), (np.int64(1), 3, np.float32(0.5)), (3.0, 0, "2.5"), (True, 2, 1.5)]],
    ids=["empty", "mixed"],
)
def test_spanner_graph_inputs_match_loop(edges, wrap):
    got = SpannerGraph(4, wrap(edges)).edges
    assert got == loop_spanner_edges(4, edges)
    assert all(tuple(map(type, e)) == (int, int, float) for e in got)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_from_pairs_weights_equal_pair_norms(d):
    X = random_points(150, d, 40 + d)
    c = X.coords
    pairs = list(itertools.combinations(range(X.n), 2))
    G = SpannerGraph.from_pairs(X, pairs)
    assert G.edges == [(u, v, float(np.linalg.norm(c[u] - c[v]))) for u, v in pairs]


class CoordsUnread:
    """A 30-point stand-in for a PointSet whose coordinates must not be read."""

    n = 30

    @property
    def coords(self):
        pytest.fail("coordinates read before the range check")


@pytest.mark.parametrize("pair", [(0, 999), (-1, 2)])
def test_from_pairs_range_checks_before_reading_coordinates(pair):
    msg = f"edge ({min(pair)},{max(pair)}) out of range for n=30"
    for X in (CoordsUnread(), random_points(30, 2, 3)):
        with pytest.raises(GraphError) as err:
            SpannerGraph.from_pairs(X, [(0, 1), pair])
        assert str(err.value) == msg


def test_from_pairs_list_and_array_agree():
    X = random_points(60, 2, 7)
    pairs = [(v, u) if k % 3 == 0 else (u, v)
             for k, (u, v) in enumerate(itertools.combinations(range(0, X.n, 3), 2))]
    A = SpannerGraph.from_pairs(X, pairs)
    B = SpannerGraph.from_pairs(X, np.array(pairs, dtype=np.int64))
    for col in ("u", "v", "w"):
        assert np.array_equal(getattr(A, col), getattr(B, col))
    assert A.u.dtype == np.int64 and A.w.dtype == np.float64
    assert (A.u < A.v).all()
    assert A.edges == B.edges
    assert A.weight() == B.weight()
    empty = SpannerGraph.from_pairs(X, np.empty((0, 2), dtype=np.int64))
    assert empty.edges == [] and empty.weight() == 0.0


def test_weight_is_sequential_sum_of_edges():
    G = path_greedy(random_points(150, 2, 0), 1.1)
    total = 0.0
    for w in G.w.tolist():
        total += w
    assert G.weight() == total
    # here numpy's pairwise sum rounds differently
    assert float(np.sum(G.w)) != G.weight()
    with pytest.raises(ValueError):
        G.w[0] = 0.0  # the columns are read-only
    # compensated summation, which sum() does from Python 3.12 on, gives 1 + 2^-51
    weights = [1.0] + [2.0**-53] * 4
    star = SpannerGraph(6, [(0, k, w) for k, w in enumerate(weights, start=1)])
    assert star.weight() == 1.0


def test_one_point_gives_empty_results():
    X = PointSet(np.array([[0.5, 2.0]]))
    graphs = [path_greedy(X, 1.1), build_net_tree_spanner(build_hierarchy(X), 0.1)]
    graphs += [brute_force_optimal(X, 0.1, objective=o) for o in ("min_edges", "min_weight")]
    for G in graphs:
        assert (G.n, len(G.u), G.weight()) == (1, 0, 0.0)
    assert emst_weight(X) == 0.0
    m = metrics(graphs[0], X)
    assert (m.edge_count, m.sparsity, m.weight, m.mst_weight) == (0, 0.0, 0.0, 0.0)
    assert (m.max_stretch, m.witness_pair) == (1.0, (0, 0))
    assert m.lightness == math.inf  # weight 0 over an EMST of weight 0
    with pytest.raises(TooFewPoints):
        normalize(X)
    with pytest.raises(TooFewPoints):
        greedy_prune(X, 0.1, 1)
