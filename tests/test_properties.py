"""Properties of the greedy and net-tree builders on drawn point sets."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spanner_forge.geom import normalize
from spanner_forge.graph import path_greedy, verify_stretch
from spanner_forge.nets import build_hierarchy, build_net_tree_spanner

from test_graph import dijkstra_greedy


@st.composite
def instances(draw):
    """(normalized points, eps): n = 2..40 points in d = 1..4, drawn as
    uniform floats, integer grid points (many ties), near-collinear
    points whose other coordinates are at most 1e-7, or tight clusters
    (offsets of at most 1e-3 around up to three centers)."""
    n, d = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["uniform", "grid", "near-collinear", "clusters"]))
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    if kind == "uniform":
        cell = [unit] * d
    elif kind == "grid":
        cell = [st.integers(0, 7).map(float)] * d
    elif kind == "near-collinear":
        cell = [unit] + [st.floats(0.0, 1e-7, allow_subnormal=False)] * (d - 1)
    else:
        cell = [st.floats(0.0, 1e-3, allow_subnormal=False)] * d
    rows = draw(st.lists(st.tuples(*cell), min_size=n, max_size=n, unique=True))
    coords = np.array(rows)
    if kind == "clusters":
        centers = np.array(draw(st.lists(st.tuples(*[unit] * d), min_size=1, max_size=3)))
        labels = draw(st.lists(st.integers(0, len(centers) - 1), min_size=n, max_size=n))
        coords = coords + centers[labels]
    assume(len(np.unique(coords, axis=0)) == n)
    # a squared length that underflows makes two distinct points coincide
    dist = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))
    assume(dist[~np.eye(n, dtype=bool)].min() > 0.0)
    return normalize(coords), draw(st.sampled_from([0.05, 0.1, 0.5]))


def same_columns(G, H):
    return all(np.array_equal(a, b) for a, b in ((G.u, H.u), (G.v, H.v), (G.w, H.w)))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(instances())
def test_greedy_and_net_tree_properties(instance):
    X, eps = instance
    t = 1.0 + eps
    G = path_greedy(X, t)
    assert G.edges == dijkstra_greedy(X, t)
    assert verify_stretch(G, X)[0] <= t + 1e-9
    assert same_columns(G, path_greedy(X, t))
    N = build_net_tree_spanner(build_hierarchy(X), eps)
    assert verify_stretch(N, X)[0] <= t + 1e-9
    assert same_columns(N, build_net_tree_spanner(build_hierarchy(X), eps))
