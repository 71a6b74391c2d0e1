"""Properties of the greedy and net-tree builders and the exact oracle
on drawn point sets."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spanner_forge.geom import normalize
from spanner_forge.graph import brute_force_optimal, path_greedy, verify_stretch
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


@st.composite
def relabelings(draw, sizes):
    """(coords, perm, eps): n uniform points in d = 1..4, n drawn from
    ``sizes``, whose pair lengths are all distinct, so that no tie
    between two pairs depends on the labels, and a permutation of their
    labels."""
    n, d = draw(sizes), draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    rows = draw(st.lists(st.tuples(*[unit] * d), min_size=n, max_size=n, unique=True))
    coords = np.array(rows)
    # a squared length that underflows makes two distinct points coincide,
    # and a spread near 1e154 overflows the normalized squared lengths
    dist = np.sqrt(((coords[:, None] - coords[None]) ** 2).sum(-1))[np.triu_indices(n, 1)]
    assume(dist.min() > 0.0 and dist.max() < 1e150 * dist.min())
    lengths = normalize(coords).distances()[np.triu_indices(n, 1)]
    assume(len(np.unique(lengths)) == len(lengths))
    perm = np.array(draw(st.permutations(range(n))))
    return coords, perm, draw(st.sampled_from([0.05, 0.1, 0.5]))


def edge_weights(G, labels):
    """Each edge of G as (lo, hi) under ``labels`` -> its weight."""
    u, v = labels[G.u], labels[G.v]
    pairs = zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist())
    return dict(zip(pairs, G.w.tolist()))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(relabelings(st.integers(2, 40)))
def test_greedy_commutes_with_relabeling(instance):
    # point k of the relabeled set is point perm[k] of the original; the
    # net tree is not checked, as its nets depend on the scan order
    coords, perm, eps = instance
    G = path_greedy(normalize(coords), 1.0 + eps)
    H = path_greedy(normalize(coords[perm]), 1.0 + eps)
    assert edge_weights(H, perm) == edge_weights(G, np.arange(len(perm)))


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(relabelings(st.integers(5, 8)))
def test_oracle_optimum_unchanged_by_relabeling(instance):
    # the optimum's value only: its edges may break ties by label
    coords, perm, eps = instance
    X, Y = normalize(coords), normalize(coords[perm])
    A, B = (brute_force_optimal(Z, eps, "min_edges") for Z in (X, Y))
    assert len(A.u) == len(B.u)
    A, B = (brute_force_optimal(Z, eps, "min_weight") for Z in (X, Y))
    assert B.weight() == pytest.approx(A.weight(), rel=1e-12, abs=0.0)
