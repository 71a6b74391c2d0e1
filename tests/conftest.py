import itertools
import math

import numpy as np

from spanner_forge.geom import GEOM_RTOL, PointSet, normalize


def random_points(n, d, seed):
    return normalize(np.random.default_rng(seed).random((n, d)))


def int_grid(side, d):
    """The side^d integer grid; its minimum distance is already 1."""
    return PointSet(np.array(list(itertools.product(range(side), repeat=d)), dtype=float))


def validate_weights(G, X):
    """Every edge weight of G equals the Euclidean length of its pair."""
    for u, v, w in G.edges:
        d = float(np.linalg.norm(X.coords[u] - X.coords[v]))
        assert abs(w - d) <= GEOM_RTOL * max(1.0, d), f"edge ({u},{v}) weight {w} != distance {d}"


def check_invariants(H):
    """Separation and covering at every level of a net hierarchy, and a
    single top point (O(n^2) per level)."""
    c = H.points.coords
    for i, members in enumerate(H.levels):
        r = 2.0**i
        pts = c[members]
        if len(members) > 1:
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            np.fill_diagonal(d, np.inf)
            assert d.min() > r * (1.0 - GEOM_RTOL), f"separation fails at level {i}"
        if i > 0:
            prev = c[H.levels[i - 1]]
            d = np.linalg.norm(prev[:, None, :] - pts[None, :, :], axis=2)
            assert d.min(axis=1).max() <= r * (1.0 + GEOM_RTOL), f"covering fails at level {i}"
    assert len(H.levels[-1]) == 1, "top level must be a single point"


def approximate_edge(H, spanner, u, v):
    """Cross edge of a net-tree spanner between the lowest-level distinct
    ancestors of u and v, as (u', v', level)."""
    assert u != v
    edge_set = spanner.edge_set()
    au, av = u, v
    top = len(H.levels) - 1
    for i in range(top + 1):
        if au != av and (min(au, av), max(au, av)) in edge_set:
            return au, av, i
        if i < top:
            au = H.parent[(au, i)]
            av = H.parent[(av, i)]
    raise AssertionError(f"no approximate edge for pair ({u},{v})")


def lemma_sequence(rng, eps, n_edges=None):
    """Random edge sequence whose projections cover a unit segment ab and
    whose total length is at most (1+eps)|ab|.

    The edges need not form a polygonal path.  Returns (edges, a, b)
    with edges as (p, q) coordinate pairs.
    """
    a = np.zeros(2)
    b = np.array([1.0, 0.0])
    m = n_edges or int(rng.integers(3, 20))
    cuts = np.sort(rng.random(m - 1))
    ts = np.concatenate([[0.0], cuts, [1.0]])
    dx = np.diff(ts)
    h_raw = np.abs(rng.normal(0.0, 1.0, m)) * dx
    budget = 1.0 + eps * rng.uniform(0.2, 0.95)

    def total(scale):
        return float(np.sum(np.hypot(dx, scale * h_raw)))

    lo, hi = 0.0, 1.0
    while total(hi) < budget:
        hi *= 2.0
        if hi > 1e9:
            break
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if total(mid) < budget:
            lo = mid
        else:
            hi = mid
    scale = lo
    edges = []
    for i in range(m):
        y0 = rng.uniform(-0.2, 0.2)
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        p = np.array([ts[i], y0])
        q = np.array([ts[i + 1], y0 + sgn * scale * h_raw[i]])
        edges.append((p, q))
    return edges, a, b
