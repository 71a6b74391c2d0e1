import itertools
import math

import numpy as np

from spanner_forge.geom import PointSet, normalize


def random_points(n, d, seed):
    return normalize(np.random.default_rng(seed).random((n, d)))


def int_grid(side, d):
    """The side^d integer grid; its minimum distance is already 1."""
    return PointSet(np.array(list(itertools.product(range(side), repeat=d)), dtype=float))


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
