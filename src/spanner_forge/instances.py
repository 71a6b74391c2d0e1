"""Hard-instance generators.

Point sets on which the greedy spanner is provably far from the
per-instance optimum, each paired with the hand-built witness spanner
that certifies the optimum side, plus a bi-clique motivating instance,
random instances, and tiling.  Coordinates are emitted raw
(pre-normalization); downstream consumers normalize as needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geom import GeomError, PointSet

ARC_ROOT_TOL = 1e-13


class ConstructionDegenerate(GeomError):
    pass


@dataclass
class GeneratedInstance:
    """Raw points, an optional witness spanner, and build metadata.

    ``witness_pairs`` index into ``points``; the metadata records every
    parameter needed to rebuild the instance deterministically.
    """

    points: PointSet
    witness_pairs: list | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.points.n


def _rot(v, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def _rectangle(family, eps, alpha, spacing, points, pq_edge, **own) -> GeneratedInstance:
    """Witness, shared metadata and instance of both rectangle families.

    ``points`` lists the k left and the k right side points, each row
    from its top corner, then c, p and q; ``pq_edge`` closes the witness's
    p-c-q into the triangle cpq.  ``own`` holds the family's own metadata.
    """
    k = (len(points) - 3) // 2
    ci, pi, qi = 2 * k, 2 * k + 1, 2 * k + 2
    witness = [e for i in range(k - 1) for e in ((i, i + 1), (k + i, k + i + 1))]
    witness += [(pi, ci), (ci, qi)] + ([(pi, qi)] if pq_edge else [])
    witness += [(i, hub) for hub in (pi, ci, qi) for i in range(2 * k)]
    meta = {
        "family": family,
        "eps": eps,
        **own,
        "alpha": alpha,
        "k": k,
        "spacing": spacing,
        "a_indices": list(range(k)),
        "b_indices": list(range(k, 2 * k)),
        "c_index": ci,
        "p_index": pi,
        "q_index": qi,
        "diameter": math.hypot(1.0, math.tan(alpha)),
    }
    return GeneratedInstance(PointSet(np.array(points)), witness, meta)


def gen_sparsity_lb(eps: float) -> GeneratedInstance:
    """Rectangle instance separating greedy from the sparsest spanner.

    Width-1 rectangle of height tan(alpha) with sec(alpha) = 1+eps, so
    the diagonal is exactly 1+eps.  k points per vertical side starting
    at the top corners (diameter tan(alpha/10), spacing >= 2*eps), a
    center point c, and two via points p, q on the horizontal through c
    with |a1 p| = |p c| = |c q| = |q b1| = (1+eps)^2/4.  The witness is
    the two side paths, p-c-q, and all edges from {p, c, q} to the
    sides.  Note k = 1 for eps above roughly 4e-4; the k ~ eps^(-1/2)
    growth only appears below that.
    """
    if not 0.0 < eps <= 0.05:
        raise ConstructionDegenerate("eps must lie in (0, 0.05]")
    alpha = math.acos(1.0 / (1.0 + eps))
    height = math.tan(alpha)
    diam = math.tan(alpha / 10.0)
    k = int(math.floor(diam / (2.0 * eps))) + 1
    spacing = diam / (k - 1) if k > 1 else 0.0
    pts = [(0.0, height - i * spacing) for i in range(k)]
    pts += [(1.0, height - i * spacing) for i in range(k)]
    leg = (1.0 + eps) ** 2 / 4.0
    pts += [(0.5, height / 2.0), (0.5 - leg, height / 2.0), (0.5 + leg, height / 2.0)]
    return _rectangle("sparsity-lb", eps, alpha, spacing, pts, False)


def gen_sparsity_lb_x(eps: float, x: float = 1.0) -> GeneratedInstance:
    """Relaxed-stretch variant: fools the greedy (1+x*eps)-spanner.

    Same rectangle, but the via points p, q hang below the half
    diagonals as apexes of isosceles triangles with legs
    (1+x*eps)(1+eps)/4, and the side point rows run perpendicular to
    the half diagonals with diameter tan(alpha)/(20 sqrt(x)) and
    spacing >= 2*x*eps.  The witness adds the p-q edge (triangle cpq).
    """
    if x < 1.0:
        raise ConstructionDegenerate("x must be at least 1")
    if eps <= 0.0 or x * eps >= 0.2:
        raise ConstructionDegenerate("x*eps too large for the construction")
    alpha = math.acos(1.0 / (1.0 + eps))
    height = math.tan(alpha)
    a1 = np.array([0.0, height])
    b1 = np.array([1.0, height])
    c = np.array([0.5, height / 2.0])
    leg = 0.25 * (1.0 + x * eps) * (1.0 + eps)
    beta_iso = math.acos(1.0 / (1.0 + x * eps))
    u_ca = (a1 - c) / np.linalg.norm(a1 - c)
    u_cb = (b1 - c) / np.linalg.norm(b1 - c)
    p = c + leg * _rot(u_ca, beta_iso)
    q = c + leg * _rot(u_cb, -beta_iso)
    # side rows, perpendicular to the half diagonals, leaning toward p/q
    dir_a = np.array([-math.sin(alpha), -math.cos(alpha)])
    dir_b = np.array([math.sin(alpha), -math.cos(alpha)])
    diam = math.tan(alpha) / (20.0 * math.sqrt(x))
    k = int(math.floor(diam / (2.0 * x * eps))) + 1
    spacing = diam / (k - 1) if k > 1 else 0.0
    pts = [tuple(a1 + i * spacing * dir_a) for i in range(k)]
    pts += [tuple(b1 + i * spacing * dir_b) for i in range(k)]
    pts += [tuple(c), tuple(p), tuple(q)]
    return _rectangle("sparsity-lb-x", eps, alpha, spacing, pts, True, x=x, beta_iso=beta_iso)


def solve_arc_angle(eps: float) -> float:
    """Root of beta = (1+eps) * 2 sin(beta/2), by bisection.

    This pins the arc length at which the along-arc path first exceeds
    (1+eps) times the chord.  The root sits near sqrt(24*eps); the
    often-quoted sqrt(48*eps) overshoots it by a factor sqrt(2).
    """

    def f(b):
        return b - (1.0 + eps) * 2.0 * math.sin(b / 2.0)

    lo, hi = math.sqrt(6.0 * eps), 2.0 * math.sqrt(48.0 * eps)
    if not (f(lo) < 0.0 < f(hi)):
        raise ConstructionDegenerate("bisection bracket failed")
    while hi - lo > ARC_ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _arc_points(eps: float, beta: float, alpha: float):
    """Equally spaced angles on [0, alpha+beta] with anchors landing
    exactly and the third segment an exact rotated copy of the first."""
    h_target = min(eps**1.5, (beta - alpha) / 64.0)
    m1 = max(1, math.ceil(alpha / h_target))
    h1 = alpha / m1
    m2 = max(1, math.ceil((beta - alpha) / h_target))
    h2 = (beta - alpha) / m2
    thetas = [j * h1 for j in range(m1 + 1)]
    thetas += [alpha + j * h2 for j in range(1, m2 + 1)]
    thetas += [beta + j * h1 for j in range(1, m1 + 1)]
    anchors = (0, m1, m1 + m2, m1 + m2 + m1)
    return np.array(thetas), anchors, (m1, m2)


def _arc(family: str, eps: float, x: float = 1.0):
    """Angles, points and shared metadata of both arc families.

    beta is solved at x*eps (x = 1 for the base family), alpha = beta/10,
    and the point spacing follows eps alone.
    """
    beta = solve_arc_angle(x * eps)
    alpha = beta / 10.0
    thetas, anchors, (m1, m2) = _arc_points(eps, beta, alpha)
    pts = np.column_stack([np.cos(thetas), np.sin(thetas)])
    meta = {
        "family": family,
        "eps": eps,
        "beta": beta,
        "alpha": alpha,
        "m1": m1,
        "m2": m2,
        "anchors": list(anchors),
        "chord_p1p3": 2.0 * math.sin(beta / 2.0),
        "heavy_count_target": int(math.floor(alpha / (2.0 * x * eps * beta))),
        "diameter": 2.0 * math.sin((alpha + beta) / 2.0),
    }
    return thetas, PointSet(pts), meta


def gen_lightness_lb(eps: float) -> GeneratedInstance:
    """Circular-arc instance separating greedy from the lightest spanner.

    Points equally spaced on a unit-radius arc of angle alpha+beta with
    alpha = beta/10 and beta solved from the arc/chord threshold
    equation.  Anchors p1..p4 sit at arc offsets 0, alpha, beta,
    beta+alpha; the witness is the along-arc path plus the single chord
    p2 p3.
    """
    if not 0.0 < eps <= 0.05:
        raise ConstructionDegenerate("eps must lie in (0, 0.05]")
    thetas, X, meta = _arc("lightness-lb", eps)
    p2, p3 = meta["anchors"][1:3]
    witness = [(i, i + 1) for i in range(len(thetas) - 1)] + [(p2, p3)]
    meta["witness_weight_bound"] = 2.0 * meta["beta"]
    return GeneratedInstance(X, witness, meta)


def gen_lightness_lb_x(eps: float, x: float = 2.0) -> GeneratedInstance:
    """Relaxed-stretch arc instance with a chord hierarchy witness.

    The arc uses x*eps in place of eps (angle beta_x), so the greedy
    (1+x*eps)-spanner piles up near-diametral edges, while the witness
    spans every scale with geometrically graded chords: level-i chords
    have length sqrt(24*eps) * tau^(i/2), tau = 1 + 1/(10 x), with left
    endpoints every half coverage window, snapped to generated points.
    """
    if x < 2.0:
        raise ConstructionDegenerate("x must be at least 2")
    if not 0.0 < eps or x * eps > 0.05:
        raise ConstructionDegenerate("x*eps too large for the construction")
    thetas, X, meta = _arc("lightness-lb-x", eps, x)
    span, diameter = meta["alpha"] + meta["beta"], meta["diameter"]
    witness = {(i, i + 1) for i in range(len(thetas) - 1)}
    tau = 1.0 + 1.0 / (10.0 * x)
    base = math.sqrt(24.0 * eps)
    i_max = 2 * math.ceil(10.0 * x * math.log(1.2 * math.sqrt(x)))
    levels_used = 0
    i_level = -2
    while i_level <= i_max:
        ell = base * tau ** (i_level / 2.0)
        if ell >= diameter:
            break
        arc_len = 2.0 * math.asin(ell / 2.0)
        window = span - arc_len
        if window <= 0:
            break
        step = max(ell * (math.sqrt(tau) - 1.0) / 2.0, 1e-9)
        start = 0.0
        placed = False
        while start <= window + 1e-15:
            a_idx = int(np.argmin(np.abs(thetas - start)))
            b_idx = int(np.argmin(np.abs(thetas - (start + arc_len))))
            if a_idx != b_idx:
                witness.add((min(a_idx, b_idx), max(a_idx, b_idx)))
                placed = True
            start += step
        if placed:
            levels_used += 1
        i_level += 1
    meta.update(x=x, tau=tau, chord_levels=levels_used)
    return GeneratedInstance(X, sorted(witness), meta)


def gen_motivating(eps: float, mid_x=(3.0, 7.0)) -> GeneratedInstance:
    """Two vertical point columns plus two middle via points.

    Columns at x = 0 and x = 10 with points (., i*eps) for
    i = 0..floor(eps^(-1/2)); the middle points sit on the horizontal
    at height sqrt(eps)/2 (their x-coordinates are parameters).  The
    witness is the star through the middle points; it preserves
    column-to-column distances at stretch near 1 but is far from
    (1+eps) for within-column pairs, which its metadata records.
    """
    if not 0.0 < eps <= 0.1:
        raise ConstructionDegenerate("eps must lie in (0, 0.1]")
    k = int(math.floor(eps**-0.5))
    pts = [(0.0, i * eps) for i in range(k + 1)]
    pts += [(10.0, i * eps) for i in range(k + 1)]
    zi, wi = 2 * (k + 1), 2 * (k + 1) + 1
    y_mid = math.sqrt(eps) / 2.0
    pts.append((float(mid_x[0]), y_mid))
    pts.append((float(mid_x[1]), y_mid))
    witness = [(i, zi) for i in range(k + 1)]
    witness.append((zi, wi))
    witness += [(k + 1 + i, wi) for i in range(k + 1)]
    meta = {
        "family": "motivating",
        "eps": eps,
        "k": k,
        "mid_x": list(mid_x),
        "x_indices": list(range(k + 1)),
        "y_indices": list(range(k + 1, 2 * (k + 1))),
        "z_index": zi,
        "w_index": wi,
        "witness_is_full_spanner": False,
        "diameter": math.hypot(10.0, k * eps),
    }
    return GeneratedInstance(PointSet(np.array(pts)), witness, meta)


def gen_random(n: int, d: int, distribution: str = "uniform", rng_seed: int = 0) -> GeneratedInstance:
    """Random instance: uniform cube or Gaussian blobs, seeded."""
    if n < 2 or d < 1:
        raise ConstructionDegenerate("need n >= 2 and d >= 1")
    rng = np.random.default_rng(rng_seed)
    if distribution == "uniform":
        pts = rng.random((n, d))
    elif distribution == "clustered":
        m = max(1, int(round(math.sqrt(n))))
        centers = rng.random((m, d))
        blob = np.arange(n) % m
        pts = centers[blob] + rng.normal(0.0, 0.25 / m, size=(n, d))
    else:
        raise ConstructionDegenerate(f"unknown distribution {distribution!r}")
    meta = {
        "family": "random",
        "n": n,
        "d": d,
        "distribution": distribution,
        "rng_seed": rng_seed,
    }
    return GeneratedInstance(PointSet(pts), None, meta)


def tile_copies(inst: GeneratedInstance, m: int) -> GeneratedInstance:
    """Disjoint union of m translated copies along axis 0.

    The gap between consecutive copies is max(10, 5/eps) times the
    instance diameter (eps from the metadata, so the per-copy structure
    survives: greedy adds exactly one bridge between consecutive copies
    and the witness stays near-(1+eps) across copies).  The witness is
    the per-copy witnesses plus one bridging edge per consecutive pair,
    joining the closest cross-copy points.
    """
    if m < 1:
        raise ConstructionDegenerate("m must be at least 1")
    if m == 1:
        return inst
    c = inst.points.coords
    n = inst.points.n
    diam = inst.meta.get("diameter")
    if diam is None:
        # bounding-box diagonal dominates the true diameter
        diam = float(np.linalg.norm(c.max(axis=0) - c.min(axis=0)))
    eps = inst.meta.get("eps", 0.5)
    gap = max(10.0, 5.0 / eps) * diam
    width = float(c[:, 0].max() - c[:, 0].min())
    offset = width + gap
    blocks = []
    for j in range(m):
        cc = c.copy()
        cc[:, 0] += j * offset
        blocks.append(cc)
    pts = np.vstack(blocks)
    witness = None
    if inst.witness_pairs is not None:
        witness = []
        for j in range(m):
            witness += [(u + j * n, v + j * n) for u, v in inst.witness_pairs]
        # bridge consecutive copies at their closest point pair
        right = int(np.lexsort((np.arange(n), -c[:, 0]))[0])
        left = int(np.lexsort((np.arange(n), c[:, 0]))[0])
        for j in range(m - 1):
            witness.append((right + j * n, left + (j + 1) * n))
    meta = dict(inst.meta)
    meta.update({"tiled_from": inst.meta.get("family"), "copies": m, "gap": gap})
    return GeneratedInstance(PointSet(pts), witness, meta)
