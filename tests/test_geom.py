import math

import numpy as np
import pytest

from spanner_forge.geom import (
    BAND_TOL,
    DegenerateSegment,
    DuplicatePoint,
    GeomError,
    PointSet,
    Region,
    TooFewPoints,
    _ellipse_fractions,
    _lengths,
    normalize,
    region_codes,
)

from conftest import (
    LENGTH_CASES,
    ZeroVector,
    angle_between,
    lemma_sequence,
    low_angle_weight,
    pairwise_extremes_rows,
    proj_fraction,
    random_points,
    region_of,
)


def test_normalize_uniform_scaling():
    ps = normalize(np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 6.0]]))
    assert np.allclose(ps.coords, [[0, 0], [0, 1], [0, 3]])
    assert ps.scale == 2.0


def test_normalize_already_normalized():
    ps = normalize(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(ps.coords, [[0, 0], [1, 0]])
    assert ps.scale == 1.0


def test_normalize_reuses_a_given_point_set(monkeypatch):
    P = PointSet(np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 6.0]]))
    built = []
    init = PointSet.__init__
    monkeypatch.setattr(PointSet, "__init__", lambda self, c: built.append(c) or init(self, c))
    ps = normalize(P)
    # only the scaled set is built; the given one is neither copied nor checked again
    assert len(built) == 1 and built[0] is not P.coords
    assert np.array_equal(ps.coords, P.coords / 2.0) and ps.scale == 2.0
    assert P.scale == 1.0


def test_normalize_random_min_distance_is_one():
    pts = np.random.default_rng(0).random((100, 2))
    ps = normalize(pts)
    # brute-force all-pairs oracle
    d = np.linalg.norm(ps.coords[:, None, :] - ps.coords[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    assert abs(d.min() - 1.0) <= 1e-9


def test_normalize_errors():
    with pytest.raises(DuplicatePoint):
        normalize(np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(TooFewPoints):
        normalize(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        PointSet(np.array([[np.inf, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("coords, match", [
    ([[0.0], [1e-160], [1.0]], r"minimum pairwise distance 1e-160 is below 1.5e-154"),
    ([[0.0], [1e-100], [1e60]], r"spread 1e\+160 is not below"),
], ids=["subnormal-square", "spread"])
def test_normalize_refuses_lengths_the_kernel_cannot_square(coords, match):
    with pytest.raises(GeomError, match=match):
        normalize(np.array(coords))


def test_normalize_keeps_closest_pair_one_apart_inside_its_range():
    X = normalize(np.array([[0.0], [1e-150], [1.0]]))
    assert X.spread() == pytest.approx(1e150)
    # the extremes recomputed from the coordinates, not the ones normalize sets
    assert PointSet(X.coords).min_pairwise_distance() == pytest.approx(1.0, rel=1e-12)
    assert PointSet(X.coords).spread() == pytest.approx(1e150)


def test_distances_cached_and_read_only():
    X = random_points(20, 2, 5)
    D = X.distances()
    assert X.distances() is D
    with pytest.raises(ValueError):
        D[0, 1] = 5.0


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_distances_match_row_and_block_norms(d):
    # the builders that now read the matrix computed these expressions
    X = random_points(40, d, 10 + d)
    c = X.coords
    D = X.distances()
    for i in range(X.n):
        assert np.array_equal(D[i], np.linalg.norm(c - c[i], axis=1))
    rng = np.random.default_rng(d)
    for _ in range(5):
        a = np.sort(rng.choice(X.n, 12, replace=False))
        b = np.sort(rng.choice(X.n, 9, replace=False))
        block = np.linalg.norm(c[a][:, None] - c[b][None], axis=2)
        assert np.array_equal(D[np.ix_(a, b)], block)


@pytest.mark.parametrize("d", range(1, 13))
def test_lengths_equal_norm_rows_bit_for_bit(d):
    # both sides of numpy's switch from sequential to pairwise sums at 8
    # terms; coordinates of mixed magnitudes make the two orders differ
    rng = np.random.default_rng(d)
    n = 70
    c = rng.random((n, d)) * rng.choice([1e-3, 1.0, 1e5], size=d)
    cols = np.arange(n)
    rows = np.stack([np.linalg.norm(c - c[i], axis=1) for i in range(n)])
    for i in range(n):
        assert np.array_equal(_lengths(c, i, cols), rows[i])
    assert np.array_equal(_lengths(c, cols[:, None], cols), rows)
    assert np.array_equal(_lengths(c, cols[3:67, None], cols[5:]), rows[3:67, 5:])
    iu, iv = np.triu_indices(n, k=1)
    assert np.array_equal(_lengths(c, iu, iv), rows[iu, iv])


@pytest.mark.parametrize("case", list(LENGTH_CASES))
def test_row_block_scans_match_row_references(case):
    # a fresh set: normalize records the extremes it already knows
    X = PointSet(LENGTH_CASES[case][0]().coords)
    c = X.coords
    assert X._pairwise_extremes() == pairwise_extremes_rows(X)
    D = X.distances()
    for i in range(X.n):
        assert np.array_equal(D[i], np.linalg.norm(c - c[i], axis=1))


def test_angle_between_basics():
    assert angle_between((1, 0), (0, 1)) == pytest.approx(math.pi / 2)
    assert angle_between((1, 0), (-1, 0)) == pytest.approx(0.0)
    assert angle_between((1, 0), (1, 1)) == pytest.approx(math.pi / 4)
    with pytest.raises(ZeroVector):
        angle_between((0, 0), (1, 0))


def test_angle_between_scale_and_sign_insensitive():
    rng = np.random.default_rng(1)
    for _ in range(200):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        c = rng.uniform(0.1, 10.0) * (1 if rng.random() < 0.5 else -1)
        assert angle_between(u, v) == pytest.approx(angle_between(c * u, v), abs=1e-9)


def test_region_of_examples():
    s, t = (0.0, 0.0), (1.0, 0.0)
    assert region_of(s, t, (0.375, 0.0), 0.1) is Region.IN_A
    assert region_of(s, t, (0.625, 0.0), 0.1) is Region.IN_B
    # |sx|+|xt| = 2 sqrt(1.25) > 1.1
    assert region_of(s, t, (0.5, 1.0), 0.1) is Region.OUTSIDE
    assert region_of(s, t, (0.5, 0.0), 0.1) is Region.INSIDE_NEITHER
    with pytest.raises(DegenerateSegment):
        region_of(s, s, (0.5, 0.0), 0.1)


def test_region_symmetry_swapping_foci():
    rng = np.random.default_rng(2)
    s = np.array([0.3, -0.2])
    t = np.array([1.4, 0.5])
    for _ in range(500):
        x = rng.uniform(-0.5, 2.0, 2)
        r1 = region_of(s, t, x, 0.2)
        r2 = region_of(t, s, x, 0.2)
        if r1 is Region.IN_A:
            assert r2 is Region.IN_B
        elif r1 is Region.IN_B:
            assert r2 is Region.IN_A
        else:
            assert r1 is r2


def test_region_membership_implies_ellipse():
    rng = np.random.default_rng(3)
    s = np.zeros(2)
    t = np.array([2.0, 0.0])
    eps = 0.15
    for _ in range(500):
        x = rng.uniform(-1, 3, 2)
        r = region_of(s, t, x, eps)
        if r in (Region.IN_A, Region.IN_B):
            assert np.linalg.norm(x - s) + np.linalg.norm(x - t) <= (1 + eps) * 2.0 * (
                1 + 1e-12
            )


def test_region_offsegment_projection_never_in_band():
    # |s - proj| alone would land in the band, but the signed fraction is < 0
    s, t = np.zeros(2), np.array([1.0, 0.0])
    x = np.array([-0.375, 0.0])
    assert proj_fraction(s, t, x) < 0
    assert region_of(s, t, x, 0.9) in (Region.OUTSIDE, Region.INSIDE_NEITHER)


def test_region_codes_matches_scalar():
    rng = np.random.default_rng(4)
    s, t = np.array([0.1, 0.2]), np.array([1.3, -0.4])
    pts = rng.uniform(-1, 2, (300, 2))
    codes = region_codes(s, t, pts, 0.2)
    for i in range(len(pts)):
        assert codes[i] == region_of(s, t, pts[i], 0.2).value


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8, 10])
def test_ellipse_fractions_keep_per_segment_bits(d):
    # the batched pass must give every row the bits of the one-segment
    # arithmetic region_codes ran per edge: np.dot and (coords - s) @ st
    rng = np.random.default_rng(d)
    c = rng.uniform(-3.0, 3.0, (200, d))
    S, T = rng.choice(len(c), (2, 150))
    S, T = S[S != T], T[S != T]
    dsum = np.array([np.linalg.norm(c - c[a], axis=1) + np.linalg.norm(c - c[b], axis=1)
                     for a, b in zip(S, T)])
    eps = 0.3
    inside, f = _ellipse_fractions(c[S], c[T], c, eps, dsum)
    for r, (a, b) in enumerate(zip(S, T)):
        st = c[b] - c[a]
        d2 = float(np.dot(st, st))
        limit = (1.0 + eps) * math.sqrt(d2) * (1.0 + BAND_TOL)
        assert np.array_equal(inside[r], dsum[r] <= limit)
        assert np.array_equal(f[r], (c - c[a]) @ st / d2)
    assert 0 < inside.sum() < inside.size


def test_low_angle_weight_basics():
    a, b = (0.0, 0.0), (2.0, 0.0)
    collinear = [((0.0, 0.0), (1.0, 0.0))]
    orthogonal = [((0.0, 0.0), (0.0, 1.0))]
    assert low_angle_weight(collinear, a, b, 0.1) == pytest.approx(1.0)
    assert low_angle_weight(orthogonal, a, b, 0.1) == pytest.approx(0.0)
    with pytest.raises(DegenerateSegment):
        low_angle_weight(collinear, a, a, 0.1)


def test_low_angle_lemma_property():
    # covering sequences of bounded total length keep half their weight
    # within angle 2*sqrt(eps) of the segment
    rng = np.random.default_rng(5)
    for _ in range(300):
        eps = rng.uniform(0.005, 0.3)
        edges, a, b = lemma_sequence(rng, eps)
        assert low_angle_weight(edges, a, b, 2.0 * math.sqrt(eps)) >= 0.5
