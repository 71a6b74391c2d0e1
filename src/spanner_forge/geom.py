"""Euclidean primitives.

Point sets, distances, normalization, the (1+eps)-ellipse around a
segment, and the two waist bands inside it that drive edge
classification in the pruning pipeline.  Everything here is pure and
dimension-independent.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

# Relative tolerance for geometric inequality tests.  The underlying
# analysis is in exact reals; every float comparison in this package is
# guarded so the comparison contract is explicit.
GEOM_RTOL = 1e-9
NORMALIZED_RTOL = 1e-6  # how far from 1 a normalized set's minimum distance may be
# normalize's range, where the length kernels' squares stay normal floats
NORMALIZE_MIN_DIST = 1.5e-154  # above the square root of the least normal float
NORMALIZE_MAX_SPREAD = 1.3e154  # below the square root of the largest float

# Projection-fraction bands of the two waist regions inside the ellipse:
# region A sits in a band of half-width 1/50 around 3/8, region B mirrors
# it around 5/8.  Band membership uses closed intervals with a small
# absolute tolerance.
BAND_HALF_WIDTH = 1.0 / 50.0
A_LO = 3.0 / 8.0 - BAND_HALF_WIDTH
A_HI = 3.0 / 8.0 + BAND_HALF_WIDTH
B_LO = 5.0 / 8.0 - BAND_HALF_WIDTH
B_HI = 5.0 / 8.0 + BAND_HALF_WIDTH
BAND_TOL = 1e-12


class GeomError(ValueError):
    """Base class for geometric precondition violations."""


class DuplicatePoint(GeomError):
    pass


class TooFewPoints(GeomError):
    pass


class DegenerateSegment(GeomError):
    pass


# Rows of a length scan computed per kernel call: each temporary is then
# 64 n floats, however large n is.
_ROW_BLOCK = 64


def _lengths(c: np.ndarray, a, b) -> np.ndarray:
    """Euclidean lengths between the rows of ``c`` at the broadcast index
    arrays ``a`` and ``b``: rows (r, n) take ``a = rows[:, None]`` and
    ``b = arange(n)``, flat pairs take ``a = iu`` and ``b = iv``.

    Each value equals ``np.linalg.norm(c[a] - c[b], axis=-1)`` bit for
    bit, and so the row scans ``norm(c - c[i], axis=1)`` too.  Below 8
    dimensions ``add.reduce`` sums the squares left to right, so one
    coordinate plane at a time reproduces it without an (r, n, d)
    temporary.
    """
    if c.shape[1] >= 8:
        # from 8 terms up numpy sums pairwise, an order the planes do not follow
        return np.linalg.norm(c[a] - c[b], axis=-1)
    x, *planes = c.T
    acc = x[a] - x[b]
    acc *= acc
    sq = np.empty_like(acc)
    for x in planes:
        np.subtract(x[a], x[b], out=sq)
        sq *= sq
        acc += sq
    return np.sqrt(acc, out=acc)


class Region(Enum):
    """Position of a point relative to the ellipse of a segment."""

    OUTSIDE = 0
    INSIDE_NEITHER = 1
    IN_A = 2
    IN_B = 3


class PointSet:
    """A finite set of d-dimensional points.

    ``scale`` records the factor the raw coordinates were divided by
    (:func:`normalize` sets it; 1.0 for raw sets), so results can be
    mapped back to input units.  The pairwise extremes, the distance
    matrix and the EMST weight (``graph.emst_weight``) are computed on
    first use and kept.
    """

    __slots__ = ("coords", "scale", "_min_dist", "_max_dist", "_dist", "_emst")

    def __init__(self, coords):
        arr = np.ascontiguousarray(np.asarray(coords, dtype=np.float64))
        if arr.ndim != 2:
            raise GeomError("coordinates must be an (n, d) array")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise TooFewPoints("need at least one point with dimension >= 1")
        if not np.all(np.isfinite(arr)):
            raise GeomError("all coordinates must be finite")
        if arr.shape[0] > 1 and len(np.unique(arr, axis=0)) != arr.shape[0]:
            raise DuplicatePoint("point set contains duplicate points")
        self.coords = arr
        self.scale = 1.0
        self._min_dist = None
        self._max_dist = None
        self._dist = None
        self._emst = None

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def distances(self) -> np.ndarray:
        """n x n Euclidean distances, built in row blocks on first use.

        Row i is ``norm(coords - coords[i], axis=1)``.  The cached matrix
        (8 n^2 bytes) is shared by every caller, so it is read-only.
        """
        if self._dist is None:
            cols = np.arange(self.n)
            D = np.empty((self.n, self.n))
            for lo in range(0, self.n, _ROW_BLOCK):
                rows = cols[lo : lo + _ROW_BLOCK, None]
                D[lo : lo + _ROW_BLOCK] = _lengths(self.coords, rows, cols)
            D.flags.writeable = False
            self._dist = D
        return self._dist

    def _pairwise_extremes(self):
        if self._min_dist is None:
            lo, hi = math.inf, 0.0
            n = self.n
            for r in range(0, n - 1, _ROW_BLOCK):
                # rows r.. against the columns right of r, upper triangle only
                rows = np.arange(r, min(r + _ROW_BLOCK, n - 1))[:, None]
                cols = np.arange(r + 1, n)
                d = _lengths(self.coords, rows, cols)
                upper = cols > rows
                lo = min(lo, float(d.min(initial=math.inf, where=upper)))
                hi = max(hi, float(d.max(initial=0.0, where=upper)))
            self._min_dist, self._max_dist = lo, hi
        return self._min_dist, self._max_dist

    def min_pairwise_distance(self) -> float:
        if self.n < 2:
            raise TooFewPoints("pairwise distance needs two points")
        return self._pairwise_extremes()[0]

    def spread(self) -> float:
        """Ratio of max to min pairwise distance."""
        lo, hi = self._pairwise_extremes()
        return hi / lo

    def is_normalized(self) -> bool:
        return abs(self.min_pairwise_distance() - 1.0) <= NORMALIZED_RTOL

    def __repr__(self) -> str:  # pragma: no cover
        return f"PointSet(n={self.n}, dim={self.dim}, scale={self.scale})"


def normalize(raw) -> PointSet:
    """Scale a raw point set so its minimum pairwise distance is 1.

    The divisor is recorded as ``scale`` on the result, whose extremes
    are set to 1 and the raw spread rather than recomputed; a given
    ``PointSet`` is read as it is, not rebuilt.  Raises ``TooFewPoints``
    for fewer than two points and ``GeomError`` outside the range that
    ``NORMALIZE_*`` sets; ``PointSet`` refuses coincident points.
    """
    ps = raw if isinstance(raw, PointSet) else PointSet(raw)
    if ps.n < 2:
        raise TooFewPoints("normalization needs at least two points")
    d, hi = ps._pairwise_extremes()
    # distinct points whose squared distance underflows to 0 fail here too
    if d < NORMALIZE_MIN_DIST:
        raise GeomError(f"minimum pairwise distance {d:.3g} is below {NORMALIZE_MIN_DIST:.3g}")
    spread = hi / d
    if not spread < NORMALIZE_MAX_SPREAD:
        raise GeomError(f"spread {spread:.3g} is not below {NORMALIZE_MAX_SPREAD:.3g}")
    out = PointSet(ps.coords / d)
    out.scale, out._min_dist, out._max_dist = d, 1.0, spread
    return out


def _dot_lengths(c: np.ndarray, a, b) -> np.ndarray:
    """Lengths between the rows of ``c`` at the index arrays ``a`` and
    ``b``, each equal bit for bit to ``np.linalg.norm(c[i] - c[j])`` of
    its pair (i, j): vecdot runs the dot kernel that ``np.linalg.norm``
    uses on one vector, which ``norm(axis=1)`` does not."""
    diff = c[a] - c[b]
    return np.sqrt(np.vecdot(diff, diff))


def _ellipse_fractions(s, t, coords: np.ndarray, eps: float, dsum: np.ndarray):
    """Ellipse membership and projection fractions for m segments at once.

    ``s`` and ``t`` are (m, d) endpoints and ``dsum[r, p]`` is
    |s[r] coords[p]| + |coords[p] t[r]|.  Returns the (m, n) arrays
    ``inside`` (the point lies in the (1+eps)-ellipse of segment r) and
    ``f`` (its projection fraction along s[r] t[r]).  Each row has the
    bits of the one-segment computation: ``vecdot`` gives ``np.dot``'s
    squared length, and a stacked ``matmul`` gives each row of
    ``(coords - s) @ st``, which summing coordinate planes or ``einsum``
    would not (FMA).
    """
    st = t - s
    d2 = np.vecdot(st, st)
    if not d2.all():
        raise DegenerateSegment("s and t coincide")
    inside = dsum <= ((1.0 + eps) * np.sqrt(d2) * (1.0 + BAND_TOL))[:, None]
    f = np.matmul(coords - s[:, None], st[:, :, None])[..., 0] / d2[:, None]
    return inside, f


def _ellipse_bands(s, t, coords: np.ndarray, eps: float, dsum: np.ndarray):
    """The (m, n) masks ``(inside, in_a, in_b)`` of :func:`region_codes`
    for m segments at once, with the arguments of
    :func:`_ellipse_fractions`."""
    inside, f = _ellipse_fractions(s, t, coords, eps, dsum)
    in_a = inside & (f >= A_LO - BAND_TOL) & (f <= A_HI + BAND_TOL)
    in_b = inside & (f >= B_LO - BAND_TOL) & (f <= B_HI + BAND_TOL)
    return inside, in_a, in_b


def region_codes(s, t, coords: np.ndarray, eps: float) -> np.ndarray:
    """The Region of each row of ``coords`` against the (1+eps)-ellipse
    with foci s and t, as an int8 array: OUTSIDE when |sx|+|xt| >
    (1+eps)|st|; otherwise IN_A / IN_B when the projection fraction of x
    along st lies in the band around 3/8 resp. 5/8 (closed intervals,
    tolerance BAND_TOL; never past the segment's ends), else INSIDE_NEITHER.
    The public one-segment form of :func:`_ellipse_bands`, which the
    package runs itself, and the reference of the band tests.
    """
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    dsum = np.linalg.norm(coords - s, axis=1) + np.linalg.norm(coords - t, axis=1)
    masks = _ellipse_bands(s[None], t[None], coords, eps, dsum[None])
    inside, in_a, in_b = (m[0] for m in masks)
    out = np.full(coords.shape[0], Region.OUTSIDE.value, dtype=np.int8)
    out[inside] = Region.INSIDE_NEITHER.value
    out[in_a] = Region.IN_A.value
    out[in_b] = Region.IN_B.value
    return out
