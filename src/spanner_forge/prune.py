"""Two-phase greedy pruning of a Euclidean spanner.

Edges are classified by whether both waist regions of their ellipse
contain input points.  Phase 1 repeatedly adds a substitute pair that
lets many same-scale region-free (type-1) edges be deleted at once;
phase 2 re-adds region-bearing (type-2) edges only when their distance
is not already approximately preserved, pairing each kept edge with a
helper edge drawn from the two regions.  Iterating the phases with the
documented parameter updates trades a bounded stretch increase for
sparsity and weight reductions.
"""

from __future__ import annotations

import math
import typing
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geom import PointSet, Region, region_codes
from .graph import GraphError, SpannerGraph, bounded_dijkstra, path_greedy
from .nets import DEFAULT_HOP_CAP, build_cluster_graph, cluster_dist

_RTOL = 1e-12

# Ratio of the geometric length buckets (weights in [BETA^j, BETA^{j+1})).
BETA = 1.01


class PruneError(GraphError):
    pass


class InternalInconsistency(PruneError):
    """A kept type-2 edge turned out to have an empty witness region."""


def log_star(x: float) -> int:
    """Iterated-logarithm count: applications of log2 until <= 1."""
    cnt = 0
    while x > 1.0:
        x = math.log2(x)
        cnt += 1
    return cnt


def _product_minus_one(terms) -> float:
    # prod(1 + x_i) - 1 without the cancellation the literal form
    # suffers at tiny x_i
    return math.expm1(sum(math.log1p(x) for x in terms))


def delta_growth(kappa: float, delta: float) -> float:
    """One-iteration stretch-bound update:
    (1+delta)(1+kappa*delta)(1+kappa^2*delta) - 1."""
    return _product_minus_one([delta, kappa * delta, kappa * kappa * delta])


@dataclass
class PruneParams:
    """All knobs of the pruning pipeline.

    ``constant_mode`` chooses between the analysis constants
    ("theoretical", kappa = 1e4 by default) and desk-scale ones
    ("practical", kappa_eff = 10).  The proven stretch/size guarantees
    attach only to the theoretical constants; practical mode makes the
    pruning observable on small instances.  Length buckets have the
    fixed ratio :data:`BETA`.
    """

    eps: float
    delta: float | None = None  # defaults to eps
    alpha: float | None = None  # defaults to eps^(-2 d) when the dimension is known
    kappa: float = 1.0e4
    kappa_eff: float = 10.0
    iterations: int = 1
    constant_mode: str = "practical"  # "practical" | "theoretical"
    alpha_log_const: float = 4.0
    logstar_const: float = 1.0
    hop_cap: int = DEFAULT_HOP_CAP

    def __post_init__(self):
        if not 0.0 < self.eps:
            raise PruneError("eps must be positive")
        if self.delta is not None and self.delta < self.eps * (1.0 - _RTOL):
            raise PruneError("delta must be at least eps")
        if self.kappa < 2 or self.kappa_eff < 2:
            raise PruneError("kappa must be at least 2")
        if self.iterations < 1:
            raise PruneError("iteration count must be at least 1")
        if self.constant_mode not in ("practical", "theoretical"):
            raise PruneError(f"unknown constant mode {self.constant_mode!r}")

    @property
    def kappa_used(self) -> float:
        return self.kappa_eff if self.constant_mode == "practical" else self.kappa

    @property
    def delta_value(self) -> float:
        return self.eps if self.delta is None else self.delta

    def alpha_value(self, dim: int) -> float:
        if self.alpha is not None:
            return self.alpha
        return float(self.eps) ** (-2 * dim)

    def check_parameter_gate(self, dim: int) -> bool:
        """Sanity gate for theoretical constants; warns when violated."""
        if self.constant_mode != "theoretical":
            return True
        lhs = self.eps * 2.0 ** (self.logstar_const * log_star(dim / self.eps))
        ok = lhs < self.kappa ** (-5.0)
        if not ok:
            warnings.warn(
                f"eps={self.eps} fails the small-eps gate for kappa={self.kappa}; "
                "theoretical guarantees do not apply at this scale",
                stacklevel=2,
            )
        return ok

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_config_file(cls, path) -> "PruneParams":
        """Parse a key=value text file into parameters."""
        kinds = typing.get_type_hints(cls)
        raw: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise PruneError(f"{path}: line {lineno}: expected key=value")
                key, val = (p.strip() for p in line.split("=", 1))
                if key not in kinds:
                    raise PruneError(f"{path}: line {lineno}: unknown key {key!r}")
                # an optional field's annotation is "<type> | None"
                kind, *rest = typing.get_args(kinds[key]) or (kinds[key],)
                if rest and val.lower() == "none":
                    raw[key] = None
                else:
                    raw[key] = kind(val)
        return cls(**raw)


@dataclass
class PhaseReport:
    """Observable outcome of one pruning phase.

    ``levels`` maps a length bucket j (weights in [BETA^j, BETA^{j+1}))
    to its old-edge counts; ``measured_delta`` is the largest relative
    detour observed for an edge handled in this phase.
    """

    phase: int
    iteration: int = 0
    levels: dict = field(default_factory=dict)
    substitutes_added: int = 0
    type1_pruned: int = 0
    type2_total: int = 0
    type2_kept: int = 0
    type2_dropped: int = 0
    helpers_added: int = 0
    measured_delta: float = 0.0

    def reconciles(self) -> bool:
        if self.phase == 1:
            for info in self.levels.values():
                if info["type1"] != info["pruned"] + info["kept"]:
                    return False
            return self.type1_pruned == sum(i["pruned"] for i in self.levels.values())
        return self.type2_total == self.type2_kept + self.type2_dropped


def classify_edges(X: PointSet, E: SpannerGraph, eps: float):
    """Partition the edges of E into type-1 and type-2 sets.

    An edge is type-2 when both waist regions of its ellipse contain
    input points, type-1 otherwise.
    """
    type1, type2 = set(), set()
    coords = X.coords
    for u, v, _ in E.edges:
        codes = region_codes(coords[u], coords[v], coords, eps)
        if (codes == Region.IN_A.value).any() and (codes == Region.IN_B.value).any():
            type2.add((u, v))
        else:
            type1.add((u, v))
    return type1, type2


def _bucket(w: float, beta: float) -> int:
    j = int(math.floor(math.log(w) / math.log(beta) + 1e-9))
    while w < beta**j:
        j -= 1
    while w >= beta ** (j + 1):
        j += 1
    return j


def _exact_candidates(coords, live_edges, weights, min_len, factor):
    """Map (x, y) pairs to the live same-bucket edges they could replace.

    A pair qualifies for edge (s, t) when |sx|+|xy|+|yt| (either
    orientation) stays within factor*|st| and |xy| >= min_len.
    """
    cand: dict = {}
    for (s, t) in live_edges:
        w = weights[(s, t)]
        budget = factor * w * (1.0 + _RTOL)
        ps, pt = coords[s], coords[t]
        ds = np.linalg.norm(coords - ps, axis=1)
        dt = np.linalg.norm(coords - pt, axis=1)
        inside = np.nonzero(ds + dt <= budget)[0]
        if len(inside) < 2:
            continue
        sub = coords[inside]
        pd = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=2)
        dsi = ds[inside]
        dti = dt[inside]
        ok = (pd >= min_len * (1.0 - _RTOL)) & (
            (dsi[:, None] + pd + dti[None, :] <= budget)
            | (dti[:, None] + pd + dsi[None, :] <= budget)
        )
        ii, jj = np.nonzero(np.triu(ok | ok.T, k=1))
        for a, b in zip(inside[ii], inside[jj]):
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            cand.setdefault(key, set()).add((s, t))
    return cand


def phase1(
    X: PointSet,
    E: SpannerGraph,
    params: PruneParams,
    classification=None,
):
    """Substitute-edge pruning of type-1 edges.

    Within each sub-iteration and length bucket, while some candidate
    pair covers at least alpha/(2^i kappa) live type-1 edges, the
    best-covering pair (ties lexicographic) is added as a new edge and
    its covered edges are deleted.  New edges are never pruned.
    Returns the surviving graph (new pairs recorded in its meta) and a
    report.
    """
    eps = params.eps
    if classification is None:
        classification = classify_edges(X, E, eps)
    type1, _ = classification
    factor = 1.0 + eps
    kappa = params.kappa_used
    alpha = params.alpha_value(X.dim)
    coords = X.coords
    weights = {(u, v): w for u, v, w in E.edges}
    buckets: dict = {}
    for (u, v), w in weights.items():
        buckets.setdefault(_bucket(w, BETA), []).append((u, v))
    report = PhaseReport(phase=1)
    for j, lst in buckets.items():
        t1 = sum(1 for p in lst if p in type1)
        report.levels[j] = {"edges": len(lst), "type1": t1, "pruned": 0, "kept": t1}
    live = set(type1)  # old type-1 edges still present and prunable
    new_pairs: set = set()
    pruned: set = set()
    n_sub = max(1, math.ceil(math.log2(max(alpha, 2.0))))
    for i in range(1, n_sub + 1):
        thr = alpha / (2.0**i * kappa)
        for j in sorted(buckets):
            live_j = [p for p in buckets[j] if p in live]
            if not live_j or len(live_j) < thr:
                continue
            min_len = BETA**j / 25.0
            cand = _exact_candidates(coords, live_j, weights, min_len, factor)
            if not cand:
                continue
            while True:
                best_key, best_cov = None, None
                for key in cand:
                    cov = cand[key] & live
                    if not cov:
                        continue
                    if (
                        best_cov is None
                        or len(cov) > len(best_cov)
                        or (len(cov) == len(best_cov) and key < best_key)
                    ):
                        best_key, best_cov = key, cov
                if best_cov is None or len(best_cov) < thr:
                    break
                new_pairs.add(best_key)
                live.discard(best_key)  # a coinciding old edge is now protected
                report.substitutes_added += 1
                px, py = coords[best_key[0]], coords[best_key[1]]
                wxy = float(np.linalg.norm(px - py))
                for (s, t) in best_cov:
                    if (s, t) == best_key:
                        continue
                    live.discard((s, t))
                    pruned.add((s, t))
                    report.levels[j]["pruned"] += 1
                    report.levels[j]["kept"] -= 1
                    report.type1_pruned += 1
                    detour = (
                        np.linalg.norm(coords[s] - px)
                        + wxy
                        + np.linalg.norm(coords[t] - py)
                    )
                    detour = min(
                        detour,
                        np.linalg.norm(coords[s] - py)
                        + wxy
                        + np.linalg.norm(coords[t] - px),
                    )
                    report.measured_delta = max(
                        report.measured_delta, detour / weights[(s, t)] - 1.0
                    )
    survivors = [(u, v, w) for (u, v), w in weights.items() if (u, v) not in pruned]
    present = {(u, v) for u, v, _ in survivors}
    for (a, b) in sorted(new_pairs):
        if (a, b) not in present:
            survivors.append((a, b, float(np.linalg.norm(coords[a] - coords[b]))))
            present.add((a, b))
    E1 = SpannerGraph(X.n, survivors, meta={"new_pairs": sorted(new_pairs)})
    return E1, report


def _exact_helper(coords, u: int, v: int, eps: float):
    codes = region_codes(coords[u], coords[v], coords, eps)
    a_pts = np.nonzero(codes == Region.IN_A.value)[0]
    b_pts = np.nonzero(codes == Region.IN_B.value)[0]
    if len(a_pts) == 0 or len(b_pts) == 0:
        raise InternalInconsistency(
            f"kept type-2 edge ({u},{v}) has an empty witness region"
        )
    pd = np.linalg.norm(coords[a_pts][:, None, :] - coords[b_pts][None, :, :], axis=2)
    best = pd.max()
    # band geometry guarantees helpers at least a fifth of the edge
    if best < 0.2 * float(np.linalg.norm(coords[u] - coords[v])):
        raise InternalInconsistency(f"short helper candidate for edge ({u},{v})")
    cands = []
    ii, jj = np.nonzero(pd >= best * (1.0 - _RTOL))
    for a, b in zip(a_pts[ii], b_pts[jj]):
        cands.append((int(a), int(b)) if a < b else (int(b), int(a)))
    return min(cands)


def phase2(
    X: PointSet,
    E1: SpannerGraph,
    params: PruneParams,
    classification,
    dist_backend: str = "exact",
):
    """Helper-edge pruning of type-2 edges.

    Starts from E1 minus its old type-2 edges and scans those by
    increasing weight (ties lexicographic): an edge is dropped when its
    endpoints are already connected within (1+kappa^2 delta) times its
    length, otherwise it is kept and one helper edge joining its two
    waist regions is added.  ``dist_backend`` is "exact" (Dijkstra on
    the growing graph) or "clusters" (bounded-hop cluster-graph queries
    with the widened acceptance threshold).
    """
    eps = params.eps
    _, type2 = classification
    kappa = params.kappa_used
    delta = params.delta_value
    coords = X.coords
    new_pairs = set(map(tuple, E1.meta.get("new_pairs", [])))
    weights = {(u, v): w for u, v, w in E1.edges}
    type2_old = sorted(
        (w, u, v)
        for (u, v), w in weights.items()
        if (u, v) in type2 and (u, v) not in new_pairs
    )
    kept_edges = {p: w for p, w in weights.items() if p not in type2 or p in new_pairs}
    report = PhaseReport(phase=2, type2_total=len(type2_old))
    added_pairs = set(new_pairs)

    def add_edge(adjacency, a, b, w):
        adjacency[a].append((b, w))
        adjacency[b].append((a, w))

    if dist_backend == "exact":
        adj = [[] for _ in range(X.n)]
        for (a, b), w in kept_edges.items():
            add_edge(adj, a, b, w)
        thr_mult = 1.0 + kappa * kappa * delta
        for w, u, v in type2_old:
            limit = thr_mult * w * (1.0 + _RTOL)
            d = bounded_dijkstra(adj, u, limit, v).get(v, math.inf)
            if d <= limit:
                report.type2_dropped += 1
                report.measured_delta = max(report.measured_delta, d / w - 1.0)
                continue
            report.type2_kept += 1
            kept_edges[(u, v)] = w
            add_edge(adj, u, v, w)
            hk = _exact_helper(coords, u, v, eps)
            if hk not in kept_edges:
                hw = float(np.linalg.norm(coords[hk[0]] - coords[hk[1]]))
                kept_edges[hk] = hw
                add_edge(adj, hk[0], hk[1], hw)
                report.helpers_added += 1
                added_pairs.add(hk)
    elif dist_backend == "clusters":
        thr_mult = (1.0 + eps) * (1.0 + kappa * kappa * delta)
        by_scale: dict = {}
        for w, u, v in type2_old:
            by_scale.setdefault(int(math.floor(math.log2(w))), []).append((w, u, v))
        for i in sorted(by_scale):
            scale = 2.0**i
            below = [
                (a, b, w)
                for (a, b), w in kept_edges.items()
                if w < scale * (1.0 - _RTOL)
            ]
            F = build_cluster_graph(
                SpannerGraph(X.n, below), i, eps, contract=True, n=X.n
            )
            slack = eps * eps * scale
            for w, u, v in sorted(by_scale[i]):
                d = cluster_dist(F, u, v, hop_cap=params.hop_cap)
                if d + slack <= thr_mult * w * (1.0 + _RTOL):
                    report.type2_dropped += 1
                    report.measured_delta = max(report.measured_delta, d / w - 1.0)
                    continue
                report.type2_kept += 1
                kept_edges[(u, v)] = w
                F.add_bridge(u, v, w)
                hk = _exact_helper(coords, u, v, eps)
                if hk not in kept_edges:
                    hw = float(np.linalg.norm(coords[hk[0]] - coords[hk[1]]))
                    kept_edges[hk] = hw
                    F.add_bridge(hk[0], hk[1], hw)
                    report.helpers_added += 1
                    added_pairs.add(hk)
    else:
        raise PruneError(f"unknown distance backend {dist_backend!r}")
    E2 = SpannerGraph(
        X.n,
        [(u, v, w) for (u, v), w in kept_edges.items()],
        meta={"new_pairs": sorted(added_pairs)},
    )
    return E2, report


def update_params(params: PruneParams) -> PruneParams:
    """Parameter update after one pruning iteration.

    The stretch bound grows by the documented three-factor product and
    the sparsity bound drops to max(alpha_log_const * ln(alpha), 4).
    """
    if params.alpha is None:
        raise PruneError("alpha must be resolved before updating")
    nd = delta_growth(params.kappa_used, params.delta_value)
    na = max(params.alpha_log_const * math.log(params.alpha), 4.0)
    return replace(params, delta=nd, alpha=na)


def greedy_prune(
    X: PointSet,
    eps: float,
    k: int,
    params: PruneParams | None = None,
    seed_spanner: SpannerGraph | None = None,
    dist_backend: str = "exact",
):
    """Full pruning pipeline: k rounds of classify / phase1 / phase2.

    The seed defaults to the path-greedy (1+eps)-spanner;
    ``dist_backend`` is phase 2's "exact" or "clusters" backend.  Returns
    the final graph and the per-phase reports; the output is re-verified
    to be connected.
    """
    if not X.is_normalized(rtol=1e-6):
        raise PruneError("point set must be normalized first")
    if k < 0:
        raise PruneError("iteration count must be nonnegative")
    if dist_backend not in ("exact", "clusters"):
        raise PruneError(f"unknown distance backend {dist_backend!r}")
    if params is None:
        params = PruneParams(eps=eps, iterations=max(k, 1))
    if abs(params.eps - eps) > _RTOL * eps:
        raise PruneError("params.eps disagrees with eps argument")
    if params.alpha is None:
        params = replace(params, alpha=params.alpha_value(X.dim))
    params.check_parameter_gate(X.dim)
    E = seed_spanner if seed_spanner is not None else path_greedy(X, 1.0 + eps)
    reports: list = []
    for it in range(1, k + 1):
        classification = classify_edges(X, E, eps)
        E1, r1 = phase1(X, E, params, classification=classification)
        r1.iteration = it
        E2, r2 = phase2(X, E1, params, classification, dist_backend=dist_backend)
        r2.iteration = it
        reports.extend([r1, r2])
        E = E2
        params = update_params(params)
    if not E.is_connected():
        raise PruneError("pruned spanner lost connectivity")
    return E, reports
