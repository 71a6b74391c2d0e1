import dataclasses
import math

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from spanner_forge.geom import PointSet, Region, normalize, region_codes
from spanner_forge.graph import SpannerGraph, path_greedy, verify_stretch
from spanner_forge.nets import build_hierarchy, build_net_tree_spanner
from spanner_forge.instances import (
    gen_lightness_lb_x,
    gen_motivating,
    gen_random,
    gen_sparsity_lb,
    gen_sparsity_lb_x,
)
from spanner_forge.prune import (
    BETA,
    InternalInconsistency,
    PhaseReport,
    PruneParams,
    PruneError,
    _helper,
    classify_edges,
    delta_growth,
    greedy_prune,
    phase1,
    phase2,
    update_params,
)

from conftest import int_grid, point_dist, random_points, reconciles, shortest_dist


# Phase 2 has one distance query, the exact bounded Dijkstra.  The cases
# that ran under each of its two former backends keep the id of this one.
EXACT_QUERY = pytest.mark.parametrize("query", ["exact"])


def motivating_normalized(eps=0.01, mid_x=(3.0, 7.0)):
    inst = gen_motivating(eps, mid_x=mid_x)
    return normalize(inst.points), inst.meta


def biclique_seed(X, meta, middles=True):
    """Columns + the full bi-clique, and the middle connections when
    ``middles``."""
    xs, ys = meta["x_indices"], meta["y_indices"]
    zi, wi = meta["z_index"], meta["w_index"]
    pairs = set()
    for i in range(len(xs) - 1):
        pairs.add((xs[i], xs[i + 1]))
        pairs.add((ys[i], ys[i + 1]))
    pairs |= {(a, b) for a in xs for b in ys}
    if middles:
        pairs |= {(a, zi) for a in xs} | {(b, wi) for b in ys} | {(zi, wi)}
    return SpannerGraph.from_pairs(X, sorted(pairs))


def pair_sets(classification, n):
    """classify_edges' two pair-code arrays as sets of (u, v) pairs."""
    return tuple({divmod(c, n) for c in codes.tolist()} for codes in classification)


def test_params_validation():
    with pytest.raises(PruneError):
        PruneParams(eps=0.1, delta=0.05)
    with pytest.raises(PruneError):
        PruneParams(eps=0.1, kappa=1.0)
    p = PruneParams(eps=0.1)
    assert p.kappa == 10.0
    assert PruneParams(eps=0.1, kappa=20).kappa == 20.0
    assert p.alpha_value(2) == pytest.approx(0.1**-4)


@pytest.mark.parametrize(
    "kw",
    [
        {"eps": 0.0},
        {"eps": math.inf},
        {"delta": math.nan},
        {"delta": math.inf},
        {"alpha": math.nan},
        {"alpha": math.inf},
        {"alpha": 0.0},
        {"alpha": -1.0},
        {"kappa": math.nan},
        {"kappa": math.inf},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_params_reject_non_finite_and_non_positive(kw):
    # a NaN delta or kappa would make phase 2 keep every type-2 edge
    # and be carried into the next round by update_params
    with pytest.raises(PruneError):
        PruneParams(**{"eps": 0.1, **kw})


def test_params_iterations_keyword_is_ignored():
    # greedy_prune's k sets the rounds; the keyword only warns
    with pytest.warns(DeprecationWarning):
        p = PruneParams(eps=0.1, iterations=3)
    assert p == PruneParams(eps=0.1)
    assert "iterations" not in dataclasses.asdict(p)


def test_classify_two_point_instance():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    E = SpannerGraph.from_pairs(X, [(0, 1)])
    t1, t2 = pair_sets(classify_edges(X, E, 0.2), X.n)
    assert t1 == {(0, 1)} and t2 == set()


def test_classify_motivating_band_interior_middles():
    # middle points at fractions 0.375 / 0.625 lie inside the waist bands
    X, meta = motivating_normalized(mid_x=(3.75, 6.25))
    E = biclique_seed(X, meta)
    t1, t2 = pair_sets(classify_edges(X, E, 0.01), X.n)
    first = (meta["x_indices"][0], meta["y_indices"][0])
    assert first in t2
    # with the default middles at fractions 0.30 / 0.70 the bands are empty
    Xd, md = motivating_normalized(mid_x=(3.0, 7.0))
    Ed = biclique_seed(Xd, md)
    t1d, t2d = pair_sets(classify_edges(Xd, Ed, 0.01), Xd.n)
    assert (md["x_indices"][0], md["y_indices"][0]) in t1d


def test_phase1_no_type1_noop():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    E = SpannerGraph.from_pairs(X, [(0, 1), (1, 2)])
    params = PruneParams(eps=0.01, alpha=1e4)
    # force an empty type-1 set: everything treated as type-2
    code = E.u * X.n + E.v
    E1, rep = phase1(X, E, params, classification=(code[:0], code))
    assert E1.edge_set() == E.edge_set()
    assert rep.substitutes_added == 0 and rep.type1_pruned == 0
    assert reconciles(rep)


def test_phase1_prunes_biclique():
    X, meta = motivating_normalized()
    E = biclique_seed(X, meta)
    params = PruneParams(eps=0.01)
    E1, rep = phase1(X, E, params, classify_edges(X, E, 0.01))
    k1 = len(meta["x_indices"])
    assert rep.type1_pruned >= k1 * k1 - 1  # essentially the whole bi-clique
    assert len(E1.edges) < len(E.edges)
    assert reconciles(rep)
    # phase-1 stretch: every original endpoint pair stays within
    # (1+kappa*delta) of its length in E1
    bound = 1.0 + params.kappa * params.delta_value
    for u, v, w in E.edges:
        assert shortest_dist(E1, u, v, cutoff=bound * w * 2) <= bound * w * (1 + 1e-9)


def test_phase1_never_removes_type2_or_new():
    X = random_points(150, 2, 31)
    E = path_greedy(X, 1.15)
    params = PruneParams(eps=0.15)
    cls = classify_edges(X, E, 0.15)
    E1, rep = phase1(X, E, params, classification=cls)
    _, type2 = pair_sets(cls, X.n)
    assert type2 <= E1.edge_set()
    assert set(map(tuple, E1.meta["new_pairs"])) <= E1.edge_set()
    assert reconciles(rep)


def test_phase2_noop_without_type2():
    X = random_points(30, 2, 32)
    E = path_greedy(X, 1.2)
    params = PruneParams(eps=0.2)
    code = E.u * X.n + E.v
    cls = (code, code[:0])
    E1, _ = phase1(X, E, params, classification=cls)
    E2, rep = phase2(X, E1, params, cls)
    assert E2.edge_set() == E1.edge_set()
    assert rep.type2_total == 0
    assert reconciles(rep)


@EXACT_QUERY
def test_phase2_keep_drop_and_helper(query):
    # columns + bi-clique, middle points present but unconnected: the
    # first cross edge must be kept with helper (z, w); every later
    # cross edge is dropped through it
    X, meta = motivating_normalized(mid_x=(3.75, 6.25))
    xs, ys = meta["x_indices"], meta["y_indices"]
    zi, wi = meta["z_index"], meta["w_index"]
    E1 = biclique_seed(X, meta, middles=False)
    params = PruneParams(eps=0.01)
    cls = classify_edges(X, E1, 0.01)
    _, type2 = pair_sets(cls, X.n)
    assert {(a, b) for a in xs for b in ys} <= type2
    E2, rep = phase2(X, E1, params, cls)
    assert rep.type2_kept == 1
    assert rep.type2_dropped == len(xs) * len(ys) - 1
    assert rep.helpers_added == 1
    helper = (zi, wi) if zi < wi else (wi, zi)
    assert helper in E2.edge_set()
    assert reconciles(rep)
    # helper geometry: both endpoints between the waist bands keeps it long
    w_len = point_dist(X, zi, wi)
    first_len = point_dist(X, xs[0], ys[0])
    assert w_len >= 0.2 * first_len


def test_phase2_inconsistent_classification_raises():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]))
    E1 = SpannerGraph.from_pairs(X, [(0, 1)])
    params = PruneParams(eps=0.01)
    # lie about (0,1) being type-2: its waist regions are empty
    code = E1.u * X.n + E1.v
    with pytest.raises(InternalInconsistency):
        phase2(X, E1, params, (code[:0], code))


def test_update_params_values_and_property():
    assert delta_growth(1e4, 0.0) == 0.0
    d = 1e-9
    expected = (1 + d) * (1 + 1e4 * d) * (1 + 1e8 * d) - 1
    assert delta_growth(1e4, d) == pytest.approx(expected, rel=1e-12)
    rng = np.random.default_rng(33)
    for _ in range(1000):
        kappa = float(rng.uniform(2.0, 1e4))
        delta = float(rng.uniform(0, kappa**-5))
        assert delta_growth(kappa, delta) < (kappa + 1) ** 2 * delta or delta == 0.0
    p = PruneParams(eps=0.01, delta=0.02, alpha=1e6)
    p2 = update_params(p)
    assert p2.delta == pytest.approx(delta_growth(10.0, 0.02))
    assert p2.alpha == pytest.approx(max(4.0 * math.log(1e6), 4.0))
    with pytest.raises(PruneError, match="alpha must be resolved"):
        update_params(PruneParams(eps=0.01))


def test_greedy_prune_zero_iterations_returns_seed():
    X = random_points(40, 2, 34)
    seed = path_greedy(X, 1.1)
    out, reports = greedy_prune(X, 0.1, 0, seed_spanner=seed)
    assert out.edge_set() == seed.edge_set()
    assert reports == []


@pytest.mark.parametrize("k", [0, 1])
def test_greedy_prune_rejects_unknown_backend_up_front(k, monkeypatch):
    def no_seed(*args, **kwargs):
        raise AssertionError("seed built before the backend was checked")

    monkeypatch.setattr("spanner_forge.prune.path_greedy", no_seed)
    X = random_points(40, 2, 34)
    with pytest.raises(PruneError, match="bogus"):
        greedy_prune(X, 0.1, k, dist_backend="bogus")


@pytest.mark.parametrize("k, params, match", [
    (-1, None, "nonnegative"),
    (1, PruneParams(eps=0.2), "params.eps disagrees"),
])
def test_greedy_prune_rejects_bad_rounds_and_params(k, params, match):
    with pytest.raises(PruneError, match=match):
        greedy_prune(random_points(40, 2, 34), 0.1, k, params=params)


def test_greedy_prune_builds_distances_once(monkeypatch):
    # classification and phase 1 of both rounds share one matrix
    builds, reads = [], []
    original = PointSet.distances

    def spy(self):
        (builds if self._dist is None else reads).append(self)
        return original(self)

    monkeypatch.setattr(PointSet, "distances", spy)
    X = random_points(60, 2, 36)
    greedy_prune(X, 0.1, 2)
    assert builds == [X]
    assert len(reads) >= 3


def test_greedy_prune_deterministic():
    X = random_points(80, 2, 35)
    out1, _ = greedy_prune(X, 0.1, 1)
    out2, _ = greedy_prune(X, 0.1, 1)
    assert out1.edge_set() == out2.edge_set()


def test_greedy_prune_sparsity_lb_small_eps_reduces():
    # in the regime where the side rows are populated, one substitute
    # per row wipes out the k^2 cross edges
    eps = 2.5e-5
    inst = gen_sparsity_lb(eps)
    X = normalize(inst.points)
    seed = path_greedy(X, 1 + eps)
    out, reports = greedy_prune(X, eps, 1, seed_spanner=seed)
    assert len(out.edges) < len(seed.edges)
    k = inst.meta["k"]
    assert len(out.edges) <= len(seed.edges) - (k * k - 4 * k)
    print(f"sparsity-lb eps={eps}: greedy {len(seed.edges)} -> pruned {len(out.edges)}")
    ms, _ = verify_stretch(out, X)
    kap = 10.0
    assert ms <= 1 + (kap + 1) ** 2 * eps + 1e-9
    assert all(reconciles(r) for r in reports)


def test_greedy_prune_sparsity_lb_desk_eps():
    eps = 0.02
    inst = gen_sparsity_lb(eps)
    X = normalize(inst.points)
    seed = path_greedy(X, 1 + eps)
    out, reports = greedy_prune(X, eps, 1, seed_spanner=seed)
    assert len(out.edges) <= len(seed.edges)
    ms, _ = verify_stretch(out, X)
    assert ms <= 1 + 50 * eps + 1e-9
    print(f"sparsity-lb eps=0.02 ratio |E_out|/|E_greedy| = {len(out.edges)}/{len(seed.edges)}")


def test_greedy_prune_clusters_backend():
    # the keyword only warns: on the relaxed arc, whose type-2 edges phase
    # 2 decides, under the identity and two relabelings, the call returns
    # what the call without it returns
    eps = 0.025
    arc = normalize(gen_lightness_lb_x(eps, 2).points)
    for relabel in (None, 1, 2):
        X = arc
        if relabel is not None:
            X = PointSet(arc.coords[np.random.default_rng(relabel).permutation(arc.n)])
        want, want_reports = greedy_prune(X, eps, 1)
        with pytest.warns(DeprecationWarning, match="dist_backend"):
            got, reports = greedy_prune(X, eps, 1, dist_backend="clusters")
        assert want_reports[1].type2_total > 0
        for col in ("u", "v", "w"):
            assert getattr(got, col).tolist() == getattr(want, col).tolist()
        assert got.meta == want.meta
        assert [r.__dict__ for r in reports] == [r.__dict__ for r in want_reports]
        assert got.is_connected() and all(reconciles(r) for r in reports)
        assert verify_stretch(got, X)[0] <= 1 + delta_growth(10.0, eps) + 1e-9


def test_greedy_prune_refuses_rounds_whose_parameters_overflow(monkeypatch):
    # at eps=0.1 and kappa 10 delta passes 1e231 in round 6, and round 7's
    # update overflows: six rounds run, and seven are refused before the
    # seed is built
    X = normalize(gen_random(60, 2, "uniform", 1).points)
    out, reports = greedy_prune(X, 0.1, 6)
    assert [r.iteration for r in reports] == [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    assert out.is_connected()

    def no_seed(*args, **kwargs):
        raise AssertionError("seed built before the rounds' parameters were checked")

    monkeypatch.setattr("spanner_forge.prune.path_greedy", no_seed)
    with pytest.raises(PruneError, match="round 7 are not finite"):
        greedy_prune(X, 0.1, 7)


def test_greedy_prune_requires_normalized():
    X = PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [7.0, 0.0]]))
    with pytest.raises(PruneError):
        greedy_prune(X, 0.1, 1)


@pytest.mark.xfail(strict=True, raises=PruneError,
                   reason="phase 1 accepts covers whose legs have no surviving path (ROADMAP item 1)")
def test_greedy_prune_motivating_stays_connected():
    # the pruned spanner of the motivating instance loses connectivity;
    # once phase 1 checks its legs this passes, and the marker must go
    out, _ = greedy_prune(normalize(gen_motivating(0.1).points), 0.1, 1)
    assert out.is_connected()


def test_greedy_prune_output_connected_and_bounded():
    X = random_points(200, 2, 36)
    out, reports = greedy_prune(X, 0.1, 2)
    assert out.is_connected()
    ms, _ = verify_stretch(out, X)
    # final guarantee: one update step past the last iteration's entry delta
    delta = 0.1
    for _ in range(2):
        delta = delta_growth(10.0, delta)
    assert ms <= 1 + delta + 1e-9
    assert all(reconciles(r) for r in reports)


def test_level_buckets_partition_old_edges():
    from spanner_forge.prune import _buckets

    X = random_points(60, 2, 37)
    E = path_greedy(X, 1.2)
    bucket, power = _buckets(E.w)
    for j, p, w in zip(bucket.tolist(), power.tolist(), E.w.tolist()):
        assert p == BETA**j <= w < BETA ** (j + 1)
    assert [len(a) for a in _buckets(np.zeros(0))] == [0, 0]


def test_buckets_match_scalar_rule_at_bucket_edges():
    # BETA**j and its float neighbours on both sides, for every bucket the
    # benchmark's normalized instances reach (spreads up to about 2.4e4)
    from spanner_forge.prune import _buckets

    edges = np.array([BETA**j for j in range(1100)])
    w = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    bucket, power = _buckets(w)
    want = [_bucket(x, BETA) for x in w.tolist()]
    assert bucket.tolist() == want
    assert power.tolist() == [BETA**j for j in want]


def test_phase1_candidate_map_matches_brute_force():
    # independent recomputation of |P_{x,y}| from the definition
    from spanner_forge.prune import _candidate_triples

    X = random_points(40, 2, 38)
    E = path_greedy(X, 1.3)
    eps = 0.3
    beta = 1.01
    t1, _ = pair_sets(classify_edges(X, E, eps), X.n)
    buckets = {}
    weights = {(u, v): w for u, v, w in E.edges}
    for (u, v), w in weights.items():
        if (u, v) in t1:
            buckets.setdefault(_bucket(w, beta), []).append((u, v))
    j = max(buckets, key=lambda b: len(buckets[b]))
    live = buckets[j]
    min_len = beta**j / 25.0
    s, t = np.array(live).T
    w = np.array([weights[p] for p in live])
    triples = _candidate_triples(
        X.distances(), s, t, w, np.full(len(live), min_len), 1.0 + eps
    )
    cand = {}
    for x, y, e in zip(*(a.tolist() for a in triples)):
        cand.setdefault((x, y), set()).add(live[e])
    c = X.coords
    for x in range(X.n):
        for y in range(x + 1, X.n):
            dxy = point_dist(X, x, y)
            expected = set()
            if dxy >= min_len * (1 - 1e-12):
                for (s, t) in live:
                    w = weights[(s, t)]
                    budget = (1 + eps) * w * (1 + 1e-12)
                    a = point_dist(X, s, x) + dxy + point_dist(X, y, t)
                    b = point_dist(X, s, y) + dxy + point_dist(X, x, t)
                    if min(a, b) <= budget:
                        expected.add((s, t))
            got = cand.get((x, y), set())
            assert got == expected, (x, y)


def test_candidate_triples_empty():
    from spanner_forge.prune import _candidate_triples

    X = random_points(10, 2, 39)
    none = np.zeros(0, dtype=np.int64)
    triples = _candidate_triples(X.distances(), none, none, np.zeros(0), np.zeros(0), 1.1)
    assert [len(a) for a in triples] == [0, 0, 0]
    assert all(a.dtype.kind == "i" for a in triples)


def test_greedy_prune_lightness_lb_weight_reduction():
    # the whole point of the pipeline on the arc instance: the pile of
    # near-diametral greedy edges is type-2 and phase 2 drops it, since
    # the along-arc path preserves those chords well within the relaxed
    # threshold
    from spanner_forge.instances import gen_lightness_lb

    eps = 0.01
    inst = gen_lightness_lb(eps)
    X = normalize(inst.points)
    seed = path_greedy(X, 1 + eps)
    W = SpannerGraph.from_pairs(X, inst.witness_pairs)
    out, reports = greedy_prune(X, eps, 1, seed_spanner=seed)
    assert out.weight() < 0.15 * seed.weight()
    assert out.weight() < W.weight()  # relaxed stretch buys a lighter graph
    ms, _ = verify_stretch(out, X)
    kap = 10.0
    assert ms <= 1 + delta_growth(kap, eps) + 1e-9
    print(
        f"lightness-lb weight: greedy {seed.weight():.0f} -> pruned "
        f"{out.weight():.0f} (witness {W.weight():.0f}), stretch {ms:.4f}"
    )


# Reference implementations of classification and phase 1 as they were
# before the distance-matrix lookups, the skipped rebuilds, the cover
# heap, the classification filter and the array passes: a norm per point
# and edge, region_codes for every edge, a bucket per edge, candidates
# rebuilt for every bucket in every sub-iteration, and a scan of every
# candidate for each pick.
def _bucket(w, beta):
    j = int(math.floor(math.log(w) / math.log(beta) + 1e-9))
    while w < beta**j:
        j -= 1
    while w >= beta ** (j + 1):
        j += 1
    return j


def _reference_classify(X, E, eps):
    type1, type2 = set(), set()
    coords = X.coords
    for u, v, _ in E.edges:
        codes = region_codes(coords[u], coords[v], coords, eps)
        if (codes == Region.IN_A.value).any() and (codes == Region.IN_B.value).any():
            type2.add((u, v))
        else:
            type1.add((u, v))
    return type1, type2


def _reference_candidates(coords, live_edges, weights, min_len, factor):
    cand = {}
    for (s, t) in live_edges:
        w = weights[(s, t)]
        budget = factor * w * (1.0 + 1e-12)
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
        ok = (pd >= min_len * (1.0 - 1e-12)) & (
            (dsi[:, None] + pd + dti[None, :] <= budget)
            | (dti[:, None] + pd + dsi[None, :] <= budget)
        )
        ii, jj = np.nonzero(np.triu(ok | ok.T, k=1))
        for a, b in zip(inside[ii], inside[jj]):
            key = (int(a), int(b)) if a < b else (int(b), int(a))
            cand.setdefault(key, set()).add((s, t))
    return cand


def _reference_phase1(X, E, params, classification):
    type1, _ = classification
    eps = params.eps
    factor = 1.0 + eps
    kappa = params.kappa
    alpha = params.alpha_value(X.dim)
    coords = X.coords
    weights = {(u, v): w for u, v, w in E.edges}
    buckets = {}
    for (u, v), w in weights.items():
        buckets.setdefault(_bucket(w, BETA), []).append((u, v))
    report = PhaseReport(phase=1)
    for j, lst in buckets.items():
        t1 = sum(1 for p in lst if p in type1)
        report.levels[j] = {"edges": len(lst), "type1": t1, "pruned": 0, "kept": t1}
    live = set(type1)
    new_pairs = set()
    pruned = set()
    n_sub = max(1, math.ceil(math.log2(max(alpha, 2.0))))
    for i in range(1, n_sub + 1):
        thr = alpha / (2.0**i * kappa)
        for j in sorted(buckets):
            live_j = [p for p in buckets[j] if p in live]
            if not live_j or len(live_j) < thr:
                continue
            min_len = BETA**j / 25.0
            cand = _reference_candidates(coords, live_j, weights, min_len, factor)
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
                live.discard(best_key)
                report.substitutes_added += 1
                # the genuine-substitution counter is the one addition
                report.genuine_substitutes += any(p != best_key for p in best_cov)
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


# (point set, eps); each is pruned from its path-greedy (1+eps)-spanner.
# The 6x6x6 grid runs at eps=0.2: at 0.1 the reference alone takes 7 s.
PHASE1_INPUTS = {
    "uniform3": (lambda: normalize(gen_random(120, 3, "uniform", 1).points), 0.1),
    "clustered2": (lambda: normalize(gen_random(200, 2, "clustered", 1).points), 0.1),
    # covers shrink under the best pair here: taking a stale heap size
    # for the current one picks another pair at kappa = 1e4
    "clustered2-small": (lambda: normalize(gen_random(80, 2, "clustered", 0).points), 0.3),
    "grid2": (lambda: int_grid(15, 2), 0.1),
    "grid3": (lambda: int_grid(6, 3), 0.2),
    "line": (lambda: PointSet(np.arange(60.0)[:, None]), 0.1),
    "motivating": (lambda: normalize(gen_motivating(0.05).points), 0.05),
    "rectangle": (lambda: normalize(gen_sparsity_lb_x(1e-3, 2).points), 1e-3),
    "arc": (lambda: normalize(gen_lightness_lb_x(0.025, 2).points), 0.025),
}

# The default kappa and the analysis constant.
KAPPAS = [{"kappa": 10.0}, {"kappa": 1e4}]


def _assert_phase1_matches_reference(name, param_sets, relabel=None, by_pair=False):
    # relabel: the seed of a row permutation of the input points;
    # by_pair: list the seed's edges in (u, v) order, not greedy's weight order
    make, eps = PHASE1_INPUTS[name]
    X = make()
    if relabel is not None:
        X = PointSet(X.coords[np.random.default_rng(relabel).permutation(X.n)])
    E = path_greedy(X, 1.0 + eps)
    if by_pair:
        o = np.lexsort((E.v, E.u))
        E = SpannerGraph.from_columns(X.n, E.u[o], E.v[o], E.w[o])
    cls = _reference_classify(X, E, eps)
    for kwargs in param_sets:
        params = PruneParams(eps=eps, **kwargs)
        got, got_rep = phase1(X, E, params, classify_edges(X, E, eps))
        want, want_rep = _reference_phase1(X, E, params, cls)
        assert got.edges == want.edges
        assert got.meta == want.meta
        assert got_rep.__dict__ == want_rep.__dict__
        # dict equality ignores order: the buckets in order of first edge
        assert list(got_rep.levels.items()) == list(want_rep.levels.items())


@pytest.mark.parametrize("name", sorted(PHASE1_INPUTS))
def test_phase1_matches_reference(name):
    _assert_phase1_matches_reference(name, KAPPAS)


@pytest.mark.parametrize("relabel", [1, 2, 3])
@pytest.mark.parametrize("name", ["arc", "clustered2-small"])
def test_phase1_matches_reference_relabeled(name, relabel):
    # ties between equal covers go to the smallest pair, so they follow
    # the point labels
    _assert_phase1_matches_reference(name, KAPPAS, relabel)


@pytest.mark.parametrize("name", ["arc", "clustered2-small"])
def test_phase1_matches_reference_seed_by_pair(name):
    # report.levels lists the buckets in the order of their first edge,
    # which a seed sorted by weight cannot tell from bucket order
    _assert_phase1_matches_reference(name, KAPPAS, by_pair=True)


@pytest.mark.parametrize("name", ["arc", "clustered2-small", "uniform3"])
def test_phase1_repeat_calls_agree(name):
    # no selection state survives a call
    make, eps = PHASE1_INPUTS[name]
    X = make()
    E = path_greedy(X, 1.0 + eps)
    for kwargs in KAPPAS:
        params = PruneParams(eps=eps, **kwargs)
        first, first_rep = phase1(X, E, params, classify_edges(X, E, eps))
        again, again_rep = phase1(X, E, params, classify_edges(X, E, eps))
        assert again.edges == first.edges
        assert again.meta == first.meta
        assert again_rep.__dict__ == first_rep.__dict__


@pytest.mark.parametrize("name", ["clustered2-small", "motivating"])
def test_phase1_matches_reference_integer_thresholds(name):
    # alpha=40, kappa=10 gives thresholds 2, 1, 0.5, ...: a bucket whose
    # best cover equals the threshold must still be rebuilt
    _assert_phase1_matches_reference(name, [{"alpha": 40.0}])


def test_phase1_pops_each_pick_once_on_the_relaxed_arc(monkeypatch):
    # a drained bucket is left at once: its remaining entries all have
    # cover 0, and popping them one by one was most of the heap work
    import spanner_forge.prune as prune

    pops = []
    heappop = prune.heapq.heappop
    monkeypatch.setattr(prune.heapq, "heappop", lambda h: pops.append(1) or heappop(h))
    eps = 0.025
    X = normalize(gen_lightness_lb_x(eps, 2).points)
    E = path_greedy(X, 1.0 + eps)
    _, report = phase1(X, E, PruneParams(eps=eps), classify_edges(X, E, eps))
    assert report.substitutes_added == 303
    assert len(pops) == 303


@pytest.mark.parametrize("name", sorted(PHASE1_INPUTS))
def test_candidate_triples_match_reference(name, monkeypatch):
    # a cap of 5 pairs per pass puts every edge with four or more points
    # in a pass of its own and splits mask chunks between passes
    import spanner_forge.prune as prune

    monkeypatch.setattr(prune, "_PASS_PAIRS", 5)
    monkeypatch.setattr(prune, "_MASK_EDGES", 16)
    make, eps = PHASE1_INPUTS[name]
    X = make()
    E = path_greedy(X, 1.0 + eps)
    type1, _ = pair_sets(classify_edges(X, E, eps), X.n)
    weights = {(u, v): w for u, v, w in E.edges}
    live = sorted(type1)
    bucket = [_bucket(weights[p], BETA) for p in live]
    s, t = np.array(live).T
    triples = prune._candidate_triples(
        X.distances(),
        s,
        t,
        np.array([weights[p] for p in live]),
        np.array([BETA**j / 25.0 for j in bucket]),
        1.0 + eps,
    )
    by_bucket = {}
    for j, p in zip(bucket, live):
        by_bucket.setdefault(j, []).append(p)
    got = {}
    for x, y, e in zip(*(a.tolist() for a in triples)):
        got.setdefault(bucket[e], {}).setdefault((x, y), set()).add(live[e])
    for j, edges in by_bucket.items():
        want = _reference_candidates(X.coords, edges, weights, BETA**j / 25.0, 1.0 + eps)
        assert got.get(j, {}) == want, j


# Reference phase 2 as it was before the edge columns: tuple dicts for
# the kept edges, a SpannerGraph rebuilt from their rows for every query,
# and the helper from region_codes and point_dist.
def _reference_helper(X, u, v, eps):
    codes = region_codes(X.coords[u], X.coords[v], X.coords, eps)
    a_pts = np.nonzero(codes == Region.IN_A.value)[0]
    b_pts = np.nonzero(codes == Region.IN_B.value)[0]
    if len(a_pts) == 0 or len(b_pts) == 0:
        raise InternalInconsistency(
            f"kept type-2 edge ({u},{v}) has an empty witness region"
        )
    pd = X.distances()[np.ix_(a_pts, b_pts)]
    best = pd.max()
    if best < 0.2 * point_dist(X, u, v):
        raise InternalInconsistency(f"short helper candidate for edge ({u},{v})")
    cands = []
    ii, jj = np.nonzero(pd >= best * (1.0 - 1e-12))
    for a, b in zip(a_pts[ii], b_pts[jj]):
        cands.append((int(a), int(b)) if a < b else (int(b), int(a)))
    return min(cands)


def _reference_phase2(X, E1, params, classification):
    _, type2 = classification
    new_pairs = set(map(tuple, E1.meta.get("new_pairs", [])))
    weights = dict(zip(zip(E1.u.tolist(), E1.v.tolist()), E1.w.tolist()))
    type2_old = sorted(
        (w, u, v)
        for (u, v), w in weights.items()
        if (u, v) in type2 and (u, v) not in new_pairs
    )
    kept_edges = {p: w for p, w in weights.items() if p not in type2 or p in new_pairs}
    report = PhaseReport(phase=2, type2_total=len(type2_old))
    added_pairs = set(new_pairs)
    thr_mult = 1.0 + params.kappa * params.kappa * params.delta_value
    csr = None

    def kept_graph(meta=None):
        return SpannerGraph(X.n, [(*p, w) for p, w in kept_edges.items()], meta=meta)

    for w, u, v in type2_old:
        limit = thr_mult * w * (1.0 + 1e-12)
        if csr is None:
            csr = kept_graph().as_csr()
        d = float(dijkstra(csr, indices=u, limit=limit)[v])
        if d <= limit:
            report.type2_dropped += 1
            report.measured_delta = max(report.measured_delta, d / w - 1.0)
            continue
        report.type2_kept += 1
        kept_edges[(u, v)] = w
        hk = _reference_helper(X, u, v, params.eps)
        if hk not in kept_edges:
            kept_edges[hk] = point_dist(X, *hk)
            report.helpers_added += 1
            added_pairs.add(hk)
        csr = None
    return kept_graph({"new_pairs": sorted(added_pairs)}), report


def _net_tree_phase2_input(X, eps):
    """Phase 2's input from the net-tree seed of X: phase 1's output and
    the seed's classification."""
    E = build_net_tree_spanner(build_hierarchy(X), eps)
    cls = classify_edges(X, E, eps)
    return phase1(X, E, PruneParams(eps=eps), classification=cls)[0], cls


def _arc_phase2_input():
    X = normalize(gen_lightness_lb_x(0.025, 2.0).points)
    E = path_greedy(X, 1.025)
    cls = classify_edges(X, E, 0.025)
    return X, phase1(X, E, PruneParams(eps=0.025), classification=cls)[0], cls, 0.025


def _biclique_phase2_input():
    X, meta = motivating_normalized(mid_x=(3.75, 6.25))
    E1 = biclique_seed(X, meta, middles=False)
    return X, E1, classify_edges(X, E1, 0.01), 0.01


def _uniform3_phase2_input():
    X = normalize(gen_random(120, 3, "uniform", 1).points)
    return X, *_net_tree_phase2_input(X, 0.1), 0.1


# name -> (the maker of (X, E1, classification, eps), the type-2 edges
# phase 2 scans)
PHASE2_INPUTS = {
    "arc": (_arc_phase2_input, 33),
    "biclique": (_biclique_phase2_input, None),
    "net-tree-uniform3": (_uniform3_phase2_input, 567),
}


def _assert_phase2_matches_reference(X, E1, cls, eps):
    params = PruneParams(eps=eps)
    got, got_rep = phase2(X, E1, params, cls)
    want, want_rep = _reference_phase2(X, E1, params, pair_sets(cls, X.n))
    for col in ("u", "v", "w"):
        assert getattr(got, col).tolist() == getattr(want, col).tolist()
    assert got.meta == want.meta
    assert got_rep.__dict__ == want_rep.__dict__
    return got_rep


@EXACT_QUERY
@pytest.mark.parametrize("name", sorted(PHASE2_INPUTS))
def test_phase2_matches_reference(name, query):
    make, type2_total = PHASE2_INPUTS[name]
    rep = _assert_phase2_matches_reference(*make())
    if type2_total is not None:
        assert rep.type2_total == type2_total
    if name == "arc":
        assert rep.type2_dropped == type2_total
    if name == "biclique":
        assert (rep.type2_kept, rep.helpers_added) == (1, 1)


def _clustered3_sparse():
    # at eps=0.9 its net-tree seed is phase 1's output with few type-2 edges
    return normalize(gen_random(60, 3, "clustered", 1).points)


@pytest.mark.parametrize("query, kept", [("exact", 4)])
def test_phase2_helper_that_is_an_old_type2_edge(query, kept):
    # the helper (3, 33) of the kept edge (21, 56) is an old type-2 edge
    # later in the scan: it keeps the place it took as a helper, and a
    # second keep gives it its E1 weight
    X = _clustered3_sparse()
    E1, cls = _net_tree_phase2_input(X, 0.9)
    assert _helper(X, 21, 56, 0.9)[:2] == (3, 33)
    assert {(21, 56), (3, 33)} <= pair_sets(cls, X.n)[1]
    assert (3, 33) not in E1.meta["new_pairs"]
    weight = dict(zip(zip(E1.u.tolist(), E1.v.tolist()), E1.w.tolist()))
    assert weight[(21, 56)] < weight[(3, 33)]
    rep = _assert_phase2_matches_reference(X, E1, cls, 0.9)
    assert (rep.type2_kept, rep.helpers_added) == (kept, kept - 1)


@EXACT_QUERY
def test_greedy_prune_rounds_match_reference_pipeline(query, monkeypatch):
    # round 2 reads round 1's output in its edge order.  The second round
    # disconnects this spanner (ROADMAP item 1), so each phase's output is
    # recorded as greedy_prune runs it and compared with the reference's.
    import spanner_forge.prune as prune

    rounds = []

    def record(phase):
        def run(*args, **kwargs):
            rounds.append(phase(*args, **kwargs))
            return rounds[-1]

        return run

    monkeypatch.setattr(prune, "phase1", record(prune.phase1))
    monkeypatch.setattr(prune, "phase2", record(prune.phase2))
    X, eps = _clustered3_sparse(), 0.9
    seed = build_net_tree_spanner(build_hierarchy(X), eps)
    with pytest.raises(PruneError, match="lost connectivity"):
        greedy_prune(X, eps, 2, seed_spanner=seed)
    params = PruneParams(eps=eps, alpha=PruneParams(eps=eps).alpha_value(X.dim))
    E, want = seed, []
    for it in (1, 2):
        cls = _reference_classify(X, E, eps)
        E1, r1 = _reference_phase1(X, E, params, cls)
        E, r2 = _reference_phase2(X, E1, params, cls)
        r1.iteration = r2.iteration = it
        want += [(E1, r1), (E, r2)]
        params = update_params(params)
    assert not E.is_connected()
    assert len(rounds) == len(want)
    for (got, got_rep), (ref, ref_rep) in zip(rounds, want):
        for col in ("u", "v", "w"):
            assert getattr(got, col).tolist() == getattr(ref, col).tolist()
        assert got.meta == ref.meta
        assert got_rep.__dict__ == ref_rep.__dict__


@pytest.mark.parametrize("n_seed", [40, 20])
@pytest.mark.parametrize("k", [0, 1])
def test_greedy_prune_rejects_seed_over_other_points(n_seed, k):
    X = random_points(30, 2, 34)
    seed = path_greedy(random_points(n_seed, 2, 34), 1.1)
    with pytest.raises(PruneError, match="sizes differ"):
        greedy_prune(X, 0.1, k, seed_spanner=seed)


# classification inputs beyond phase 1's: d=8, where numpy's sums go pairwise
CLASSIFY_INPUTS = {
    **PHASE1_INPUTS,
    "uniform8": (lambda: normalize(gen_random(80, 8, "uniform", 1).points), 0.3),
}


@pytest.mark.parametrize(
    "name", ["arc", "rectangle", "motivating", "grid2", "grid3", "line", "uniform3", "uniform8"]
)
def test_classify_filter_matches_region_codes(name, monkeypatch):
    # the batched region pass keeps region_codes' bits per edge, whatever
    # the chunk size: 5 edges per chunk puts chunk ends between the
    # edges that reach the pass
    import spanner_forge.prune as prune

    make, eps = CLASSIFY_INPUTS[name]
    X = make()
    cases = [(X, path_greedy(X, 1.0 + eps))]
    if name == "motivating":
        # middles inside the waist bands make the bi-clique type-2
        Xb, meta = motivating_normalized(eps, mid_x=(3.75, 6.25))
        cases.append((Xb, biclique_seed(Xb, meta)))
    if name in ("line", "uniform3", "uniform8"):
        # a dense seed with hundreds of type-2 edges
        cases.append((X, build_net_tree_spanner(build_hierarchy(X), eps)))
    for Xc, E in cases:
        want = _reference_classify(Xc, E, eps)
        for mask_edges in (prune._MASK_EDGES, 5):
            monkeypatch.setattr(prune, "_MASK_EDGES", mask_edges)
            assert pair_sets(classify_edges(Xc, E, eps), Xc.n) == want


def test_classify_four_points_type2():
    # the fewest points a type-2 edge can have: its endpoints and one
    # point in each waist region
    X = PointSet(np.array([[0.0, 0.0], [8.0, 0.0], [3.0, 0.0], [5.0, 0.0]]))
    E = SpannerGraph.from_pairs(X, [(0, 1), (0, 2), (2, 3)])
    # the codes u * n + v, in E's edge order
    type1, type2 = classify_edges(X, E, 0.1)
    assert type1.dtype == type2.dtype == np.int64
    assert (type1.tolist(), type2.tolist()) == ([0 * 4 + 2, 2 * 4 + 3], [0 * 4 + 1])


def test_genuine_substitutes_counter():
    X, meta = motivating_normalized()
    E = biclique_seed(X, meta)
    _, rep = phase1(X, E, PruneParams(eps=0.01), classify_edges(X, E, 0.01))
    assert rep.genuine_substitutes >= 1
    assert reconciles(rep)
    _, reports = greedy_prune(int_grid(6, 2), 0.1, 1)
    assert reports[0].substitutes_added == 110
    assert reports[0].genuine_substitutes == 0
    assert reconciles(reports[0])
    # more genuine substitutions than pruned edges cannot happen
    assert not reconciles(dataclasses.replace(rep, genuine_substitutes=rep.type1_pruned + 1))
