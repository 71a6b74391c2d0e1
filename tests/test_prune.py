import math

import numpy as np
import pytest

from spanner_forge.geom import PointSet, normalize
from spanner_forge.graph import SpannerGraph, path_greedy, shortest_dist, verify_stretch
from spanner_forge.instances import gen_lightness_lb_x, gen_motivating, gen_sparsity_lb
from spanner_forge.prune import (
    InternalInconsistency,
    PhaseReport,
    PruneParams,
    PruneError,
    classify_edges,
    delta_growth,
    greedy_prune,
    log_star,
    phase1,
    phase2,
    update_params,
)

from conftest import random_points


def motivating_normalized(eps=0.01, mid_x=(3.0, 7.0)):
    inst = gen_motivating(eps, mid_x=mid_x)
    return normalize(inst.points), inst.meta


def biclique_seed(X, meta):
    """Columns + middle connections + the full bi-clique."""
    xs, ys = meta["x_indices"], meta["y_indices"]
    zi, wi = meta["z_index"], meta["w_index"]
    pairs = set()
    for i in range(len(xs) - 1):
        pairs.add((xs[i], xs[i + 1]))
        pairs.add((ys[i], ys[i + 1]))
    pairs |= {(a, b) for a in xs for b in ys}
    pairs |= {(a, zi) for a in xs} | {(b, wi) for b in ys} | {(zi, wi)}
    return SpannerGraph.from_pairs(X, sorted(pairs))


def test_log_star():
    assert log_star(1.0) == 0
    assert log_star(2.0) == 1
    assert log_star(16.0) == 3
    assert log_star(65536.0) == 4


def test_params_validation():
    with pytest.raises(PruneError):
        PruneParams(eps=0.1, delta=0.05)
    with pytest.raises(PruneError):
        PruneParams(eps=0.1, kappa=1.0)
    with pytest.raises(PruneError):
        PruneParams(eps=0.1, iterations=0)
    p = PruneParams(eps=0.1)
    assert p.kappa_used == 10.0
    assert PruneParams(eps=0.1, constant_mode="theoretical").kappa_used == 1e4
    assert p.alpha_value(2) == pytest.approx(0.1**-4)


def test_params_theoretical_gate_warns():
    p = PruneParams(eps=0.1, constant_mode="theoretical")
    with pytest.warns(UserWarning):
        assert not p.check_parameter_gate(2)
    tiny = PruneParams(eps=1e-22, constant_mode="theoretical")
    assert tiny.check_parameter_gate(2)


def test_params_config_file(tmp_path):
    path = tmp_path / "prune.cfg"
    path.write_text(
        "eps = 0.05\nkappa = 5000\nconstant_mode = theoretical\niterations = 2\n"
        "# comment\nalpha = none\n"
    )
    p = PruneParams.from_config_file(path)
    assert p.eps == 0.05
    assert p.kappa == 5000
    assert p.constant_mode == "theoretical"
    assert p.iterations == 2
    assert p.alpha is None


def test_classify_two_point_instance():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    E = SpannerGraph.from_pairs(X, [(0, 1)])
    t1, t2 = classify_edges(X, E, 0.2)
    assert t1 == {(0, 1)} and t2 == set()


def test_classify_motivating_band_interior_middles():
    # middle points at fractions 0.375 / 0.625 lie inside the waist bands
    X, meta = motivating_normalized(mid_x=(3.75, 6.25))
    E = biclique_seed(X, meta)
    t1, t2 = classify_edges(X, E, 0.01)
    first = (meta["x_indices"][0], meta["y_indices"][0])
    assert first in t2
    # with the default middles at fractions 0.30 / 0.70 the bands are empty
    Xd, md = motivating_normalized(mid_x=(3.0, 7.0))
    Ed = biclique_seed(Xd, md)
    t1d, t2d = classify_edges(Xd, Ed, 0.01)
    assert (md["x_indices"][0], md["y_indices"][0]) in t1d


def test_phase1_no_type1_noop():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    E = SpannerGraph.from_pairs(X, [(0, 1), (1, 2)])
    params = PruneParams(eps=0.01, alpha=1e4)
    # force an empty type-1 set: everything treated as type-2
    E1, rep = phase1(X, E, params, classification=(set(), E.edge_set()))
    assert E1.edge_set() == E.edge_set()
    assert rep.substitutes_added == 0 and rep.type1_pruned == 0
    assert rep.reconciles()


def test_phase1_prunes_biclique():
    X, meta = motivating_normalized()
    E = biclique_seed(X, meta)
    params = PruneParams(eps=0.01)
    E1, rep = phase1(X, E, params)
    k1 = len(meta["x_indices"])
    assert rep.type1_pruned >= k1 * k1 - 1  # essentially the whole bi-clique
    assert len(E1.edges) < len(E.edges)
    assert rep.reconciles()
    # phase-1 stretch: every original endpoint pair stays within
    # (1+kappa*delta) of its length in E1
    bound = 1.0 + params.kappa_used * params.delta_value
    for u, v, w in E.edges:
        assert shortest_dist(E1, u, v, cutoff=bound * w * 2) <= bound * w * (1 + 1e-9)


def test_phase1_never_removes_type2_or_new():
    X = random_points(150, 2, 31)
    E = path_greedy(X, 1.15)
    params = PruneParams(eps=0.15)
    cls = classify_edges(X, E, 0.15)
    E1, rep = phase1(X, E, params, classification=cls)
    _, type2 = cls
    assert type2 <= E1.edge_set()
    assert set(map(tuple, E1.meta["new_pairs"])) <= E1.edge_set()
    assert rep.reconciles()


def test_phase2_noop_without_type2():
    X = random_points(30, 2, 32)
    E = path_greedy(X, 1.2)
    params = PruneParams(eps=0.2)
    cls = (E.edge_set(), set())
    E1, _ = phase1(X, E, params, classification=cls)
    E2, rep = phase2(X, E1, params, cls)
    assert E2.edge_set() == E1.edge_set()
    assert rep.type2_total == 0
    assert rep.reconciles()


def test_phase2_keep_drop_and_helper():
    # columns + bi-clique, middle points present but unconnected: the
    # first cross edge must be kept with helper (z, w); every later
    # cross edge is dropped through it
    X, meta = motivating_normalized(mid_x=(3.75, 6.25))
    xs, ys = meta["x_indices"], meta["y_indices"]
    zi, wi = meta["z_index"], meta["w_index"]
    pairs = set()
    for i in range(len(xs) - 1):
        pairs.add((xs[i], xs[i + 1]))
        pairs.add((ys[i], ys[i + 1]))
    pairs |= {(a, b) for a in xs for b in ys}
    E1 = SpannerGraph.from_pairs(X, sorted(pairs))
    params = PruneParams(eps=0.01)
    cls = classify_edges(X, E1, 0.01)
    _, type2 = cls
    assert {(a, b) for a in xs for b in ys} <= type2
    E2, rep = phase2(X, E1, params, cls)
    assert rep.type2_kept == 1
    assert rep.type2_dropped == len(xs) * len(ys) - 1
    assert rep.helpers_added == 1
    helper = (zi, wi) if zi < wi else (wi, zi)
    assert helper in E2.edge_set()
    assert rep.reconciles()
    # helper geometry: both endpoints between the waist bands keeps it long
    w_len = X.dist(zi, wi)
    first_len = X.dist(xs[0], ys[0])
    assert w_len >= 0.2 * first_len


def test_phase2_inconsistent_classification_raises():
    X = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]]))
    E1 = SpannerGraph.from_pairs(X, [(0, 1)])
    params = PruneParams(eps=0.01)
    # lie about (0,1) being type-2: its waist regions are empty
    with pytest.raises(InternalInconsistency):
        phase2(X, E1, params, (set(), {(0, 1)}))


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


def test_greedy_prune_zero_iterations_returns_seed():
    X = random_points(40, 2, 34)
    seed = path_greedy(X, 1.1)
    out, reports = greedy_prune(X, 0.1, 0, seed_spanner=seed)
    assert out.edge_set() == seed.edge_set()
    assert reports == []


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
    assert all(r.reconciles() for r in reports)


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
    # the relaxed arc gives the cluster-graph backend type-2 edges to
    # decide; random instances give it none
    eps = 0.025
    X = normalize(gen_lightness_lb_x(eps, 2).points)
    out, reports = greedy_prune(X, eps, 1, dist_backend="clusters")
    assert reports[1].type2_total > 0
    assert all(r.reconciles() for r in reports)
    assert out.is_connected()
    ms, _ = verify_stretch(out, X)
    assert ms <= 1 + delta_growth(10.0, eps) + 1e-9


def test_greedy_prune_requires_normalized():
    X = PointSet(np.array([[0.0, 0.0], [3.0, 0.0], [7.0, 0.0]]))
    with pytest.raises(PruneError):
        greedy_prune(X, 0.1, 1)


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
    assert all(r.reconciles() for r in reports)


def test_level_buckets_partition_old_edges():
    from spanner_forge.prune import _bucket

    X = random_points(60, 2, 37)
    E = path_greedy(X, 1.2)
    beta = 1.01
    for _, _, w in E.edges:
        j = _bucket(w, beta)
        assert beta**j <= w < beta ** (j + 1)


def test_phase1_candidate_map_matches_brute_force():
    # independent recomputation of |P_{x,y}| from the definition
    from spanner_forge.prune import _bucket, _exact_candidates

    X = random_points(40, 2, 38)
    E = path_greedy(X, 1.3)
    eps = 0.3
    beta = 1.01
    t1, _ = classify_edges(X, E, eps)
    buckets = {}
    weights = {(u, v): w for u, v, w in E.edges}
    for (u, v), w in weights.items():
        if (u, v) in t1:
            buckets.setdefault(_bucket(w, beta), []).append((u, v))
    j = max(buckets, key=lambda b: len(buckets[b]))
    live = buckets[j]
    min_len = beta**j / 25.0
    cand = _exact_candidates(X.coords, live, weights, min_len, 1.0 + eps)
    c = X.coords
    for x in range(X.n):
        for y in range(x + 1, X.n):
            dxy = X.dist(x, y)
            expected = set()
            if dxy >= min_len * (1 - 1e-12):
                for (s, t) in live:
                    w = weights[(s, t)]
                    budget = (1 + eps) * w * (1 + 1e-12)
                    a = X.dist(s, x) + dxy + X.dist(y, t)
                    b = X.dist(s, y) + dxy + X.dist(x, t)
                    if min(a, b) <= budget:
                        expected.add((s, t))
            got = cand.get((x, y), set())
            assert got == expected, (x, y)


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
