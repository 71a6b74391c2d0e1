"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 2c (the ratio-slope assertion on the rectangle instances at
eps in {0.04, 0.02, 0.01}) is implemented faithfully and fails: the
construction pins k = floor(tan(alpha/10)/(2 eps)) + 1 = 1 point per
side at those eps, so the greedy/witness ratio is constant (5/8).  The
k ~ eps^(-1/2) growth the slope assertion expects only exists for
eps below roughly 4e-4, where the companion demonstration test shows
the separation with the exact same machinery.  See the criterion-2c
docstring for the geometric argument that no faithful variant can pass
at the stated eps.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from spanner_forge.geom import normalize
from spanner_forge.graph import (
    SpannerGraph,
    brute_force_optimal,
    path_greedy,
    verify_stretch,
)
from spanner_forge.instances import (
    gen_lightness_lb,
    gen_motivating,
    gen_random,
    gen_sparsity_lb,
    gen_sparsity_lb_x,
)
from spanner_forge.nets import (
    build_cluster_graph,
    build_hierarchy,
    build_net_tree_spanner,
    cluster_dist,
)
from spanner_forge.prune import PruneParams, delta_growth, greedy_prune

from conftest import (
    approximate_edge,
    check_invariants,
    lemma_sequence,
    low_angle_weight,
    point_dist,
    random_points,
    reconciles,
    shortest_dist,
)

def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def loglog_slope(inv_eps, values):
    return float(np.polyfit(np.log(inv_eps), np.log(values), 1)[0])


def test_criterion1_greedy_correctness():
    t0 = time.time()
    worst = 0.0
    cases = 0
    for d in (2, 3):
        for eps in (0.5, 0.1):
            for rep in range(5):
                X = random_points(200, d, seed=1000 + 17 * rep + d * 3 + int(eps * 10))
                G = path_greedy(X, 1 + eps)
                ms, _ = verify_stretch(G, X)
                assert ms <= 1 + eps + 1e-9
                worst = max(worst, ms - (1 + eps))
                cases += 1
    elapsed = time.time() - t0
    ok = cases == 20 and elapsed < 30.0
    assert report(1, ok, f"{cases} instances, worst overshoot {worst:.2e}, {elapsed:.1f}s")
    assert elapsed < 30.0


SPARSITY_EPS = (0.04, 0.02, 0.01)


def _sparsity_runs():
    runs = []
    for eps in SPARSITY_EPS:
        inst = gen_sparsity_lb(eps)
        X = inst.points
        W = SpannerGraph.from_pairs(X, inst.witness_pairs)
        G = path_greedy(X, 1 + eps)
        runs.append((eps, inst, X, W, G))
    return runs


def test_criterion2a_sparsity_witness_verifies():
    details = []
    ok = True
    for eps, inst, X, W, G in _sparsity_runs():
        ms, _ = verify_stretch(W, X)
        details.append(f"eps={eps}: {ms:.9f}")
        ok &= ms <= 1 + eps + 1e-9
    assert report("2a", ok, "; ".join(details))


def test_criterion2b_sparsity_greedy_contains_all_ab():
    ok = True
    details = []
    for eps, inst, X, W, G in _sparsity_runs():
        ab = {(a, b) for a in inst.meta["a_indices"] for b in inst.meta["b_indices"]}
        present = ab <= G.edge_set()
        details.append(f"eps={eps}: k^2={len(ab)} present={present}")
        ok &= present
    assert report("2b", ok, "; ".join(details))


def test_criterion2c_sparsity_ratio_slope():
    """Faithful implementation of criterion 2c; fails by construction.

    At eps in {0.04, 0.02, 0.01} the side rows hold k = 1 point (the
    diameter tan(alpha/10) ~ 0.14 sqrt(eps) is below the 2 eps spacing
    floor), so greedy builds the same 5-edge graph against the same
    8-edge witness and the ratio is constant.  No faithful variant can
    do better here: the all-pairs requirement (2b) forces spacing
    > eps, canonical-path blocking forces diameter < 0.21 sqrt(eps),
    hence k <= 1 + 0.21/sqrt(eps) <= 3 at eps = 0.01 while a 0.5 slope
    over a 4x range of 1/eps needs the ratio, about (k+4)/8, to double.
    """
    t0 = time.time()
    ratios = []
    for eps, inst, X, W, G in _sparsity_runs():
        ratios.append(len(G.edges) / len(W.edges))
    increasing = all(b > a for a, b in zip(ratios, ratios[1:]))
    slope = loglog_slope([1.0 / e for e in SPARSITY_EPS], ratios)
    ok = increasing and abs(slope - 0.5) <= 0.15 and time.time() - t0 < 300
    report("2c", ok, f"ratios={[round(r, 3) for r in ratios]}, slope={slope:.3f} (need 0.5 +- 0.15)")
    assert increasing, "ratio does not increase as eps decreases (k is pinned at 1)"
    assert abs(slope - 0.5) <= 0.15


def test_criterion2_slope_demonstration_small_eps():
    # the same assertions as 2b/2c, in the regime where the
    # construction is non-degenerate (k = 8, 15, 29)
    eps_list = (1e-4, 2.5e-5, 6.25e-6)
    ratios = []
    ks = []
    for eps in eps_list:
        inst = gen_sparsity_lb(eps)
        X = inst.points
        W = SpannerGraph.from_pairs(X, inst.witness_pairs)
        ws, _ = verify_stretch(W, X)
        assert ws <= 1 + eps + 1e-9
        G = path_greedy(X, 1 + eps)
        ab = {(a, b) for a in inst.meta["a_indices"] for b in inst.meta["b_indices"]}
        assert ab <= G.edge_set()
        ratios.append(len(G.edges) / len(W.edges))
        ks.append(inst.meta["k"])
    assert all(b > a for a, b in zip(ratios, ratios[1:]))
    slope = loglog_slope([1.0 / e for e in eps_list], ratios)
    ok = 0.3 <= slope <= 0.65
    assert report(
        "2c*", ok, f"small-eps regime k={ks}, ratios={[round(r, 2) for r in ratios]}, slope={slope:.3f}"
    )


def test_criterion3_relaxed_sparsity():
    t0 = time.time()
    eps = 0.01
    ok = True
    details = []
    for x in (1.0, 2.0, 4.0):
        inst = gen_sparsity_lb_x(eps, x)
        X = inst.points
        G = path_greedy(X, 1 + x * eps)
        ab = {(a, b) for a in inst.meta["a_indices"] for b in inst.meta["b_indices"]}
        W = SpannerGraph.from_pairs(X, inst.witness_pairs)
        ms, _ = verify_stretch(W, X)
        good = (ab <= G.edge_set()) and ms <= 1 + eps + 1e-9
        details.append(f"x={x:g}: k^2={len(ab)} ok={good}")
        ok &= good
    elapsed = time.time() - t0
    ok &= elapsed < 300
    assert report(3, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_criterion4_lightness_separation():
    t0 = time.time()
    eps_list = (0.02, 0.01, 0.005)
    ratios = []
    ok = True
    details = []
    for eps in eps_list:
        inst = gen_lightness_lb(eps)
        X = inst.points
        m = inst.meta
        W = SpannerGraph.from_pairs(X, inst.witness_pairs)
        good = W.weight() <= 2 * m["beta"] + 1e-9
        ws, _ = verify_stretch(W, X)
        good &= ws <= 1 + eps + 1e-9
        G = path_greedy(X, 1 + eps)
        heavy = sum(1 for e in G.edges if e[2] >= m["chord_p1p3"] * (1 - eps))
        target = int(math.floor(m["alpha"] / (2 * eps * m["beta"])))
        good &= heavy >= target
        ratios.append(G.weight() / W.weight())
        details.append(f"eps={eps}: heavy={heavy}>={target} ratio={ratios[-1]:.2f}")
        ok &= good
    slope = loglog_slope([1.0 / e for e in eps_list], ratios)
    ok &= abs(slope - 1.0) <= 0.2
    elapsed = time.time() - t0
    ok &= elapsed < 600
    assert report(4, ok, "; ".join(details) + f", slope={slope:.3f}, {elapsed:.0f}s")
    assert elapsed < 600


def _criterion5_cases():
    rnd = gen_random(500, 2, "uniform", 77)
    return [
        ("random-500", normalize(rnd.points), 0.1),
        ("motivating", normalize(gen_motivating(0.01).points), 0.01),
        ("sparsity-lb", normalize(gen_sparsity_lb(0.02).points), 0.02),
    ]


def test_criterion5_prune_validity():
    ok = True
    details = []
    for name, X, eps in _criterion5_cases():
        seed = path_greedy(X, 1 + eps)
        for k in (1, 2):
            params = PruneParams(eps=eps)
            out, reports = greedy_prune(X, eps, k, params=params, seed_spanner=seed)
            ms, _ = verify_stretch(out, X)
            bound = 1 + (params.kappa + 1) ** (2 * k) * eps
            good = ms <= bound + 1e-9 and all(reconciles(r) for r in reports)
            details.append(f"{name} k={k}: stretch={ms:.3f}<={bound:.3f} ok={good}")
            ok &= good
    assert report(5, ok, "; ".join(details))


def test_criterion6_prune_effectiveness_documented(tmp_path):
    eps = 0.01
    inst = gen_motivating(eps)
    X = normalize(inst.points)
    seed = path_greedy(X, 1 + eps)
    params = PruneParams(eps=eps)
    out, reports = greedy_prune(X, eps, 1, params=params, seed_spanner=seed)
    ms, _ = verify_stretch(out, X)
    ratio = len(out.edges) / len(seed.edges)
    target_met = ratio <= 0.25 and ms <= 1 + 10 * eps + 1e-9
    # fallback demanded by the criterion: criterion-5 validity plus a
    # written report of the shortfall
    bound5 = 1 + (params.kappa + 1) ** 2 * eps
    valid = ms <= bound5 + 1e-9 and all(reconciles(r) for r in reports)
    path = tmp_path / "criterion6_report.json"
    with open(path, "w") as fh:
        json.dump(
            {
                "instance": "motivating(0.01), greedy seed",
                "params": dataclasses.asdict(params),
                "greedy_edges": len(seed.edges),
                "pruned_edges": len(out.edges),
                "edge_ratio": ratio,
                "target_ratio": 0.25,
                "target_met": target_met,
                "max_stretch": ms,
                "note": (
                    "greedy on this instance is already near-optimal "
                    "(the bi-clique of the motivating discussion is what a "
                    "bad spanner would build, not what path-greedy builds), "
                    "so the 25% target cannot be met from a greedy seed; "
                    "with a bi-clique seed the pipeline prunes 164 edges "
                    "to 28 (see test_prune.py)"
                ),
            },
            fh,
            indent=2,
        )
    ok = target_met or valid
    assert report(
        6,
        ok,
        f"ratio={ratio:.2f} (target 0.25), stretch={ms:.4f}; "
        + ("target met" if target_met else "shortfall") + f", report in {path}",
    )


def _criterion7_runs():
    eps = 0.1
    runs = []
    for seed in range(50):
        n = 5 + seed % 5
        X = random_points(n, 2, seed=2000 + seed)
        G = path_greedy(X, 1 + eps)
        O = brute_force_optimal(X, eps)
        P, _ = greedy_prune(X, eps, 1)
        runs.append((X, G, O, P))
    return eps, runs


def test_criterion7a_oracle_vs_greedy():
    t0 = time.time()
    eps, runs = _criterion7_runs()
    ok = True
    for X, G, O, P in runs:
        mo, _ = verify_stretch(O, X)
        mg, _ = verify_stretch(G, X)
        ok &= len(O.edges) <= len(G.edges)
        ok &= mo <= 1 + eps + 1e-9 and mg <= 1 + eps + 1e-9
    assert report("7a", ok, f"oracle <= greedy and both verify on 50 instances, {time.time() - t0:.0f}s")


def test_criterion7b_prune_not_below_oracle():
    """Faithful implementation of criterion 7's third clause; fails.

    The pruned graph is a (1+Delta)-spanner with Delta > eps by design
    (phase 2 keeps an edge only when no path within (1+kappa^2 delta)
    times its length exists), so it may legitimately use fewer edges
    than the exact (1+eps)-optimum; on a handful of seeds it does, by
    one or two edges.  The coherent part of the claim, that no
    (1+eps)-VERIFIED graph beats the oracle, holds and is asserted
    first.
    """
    eps, runs = _criterion7_runs()
    literal_ok = True
    below = []
    for X, G, O, P in runs:
        ms, _ = verify_stretch(P, X)
        if ms <= 1 + eps + 1e-9:
            # comparable: the oracle's minimality must hold
            assert len(P.edges) >= len(O.edges)
        if len(P.edges) < len(O.edges):
            literal_ok = False
            below.append((X.n, len(P.edges), len(O.edges)))
    report(
        "7b",
        literal_ok,
        f"prune >= oracle on {50 - len(below)}/50; below-oracle cases "
        f"(n, pruned, oracle): {below} are all relaxed-stretch outputs",
    )
    assert literal_ok, (
        "pruned (1+Delta)-spanners may undercut the (1+eps)-optimal size; "
        "see the decisions ledger"
    )


def test_criterion8_net_structures():
    ok = True
    details = []
    # exhaustive hierarchy invariants at n = 1000
    X = random_points(1000, 2, seed=3000)
    H = build_hierarchy(X)
    try:
        check_invariants(H)
        details.append("hierarchy(n=1000) invariants hold")
    except Exception as exc:  # pragma: no cover
        ok = False
        details.append(f"hierarchy: {exc}")
    # net-tree spanner stretch on 10 random instances
    for eps in (0.5, 0.25):
        for rep in range(5):
            Y = random_points(100, 2, seed=3100 + rep + int(eps * 100))
            G = build_net_tree_spanner(build_hierarchy(Y), eps)
            ms, _ = verify_stretch(G, Y)
            ok &= ms <= 1 + eps + 1e-9
    details.append("net-tree stretch ok on 10 instances")
    # approximate edge displacement on 500 sampled pairs
    eps = 0.25
    Z = random_points(200, 2, seed=3200)
    HZ = build_hierarchy(Z)
    GZ = build_net_tree_spanner(HZ, eps)
    rng = np.random.default_rng(3300)
    count = 0
    while count < 500:
        u, v = (int(a) for a in rng.integers(0, Z.n, 2))
        if u == v:
            continue
        a, b, _ = approximate_edge(HZ, GZ, u, v)
        d = point_dist(Z, u, v)
        ok &= np.linalg.norm(Z.coords[a] - Z.coords[u]) <= eps * d + 1e-12
        ok &= np.linalg.norm(Z.coords[b] - Z.coords[v]) <= eps * d + 1e-12
        count += 1
    details.append("500 approximate-edge displacements within eps|uv|")
    assert report(8, ok, "; ".join(details))


def test_criterion9_cluster_oracle_sandwich():
    t0 = time.time()
    eps = 0.2
    ok = True
    worst = 1.0
    total_pairs = 0
    for rep in range(10):
        n = 250 + 25 * rep
        X = random_points(n, 2, seed=4000 + rep)
        S = path_greedy(X, 1 + eps)
        rng = np.random.default_rng(4100 + rep)
        sample = [
            point_dist(X, int(a), int(b))
            for a, b in rng.integers(0, X.n, (80, 2))
            if a != b
        ]
        i = int(math.floor(math.log2(np.median(sample))))
        scale = 2.0**i
        below = [(u, v, w) for u, v, w in S.edges if w < scale]
        GB = SpannerGraph(X.n, below)
        F = build_cluster_graph(GB, i, eps)
        Fc = build_cluster_graph(GB, i, eps, contract=True)
        slack = scale * eps * eps
        pairs = 0
        for _ in range(3000):
            if pairs >= 200:
                break
            u, v = (int(z) for z in rng.integers(0, X.n, 2))
            if u == v:
                continue
            d_eu = point_dist(X, u, v)
            if not scale <= d_eu < 2 * scale:
                continue
            exact = shortest_dist(GB, u, v)
            if math.isinf(exact):
                continue
            cd = cluster_dist(F, u, v)
            ok &= cd >= exact * (1 - 1e-9)
            ok &= cd <= exact * (1 + 10 * eps) * (1 + 1e-9)
            worst = max(worst, cd / exact)
            cdc = cluster_dist(Fc, u, v)
            ok &= abs(cdc - cd) <= slack + 1e-9
            pairs += 1
        total_pairs += pairs
    assert report(
        9,
        ok,
        f"{total_pairs} pairs over 10 spanners, worst factor {worst:.3f} "
        f"(cap {1 + 10 * eps}), {time.time() - t0:.0f}s",
    )


def test_criterion10_lemma_and_update_suite():
    rng = np.random.default_rng(5000)
    failures = 0
    for _ in range(1000):
        eps = float(rng.uniform(0.002, 0.4))
        edges, a, b = lemma_sequence(rng, eps)
        if low_angle_weight(edges, a, b, 2 * math.sqrt(eps)) < 0.5:
            failures += 1
    ok = failures == 0
    for _ in range(1000):
        kappa = float(rng.uniform(2.0, 1e4))
        delta = float(rng.uniform(1e-3, 1.0)) * kappa**-5
        ok &= delta_growth(kappa, delta) < (kappa + 1) ** 2 * delta
    assert report(10, ok, f"lemma failures={failures}/1000; update bound held on 1000 samples")
