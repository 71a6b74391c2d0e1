import math

import numpy as np
import pytest

from spanner_forge.geom import normalize
from spanner_forge.graph import SpannerGraph, path_greedy, verify_stretch
from spanner_forge.instances import (
    ConstructionDegenerate,
    gen_lightness_lb,
    gen_lightness_lb_x,
    gen_motivating,
    gen_random,
    gen_sparsity_lb,
    gen_sparsity_lb_x,
    solve_arc_angle,
    tile_copies,
)

from conftest import point_dist, shortest_dist


def witness_graph(inst):
    return SpannerGraph.from_pairs(inst.points, inst.witness_pairs)


def ab_pairs(inst):
    return {(a, b) for a in inst.meta["a_indices"] for b in inst.meta["b_indices"]}


def test_generators_deterministic():
    for make in (
        lambda: gen_sparsity_lb(0.01),
        lambda: gen_sparsity_lb_x(0.01, 2.0),
        lambda: gen_lightness_lb(0.02),
        lambda: gen_lightness_lb_x(0.02, 2.0),
        lambda: gen_motivating(0.01),
        lambda: gen_random(50, 2, "uniform", 42),
        lambda: gen_random(50, 2, "clustered", 42),
    ):
        a, b = make(), make()
        assert np.array_equal(a.points.coords, b.points.coords)
        assert a.witness_pairs == b.witness_pairs


def test_sparsity_lb_diagonal_identity():
    for eps in (0.04, 0.02, 0.01):
        inst = gen_sparsity_lb(eps)
        c = inst.points.coords
        m = inst.meta
        a1, b1, ci = m["a_indices"][0], m["b_indices"][0], m["c_index"]
        total = np.linalg.norm(c[a1] - c[ci]) + np.linalg.norm(c[ci] - c[b1])
        assert total == pytest.approx(1.0 + eps, abs=1e-9)


def test_sparsity_lb_witness_and_greedy():
    for eps in (0.02, 4e-4):
        inst = gen_sparsity_lb(eps)
        W = witness_graph(inst)
        ms, _ = verify_stretch(W, inst.points)
        assert ms <= 1 + eps + 1e-9
        G = path_greedy(inst.points, 1 + eps)
        assert ab_pairs(inst) <= G.edge_set()


def test_sparsity_lb_k_scaling():
    eps = 1e-4
    k1 = gen_sparsity_lb(eps).meta["k"]
    k2 = gen_sparsity_lb(eps / 4).meta["k"]
    assert 1.6 <= k2 / k1 <= 2.4


def test_sparsity_lb_degenerate():
    with pytest.raises(ConstructionDegenerate):
        gen_sparsity_lb(0.2)


def test_sparsity_lb_x_leg_reduces_at_x1():
    eps = 0.01
    inst = gen_sparsity_lb_x(eps, 1.0)
    c = inst.points.coords
    m = inst.meta
    leg = np.linalg.norm(c[m["p_index"]] - c[m["c_index"]])
    assert leg == pytest.approx((1 + eps) ** 2 / 4, rel=1e-12)
    W = witness_graph(inst)
    ms, _ = verify_stretch(W, inst.points)
    assert ms <= 1 + eps + 1e-9


def test_sparsity_lb_x_greedy_contains_ab():
    for x in (1.0, 2.0, 4.0):
        inst = gen_sparsity_lb_x(0.01, x)
        G = path_greedy(inst.points, 1 + x * 0.01)
        assert ab_pairs(inst) <= G.edge_set()
        W = witness_graph(inst)
        ms, _ = verify_stretch(W, inst.points)
        assert ms <= 1.01 + 1e-9


def test_sparsity_lb_x_point_count_scaling():
    eps = 1e-5
    i1 = gen_sparsity_lb_x(eps, 1.0)
    i2 = gen_sparsity_lb_x(eps, 2.0)
    assert i1.points.n == 2 * i1.meta["k"] + 3
    ratio = i2.meta["k"] / i1.meta["k"]
    assert 0.8 * 2**-1.5 <= ratio <= 1.2 * 2**-1.5


def test_sparsity_lb_x_range_checks():
    with pytest.raises(ConstructionDegenerate):
        gen_sparsity_lb_x(0.01, 0.5)
    with pytest.raises(ConstructionDegenerate):
        gen_sparsity_lb_x(0.1, 3.0)


def test_arc_angle_root():
    for eps in (0.02, 0.01, 0.005):
        beta = solve_arc_angle(eps)
        assert abs(beta - (1 + eps) * 2 * math.sin(beta / 2)) <= 1e-12
        # the root tracks sqrt(24 eps); its gap to sqrt(48 eps) is
        # measured, not assumed
        assert beta == pytest.approx(math.sqrt(24 * eps / (1 + eps)), rel=5e-3)
        c = abs(beta - math.sqrt(48 * eps)) / eps
        print(f"eps={eps}: |beta - sqrt(48 eps)|/eps = {c:.1f}")


def test_lightness_lb_witness():
    eps = 0.01
    inst = gen_lightness_lb(eps)
    W = witness_graph(inst)
    assert W.weight() <= 2 * inst.meta["beta"] + 1e-9
    ms, _ = verify_stretch(W, inst.points)
    assert ms <= 1 + eps + 1e-9


def test_lightness_lb_greedy_heavy_edges():
    eps = 0.02
    inst = gen_lightness_lb(eps)
    G = path_greedy(inst.points, 1 + eps)
    chord = inst.meta["chord_p1p3"]
    heavy = [e for e in G.edges if e[2] >= chord * (1 - eps)]
    assert len(heavy) >= inst.meta["heavy_count_target"]


def test_lightness_lb_x_witness_verifies():
    inst = gen_lightness_lb_x(0.005, 2.0)
    W = witness_graph(inst)
    ms, _ = verify_stretch(W, inst.points)
    assert ms <= 1.005 + 1e-9
    print(
        f"lightness-lb-x(0.005, 2): witness weight {W.weight():.2f} "
        f"({inst.meta['chord_levels']} chord levels)"
    )


def test_lightness_lb_x_level_count_scaling():
    i2 = gen_lightness_lb_x(0.01, 2.0)
    i4 = gen_lightness_lb_x(0.01, 4.0)
    ratio = i4.meta["chord_levels"] / i2.meta["chord_levels"]
    expect = (4 * math.log(4)) / (2 * math.log(2))
    assert 0.5 * expect <= ratio <= 1.6 * expect


def test_lightness_lb_x_range_checks():
    with pytest.raises(ConstructionDegenerate):
        gen_lightness_lb_x(0.01, 1.0)
    with pytest.raises(ConstructionDegenerate):
        gen_lightness_lb_x(0.05, 2.0)


def test_motivating_counts():
    eps = 0.01
    inst = gen_motivating(eps)
    k = int(math.floor(eps**-0.5))
    assert inst.points.n == 2 * (k + 1) + 2
    assert len(inst.witness_pairs) == 2 * (k + 1) + 1
    bi_clique = (k + 1) ** 2
    assert len(inst.witness_pairs) < bi_clique


def test_motivating_witness_cross_pairs_good_within_columns_bad():
    eps = 0.01
    inst = gen_motivating(eps)
    X = inst.points
    W = witness_graph(inst)
    ms, _ = verify_stretch(W, X)
    c_measured = (ms - 1) / eps
    print(f"motivating witness overall stretch 1+{c_measured:.0f}*eps")
    assert not inst.meta["witness_is_full_spanner"]
    assert ms > 1 + eps  # the star is not a (1+eps)-spanner
    # cross column pairs, the pairs the construction is about, are tight
    for i in inst.meta["x_indices"][:3]:
        for j in inst.meta["y_indices"][:3]:
            d = shortest_dist(W, i, j)
            assert d <= (1 + eps) * point_dist(X, i, j)


def test_random_instances():
    inst = gen_random(2, 2, "uniform", 5)
    assert inst.points.n == 2
    a = gen_random(500, 2, "uniform", 42)
    b = gen_random(500, 2, "uniform", 42)
    assert np.array_equal(a.points.coords, b.points.coords)
    X = normalize(a.points)
    G = path_greedy(X, 1.2)
    ms, _ = verify_stretch(G, X)
    assert ms <= 1.2 + 1e-9


@pytest.mark.parametrize("call, match", [
    (lambda: gen_random(1, 2), "n >= 2"),
    (lambda: gen_random(10, 2, "bogus"), "unknown distribution 'bogus'"),
    (lambda: tile_copies(gen_sparsity_lb(0.02), 0), "m must be at least 1"),
], ids=["random-n1", "random-distribution", "tile-m0"])
def test_random_and_tiling_reject_bad_arguments(call, match):
    with pytest.raises(ConstructionDegenerate, match=match):
        call()


def test_tile_copies_identity_and_counts():
    inst = gen_sparsity_lb(0.02)
    assert tile_copies(inst, 1) is inst
    tiled = tile_copies(inst, 3)
    assert tiled.points.n == 3 * inst.points.n
    assert len(tiled.witness_pairs) == 3 * len(inst.witness_pairs) + 2


def test_tile_copies_preserves_ratio():
    inst = gen_sparsity_lb(0.02)
    G = path_greedy(inst.points, 1.02)
    W = witness_graph(inst)
    base = len(G.edges) / len(W.edges)
    tiled = tile_copies(inst, 3)
    Gt = path_greedy(tiled.points, 1.02)
    Wt = SpannerGraph.from_pairs(tiled.points, tiled.witness_pairs)
    ratio = len(Gt.edges) / len(Wt.edges)
    assert abs(ratio / base - 1) <= 0.1
    mst, _ = verify_stretch(Wt, tiled.points)
    print(f"tiled witness stretch: {mst:.4f}")


def test_tile_copies_greedy_one_bridge():
    inst = gen_sparsity_lb(0.02)
    tiled = tile_copies(inst, 2)
    G = path_greedy(tiled.points, 1.02)
    n = inst.points.n
    cross = [(u, v) for u, v in G.edge_set() if u < n <= v]
    assert len(cross) == 1


def test_tile_copies_random_without_diameter_meta():
    inst = gen_random(20, 2, "uniform", 8)
    tiled = tile_copies(inst, 2)
    assert tiled.points.n == 40
    assert tiled.witness_pairs is None
    # copies do not overlap
    xs = tiled.points.coords[:, 0]
    assert xs[20:].min() > xs[:20].max()
