"""The exact oracle against the branch-and-bound it replaced.

``reference_brute_force_optimal`` is ``graph.brute_force_optimal`` as it
was before the disjoint-pair lower bound, kept here with the same search
counters.  The two must return the same edges, in the same order, for
both objectives, including on inputs where lexicographic ties decide.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spanner_forge import graph
from spanner_forge.geom import PointSet, normalize
from spanner_forge.graph import (
    GREEDY_RTOL,
    ORACLE_N_MAX,
    GraphError,
    SpannerGraph,
    TooLarge,
    _apsp_small,
    brute_force_optimal,
    path_greedy,
    verify_stretch,
)
from spanner_forge.instances import gen_motivating, gen_random, gen_sparsity_lb

from conftest import int_grid


def reference_brute_force_optimal(
    X: PointSet,
    eps: float,
    objective: str = "min_edges",
) -> SpannerGraph:
    """The branch-and-bound oracle before the disjoint-pair bound: it prunes
    only on components and on one missing edge, and keeps no distances of
    the available graph.  Counts ``nodes`` and ``feasibility_checks`` as
    :func:`brute_force_optimal` does."""
    n = X.n
    if n > ORACLE_N_MAX:
        raise TooLarge(f"n={n} exceeds oracle limit {ORACLE_N_MAX}")
    if objective not in ("min_edges", "min_weight"):
        raise GraphError(f"unknown objective {objective!r}")
    t = 1.0 + eps
    wmat = X.distances()
    target = t * wmat * (1.0 + GREEDY_RTOL)
    np.fill_diagonal(target, np.inf)

    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # branch on long pairs first; excluding them early fails fast
    pairs.sort(key=lambda p: (-wmat[p], p))

    greedy = path_greedy(X, t)
    best_set = sorted(greedy.edge_set())
    if objective == "min_edges":
        best_cost = len(best_set)
    else:
        best_cost = float(sum(wmat[p] for p in best_set))

    nodes = checks = 0

    def feasible_mask(mask: np.ndarray) -> bool:
        nonlocal checks
        checks += 1
        d = _apsp_small(n, wmat, mask)
        return bool(np.all(d <= target))

    full = np.zeros((n, n), dtype=bool)
    for u, v in pairs:
        full[u, v] = full[v, u] = True
    if not feasible_mask(full):
        raise GraphError("complete graph is not a (1+eps)-spanner (numerical)")

    # every feasible subset contains the edges whose lone removal breaks
    # the complete graph
    forced = []
    free = []
    for u, v in pairs:
        full[u, v] = full[v, u] = False
        if feasible_mask(full):
            free.append((u, v))
        else:
            forced.append((u, v))
        full[u, v] = full[v, u] = True
    m = len(free)

    d0 = np.full((n, n), np.inf)
    np.fill_diagonal(d0, 0.0)
    chosen = list(forced)
    cost0 = len(forced) if objective == "min_edges" else float(
        sum(wmat[p] for p in forced)
    )
    for u, v in forced:
        via = np.add.outer(d0[:, u], d0[v, :]) + wmat[u, v]
        np.minimum(d0, via, out=d0)
        np.minimum(d0, via.T, out=d0)

    min_free_w = min((wmat[p] for p in free), default=0.0)

    def lower_bound(cost, d):
        # connectivity: each missing component costs at least one edge
        finite = np.isfinite(d)
        comps = len({int(row.argmax()) for row in finite})
        need = comps - 1
        if need == 0 and not bool(np.all(d <= target)):
            need = 1
        if objective == "min_edges":
            return cost + need
        return cost + need * min_free_w

    def rec(idx: int, d: np.ndarray, avail_mask: np.ndarray, cost):
        nonlocal best_cost, best_set, nodes
        nodes += 1
        eps_cmp = 1e-12 * abs(best_cost)
        if lower_bound(cost, d) > best_cost + eps_cmp:
            return
        if bool(np.all(d <= target)):
            cset = sorted(chosen)
            if cost < best_cost - eps_cmp or (
                abs(cost - best_cost) <= eps_cmp and cset < best_set
            ):
                best_cost, best_set = cost, cset
            return  # supersets only cost more
        if idx == m:
            return
        u, v = free[idx]
        step = 1 if objective == "min_edges" else float(wmat[u, v])
        # exclude first (steers toward sparse solutions); viable only if
        # what remains can still span
        avail_mask[u, v] = avail_mask[v, u] = False
        can_exclude = feasible_mask(avail_mask)
        if can_exclude:
            rec(idx + 1, d, avail_mask, cost)
        avail_mask[u, v] = avail_mask[v, u] = True
        via = np.add.outer(d[:, u], d[v, :]) + wmat[u, v]
        d2 = np.minimum(d, via)
        np.minimum(d2, via.T, out=d2)
        chosen.append((u, v))
        rec(idx + 1, d2, avail_mask, cost + step)
        chosen.pop()

    rec(0, d0, full.copy(), cost0)
    meta = {"builder": "oracle", "objective": objective, "eps": eps}
    meta.update(nodes=nodes, feasibility_checks=checks)
    return SpannerGraph.from_pairs(X, best_set, meta=meta)


def random2(n, seed):
    return normalize(gen_random(n, 2, "uniform", seed).points)


# one seed per (n, eps) on which the reference takes at most about 0.2 s
RANDOM = [
    (5, 0.1, 0), (5, 0.2, 0), (5, 0.5, 4),
    (6, 0.1, 0), (6, 0.2, 2), (6, 0.5, 1),
    (7, 0.1, 0), (7, 0.2, 0), (7, 0.5, 3),
    (8, 0.1, 1), (8, 0.2, 0), (8, 0.5, 4),
    (9, 0.1, 1), (9, 0.2, 2), (9, 0.5, 0),
    (10, 0.1, 1), (10, 0.2, 2), (10, 0.5, 0),
]

CASES = [
    (f"random-n{n}-eps{eps}-s{s}", lambda n=n, s=s: random2(n, s), eps) for n, eps, s in RANDOM
]
CASES += [
    ("motivating-0.1", lambda: normalize(gen_motivating(0.1).points), 0.1),
    ("sparsity-lb-0.01", lambda: normalize(gen_sparsity_lb(0.01).points), 0.01),
    ("square", lambda: PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])), 0.5),
    ("grid-3x3", lambda: int_grid(3, 2), 1.0),
    ("grid-2x2x2", lambda: int_grid(2, 3), 0.5),
    ("line", lambda: PointSet(np.array([0.0, 1, 3, 4, 7, 8, 10, 13])[:, None]), 0.2),
    ("random-d3-n8", lambda: normalize(gen_random(8, 3, "uniform", 1).points), 0.5),
]


@pytest.mark.parametrize("make, eps", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
@pytest.mark.parametrize("objective", ["min_edges", "min_weight"])
def test_oracle_matches_reference(make, eps, objective):
    X = make()
    got = brute_force_optimal(X, eps, objective)
    want = reference_brute_force_optimal(X, eps, objective)
    assert got.edges == want.edges


def test_oracle_counts_its_search():
    X = random2(10, 9)
    got = brute_force_optimal(X, 0.2)
    want = reference_brute_force_optimal(X, 0.2)
    assert got.edges == want.edges
    assert 1 <= got.meta["nodes"] <= want.meta["nodes"] / 5
    # the root check plus one exclude check per node that branches; each
    # branching node also has an include child, so there are at most nodes
    assert 1 <= got.meta["feasibility_checks"] <= got.meta["nodes"]
    assert got.meta["feasibility_checks"] < want.meta["feasibility_checks"]


# (nodes, feasibility_checks) per objective.  The bound decides which nodes
# are pruned, so a change to any of its values shows in these counts even
# where the edges stay the same.
COUNTERS = [
    ("random-n10-s9", lambda: random2(10, 9), 0.2, (199, 108), (59, 32)),
    ("motivating-0.1", lambda: normalize(gen_motivating(0.1).points), 0.1, (83, 45), (65, 34)),
    ("random-n8-s1", lambda: random2(8, 1), 0.2, (280, 151), (37, 21)),
    # the oracle seeds no incumbent, so here its search walks to a first
    # leaf before it can prune; a greedy incumbent gave (10, 6) for both
    ("sparsity-lb-0.01", lambda: normalize(gen_sparsity_lb(0.01).points), 0.01, (20, 13), (11, 7)),
    # at eps = 0.5 the bound leans most on the candidate sets of each
    # available graph; sets computed at the root only give 3293 and 426 nodes
    ("random-n9-s2-eps0.5", lambda: random2(9, 2), 0.5, (1853, 954), (256, 131)),
    # the candidate-set packing is the only bound, and at large eps it
    # prunes least; a component count as a second bound gave (259, 141)
    # and (24, 14) here, with the same edges
    ("random-n6-s10-eps1", lambda: random2(6, 10), 1.0, (313, 169), (60, 33)),
]


@pytest.mark.parametrize(
    "make, eps, min_edges, min_weight", [c[1:] for c in COUNTERS], ids=[c[0] for c in COUNTERS]
)
def test_oracle_search_counters_are_pinned(make, eps, min_edges, min_weight):
    X = make()
    for objective, want in (("min_edges", min_edges), ("min_weight", min_weight)):
        meta = brute_force_optimal(X, eps, objective).meta
        assert (meta["nodes"], meta["feasibility_checks"]) == want, objective


@pytest.mark.parametrize(
    "make, eps",
    [
        (lambda: normalize(gen_motivating(0.1).points), 0.1),
        (lambda: normalize(gen_sparsity_lb(0.01).points), 0.01),
        (lambda: random2(8, 1), 0.2),
        # lexicographic ties decide here
        (lambda: int_grid(2, 3), 0.5),
    ],
    ids=["motivating-0.1", "sparsity-lb-0.01", "random-n8-s1", "grid-2x2x2"],
)
def test_oracle_builds_no_incumbent(monkeypatch, make, eps):
    X = make()
    wants = {o: reference_brute_force_optimal(X, eps, o).edges for o in ("min_edges", "min_weight")}

    def no_greedy(*args, **kwargs):
        raise AssertionError("the oracle called path_greedy")

    monkeypatch.setattr(graph, "path_greedy", no_greedy)
    for objective, want in wants.items():
        assert brute_force_optimal(X, eps, objective).edges == want, objective


@st.composite
def tiny_instances(draw):
    """(points, eps): n = 2..7 points in d = 1..3, drawn as uniform floats,
    integer grid points (many ties) or near-collinear points whose
    coordinates past the first spread over 1e-7."""
    n, d = draw(st.integers(2, 7)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["uniform", "grid", "near-collinear"]))
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    if kind == "uniform":
        cell = [unit] * d
    elif kind == "grid":
        cell = [st.integers(0, 7).map(float)] * d
    else:
        cell = [unit] + [st.floats(0.0, 1e-7, allow_subnormal=False)] * (d - 1)
    coords = np.array(draw(st.lists(st.tuples(*cell), min_size=n, max_size=n, unique=True)))
    assume(len(np.unique(coords, axis=0)) == n)
    X = PointSet(coords)
    # a squared length that underflows makes two distinct points coincide
    assume(X.distances()[~np.eye(n, dtype=bool)].min() > 0.0)
    return X, draw(st.sampled_from([0.1, 0.5]))


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(tiny_instances())
def test_oracle_properties(instance):
    X, eps = instance
    t = 1.0 + eps
    G = path_greedy(X, t)
    E = brute_force_optimal(X, eps, "min_edges")
    W = brute_force_optimal(X, eps, "min_weight")
    assert E.edges == reference_brute_force_optimal(X, eps, "min_edges").edges
    assert W.edges == reference_brute_force_optimal(X, eps, "min_weight").edges
    assert len(E.edges) <= len(G.edges)
    assert W.weight() <= G.weight() * (1.0 + 1e-12)
    for H in (E, W):
        assert verify_stretch(H, X)[0] <= t * (1.0 + 1e-12)


def test_oracle_tie_window_is_relative_below_cost_1():
    # {(0,1), (0,2)} weighs 1e-12 more than greedy's {(0,2), (1,2)}: an
    # absolute 1e-12 window would call that a tie and take the smaller set
    X = PointSet(np.array([[0.0], [0.5], [1e-12]]))
    greedy = path_greedy(X, 1.1).weight()
    for oracle in (brute_force_optimal, reference_brute_force_optimal):
        assert oracle(X, 0.1, "min_weight").weight() <= greedy * (1.0 + 1e-12)
