"""The benchmark's workloads.

Each workload writes its instances in ``setup`` (through the package's
generators and ``write_pointset``, so the program reads only files) and
returns the operations of one round from ``ops``.  An operation is a
call into a public entry point: ``spanner_forge.cli.main`` in-process,
or a library function the CLI cannot reach at this scale.  It returns
the spanners it produced as :class:`checks.Output` records.

Package functions are looked up on their modules at call time, so the
traced run sees the wrapped versions.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import spanner_forge.cli as cli
import spanner_forge.geom as geom
import spanner_forge.graph as graph
import spanner_forge.instances as instances
import spanner_forge.prune as prune
from checks import output_of

# Seeds are reduced modulo POOL, so every input set the benchmark can
# generate has a reference fingerprint in reference.json.
POOL = 16


def _relabeled(points, rng):
    """The point set with its rows permuted.

    Seeded workloads keep their point sets fixed and let the seed permute
    the labels.  The work then stays nearly the same from seed to seed,
    while every label-dependent decision (lexicographic tie-breaks, scan
    orders) sees a different input.  New point sets per seed would not
    do: pruning time varies by 60% between random instances of one size
    and oracle time by four orders of magnitude."""
    return geom.PointSet(points.coords[rng.permutation(points.n)])


def pool_of(wl, seed: int) -> int:
    return seed % POOL if wl.seeded else 0


class OpError(RuntimeError):
    pass


@dataclass
class Op:
    name: str
    labels: list  # one per spanner the operation returns
    run: Callable[[], list]


class CliCapture:
    """Runs ``cli.main`` and keeps every (graph, points, report) that the
    CLI passes to ``metrics``: the CLI writes reports, not edge lists."""

    def __init__(self):
        self.seen: list = []
        self._orig = None

    def install(self) -> None:
        self._orig = cli.metrics

        def metrics(G, X, *args, **kwargs):
            rep = graph.metrics(G, X, *args, **kwargs)
            self.seen.append((G, X, rep))
            return rep

        cli.metrics = metrics

    def uninstall(self) -> None:
        cli.metrics = self._orig

    def run(self, argv: list) -> list:
        self.seen = []
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        # compare and sweep exit 1 when a row exceeds 1+eps, which pruned
        # rows do by design; only 2 (an error) fails the operation.
        seen, self.seen = self.seen, []
        if code not in (0, 1):
            raise OpError(f"spanner-forge {argv[0]} exited with {code}")
        return seen


def prune_bound(eps: float, k: int, dim: int) -> float:
    """1 + delta after k ``update_params`` steps: the documented stretch
    bound of an exact-candidate pruning output."""
    p = prune.PruneParams(eps=eps, iterations=k)
    p = replace(p, alpha=p.alpha_value(dim))
    for _ in range(k):
        p = prune.update_params(p)
    return 1.0 + p.delta_value


def _builder_bound(builder, eps, k, dim) -> float:
    if builder == "prune":
        return prune_bound(eps, k, dim)
    return 1.0 + eps  # greedy, witness and net-tree are (1+eps)-spanners


def _cli_outputs(prefix, builders, seen, rows, eps, k=1) -> list:
    if len(seen) != len(builders) or len(rows) != len(builders):
        raise OpError(f"{prefix}: expected {len(builders)} spanners, got {len(seen)}")
    outs = []
    for b, (G, X, rep), row in zip(builders, seen, rows):
        agrees = row["edge_count"] == len(G.edges) and row["max_stretch"] == rep.max_stretch
        outs.append(
            output_of(
                f"{prefix}/{b}",
                G,
                X,
                rep.max_stretch,
                _builder_bound(b, eps, k, X.dim),
                [(f"{prefix}/{b}: CLI report disagrees with the spanner", agrees)],
            )
        )
    return outs


def _compare_op(cap, workdir, inst, eps, builders, k) -> Op:
    report = workdir / f"{inst}.compare.json"
    argv = [
        "compare", "--in", str(workdir / f"{inst}.txt"), "--eps", str(eps),
        "--builders", ",".join(builders), "--k", str(k), "--out", str(report),
    ]

    def run():
        seen = cap.run(argv)
        rows = json.loads(report.read_text())["rows"]
        return _cli_outputs(inst, builders, seen, rows, eps, k)

    return Op(f"compare {inst}", [f"{inst}/{b}" for b in builders], run)


def _write(workdir: Path, name: str, points) -> None:
    cli.write_pointset(points, workdir / f"{name}.txt")


def _load(workdir: Path, name: str):
    return geom.normalize(cli.parse_pointset(workdir / f"{name}.txt"))


class ArcSweep:
    name = "arc-sweep"
    seeded = False
    why = (
        "paper's greedy-vs-witness separation on the arc family; path_greedy "
        "dominates on knife-edge ties, prune and nets do no work"
    )

    BUILDERS = ("greedy", "witness")

    def __init__(self, eps_list=(0.04, 0.02, 0.01)):
        self.eps_list = eps_list

    def setup(self, workdir: Path, pool: int) -> None:
        """Nothing to write: ``sweep`` generates the arcs itself.  The
        family has no random parameter, so the inputs do not depend on
        the seed."""

    def ops(self, cap, workdir: Path) -> list:
        summary = workdir / "sweep.json"
        argv = [
            "sweep", "--family", "lightness-lb",
            "--eps-list", ",".join(str(e) for e in self.eps_list),
            "--builders", ",".join(self.BUILDERS), "--summary-out", str(summary),
        ]
        labels = [f"eps={e}/{b}" for e in self.eps_list for b in self.BUILDERS]

        def run():
            seen = cap.run(argv)
            rows = json.loads(summary.read_text())["rows"]
            outs = []
            for i, eps in enumerate(self.eps_list):
                j = slice(2 * i, 2 * i + 2)
                outs += _cli_outputs(f"eps={eps}", self.BUILDERS, seen[j], rows[j], eps)
            if len(outs) != len(seen):
                raise OpError(f"sweep returned {len(seen)} spanners, expected {len(outs)}")
            return outs

        return [Op("sweep lightness-lb", labels, run)]


class PruneCompare:
    name = "prune-compare"
    seeded = True
    why = (
        "two-round pruning (classify, phase1, phase2) on uniform d=3 and "
        "clustered d=2 instances; greedy only builds the seed"
    )

    EPS = 0.1
    K = 2

    def __init__(self, sizes=((200, 3, "uniform"), (400, 2, "clustered"))):
        self.sizes = sizes

    def _names(self):
        return [f"{dist}-d{d}-n{n}" for n, d, dist in self.sizes]

    def setup(self, workdir: Path, pool: int) -> None:
        rng = np.random.default_rng(pool)
        for name, (n, d, dist) in zip(self._names(), self.sizes):
            _write(workdir, name, _relabeled(instances.gen_random(n, d, dist, 0).points, rng))

    def ops(self, cap, workdir: Path) -> list:
        return [
            _compare_op(cap, workdir, name, self.EPS, ["prune"], self.K)
            for name in self._names()
        ]


class NetClusters:
    name = "net-clusters"
    seeded = True
    why = (
        "net-tree builder through the CLI on uniform d=2 and d=3, then pruning "
        "with the clusters phase-2 backend from the library on a relaxed arc"
    )

    EPS = 0.1  # of the net trees
    ARC_EPS = 0.025  # of the relaxed arc and its pruning
    ARC_X = 2.0
    ARC = f"lightness-lb-x-{ARC_EPS}-{ARC_X}"

    def __init__(self, tree_sizes=((300, 2), (300, 3))):
        self.trees = {f"uniform-d{d}-n{n}": (n, d) for n, d in tree_sizes}

    def setup(self, workdir: Path, pool: int) -> None:
        """The clusters backend only works on type-2 edges, which random
        instances barely have (0 to 4 at n=200); the relaxed arc has
        about 30."""
        rng = np.random.default_rng(pool)
        for name, (n, d) in self.trees.items():
            _write(workdir, name, _relabeled(instances.gen_random(n, d, "uniform", 0).points, rng))
        arc = instances.gen_lightness_lb_x(self.ARC_EPS, self.ARC_X).points
        _write(workdir, self.ARC, _relabeled(arc, rng))

    def ops(self, cap, workdir: Path) -> list:
        eps, name = self.ARC_EPS, self.ARC
        label = f"{name}/prune-clusters"

        def clusters():
            # the CLI selects this backend only above n=2000
            X = _load(workdir, name)
            G, _ = prune.greedy_prune(X, eps, 1, dist_backend="clusters")
            ms, _ = graph.verify_stretch(G, X)
            return [output_of(label, G, X, ms, prune_bound(eps, 1, X.dim))]

        ops = [_compare_op(cap, workdir, tree, self.EPS, ["net-tree"], 1) for tree in self.trees]
        return ops + [Op(f"greedy_prune clusters {name}", [label], clusters)]


class OracleTiny:
    name = "oracle-tiny"
    seeded = True
    why = (
        "exact branch-and-bound oracle, both objectives, on fixed tiny "
        "instances whose points the seed relabels; oracle dominates"
    )

    EPS = 0.2  # of the random instances

    # (n, generator seeds) of the random instances.  Branch-and-bound time
    # on random n = 9 and 10 ranges from 2 ms to over 5 s, so the
    # instances are chosen to take at most about 0.3 s each: many
    # operations of similar size keep one solve from setting the round
    # time, and the reference kernel runs between them.  Left out: n = 9
    # seed 1 (2 s), n = 10 seeds 1 (5.7 s) and 16 (1 s).
    RANDOM = ((8, range(8)), (9, (0, 2, 3, 4, 5, 6, 7, 16, 28)), (10, (6, 9, 26)))

    def __init__(self, random=RANDOM):
        self.random = random

    def _instances(self):
        """(name, eps, generator call)."""
        out = [
            (f"random-n{n}-s{s}", self.EPS, lambda n=n, s=s: instances.gen_random(n, 2, "uniform", s))
            for n, seeds in self.random
            for s in seeds
        ]
        out.append(("motivating-0.1", 0.1, lambda: instances.gen_motivating(0.1)))
        out.append(("sparsity-lb-0.01", 0.01, lambda: instances.gen_sparsity_lb(0.01)))
        return out

    def setup(self, workdir: Path, pool: int) -> None:
        rng = np.random.default_rng(pool)
        for name, _, gen in self._instances():
            _write(workdir, name, _relabeled(gen().points, rng))

    def ops(self, cap, workdir: Path) -> list:
        return [self._op(workdir, name, eps) for name, eps, _ in self._instances()]

    def _op(self, workdir, name, eps) -> Op:
        labels = [f"{name}/greedy", f"{name}/oracle-min_edges", f"{name}/oracle-min_weight"]

        def run():
            X = _load(workdir, name)
            G = graph.path_greedy(X, 1.0 + eps)
            gms, _ = graph.verify_stretch(G, X)
            E = graph.brute_force_optimal(X, eps, objective="min_edges")
            ems, _ = graph.verify_stretch(E, X)
            W = graph.brute_force_optimal(X, eps, objective="min_weight")
            wms, _ = graph.verify_stretch(W, X)
            slack = 1.0 + 1e-12
            return [
                output_of(labels[0], G, X, gms, 1.0 + eps),
                output_of(labels[1], E, X, ems, 1.0 + eps, [
                    (f"{name}: min_edges oracle has more edges than greedy",
                     len(E.edges) <= len(G.edges)),
                    (f"{name}: min_edges oracle has more edges than the min_weight one",
                     len(E.edges) <= len(W.edges)),
                ]),
                output_of(labels[2], W, X, wms, 1.0 + eps, [
                    (f"{name}: min_weight oracle is heavier than greedy",
                     W.weight() <= G.weight() * slack),
                    (f"{name}: min_weight oracle is heavier than the min_edges one",
                     W.weight() <= E.weight() * slack),
                ]),
            ]

        return Op(f"oracle {name}", labels, run)


WORKLOADS = {w.name: w for w in (ArcSweep, PruneCompare, NetClusters, OracleTiny)}
