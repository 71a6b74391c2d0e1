"""Batch experiment driver.

Subcommands: ``generate`` (emit an instance with optional witness and
metadata sidecar), ``build`` (construct a spanner with a chosen
builder), ``verify`` (exact stretch check of an edge list), ``compare``
(all requested builders on one instance, one report row each), and
``sweep`` (a builder comparison across an eps grid with a log-log slope
estimate).  Only the row reports of ``compare`` and ``sweep`` may be CSV;
every JSON report embeds its configuration: each flag of its subcommand,
with the pruning flags under ``prune``.  The builders are the keys of
``_BUILDERS``; an unknown builder name exits 2 before any instance is
read, and a missing witness before any builder runs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import fields
from functools import partial

import numpy as np

from .geom import PointSet, normalize
from .graph import (
    SpannerGraph,
    _ascii_lines,
    metrics,
    path_greedy,
    read_edge_list,
    verify_stretch,
    write_edge_list,
)
from .instances import (
    GeneratedInstance,
    gen_lightness_lb,
    gen_lightness_lb_x,
    gen_motivating,
    gen_random,
    gen_sparsity_lb,
    gen_sparsity_lb_x,
    tile_copies,
)
from .nets import build_hierarchy, build_net_tree_spanner
from .prune import PruneParams, greedy_prune


class ParseError(ValueError):
    def __init__(self, path, lineno, msg):
        super().__init__(f"{path}: line {lineno}: {msg}")
        self.lineno = lineno


def _with_x(gen):
    """A *-x family: x is passed when given, else the generator's default."""
    return lambda a: gen(a.eps) if a.x is None else gen(a.eps, a.x)


_FAMILIES = {
    "sparsity-lb": lambda a: gen_sparsity_lb(a.eps),
    "sparsity-lb-x": _with_x(gen_sparsity_lb_x),
    "lightness-lb": lambda a: gen_lightness_lb(a.eps),
    "lightness-lb-x": _with_x(gen_lightness_lb_x),
    "motivating": lambda a: gen_motivating(a.eps),
    "random": lambda a: gen_random(a.n, a.d, a.distribution, a.seed),
}


def write_pointset(X: PointSet, path) -> None:
    """Instance file: header "d n", then one coordinate row per point."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{X.dim} {X.n}\n")
        for row in X.coords:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def parse_pointset(path) -> PointSet:
    """Read an instance file written by :func:`write_pointset`."""
    lines = _ascii_lines(path, partial(ParseError, path))
    if not lines:
        raise ParseError(path, 1, "empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(path, 1, "header must be 'd n'")
    try:
        d, n = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(path, 1, "header must be two integers") from None
    if d < 1 or n < 1:
        raise ParseError(path, 1, "header needs d >= 1 and n >= 1")
    rows = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        raw = raw.strip()
        if not raw:
            continue
        parts = raw.split()
        if len(parts) != d:
            raise ParseError(path, lineno, f"expected {d} coordinates")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(path, lineno, "bad coordinate") from None
        if len(rows) > n:
            raise ParseError(path, lineno, f"more than {n} rows")
    if len(rows) < n:
        raise ParseError(path, len(lines) + 1, f"expected {n} rows, got {len(rows)}")
    coords = np.array(rows, dtype=np.float64)
    bad = ~np.isfinite(coords).all(axis=1)
    if bad.any():
        # row r is on the (r + 2)-th line that is not blank: the header is the first
        filled = [k for k, raw in enumerate(lines, start=1) if raw.strip()]
        raise ParseError(path, filled[int(np.argmax(bad)) + 1], "coordinates must be finite")
    return PointSet(coords)


def write_report(report: dict, path) -> None:
    """JSON, or to a ``.csv`` path the CSV of the report's ``rows`` dicts."""
    path = str(path)
    if path.endswith(".csv"):
        rows = report.get("rows")
        if not rows:
            raise ValueError(f"{path}: a CSV report needs rows, this report has none")
        with open(path, "w", newline="", encoding="ascii") as fh:
            w = csv.DictWriter(fh, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    else:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _witness_path(instance_path: str) -> str:
    return instance_path + ".witness"


def _meta_path(instance_path: str) -> str:
    return instance_path + ".meta.json"


# PruneParams fields settable by a flag of the same name, with their
# defaults; eps comes from --eps, and --k sets the number of rounds.
_PRUNE_DEFAULTS = {f.name: f.default for f in fields(PruneParams) if f.name != "eps"}
_PRUNE_FLAGS = tuple(_PRUNE_DEFAULTS)


def _prune_params_from_args(args) -> PruneParams:
    flags = {k: getattr(args, k) for k in _PRUNE_FLAGS if getattr(args, k, None) is not None}
    return PruneParams(eps=args.eps, **flags)


# Builder name -> (X, args, witness pairs, build) -> spanner, where
# build(name) gives another builder's spanner over the same X.  The
# entries look the builders up among this module's globals when called,
# so a caller that replaces one of them here is seen.
_BUILDERS = {
    "greedy": lambda X, args, witness_pairs, build: path_greedy(X, 1.0 + args.eps),
    "net-tree": lambda X, args, witness_pairs, build: build_net_tree_spanner(
        build_hierarchy(X), args.eps),
    "prune": lambda X, args, witness_pairs, build: greedy_prune(
        X, args.eps, args.k, params=_prune_params_from_args(args),
        seed_spanner=build("greedy"))[0],
    "witness": lambda X, args, witness_pairs, build: SpannerGraph.from_pairs(X, witness_pairs),
}


def _spanners(names, X: PointSet, args, witness_pairs):
    """The spanner of each named builder over X, built lazily in order,
    each at most once; a witness is checked for before the first one is
    built."""
    if "witness" in names and witness_pairs is None:
        raise ValueError("no witness available for this instance")
    return map(partial(_spanner, {}, X, args, witness_pairs), names)


def _spanner(built: dict, X: PointSet, args, witness_pairs, name):
    # a partial, not a closure over itself: no cycle keeps the spanners alive
    if name not in built:
        build = partial(_spanner, built, X, args, witness_pairs)
        built[name] = _BUILDERS[name](X, args, witness_pairs, build)
    return built[name]


def _builder_list(value: str) -> list:
    names = value.split(",")
    for name in names:
        if name not in _BUILDERS:
            raise argparse.ArgumentTypeError(
                f"unknown builder {name!r} (choose from {', '.join(_BUILDERS)})")
    return names


def _load_witness(args, X: PointSet):
    path = getattr(args, "witness", None) or _witness_path(args.instance)
    if os.path.exists(path):
        W = read_edge_list(path, X)
        return np.column_stack((W.u, W.v))
    return None


def _builder_rows(X: PointSet, args, witness_pairs, **lead) -> list:
    """Build each of ``args.builders`` over X, in order, and give one
    report row per spanner: the ``lead`` columns, the builder, its
    metrics, and ``ok``, which says whether its max stretch is within
    1 + eps*x (1 + eps without an x)."""
    bound = 1.0 + args.eps * (1.0 if args.x is None else args.x)
    rows = []
    for name, G in zip(args.builders, _spanners(args.builders, X, args, witness_pairs)):
        rep = metrics(G, X)
        row = {**lead, "builder": name, **rep.to_dict()}
        row["ok"] = rep.max_stretch <= bound + 1e-9
        rows.append(row)
    return rows


def _write_run_report(args, path, **body) -> None:
    """Write ``body`` as a JSON report to ``path``, if one is given,
    under the invocation's config and a timestamp."""
    if path:
        write_report({"config": _config_of(args), "timestamp": time.time(), **body}, path)


def _loglog_slope(inv_eps, values) -> float:
    xs = np.log(np.asarray(inv_eps, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def _cmd_generate(args) -> int:
    inst: GeneratedInstance = _FAMILIES[args.family](args)
    args.x = inst.meta.get("x")  # the config records the x the family used
    inst = tile_copies(inst, args.copies)
    write_pointset(inst.points, args.out)
    if inst.witness_pairs is not None:
        W = SpannerGraph.from_pairs(inst.points, inst.witness_pairs)
        write_edge_list(W, _witness_path(args.out))
    meta = {"config": _config_of(args), "meta": inst.meta}
    write_report(meta, _meta_path(args.out))
    print(f"wrote {inst.points.n} points to {args.out}")
    return 0


def _cmd_build(args) -> int:
    X = normalize(parse_pointset(args.instance))
    [G] = _spanners([args.builder], X, args, _load_witness(args, X))
    write_edge_list(G, args.out)
    print(f"{args.builder}: {len(G.u)} edges -> {args.out}")
    return 0


def _cmd_verify(args) -> int:
    X = normalize(parse_pointset(args.instance))
    G = read_edge_list(args.edges, X)
    ms, wit = verify_stretch(G, X)
    ok = ms <= args.t + 1e-9
    _write_run_report(args, args.out, max_stretch=ms, witness_pair=list(wit), bound=args.t,
                      ok=bool(ok))
    print(f"max stretch {ms:.9f} vs bound {args.t}: {'OK' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_compare(args) -> int:
    X = normalize(parse_pointset(args.instance))
    rows = _builder_rows(X, args, _load_witness(args, X))
    base = {row["builder"]: row for row in rows}.get("witness")
    if base is not None and base["edge_count"]:
        for row in rows:
            row["edge_ratio_vs_witness"] = row["edge_count"] / base["edge_count"]
            row["weight_ratio_vs_witness"] = row["weight"] / base["weight"]
            row["ok"] = row.pop("ok")  # the last column, after the ratios
    _write_run_report(args, args.out, rows=rows)
    for row in rows:
        print(
            f"{row['builder']:>9}: edges={row['edge_count']:6d} "
            f"weight={row['weight']:.4f} stretch={row['max_stretch']:.6f}"
        )
    return 0 if all(row["ok"] for row in rows) else 1


def _cmd_sweep(args) -> int:
    rows = []
    per_x: dict = {}  # --x-list value (None without one) -> eps -> builder -> row
    for eps in args.eps_list:
        for x_arg in args.x_list or [None]:
            sub = argparse.Namespace(**vars(args))
            sub.eps = eps
            sub.x = x_arg
            inst = _FAMILIES[args.family](sub)
            sub.x = inst.meta.get("x")  # a *-x family's x, its default if none was given
            new = _builder_rows(normalize(inst.points), sub, inst.witness_pairs,
                                eps=eps, x="" if sub.x is None else sub.x)
            for row in new:
                row["witness_pair"] = "{}-{}".format(*row["witness_pair"])
            rows += new
            per_x.setdefault(x_arg, {})[eps] = {row["builder"]: row for row in new}
    _write_run_report(args, args.out, rows=rows)
    ratio_kind = "weight" if "lightness" in args.family else "edge_count"
    slopes = []
    for x, per_eps in per_x.items():
        if len(per_eps) < 2 or not all("greedy" in v and "witness" in v for v in per_eps.values()):
            continue
        eps_desc = sorted(per_eps, reverse=True)
        vals = [per_eps[e]["greedy"][ratio_kind] / per_eps[e]["witness"][ratio_kind]
                for e in eps_desc]
        slope = _loglog_slope([1.0 / e for e in eps_desc], vals)
        at = "" if x is None else f" at x={x:g}"
        print(f"log-log slope of greedy/witness {ratio_kind} ratio vs 1/eps{at}: {slope:.3f}")
        slopes.append({"x": x, "slope": slope})
    if args.gnuplot:
        _write_gnuplot(args.gnuplot, args.out, ratio_kind, args.builders, args.x_list)
    _write_run_report(args, args.summary_out, slope=slopes, rows=rows)
    return 0 if all(row["ok"] for row in rows) else 1


def _write_gnuplot(path, csv_path, column, builders, xs) -> None:
    """One line per builder of ``column`` against 1/eps, or with ``xs``
    (the ``--x-list`` values) one per builder and x; a line reads the CSV
    rows whose ``builder`` column names it and whose ``x`` column holds
    its x."""

    def line(b, x):
        rows = f"strcol('builder') eq '{b}'"
        if x is not None:
            rows += f" && column('x') == {x!r}"
        title = b if x is None else f"{b} x={x:g}"
        return (
            f"'{csv_path}' using (1/column('eps')):({rows} ? column('{column}') : NaN)"
            f" with linespoints title '{title}'"
        )

    plots = ", \\\n     ".join(line(b, x) for b in builders for x in xs or [None])
    script = (
        "set datafile separator ','\n"
        # gnuplot 5.4 and later then treat the other builders' rows as
        # missing points, which a line passes over, not as breaks in it
        "set datafile missing NaN\n"
        "set logscale xy\n"
        f"set xlabel '1/eps'\nset ylabel '{column}'\n"
        f"plot {plots}\n"
    )
    with open(path, "w", encoding="ascii") as fh:
        fh.write(script)


def _config_of(args) -> dict:
    """Every flag of one invocation, as its reports record them: the
    pruning flags given (every field, at its default where not given,
    when a builder prunes) under ``prune``, the others at the top level."""
    config = dict(vars(args))
    del config["func"]
    given = {k: config.pop(k, None) for k in _PRUNE_FLAGS}
    prune = {k: v for k, v in given.items() if v is not None}
    defaults = _PRUNE_DEFAULTS if "prune" in config.get("builders", []) else {}
    config["prune"] = {**defaults, **prune}
    return config


def _floats(value: str) -> list:
    return [float(v) for v in value.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spanner-forge")
    sub = ap.add_subparsers(dest="command", required=True)

    family = argparse.ArgumentParser(add_help=False)  # the flags that pick an instance
    family.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    family.add_argument("--n", type=int, default=100)
    family.add_argument("--d", type=int, default=2)
    family.add_argument("--seed", type=int, default=0)
    family.add_argument("--distribution", choices=["uniform", "clustered"], default="uniform")

    pruning = argparse.ArgumentParser(add_help=False)  # the rounds and PruneParams
    pruning.add_argument("--k", type=int, default=1)
    for name in _PRUNE_FLAGS:  # plain numbers; a flag not given leaves its field's default
        pruning.add_argument("--" + name.replace("_", "-"), dest=name, type=float)

    g = sub.add_parser("generate", parents=[family], help="emit an instance file")
    g.add_argument("--eps", type=float, default=0.01)
    g.add_argument("--x", type=float)
    g.add_argument("--copies", type=int, default=1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    b = sub.add_parser("build", parents=[pruning], help="build a spanner over an instance")
    b.add_argument("--builder", required=True, choices=list(_BUILDERS))
    b.add_argument("--eps", type=float, required=True)
    b.add_argument("--in", dest="instance", required=True)
    b.add_argument("--witness")
    b.add_argument("--out", required=True)
    b.set_defaults(func=_cmd_build)

    v = sub.add_parser("verify", help="exact stretch check of an edge list")
    v.add_argument("--in", dest="instance", required=True)
    v.add_argument("--edges", required=True)
    v.add_argument("--t", type=float, required=True)
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    c = sub.add_parser("compare", parents=[pruning], help="run several builders on one instance")
    c.add_argument("--in", dest="instance", required=True)
    c.add_argument("--eps", type=float, required=True)
    c.add_argument("--x", type=float)
    c.add_argument("--builders", type=_builder_list, required=True)
    c.add_argument("--witness")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_compare)

    s = sub.add_parser("sweep", parents=[family, pruning],
                       help="builder comparison across an eps grid")
    s.add_argument("--eps-list", dest="eps_list", type=_floats, required=True)
    s.add_argument("--x-list", dest="x_list", type=_floats)
    s.add_argument("--builders", type=_builder_list, default=["greedy", "witness"])
    s.add_argument("--out")
    s.add_argument("--summary-out", dest="summary_out")
    s.add_argument("--gnuplot")
    s.set_defaults(func=_cmd_sweep)
    return ap


# Stretch bounds, eps and x: refused before any work when NaN or +-inf;
# x also when not positive, or when the family takes none; a list flag
# also when it repeats a value, which sweep would build twice.  --copies
# below 1 and --k below 0 too, a CSV path for a report that is not a
# list of rows, and a --gnuplot script without a CSV --out to plot.
_FINITE_FLAGS = ("t", "eps", "x", "eps_list", "x_list")
_JSON_ONLY = {"verify": "out", "sweep": "summary_out"}  # subcommand -> its report's flag


def _check_values(args) -> None:
    if getattr(args, "copies", 1) < 1:
        raise ValueError(f"--copies must be at least 1, got {args.copies}")
    if getattr(args, "k", 0) < 0:
        raise ValueError(f"--k must be at least 0, got {args.k}")
    report = _JSON_ONLY.get(args.command)
    if report and (getattr(args, report) or "").endswith(".csv"):
        flag = "--" + report.replace("_", "-")
        raise ValueError(f"{flag} writes a JSON report, which has no CSV form, "
                         f"got {flag} {getattr(args, report)}")
    if getattr(args, "gnuplot", None) and not (args.out or "").endswith(".csv"):
        raise ValueError(f"--gnuplot plots the rows of a CSV --out, got --out {args.out}")
    for name in _FINITE_FLAGS:
        value = getattr(args, name, None)
        values = [v for v in (value if isinstance(value, list) else [value]) if v is not None]
        flag = "--" + name.replace("_", "-")
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{flag} must be finite, got {value}")
        if len(set(values)) < len(values):
            raise ValueError(f"{flag} lists a value more than once, got {value}")
        if name.startswith("x") and not all(v > 0 for v in values):
            raise ValueError(f"{flag} must be positive, got {value}")
        family = getattr(args, "family", "-x")  # compare's --x has no family to check
        if name.startswith("x") and values and not family.endswith("-x"):
            raise ValueError(f"{flag} applies only to the *-x families, not {family}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_values(args)
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
