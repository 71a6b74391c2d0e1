"""Pair the benchmark results of a parent commit and a change into one file.

    python3 tools/bench_pair.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... --out BENCH_<n>.json

Each input is a ``result-trace0.json`` that ``perfbench/run.py`` wrote to
``.perfbench_out/<workload>-seed<seed>/``.  The next run of the same
workload and seed overwrites that file, so copy it away after each run.

For every workload and every end-to-end metric the output gives, per side,
the median, the quartiles and the number of runs.  Where both sides ran a
seed exactly once, the two runs form a pair, and ``change_wins`` counts the
pairs the change won by the direction ``BENCHMARK.json`` declares (ties
count for neither side).  ``fingerprints_equal`` is true when every pool of
instances ran on both sides and all its runs, on either side, report the
same output fingerprints; the change's fingerprints are listed per pool.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summary(values: list) -> dict:
    """Median, quartiles and count; one run is its own quartiles."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def pair_workload(parent: list, change: list, better: dict) -> dict:
    """The comparison of one workload's parent and change results."""
    if not parent or not change:
        raise ValueError("a workload needs results from both sides")
    sides = {"parent": parent, "change": change}
    out: dict = {"metrics": {}}
    for name in sorted(parent[0]["metrics"]):
        entry = {side: summary([r["metrics"][name] for r in runs]) for side, runs in sides.items()}
        pairs = _pairs(parent, change, name)
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        entry["pairs"] = len(pairs)
        entry["change_wins"] = sum(sign * (p - c) > 0 for p, c in pairs)
        out["metrics"][name] = entry
    for key in ("attempted", "failed"):
        out[key] = {side: sum(r[key] for r in runs) for side, runs in sides.items()}
    by_pool: dict = {}
    for side, runs in sides.items():
        for r in runs:
            seen = by_pool.setdefault(r["pool"], {"parent": [], "change": []})
            seen[side].append(r["fingerprints"])
    out["fingerprints_equal"] = all(
        seen["parent"]
        and seen["change"]
        and all(f == seen["change"][0] for f in seen["parent"] + seen["change"])
        for seen in by_pool.values()
    )
    out["fingerprints"] = {
        str(pool): seen["change"][0] for pool, seen in sorted(by_pool.items()) if seen["change"]
    }
    return out


def _pairs(parent: list, change: list, name: str) -> list:
    """(parent, change) values of ``name`` for the seeds each side ran once."""

    def once(runs):
        seeds = [r["seed"] for r in runs]
        return {r["seed"]: r["metrics"][name] for r in runs if seeds.count(r["seed"]) == 1}

    p, c = once(parent), once(change)
    return [(p[s], c[s]) for s in sorted(p.keys() & c.keys())]


def bench_pair(parent: list, change: list, better: dict) -> dict:
    """BENCH document for parent and change results of any workloads."""
    names = sorted({r["workload"] for r in parent + change})
    return {
        "workloads": {
            w: pair_workload(
                [r for r in parent if r["workload"] == w],
                [r for r in change if r["workload"] == w],
                better,
            )
            for w in names
        }
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", required=True, type=Path)
    ap.add_argument("--change", nargs="+", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent = [json.loads(p.read_text()) for p in args.parent]
    change = [json.loads(p.read_text()) for p in args.change]
    traced = [str(p) for p, r in zip(args.parent + args.change, parent + change) if r["trace"]]
    if traced:
        print(f"error: traced results have no end-to-end metrics: {traced}", file=sys.stderr)
        return 2
    doc = bench_pair(parent, change, better)
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
