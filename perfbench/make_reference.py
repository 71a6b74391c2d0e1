"""Record the reference fingerprints in reference.json.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one untraced round of each named workload (all by default) for
every input set its seeds can select, requires every spanner to pass its
checks, and stores the fingerprints.  Run it only on a commit whose
outputs are meant to become the reference; a change that must keep the
outputs bit for bit leaves reference.json alone.

For each output label it prints the largest max stretch over the input
sets, before and after.  The pruning bound ``1 + delta_k`` is loose (see
the README), so the stretch check alone would pass a pruning change
that makes spanners much worse.  A workload whose largest stretch grows
for any label is therefore not recorded.  To accept the growth, delete
the workload's entry from reference.json by hand and run this again.
"""

from __future__ import annotations

import argparse
import json
import sys

import run

run.pin_threads()
sys.path.insert(0, str(run.SRC))

from workloads import POOL, WORKLOADS  # noqa: E402

PATH = run.HERE / "reference.json"


def max_stretch_by_label(pools: dict) -> dict:
    out: dict = {}
    for fps in pools.values():
        for label, fp in fps.items():
            out[label] = max(out.get(label, 0.0), fp["max_stretch"])
    return out


def stretch_growth(name: str, old: dict, new: dict) -> list:
    """Print the largest stretch per label, old and new; return the
    labels whose largest stretch grew."""
    before, after = max_stretch_by_label(old), max_stretch_by_label(new)
    grown = []
    for label in sorted(after):
        was = before.get(label)
        print(f"{name} {label}: max stretch {was!r} -> {after[label]!r}")
        if was is not None and after[label] > was:
            grown.append(label)
    return grown


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="*", help=f"any of {sorted(WORKLOADS)}")
    args = ap.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}")
    failed = False
    for name in args.workloads or sorted(WORKLOADS):
        wl = WORKLOADS[name]()
        fps = {}
        for pool in range(POOL) if wl.seeded else [0]:
            res = run.run_workload(wl, pool, 0, False, None, setup_reps=1)
            if res["problems"]:
                print("\n".join(res["problems"]), file=sys.stderr)
                failed = True
                continue
            fps[str(pool)] = res["fingerprints"]
            print(f"{name} pool {pool}: {len(res['fingerprints'])} fingerprints", flush=True)
        if failed:
            continue
        refs = json.loads(PATH.read_text())
        grown = stretch_growth(name, refs.get(name, {}), fps)
        if grown:
            print(f"{name}: max stretch grew for {grown}; not recorded", file=sys.stderr)
            failed = True
            continue
        refs[name] = fps
        PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
