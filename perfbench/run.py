"""spanner-forge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  The run writes its instances from the seed, then repeats
rounds of the workload's operations until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics: ``wall_ref`` and
``cpu_ref`` (median over rounds of one round's wall and user+sys CPU
time, each divided by the median time of the reference kernel of
``refkernel.py`` run between that round's operations), ``setup_s``
(median of the set-ups, one before each round and at least seven: a
fresh interpreter importing the package, then generating and writing
the instances) and ``peak_rss_mb`` (this process's ``ru_maxrss`` after
the timed rounds).  The rounds' raw seconds are in the full result.

``--trace 1`` spends the first half of the time on untraced rounds and
the second on traced iterations (set-up plus one round, with every
public function of the package wrapped in a span), and reports the
per-layer metrics of ``spans.layer_metrics`` as medians over traced
iterations, plus ``trace.overhead_frac``.

Every spanner is fingerprinted.  The first time an operation returns it,
it is checked against its documented stretch bound and against the
reference fingerprint in ``reference.json``; in later rounds (traced ones
included) its fingerprint must equal the first one.  The last line of
standard output is the JSON result; the full result, with fingerprints
and problems, and the span log go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 7
# Least reference-kernel samples per timed round (about 10 ms each).
REF_SAMPLES = 16


def pin_threads() -> None:
    """Single-threaded BLAS and the package's default verification
    worker count; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SPANNER_FORGE_THREADS", None)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS + ("SPANNER_FORGE_THREADS",)},
    }


def setup_once(wl, workdir: Path, pool: int) -> float:
    """Seconds of one set-up: import the package in a fresh interpreter,
    then generate and write the workload's instances."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import spanner_forge.cli"],
        env=env, cwd=ROOT, check=True, timeout=120,
    )
    wl.setup(workdir, pool)
    return time.perf_counter() - t0


def run_round(ops, ref_samples: int = 0):
    """One round: (results, wall, cpu, ref).  ``results`` holds (label,
    Output or None, problems) for every spanner; ``wall`` and ``cpu``
    are the operations' summed seconds.  With ``ref_samples``, at least
    that many reference-kernel samples run, spread evenly over the gaps
    before, between and after the operations; ``ref`` lists their (wall,
    cpu)."""
    import refkernel  # imports numpy, so not before pin_threads

    per_gap = -(-ref_samples // (len(ops) + 1))
    results, wall, cpu, ref = [], 0.0, 0.0, []
    for op in ops:
        ref += [refkernel.sample() for _ in range(per_gap)]
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            outs = op.run()
        except Exception:  # one failed operation must not end the run
            outs = None
            traceback.print_exc(file=sys.stderr)
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if outs is None:
            results += [(label, None, [f"{op.name} raised"]) for label in op.labels]
            continue
        got = [o.label for o in outs]
        if got != op.labels:
            results += [(label, None, [f"{op.name} returned {got}"]) for label in op.labels]
            continue
        results += [(o.label, o, []) for o in outs]
    ref += [refkernel.sample() for _ in range(per_gap)]
    return results, wall, cpu, ref


class Ledger:
    """Checks every spanner of every round, between rounds, and counts
    the failed ones."""

    def __init__(self, reference):
        import checks

        self._checks = checks
        self.reference = reference  # label -> fingerprint, or None to skip
        self.first: dict = {}  # label -> fingerprint of its first appearance
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, results) -> None:
        c = self._checks
        for label, out, problems in results:
            self.attempted += 1
            if out is not None:
                fp = c.fingerprint(out)
                if label not in self.first:
                    self.first[label] = fp
                    if self.reference is not None:
                        problems = problems + c.compare(fp, self.reference.get(label))
                    problems = problems + c.check(out)
                elif fp != self.first[label]:
                    problems = problems + [f"fingerprint differs from the first round: {fp}"]
            if problems:
                self.failed += 1
                self.problems += [f"{label}: {p}" for p in problems]


def timed_rounds(ops, budget: float, ledger: Ledger, setup=None, setup_reps: int = 0) -> dict:
    """Untraced rounds until ``budget`` seconds have passed (at least
    one).  Each round's wall and CPU seconds are also divided by the
    median wall and CPU seconds of the reference kernel run within that
    round (``wall_ref``, ``cpu_ref``).  With ``setup``, a set-up precedes
    each round, so the set-ups sample the whole run, and set-ups go on
    after the rounds until there are ``setup_reps``.  Returns the lists
    ``wall``, ``cpu``, ``wall_ref``, ``cpu_ref``, ``ref_wall`` (the
    kernel's median per round) and ``setup``."""
    times = {k: [] for k in ("wall", "cpu", "wall_ref", "cpu_ref", "ref_wall", "setup")}
    start = time.perf_counter()
    while not times["wall"] or time.perf_counter() - start < budget:
        if setup is not None:
            times["setup"].append(setup())
        gc.collect()
        results, wall, cpu, ref = run_round(ops, REF_SAMPLES)
        ref_wall = statistics.median(w for w, _ in ref)
        ref_cpu = statistics.median(c for _, c in ref)
        times["wall"].append(wall)
        times["cpu"].append(cpu)
        times["wall_ref"].append(wall / ref_wall)
        times["cpu_ref"].append(cpu / ref_cpu)
        times["ref_wall"].append(ref_wall)
        ledger.add(results)
        del results  # free this round's spanners before the next round
    while setup is not None and len(times["setup"]) < setup_reps:
        times["setup"].append(setup())
    return times


def traced_iterations(wl, workdir: Path, pool: int, ops, budget: float, ledger: Ledger):
    """Traced set-up plus round until ``budget`` seconds have passed (at
    least once); returns per-iteration layer metrics and round seconds."""
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    per_iter, round_walls = [], []
    start = time.perf_counter()
    try:
        while not per_iter or time.perf_counter() - start < budget:
            gc.collect()
            root = tracer.open("perfbench.iteration")
            setup = tracer.open("perfbench.setup")
            wl.setup(workdir, pool)
            tracer.close(setup)
            rnd = tracer.open("perfbench.round")
            results = run_round(ops)[0]
            tracer.close(rnd)
            tracer.close(root)
            round_walls.append(rnd["end"] - rnd["start"])
            per_iter.append(layer_metrics(tracer.spans, root))
            ledger.add(results)
            del results
    finally:
        tracer.uninstall()
        tracer.write_jsonl(workdir / "trace.jsonl")
    return per_iter, round_walls


def run_workload(wl, seed: int, seconds: float, trace: bool, reference, setup_reps=SETUP_REPS) -> dict:
    """Run one workload and return the full result."""
    from spans import median_metrics
    from workloads import CliCapture, pool_of

    pool = pool_of(wl, seed)
    workdir = OUT / f"{wl.name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    cap = CliCapture()
    cap.install()
    ledger = Ledger(reference)
    metrics: dict = {}
    try:
        ops = wl.ops(cap, workdir)
        if trace:
            wl.setup(workdir, pool)
            budget = seconds / 2
            times = timed_rounds(ops, budget, ledger)
            per_iter, round_walls = traced_iterations(wl, workdir, pool, ops, budget, ledger)
            metrics.update(median_metrics(per_iter))
            metrics["trace.overhead_frac"] = (
                statistics.median(round_walls) / statistics.median(times["wall"]) - 1.0
            )
        else:
            times = timed_rounds(
                ops, seconds, ledger, lambda: setup_once(wl, workdir, pool), setup_reps
            )
            metrics["wall_ref"] = statistics.median(times["wall_ref"])
            metrics["cpu_ref"] = statistics.median(times["cpu_ref"])
            metrics["setup_s"] = statistics.median(times["setup"])
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        cap.uninstall()
    return {
        "workload": wl.name,
        "seed": seed,
        "pool": pool,
        "trace": int(trace),
        "round_times": times,
        "environment": environment(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "fingerprints": ledger.first,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    pin_threads()
    if not (SRC / "spanner_forge" / "__init__.py").is_file():
        print(f"error: no spanner_forge package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, pool_of

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]()
    refs = json.loads((HERE / "reference.json").read_text())
    reference = refs.get(wl.name, {}).get(str(pool_of(wl, args.seed)), {})

    result = run_workload(wl, args.seed, args.seconds, bool(args.trace), reference)
    (OUT / f"{wl.name}-seed{args.seed}" / f"result-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True)
    )
    for p in result["problems"]:
        print(f"problem: {p}", file=sys.stderr)
    print("# environment " + json.dumps(result["environment"], sort_keys=True))
    units = {m["name"]: m["unit"] for m in _declared_metrics()}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    k: {"value": v, "unit": units[k]} for k, v in sorted(result["metrics"].items())
                },
            }
        )
    )
    return 0


def _declared_metrics() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"] + spec["per_layer"]


if __name__ == "__main__":
    sys.exit(main())
