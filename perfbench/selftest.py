"""Quick self-test of the benchmark on tiny instances (about a minute).

    python3 perfbench/selftest.py

For every workload, at reduced size: an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and passes every check; a traced
run emits exactly the per-layer metrics, and its fingerprints (traced
rounds included) equal the untraced run's.  A tampered edge list must
fail the fingerprint comparison, and the bound check must catch a
spanner that lost a needed edge.
"""

from __future__ import annotations

import json
import sys

import run

run.pin_threads()
sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import spanner_forge.geom as geom  # noqa: E402
import spanner_forge.graph as graph  # noqa: E402
import spanner_forge.instances as instances  # noqa: E402
from workloads import ArcSweep, NetClusters, OracleTiny, PruneCompare  # noqa: E402

TINY = (
    ArcSweep(eps_list=(0.05, 0.04)),
    PruneCompare(sizes=((40, 3, "uniform"), (50, 2, "clustered"))),
    NetClusters(tree_sizes=((40, 2), (30, 3))),
    OracleTiny(random=((6, range(2)),)),
)


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def check_workload(wl, spec) -> None:
    plain = run.run_workload(wl, seed=5, seconds=0, trace=False, reference=None, setup_reps=1)
    expect(not plain["problems"], f"{wl.name}: {plain['problems']}")
    expect(plain["attempted"] > 0, f"{wl.name}: nothing attempted")
    expect(
        set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]},
        f"{wl.name}: end-to-end metrics {sorted(plain['metrics'])}",
    )
    expect(all(v > 0 for v in plain["metrics"].values()), f"{wl.name}: a zero metric")
    traced = run.run_workload(wl, seed=5, seconds=0, trace=True, reference=plain["fingerprints"])
    expect(not traced["problems"], f"{wl.name} traced: {traced['problems']}")
    expect(traced["fingerprints"] == plain["fingerprints"], f"{wl.name}: trace changed outputs")
    expect(
        set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]},
        f"{wl.name}: per-layer metrics {sorted(traced['metrics'])}",
    )
    print(f"ok {wl.name}: {plain['attempted']} spanners, metrics and fingerprints agree")


def check_tamper() -> None:
    X = geom.normalize(instances.gen_random(30, 2, "uniform", 1).points)
    G = graph.path_greedy(X, 1.1)
    ms, _ = graph.verify_stretch(G, X)
    out = checks.output_of("greedy", G, X, ms, 1.1)
    expect(not checks.check(out), "untampered greedy spanner fails its checks")
    ref = checks.fingerprint(out)
    expect(not checks.compare(checks.fingerprint(out), ref), "fingerprint not reproducible")
    # The shortest edge of a greedy spanner is the only path between its
    # endpoints within the bound, so dropping it must show.
    shortest = min(G.edges, key=lambda e: e[2])
    G_tampered = graph.SpannerGraph(G.n, [e for e in G.edges if e != shortest])
    out = checks.output_of("greedy", G_tampered, X, ms, 1.1)
    expect(checks.compare(checks.fingerprint(out), ref), "tampered edge list kept its fingerprint")
    expect(checks.check(out), "tampered spanner passed the stretch checks")
    print("ok tamper: fingerprint and stretch check both catch a dropped edge")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_tamper()
    for wl in TINY:
        check_workload(wl, spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
