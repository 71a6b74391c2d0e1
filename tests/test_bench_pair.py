import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)


def result(workload, seed, wall, rss=90.0, fp="a", failed=0, trace=0):
    """A synthetic ``result-trace0.json`` with the fields the tool reads."""
    return {
        "workload": workload,
        "seed": seed,
        "pool": seed % 16,
        "trace": trace,
        "attempted": 3,
        "failed": failed,
        "fingerprints": {"x/net-tree": {"sha256": fp, "edges": 3}},
        "metrics": {"wall_ref": wall, "peak_rss_mb": rss},
    }


def test_summary_median_quartiles_and_count():
    assert bench_pair.summary([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0, "runs": 1}
    five = bench_pair.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert five == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": 5}


def test_pairs_by_seed_and_wins_by_declared_direction():
    parent = [result("w", s, wall) for s, wall in [(1, 10.0), (2, 10.0), (3, 10.0), (4, 5.0)]]
    change = [
        result("w", s, wall) for s, wall in [(1, 6.0), (2, 7.0), (3, 10.0), (4, 6.0), (5, 1.0)]
    ]
    doc = bench_pair.bench_pair(parent, change, {"wall_ref": "lower", "peak_rss_mb": "higher"})
    wall = doc["workloads"]["w"]["metrics"]["wall_ref"]
    assert wall["parent"]["median"] == 10.0 and wall["parent"]["runs"] == 4
    assert wall["change"]["median"] == 6.0 and wall["change"]["runs"] == 5
    # seed 5 ran on one side only; seed 3 is a tie; seed 4 is a loss
    assert (wall["pairs"], wall["change_wins"]) == (4, 2)
    assert doc["workloads"]["w"]["metrics"]["peak_rss_mb"]["change_wins"] == 0


def test_seed_run_twice_on_one_side_forms_no_pair():
    parent = [result("w", 1, 10.0), result("w", 1, 9.0)]
    change = [result("w", 1, 5.0)]
    wall = bench_pair.bench_pair(parent, change, {})["workloads"]["w"]["metrics"]["wall_ref"]
    assert (wall["pairs"], wall["change_wins"]) == (0, 0)


@pytest.mark.parametrize(
    "parent_fp, change_fp, pools_on_both, equal",
    [
        (["a", "a"], ["a", "a"], True, True),
        (["a", "a"], ["a", "b"], True, False),
        (["a", "b"], ["a", "a"], True, False),
        (["a", "a"], ["a", "a"], False, False),
    ],
    ids=["equal", "change-differs", "parent-differs", "pool-on-one-side"],
)
def test_fingerprints_equal_per_pool(parent_fp, change_fp, pools_on_both, equal):
    parent = [result("w", 1, 1.0, fp=parent_fp[0]), result("w", 17, 1.0, fp=parent_fp[1])]
    other = 17 if pools_on_both else 2
    change = [result("w", 1, 1.0, fp=change_fp[0]), result("w", other, 1.0, fp=change_fp[1])]
    doc = bench_pair.bench_pair(parent, change, {})["workloads"]["w"]
    assert doc["fingerprints_equal"] is equal
    assert doc["fingerprints"]["1"] == change[0]["fingerprints"]


def test_main_writes_one_entry_per_workload(tmp_path):
    files = {}
    for side, wall in (("parent", 10.0), ("change", 6.0)):
        for w in ("net-clusters", "arc-sweep"):
            path = tmp_path / f"{side}-{w}.json"
            failed = int(side == "change" and w == "arc-sweep")
            path.write_text(json.dumps(result(w, 5, wall, failed=failed)))
            files.setdefault(side, []).append(str(path))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", *files["parent"], "--change", *files["change"], "--out", str(out)]
    assert bench_pair.main(argv) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["arc-sweep", "net-clusters"]
    nc = doc["workloads"]["net-clusters"]
    assert nc["metrics"]["wall_ref"]["change_wins"] == 1
    assert nc["failed"] == {"parent": 0, "change": 0}
    assert doc["workloads"]["arc-sweep"]["failed"] == {"parent": 0, "change": 1}


def test_main_refuses_traced_results(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text(json.dumps(result("w", 1, 1.0, trace=1)))
    argv = ["--parent", str(path), "--change", str(path), "--out", str(tmp_path / "o.json")]
    assert bench_pair.main(argv) == 2
    assert "traced" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_workload_on_one_side_is_refused():
    with pytest.raises(ValueError, match="both sides"):
        bench_pair.bench_pair([result("w", 1, 1.0)], [result("v", 1, 1.0)], {})
