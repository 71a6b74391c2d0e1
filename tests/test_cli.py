import csv
import gc
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from spanner_forge import cli, graph, prune
from spanner_forge.cli import (
    ParseError,
    _build_parser,
    main,
    parse_pointset,
    write_pointset,
    write_report,
)
from spanner_forge.geom import PointSet
from spanner_forge.prune import PruneParams, delta_growth

from conftest import random_points


def test_pointset_round_trip(tmp_path):
    X = PointSet(np.random.default_rng(0).random((100, 3)))
    path = tmp_path / "pts.txt"
    write_pointset(X, path)
    Y = parse_pointset(path)
    assert np.array_equal(X.coords, Y.coords)  # bitwise equal at 17 digits


def test_pointset_row_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n0 0\n1 0\n")
    with pytest.raises(ParseError) as exc:
        parse_pointset(path)
    assert exc.value.lineno == 4


def test_pointset_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("banana\n")
    with pytest.raises(ParseError):
        parse_pointset(path)


def test_generate_build_verify_cycle(tmp_path):
    inst = str(tmp_path / "inst.txt")
    assert main(["generate", "--family", "random", "--n", "60", "--d", "2",
                 "--seed", "3", "--out", inst]) == 0
    assert os.path.exists(inst + ".meta.json")
    edges = str(tmp_path / "greedy.edges")
    assert main(["build", "--builder", "greedy", "--eps", "0.3",
                 "--in", inst, "--out", edges]) == 0
    assert main(["verify", "--in", inst, "--edges", edges, "--t", "1.3"]) == 0
    # a tree won't satisfy an absurd bound: failed verification exits 1
    assert main(["verify", "--in", inst, "--edges", edges, "--t", "1.0000001"]) == 1


def test_build_witness_and_prune(tmp_path):
    inst = str(tmp_path / "sp.txt")
    assert main(["generate", "--family", "sparsity-lb", "--eps", "0.02",
                 "--out", inst]) == 0
    we = str(tmp_path / "w.edges")
    assert main(["build", "--builder", "witness", "--eps", "0.02",
                 "--in", inst, "--out", we]) == 0
    assert main(["verify", "--in", inst, "--edges", we, "--t", "1.02"]) == 0
    pe = str(tmp_path / "p.edges")
    assert main(["build", "--builder", "prune", "--eps", "0.02", "--k", "1",
                 "--in", inst, "--out", pe]) == 0
    nt = str(tmp_path / "nt.edges")
    assert main(["build", "--builder", "net-tree", "--eps", "0.5",
                 "--in", inst, "--out", nt]) == 0
    assert main(["verify", "--in", inst, "--edges", nt, "--t", "1.5"]) == 0


def test_compare_sparsity_lb_frozen_ratio(tmp_path):
    # derived: at eps=0.02 the construction has k=1 per side, so greedy
    # builds 5 edges against the 8-edge witness (ratio 5/8, not > 1;
    # the ratio only exceeds 1 once k >= 4, i.e. eps below ~1e-4)
    inst = str(tmp_path / "sp.txt")
    main(["generate", "--family", "sparsity-lb", "--eps", "0.02", "--out", inst])
    rep = str(tmp_path / "cmp.json")
    rc = main(["compare", "--in", inst, "--eps", "0.02",
               "--builders", "greedy,witness", "--out", rep])
    assert rc == 0
    data = json.load(open(rep))
    rows = {r["builder"]: r for r in data["rows"]}
    assert rows["greedy"]["edge_count"] == 5
    assert rows["witness"]["edge_count"] == 8
    assert rows["greedy"]["edge_ratio_vs_witness"] == pytest.approx(5 / 8)


def test_compare_reports_identical_modulo_timestamp(tmp_path):
    inst = str(tmp_path / "sp.txt")
    main(["generate", "--family", "sparsity-lb", "--eps", "0.02", "--out", inst])
    rep = str(tmp_path / "a.json")
    args = ["compare", "--in", inst, "--eps", "0.02", "--builders",
            "greedy,witness", "--out", rep]
    main(args)
    a = json.load(open(rep))
    main(args)
    b = json.load(open(rep))
    a.pop("timestamp"), b.pop("timestamp")
    assert a == b


def test_sweep_lightness_slope_and_csv_schema(tmp_path):
    csvf = str(tmp_path / "sweep.csv")
    gp = str(tmp_path / "sweep.gp")
    summ = str(tmp_path / "sweep.json")
    rc = main(["sweep", "--family", "lightness-lb",
               "--eps-list", "0.04,0.02,0.01",
               "--builders", "greedy,witness", "--out", csvf,
               "--gnuplot", gp, "--summary-out", summ])
    assert rc == 0
    header = open(csvf).readline().strip().split(",")
    for field in ("edge_count", "sparsity", "weight", "mst_weight",
                  "lightness", "max_stretch", "witness_pair"):
        assert field in header
    [entry] = json.load(open(summ))["slope"]
    assert entry["x"] is None
    assert 0.6 <= entry["slope"] <= 1.2
    # one line per builder, each reading its own rows of the plotted column
    script = open(gp).read()
    assert "set ylabel 'weight'" in script and "ratio" not in script
    for b in ("greedy", "witness"):
        assert f"strcol('builder') eq '{b}' ? column('weight')" in script
        assert f"title '{b}'" in script


def test_sweep_json_out_records_config_and_csv_rows(tmp_path):
    argv = ["sweep", "--family", "random", "--n", "20", "--eps-list", "0.5,0.3",
            "--builders", "greedy,net-tree", "--out"]
    rep, csvf = tmp_path / "sw.json", tmp_path / "sw.csv"
    assert main(argv + [str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert set(doc) == {"config", "timestamp", "rows"}
    assert doc["config"]["command"] == "sweep" and doc["config"]["out"] == str(rep)
    # the CSV form holds the same rows and nothing else
    assert main(argv + [str(csvf)]) == 0
    with open(csvf, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [set(r) for r in rows] == [set(r) for r in doc["rows"]]
    assert [r["builder"] for r in rows] == ["greedy", "net-tree"] * 2


def test_sweep_x_list_gives_one_slope_per_x(tmp_path, capsys):
    summ = tmp_path / "sweep.json"
    csvf, gp = tmp_path / "sweep.csv", tmp_path / "sweep.gp"
    assert main(["sweep", "--family", "lightness-lb-x", "--eps-list", "0.02,0.01",
                 "--x-list", "2,2.5", "--builders", "greedy,witness",
                 "--out", str(csvf), "--gnuplot", str(gp),
                 "--summary-out", str(summ)]) == 0
    # one line per (builder, x), each reading the rows of its builder and x
    plot = gp.read_text().split("plot ", 1)[1]
    assert plot.count("with linespoints") == 4
    for b in ("greedy", "witness"):
        for x in ("2", "2.5"):
            assert (f"strcol('builder') eq '{b}' && column('x') == {float(x)!r}"
                    f" ? column('weight') : NaN) with linespoints title '{b} x={x}'") in plot
    assert {r["x"] for r in csv.DictReader(csvf.open())} == {"2.0", "2.5"}
    slopes = json.loads(summ.read_text())["slope"]
    assert [e["x"] for e in slopes] == [2.0, 2.5]
    assert slopes[0]["slope"] != slopes[1]["slope"]
    out = capsys.readouterr().out
    for e, x in zip(slopes, ("2", "2.5")):
        assert f"vs 1/eps at x={x}: {e['slope']:.3f}" in out
    # each x's slope is the one a sweep over that x alone reports
    for e in slopes:
        one = tmp_path / f"x{e['x']}.json"
        main(["sweep", "--family", "lightness-lb-x", "--eps-list", "0.02,0.01",
              "--x-list", str(e["x"]), "--builders", "greedy,witness",
              "--summary-out", str(one)])
        assert json.loads(one.read_text())["slope"] == [e]


def test_verify_has_no_size_cap(tmp_path):
    n = 5001
    X = PointSet(np.arange(float(n))[:, None])
    inst, edges, rep = tmp_path / "line.txt", tmp_path / "path.edges", tmp_path / "v.json"
    write_pointset(X, inst)
    edges.write_text("".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    assert main(["verify", "--in", str(inst), "--edges", str(edges), "--t", "1.0",
                 "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["max_stretch"] == 1.0


def test_verify_csv_report_exits_2_without_writing(tmp_path):
    # a verify report has no rows to put in a CSV file
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "30", "--seed", "1", "--out", inst])
    edges = str(tmp_path / "g.edges")
    main(["build", "--builder", "greedy", "--eps", "0.5", "--in", inst, "--out", edges])
    out = tmp_path / "r.csv"
    assert main(["verify", "--in", inst, "--edges", edges, "--t", "1.5",
                 "--out", str(out)]) == 2
    assert not out.exists()
    with pytest.raises(ValueError, match="rows"):
        write_report({"max_stretch": 1.0}, out)


@pytest.mark.parametrize("line", ["0 30", "999 0"])
def test_edge_index_out_of_range_exits_2(tmp_path, capsys, line):
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "30", "--seed", "1", "--out", inst])
    edges = tmp_path / "bad.edges"
    edges.write_text(f"0 1\n{line}\n")
    assert main(["verify", "--in", inst, "--edges", str(edges), "--t", "1.5"]) == 2
    assert "line 2" in capsys.readouterr().err
    # a witness sidecar goes through the same reader when a witness builder runs
    (tmp_path / "r.txt.witness").write_text(f"{line}\n")
    assert main(["compare", "--in", inst, "--eps", "0.5", "--builders", "greedy,witness"]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("points, edges, bad, message", [
    ("", "", "pts.txt", "line 1: empty file"),
    ("2 two\n", "", "pts.txt", "line 1: header must be two integers"),
    ("2 0\n", "", "pts.txt", "line 1: header needs d >= 1 and n >= 1"),
    ("2 -1\n", "", "pts.txt", "line 1: header needs d >= 1 and n >= 1"),
    ("2 2\n0 0\n1\n", "", "pts.txt", "line 3: expected 2 coordinates"),
    ("2 2\n0 0\n1 z\n", "", "pts.txt", "line 3: bad coordinate"),
    ("2 1\n\n0 0\n1 1\n", "", "pts.txt", "line 4: more than 1 rows"),  # blank lines count
    ("2 2\n0 0\n1 1\n", "0 1 1\n", "e.edges", "line 1: expected 'u v'"),
    ("2 2\n0 0\n1 1\n", "# u v\n0 one\n", "e.edges", "line 2: bad index"),
    ("2 3\n0 0\n1 1\n2 0\n", "0 1\n2 2\n", "e.edges", "line 2: self-loop at vertex 2"),
    ("2 3\n0 0\n1 1\n2 0\n", "0 1\n\n1 0\n", "e.edges", "line 3: parallel edge (0,1)"),
    ("2 2\n0 0\nnan 1\n", "", "pts.txt", "line 3: coordinates must be finite"),
    ("2 2\n0 0\n\n1 -inf\n", "", "pts.txt", "line 4: coordinates must be finite"),
    ("2 2\n0 0\n1 \xff\n", "", "pts.txt", "line 3: non-ASCII byte 0xff"),
    ("2 2\n0 0\n1 1\n", "0 1\n# \xe9\n", "e.edges", "line 2: non-ASCII byte 0xe9"),
])
def test_malformed_input_files_exit_2_with_line(tmp_path, capsys, points, edges, bad, message):
    # latin-1 writes each character below 256 as the one byte of that value
    (tmp_path / "pts.txt").write_bytes(points.encode("latin-1"))
    (tmp_path / "e.edges").write_bytes(edges.encode("latin-1"))
    argv = ["verify", "--in", str(tmp_path / "pts.txt"), "--edges", str(tmp_path / "e.edges"),
            "--t", "1.5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / bad}: {message}\n"


def test_reports_record_resolved_prune_params(tmp_path):
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "30", "--seed", "1", "--out", inst])
    rep = tmp_path / "cmp.json"
    main(["compare", "--in", inst, "--eps", "0.1", "--builders", "greedy,prune",
          "--kappa", "10000", "--out", str(rep)])
    assert json.loads(rep.read_text())["config"]["prune"] == {
        "delta": None, "alpha": None, "kappa": 1e4,
    }
    summary = tmp_path / "sweep.json"
    main(["sweep", "--family", "random", "--n", "30", "--eps-list", "0.3,0.2",
          "--builders", "greedy,prune", "--kappa", "20", "--summary-out", str(summary)])
    assert json.loads(summary.read_text())["config"]["prune"] == {
        "delta": None, "alpha": None, "kappa": 20.0,
    }
    # without a prune builder a report records only the flags given
    main(["compare", "--in", inst, "--eps", "0.1", "--builders", "greedy",
          "--kappa", "20", "--out", str(rep)])
    assert json.loads(rep.read_text())["config"]["prune"] == {"kappa": 20.0}


def test_report_configs_pinned(tmp_path, monkeypatch):
    # every key and value of each report's config, and the sweep CSV's columns
    monkeypatch.chdir(tmp_path)
    main(["generate", "--family", "random", "--n", "30", "--seed", "1", "--out", "r.txt"])
    main(["generate", "--family", "random", "--n", "30", "--seed", "1",
          "--distribution", "clustered", "--copies", "2", "--out", "rc.txt"])
    main(["generate", "--family", "lightness-lb-x", "--eps", "0.02", "--out", "a.txt"])
    main(["build", "--builder", "greedy", "--eps", "0.5", "--in", "r.txt", "--out", "g.edges"])
    main(["verify", "--in", "r.txt", "--edges", "g.edges", "--t", "1.5", "--out", "v.json"])
    main(["compare", "--in", "r.txt", "--eps", "0.3", "--builders", "greedy,prune",
          "--kappa", "20", "--out", "c.json"])
    main(["sweep", "--family", "random", "--n", "30", "--eps-list", "0.3,0.2",
          "--builders", "greedy,net-tree", "--out", "s.csv", "--summary-out", "s.json"])

    def config(path):
        return json.loads((tmp_path / path).read_text())["config"]

    generate = {"command": "generate", "family": "random", "eps": 0.01, "x": None, "n": 30,
                "d": 2, "seed": 1, "distribution": "uniform", "copies": 1, "out": "r.txt",
                "prune": {}}
    assert config("r.txt.meta.json") == generate
    assert config("rc.txt.meta.json") == {**generate, "distribution": "clustered",
                                          "copies": 2, "out": "rc.txt"}
    assert config("a.txt.meta.json") == {**generate, "family": "lightness-lb-x",
                                         "eps": 0.02, "x": 2.0, "n": 100, "seed": 0,
                                         "out": "a.txt"}
    assert config("v.json") == {"command": "verify", "instance": "r.txt", "edges": "g.edges",
                                "t": 1.5, "out": "v.json", "prune": {}}
    assert config("c.json") == {
        "command": "compare", "instance": "r.txt", "eps": 0.3, "x": None, "k": 1,
        "builders": ["greedy", "prune"], "witness": None, "out": "c.json",
        "prune": {"delta": None, "alpha": None, "kappa": 20.0},
    }
    assert config("s.json") == {
        "command": "sweep", "family": "random", "eps_list": [0.3, 0.2], "x_list": None,
        "n": 30, "d": 2, "seed": 0, "distribution": "uniform", "k": 1,
        "builders": ["greedy", "net-tree"], "out": "s.csv", "summary_out": "s.json",
        "gnuplot": None, "prune": {},
    }
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == (
        "eps,x,builder,edge_count,sparsity,weight,mst_weight,lightness,"
        "max_stretch,witness_pair,ok"
    )


def test_prune_flags_are_params_fields():
    args = _build_parser().parse_args(
        ["build", "--builder", "prune", "--eps", "0.1", "--in", "i", "--out", "o"]
    )
    other = {"command", "func", "builder", "eps", "k", "instance", "witness", "out"}
    assert set(vars(args)) - other == {f.name for f in fields(PruneParams)} - {"eps"}


_REJECTED_PRUNE_FLAGS = {  # flag -> the value it is given
    "--kappa-eff": "5", "--alpha-log-const": "5", "--logstar-const": "5",
    "--constant-mode": "5", "--hop-cap": "5", "--iterations": "5", "--config": "p.cfg",
    # every pruning flag takes a plain number, with no "none" to clear it
    "--alpha": "none", "--delta": "none",
}


@pytest.mark.parametrize("flag", _REJECTED_PRUNE_FLAGS)
def test_removed_prune_flags_exit_2(flag):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--in", "inst.txt", "--eps", "0.1", "--builders", "prune",
              flag, _REJECTED_PRUNE_FLAGS[flag]])
    assert exc.value.code == 2


def test_kappa_none_exits_2():
    # kappa, like every pruning flag, is always a number
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--in", "inst.txt", "--eps", "0.1", "--builders", "prune",
              "--kappa", "none"])
    assert exc.value.code == 2


def test_kappa_flag_reaches_pipeline(tmp_path, monkeypatch):
    # an explicit kappa reaches the delta chain unchanged; two rounds
    # make one update, between them
    seen = []

    def spy(kappa, delta):
        seen.append(kappa)
        return delta_growth(kappa, delta)

    monkeypatch.setattr("spanner_forge.prune.delta_growth", spy)
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "30", "--seed", "1", "--out", inst])
    assert main(["build", "--builder", "prune", "--eps", "0.1", "--k", "2",
                 "--kappa", "20", "--in", inst, "--out", str(tmp_path / "p.edges")]) == 0
    assert seen == [20.0]


@pytest.mark.parametrize(
    "flags", [["--alpha", "0"], ["--delta", "nan"], ["--kappa", "1"]]
)
def test_bad_prune_values_exit_2_before_building(tmp_path, monkeypatch, flags):
    def no_seed(*args, **kwargs):
        raise AssertionError("seed built before the parameters were checked")

    monkeypatch.setattr("spanner_forge.prune.path_greedy", no_seed)
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "30", "--seed", "1", "--out", inst])
    out = tmp_path / "p.edges"
    assert main(["build", "--builder", "prune", "--eps", "0.1", "--in", inst,
                 "--out", str(out)] + flags) == 2
    assert not out.exists()


def test_build_rejects_non_finite_eps(tmp_path):
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "30", "--seed", "1",
          "--out", inst])
    for eps in ("nan", "inf"):
        assert main(["build", "--builder", "greedy", "--eps", eps, "--in", inst,
                     "--out", str(tmp_path / "g.edges")]) == 2
    assert not os.path.exists(tmp_path / "g.edges")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--t", "nan"],
        ["verify", "--t", "inf"],
        ["compare", "--builders", "greedy", "--eps", "0.5", "--x", "nan"],
        ["compare", "--builders", "greedy", "--eps=-inf"],
        ["sweep", "--family", "random", "--n", "20", "--eps-list", "0.5,nan"],
        ["sweep", "--family", "lightness-lb-x", "--eps-list", "0.05", "--x-list", "2,inf"],
        ["generate", "--family", "sparsity-lb-x", "--eps", "0.05", "--x", "inf"],
        ["compare", "--builders", "greedy", "--eps", "0.5", "--x", "0"],
        ["compare", "--builders", "greedy", "--eps", "0.5", "--x=-1"],
        ["sweep", "--family", "random", "--n", "20", "--eps-list", "0.5", "--x-list", "0.5,0"],
    ],
    ids=["verify-t-nan", "verify-t-inf", "compare-x-nan", "compare-eps-neg-inf",
         "sweep-eps-list-nan", "sweep-x-list-inf", "generate-x-inf",
         "compare-x-0", "compare-x-neg", "sweep-x-list-0"],
)
def test_non_finite_bound_exits_2_without_report(tmp_path, argv):
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "20", "--seed", "1", "--out", inst])
    edges = str(tmp_path / "g.edges")
    main(["build", "--builder", "greedy", "--eps", "0.5", "--in", inst, "--out", edges])
    source = {"verify": ["--in", inst, "--edges", edges], "compare": ["--in", inst]}
    out = tmp_path / "report.json"
    assert main(argv + source.get(argv[0], []) + ["--out", str(out)]) == 2
    assert not out.exists()


def test_compare_checks_rows_against_x_as_given(tmp_path):
    # greedy's stretch at eps=0.5 (about 1.48) is within 1 + 0.5 * 1 but
    # not within 1 + 0.5 * 0.5
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "20", "--seed", "1", "--out", inst])
    out = tmp_path / "report.json"
    base = ["compare", "--in", inst, "--builders", "greedy", "--eps", "0.5", "--out", str(out)]
    assert main(base) == 0
    stretch = json.load(open(out))["rows"][0]["max_stretch"]
    assert 1.25 < stretch <= 1.5
    assert main(base + ["--x", "0.5"]) == 1
    data = json.load(open(out))
    assert data["config"]["x"] == 0.5 and data["rows"][0]["ok"] is False


def test_generate_x_only_for_x_families(tmp_path):
    out = tmp_path / "s.txt"
    argv = ["generate", "--family", "sparsity-lb", "--eps", "0.05", "--out", str(out)]
    assert main(argv + ["--x", "123"]) == 2
    assert not out.exists() and not os.path.exists(str(out) + ".meta.json")
    assert main(argv) == 0
    assert json.load(open(str(out) + ".meta.json"))["config"]["x"] is None
    argv[2] = "sparsity-lb-x"
    for extra, want in (([], 1.0), (["--x", "2"], 2.0)):
        assert main(argv + extra) == 0
        assert json.load(open(str(out) + ".meta.json"))["config"]["x"] == want
    # each *-x family has a working default: the generator's own x
    argv[2:5] = ["lightness-lb-x", "--eps", "0.01"]
    for extra, want in (([], 2.0), (["--x", "3"], 3.0)):
        assert main(argv + extra) == 0
        assert json.load(open(str(out) + ".meta.json"))["config"]["x"] == want


@pytest.mark.parametrize("copies", ["0", "-1"])
def test_generate_copies_below_one_exits_2_without_writing(tmp_path, monkeypatch, capsys,
                                                          copies):
    # refused before the instance is generated
    def no_instance(*args, **kwargs):
        raise AssertionError("instance generated before --copies was checked")

    monkeypatch.setattr(cli, "gen_random", no_instance)
    out = tmp_path / "r.txt"
    assert main(["generate", "--family", "random", "--n", "30", "--seed", "1",
                 "--copies", copies, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --copies must be at least 1, got {copies}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "--eps", "0.3", "--builders", "greedy,prune", "--out", "bad.json"],
        ["compare", "--eps", "0.3", "--builders", "prune", "--out", "bad.json"],
        ["build", "--eps", "0.3", "--builder", "prune", "--out", "bad.edges"],
    ],
    ids=["compare-greedy-prune", "compare-prune", "build-prune"],
)
def test_negative_k_exits_2_before_any_builder(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    main(["generate", "--family", "random", "--n", "20", "--seed", "1", "--out", "r.txt"])
    before = set(tmp_path.iterdir())
    called = _spy_builders(monkeypatch)
    assert main([*argv, "--in", "r.txt", "--k", "-1"]) == 2
    assert called == []
    assert set(tmp_path.iterdir()) == before
    assert capsys.readouterr().err == "error: --k must be at least 0, got -1\n"


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--out", ["verify", "--in", "r.txt", "--edges", "g.edges", "--t", "1.5"]),
        ("--summary-out", ["sweep", "--family", "lightness-lb", "--eps-list", "0.04,0.02"]),
    ],
    ids=["verify", "sweep"],
)
def test_report_without_csv_form_exits_2_before_any_work(tmp_path, monkeypatch, capsys, flag,
                                                         argv):
    # a verification and a sweep summary are not lists of rows
    monkeypatch.chdir(tmp_path)
    main(["generate", "--family", "random", "--n", "30", "--seed", "1", "--out", "r.txt"])
    main(["build", "--builder", "greedy", "--eps", "0.5", "--in", "r.txt", "--out", "g.edges"])
    before = set(tmp_path.iterdir())

    def no_work(*args, **kwargs):
        raise AssertionError("work done before the report's path was checked")

    for name in ("verify_stretch", "gen_lightness_lb"):
        monkeypatch.setattr(cli, name, no_work)
    called = _spy_builders(monkeypatch)
    assert main([*argv, flag, "bad.csv"]) == 2
    assert called == []
    assert set(tmp_path.iterdir()) == before
    assert capsys.readouterr().err == (
        f"error: {flag} writes a JSON report, which has no CSV form, got {flag} bad.csv\n")


@pytest.mark.parametrize(
    "flag, argv",
    [
        ("--eps-list", ["--family", "lightness-lb", "--eps-list", "0.04,0.02,0.04"]),
        ("--eps-list", ["--family", "lightness-lb", "--eps-list", "0.04,0.04"]),
        ("--x-list", ["--family", "lightness-lb-x", "--eps-list", "0.05", "--x-list", "2,3,2"]),
    ],
    ids=["eps-list-apart", "eps-list-twice", "x-list"],
)
def test_sweep_repeated_list_value_exits_2_before_any_work(tmp_path, monkeypatch, capsys, flag,
                                                           argv):
    # a repeat would be built twice, its rows written twice, and fitted once
    monkeypatch.chdir(tmp_path)

    def no_instance(*args, **kwargs):
        raise AssertionError("instance generated before the lists were checked")

    for name in ("gen_lightness_lb", "gen_lightness_lb_x"):
        monkeypatch.setattr(cli, name, no_instance)
    assert main(["sweep", *argv, "--out", "s.json", "--summary-out", "sum.json"]) == 2
    value = argv[argv.index(flag) + 1]
    assert capsys.readouterr().err == (
        f"error: {flag} lists a value more than once, got {[float(v) for v in value.split(',')]}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out", [None, "s.json"])
def test_sweep_gnuplot_without_csv_out_exits_2_without_writing(tmp_path, monkeypatch, capsys,
                                                               out):
    # the script reads comma-separated rows, which only a .csv --out holds
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--family", "lightness-lb", "--eps-list", "0.04,0.02",
            "--builders", "greedy,witness", "--gnuplot", "g.gp"]
    assert main(argv + (["--out", out] if out else [])) == 2
    err = capsys.readouterr().err
    assert err == f"error: --gnuplot plots the rows of a CSV --out, got --out {out}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--family", "lightness-lb", "--eps", "0.05", "--x", "2"],
        ["sweep", "--family", "lightness-lb", "--eps-list", "0.05", "--x-list", "2,3"],
    ],
    ids=["generate-x", "sweep-x-list"],
)
def test_x_flags_only_for_x_families(tmp_path, monkeypatch, capsys, argv):
    # one check, made before any instance is generated
    def no_instance(*args, **kwargs):
        raise AssertionError("instance generated before its x was checked")

    monkeypatch.setattr(cli, "gen_lightness_lb", no_instance)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert f"{argv[-2]} applies only to the *-x families, not lightness-lb" in capsys.readouterr().err


def _spy_builders(monkeypatch) -> list:
    """Replace the CLI's builders by spies that record each call, then build."""
    called = []
    for name in ("path_greedy", "build_hierarchy", "greedy_prune"):
        def spy(*args, _name=name, _real=getattr(cli, name), **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    return called


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_unknown_builder_exits_2_before_any_builder(tmp_path, monkeypatch, capsys, command):
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "20", "--seed", "1", "--out", inst])
    called = _spy_builders(monkeypatch)
    source = {"compare": ["--in", inst, "--eps", "0.5"],
              "sweep": ["--family", "random", "--n", "20", "--eps-list", "0.5"]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--builders", "greedy,bogus"])
    assert exc.value.code == 2
    assert called == []
    assert "unknown builder 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_missing_witness_exits_2_before_any_builder(tmp_path, monkeypatch, capsys, command):
    # random instances have no witness; sweep's default builders are greedy,witness
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "20", "--seed", "1", "--out", inst])
    called = _spy_builders(monkeypatch)
    argv = {"compare": ["compare", "--in", inst, "--eps", "0.5", "--builders", "greedy,witness"],
            "sweep": ["sweep", "--family", "random", "--n", "20", "--eps-list", "0.5"]}[command]
    assert main(argv) == 2
    assert called == []
    assert "no witness available" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["compare", "--eps", "0.1", "--builders", "greedy", "--out", "c.json"],
    ["build", "--eps", "0.1", "--builder", "greedy", "--out", "g.edges"],
], ids=["compare", "build"])
def test_witness_sidecar_unread_without_witness_builder(tmp_path, monkeypatch, argv):
    # a malformed sidecar matters only to a witness builder
    monkeypatch.chdir(tmp_path)
    main(["generate", "--family", "random", "--n", "20", "--seed", "1", "--out", "r.txt"])
    Path("r.txt.witness").write_text("0 1\n0 0\n")
    assert main([*argv, "--in", "r.txt"]) == 0
    assert main(["compare", "--in", "r.txt", "--eps", "0.1", "--builders", "greedy,witness"]) == 2


@pytest.mark.parametrize("argv", [
    ["compare", "--eps", "0.1", "--builders", "greedy,witness"],
    ["build", "--eps", "0.1", "--builder", "witness", "--out", "w.edges"],
], ids=["compare", "build"])
def test_missing_witness_file_exits_2_naming_it(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    main(["generate", "--family", "sparsity-lb", "--eps", "0.02", "--out", "s.txt"])
    capsys.readouterr()
    called = _spy_builders(monkeypatch)
    assert main([*argv, "--in", "s.txt", "--witness", "typo.edges"]) == 2
    assert called == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "typo.edges" in err


@pytest.mark.parametrize("command", ["compare", "sweep"])
def test_repeated_builder_exits_2_before_any_work(tmp_path, monkeypatch, capsys, command):
    # a repeat would be built, measured and written twice
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "20", "--seed", "1", "--out", inst])
    called = _spy_builders(monkeypatch)

    def no_instance(*args, **kwargs):
        raise AssertionError("instance read before the builders were checked")

    for name in ("parse_pointset", "gen_random"):
        monkeypatch.setattr(cli, name, no_instance)
    source = {"compare": ["--in", inst, "--eps", "0.5"],
              "sweep": ["--family", "random", "--n", "20", "--eps-list", "0.5"]}[command]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *source, "--builders", "greedy,net-tree,greedy", "--out", str(out)])
    assert exc.value.code == 2
    assert called == []
    assert not out.exists()
    assert "a builder is named more than once in 'greedy,net-tree,greedy'" in capsys.readouterr().err


def test_prune_rounds_whose_parameters_overflow_exit_2(tmp_path, capsys):
    # at eps=0.1 and kappa 10 round 7's delta overflows; six rounds run,
    # to a stretch above 1 + eps
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "60", "--seed", "1", "--out", inst])
    argv = ["compare", "--in", inst, "--eps", "0.1", "--builders", "prune"]
    assert main([*argv, "--k", "6"]) == 1
    capsys.readouterr()
    assert main([*argv, "--k", "7"]) == 2
    assert capsys.readouterr().err.startswith("error: the parameters of round 7 are not finite")


def test_sweep_x_family_checks_the_x_it_used(tmp_path):
    out = tmp_path / "rows.json"
    argv = ["sweep", "--family", "lightness-lb-x", "--eps-list", "0.01",
            "--builders", "witness", "--out", str(out)]
    assert main(argv) == 0
    rows = json.load(open(out))["rows"]
    assert [row["x"] for row in rows] == [2.0]
    assert rows[0]["max_stretch"] <= 1.0 + 0.01 * 2.0 + 1e-9


def test_compare_net_tree_reads_columns_only(tmp_path, monkeypatch):
    # the graph compare hands to metrics never builds its tuple list
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "60", "--seed", "2", "--out", inst])
    seen = []

    def capture(G, X, *args, **kwargs):
        seen.append(G)
        return graph.metrics(G, X, *args, **kwargs)

    monkeypatch.setattr(cli, "metrics", capture)
    assert main(["compare", "--in", inst, "--builders", "net-tree", "--eps", "0.5"]) == 0
    assert len(seen) == 1 and len(seen[0].u) > 0
    assert seen[0]._edges is None


def test_sweep_scans_each_point_set_once(monkeypatch):
    # greedy and witness rows share their point set, and so its EMST scan
    prim = graph._prim_weight
    scanned, seen = [], []

    def counting(X):
        scanned.append(X)
        return prim(X)

    def capture(G, X, *args, **kwargs):
        seen.append(X)
        return graph.metrics(G, X, *args, **kwargs)

    monkeypatch.setattr(graph, "_prim_weight", counting)
    monkeypatch.setattr(cli, "metrics", capture)
    argv = ["sweep", "--family", "lightness-lb", "--eps-list", "0.04,0.02",
            "--builders", "greedy,witness"]
    assert main(argv) == 0
    assert len(seen) == 4 and seen[0] is seen[1] and seen[2] is seen[3]
    assert len(scanned) == 2 and scanned[0] is seen[0] and scanned[1] is seen[2]
    for X in scanned:
        assert X._emst == prim(X)


def test_build_has_no_x_flag(tmp_path):
    # builders take no x, and build writes no report to record it in
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "20", "--seed", "1", "--out", inst])
    out = tmp_path / "g.edges"
    with pytest.raises(SystemExit) as exc:
        main(["build", "--builder", "greedy", "--eps", "0.5", "--x", "7", "--in", inst,
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_missing_input_is_io_error(tmp_path):
    assert main(["build", "--builder", "greedy", "--eps", "0.1",
                 "--in", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "o.edges")]) == 2


def test_compare_prune_k0_returns_greedy_seed(tmp_path):
    # --k 0 runs no pruning round: the prune row is the greedy seed
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "60", "--seed", "4",
          "--out", inst])
    rep = str(tmp_path / "cmp.json")
    main(["compare", "--in", inst, "--eps", "0.1", "--k", "0",
          "--builders", "greedy,prune", "--out", rep])
    data = json.load(open(rep))
    rows = {r["builder"]: r for r in data["rows"]}
    assert data["config"]["k"] == 0
    assert rows["prune"]["edge_count"] == rows["greedy"]["edge_count"]
    assert rows["prune"]["weight"] == rows["greedy"]["weight"]


@pytest.mark.parametrize("builders", ["greedy,prune", "prune,greedy", "prune"])
def test_greedy_built_once_per_instance_and_seeds_prune(tmp_path, monkeypatch, builders):
    # greedy is built once per instance, by the greedy builder, whichever
    # of greedy and prune are named; each named builder's rows equal
    # those of that builder run on its own
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "40", "--seed", "3", "--out", inst])
    runs = {
        "compare": ["compare", "--in", inst, "--eps", "0.3", "--kappa", "20"],
        "sweep": ["sweep", "--family", "random", "--n", "40", "--seed", "3",
                  "--eps-list", "0.5,0.3", "--kappa", "20"],
    }
    names = builders.split(",")
    alone = {}
    for command, argv in runs.items():
        for name in names:
            out = tmp_path / f"{command}-{name}.json"
            main([*argv, "--builders", name, "--out", str(out)])
            alone[command, name] = json.load(open(out))["rows"]
    calls = []
    for module in (cli, prune):
        def counting(*args, _module=module, _real=module.path_greedy, **kwargs):
            calls.append(_module)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, "path_greedy", counting)
    for command, argv in runs.items():
        calls.clear()
        out = tmp_path / f"{command}.json"
        main([*argv, "--builders", builders, "--out", str(out)])
        rows = json.load(open(out))["rows"]
        instances = 1 if command == "compare" else 2
        assert calls == [cli] * instances
        for name in names:
            assert [row for row in rows if row["builder"] == name] == alone[command, name]


def test_builders_leave_no_spanner_to_the_collector(tmp_path):
    # the builders' memo forms no reference cycle, so its spanners are
    # freed when the run ends, not at the collector's next pass
    inst = str(tmp_path / "r.txt")
    main(["generate", "--family", "random", "--n", "40", "--seed", "3", "--out", inst])
    def spanners():
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, graph.SpannerGraph)}

    gc.collect()
    gc.disable()
    try:
        before = spanners()  # those other tests keep
        assert main(["compare", "--in", inst, "--eps", "0.3", "--kappa", "20",
                     "--builders", "prune,greedy"]) in (0, 1)
        left = spanners() - before
    finally:
        gc.enable()
    assert left == set()


# Run in a fresh interpreter, since this one has loaded scipy already:
# generate and the builds that search no graph leave scipy unloaded, and
# verify and compare load it.  argv[1] is the source directory.
_STARTUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spanner_forge, spanner_forge.cli as cli
def scipy():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
build = ["build", "--eps", "0.5", "--in", "r.txt", "--builder"]
light = [cli.main(argv) for argv in (
    ["generate", "--family", "random", "--n", "30", "--seed", "1", "--out", "r.txt"],
    build + ["greedy", "--out", "g.edges"],
    build + ["net-tree", "--out", "t.edges"],
    build + ["witness", "--witness", "g.edges", "--out", "w.edges"],
)]
before = scipy()
heavy = [cli.main(argv) for argv in (
    ["verify", "--in", "r.txt", "--edges", "g.edges", "--t", "1.5"],
    ["compare", "--in", "r.txt", "--eps", "0.5", "--builders", "greedy,net-tree"],
)]
print(json.dumps({"light": light, "before": before, "heavy": heavy, "after": bool(scipy())}))
"""


def test_scipy_loads_only_for_commands_that_search_a_graph(tmp_path):
    src = Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _STARTUP_CHILD, str(src)], cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got == {"light": [0, 0, 0, 0], "before": [], "heavy": [0, 0], "after": True}
