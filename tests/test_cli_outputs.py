import ast
import importlib.util
import json
import sys
from pathlib import Path

import spanner_forge
from spanner_forge.geom import normalize
from spanner_forge.graph import brute_force_optimal
from spanner_forge.instances import gen_lightness_lb_x, gen_random
from spanner_forge.prune import greedy_prune

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_outputs.py"
_spec = importlib.util.spec_from_file_location("cli_outputs", _PATH)
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)


def test_matrix_outputs_without_timestamps_and_configs_apart(tmp_path):
    out = tmp_path / "out"
    assert cli_outputs.main([str(out)]) == 0
    runs = (out / "runs.txt").read_text().split("$ spanner-forge ")[1:]
    assert len(runs) == len(cli_outputs.MATRIX)
    for run, (code, command) in zip(runs, cli_outputs.MATRIX):
        assert run.startswith(f"{command}\nexit {code}\n")
    assert "wrote 40 points to c.txt" in runs[2]  # --copies 2 of 20 points
    assert runs[-1].endswith("exit 2\nerror: normalization needs at least two points\n")
    reports = [p for p in out.glob("*.json") if not p.name.endswith(".config.json")]
    configs = sorted(out.glob("*.config.json"))
    # 10 instances, 2 verify, 7 compare, 2 sweep summaries and 1 sweep --out
    assert len(configs) == 22
    for path in reports:
        doc = json.loads(path.read_text())
        assert isinstance(doc, dict) and not {"config", "timestamp"} & set(doc)
    for path in configs:
        assert json.loads(path.read_text())["command"] in ("generate", "verify", "compare",
                                                            "sweep")
    assert (out / "swx.gp").exists() and (out / "sw.csv").exists()
    assert not {"bad.csv", "bad0.txt", "bad.json", "bad.gp"} & {p.name for p in out.iterdir()}
    # a second run never mixes its outputs with the first's
    assert cli_outputs.main([str(out)]) == 2


# Package functions that neither the CLI matrix nor the benchmark's library
# calls reach, each with the reason it stays.
_CLUSTER_GRAPH = ("the paper's cluster graph, which pruning no longer uses; "
                  "perfbench traces build_cluster_graph and cluster_dist by name")
UNREACHED = {
    "cli.ParseError.__init__": "error constructor; a malformed instance file raises it",
    "cli._with_x": "runs at import, while _FAMILIES is built",
    "geom.PointSet.__repr__": "__repr__",
    "geom.region_codes": "perfbench traces it; the band tests use it as their reference",
    "graph.BadEdge.__init__": "error constructor; a self-loop or repeated edge raises it",
    "graph.Disconnected.__init__": "error constructor; a disconnected graph raises it",
    "graph.SpannerGraph.__init__": "the row constructor: path_greedy below two points, "
                                   "perfbench's self-test and the tests",
    "graph.SpannerGraph.__repr__": "__repr__",
    "graph.SpannerGraph.edge_set": "perfbench reads it in its phase-1 span",
    "graph.SpannerGraph.edges": "perfbench reads it in its spans and output checks",
    "nets.ClusterGraph.__init__": _CLUSTER_GRAPH,
    "nets.ClusterGraph.add_bridges": _CLUSTER_GRAPH,
    "nets.build_cluster_graph": _CLUSTER_GRAPH,
    "nets.cluster_dist": _CLUSTER_GRAPH,
    "prune._helper": "phase 2's keep path, for a type-2 edge no short detour replaces",
}


def _package_functions() -> dict:
    """(file, first line) -> "module.name" of every top-level function and
    method of a top-level class; a decorated one starts at its decorator."""
    out = {}
    for path in sorted(Path(spanner_forge.__file__).resolve().parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                members = [("", node)]
            elif isinstance(node, ast.ClassDef):
                members = [(node.name + ".", m) for m in node.body if isinstance(m, ast.FunctionDef)]
            else:
                members = []
            for prefix, f in members:
                first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                out[(str(path), first)] = f"{path.stem}.{prefix}{f.name}"
    return out


def test_every_package_function_is_reached_or_named(tmp_path):
    # the CLI matrix, then the library calls of the benchmark's net-clusters
    # and oracle-tiny workloads
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        assert cli_outputs.main([str(tmp_path / "out")]) == 0
        greedy_prune(normalize(gen_lightness_lb_x(0.025, 2.0).points), 0.025, 1)
        X = normalize(gen_random(8, 2, "uniform", 0).points)
        for objective in ("min_edges", "min_weight"):
            brute_force_optimal(X, 0.2, objective=objective)
    finally:
        sys.setprofile(previous)
    reached = {(str(Path(f).resolve()), line) for f, line in called}
    functions = _package_functions()
    assert {name for key, name in functions.items() if key not in reached} == set(UNREACHED)
