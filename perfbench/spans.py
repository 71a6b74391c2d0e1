"""In-memory span recorder and the per-layer metrics derived from it.

The traced run replaces public functions of ``spanner_forge`` with thin
wrappers that open a span around each call.  A function is replaced in
every module of the package that holds a reference to it, so calls that
cross module boundaries (``prune`` calling ``path_greedy``, ``cli``
calling ``normalize``) and the stage calls inside one module
(``metrics`` calling ``verify_stretch``) are both seen.  The package
itself is not modified.

A span is a dict with ``id``, ``parent``, ``name``, ``start``, ``end``
and ``attrs``.  Spans stay in memory and are written as JSONL by
:meth:`Tracer.write_jsonl` when the run ends.  ``attrs`` hold counts
taken from the public return values of the wrapped call (edge counts,
``PhaseReport`` fields, ...), never from package internals.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

LAYERS = ("cli", "instances", "geom", "graph", "nets", "prune")


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# Observers turn (args, kwargs, result) of a wrapped call into span attrs.
def _obs_path_greedy(args, kwargs, G):
    return {"pairs": _pairs(G.n), "edges": len(G.edges)}


def _obs_verify(args, kwargs, result):
    return {"edges": len(args[0].edges)}


def _obs_oracle(args, kwargs, G):
    return {"edges": len(G.edges)}


def _obs_classify(args, kwargs, result):
    type1, type2 = result
    return {"type1": len(type1), "type2": len(type2)}


def _obs_phase1(args, kwargs, result):
    E1, report = result
    seed_edges = args[1].edge_set()
    new_pairs = {tuple(p) for p in E1.meta.get("new_pairs", [])}
    return {
        "substitutes": report.substitutes_added,
        "self_substitutes": len(new_pairs & seed_edges),
        "type1_pruned": report.type1_pruned,
    }


def _obs_phase2(args, kwargs, result):
    _, report = result
    return {
        "type2_total": report.type2_total,
        "type2_kept": report.type2_kept,
        "type2_dropped": report.type2_dropped,
        "helpers_added": report.helpers_added,
    }


def _obs_hierarchy(args, kwargs, H):
    return {"levels": len(H.levels)}


def _obs_net_tree(args, kwargs, G):
    return {"edges": len(G.edges), "pairs": _pairs(G.n)}


# (module, function, span name, observer).  The span name is
# "<layer>.<function>"; the layer is the module that defines the function.
TRACED = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_pointset", "cli.parse_pointset", None),
    ("instances", "gen_random", "instances.generate", None),
    ("instances", "gen_lightness_lb", "instances.generate", None),
    ("instances", "gen_lightness_lb_x", "instances.generate", None),
    ("instances", "gen_motivating", "instances.generate", None),
    ("instances", "gen_sparsity_lb", "instances.generate", None),
    ("geom", "normalize", "geom.normalize", None),
    ("geom", "region_codes", "geom.region_codes", None),
    ("graph", "path_greedy", "graph.path_greedy", _obs_path_greedy),
    ("graph", "verify_stretch", "graph.verify_stretch", _obs_verify),
    ("graph", "emst_weight", "graph.emst_weight", None),
    ("graph", "brute_force_optimal", "graph.brute_force_optimal", _obs_oracle),
    ("nets", "build_hierarchy", "nets.build_hierarchy", _obs_hierarchy),
    ("nets", "build_net_tree_spanner", "nets.build_net_tree_spanner", _obs_net_tree),
    ("nets", "build_cluster_graph", "nets.build_cluster_graph", None),
    ("nets", "cluster_dist", "nets.cluster_dist", None),
    ("prune", "greedy_prune", "prune.greedy_prune", None),
    ("prune", "classify_edges", "prune.classify_edges", _obs_classify),
    ("prune", "phase1", "prune.phase1", _obs_phase1),
    ("prune", "phase2", "prune.phase2", _obs_phase2),
)


class Tracer:
    """Span sink.  Single-threaded: the open spans form a stack."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observe is not None:
                span["attrs"].update(observe(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in :data:`TRACED` wherever the package
        holds a reference to it."""
        modules = [importlib.import_module(f"spanner_forge.{m}") for m in LAYERS]
        for mod_name, fn_name, span_name, observe in TRACED:
            orig = getattr(importlib.import_module(f"spanner_forge.{mod_name}"), fn_name)
            traced = self.wrap(span_name, orig, observe)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, traced)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, hi = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a = max(a, hi)
            if b > a:
                covered += b - a
                hi = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def subtree(spans: list, root_id: int) -> list:
    """The span ``root_id`` and all its descendants (ids are in open order)."""
    keep = {root_id}
    out = []
    for s in spans:
        if s["id"] == root_id or s["parent"] in keep:
            keep.add(s["id"])
            out.append(s)
    return out


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, root: dict) -> dict:
    """Per-layer metrics of one traced iteration rooted at ``root``.

    Every ``*_s`` metric is the summed self time of the named spans;
    ``*_calls`` counts those spans.  Counters:

    - ``graph.greedy_edges``: edges in all ``path_greedy`` outputs.
    - ``graph.greedy_pairs_per_s``: pairs scanned by ``path_greedy``
      (n(n-1)/2 per call) per second of its self time.
    - ``graph.greedy_edge_frac``: greedy edges over pairs scanned.
    - ``graph.verify_edges``: edges of all graphs given to ``verify_stretch``.
    - ``graph.oracle_calls``: ``brute_force_optimal`` calls;
      ``graph.oracle_max_s`` the longest one, children included;
      ``graph.oracle_vs_greedy_edges`` oracle edges over the edges of the
      greedy incumbents those calls built.
    - ``prune.type1_edges`` / ``prune.type2_edges``: sizes of the
      ``classify_edges`` partitions.
    - ``prune.phase1_substitutes``: ``PhaseReport.substitutes_added``;
      ``prune.phase1_self_substitutes`` the new pairs (``E1.meta
      ["new_pairs"]``) that were already edges of the phase-1 input,
      i.e. substitutions that change nothing;
      ``prune.phase1_genuine_frac`` the other substitutions over all.
    - ``prune.type1_pruned``, ``prune.type2_kept``, ``prune.type2_dropped``,
      ``prune.helpers_added``: the ``PhaseReport`` fields of those names;
      ``prune.phase2_drop_frac`` dropped over ``type2_total``.
    - ``nets.hierarchy_levels``: levels of all built net hierarchies.
    - ``nets.net_tree_edges``: edges of all net-tree spanners;
      ``nets.net_tree_pair_frac`` those edges over n(n-1)/2 per spanner.
    - ``<layer>.share``: the layer's self time over the iteration's time.
    """
    sub = subtree(spans, root["id"])
    st = self_times(sub)
    total = root["end"] - root["start"]
    by_name: dict = {}
    for s in sub:
        by_name.setdefault(s["name"], []).append(s)

    def secs(name):
        return sum(st[s["id"]] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in by_name.get(name, ()))

    m = {}
    greedy_s = secs("graph.path_greedy")
    pairs = attr("graph.path_greedy", "pairs")
    m["graph.path_greedy_s"] = greedy_s
    m["graph.path_greedy_calls"] = calls("graph.path_greedy")
    m["graph.greedy_edges"] = attr("graph.path_greedy", "edges")
    m["graph.greedy_pairs_per_s"] = _frac(pairs, greedy_s)
    m["graph.greedy_edge_frac"] = _frac(m["graph.greedy_edges"], pairs)
    m["graph.verify_stretch_s"] = secs("graph.verify_stretch")
    m["graph.verify_edges"] = attr("graph.verify_stretch", "edges")
    m["graph.emst_weight_s"] = secs("graph.emst_weight")

    oracle = by_name.get("graph.brute_force_optimal", [])
    oracle_ids = {s["id"] for s in oracle}
    incumbent_edges = sum(
        s["attrs"]["edges"]
        for s in by_name.get("graph.path_greedy", ())
        if s["parent"] in oracle_ids
    )
    m["graph.brute_force_optimal_s"] = secs("graph.brute_force_optimal")
    m["graph.oracle_calls"] = len(oracle)
    m["graph.oracle_max_s"] = max((s["end"] - s["start"] for s in oracle), default=0.0)
    m["graph.oracle_vs_greedy_edges"] = _frac(
        attr("graph.brute_force_optimal", "edges"), incumbent_edges
    )

    m["prune.classify_edges_s"] = secs("prune.classify_edges")
    m["prune.phase1_s"] = secs("prune.phase1")
    m["prune.phase2_s"] = secs("prune.phase2")
    m["prune.type1_edges"] = attr("prune.classify_edges", "type1")
    m["prune.type2_edges"] = attr("prune.classify_edges", "type2")
    subs = attr("prune.phase1", "substitutes")
    self_subs = attr("prune.phase1", "self_substitutes")
    m["prune.phase1_substitutes"] = subs
    m["prune.phase1_self_substitutes"] = self_subs
    m["prune.phase1_genuine_frac"] = _frac(subs - self_subs, subs)
    m["prune.type1_pruned"] = attr("prune.phase1", "type1_pruned")
    m["prune.type2_kept"] = attr("prune.phase2", "type2_kept")
    m["prune.type2_dropped"] = attr("prune.phase2", "type2_dropped")
    m["prune.helpers_added"] = attr("prune.phase2", "helpers_added")
    m["prune.phase2_drop_frac"] = _frac(
        m["prune.type2_dropped"], attr("prune.phase2", "type2_total")
    )

    m["nets.build_hierarchy_s"] = secs("nets.build_hierarchy")
    m["nets.hierarchy_levels"] = attr("nets.build_hierarchy", "levels")
    m["nets.build_net_tree_spanner_s"] = secs("nets.build_net_tree_spanner")
    m["nets.net_tree_edges"] = attr("nets.build_net_tree_spanner", "edges")
    m["nets.net_tree_pair_frac"] = _frac(
        m["nets.net_tree_edges"], attr("nets.build_net_tree_spanner", "pairs")
    )
    for fn in ("build_cluster_graph", "cluster_dist"):
        m[f"nets.{fn}_s"] = secs(f"nets.{fn}")
        m[f"nets.{fn}_calls"] = calls(f"nets.{fn}")

    m["geom.normalize_s"] = secs("geom.normalize")
    m["geom.region_codes_s"] = secs("geom.region_codes")
    m["geom.region_codes_calls"] = calls("geom.region_codes")
    m["instances.generate_s"] = secs("instances.generate")
    m["cli.parse_pointset_s"] = secs("cli.parse_pointset")

    for layer in LAYERS:
        layer_s = sum(st[s["id"]] for s in sub if s["name"].split(".")[0] == layer)
        m[f"{layer}.share"] = _frac(layer_s, total)
    return m


def median_metrics(per_iteration: list) -> dict:
    """Per-metric median over traced iterations."""
    return {
        k: statistics.median(it[k] for it in per_iteration) for k in per_iteration[0]
    }
