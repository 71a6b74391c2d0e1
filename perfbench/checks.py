"""Output fingerprints and correctness checks.

Every spanner the benchmark gets back from the program is an
:class:`Output`.  Its fingerprint is the sha256 of the sorted "u v" edge
list, the edge count, the exactly rounded sum of the edge lengths and
the program's own exact ``verify_stretch`` maximum.  The checks below
recompute the maximum stretch independently (all-pairs shortest paths
with scipy, written here, not the package's code) and hold it against
the bound the builder documents.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

# Slack on stretch comparisons, as used by the package's own CLI checks.
STRETCH_TOL = 1e-9
# Source rows per all-pairs Dijkstra call; bounds the distance matrix held.
CHUNK = 256


@dataclass
class Output:
    """One spanner returned by the program, with what it must satisfy.

    Operations build these inside the timed region, so nothing here
    touches the edges until :func:`fingerprint` or :func:`check` runs.
    """

    label: str
    graph: object  # the SpannerGraph
    coords: np.ndarray  # the normalized points the spanner was built on
    max_stretch: float  # as reported by the program
    bound: float  # documented stretch bound of the builder
    claims: list = field(default_factory=list)  # (description, holds) pairs

    def edges(self) -> list:
        """Sorted (u, v) pairs, u < v."""
        return sorted((u, v) for u, v, _ in self.graph.edges)


def output_of(label, G, X, max_stretch, bound, claims=()) -> Output:
    return Output(label, G, X.coords, float(max_stretch), float(bound), list(claims))


def edge_lengths(edges, coords) -> np.ndarray:
    if not edges:
        return np.zeros(0)
    e = np.asarray(edges, dtype=np.int64)
    return np.linalg.norm(coords[e[:, 0]] - coords[e[:, 1]], axis=1)


def fingerprint(out: Output) -> dict:
    edges = out.edges()
    text = "".join(f"{u} {v}\n" for u, v in edges)
    return {
        "sha256": hashlib.sha256(text.encode("ascii")).hexdigest(),
        "edges": len(edges),
        "weight": math.fsum(edge_lengths(edges, out.coords).tolist()),
        "max_stretch": out.max_stretch,
    }


def independent_max_stretch(edges, coords) -> float:
    """Exact maximum stretch by all-pairs Dijkstra over row chunks."""
    n = len(coords)
    if n < 2:
        return 1.0
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    w = edge_lengths(edges, coords)
    A = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]]))),
        shape=(n, n),
    )
    best = 0.0
    for lo in range(0, n - 1, CHUNK):
        rows = np.arange(lo, min(lo + CHUNK, n - 1))
        D = shortest_path(A, method="D", directed=False, indices=rows)
        eu = np.linalg.norm(coords[rows][:, None, :] - coords[None, :, :], axis=2)
        upper = np.arange(n)[None, :] > rows[:, None]
        if np.isinf(D[upper]).any():
            return math.inf
        best = max(best, float((D[upper] / eu[upper]).max()))
    return best


def check(out: Output) -> list:
    """Problems with one output; empty when it is correct."""
    problems = []
    ms = independent_max_stretch(out.edges(), out.coords)
    if not math.isfinite(ms):
        problems.append("spanner is disconnected")
    elif abs(ms - out.max_stretch) > STRETCH_TOL * ms:
        problems.append(f"reported max stretch {out.max_stretch!r} != recomputed {ms!r}")
    if not ms <= out.bound + STRETCH_TOL:
        problems.append(f"max stretch {ms!r} exceeds the documented bound {out.bound!r}")
    problems.extend(desc for desc, holds in out.claims if not holds)
    return problems


def compare(fp: dict, ref: dict | None) -> list:
    """Fields on which a fingerprint differs from its reference."""
    if ref is None:
        return ["no reference fingerprint"]
    return [f"{k}: {fp.get(k)!r} != reference {ref[k]!r}" for k in ref if fp.get(k) != ref[k]]
