"""A fixed reference computation that measures the machine's current speed.

On a shared host the same code runs up to 50% slower for seconds to
minutes at a time, and the run-to-run spread of a raw round time follows
those states rather than the program.  So every timed round is also
measured against this kernel, run between the round's operations: the
end-to-end times are reported as multiples of the kernel's median time in
the same round.  The kernel does not use the package, so a change to the
program moves the ratio and a change of machine state moves both.

It mixes what the package's hot loops spend their time on: an
interpreted heap-based Dijkstra over adjacency lists, Floyd-Warshall
steps on a tiny numpy matrix (call overhead, as in the exact oracle) and
on a 300 x 300 one (memory traffic, as in matrix greedy).  One call takes
about 10 ms.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

_N = 300
_SOURCES = 6


def _data():
    rnd = random.Random(1)
    adj = [[] for _ in range(_N)]
    for _ in range(2000):
        u, v, w = rnd.randrange(_N), rnd.randrange(_N), rnd.random()
        adj[u].append((v, w))
        adj[v].append((u, w))
    rng = np.random.default_rng(0)
    return adj, rng.random((40, 40)), rng.random((_N, _N))


_ADJ, _SMALL, _LARGE = _data()


def _dijkstra(s: int) -> list:
    dist = [float("inf")] * _N
    dist[s] = 0.0
    heap = [(0.0, s)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def _relax(a: np.ndarray, steps: int) -> None:
    for k in range(steps):
        np.minimum(a, a[:, k : k + 1] + a[k : k + 1, :], out=a)


def sample() -> tuple:
    """Wall and CPU seconds of one run of the kernel."""
    t0, c0 = time.perf_counter(), time.process_time()
    for s in range(_SOURCES):
        _dijkstra(s)
    _relax(_SMALL.copy(), 40)
    _relax(_LARGE.copy(), 20)
    return time.perf_counter() - t0, time.process_time() - c0
