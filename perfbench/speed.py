"""Frozen reference timings that measure how fast the machine runs now.

The benchmark was defined on a shared machine whose speed drifts by up to
2x over minutes, whatever the benchmark does.  Two references track that
drift:

* `reference_ms`, a fixed pure-Python computation of the same kind as the
  library's hot paths (tuple products, set membership, sorting).  The pass
  process times it before every in-process request.
* `spawn_reference_ms`, the start and exit of a bare interpreter.  Whole
  processes (CLI commands, set-up probes) are dominated by interpreter
  start-up and imports, which drift in a way the pure-Python reference does
  not track; the parent times this one before each of them.

A time is then scaled by its reference's nominal value over the median of
the nearby reference times, which takes the machine's drift out of it.

This file is part of the benchmark, not of the library, and must never
change: a change here rescales every timing.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

# the references' times on the machine the benchmark was defined on, in a
# quiet phase (2-core Xeon, Python 3.11); scaled times are in that machine's ms
NOMINAL_MS = 3.0
NOMINAL_SPAWN_MS = 12.0
WINDOW = 5  # requests on each side whose reference times make the local median

_N = 4
_GENS = (
    (1, 0, 2, 3, 1, 1, 1, 1),
    (1, 2, 3, 0, 1, 1, 1, 1),
    (0, 1, 2, 3, 1, 1, 1, -1),
)


def _closure() -> list[tuple[int, ...]]:
    """All signed permutations of 4 points, generated from _GENS (384 of them)."""
    n = _N
    ident = tuple(range(n)) + (1,) * n
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in _GENS:
                x = tuple(w[g[i]] for i in range(n)) + tuple(g[n + i] * w[n + g[i]] for i in range(n))
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return sorted(seen)


def reference_ms() -> float:
    t0 = time.perf_counter()
    _closure()
    return (time.perf_counter() - t0) * 1e3


def spawn_reference_ms() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return (time.perf_counter() - t0) * 1e3


def scale_factors(ref_ms: list[float | None], nominal_ms: float) -> list[float]:
    """`nominal_ms` over the local median reference time, per request in run order.

    A request that has no reference time of its own (a worker killed on a
    timeout) borrows its neighbours'.
    """
    out = []
    for i in range(len(ref_ms)):
        local = [r for r in ref_ms[max(0, i - WINDOW) : i + WINDOW + 1] if r is not None]
        out.append(nominal_ms / statistics.median(local) if local else 1.0)
    return out
