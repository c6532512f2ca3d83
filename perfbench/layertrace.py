"""Outside-in layer tracing: spans and counts around calls into cohoparam.

`install` replaces each traced library function in every `cohoparam`
module namespace where callers look it up (including the package itself),
and `WeylElement.__mul__` on its class.  It returns a function that puts
the originals back.  Nothing is patched unless a traced pass asks for it.

A span is (name, start, end, parent, request): `parent` is the index of the
enclosing span in the same process's list, or None.  Spans stay in memory
and are shipped to the parent process at the end of a pass.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> (defining module, function names); the names are the
# public entry points of each layer that the workloads reach
LAYERS = (
    ("rootdata.build_classical_dual", "cohoparam.rootdata", ("build_classical_dual",)),
    ("weyl.compact_weyl_catalog", "cohoparam.weyl", ("compact_weyl_catalog",)),
    ("weyl.subgroup_closure", "cohoparam.weyl", ("subgroup_closure",)),
    ("weyl.theta_fixed_subgroup", "cohoparam.weyl", ("theta_fixed_subgroup",)),
    ("weyl.double_cosets", "cohoparam.weyl", ("double_cosets",)),
    ("packets.packet", "cohoparam.packets", ("packet",)),
    ("params.enumerate_cohomological", "cohoparam.params", ("enumerate_cohomological",)),
    ("params.standard_rep_parameter", "cohoparam.params", ("standard_rep_parameter",)),
    ("params.transfer_cohom", "cohoparam.params", ("transfer_cohom",)),
    ("cohomology.packet_cohomology_sum", "cohoparam.cohomology", ("packet_cohomology_sum",)),
    ("cohomology.partition_independence", "cohoparam.cohomology", ("partition_independence",)),
    (
        "cohomology.innerforms",
        "cohoparam.cohomology",
        ("innerform_sum_compact", "innerform_sum_quasisplit"),
    ),
)
CLI_MAIN = "cli.main"
LAYER_NAMES = tuple(name for name, _, _ in LAYERS) + (CLI_MAIN,)

_ORIGINAL = "__perfbench_original__"


class Tracer:
    """Spans and counters of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.counts: dict[str, int] = {}
        self.catalogs_seen: set[str] = set()
        self.in_double_cosets = 0

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def record(self, layer: str, result) -> None:
        """Counts taken at the layer boundary, after the span is closed."""
        if layer == "weyl.subgroup_closure":
            self.add(layer + ".elements", len(result))
        elif layer == "weyl.double_cosets":
            self.add(layer + ".cosets", len(result))
            self.add(layer + ".elements", sum(c.size for c in result))
        elif layer == "weyl.compact_weyl_catalog":
            if result.descriptor in self.catalogs_seen:
                self.add(layer + ".repeats")
            self.catalogs_seen.add(result.descriptor)
        elif layer == "packets.packet":
            self.add(layer + ".members", len(result.members))
        elif layer == "params.enumerate_cohomological":
            self.add(layer + ".parameters", len(result))
            if result:
                datum, lam = result[0].datum, result[0].lam
                singular = sum(
                    1
                    for i in range(1, datum.rank + 1)
                    if lam.dot(datum.alpha_check(i)) == 0
                )
                self.add(layer + ".subsets_examined", 2**singular)


def _wrap(tracer: Tracer, layer: str, fn):
    counts_double_cosets = layer == "weyl.double_cosets"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(layer)
        if counts_double_cosets:
            tracer.in_double_cosets += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            if counts_double_cosets:
                tracer.in_double_cosets -= 1
            tracer.close(idx)
        tracer.record(layer, result)
        return result

    setattr(wrapper, _ORIGINAL, fn)
    return wrapper


def _library_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "cohoparam" or name.startswith("cohoparam."))
    ]


def targets() -> dict[int, tuple[str, object]]:
    """id(original function) -> (layer, function), for every traced entry point."""
    out = {}
    for layer, modname, names in LAYERS:
        mod = sys.modules[modname]
        for fname in names:
            fn = getattr(mod, fname)
            fn = getattr(fn, _ORIGINAL, fn)
            out[id(fn)] = (layer, fn)
    return out


def install(tracer: Tracer):
    """Wrap every traced function where callers look it up; return the undo."""
    from cohoparam.weyl import WeylElement

    found = targets()
    wrappers = {key: _wrap(tracer, layer, fn) for key, (layer, fn) in found.items()}
    undo: list[tuple[object, str, object]] = []
    for mod in _library_modules():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and value is found[id(value)][1]:
                undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    mul = WeylElement.__mul__

    def counted_mul(self, other):
        if tracer.in_double_cosets:
            tracer.add("weyl.double_cosets.products")
        return mul(self, other)

    setattr(counted_mul, _ORIGINAL, mul)
    undo.append((WeylElement, "__mul__", mul))
    WeylElement.__mul__ = counted_mul

    def uninstall() -> None:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return uninstall


def is_wrapped(fn) -> bool:
    return hasattr(fn, _ORIGINAL)


# ---------------------------------------------------------------------------
# aggregation (parent side)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer self time: each span's duration minus the part its children cover.

    Spans of one process nest (single thread), so the covered part is the sum
    of the direct children's durations.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        out[name] = out.get(name, 0.0) + (end - start) - child
    return out


def span_counts(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for span in spans:
        out[span[0]] = out.get(span[0], 0) + 1
    return out
