"""Spans, self times and the install/uninstall contract of the layer wrappers.

    PYTHONPATH=src python3 -m unittest discover -s perfbench/tests
"""

import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import cohoparam  # noqa: E402
import cohoparam.cli  # noqa: E402,F401  (its namespace must be patched too)
import layertrace  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

PACKET_REQUEST = {"id": 0, "kind": "packet", "group": "U(2,1)", "subset": [1, 2]}


def _namespaces(name: str):
    """Every cohoparam module attribute that holds a function called `name`."""
    return [
        (mod, attr)
        for mod in layertrace._library_modules()
        for attr, value in vars(mod).items()
        if getattr(value, "__name__", None) == name and callable(value)
    ]


def _called_code(fn):
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return codes


class SelfTimeTests(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        spans = [
            ["outer", 0.0, 10.0, None, 1],
            ["a", 1.0, 3.0, 0, 1],
            ["b", 4.0, 8.0, 0, 1],
            ["a", 5.0, 6.0, 2, 1],
            ["outer", 20.0, 21.0, None, 2],
        ]
        self.assertEqual(
            layertrace.self_times(spans), {"outer": 5.0, "a": 3.0, "b": 3.0}
        )
        self.assertEqual(layertrace.span_counts(spans), {"outer": 2, "a": 2, "b": 1})


class ScaleTests(unittest.TestCase):
    def test_times_scale_by_the_local_median_reference(self):
        nominal = speed.NOMINAL_MS
        refs = [nominal] * 6 + [2 * nominal] * 6 + [None]
        factors = speed.scale_factors(refs, nominal)
        self.assertEqual(factors[0], 1.0)
        self.assertEqual(factors[-1], 0.5)  # no reference of its own: the neighbours'
        self.assertEqual(len(speed._closure()), 384)


class InstallTests(unittest.TestCase):
    def test_wrappers_exist_only_while_installed(self):
        names = [n for _, _, fns in layertrace.LAYERS for n in fns]
        before = {n: [getattr(m, a) for m, a in _namespaces(n)] for n in names}
        self.assertTrue(all(before.values()))
        for fns in before.values():
            self.assertFalse(any(layertrace.is_wrapped(f) for f in fns))

        uninstall = layertrace.install(layertrace.Tracer())
        try:
            for n in names:
                patched = [getattr(m, a) for m, a in _namespaces(n)]
                self.assertTrue(all(layertrace.is_wrapped(f) for f in patched), n)
            # the namespaces where callers look the functions up
            self.assertTrue(layertrace.is_wrapped(cohoparam.packets.compact_weyl_catalog))
            self.assertTrue(layertrace.is_wrapped(cohoparam.cli.packet))
            self.assertTrue(layertrace.is_wrapped(cohoparam.weyl.WeylElement.__mul__))
        finally:
            uninstall()
        after = {n: [getattr(m, a) for m, a in _namespaces(n)] for n in names}
        self.assertEqual(before, after)
        self.assertFalse(layertrace.is_wrapped(cohoparam.weyl.WeylElement.__mul__))

    def test_untraced_run_calls_the_unwrapped_functions(self):
        deadline = time.perf_counter() + 60
        untraced, traced = (run.worker_pass([PACKET_REQUEST], t, deadline) for t in (False, True))
        self.assertIn("summary", untraced.results[0])
        self.assertEqual(untraced.wrapped, [])
        self.assertFalse(untraced.spans)
        # the same report names the wrappers of a traced pass
        self.assertIn("cohoparam.packet", traced.wrapped)
        self.assertIn("cohoparam.packets.compact_weyl_catalog", traced.wrapped)
        self.assertIn("cohoparam.weyl.WeylElement.__mul__", traced.wrapped)

    def test_traced_run_records_spans_and_counts(self):
        tracer = layertrace.Tracer()
        uninstall = layertrace.install(tracer)
        try:
            tracer.request = 0
            codes = _called_code(lambda: worker.run_request(PACKET_REQUEST))
        finally:
            uninstall()
        self.assertIn(layertrace._wrap(None, "x", len).__code__, codes)
        names = {span[0] for span in tracer.spans}
        self.assertLessEqual(
            {"packets.packet", "weyl.compact_weyl_catalog", "weyl.double_cosets",
             "weyl.subgroup_closure", "weyl.theta_fixed_subgroup",
             "rootdata.build_classical_dual"},
            names,
        )
        self.assertTrue(all(span[4] == 0 and span[2] >= span[1] for span in tracer.spans))
        packet_span = next(s for s in tracer.spans if s[0] == "packets.packet")
        self.assertIsNone(packet_span[3])
        self.assertEqual(tracer.counts["weyl.double_cosets.elements"], 6)  # |S_3|
        self.assertGreater(tracer.counts["weyl.double_cosets.products"], 0)


if __name__ == "__main__":
    unittest.main()
