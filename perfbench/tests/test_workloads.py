"""Seed behaviour and closed forms of the generated requests.

    PYTHONPATH=src python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import workloads  # noqa: E402
from cohoparam import CohomParameter, HalfIntVector, build_classical_dual  # noqa: E402
from cohoparam.weyl import compact_weyl_catalog  # noqa: E402


class SeedTests(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for workload in workloads.WORKLOADS:
            first = workloads.request_list_digest(workloads.generate(workload, 7))
            again = workloads.request_list_digest(workloads.generate(workload, 7))
            self.assertEqual(first, again, workload)

    def test_seed_changes_order_not_work(self):
        for workload in workloads.WORKLOADS:
            base = workloads.generate(workload, 1)
            for seed in (2, 3, 99):
                other = workloads.generate(workload, seed)
                self.assertEqual(len(other), len(base), workload)
                self.assertEqual(
                    workloads.closed_form_work(workload, other),
                    workloads.closed_form_work(workload, base),
                    workload,
                )
            self.assertNotEqual(
                workloads.request_list_digest(base),
                workloads.request_list_digest(workloads.generate(workload, 2)),
                workload,
            )

    def test_closed_form_work(self):
        reqs = workloads.generate("packet-sweep", 5)
        self.assertEqual(len(reqs), 88)
        self.assertEqual(workloads.closed_form_work("packet-sweep", reqs), 37632)
        reqs = workloads.generate("enumerate-image", 5)
        self.assertEqual(workloads.closed_form_work("enumerate-image", reqs), 136408)
        yields = sum(2 ** workloads.theta_orbits(r["group"], r["singular"]) for r in reqs)
        self.assertEqual(yields, 5638)


class ClosedFormTests(unittest.TestCase):
    def test_weights_are_valid_with_the_intended_singular_set(self):
        for seed in (1, 2):
            for req in workloads.generate("enumerate-image", seed):
                datum = build_classical_dual(req["group"])
                lam = HalfIntVector.from_ints(*req["weight"])
                CohomParameter(datum, frozenset(), lam)  # dominant, integral, theta-fixed
                singular = [
                    i for i in range(1, datum.rank + 1) if lam.dot(datum.alpha_check(i)) == 0
                ]
                self.assertEqual(singular, req["singular"], req)
                self.assertEqual(
                    [datum.theta(i) for i in singular],
                    [workloads.theta(req["group"], i) for i in singular],
                )

    def test_order_table_matches_the_catalog(self):
        for group in workloads.PACKET_GROUPS:
            cat = compact_weyl_catalog(group)
            self.assertEqual(
                workloads.orders(group),
                (len(cat.w_theta), len(cat.k_weyl), cat.d_exponent),
                group,
            )

    def test_every_request_has_a_reference_digest(self):
        every = {workloads.reference_key(r) for r in workloads.every_request()}
        self.assertEqual(every, set(workloads.load_reference()))
        for w in workloads.WORKLOADS:
            for seed in range(1, 41):
                keys = {workloads.reference_key(r) for r in workloads.generate(w, seed)}
                self.assertLessEqual(keys, every, (w, seed))


if __name__ == "__main__":
    unittest.main()
