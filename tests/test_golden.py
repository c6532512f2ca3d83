"""Byte identity of CLI outputs against recorded digests.

Each file under `tests/golden/` holds one sha256 per command line over
(stdout, stderr, exit code); `tests/golden/record.py` lists the cases of
each corpus and re-records them when an output is meant to change.
"""

import importlib.util
import json
from pathlib import Path

_RECORD = Path(__file__).parent / "golden" / "record.py"
_spec = importlib.util.spec_from_file_location("golden_record", _RECORD)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _check(corpus: str) -> None:
    expected = json.loads((record.HERE / corpus).read_text())
    actual = record.record(corpus)
    assert actual.keys() == expected.keys()
    changed = sorted(case for case in expected if actual[case] != expected[case])
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:5]}"


def test_weyl_cli_outputs_match_the_recorded_digests():
    _check("weyl_cli.json")


def test_enumerate_cli_outputs_match_the_recorded_digests():
    _check("enumerate_cli.json")


def test_cohomology_cli_outputs_match_the_recorded_digests():
    _check("cohomology_cli.json")


def test_limits_cli_outputs_match_the_recorded_digests():
    _check("limits_cli.json")
