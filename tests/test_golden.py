"""Byte identity of the CLI commands that print Weyl elements.

`tests/golden/weyl_cli.json` holds one sha256 per command line over
(stdout, stderr, exit code); `tests/golden/record.py` lists the cases and
re-records them when an output is meant to change.
"""

import importlib.util
import json
from pathlib import Path

_RECORD = Path(__file__).parent / "golden" / "record.py"
_spec = importlib.util.spec_from_file_location("golden_record", _RECORD)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def test_weyl_cli_outputs_match_the_recorded_digests():
    expected = json.loads(record.RECORD.read_text())
    actual = record.record()
    assert actual.keys() == expected.keys()
    changed = sorted(case for case in expected if actual[case] != expected[case])
    assert not changed, f"{len(changed)} outputs changed, e.g. {changed[:5]}"
