"""Record the reference output digests in perfbench/reference.json.

    python3 perfbench/record_reference.py

Digests cover every request that any seed can generate: all packet-sweep
packets, every enumerate-image weight (the zero weights and every singular
set the seeded weights can have, about 2,400 in all) and every cli-session
command.  They were recorded once and are compared on every run, so a
change that alters any of these outputs fails the benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    reference = {}
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    for req in workloads.every_request():
        key = workloads.reference_key(req)
        if req["kind"] == "cli":
            proc = subprocess.run(
                [sys.executable, "-m", "cohoparam.cli", *req["argv"]],
                capture_output=True, env=env, timeout=120, check=True,
            )
            reference[key] = workloads.digest(proc.stdout)
        else:
            summary = worker.summarize(req, worker.run_request(req))
            reference[key] = summary["digest"]
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"{len(reference)} digests written to {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
