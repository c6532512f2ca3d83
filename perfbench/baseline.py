"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For every workload of BENCHMARK.json this makes ten untraced runs of its
run_seconds on consecutive seeds from --first-seed, and one traced run on
the first seed, exactly as BENCHMARK.json's command would.  It reports per
end-to-end metric the median, the quartiles (statistics.quantiles with n=4)
and the spread (q3 - q1) / median next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, help="write the summary here as JSON")
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    summary = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "runs": RUNS,
        "run_seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + RUNS):
            result = run_once(bench["command"], workload, seed, seconds, 0)
            failed += result["failed"]
            ok &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": spread, "bound": metric["bound"], "values": vals,
            }
            flag = "" if spread < metric["bound"] / 3 else "   <-- spread over a third of the bound"
            print(f"{workload:16s} {metric['name']:12s} median {med:12.5g} {metric['unit']:3s} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:7.4f} bound {metric['bound']}{flag}")
        entry = {"failed": failed, "end_to_end": rows}
        traced = run_once(bench["command"], workload, args.first_seed, seconds, 1)
        ok &= traced["correct"]
        entry[f"per_layer_seed{args.first_seed}"] = {
            k: v["value"] for k, v in traced["metrics"].items()
        }
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
