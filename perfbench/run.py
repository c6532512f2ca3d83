"""cohoparam benchmark runner (stdlib only).

    python3 perfbench/run.py --workload packet-sweep --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's `src` with PYTHONPATH, never from an installed copy.  Each pass
over a workload's requests runs in a fresh interpreter (one process at a
time, one client, closed loop), so nothing cached in one pass helps the
next.  The parent times set-up, enforces a per-request timeout, checks every
output, and prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured with no
wrappers installed.  With --trace 1 the run alternates untraced and traced
passes and reports the per-layer metrics; the spans of the traced passes are
written to perfbench/out/ at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

REQUEST_TIMEOUT_S = 20.0  # the slowest request of the seed commit takes ~1.3 s
HARD_LIMIT_S = 150.0  # no request starts after this; the run ends well within 180 s
SETUP_PROBES_PER_PASS = 2  # set-up probes run between passes
SETUP_REFERENCES = 3  # spawn-reference timings just before each probe; their median scales it


class RequestTimeout(Exception):
    pass


# ---------------------------------------------------------------------------
# child processes


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(argv: list[str], *, stdin=subprocess.DEVNULL, stderr=None) -> subprocess.Popen:
    return subprocess.Popen(
        argv, stdin=stdin, stdout=subprocess.PIPE, stderr=stderr, env=_env(), cwd=ROOT
    )


def _reap(proc: subprocess.Popen, kill: bool = False) -> float:
    """Wait for the child and return its peak resident memory in MB."""
    if kill:
        # not proc.kill(): it polls first, and a reaped child has no usage left
        os.kill(proc.pid, signal.SIGKILL)
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


class _Lines:
    """Line reader over a child's stdout with a deadline per line."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.fd = proc.stdout.fileno()
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.fd, selectors.EVENT_READ)

    def readline(self, timeout: float) -> bytes:
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not self.sel.select(left):
                raise RequestTimeout
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                raise EOFError
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line

    def close(self) -> None:
        self.sel.close()


def _read_all(proc: subprocess.Popen, timeout: float) -> tuple[bytes, bytes]:
    """All of a child's stdout and stderr, or RequestTimeout."""
    deadline = time.perf_counter() + timeout
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                raise RequestTimeout
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    return b"".join(chunks[proc.stdout.fileno()]), b"".join(chunks[proc.stderr.fileno()])


def probe_setup() -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to `import cohoparam` done,
    and the median spawn-reference time (ms) measured just before it."""
    ref_ms = statistics.median(speed.spawn_reference_ms() for _ in range(SETUP_REFERENCES))
    t0 = time.perf_counter()
    proc = _spawn([sys.executable, str(WORKER), "pass"], stdin=subprocess.PIPE)
    lines = _Lines(proc)
    ready = False
    try:
        ready = lines.readline(REQUEST_TIMEOUT_S) == b"ready"
        setup = time.perf_counter() - t0
    finally:
        lines.close()
        _reap(proc, kill=not ready)  # closing stdin ends a ready probe
    if not ready:
        raise RuntimeError("worker did not report ready")
    return setup, ref_ms


# ---------------------------------------------------------------------------
# passes


class Pass:
    """Outcome of one pass over the request list."""

    def __init__(self, traced: bool, nominal_ms: float) -> None:
        self.traced = traced
        self.nominal_ms = nominal_ms  # of the reference its results' "ref_ms" come from
        self.wall_s = 0.0
        self.rss_mb = 0.0
        self.results: dict[int, dict] = {}  # id -> {"ms", "summary"} or {"ms", "error"}
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.import_s: list[float] = []
        self.wrapped: list[str] = []  # library attributes the pass process had wrapped

    def add_trace(self, spans: list[list], counts: dict[str, int]) -> None:
        offset = len(self.spans)
        for name, start, end, parent, req in spans:
            self.spans.append([name, start, end, None if parent is None else parent + offset, req])
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


def worker_pass(requests, traced, deadline, timeout=REQUEST_TIMEOUT_S) -> Pass:
    """Run the requests in fresh worker interpreters; a timed-out or crashed
    request is recorded as failed and a new worker takes the rest."""
    result = Pass(traced, speed.NOMINAL_MS)
    t_start = time.perf_counter()
    remaining = list(requests)
    while remaining and time.perf_counter() < deadline:
        proc = _spawn([sys.executable, str(WORKER), "pass"], stdin=subprocess.PIPE)
        lines = _Lines(proc)
        finished = False
        try:
            if lines.readline(timeout) != b"ready":
                raise RuntimeError("worker did not report ready")
            proc.stdin.write(json.dumps({"requests": remaining, "trace": traced}).encode() + b"\n")
            proc.stdin.close()
            while remaining:
                req = remaining[0]
                t_req = time.perf_counter()
                left = min(timeout, deadline - t_req)
                try:
                    msg = json.loads(lines.readline(left))
                except (RequestTimeout, EOFError) as exc:
                    elapsed = (time.perf_counter() - t_req) * 1e3
                    why = "timed out" if isinstance(exc, RequestTimeout) else "worker died"
                    result.results[req["id"]] = {"ms": elapsed, "error": why}
                    remaining.pop(0)
                    break
                if msg["id"] != req["id"]:
                    raise RuntimeError(f"worker answered {msg['id']} for request {req['id']}")
                result.results[req["id"]] = msg
                remaining.pop(0)
            else:
                final = json.loads(lines.readline(timeout))
                finished = True
                result.wrapped += final["wrapped"]
                if traced:
                    result.add_trace(final["spans"], final["counts"])
        except (RequestTimeout, EOFError) as exc:
            raise RuntimeError(f"worker failed outside a request: {exc!r}") from None
        finally:
            lines.close()
            result.rss_mb = max(result.rss_mb, _reap(proc, kill=not finished))
    result.wall_s = time.perf_counter() - t_start
    return result


def cli_pass(requests, traced, deadline, timeout=REQUEST_TIMEOUT_S) -> Pass:
    """One fresh `python -m cohoparam.cli` process per request."""
    result = Pass(traced, speed.NOMINAL_SPAWN_MS)
    spans_path = OUT / "cli-spans.json"
    if traced:
        OUT.mkdir(exist_ok=True)
    t_start = time.perf_counter()
    for req in requests:
        if time.perf_counter() >= deadline:
            break
        if traced:
            spans_path.unlink(missing_ok=True)
            argv = [sys.executable, str(WORKER), "cli", str(spans_path), *req["argv"]]
        else:
            argv = [sys.executable, "-m", "cohoparam.cli", *req["argv"]]
        ref_ms = speed.spawn_reference_ms()  # before t_req: the command's time is its own
        t_req = time.perf_counter()
        proc = _spawn(argv, stderr=subprocess.PIPE)
        try:
            out, err = _read_all(proc, min(timeout, deadline - t_req))
        except RequestTimeout:
            ms = (time.perf_counter() - t_req) * 1e3
            result.rss_mb = max(result.rss_mb, _reap(proc, kill=True))
            result.results[req["id"]] = {"ms": ms, "ref_ms": ref_ms, "error": "timed out"}
            continue
        rss = _reap(proc)
        ms = (time.perf_counter() - t_req) * 1e3
        result.rss_mb = max(result.rss_mb, rss)
        summary = {"exit": proc.returncode, "digest": workloads.digest(out)}
        if req["argv"][0] == "verify" and proc.returncode == 0:
            try:
                summary["status"] = json.loads(out).get("status")
            except ValueError:
                summary["status"] = None
        entry = {"ms": ms, "ref_ms": ref_ms, "summary": summary}
        if proc.returncode != 0:
            entry["stderr"] = err.decode(errors="replace").strip()[-300:]
        result.results[req["id"]] = entry
        if traced and spans_path.exists():
            data = json.loads(spans_path.read_text())
            for span in data["spans"]:
                span[4] = req["id"]
            result.add_trace(data["spans"], data["counts"])
            result.import_s.append(data["import_s"])
    result.wall_s = time.perf_counter() - t_start
    if traced:
        spans_path.unlink(missing_ok=True)
    return result


def run_pass(workload, requests, traced, deadline, timeout=REQUEST_TIMEOUT_S) -> Pass:
    runner = cli_pass if workload == "cli-session" else worker_pass
    return runner(requests, traced, deadline, timeout)


# ---------------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def grade(requests, passes, reference) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every request of every pass."""
    by_id = {r["id"]: r for r in requests}
    attempted = failed = 0
    messages = []
    for p in passes:
        for rid, res in sorted(p.results.items()):
            attempted += 1
            problem = res.get("error")
            if problem is None:
                problem = workloads.check(by_id[rid], res["summary"], reference)
            res["failed"] = problem is not None
            if problem is not None:
                failed += 1
                detail = f" ({res['stderr']})" if "stderr" in res else ""
                messages.append(f"request {rid} {by_id[rid]}: {problem}{detail}")
    return attempted, failed, messages


def scale(passes: list[Pass]) -> None:
    """Add each result's time scaled to the nominal machine speed ("scaled_ms")."""
    for p in passes:
        results = list(p.results.values())  # in the order they ran
        factors = speed.scale_factors([r.get("ref_ms") for r in results], p.nominal_ms)
        for res, factor in zip(results, factors):
            res["scaled_ms"] = res["ms"] * factor


def request_ms(passes: list[Pass], key: str = "scaled_ms") -> list[float]:
    """Each request's median time over the passes.

    Other tenants of the machine slow it for seconds to minutes at a time, so
    the median of scaled times is what repeats from run to run (see
    NOTES.md).  A request that failed in any pass counts as missing any
    latency limit, up to the timeout.
    """
    samples: dict[int, list[dict]] = {}
    for p in passes:
        for rid, res in p.results.items():
            samples.setdefault(rid, []).append(res)
    timeout_ms = REQUEST_TIMEOUT_S * 1e3
    return [
        max(max(r[key] for r in rs), timeout_ms) if any(r["failed"] for r in rs)
        else statistics.median(r[key] for r in rs)
        for rs in samples.values()
    ]


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    untraced = [p for p in passes if not p.traced]
    lat = request_ms(untraced)
    raw = request_ms(untraced, "ms")
    metrics = {
        "wall_s": (sum(lat) / 1e3, "s"),
        "op_ms_p50": (percentile(lat, 50), "ms"),
        "op_ms_p90": (percentile(lat, 90), "ms"),
        "setup_s": (statistics.median(s * speed.NOMINAL_SPAWN_MS / ref for s, ref in setup), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in untraced), "MB"),
    }
    samples = sum(len(p.results) for p in untraced)
    notes = [
        f"each request's median scaled time over {len(untraced)} passes "
        f"({samples} request samples): wall_s is their sum over the {len(lat)} "
        f"requests, op_ms_p50 and op_ms_p90 their percentiles",
        f"unscaled: wall {sum(raw) / 1e3!r} s, p50 {percentile(raw, 50)!r} ms, "
        f"p90 {percentile(raw, 90)!r} ms, setup {statistics.median(s for s, _ in setup)!r} s",
        f"peak_rss_mb is the median over passes; the fastest whole pass took "
        f"{min(p.wall_s for p in untraced)!r} s",
        f"setup_s is the median of {len(setup)} scaled set-up probes spread over the run",
    ]
    return metrics, notes


def per_layer(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics, all taken from the fastest traced pass."""
    traced = min((p for p in passes if p.traced), key=lambda p: p.wall_s)
    self_s = layertrace.self_times(traced.spans)
    calls = layertrace.span_counts(traced.spans)
    counts = traced.counts

    m: dict[str, tuple[float, str]] = {}
    for layer in ("rootdata.build_classical_dual", "weyl.compact_weyl_catalog",
                  "weyl.subgroup_closure", "weyl.double_cosets", "packets.packet",
                  "params.enumerate_cohomological", "params.standard_rep_parameter",
                  "cohomology.packet_cohomology_sum"):
        m[layer + ".calls"] = (calls.get(layer, 0), "count")
    for layer in layertrace.LAYER_NAMES:
        m[layer + ".self_s"] = (self_s.get(layer, 0.0), "s")

    cat = "weyl.compact_weyl_catalog"
    repeats = counts.get(cat + ".repeats", 0)
    m[cat + ".repeat_ratio"] = (repeats / calls[cat] if calls.get(cat) else 0.0, "ratio")
    for key in ("weyl.subgroup_closure.elements", "weyl.double_cosets.cosets",
                "weyl.double_cosets.elements"):
        m[key] = (counts.get(key, 0), "count")
    notes = []
    products = counts.get("weyl.double_cosets.products", 0)
    if products == 0 and calls.get("weyl.double_cosets"):
        # WeylElement.__mul__ is no longer how double_cosets forms products
        notes.append("weyl.double_cosets.products absent: no WeylElement.__mul__ "
                     "calls inside double_cosets")
    else:
        m["weyl.double_cosets.products"] = (products, "count")
    m["packets.packet.members"] = (counts.get("packets.packet.members", 0), "count")
    enum = "params.enumerate_cohomological"
    examined = counts.get(enum + ".subsets_examined", 0)
    m[enum + ".subsets_examined"] = (examined, "count")
    yield_ = counts.get(enum + ".parameters", 0) / examined if examined else 0.0
    m[enum + ".yield"] = (yield_, "ratio")
    m["cli.import_s"] = (statistics.median(traced.import_s) if traced.import_s else 0.0, "s")

    layered = sum(self_s.values())
    m["trace.wall_s"] = (traced.wall_s, "s")
    m["trace.overhead_ratio"] = (
        sum(request_ms([p for p in passes if p.traced]))
        / sum(request_ms([p for p in passes if not p.traced])),
        "ratio",
    )
    m["trace.unattributed_s"] = (traced.wall_s - layered, "s")
    n_traced = sum(p.traced for p in passes)
    notes.append(f"from the fastest of {n_traced} traced passes; trace.overhead_ratio compares "
                 f"median scaled request times with {len(passes) - n_traced} untraced passes")
    notes.append(
        "layer self times sum to no more than the traced wall time"
        if layered <= traced.wall_s
        else f"ERROR: layer self times sum to {layered} s, over the traced wall time "
             f"{traced.wall_s} s"
    )
    return m, notes


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cohoparam" / "__init__.py").is_file():
        print(f"benchmark: no cohoparam sources under {SRC}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    requests = workloads.generate(args.workload, args.seed)
    traced = bool(args.trace)

    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    setup: list[tuple[float, float]] = []  # (seconds, reference ms) per probe
    passes: list[Pass] = []
    last = 0.0  # duration of the previous probes-and-pass round
    while time.perf_counter() < deadline:
        t_round = time.perf_counter()
        # another round starts only if it should end within --seconds
        if len(passes) >= 1 + traced and t_round - start + last > args.seconds:
            break
        setup += [probe_setup() for _ in range(SETUP_PROBES_PER_PASS)]
        mode = traced and len(passes) % 2 == 1
        passes.append(run_pass(args.workload, requests, mode, deadline))
        last = time.perf_counter() - t_round
    setup += [probe_setup() for _ in range(SETUP_PROBES_PER_PASS)]

    attempted, failed, messages = grade(requests, passes, reference)
    scale(passes)
    for msg in messages[:20]:
        print(f"FAILED {msg}")
    print(f"workload {args.workload}  seed {args.seed}  requests/pass {len(requests)}  "
          f"closed-form work/pass {workloads.closed_form_work(args.workload, requests)}")
    if traced:
        metrics, notes = per_layer(passes)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(
            [{"pass": i, "spans": p.spans} for i, p in enumerate(passes) if p.traced]
        ))
        notes.append(f"spans written to {spans_file.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(passes, setup)
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value!r:>24} {unit}")
    print(f"  {'fail_rate':52s} {failed / attempted if attempted else 0.0!r:>24} "
          f"ratio ({failed} of {attempted} requests)")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": failed == 0 and not any(n.startswith("ERROR") for n in notes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
