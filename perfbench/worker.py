"""One fresh interpreter of a benchmark pass.

    python perfbench/worker.py pass
        Imports cohoparam, writes "ready", then reads one JSON line
        {"requests": [...], "trace": bool} from stdin and runs the requests
        in order, writing one JSON line per request and a final "done" line
        (naming the library attributes that hold a layer wrapper, and with
        spans and counts when traced).  An empty stdin means a set-up
        probe: exit right after "ready".

    python perfbench/worker.py cli SPANS_PATH ARG...
        Runs `cohoparam.cli.main(ARG...)` with the layer wrappers installed
        and writes the import time, spans and counts to SPANS_PATH.

PYTHONPATH must point at the checkout's `src`.
"""

import sys


def _pass_mode() -> int:
    import cohoparam  # noqa: F401  (set-up ends when this import is done)

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    import json
    import time

    import speed

    line = sys.stdin.readline()
    if not line.strip():
        return 0
    config = json.loads(line)
    tracer = None
    if config["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    for req in config["requests"]:
        ref_ms = speed.reference_ms()
        if tracer is not None:
            tracer.request = req["id"]
        t0 = time.perf_counter()
        try:
            result = run_request(req)
            ms = (time.perf_counter() - t0) * 1e3
            msg = {"id": req["id"], "ms": ms, "summary": summarize(req, result)}
        except Exception as exc:  # a failed request is reported, not fatal
            ms = (time.perf_counter() - t0) * 1e3
            msg = {"id": req["id"], "ms": ms, "error": f"{type(exc).__name__}: {exc}"}
        msg["ref_ms"] = ref_ms
        if tracer is not None:
            tracer.request = None
        sys.stdout.write(json.dumps(msg) + "\n")
        sys.stdout.flush()
    done = {"done": True, "wrapped": _wrapped()}
    if tracer is not None:
        done["spans"] = tracer.spans
        done["counts"] = tracer.counts
    sys.stdout.write(json.dumps(done) + "\n")
    sys.stdout.flush()
    return 0


def _wrapped() -> list[str]:
    """The cohoparam attributes (WeylElement.__mul__ included) that hold a layer wrapper."""
    import layertrace
    from cohoparam.weyl import WeylElement

    found = [
        f"{mod.__name__}.{attr}"
        for mod in layertrace._library_modules()
        for attr, value in vars(mod).items()
        if layertrace.is_wrapped(value)
    ]
    if layertrace.is_wrapped(WeylElement.__mul__):
        found.append("cohoparam.weyl.WeylElement.__mul__")
    return found


def run_request(req: dict):
    """The timed part of one request: calls into the library only.

    Library names are looked up on the package at call time, so a traced
    pass reaches the wrappers and an untraced pass the originals.
    """
    import cohoparam

    if req["kind"] == "packet":
        datum = cohoparam.build_classical_dual(req["group"])
        lam = cohoparam.HalfIntVector.zero(datum.ambient_dim)
        param = cohoparam.CohomParameter(datum, frozenset(req["subset"]), lam)
        return cohoparam.packet(req["group"], param)
    if req["kind"] == "enumerate":
        lam = cohoparam.HalfIntVector.from_ints(*req["weight"])
        return [
            (cohoparam.standard_rep_parameter(c).text(), str(c.inf_char))
            for c in cohoparam.enumerate_cohomological(req["group"], lam)
        ]
    raise ValueError(f"request kind {req['kind']!r} does not run in a worker")


def summarize(req: dict, result) -> dict:
    """What the parent checks: closed-form quantities and an output digest."""
    import json

    from workloads import digest

    if req["kind"] == "packet":
        return {
            "coset_total": sum(m.coset_size for m in result.members),
            "h_total": result.h_total,
            "digest": digest(json.dumps(result.to_json(), sort_keys=True)),
        }
    return {
        "count": len(result),
        "inf_chars": len({inf for _, inf in result}),
        "digest": digest("\n".join(f"{text}\t{inf}" for text, inf in result)),
    }


def _cli_mode(spans_path: str, argv: list[str]) -> int:
    import time

    t0 = time.perf_counter()
    import cohoparam.cli

    import_s = time.perf_counter() - t0

    import json

    import layertrace

    tracer = layertrace.Tracer()
    layertrace.install(tracer)
    idx = tracer.open(layertrace.CLI_MAIN)
    try:
        code = cohoparam.cli.main(argv)
    except SystemExit as exc:  # argparse rejections
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        tracer.close(idx)
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["pass"]:
        sys.exit(_pass_mode())
    if sys.argv[1:2] == ["cli"] and len(sys.argv) >= 3:
        sys.exit(_cli_mode(sys.argv[2], sys.argv[3:]))
    sys.exit("usage: worker.py pass | worker.py cli SPANS_PATH ARG...")
