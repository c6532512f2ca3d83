"""Request generation and output checks for the three benchmark workloads.

Everything here is closed form and owned by the benchmark: the order table
of twisted and compact-side Weyl groups, the theta action on simple roots,
and the weights fed to the enumeration.  The library is only ever given the
generated inputs, so these tables are an independent check on its outputs.

The seed chooses the order of requests and where singular coordinates sit,
never the amount of work: for every seed a workload has the same number of
requests, the same sum of |W^theta| (packet-sweep) and the same sum of
2**|singular| and of 2**(theta-orbits) (enumerate-image).
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import combinations
from math import factorial
from pathlib import Path

WORKLOADS = ("packet-sweep", "enumerate-image", "cli-session")

PACKET_GROUPS = ("U(3,3)", "Sp(8,R)", "SO(4,5)", "GL(7,R)", "GL(5,C)")
ENUMERATE_GROUPS = ("GL(18,R)", "Sp(20,R)", "U(6,6)", "SO(10,11)")

# singular-set sizes of the seeded weights, five requests of each per group;
# for GL(n,R) a shape is (theta-orbit pairs, middle root singular)
SINGULAR_SIZES = (1, 2, 3, 4, 5)
GL_SHAPES = ((0, 1), (1, 0), (1, 1), (2, 0), (2, 1))
REPEATS = 5

VERIFY_ARGV = ("verify", "--suite", "all", "--format", "json")
CLI_POOL = (
    ("enumerate", "--group", "Sp(4,R)"),
    ("enumerate", "--group", "U(2,1)", "--format", "json"),
    ("enumerate", "--group", "GL(4,R)", "--weight", "1,0,0,-1"),
    ("enumerate", "--group", "Sp(6,R)", "--format", "json"),
    ("packet", "--group", "U(2,1)", "--subset", "1"),
    ("packet", "--group", "Sp(4,R)", "--subset", "1", "--format", "json"),
    ("transfer", "--embedding", "sp-gl", "--param", "s2[2]"),
    ("transfer", "--embedding", "diag", "--param", "s1[1]", "--format", "json"),
    ("transfer", "--embedding", "so-odd-in-so-even", "--param", "w0[5]"),
    ("cohomology-sum", "--group", "U(2,1)"),
    ("cohomology-sum", "--group", "Sp(4,R)", "--subset", "1,2", "--format", "json"),
    ("innerforms", "--group", "U(3)"),
    ("innerforms", "--group", "SO(2,3)", "--format", "json"),
    ("dump-weyl", "--group", "GL(4,R)"),
    ("dump-weyl", "--group", "SO(2,3)", "--format", "json"),
    ("dump-weyl", "--group", "Sp(4,R)", "--elements", "4"),
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

_GROUP_RE = re.compile(r"^(GL|U|Sp|SO)\((\d+),(\d+|R|C)\)$")


# ---------------------------------------------------------------------------
# closed-form group data


def _parse(group: str) -> tuple[str, int, int | str]:
    m = _GROUP_RE.match(group)
    if m is None:
        raise ValueError(f"no closed form for {group}")
    kind, a, b = m.groups()
    return kind, int(a), b if b in ("R", "C") else int(b)


def rank(group: str) -> int:
    kind, a, b = _parse(group)
    if kind == "GL":
        return a - 1 if b == "R" else 2 * a - 2
    if kind == "U":
        return a + b - 1
    return a // 2 if kind == "Sp" else (a + b) // 2


def ambient_dim(group: str) -> int:
    kind, a, b = _parse(group)
    if kind == "GL":
        return a if b == "R" else 2 * a
    if kind == "U":
        return a + b
    return rank(group)


def theta(group: str, i: int) -> int:
    """The theta action on simple-root indices: a flip for GL, else trivial."""
    return rank(group) + 1 - i if _parse(group)[0] == "GL" else i


def theta_orbits(group: str, roots) -> int:
    return len({frozenset((i, theta(group, i))) for i in roots})


def _b_order(r: int) -> int:
    return 2**r * factorial(r)


def _d_order(r: int) -> int:
    return 2 ** (r - 1) * factorial(r) if r >= 2 else 1


def orders(group: str) -> tuple[int, int, int]:
    """(|W^theta|, |K-side|, d) for the groups the workloads use."""
    kind, a, b = _parse(group)
    if kind == "U":
        return factorial(a + b), factorial(a) * factorial(b), 0
    if kind == "Sp":
        return _b_order(a // 2), factorial(a // 2), 0
    if kind == "GL" and b == "R":
        m = a // 2
        return _b_order(m), _b_order(m), m + a % 2
    if kind == "GL":
        return factorial(a), factorial(a), a
    if (a + b) % 2 == 1:  # SO(p,q), p+q odd: K-side is W(D_even/2) x W(B_odd)
        even, odd = (a, b) if a % 2 == 0 else (b, a)
        return _b_order((a + b) // 2), _d_order(even // 2) * _b_order(odd // 2), 0
    raise ValueError(f"no closed form for {group}")


# ---------------------------------------------------------------------------
# request generation


def _theta_stable_subsets(group: str) -> list[tuple[int, ...]]:
    orbits = sorted({tuple(sorted({i, theta(group, i)})) for i in range(1, rank(group) + 1)})
    out = []
    for mask in range(2 ** len(orbits)):
        out.append(tuple(sorted(i for k, o in enumerate(orbits) if mask >> k & 1 for i in o)))
    return out


def _weight_from_singular(group: str, singular: set[int]) -> list[int]:
    """Dominant, integral, theta-fixed weight whose singular roots are exactly `singular`.

    Built from the last coordinate up with unit gaps at regular roots.  For
    GL(n,R) the upper half is built and mirrored (lambda_i = -lambda_{n+1-i});
    for U every weakly decreasing integer vector is theta-fixed; for Sp and
    odd SO the last root is singular exactly when the last entry is 0.
    """
    kind = _parse(group)[0]
    n = ambient_dim(group)
    if kind == "GL":
        half = n // 2
        top = [0] * half
        top[-1] = 0 if half in singular else 1
        for i in range(half - 1, 0, -1):
            top[i - 1] = top[i] + (0 if i in singular else 1)
        return top + [-x for x in reversed(top)]
    lam = [0] * n
    if kind != "U":
        lam[-1] = 0 if n in singular else 1
    for i in range(n - 1, 0, -1):
        lam[i - 1] = lam[i] + (0 if i in singular else 1)
    return lam


def _gl_singular(group: str, chosen, middle: int) -> set[int]:
    half = ambient_dim(group) // 2
    return set(chosen) | {theta(group, i) for i in chosen} | ({half} if middle else set())


def _seeded_singular(group: str, rng: random.Random, shape) -> set[int]:
    if _parse(group)[0] == "GL":
        pairs, middle = shape
        return _gl_singular(group, rng.sample(range(1, ambient_dim(group) // 2), pairs), middle)
    return set(rng.sample(range(1, rank(group) + 1), shape))


def _all_singular(group: str):
    """Every singular set a seed can give `group`, the zero weight's included."""
    yield set(range(1, rank(group) + 1))
    if _parse(group)[0] == "GL":
        for pairs, middle in GL_SHAPES:
            for chosen in combinations(range(1, ambient_dim(group) // 2), pairs):
                yield _gl_singular(group, chosen, middle)
    else:
        for size in SINGULAR_SIZES:
            for chosen in combinations(range(1, rank(group) + 1), size):
                yield set(chosen)


def _enumerate_request(group: str, singular: set[int]) -> dict:
    return {
        "kind": "enumerate",
        "group": group,
        "weight": _weight_from_singular(group, singular),
        "singular": sorted(singular),
    }


def generate(workload: str, seed: int) -> list[dict]:
    """The request list of one pass, in seeded order, with ids 0..n-1."""
    rng = random.Random(seed)
    if workload == "packet-sweep":
        reqs = [
            {"kind": "packet", "group": g, "subset": list(s)}
            for g in PACKET_GROUPS
            for s in _theta_stable_subsets(g)
        ]
    elif workload == "enumerate-image":
        reqs = [_enumerate_request(g, set(range(1, rank(g) + 1))) for g in ENUMERATE_GROUPS]
        for g in ENUMERATE_GROUPS:
            shapes = GL_SHAPES if g.startswith("GL") else SINGULAR_SIZES
            for shape in shapes * REPEATS:
                reqs.append(_enumerate_request(g, _seeded_singular(g, rng, shape)))
    elif workload == "cli-session":
        reqs = [{"kind": "cli", "argv": list(VERIFY_ARGV)}]
        reqs += [{"kind": "cli", "argv": list(argv)} for argv in CLI_POOL]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    for i, req in enumerate(reqs):
        req["id"] = i
    return reqs


def every_request() -> list[dict]:
    """Every request any seed can generate, once each, without ids."""
    reqs = {}
    for workload in ("packet-sweep", "cli-session"):
        for req in generate(workload, 0):
            del req["id"]
            reqs[reference_key(req)] = req
    for g in ENUMERATE_GROUPS:
        for singular in _all_singular(g):
            req = _enumerate_request(g, singular)
            reqs[reference_key(req)] = req
    return list(reqs.values())


def closed_form_work(workload: str, requests: list[dict]) -> int:
    """Seed-independent work of a pass: sum |W^theta| or sum 2**|singular|."""
    if workload == "packet-sweep":
        return sum(orders(r["group"])[0] for r in requests)
    if workload == "enumerate-image":
        return sum(2 ** len(r["singular"]) for r in requests)
    return len(requests)


def request_list_digest(requests: list[dict]) -> str:
    return digest(json.dumps(requests, sort_keys=True))


# ---------------------------------------------------------------------------
# checks


def digest(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:20]


def reference_key(req: dict) -> str:
    """Key of a request's output digest in the reference."""
    if req["kind"] == "packet":
        return f"packet {req['group']} {req['subset']}"
    if req["kind"] == "enumerate":
        return f"enumerate {req['group']} {','.join(map(str, req['weight']))}"
    return "cli " + " ".join(req["argv"])


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check(req: dict, summary: dict, reference: dict) -> str | None:
    """Compare one request's summary with closed forms and the reference; None if correct."""
    if req["kind"] == "packet":
        w_theta, k, d = orders(req["group"])
        if summary["coset_total"] != w_theta:
            return f"coset sizes sum to {summary['coset_total']}, expected |W^theta| = {w_theta}"
        if summary["h_total"] != 2**d * w_theta // k:
            return f"h_total {summary['h_total']}, expected 2^{d}*{w_theta}/{k}"
    elif req["kind"] == "enumerate":
        want = 2 ** theta_orbits(req["group"], req["singular"])
        if summary["count"] != want:
            return f"{summary['count']} parameters, expected 2^(theta-orbits) = {want}"
        if summary["inf_chars"] != 1:
            return f"{summary['inf_chars']} distinct infinitesimal characters for one weight"
    else:
        if summary["exit"] != 0:
            return f"exit code {summary['exit']}"
        if req["argv"][0] == "verify" and summary.get("status") != "ok":
            return f"verify status {summary.get('status')!r}"
    key = reference_key(req)
    want = reference.get(key)
    if want is None:
        return f"no reference digest for {key!r}"
    if summary["digest"] != want:
        return f"output digest {summary['digest']} differs from the reference {want}"
    return None
