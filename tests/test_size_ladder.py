"""Every command ends quickly on large groups.

A size ladder runs `packet`, `cohomology-sum`, `innerforms`, `dump-weyl`
and `transfer` on each family at n = 16, 128 and 1024, where n is the
size of the group's matrices: GL(n,R), SL(n,R), GL(n,C), U(n/2,n/2),
Sp(n,R), SO(n/2,n/2+1), SO(n/2,n/2) and SO(n/2-1,n/2+1) (SO(odd,odd) at
n = 16 and 1024), and `transfer` on w0[n] or w0[n+1] along each embedding.
Each run ends within a second with exit code 0, 2 or 3, at most one line
on stderr and no traceback: the datum's facts are closed forms, and the
Weyl cap refuses on the closed-form order before any group is built.
`packet --group "GL(2048,R)"` exits 3 within 0.3 s in a fresh process,
`transfer --embedding so-odd-gl --param "w0[40001]"` exits 0 within 1 s
in one, and an over-cap message prints an order past 30 digits as its number of
digits, whatever the interpreter's int-to-str limit.  Compact `innerforms`
prints |W| itself, so it exits 3 where |W| has more digits than that limit.
`enumerate` is left out: it has no cap on its subset walk yet.
"""

import contextlib
import io
import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cohoparam import weyl
from cohoparam.cli import main
from cohoparam.cohomology import innerform_sum_compact
from cohoparam.errors import UnsupportedGroupError, WeylSizeError
from cohoparam.rootdata import build_classical_dual

SIZES = (16, 128, 1024)


def _groups(n: int) -> list[str]:
    h = n // 2
    return [
        f"GL({n},R)", f"SL({n},R)", f"GL({n},C)", f"U({n - h},{h})", f"Sp({n},R)",
        f"SO({h},{h + 1})", f"SO({h},{h})", f"SO({h - 1},{h + 1})",
    ]


def _ladder(n: int) -> list[list[str]]:
    commands = ("packet", "cohomology-sum", "innerforms", "dump-weyl")
    out = [[c, "--group", g] for g in _groups(n) for c in commands]
    for embedding, m in (("diag", n), ("sp-gl", n), ("so-odd-gl", n + 1),
                         ("so-odd-in-so-even", n + 1)):
        out.append(["transfer", "--embedding", embedding, "--param", f"w0[{m}]"])
    return out


def _timed(argv: list[str]) -> tuple[float, int, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return time.perf_counter() - start, code, err.getvalue()


def _fresh(argv: list[str], **env) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "cohoparam.cli", *argv],
        capture_output=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src), **env},
    )


def _assert_bounded(argv, elapsed, code, err):
    assert elapsed < 1.0, (argv, elapsed)
    assert code in (0, 2, 3), (argv, code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, (argv, err)


@pytest.mark.parametrize("n", SIZES)
def test_every_command_on_every_family_ends_within_a_second(n):
    for argv in _ladder(n):
        _assert_bounded(argv, *_timed(argv))


@pytest.mark.parametrize("group", _groups(1024))
def test_a_large_packet_exits_in_a_fresh_process_without_a_traceback(group):
    src = Path(__file__).resolve().parents[1] / "src"
    argv = ["packet", "--group", group]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cohoparam.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    _assert_bounded(argv, time.perf_counter() - start, proc.returncode, proc.stderr)
    assert proc.returncode == 3


@pytest.mark.parametrize("family", ["U", "SO"])
@pytest.mark.parametrize("n", [100, 201, 400])
@pytest.mark.parametrize("share", [0, 2])
def test_innerforms_on_large_unitary_and_orthogonal_forms(family, n, share):
    # every pure inner form's |K| is read off the catalog table, no group built
    k = n // share if share else 0
    argv = ["innerforms", "--group", f"{family}({n - k},{k})"]
    elapsed, code, err = _timed(argv)
    assert code == 0 and not err, (argv, err)
    assert elapsed < 1.0, (argv, elapsed)


@pytest.mark.parametrize("command", ["dump-weyl", "packet"])
def test_an_order_past_the_int_to_str_limit_is_reported_by_its_digits(command):
    # |W^theta| = 1800! has 5,080 digits, over the default limit of 4,300
    argv = [command, "--group", "U(900,900)"]
    elapsed, code, err = _timed(argv)
    assert elapsed < 1.0, elapsed
    assert code == 3
    assert err == (
        "unsupported: twisted Weyl group of U(900,900) has a 5080-digit number "
        "of elements, over the cap of 1000000\n"
    )


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("group", ["U(3000)", "Sp(1600)", "SO(3201)", "U(99999999999)"])
def test_a_compact_innerforms_past_the_int_to_str_limit_exits_3(group, fmt):
    # |W|, the stabilizer at k = 0, is the report's largest number: 3000!
    # has 9,131 digits, 2^1600 1600! 4,919, over the default limit of 4,300;
    # at rank 10^11 it is refused without being computed
    argv = ["innerforms", "--group", group, "--format", fmt]
    elapsed, code, err = _timed(argv)
    _assert_bounded(argv, elapsed, code, err)
    assert code == 3
    assert err.startswith(f"unsupported: the Weyl group of {group} has an order of more than")


_COMPACT_ORDERS = {  # |W| of the compact form of each kind at each size
    "U": lambda n: math.factorial(n),
    "Sp": lambda n: 2**n * math.factorial(n),
    "SO": lambda n: 2 ** (n // 2 - (n % 2 == 0)) * math.factorial(n // 2) if n % 2 or n > 3 else 1,
}


@pytest.mark.parametrize("kind", _COMPACT_ORDERS)
def test_compact_innerforms_refuses_exactly_where_its_order_passes_the_limit(kind):
    # at the least limit, 640: the last size whose |W| has at most 640
    # digits is answered, and the next refused
    order, limit = _COMPACT_ORDERS[kind], sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        size = next(n for n in itertools.count(1) if len(str(order(n + 1))) > 640)
        sys.set_int_max_str_digits(640)
        report = innerform_sum_compact(f"{kind}({size})")
        assert report.classes[0].stabilizer_order == order(size)
        with pytest.raises(UnsupportedGroupError, match="more than 640 digits"):
            innerform_sum_compact(f"{kind}({size + 1})")
    finally:
        sys.set_int_max_str_digits(limit)


def test_order_text_counts_digits_past_thirty():
    assert [weyl._order_text(x) for x in (1, 9, 10, 999)] == ["1", "9", "10", "999"]
    assert weyl._order_text(10**30 - 1) == "9" * 30
    assert weyl._order_text(10**30) == "a 31-digit number of"
    for digits in range(31, 400):
        for x in (10 ** (digits - 1), 10**digits - 1, 2 ** (3 * digits) % 10**digits):
            if len(str(x)) == digits:
                assert weyl._order_text(x) == f"a {digits}-digit number of"


def test_an_over_cap_message_does_not_depend_on_the_int_to_str_limit():
    # |W^theta| of Sp(600,R) is 2^300 300!, 705 digits: over the limit of
    # 640, under the default of 4,300
    argv = ["packet", "--group", "Sp(600,R)"]
    default, limited = _fresh(argv), _fresh(argv, PYTHONINTMAXSTRDIGITS="640")
    assert default.returncode == limited.returncode == 3
    assert default.stderr == limited.stderr == (
        b"unsupported: twisted Weyl group of Sp(600,R) has a 705-digit number "
        b"of elements, over the cap of 1000000\n"
    )


def test_a_packet_of_gl_2048_exits_in_a_fresh_process_within_300_ms():
    # the weight's pairings read each simple coroot's at most two entries,
    # so no n x n table is written before the cap refuses; best of three
    # fresh processes, so that one scheduling delay does not decide
    argv = ["packet", "--group", "GL(2048,R)"]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        proc = _fresh(argv)
        times.append(time.perf_counter() - start)
        assert proc.returncode == 3, proc.stderr
        assert b"Traceback" not in proc.stderr
    assert min(times) < 0.3, times


def test_a_transfer_of_w0_40001_exits_in_a_fresh_process_within_a_second():
    # Sp(40000,R): every step from the parse to the printed image is linear
    # in n, the Levi block of all 20,000 roots included; best of three
    argv = ["transfer", "--embedding", "so-odd-gl", "--param", "w0[40001]"]
    times = []
    for _ in range(3):
        start = time.perf_counter()
        proc = _fresh(argv)
        times.append(time.perf_counter() - start)
        assert proc.returncode == 0, proc.stderr
        assert b"image cohomological  True\n" in proc.stdout
    assert min(times) < 1.0, times


def test_the_cap_refuses_before_any_generator_is_built(monkeypatch):
    def no_block(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(weyl, "_block", no_block)
    weyl._compact_weyl_catalog.cache_clear()
    with pytest.raises(WeylSizeError, match="over the cap of 1000000"):
        weyl.compact_weyl_catalog("Sp(600,R)")
    assert weyl._closed_form_total("U(3,3)") == 20  # the index C(6,3), d = 0
    with pytest.raises(WeylSizeError):
        weyl._closed_form_total("U(200,200)")
    weyl._compact_weyl_catalog.cache_clear()


def test_a_large_datum_reads_its_facts_without_its_dense_roots():
    # a fresh datum: rank, rho-check and the theta orbits come from the
    # closed forms, and the n dense simple-root vectors are never written
    d0 = build_classical_dual("SO(3000,3001)")
    d = type(d0)(d0.descriptor, d0.family, d0.factors, d0.galois_linear, d0.signature)
    start = time.perf_counter()
    assert d.rank == 3000 and len(d._theta_orbits) == 3000
    assert d.rho_check.twice[:3] == (5999, 5997, 5995)
    assert time.perf_counter() - start < 1.0
    assert not {"simple_roots", "simple_coroots"} & set(vars(d))
