"""Every command ends quickly on large groups.

A size ladder runs `packet`, `cohomology-sum`, `innerforms`, `dump-weyl`
and `transfer` on each family at n = 16, 128 and 1024, where n is the
size of the group's matrices: GL(n,R), SL(n,R), GL(n,C), U(n/2,n/2),
Sp(n,R), SO(n/2,n/2+1), SO(n/2,n/2) and SO(n/2-1,n/2+1) (SO(odd,odd) at
n = 16 and 1024), and `transfer` on w0[n] or w0[n+1] along each embedding.
Each run ends within a second with exit code 0, 2 or 3, at most one line
on stderr and no traceback: the datum's facts are closed forms, and the
Weyl cap refuses on the closed-form order before any group is built.
`enumerate` is left out: it has no cap on its subset walk yet.
"""

import contextlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from cohoparam import weyl
from cohoparam.cli import main
from cohoparam.errors import WeylSizeError
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


def test_order_text_counts_digits_only_past_the_limit(monkeypatch):
    monkeypatch.setattr(weyl, "sys", SimpleNamespace(get_int_max_str_digits=lambda: 3))
    assert [weyl._order_text(x) for x in (1, 9, 10, 999)] == ["1", "9", "10", "999"]
    for digits in range(4, 60):
        for x in (10 ** (digits - 1), 10**digits - 1, 2 ** (3 * digits) % 10**digits):
            if len(str(x)) == digits:
                assert weyl._order_text(x) == f"a {digits}-digit number of"
    monkeypatch.setattr(weyl, "sys", SimpleNamespace(get_int_max_str_digits=lambda: 0))
    assert weyl._order_text(10**50) == str(10**50)  # 0: no limit


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
