"""Command-line front end: golden outputs, exit codes, determinism.

Commands are driven in-process through ``main(argv)`` (fast, and the exit
code is the return value); the subprocess tests at the bottom prove the
``python -m`` route, its process entry and its imports end to end.  Table outputs for the low-rank groups were
checked by hand against the enumeration tables in test_params and frozen
here byte for byte.
"""

import gc
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cohoparam.cli import EMBEDDINGS, SUITES, build_parser, main
from cohoparam.errors import MathCheckError
from cohoparam.transfer import parse_gl_parameter
from oracles import parse_complex_parameter

# the CLI error paths are listed once, with the golden corpus that digests them
_RECORD = Path(__file__).parent / "golden" / "record.py"
_spec = importlib.util.spec_from_file_location("golden_record", _RECORD)
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout)."""
    code = main(list(argv))
    return code, capsys.readouterr().out


GL4_LINES = ["s3[1]+s1[1]", "s3[1]+w0[2]", "s2[2]", "w0[4]"]
SP4_LINES = ["s4[1]+s2[1]+w0[1]", "s3[2]+w0[1]", "s4[1]+w1[3]", "w0[5]"]


class TestEnumerate:
    def test_gl4_table(self, capsys):
        code, out = run(
            capsys, "enumerate", "--group", "GL(4,R)", "--weight", "0,0,0,0"
        )
        assert code == 0
        assert out.splitlines() == GL4_LINES

    def test_sp4_table(self, capsys):
        code, out = run(capsys, "enumerate", "--group", "Sp(4,R)", "--weight", "0,0")
        assert code == 0
        assert out.splitlines() == SP4_LINES

    def test_gl1_single_tempered(self, capsys):
        code, out = run(capsys, "enumerate", "--group", "GL(1,R)", "--weight", "0")
        assert code == 0
        assert out.splitlines() == ["w0[1]"]

    def test_weight_defaults_to_zero(self, capsys):
        _, explicit = run(
            capsys, "enumerate", "--group", "GL(4,R)", "--weight", "0,0,0,0"
        )
        _, default = run(capsys, "enumerate", "--group", "GL(4,R)")
        assert default == explicit

    @pytest.mark.parametrize("command", ["enumerate", "packet", "cohomology-sum"])
    def test_weight_may_start_with_a_minus_sign(self, capsys, command):
        # theta is the identity for U(p,q), so any dominant weight is valid
        argv = [command, "--group", "U(2,1)"]
        joined = run(capsys, *argv, "--weight=-1,-1,-2")
        spaced = run(capsys, *argv, "--weight", "-1,-1,-2")
        assert spaced == joined
        assert joined[0] == 0
        if command == "enumerate":
            assert joined[1].splitlines() == ["e0[1]+e-1[1]+e-3[1]", "e-1/2[2]+e-3[1]"]

    def test_weight_without_a_value_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--group", "U(2,1)", "--weight", "--format", "json"])
        assert exc.value.code == 2
        assert "--weight: expected one argument" in capsys.readouterr().err

    def test_nonzero_weight_shrinks_list(self, capsys):
        code, out = run(capsys, "enumerate", "--group", "Sp(4,R)", "--weight", "1,0")
        assert code == 0
        # (1,0) is singular for one wall only, so two subsets survive
        assert out.splitlines() == ["s6[1]+s2[1]+w0[1]", "s6[1]+w1[3]"]

    def test_json_payload(self, capsys):
        code, out = run(
            capsys, "enumerate", "--group", "GL(2,R)", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == "GL(2,R)"
        assert payload["count"] == 2
        assert payload["weight"] == "0,0"
        texts = [p["parameter"] for p in payload["parameters"]]
        assert texts == ["s1[1]", "w0[2]"]
        assert [p["subset"] for p in payload["parameters"]] == [[], [1]]
        assert all(p["type"] == "real" for p in payload["parameters"])

    def test_json_texts_parse_back(self, capsys):
        # round trip: every rendered parameter is its own canonical text
        for group, parser in (
            ("Sp(6,R)", parse_gl_parameter),
            ("GL(5,R)", parse_gl_parameter),
            ("U(2,2)", parse_complex_parameter),
            ("GL(3,C)", parse_complex_parameter),
        ):
            _, out = run(capsys, "enumerate", "--group", group, "--format", "json")
            for entry in json.loads(out)["parameters"]:
                assert parser(entry["parameter"]).text() == entry["parameter"]

    def test_complex_groups_tagged(self, capsys):
        _, out = run(capsys, "enumerate", "--group", "U(2,1)", "--format", "json")
        assert all(p["type"] == "complex" for p in json.loads(out)["parameters"])


class TestPacket:
    def test_sp4_middle_subset(self, capsys):
        code, out = run(capsys, "packet", "--group", "Sp(4,R)", "--subset", "1")
        assert code == 0
        assert out.splitlines() == [
            "group        Sp(4,R)",
            "levi subset  [1]",
            "size         3",
            "total        4",
            "  member (1 2)            h=1  (1 2)",
            "  member (1 -2)           h=2  (1 -2)",
            "  member (-1 -2)          h=1  (-1 -2)",
        ]

    def test_json_matches_table_totals(self, capsys):
        code, out = run(
            capsys,
            "packet", "--group", "U(2,1)", "--subset", "", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 3
        assert payload["h_total"] == 3
        assert len(payload["members"]) == 3

    def test_max_size_cap_trips(self, capsys):
        assert main(["packet", "--group", "Sp(4,R)", "--max-size", "2"]) == 3
        capsys.readouterr()


class TestTransfer:
    def test_symplectic_valued_to_gl(self, capsys):
        code, out = run(
            capsys, "transfer", "--embedding", "sp-gl", "--param", "s2[2]",
            "--n", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "embedding    sp-gl (so-odd-to-gl)"
        assert lines[1] == "source       SO(2,3)  s2[2]"
        assert lines[2] == "target       GL(4,R)  s2[2]"
        assert lines[3] == "inf char     3/2,1/2,-1/2,-3/2"
        assert "image regular        True" in lines
        assert "image cohomological  True" in lines

    def test_diag_restriction_of_scalars(self, capsys):
        code, out = run(
            capsys, "transfer", "--embedding", "diag", "--param", "s1[1]",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "gl-to-complex"
        assert payload["source"] == "GL(2,R)"
        assert payload["target"] == "GL(2,C)"
        assert payload["parameter"] == "e1/2[1]+e-1/2[1]"
        assert payload["image_regular"] and payload["image_cohomological"]
        # the complex image is again canonical text
        assert parse_complex_parameter(payload["parameter"]).text() == (
            payload["parameter"]
        )

    def test_odd_orthogonal_into_even(self, capsys):
        code, out = run(
            capsys, "transfer", "--embedding", "so-odd-in-so-even",
            "--param", "w0[5]", "--disc", "trivial", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["source"] == "Sp(4,R)"
        assert payload["target"] == "SO(3,3)"
        assert payload["parameter"] == "w0[5]+w0[1]"
        assert payload["inf_char"] == "2,1,0"

    def test_twist_orbit_fallback(self, capsys):
        # s4[1]+w0[3] is not in the weight-zero list, but its order-two
        # twist s4[1]+w1[3] is; the match is reported, not silent
        code, out = run(
            capsys, "transfer", "--embedding", "so-odd-in-so-even",
            "--param", "s4[1]+w0[3]", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["twist_note"] == "matched up to the order-two twist"
        assert payload["source_parameter"] == "s4[1]+w1[3]"
        assert payload["parameter"] == "s4[1]+w1[3]+w0[1]"

    def test_nonzero_weight_image(self, capsys):
        # the image of S = {} at the weight (1,0) of Sp(4,R)
        code, out = run(
            capsys, "transfer", "--embedding", "so-odd-gl",
            "--param", "s6[1]+s2[1]+w0[1]", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["source"] == "Sp(4,R)"
        assert payload["source_parameter"] == "s6[1]+s2[1]+w0[1]"
        assert payload["inf_char"] == "3,1,0,-1,-3"
        assert payload["image_regular"] and payload["image_cohomological"]
        assert "twist_note" not in payload

    def test_source_is_read_without_enumerating(self, capsys, monkeypatch):
        import cohoparam.cli as cli
        from cohoparam import params

        def boom(*a, **k):
            pytest.fail("transfer enumerated its source")

        monkeypatch.setattr(cli, "enumerate_cohomological", boom)
        monkeypatch.setattr(params, "enumerate_cohomological", boom)
        for embedding, text in [
            ("sp-gl", "s2[2]"), ("so-odd-gl", "s6[1]+s2[1]+w0[1]"),
            ("so-odd-in-so-even", "s4[1]+w0[3]"), ("diag", "s5[1]+s1[1]"),
        ]:
            assert main(["transfer", "--embedding", embedding, "--param", text]) == 0
        capsys.readouterr()

    def test_non_image_exits_2_at_once(self, capsys):
        # SO(16,17) has 2**16 weight-zero parameters; none is searched
        start = time.perf_counter()
        code = main([
            "transfer", "--embedding", "sp-gl",
            "--param", "s2[4]+s2[4]+s2[4]+s2[4]",
        ])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert elapsed < 1
        assert captured.err == (
            "invalid input: 's2[4]+s2[4]+s2[4]+s2[4]' is not the image of a "
            "cohomological parameter of SO(16,17)\n"
        )

    def test_large_target_is_decided_at_once(self, capsys):
        # GL(22,C) has 2**21 compositions at the zero weight; none is walked
        start = time.perf_counter()
        code = main(["transfer", "--embedding", "diag", "--param", "w0[22]"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 0
        assert elapsed < 1
        assert "image cohomological  True" in captured.out.splitlines()
        assert captured.err == ""

    def test_every_embedding_has_a_kind(self):
        assert set(EMBEDDINGS) == {"sp-gl", "so-odd-gl", "diag", "so-odd-in-so-even"}
        assert set(EMBEDDINGS.values()) == {
            "so-odd-to-gl", "sp-to-gl", "gl-to-complex", "sp-to-so-even",
        }

    def test_rank_flag_checked(self, capsys):
        assert main(["transfer", "--embedding", "sp-gl", "--param", "s2[2]",
                     "--n", "3"]) == 2
        capsys.readouterr()

    def test_nontrivial_discriminant_rejected(self, capsys):
        assert main(["transfer", "--embedding", "sp-gl", "--param", "s2[2]",
                     "--disc", "chi"]) == 3
        capsys.readouterr()

    def test_unknown_parameter_text(self, capsys):
        assert main(["transfer", "--embedding", "sp-gl", "--param", "zzz"]) == 2
        capsys.readouterr()


class TestCohomologySum:
    def test_u21_borel(self, capsys):
        code, out = run(capsys, "cohomology-sum", "--group", "U(2,1)")
        assert code == 0
        assert out.splitlines() == [
            "group        U(2,1)",
            "levi subset  []",
            "total        3",
            "  route binomial_product   3",
            "  route catalog            3",
            "  route members            3",
        ]

    def test_gl4_all_routes_agree(self, capsys):
        code, out = run(
            capsys, "cohomology-sum", "--group", "GL(4,R)", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["identity"] == "packet-sum"
        assert payload["lhs"] == payload["rhs"] == 4
        assert payload["status"] == "ok"
        routes = {w["route"]: w["total"] for w in payload["witnesses"]}
        assert set(routes) == {
            "members", "catalog", "levi_product", "exponent_form",
        }
        assert set(routes.values()) == {4}

    def test_subset_changes_nothing(self, capsys):
        # the total is a packet invariant: same for every Levi subset
        _, borel = run(
            capsys, "cohomology-sum", "--group", "Sp(4,R)", "--format", "json"
        )
        _, sub = run(
            capsys,
            "cohomology-sum", "--group", "Sp(4,R)", "--subset", "1,2",
            "--format", "json",
        )
        assert json.loads(borel)["lhs"] == json.loads(sub)["lhs"] == 4


class TestInnerforms:
    def test_compact_unitary_table(self, capsys):
        code, out = run(capsys, "innerforms", "--group", "U(3)")
        assert code == 0
        assert out.splitlines() == [
            "group  U(3)",
            "sum    8 = 2^rank",
            "  orbit size    1  stabilizer      6  U(3,0)",
            "  orbit size    3  stabilizer      2  U(2,1)",
            "  orbit size    3  stabilizer      2  U(1,2)",
            "  orbit size    1  stabilizer      6  U(0,3)",
        ]

    def test_quasisplit_odd_orthogonal(self, capsys):
        code, out = run(capsys, "innerforms", "--group", "SO(2,3)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "group   SO(2,3)"
        assert lines[1] == "sum     4  expected 4  [ok]"
        assert lines[2] == "betti   4"
        assert "  SO(4,1)      index 1" in lines
        assert "  SO(2,3)      index 2" in lines
        assert "  SO(0,5)      index 1" in lines

    def test_connected_flavor_row_is_flagged(self, capsys):
        code, out = run(
            capsys, "innerforms", "--group", "SL(4,R)", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "discrepancy"
        assert (payload["lhs"], payload["rhs"]) == (2, 1)
        assert payload["notes"]


class TestDumpWeyl:
    def test_gl4_catalog_entry(self, capsys):
        code, out = run(
            capsys, "dump-weyl", "--group", "GL(4,R)", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["full_order"] == 24
        assert payload["theta_fixed_order"] == 8
        assert payload["k_order"] == 8
        assert payload["d_exponent"] == 2
        assert payload["n_cosets"] == 1
        assert payload["cartan_signature"] == [0, 2, 0]

    def test_element_listing_is_sorted_prefix(self, capsys):
        _, two = run(
            capsys,
            "dump-weyl", "--group", "Sp(4,R)", "--elements", "2",
            "--format", "json",
        )
        _, four = run(
            capsys,
            "dump-weyl", "--group", "Sp(4,R)", "--elements", "4",
            "--format", "json",
        )
        a, b = json.loads(two)["elements"], json.loads(four)["elements"]
        assert len(a) == 2 and len(b) == 4
        assert b[:2] == a


class TestVerify:
    @pytest.mark.parametrize(
        "suite,extra",
        [
            ("paper-tables", []),
            ("packet-sums", ["--max-n", "6"]),
            ("innerforms", ["--max-rank", "5"]),
            ("weyl-identities", []),
        ],
    )
    def test_each_suite_passes(self, capsys, suite, extra):
        code, out = run(
            capsys, "verify", "--suite", suite, *extra, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["failed"] == []
        assert all(c["status"] == "ok" for c in payload["checks"])

    def test_golden_table_suite_is_broad(self, capsys):
        _, out = run(
            capsys, "verify", "--suite", "paper-tables", "--format", "json"
        )
        assert len(json.loads(out)["checks"]) >= 12

    def test_all_is_the_union(self, capsys):
        _, out = run(
            capsys,
            "verify", "--suite", "all", "--max-n", "5", "--max-rank", "4",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["status"] == "ok"
        names = {c["name"] for c in payload["checks"]}
        for probe in ("gl-real-list-4", "partition-independence-5-SO",
                      "compact-U(3)", "weyl-Sp(4,R)"):
            assert probe in names

    def test_all_builds_each_catalog_once(self, capsys):
        from cohoparam import weyl

        weyl._compact_weyl_catalog.cache_clear()
        code, _ = run(capsys, "verify", "--suite", "all", "--format", "json")
        info = weyl._compact_weyl_catalog.cache_info()
        assert code == 0
        # no key was evicted and built again
        assert info.misses == info.currsize < info.maxsize
        assert info.hits > info.misses

    def test_suite_failure_exits_5(self, capsys, monkeypatch):
        import cohoparam.verify as verify

        monkeypatch.setitem(verify.GL_REAL_LISTS, 4, {"not-a-parameter"})
        code, out = run(capsys, "verify", "--suite", "paper-tables")
        assert code == 5
        assert "result: failed" in out
        assert "gl-real-list-4" in out

    def test_suite_names_fixed(self):
        assert SUITES == (
            "paper-tables", "packet-sums", "innerforms", "weyl-identities", "all"
        )


class TestExitCodes:
    @pytest.mark.parametrize("argv,code", record.ERROR_PATHS)
    def test_error_paths(self, argv, code, capsys):
        assert main(argv) == code
        capsys.readouterr()

    @pytest.mark.parametrize("group", ["SO(1,0)", "SO(0,1)"])
    @pytest.mark.parametrize(
        "command",
        ["enumerate", "packet", "cohomology-sum", "innerforms", "dump-weyl"],
    )
    def test_so_below_two_coordinates_is_unsupported(self, command, group, capsys):
        assert main([command, "--group", group]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "p+q >= 2" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("param", ["", "0", " ", "0*nu^1"])
    @pytest.mark.parametrize("embedding", sorted(EMBEDDINGS))
    def test_the_empty_parameter_exits_2(self, embedding, param, capsys):
        # it names no group, so the message names none either
        assert main(["transfer", "--embedding", embedding, "--param", param]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"invalid input: {param!r} is the empty parameter; give at least one atom\n"
        )

    @pytest.mark.parametrize("weight", ["", " "])
    @pytest.mark.parametrize("command", ["enumerate", "packet", "cohomology-sum"])
    def test_an_empty_weight_exits_2(self, command, weight, capsys):
        # a given --weight is parsed even when empty, not read as the zero weight
        assert main([command, "--group", "GL(2,R)", "--weight", weight]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: weight has 0 coordinates, expected 2\n"

    @pytest.mark.parametrize(
        "command,flag,value,need",
        [
            ("packet", "--max-size", "-5", "positive"),
            ("packet", "--max-size", "0", "positive"),
            ("dump-weyl", "--max-size", "0", "positive"),
            ("dump-weyl", "--elements", "-3", "non-negative"),
            ("verify", "--max-n", "-1", "non-negative"),
            ("verify", "--max-rank", "-2", "non-negative"),
        ],
    )
    def test_out_of_range_counts_exit_2(self, command, flag, value, need, capsys):
        where = ["--suite", "all"] if command == "verify" else ["--group", "Sp(4,R)"]
        assert main([command, *where, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {flag} must be {need}, got {value}\n"

    def test_zero_counts_are_accepted(self, capsys):
        assert main(["dump-weyl", "--group", "Sp(4,R)", "--elements", "0"]) == 0
        assert main(["verify", "--suite", "innerforms", "--max-rank", "0"]) == 0
        capsys.readouterr()

    def test_internal_cross_check_exits_4(self, capsys, monkeypatch):
        from cohoparam import transfer

        def boom(*a, **k):
            raise MathCheckError("forced")

        monkeypatch.setattr(transfer, "transfer_cohom", boom)
        assert main(["transfer", "--embedding", "sp-gl", "--param", "s2[2]"]) == 4
        capsys.readouterr()

    def test_argparse_rejects_unknown_choice(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_env_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("COHOPARAM_MAX_WEYL", "5")
        assert main(["packet", "--group", "Sp(4,R)"]) == 3
        capsys.readouterr()

    def test_max_size_cannot_raise_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("COHOPARAM_MAX_WEYL", "5")
        assert main(["packet", "--group", "Sp(4,R)", "--max-size", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("unsupported: ")
        assert captured.err.count("\n") == 1

    def test_verify_over_the_cap_exits_3_at_once(self, capsys, monkeypatch):
        # a check past the cap is an unsupported request, not a failed
        # identity: it ends the run before the sweep reaches the larger N
        monkeypatch.setenv("COHOPARAM_MAX_WEYL", "1000")
        start = time.perf_counter()
        code = main(["verify", "--suite", "packet-sums", "--max-n", "40"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert elapsed < 2
        assert captured.out == ""
        assert captured.err.startswith("unsupported: ")
        assert captured.err.count("\n") == 1

    def test_verify_over_the_cap_builds_no_composition(self, capsys, monkeypatch):
        # under a cap of 1 only N = 1 is in range: the sweep stops at N = 2
        # with exit 3, before it builds that N's compositions
        from cohoparam import cohomology

        compositions = cohomology.self_dual_compositions

        def only_n1(N):
            if N > 1:
                pytest.fail(f"self_dual_compositions({N}) built over the cap")
            return compositions(N)

        monkeypatch.setattr(cohomology, "self_dual_compositions", only_n1)
        monkeypatch.setenv("COHOPARAM_MAX_WEYL", "1")
        code = main(["verify", "--suite", "packet-sums", "--max-n", "40"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == (
            "unsupported: twisted Weyl group of GL(2,R) has 2 elements, "
            "over the cap of 1\n"
        )

    @pytest.mark.parametrize("raw", ["0", "-1", "abc"])
    def test_malformed_env_cap_is_invalid_input(self, raw, capsys, monkeypatch):
        monkeypatch.setenv("COHOPARAM_MAX_WEYL", raw)
        assert main(["packet", "--group", "Sp(4,R)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input: COHOPARAM_MAX_WEYL=")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("raw,code", [("2", 3), ("abc", 2)])
    def test_env_cap_checked_with_catalog_cached(self, raw, code, capsys, monkeypatch):
        assert main(["packet", "--group", "Sp(4,R)"]) == 0  # warms the catalog
        capsys.readouterr()
        monkeypatch.setenv("COHOPARAM_MAX_WEYL", raw)
        assert main(["packet", "--group", "Sp(4,R)"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("group", ["E8", "GL(0,R)", "SO(1,0)", "SO(3,5)"])
    def test_bad_group_exits_3_on_every_call(self, group, capsys):
        for _ in range(2):
            assert main(["enumerate", "--group", group]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("unsupported: ")
            assert captured.err.count("\n") == 1

    def test_env_cap_checked_with_datum_memoized(self, capsys, monkeypatch):
        assert main(["enumerate", "--group", "Sp(4,R)"]) == 0  # memoizes the datum
        monkeypatch.setenv("COHOPARAM_MAX_WEYL", "5")
        assert main(["packet", "--group", "Sp(4,R)"]) == 3
        monkeypatch.setenv("COHOPARAM_MAX_WEYL", "abc")
        assert main(["packet", "--group", "Sp(4,R)"]) == 2
        monkeypatch.delenv("COHOPARAM_MAX_WEYL")
        assert main(["packet", "--group", "Sp(4,R)"]) == 0
        capsys.readouterr()

    def test_weight_reported_before_subset(self, capsys):
        # non-dominant at alpha_1, and non-zero on alpha_2, which is in S
        argv = ["packet", "--group", "Sp(6,R)", "--subset", "2", "--weight", "0,1,0"]
        for _ in range(2):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == "invalid input: 0,1,0 is not dominant (alpha_1)\n"

    def test_levi_group_is_not_built(self, capsys):
        # W_L = S_7 is over the cap of 100, but only W^theta and K (8 elements
        # each) are built, so the packet is computed as without the cap
        argv = ["packet", "--group", "GL(7,R)", "--subset", "1,2,3,4,5,6"]
        code, capped = run(capsys, *argv, "--max-size", "100")
        assert code == 0
        assert capped == run(capsys, *argv)[1]
        assert capped.splitlines()[:4] == [
            "group        GL(7,R)",
            "levi subset  [1, 2, 3, 4, 5, 6]",
            "size         1",
            "total        16",
        ]

    def test_diagnostics_go_to_stderr(self, capsys):
        code = main(["enumerate", "--group", "GL(2,R)", "--weight", "x,0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "invalid input" in captured.err


class TestDeterminism:
    def test_verify_output_is_byte_identical(self, capsys):
        _, first = run(capsys, "verify", "--suite", "weyl-identities")
        _, second = run(capsys, "verify", "--suite", "weyl-identities")
        assert first == second

    def test_enumerate_json_is_byte_identical(self, capsys):
        _, first = run(
            capsys, "enumerate", "--group", "Sp(6,R)", "--format", "json"
        )
        _, second = run(
            capsys, "enumerate", "--group", "Sp(6,R)", "--format", "json"
        )
        assert first == second

    def test_json_reserializes_to_itself(self, capsys):
        # parse(render(x)) = x, including key order
        for argv in (
            ["enumerate", "--group", "GL(4,R)"],
            ["cohomology-sum", "--group", "U(2,2)"],
            ["innerforms", "--group", "Sp(3)"],
            ["dump-weyl", "--group", "SO(2,3)"],
        ):
            _, out = run(capsys, *argv, "--format", "json")
            payload = json.loads(out)
            assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


class TestParser:
    def test_prog_and_commands(self):
        parser = build_parser()
        assert parser.prog == "cohoparam"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cohoparam.cli", "enumerate",
             "--group", "GL(1,R)"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "w0[1]\n"


_ROOT = Path(__file__).resolve().parents[1]


def _python(*args, **kwargs):
    """A fresh interpreter with the checkout's `src` on its path."""
    return subprocess.run(
        [sys.executable, *args], text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")}, **kwargs,
    )


# argv and exit code: a success, an argparse usage error, a weight outside
# the lattice, a group over the Weyl cap
_PARITY_CASES = [
    (["enumerate", "--group", "GL(4,R)"], 0),
    (["enumerate", "--weight", "0"], 2),
    (["enumerate", "--group", "GL(2,R)", "--weight", "1/3,0"], 2),
    (["packet", "--group", "Sp(600,R)"], 3),
]


class TestProcessEntry:
    def test_console_script_is_the_process_entry(self):
        # read as text, since 3.10 has no tomllib
        text = (_ROOT / "pyproject.toml").read_text()
        section = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        scripts = dict(
            line.split(" = ", 1) for line in section.splitlines() if line.strip()
        )
        assert scripts == {"cohoparam": '"cohoparam.cli:run"'}

    @pytest.mark.parametrize(
        "argv, code", _PARITY_CASES, ids=["ok", "usage", "weight", "weyl-cap"]
    )
    def test_process_prints_what_main_prints(self, argv, code, capsys):
        try:
            got = main(list(argv))
        except SystemExit as exc:  # argparse's usage error
            got = exc.code
        captured = capsys.readouterr()
        proc = _python("-m", "cohoparam.cli", *argv, capture_output=True)
        assert got == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, captured.out, captured.err,
        )

    def test_atexit_handlers_run_after_the_freeze(self):
        probe = (
            "import atexit, gc\n"
            "atexit.register(lambda: print('atexit', gc.get_freeze_count() > 0))\n"
            "from cohoparam.cli import run\n"
            "run()"
        )
        proc = _python("-c", probe, "enumerate", "--group", "GL(1,R)",
                       capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "w0[1]\natexit True\n", "",
        )

    def test_main_in_process_leaves_the_collector_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        assert main(["enumerate", "--group", "GL(4,R)"]) == 0
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_the_entry_loads_no_module_main_does_not(self):
        # the modules loaded when the process ends, through `run` and
        # through `main` in process alike
        report = "print(' '.join(sorted(sys.modules)), file=sys.stderr)"
        probes = (
            "import atexit, sys; from cohoparam.cli import main; "
            f"main(sys.argv[1:]); {report}",
            f"import atexit, sys; atexit.register(lambda: {report}); "
            "from cohoparam.cli import run; run()",
        )
        argv = ["dump-weyl", "--group", "GL(4,R)", "--format", "json"]
        procs = [
            _python("-S", "-c", probe, *argv, capture_output=True)
            for probe in probes
        ]
        assert [p.returncode for p in procs] == [0, 0]
        via_main, via_run = (set(p.stderr.split()) for p in procs)
        assert via_run == via_main

    @pytest.mark.parametrize(
        "argv",
        [
            # 11 kB of JSON, over the stdout buffer: the write breaks off
            # inside the command
            ["enumerate", "--group", "Sp(12,R)", "--format", "json"],
            # four lines, still buffered when the command returns
            ["enumerate", "--group", "GL(4,R)"],
        ],
        ids=["in-the-command", "at-the-flush"],
    )
    def test_a_closed_stdout_ends_in_exit_1_without_a_traceback(self, argv):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the command writes
        try:
            proc = _python("-m", "cohoparam.cli", *argv, stdout=write,
                           stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")


# argv, whether the command loads the transfer layer, whether it runs the
# cohomology layer
_STARTUP_CASES = [
    (["enumerate", "--group", "GL(4,R)", "--weight", "1,0,0,-1"], False, False),
    (["packet", "--group", "U(2,1)", "--subset", "1"], False, False),
    (["dump-weyl", "--group", "GL(4,R)"], False, False),
    (["cohomology-sum", "--group", "U(2,1)"], False, True),
    (["innerforms", "--group", "Sp(4,R)"], False, True),
    (["transfer", "--embedding", "sp-gl", "--param", "s2[2]"], True, False),
    (["verify", "--suite", "all"], True, True),
]


class TestStartup:
    def test_import_loads_no_unused_module(self):
        # a command pays for what `import cohoparam.cli` loads: no
        # dataclasses (and the inspect it pulls in), no json before a JSON
        # print, no fractions (and the decimal it pulls in) before a
        # Fraction is made, no verify before a suite runs, no transfer or
        # direct layer before a transfer or a suite; the cohomology layer is
        # bound but unexecuted (`type()` of it does not run it); every other
        # layer module is loaded eagerly, as the package promises
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, types, cohoparam.cli; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith("
            "('dataclasses', 'inspect', 'json', 'typing', 'fractions', 'decimal', "
            "'cohoparam')))), "
            "type(sys.modules['cohoparam.cohomology']) is not types.ModuleType)"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        *names, unexecuted = proc.stdout.split()
        loaded = set(names)
        assert not loaded & {
            "dataclasses", "inspect", "json", "typing", "fractions", "decimal",
            "cohoparam.verify", "cohoparam.transfer", "cohoparam.direct",
        }
        layers = ("rootdata", "weyl", "params", "packets", "cohomology")
        assert {f"cohoparam.{m}" for m in layers} <= loaded
        assert unexecuted == "True"

    @pytest.mark.parametrize(
        "argv, loads_transfer, runs_cohomology",
        _STARTUP_CASES,
        # the command and its transfer column name each case
        ids=[f"{argv[0]}-{transfer}" for argv, transfer, _ in _STARTUP_CASES],
    )
    def test_only_transfer_and_verify_load_the_transfer_layer(
        self, argv, loads_transfer, runs_cohomology
    ):
        # each command in a fresh process, as a user runs it, reporting
        # whether it loaded `cohoparam.transfer`, `cohoparam.direct`,
        # `cohoparam.verify`, fractions and decimal, and whether it ran the
        # lazily bound `cohoparam.cohomology`: transfer runs on doubled ints
        # and needs only the first; verify runs the direct routes, on doubled
        # ints too, so no command makes a Fraction
        verify = argv[0] == "verify"
        loads = (loads_transfer, verify, verify, False, False, runs_cohomology)
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import contextlib, io, sys, types; from cohoparam.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
            "print(code, *(m in sys.modules for m in "
            "('cohoparam.transfer', 'cohoparam.direct', 'cohoparam.verify', "
            "'fractions', 'decimal')), "
            "type(sys.modules['cohoparam.cohomology']) is types.ModuleType)"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe, *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", *map(str, loads)]

    def test_the_principal_sl2_loads_only_the_direct_layer(self):
        src = Path(__file__).resolve().parents[1] / "src"
        probe = (
            "import sys, cohoparam\n"
            "before = 'cohoparam.direct' in sys.modules\n"
            "f = cohoparam.principal_sl2_coefficients\n"
            "print(before, f.__module__, *(m in sys.modules for m in "
            "('cohoparam.direct', 'cohoparam.transfer')))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", probe],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "cohoparam.direct", "True", "False"]

    def test_suite_names_are_the_verify_suites(self):
        from cohoparam import verify

        assert SUITES == (*verify.SUITES, "all")
