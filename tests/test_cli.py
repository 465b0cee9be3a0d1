"""End-to-end CLI behavior: exit codes, JSON schema, determinism."""
from __future__ import annotations

import ast
import hashlib
import inspect
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from importlib import import_module

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import clusterufd
from clusterufd import cli, factoriality
from clusterufd.cli import main
from clusterufd.cluster import MAX_ROWS, builtin_matrix
from clusterufd.factoriality import (MAX_CERTIFICATE_N, ConsistencyError,
                                     ExchangeIdeals, inductive_prover)
from clusterufd.groebner import BudgetExceeded
from conftest import python_env, random_acyclic_seed, run_python
from oracles import RowsOracle, certificate_entries, oracle_listing

STUCK_SEED = {
    "n": 4, "m": 4,
    "matrix": [[0, 2, 0, 0], [-2, 0, 2, 0], [0, -2, 0, 2], [0, 0, -2, 0]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


@pytest.fixture
def stuck_seed_file(tmp_path):
    path = tmp_path / "stuck.json"
    path.write_text(json.dumps(STUCK_SEED))
    return str(path)


class TestMutate:
    def test_sequence_applied_left_to_right(self, capsys):
        code, body = run_json(capsys, "mutate", "--builtin", "A:2",
                              "--sequence", "1,2")
        assert code == 0
        assert body["verdict"] == "ok"
        assert body["cluster"] == ["(x2 + 1)/x1", "(x1 + x2 + 1)/(x1*x2)"]
        assert body["matrix"] == [[0, 1], [-1, 0]]
        assert "left to right" in body["order"]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "mutate", "--builtin", "A:2",
                           "--sequence", "1")
        assert code == 0
        assert "verdict: ok" in out
        assert "(x2 + 1)/x1" in out

    def test_empty_sequence_is_identity(self, capsys):
        code, body = run_json(capsys, "mutate", "--builtin", "A:2",
                              "--sequence", "")
        assert code == 0
        assert body["cluster"] == ["x1", "x2"]

    def test_bad_sequence(self, capsys):
        code, body = run_json(capsys, "mutate", "--builtin", "A:2",
                              "--sequence", "1,a")
        assert code == 3
        assert body["verdict"] == "error"
        code, _, err = run(capsys, "mutate", "--builtin", "A:2",
                           "--sequence", "7")
        assert code == 3
        assert "error" in err


class TestStructureAndPolys:
    def test_structure(self, capsys):
        code, body = run_json(capsys, "structure", "--builtin", "E:6")
        assert code == 0
        assert body["sources"] == [1, 6]
        assert body["sinks"] == [4]
        assert body["acyclic"] is True
        assert body["neighbors"]["3"] == [2, 4, 5]
        assert body["skew_symmetrizer"] == [1] * 6

    def test_exchange_polys(self, capsys):
        code, body = run_json(capsys, "exchange-polys", "--builtin", "A:3")
        assert code == 0
        assert body["exchange_polynomials"] == ["x2 + 1", "x1 + x3", "x2 + 1"]


class TestEnumerate:
    def test_complete(self, capsys):
        code, body = run_json(capsys, "enumerate", "--builtin", "A:3")
        assert code == 0
        assert body["verdict"] == "complete"
        assert body["count"] == 9
        assert body["seeds"] == 14

    def test_budget_exhausted(self, capsys):
        code, body = run_json(capsys, "enumerate", "--builtin", "kronecker",
                              "--max-seeds", "20")
        assert code == 2
        assert body["verdict"] == "incomplete"

    def test_verify_laurent(self, capsys):
        code, body = run_json(capsys, "verify-laurent", "--builtin", "A:3")
        assert code == 0
        assert body["verdict"] == "laurent"
        assert body["violations"] == []


class TestConjecture:
    def test_holds(self, capsys):
        code, body = run_json(capsys, "check-conjecture", "--builtin", "A:2",
                              "--max-total-degree", "3")
        assert code == 0
        assert body["verdict"] == "holds"
        assert body["checked"] == 9

    def test_fails_with_witness(self, capsys):
        code, body = run_json(capsys, "check-conjecture", "--builtin",
                              "cyclicA3", "--index", "1,1,1",
                              "--override-assumptions")
        assert code == 1
        assert body["verdict"] == "fails"
        assert body["witness"] == "x1 + x2 + x3"

    def test_gate_without_override(self, capsys):
        code, body = run_json(capsys, "check-conjecture", "--builtin",
                              "cyclicA3", "--index", "1,1,1")
        assert code == 3
        assert "override" in body["error"]

    def test_budget_inconclusive(self, capsys):
        code, body = run_json(capsys, "check-conjecture", "--builtin", "E:6",
                              "--index", "1,1,1,1,1,1", "--budget", "10")
        assert code == 2
        assert body["verdict"] == "inconclusive"
        assert body["detail"]

    def test_flag_exclusivity(self, capsys):
        code, _, _ = run(capsys, "check-conjecture", "--builtin", "A:2")
        assert code == 3
        code, _, _ = run(capsys, "check-conjecture", "--builtin", "A:2",
                         "--index", "1,1", "--max-total-degree", "2")
        assert code == 3

    def test_malformed_index(self, capsys):
        argv = ("check-conjecture", "--builtin", "A:2", "--index", "1,a")
        error = "--index must be comma-separated integers, got '1,a'"
        code, body = run_json(capsys, *argv)
        assert code == 3 and body["verdict"] == "error"
        assert body["error"] == error
        assert run(capsys, *argv) == (3, "", f"error: {error}\n")


class TestProveUfd:
    def test_certified(self, capsys):
        code, body = run_json(capsys, "prove-ufd", "--builtin", "A:4")
        assert code == 0
        assert body["verdict"] == "certified"
        assert body["supports"] == 15
        rules = {entry["rule"] for entry in body["certificate"]}
        assert rules <= {"sink_source", "free_index", "free_variable"}
        assert body["certificate"][0]["support"] == [1]

    def test_refuted(self, capsys):
        code, body = run_json(capsys, "prove-ufd", "--builtin", "A:3")
        assert code == 1
        assert body["verdict"] == "NotUFD"
        assert body["witness"]["coincident"] == [1, 3]
        assert body["witness"]["value"] == "x2 + 1"

    def test_stuck(self, capsys, stuck_seed_file):
        code, body = run_json(capsys, "prove-ufd", "--seed", stuck_seed_file)
        assert code == 2
        assert body["verdict"] == "inconclusive"
        assert body["stuck_supports"] == [[2, 3]]

    def test_cyclic_gated(self, capsys):
        code, body = run_json(capsys, "prove-ufd", "--builtin", "cyclicA3")
        assert code == 2
        assert "cycle" in body["reason"]


class TestVerdict:
    def test_ufd(self, capsys):
        code, body = run_json(capsys, "verdict", "--builtin", "A:2",
                              "--bound", "2")
        assert code == 0
        assert body["verdict"] == "UFD"
        assert body["cross_checked_bound"] == 2
        assert body["field"] == "Q"

    def test_not_ufd_gaussian(self, capsys):
        code, body = run_json(capsys, "verdict", "--builtin", "kronecker",
                              "--field", "Qi")
        assert code == 1
        assert body["verdict"] == "NotUFD"
        assert body["field"] == "Qi"
        factors = body["witness"]["reducible"]["factors"]
        assert len(factors) == 2

    def test_inconclusive(self, capsys, stuck_seed_file):
        code, body = run_json(capsys, "verdict", "--seed", stuck_seed_file,
                              "--bound", "1")
        assert code == 2
        assert body["verdict"] == "Inconclusive"
        assert body["stuck_supports"] == [[2, 3]]
        assert body["verified_bound"] == 1

    def test_text_report_prints_the_stuck_supports(self, capsys,
                                                   stuck_seed_file):
        code, out, _ = run(capsys, "verdict", "--seed", stuck_seed_file,
                           "--bound", "1")
        assert code == 2
        assert out.splitlines()[-3:] == [
            "stuck at supports [[2, 3]]",
            "direct checks verified all weights <= 1", "verdict: Inconclusive"]

    @pytest.mark.parametrize("argv, notes", [
        (("--builtin", "A:9"), "cross-check skipped (n > 8)"),
        (("--builtin", "A:4", "--budget", "3"),
         "cross-check stopped by budget at (0, 0, 1, 1)"),
    ])
    def test_text_report_prints_the_notes(self, capsys, argv, notes):
        code, body = run_json(capsys, "verdict", *argv)
        assert (code, body["notes"]) == (0, notes)
        code, out, _ = run(capsys, "verdict", *argv)
        assert code == 0
        assert out.splitlines()[-2:] == [f"note: {notes}", "verdict: UFD"]

    def test_single_vertex_rejected(self, capsys):
        code, body = run_json(capsys, "verdict", "--builtin", "A:1")
        assert code == 3
        assert "single-variable" in body["error"]


class TestMemberAndNormalForm:
    def test_member(self, capsys):
        code, body = run_json(capsys, "member", "--builtin", "A:2",
                              "--expr", "(1 + x2)/x1")
        assert code == 0 and body["verdict"] == "member"

    def test_non_member(self, capsys):
        code, body = run_json(capsys, "member", "--builtin", "A:2",
                              "--expr", "1/x1")
        assert code == 1 and body["verdict"] == "non-member"

    @pytest.mark.parametrize("expr, code, verdict", [
        ("1/x3", 1, "non-member"), ("(x2 + x3)/x1", 0, "member")])
    def test_frozen_variables_are_not_inverted(self, capsys, tmp_path,
                                               expr, code, verdict):
        seed = tmp_path / "frozen.json"
        seed.write_text(json.dumps({"n": 2, "m": 3,
                                    "matrix": [[0, 1], [-1, 0], [1, 1]]}))
        got, body = run_json(capsys, "member", "--seed", str(seed),
                             "--expr", expr)
        assert (got, body["verdict"]) == (code, verdict)

    def test_member_needs_certificate(self, capsys):
        code, body = run_json(capsys, "member", "--builtin", "A:3",
                              "--expr", "x1")
        assert code == 2
        assert body["verdict"] == "inconclusive"
        assert "Groebner" in body["reason"]

    def test_normal_form(self, capsys):
        code, body = run_json(capsys, "normal-form", "--builtin", "A:2",
                              "--expr", "1 + x1 + x2")
        assert code == 0
        assert body["value"] == "(x1 + x2 + 1)/(x1*x2)"
        assert body["normal_monomial"] == [1, 1]
        assert body["irreducibility"] == "irreducible"

    def test_normal_form_rejects_constants(self, capsys):
        code, body = run_json(capsys, "normal-form", "--builtin", "A:2",
                              "--expr", "5")
        assert code == 3

    def test_parse_error_position_reported(self, capsys):
        code, body = run_json(capsys, "member", "--builtin", "A:2",
                              "--expr", "x1 + + x2")
        assert code == 3
        assert "position" in body["error"]

    @pytest.mark.parametrize("expr, error", [
        ("x1 x2", "unexpected 'x2' (at position 4)"),
        ("x1^-1", "exponent must be a non-negative integer (at position 4)"),
        ("x1^x2", "exponent must be a non-negative integer (at position 4)")])
    def test_misplaced_token_is_an_input_error(self, capsys, expr, error):
        code, body = run_json(capsys, "member", "--builtin", "A:2",
                              "--expr", expr)
        assert code == 3 and body["verdict"] == "error"
        assert body["error"] == error

    @pytest.mark.parametrize("command", ["member", "normal-form"])
    def test_deep_nesting_is_an_input_error(self, capsys, command):
        deep = "(" * 300 + "x1" + ")" * 300
        code, body = run_json(capsys, command, "--builtin", "A:2",
                              "--expr", deep)
        assert code == 3 and body["verdict"] == "error"
        assert "nested deeper" in body["error"]

    @pytest.mark.parametrize("expr", ["(x1 + x2 + 1)^200", "(x1 + 1)^5000",
                                      "(x1 + x2 + 1)^1000"])
    def test_large_power_is_refused_quickly(self, capsys, expr):
        start = time.perf_counter()
        code, body = run_json(capsys, "member", "--builtin", "A:2",
                              "--expr", expr)
        assert time.perf_counter() - start < 1
        assert code == 3 and body["verdict"] == "error"
        assert f"(at position {expr.index('^') + 1})" in body["error"]

    def test_large_product_is_refused_at_the_star(self, capsys):
        # both factors are expanded (1,891 terms each), then the '*'
        # refuses a product that may have 7,381 terms, whose expansion
        # took seconds
        expr = "(x1 + x2 + 1)^60*(x1 + x2 + 1)^60"
        code, body = run_json(capsys, "member", "--builtin", "A:2",
                              "--expr", expr)
        assert code == 3 and body["verdict"] == "error"
        assert f"(at position {expr.index('*') + 1})" in body["error"]

    @pytest.mark.parametrize("expr, position", [
        ("x1^" + "9" * 5000, 4), ("9" * 5000, 1)])
    def test_long_digit_run_is_an_input_error(self, capsys, expr, position):
        code, body = run_json(capsys, "member", "--builtin", "A:2",
                              "--expr", expr)
        assert code == 3 and body["verdict"] == "error"
        assert body["error"].endswith(f"(at position {position})")

    @pytest.mark.parametrize("command, tail", [
        ("member", ""), ("normal-form", " + 1")])
    def test_coefficient_past_the_digit_limit(self, capsys, command, tail):
        # (10^4000 - 1)^3 has 12,000 digits, which Python will not print;
        # the parser refuses it at the '^' that makes it
        expr = "9" * 4000 + "^3*x1" + tail
        code, body = run_json(capsys, command, "--builtin", "A:2",
                              "--expr", expr)
        assert code == 3 and body["verdict"] == "error"
        assert body["error"] == ("a coefficient has more than 4300 digits "
                                 "(at position 4001)")

    def test_normal_form_past_the_digit_limit(self, capsys):
        # every input coefficient is under the limit, but dividing by the
        # Gaussian leading coefficient c = 10^2200 - 1 + i puts |c|^2, of
        # 4,400 digits, in the denominator of the normalized value
        expr = "(" + "9" * 2200 + " + i)*x1 + 1"
        code, body = run_json(capsys, "normal-form", "--builtin", "A:2",
                              "--field", "Qi", "--expr", expr)
        assert code == 3 and body["verdict"] == "error"
        assert body["error"] == ("a coefficient has more than 4300 digits "
                                 "(at position 1)")


class TestHypersurface:
    def test_holds(self, capsys):
        code, body = run_json(capsys, "hypersurface", "--n", "4")
        assert code == 0 and body["verdict"] == "holds"

    def test_bad_n(self, capsys):
        code, body = run_json(capsys, "hypersurface", "--n", "1")
        assert code == 3

    def test_past_the_rank_cap(self, capsys):
        code, body = run_json(capsys, "hypersurface", "--n", "257")
        assert code == 3 and body["verdict"] == "error"
        assert body["error"] == "rank 257 is above the largest builtin rank 256"


@pytest.mark.parametrize("name", ["A:257", "D:257", "A:100000"])
def test_builtin_past_the_rank_cap(capsys, name):
    code, body = run_json(capsys, "structure", "--builtin", name)
    assert code == 3 and body["verdict"] == "error"
    assert body["error"].endswith("is above the largest builtin rank 256")


class TestContract:
    def test_json_always_carries_schema(self, capsys):
        for argv in (
            ("structure", "--builtin", "A:2"),
            ("verdict", "--builtin", "A:3"),
            ("verdict", "--builtin", "A:1"),          # error path
        ):
            _, body = run_json(capsys, *argv)
            assert body["schema_version"] == 2
            assert body["command"] == argv[0]
            assert "verdict" in body or "error" in body

    def test_output_is_deterministic(self, capsys):
        first = run(capsys, "verdict", "--builtin", "A:4", "--bound", "2",
                    "--json")
        second = run(capsys, "verdict", "--builtin", "A:4", "--bound", "2",
                     "--json")
        assert first == second

    def test_usage_errors_exit_3(self, capsys):
        assert run(capsys, )[0] == 3
        assert run(capsys, "frobnicate")[0] == 3
        assert run(capsys, "mutate", "--builtin", "A:2")[0] == 3  # no --sequence
        assert run(capsys, "mutate", "--sequence", "1")[0] == 3   # no seed
        assert run(capsys, "verdict", "--builtin", "A:2",
                   "--seed", "x.json")[0] == 3                    # exclusive

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_seed_file_errors(self, capsys, tmp_path):
        code, body = run_json(capsys, "structure", "--seed",
                              str(tmp_path / "no.json"))
        assert code == 3 and "cannot read" in body["error"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "m": 2,
                                   "matrix": [[0, 1], ["x", 0]]}))
        code, body = run_json(capsys, "structure", "--seed", str(bad))
        assert code == 3 and "matrix[1][0]" in body["error"]

    def test_field_conflict(self, capsys, tmp_path):
        # with --seed, --field must name the field of the file
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"n": 2, "m": 2,
                                    "matrix": [[0, 1], [-1, 0]],
                                    "field": "Q"}))
        argv = ("structure", "--seed", str(seed), "--field")
        code, body = run_json(capsys, *argv, "Q")
        assert code == 0 and body["verdict"] == "ok"
        code, out, _ = run(capsys, *argv, "Q")
        assert code == 0 and "verdict: ok" in out
        code, body = run_json(capsys, *argv, "Qi")
        assert code == 3
        assert body["error"] == "--field Qi contradicts the seed file field Q"
        code, _, err = run(capsys, *argv, "Qi")
        assert code == 3
        assert err == "error: --field Qi contradicts the seed file field Q\n"

    def test_field_is_checked_after_the_seed_file_loads(self, capsys, tmp_path):
        # a file whose matrix is invalid reports that, whatever --field says
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps({"n": 2, "m": 2,
                                    "matrix": [[0, 1], [1, 0]],
                                    "field": "Q"}))
        code, body = run_json(capsys, "structure", "--seed", str(seed),
                              "--field", "Qi")
        assert code == 3
        assert body["error"].startswith("principal part is not skew-symmetrizable")

    def test_bad_budget(self, capsys):
        code, body = run_json(capsys, "verdict", "--builtin", "A:2",
                              "--budget", "0")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ("structure", "--builtin", "A:2", "--budget", "0"),
        ("mutate", "--builtin", "A:2", "--sequence", "1", "--budget", "5"),
        ("hypersurface", "--n", "3", "--field", "Qi")])
    def test_options_a_command_does_not_read_are_usage_errors(self, capsys, argv):
        assert run(capsys, *argv)[0] == 3


class TestClosedStdout:
    def test_reader_closing_early_is_not_an_error(self):
        # a report of about 190 KB, past Linux's default 64 KB pipe buffer,
        # so the command is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "clusterufd.cli", "member", "--builtin",
             "A:2", "--expr", "(x1 + x2 + 1)^90", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env())
        head = proc.stdout.read(250)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert head.startswith(b"{") and "Traceback" not in err, err

    @pytest.mark.parametrize("argv, code, read", [
        (("prove-ufd", "--builtin", "A:16", "--json"), 0, 250),
        (("prove-ufd", "--builtin", "A:16"), 0, 0),
        (("prove-ufd", "--builtin", "A:0", "--json"), 3, 0),
    ], ids=["listing-splice", "text", "error-report"])
    def test_every_write_site_survives_a_closed_reader(self, argv, code, read):
        # the reader takes the first ``read`` bytes of the report, or leaves
        # before it starts.  When the reader leaves in the middle of one
        # large write, Python's buffered stdout drops the rest without
        # raising, so the text report, one write, loses its reader first.
        read_end, write_end = os.pipe()
        if not read:
            os.close(read_end)
        proc = subprocess.Popen(
            [sys.executable, "-m", "clusterufd.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=python_env())
        os.close(write_end)
        if read:
            assert os.read(read_end, read)
            os.close(read_end)
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == code
        assert "Traceback" not in err, err


BROKEN_VERDICT = """
import sys
from clusterufd import cli, factoriality
def broken(*args, **kwargs):
    raise factoriality.ConsistencyError("certificate contradicts a direct check")
factoriality.ufd_verdict = broken
sys.argv[1:] = {argv!r}
cli.entrypoint()
"""


class TestProcessExit:
    """``entrypoint`` ends the process with ``os._exit`` once the report is
    flushed; what the reader gets is what in-process ``main`` writes."""

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("argv, code", [
        (("verdict", "--builtin", "A:2"), 0),
        (("verdict", "--builtin", "A:3"), 1),
        (("prove-ufd", "--builtin", "cyclicA3"), 2),
        (("prove-ufd", "--builtin", "A:0"), 3),
        (("--help",), 0),
        (("verdict", "--builtin", "A:2", "--no-such-option"), 3),
    ], ids=["holds", "refuted", "inconclusive", "input-error", "help", "usage-error"])
    def test_fresh_process_matches_main(self, capsys, argv, code, mode):
        expected = run(capsys, *argv, *mode)
        proc = run_python("-m", "clusterufd.cli", *argv, *mode)
        assert (proc.returncode, proc.stdout, proc.stderr) == expected
        assert expected[0] == code

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    def test_internal_error_reaches_the_reader(self, mode):
        argv = ["verdict", "--builtin", "A:2", *mode]
        proc = run_python("-c", BROKEN_VERDICT.format(argv=argv))
        assert proc.returncode == 4
        message = "ConsistencyError: certificate contradicts a direct check"
        if mode:
            body = json.loads(proc.stdout)
            assert (body["verdict"], body["error"]) == ("internal-error", message)
        else:
            assert proc.stdout == ""
            assert proc.stderr.startswith(f"internal-error: {message}\n")
        assert "Traceback (most recent call last):" in proc.stderr
        assert "in broken" in proc.stderr
        assert proc.stderr.endswith(f"factoriality.{message}\n")

    class Stream:
        def __init__(self, name, log, fd, flush_error=None):
            self.name, self.log, self.fd = name, log, fd
            self.flush_error = flush_error

        def flush(self):
            self.log.append((self.name, "flush"))
            if self.flush_error:
                raise self.flush_error

        def fileno(self):
            return self.fd

    class Exited(Exception):
        pass

    def run_entrypoint(self, monkeypatch, tmp_path, broken=None):
        """The calls ``entrypoint`` makes, in order, with ``main`` returning
        1 and the stream named ``broken`` raising ``BrokenPipeError`` on
        flush; the standard streams' descriptors are a scratch file's."""
        log = []

        def fake_exit(code):
            log.append(("exit", code))
            raise self.Exited

        with open(tmp_path / "stream", "w") as scratch:
            fd = scratch.fileno()
            for name in ("stdout", "stderr"):
                monkeypatch.setattr(sys, name, self.Stream(
                    name, log, fd, BrokenPipeError() if name == broken else None))
            monkeypatch.setattr(sys, "argv", ["clusterufd", "verdict"])
            monkeypatch.setattr(cli, "main",
                                lambda argv: log.append(("main", argv)) or 1)
            monkeypatch.setattr(os, "_exit", fake_exit)
            with pytest.raises(self.Exited):
                cli.entrypoint()
        return log

    def test_streams_are_flushed_before_exit(self, monkeypatch, tmp_path):
        assert self.run_entrypoint(monkeypatch, tmp_path) == [
            ("main", ["verdict"]), ("stdout", "flush"), ("stderr", "flush"),
            ("exit", 1)]

    @pytest.mark.parametrize("broken", ["stdout", "stderr"])
    def test_a_closed_reader_keeps_the_verdicts_code(self, monkeypatch, tmp_path,
                                                     broken):
        log = self.run_entrypoint(monkeypatch, tmp_path, broken)
        assert log[-1] == ("exit", 1)

    def test_only_entrypoint_exits_the_process(self):
        tree = ast.parse(inspect.getsource(cli))
        entry = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                     and node.name == "entrypoint")

        def exits(node):
            return [n for n in ast.walk(node)
                    if isinstance(n, ast.Attribute) and n.attr == "_exit"]
        assert exits(entry) and exits(tree) == exits(entry)


class TestInternalErrors:
    """A bug must exit 4, never 1, which would read as "refuted"."""

    @staticmethod
    def broken(exc):
        def raise_(*args, **kwargs):
            raise exc
        return raise_

    def test_consistency_error_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(factoriality, "ufd_verdict", self.broken(
            ConsistencyError("certificate contradicts a direct check")))
        code, body = run_json(capsys, "verdict", "--builtin", "A:2")
        assert code == 4
        assert body["verdict"] == "internal-error"
        assert body["schema_version"] == 2 and body["command"] == "verdict"
        assert body["error"] == ("ConsistencyError: certificate contradicts "
                                 "a direct check")

    def test_certificate_failing_verification_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(factoriality.SupportCertificate, "verify",
                            lambda self, matrix, ideals=None: ["tampered"])
        code, body = run_json(capsys, "prove-ufd", "--builtin", "A:2")
        assert code == 4
        assert body["error"] == ("ConsistencyError: freshly built certificate "
                                 "fails to verify: ['tampered']")

    def test_escaped_budget_exceeded_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(factoriality, "inductive_prover",
                            self.broken(BudgetExceeded(7, 3)))
        code, out, err = run(capsys, "prove-ufd", "--builtin", "A:2")
        assert code == 4
        assert out == ""
        assert err.startswith("internal-error: BudgetExceeded:")


SYMPY_PROBE = """
import json, sys
def layers():
    return sorted(name for name in sys.modules if name.startswith("clusterufd."))
def slow_stdlib():
    return [name for name in ("dataclasses", "inspect") if name in sys.modules]
from clusterufd.cli import main
loaded = {"import": layers()}
main(["--help"])
main(["no-such-command"])
loaded["help"] = layers()
stdlib = {}
for argv in (["enumerate", "--builtin", "A:3"],
             ["mutate", "--builtin", "A:3", "--sequence", "2,1"],
             ["verify-laurent", "--builtin", "A:3"],
             ["structure", "--builtin", "A:3"],
             ["exchange-polys", "--builtin", "A:3"],
             ["hypersurface", "--n", "3"]):
    main(argv + ["--json"])
    stdlib[argv[0]] = slow_stdlib()
loaded["mutation"] = layers()
for argv in (["prove-ufd", "--builtin", "A:4"],
             ["prove-ufd", "--builtin", "E:6"],
             ["member", "--builtin", "A:2", "--expr", "(x2 + 1)/x1"],
             ["normal-form", "--builtin", "A:2", "--expr", "x2 + 1"]):
    main(argv + ["--json"])
    stdlib[" ".join(argv[:3])] = slow_stdlib()
loaded["certificate"] = layers()
main(["verdict", "--builtin", "A:4", "--bound", "2", "--json"])
stdlib["verdict"] = slow_stdlib()
code = main(["verdict", "--builtin", "A:3", "--json"])
sympy = {"verdict": "sympy" in sys.modules}
main(["normal-form", "--builtin", "A:2", "--expr", "x1 + x2 + 1", "--json"])
main(["normal-form", "--builtin", "A:4", "--expr", "x1*x2 + x3 + 1", "--json"])
sympy["degree one"] = "sympy" in sys.modules
main(["normal-form", "--builtin", "A:2", "--expr", "x1^2 + x2^2 + 1", "--json"])
sympy["oracle"] = "sympy" in sys.modules
print(json.dumps([code, sympy, loaded, "logging" in sys.modules, stdlib]))
"""


def test_sympy_is_imported_only_by_the_factor_oracle():
    proc = run_python("-c", SYMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    code, sympy, loaded, logging, stdlib = json.loads(
        proc.stdout.splitlines()[-1])
    assert code == 1          # A:3 is refuted by coincident f_1 = f_3
    # neither the verdict nor inputs the degree-one lemma decides touch
    # sympy; x1^2 + x2^2 + 1 has no variable of degree one, so the oracle ran
    assert sympy == {"verdict": False, "degree one": False, "oracle": True}
    # each command loads only the layers it runs, and no logging at all
    assert loaded["import"] == loaded["help"] == ["clusterufd.cli"]
    assert loaded["mutation"] == ["clusterufd.cli", "clusterufd.cluster",
                                  "clusterufd.fields", "clusterufd.poly"]
    # the certificate commands run no Groebner work, so never load it
    assert loaded["certificate"] == ["clusterufd.cli", "clusterufd.cluster",
                                     "clusterufd.factoriality",
                                     "clusterufd.fields", "clusterufd.parse",
                                     "clusterufd.poly"]
    assert logging is False
    # dataclasses, and the inspect module it pulls in, would add 20 ms or
    # more to every command's start-up; no command short of the factor
    # oracle loads them
    assert stdlib == {command: [] for command in stdlib}
    assert len(stdlib) == 11


def test_every_exported_name_resolves():
    for module, names in clusterufd._EXPORTS.items():
        layer = import_module(f"clusterufd.{module}")
        for name in names:
            assert getattr(clusterufd, name) is getattr(layer, name), name
    assert not set(vars(clusterufd)) & set(clusterufd.__all__)  # nothing cached
    with pytest.raises(AttributeError):
        getattr(clusterufd, "no_such_name")


# sha256 of stdout, recorded before the adjacency cache and the single
# certificate rendering; the certificate path must keep them byte-identical.
# The JSON pin moved once, when reports gained the "cover" key and schema 2.
# The A:16 JSON pin, the benchmark's own command, was recorded before the
# per-support listing was rendered from per-rule templates.
PROVE_UFD_STDOUT_SHA256 = {
    ("A:14", "--json"):
        "8721b9fc631840f1d236acef546e3712fa5e0dd8aafe2492a604f0094e9fb79b",
    ("A:14",):
        "e752db5b375f7c5d05abd180dfa493f3f3028d949e925b8d53fd52125127764f",
    ("E:8",):
        "7c561e71228575a8775538cddba60171ff623ed356f74fb88556c6d143564f9e",
    ("A:16", "--json"):
        "6c48ce04b2393d6cd7a1f2d6325fc403641037075ee9a52a39a08604f20f54dd",
}

# sha256 of repr(list(certificate_entries(certificate).items())), insertion order
# included, so both the justifications and the search order are pinned.
CERTIFICATE_ENTRIES_SHA256 = {
    "A:1": "7aba7d71df40383fb24feac7dc30ec30c9230347dd949f07f792b4a169b1ce84",
    "A:2": "ed0130466c561a6879f9eaf8f383260850255bb845dafa9ecdb8ec82b8093795",
    "A:3": "1636b0d44407c19e71e3965ca32a855b208d8d2d63f5f1deb22873379425cee9",
    "A:4": "28939f656b881b982a5ec6997160868a5f7614238c460e3102356b0939cfa9b8",
    "A:5": "2ddcd629a4b1394036042bbb6f2cf80cbebe5e755963eb590546ebd43efc64f5",
    "A:6": "8a62a26d278480b01e67b47f0723a24a4bb9bcd20687e0b6f3a54389addf3166",
    "A:7": "ea15fa163b576130c0fff236c6a547e95ac46114aa0cb24451328e0287f12c54",
    "A:8": "06c8cda1d5ef0c1520f0fa17f2da69dfd53d87dc73df0df665dd5059fd80aeaa",
    "A:9": "ed44cfd05d7bd535f8b6440308cf9a07c1d29350817de795473d90971ea9cad7",
    "A:10": "a1ef9473ecc5196089aa629fab3df7dab4d41ab64accf21ea38eaf8032168e92",
    "A:11": "8f28c73918101c7df0e3f0ad45473cae6727f439f96c46c648202c9cae1b7a56",
    "A:12": "b0d680dc1650d1f8943fc1b5e8cf40644f0236727fdef2db18c6045b0f6ac2f0",
    "D:4": "6134655053a3a41f11d17a4b7de675208e0f676366f8172ad39fc1c48cdcf159",
    "D:5": "f0791c0266da964d038f55fdcbee4ca81aebc0e7aa3b7e39e891a45b7e03211f",
    "D:6": "187bd9cee388a66b3cc016057035bdb7fa87e9061623c54be63ece8f1b0af94c",
    "D:7": "828a926a832a12fcdf230a5da9806e15fc4b563c1171f64e72f3816bd78c761d",
    "D:8": "73a02cc68e1d714732506051b0b71547173144119f175cf58c2f58311bd8648a",
    "D:9": "68bc9fc3ffda5b297fe026bce65ad2c39d94880bf29bcc760b536bbd915eb85c",
    "D:10": "9fc36654b3cce6fbdcae60fc606844fc1101e4ea9841915d58a5d311ca2389a8",
    "D:11": "674fb8eedcfafbc65262515142fccb6faf94a5ccc9df5e8764f258f778a8bc0a",
    "D:12": "4b35935c7135ee9d8955f8226a94b0320a62ddd5ca1e20c40bb8525b14222628",
    "E:6": "7a203f2f311a89f41989504db46e71ddc9b9e467b2f84a2509d6099a6240ad7b",
    "E:7": "91e97cd1028d41fe1208f4e602bcd2a793053673bae0a7762fa542db6481ae6e",
    "E:8": "8a6ce15f72e3b25d7087fcf1671cb3d5ae92502507ed430f78237ff8e7c55d48",
    "kronecker": "ed0130466c561a6879f9eaf8f383260850255bb845dafa9ecdb8ec82b8093795",
    "rank2:1,4": "ed0130466c561a6879f9eaf8f383260850255bb845dafa9ecdb8ec82b8093795",
    "rank2:2,3": "ed0130466c561a6879f9eaf8f383260850255bb845dafa9ecdb8ec82b8093795",
}


class TestCertificatePins:
    @pytest.mark.parametrize("argv", sorted(PROVE_UFD_STDOUT_SHA256))
    def test_prove_ufd_stdout(self, capsys, argv):
        code, out, _ = run(capsys, "prove-ufd", "--builtin", *argv)
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == PROVE_UFD_STDOUT_SHA256[argv]

    @pytest.mark.parametrize("name", sorted(CERTIFICATE_ENTRIES_SHA256))
    def test_certificate_entries(self, name):
        result = inductive_prover(ExchangeIdeals(builtin_matrix(name)))
        text = repr(list(certificate_entries(result.certificate).items()))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == CERTIFICATE_ENTRIES_SHA256[name]

    def test_cyclic_stuck_supports(self):
        result = inductive_prover(ExchangeIdeals(builtin_matrix("cyclicA3")))
        assert result.certificate is None
        assert result.stuck_supports == ((1, 2), (1, 3), (2, 3), (1, 2, 3))


class TestListingRenderer:
    """The per-support listing is rendered from per-cube templates and the
    first-cube table; its bytes must be those of
    ``json.dumps(sort_keys=True, indent=2)`` over the per-support dicts, each
    rule read from the row oracle rather than from the table."""

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(st.builds(
        lambda state, n, frozen: random_acyclic_seed(random.Random(state), n, frozen),
        st.integers(0, 2 ** 32), st.integers(1, 8), st.integers(0, 2)))
    def test_reports_match_json_dumps(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("listing") / "seed.json"
        path.write_text(json.dumps({"n": len(rows[0]), "m": len(rows),
                                    "matrix": rows}))
        # the verdict's cross-check is not under test here, so bound 0
        for argv, certified in ((["prove-ufd"], "certified"),
                                (["verdict", "--bound", "0"], "UFD")):
            out = io.StringIO()
            with redirect_stdout(out):
                main([*argv, "--seed", str(path), "--json"])
            body = json.loads(out.getvalue())
            if body["verdict"] != certified:
                continue
            body["certificate"] = oracle_listing(rows)
            assert out.getvalue() == json.dumps(body, sort_keys=True,
                                                indent=2) + "\n"


class TestPastTheListingCap:
    """Past MAX_CERTIFICATE_N the cover still decides; only the per-support
    listing is left out."""

    def test_a17_verdict_is_ufd(self, capsys):
        n = MAX_CERTIFICATE_N + 1
        code, body = run_json(capsys, "verdict", "--builtin", f"A:{n}")
        assert code == 0
        assert body["verdict"] == "UFD"
        assert "certificate" not in body
        assert {cube["rule"] for cube in body["cover"]} == {
            "sink_source", "free_index", "free_variable"}

    def test_member_a17_is_decided(self, capsys):
        code, body = run_json(capsys, "member", "--builtin", "A:17",
                              "--expr", "(x2 + 1)/x1")
        assert code == 0
        assert body["verdict"] == "member"

    def test_prove_ufd_a20_prints_cubes(self, capsys):
        code, out, _ = run(capsys, "prove-ufd", "--builtin", "A:20")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "certificate covers 1048575 supports with 60 cubes:"
        assert lines[1] == "  in [1, 2], out []: {'rule': 'sink_source', 'i': 1, 'j': 2}"
        assert len(lines) == 62 and lines[-1] == "verdict: certified"
        code, body = run_json(capsys, "prove-ufd", "--builtin", "A:20")
        assert code == 0
        assert body["supports"] == 2 ** 20 - 1
        assert "certificate" not in body and len(body["cover"]) == 60

    @pytest.mark.parametrize("command", ["prove-ufd", "verdict"])
    def test_a70_counts_supports_past_the_index_range(self, capsys, command):
        # 2^70 - 1 supports is more than len() can return; the JSON reports
        # are golden cases
        code, out, _ = run(capsys, command, "--builtin", "A:70")
        assert code == 0
        assert f"covers {2 ** 70 - 1} supports" in out

    def test_stuck_past_the_cap_names_a_stuck_support(self, capsys, tmp_path):
        n = MAX_CERTIFICATE_N + 4
        rows = [[0] * n for _ in range(n)]
        for k in range(n - 1):                # the weighted chain, longer
            rows[k][k + 1], rows[k + 1][k] = 2, -2
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"n": n, "m": n, "matrix": rows}))
        code, body = run_json(capsys, "prove-ufd", "--seed", str(path))
        assert code == 2
        assert body["stuck_supports"] == [[17, 18]]
        oracle = RowsOracle(rows)
        (support,) = body["stuck_supports"]
        assert oracle.first_match(tuple(support)) is None
        # shrunk: dropping any one index leaves a support some rule covers
        for i in support:
            rest = tuple(j for j in support if j != i)
            assert not rest or oracle.first_match(rest) is not None


SCRIPTS_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")


# the binomial sweep exits nonzero on any disagreement with the factor oracle
SCRIPT_ARGS = {"validate_binomial_criterion.py": ("--max-degree", "3")}


@pytest.mark.parametrize("script", ["reproduce_dynkin_table.py",
                                    "counterexample_walkthrough.py",
                                    "validate_binomial_criterion.py"])
def test_script_runs(script):
    proc = run_python(os.path.join(SCRIPTS_DIR, script),
                      *SCRIPT_ARGS.get(script, ()), timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# Stands in for a checkout's benchmark: logs which side ran which workload,
# and reports every metric as 2 on the parent and 1 on the change, times the
# workload's position; a checkout holding a file named after a workload
# reports one failed command there.
FAKE_BENCHMARK = """
import json, os, sys
workload = sys.argv[sys.argv.index("--workload") + 1]
side = os.path.basename(os.getcwd())
with open(os.path.join("..", "log"), "a") as log:
    log.write(f"{side} {workload}\\n")
value = {"parent": 2, "change": 1}[side] * ("crosscheck", "prover").index(workload) + 1
print(json.dumps({"failed": int(os.path.exists(workload)), "metrics": {
    name: {"value": value} for name in ("setup_s", "wall_s", "cmd_p50_s", "peak_rss_mb")}}))
"""


def test_ab_bench_alternates_sides_over_every_workload(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_BENCHMARK)

    def ab_bench():
        return run_python(os.path.join(SCRIPTS_DIR, "ab_bench.py"),
                          str(tmp_path / "parent"), str(tmp_path / "change"),
                          "--workload", "crosscheck,prover", "--pairs", "2")

    proc = ab_bench()
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "log").read_text().split() == (
        "parent crosscheck change crosscheck parent prover change prover "
        "change crosscheck parent crosscheck change prover parent prover").split()
    summary = proc.stdout.split("\n# ")[1:]
    assert [block.split(",")[0] for block in summary] == ["crosscheck", "prover"]
    assert "wall_s       1.0000 (1.0000-1.0000) -> 1.0000  won 0/2" in summary[0]
    assert "wall_s       3.0000 (3.0000-3.0000) -> 2.0000  won 2/2" in summary[1]
    assert proc.stdout.endswith("\nsrc lines: total 0 -> 0\nfailed 0\n")

    (tmp_path / "change" / "prover").touch()
    proc = ab_bench()
    assert proc.returncode == 1 and proc.stdout.endswith("failed 2\n")


DISCONNECTED_SEEDS = {
    "A2+A2": {"n": 4, "m": 4, "matrix": [[0, 1, 0, 0], [-1, 0, 0, 0],
                                         [0, 0, 0, 1], [0, 0, -1, 0]]},
    "frozen A1+A1": {"n": 2, "m": 4, "matrix": [[0, 0], [0, 0], [1, 0], [0, 1]]},
}


@pytest.fixture(params=sorted(DISCONNECTED_SEEDS))
def disconnected_seed_file(request, tmp_path):
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps(DISCONNECTED_SEEDS[request.param]))
    return str(path)


class TestDisconnected:
    """A disconnected seed without a zero column is inconclusive everywhere."""

    def test_verdict_sweeps_anyway(self, capsys, disconnected_seed_file):
        code, body = run_json(capsys, "verdict", "--seed",
                              disconnected_seed_file, "--bound", "2")
        assert code == 2
        assert body["verdict"] == "Inconclusive"
        assert body["reason"].startswith("the exchange matrix is not connected")
        assert body["stuck_supports"] == []
        assert body["verified_bound"] == 2

    @pytest.mark.parametrize("argv", [("prove-ufd",),
                                      ("member", "--expr", "(x2 + 1)/x1"),
                                      ("normal-form", "--expr", "x1 + x2 + 1")])
    def test_certificate_commands(self, capsys, disconnected_seed_file, argv):
        code, body = run_json(capsys, argv[0], "--seed", disconnected_seed_file,
                              *argv[1:])
        assert code == 2
        assert body["verdict"] == "inconclusive"
        assert body["reason"].startswith("the exchange matrix is not connected")

    def test_zero_column_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 2, "m": 3,
                                    "matrix": [[0, 0], [0, 0], [1, 0]]}))
        for command, *rest in (("verdict",), ("prove-ufd",),
                               ("check-conjecture", "--index", "1,1")):
            code, body = run_json(capsys, command, "--seed", str(path), *rest)
            assert code == 3
            assert "column 2 is zero" in body["error"]


class TestSweepBounds:
    @pytest.mark.parametrize("degree", ["0", "-1"])
    def test_non_positive_max_total_degree(self, capsys, degree):
        code, body = run_json(capsys, "check-conjecture", "--builtin", "A:2",
                              "--max-total-degree", degree)
        assert code == 3
        assert body["verdict"] == "error"
        assert "--max-total-degree" in body["error"]

    @pytest.mark.parametrize("command", ["enumerate", "verify-laurent"])
    @pytest.mark.parametrize("max_seeds", ["0", "-5"])
    def test_non_positive_max_seeds(self, capsys, command, max_seeds):
        code, body = run_json(capsys, command, "--builtin", "A:3",
                              "--max-seeds", max_seeds)
        assert code == 3
        assert body["verdict"] == "error"
        assert "--max-seeds" in body["error"]

    def test_negative_bound_is_an_input_error(self, capsys):
        code, body = run_json(capsys, "verdict", "--builtin", "cyclicA3",
                              "--bound", "-2")
        assert code == 3
        assert body["verdict"] == "error"
        assert "bound" in body["error"]

    def test_zero_bound_means_no_cross_check(self, capsys):
        code, body = run_json(capsys, "verdict", "--builtin", "cyclicA3",
                              "--bound", "0")
        assert code == 2
        assert body["reason"] == "the principal quiver has an oriented cycle"
        assert body["verified_bound"] == 0
        code, body = run_json(capsys, "verdict", "--builtin", "A:2",
                              "--bound", "0")
        assert code == 0
        assert body["cross_checked_bound"] == 0


class TestNecessaryConditionsOnce:
    """Every command that needs the necessary conditions runs them once, and
    a zero column is an input error in all five gated commands."""

    @pytest.mark.parametrize("argv", [("verdict", "--builtin", "E:6"),
                                      ("prove-ufd", "--builtin", "E:6"),
                                      ("member", "--builtin", "A:4",
                                       "--expr", "(x2 + 1)/x1"),
                                      ("verdict", "--builtin", "A:3"),
                                      ("check-conjecture", "--builtin", "A:4",
                                       "--max-total-degree", "2")])
    def test_checks_run_once(self, capsys, monkeypatch, argv):
        calls = []
        witness = factoriality.necessary_conditions

        def counted(ideals):
            calls.append(ideals)
            return witness(ideals)

        monkeypatch.setattr(factoriality, "necessary_conditions", counted)
        code, _ = run_json(capsys, *argv)
        assert code in (0, 1)
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [("member", "--expr", "x1"),
                                      ("normal-form", "--expr", "x1 + 1")])
    def test_zero_column_in_member_and_normal_form(self, capsys, tmp_path, argv):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 2, "m": 3,
                                    "matrix": [[0, 0], [0, 0], [1, 0]]}))
        code, body = run_json(capsys, argv[0], "--seed", str(path), *argv[1:])
        assert code == 3
        assert body["verdict"] == "error"
        assert "column 2 is zero" in body["error"]


@pytest.mark.parametrize("argv", [
    ("member", "--builtin", "A:4", "--expr", "x1"),
    ("normal-form", "--builtin", "A:4", "--expr", "x1 + x2 + 1"),
    ("prove-ufd", "--builtin", "A:4"),
    ("verdict", "--builtin", "A:4", "--bound", "0")])
def test_each_certificate_command_verifies_once(capsys, monkeypatch, argv):
    calls = []
    verify = factoriality.SupportCertificate.verify

    def counted(self, matrix):
        calls.append(matrix)
        return verify(self, matrix)

    monkeypatch.setattr(factoriality.SupportCertificate, "verify", counted)
    code, _ = run_json(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")

# the four commands that rest on ``certify``; x1 and x1 + 1 suit every seed
CERTIFICATE_COMMANDS = [("prove-ufd",), ("verdict", "--bound", "0"),
                        ("member", "--expr", "x1"),
                        ("normal-form", "--expr", "x1 + 1")]

AGREEMENT_BUILTINS = ["A:2", "A:3", "A:4", "A:5", "A:6", "A:17", "D:4", "D:5",
                      "E:6", "E:7", "E:8", "rank2:1,2", "rank2:2,2",
                      "rank2:1,4", "kronecker", "cyclicA3"]


def agreement_seeds() -> dict[str, dict]:
    """The golden seed files, among them seeds that fail a necessary
    condition and a standing assumption at once, and random acyclic seeds
    with frozen rows."""
    with open(GOLDEN, encoding="utf-8") as fh:
        seeds = dict(json.load(fh)["seeds"])
    rng = random.Random(13)
    for k in range(20):
        rows = random_acyclic_seed(rng, rng.randint(2, 6), rng.randint(1, 2))
        seeds[f"random{k}"] = {"n": len(rows[0]), "m": len(rows), "matrix": rows}
    return seeds


AGREEMENT_SEEDS = agreement_seeds()


def certificate_outcome(body: dict) -> str:
    """What a certificate command concluded: "decided" on a verified
    certificate, "refuted" by a necessary condition, else "inconclusive",
    or "error" on an input error."""
    verdict = body["verdict"]
    if verdict in ("certified", "UFD", "member", "non-member", "ok"):
        return "decided"
    if verdict == "NotUFD" or body.get("reason", "").startswith(
            "necessary conditions already fail"):
        return "refuted"
    assert verdict in ("inconclusive", "Inconclusive", "error"), verdict
    return verdict.lower()


@pytest.mark.parametrize("option, name",
                         [("--builtin", name) for name in AGREEMENT_BUILTINS]
                         + [("--seed", name) for name in sorted(AGREEMENT_SEEDS)])
def test_certificate_commands_agree(capsys, tmp_path, option, name):
    """``prove-ufd``, ``verdict --bound 0``, ``member`` and ``normal-form``
    run the same pipeline, so on every seed they certify together, refute
    together or are inconclusive together."""
    if option == "--seed":
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(AGREEMENT_SEEDS[name]))
        name = str(path)
    outcomes = {argv[0]: certificate_outcome(
                    run_json(capsys, argv[0], option, name, *argv[1:])[1])
                for argv in CERTIFICATE_COMMANDS}
    assert len(set(outcomes.values())) == 1, outcomes


class TestSeedFileEntries:
    """Every malformed seed file is an input error that names the entry."""

    @pytest.mark.parametrize("matrix, where", [
        ([[0, True], [-1, 0]], "matrix[0][1]: expected an integer, got True"),
        ([[0, 1], [-1.5, 0]], "matrix[1][0]: expected an integer, got -1.5"),
        ([[0, "1"], [-1, 0]], "matrix[0][1]: expected an integer, got '1'"),
        ([[0, [1]], [-1, 0]], "matrix[0][1]: expected an integer, got [1]"),
        ([[0, 1], 5], "matrix[1]: expected a row of 2 integers"),
    ], ids=["bool", "float", "string", "nested-list", "non-list-row"])
    def test_bad_entry(self, capsys, tmp_path, matrix, where):
        self.check(capsys, tmp_path,
                   json.dumps({"n": 2, "m": 2, "matrix": matrix}), where)

    def test_non_object_json(self, capsys, tmp_path):
        self.check(capsys, tmp_path, json.dumps([[0, 1], [-1, 0]]),
                   "seed file must contain a JSON object")

    @pytest.mark.parametrize("text, where", [
        ('{"n": true, "m": 2, "matrix": [[0], [1]]}',
         "n: expected an integer, got True"),
        ('{"n": 1, "m": true, "matrix": [[0]]}',
         "m: expected an integer, got True"),
        ('{"n": 2, "m": 2, "matrix": [[0, false], [-1, 0]]}',
         "matrix[0][1]: expected an integer, got False"),
        ('{"n": 2, "m": 2, "matrix": [[0, 1], [-1, 0]], "field": true}',
         "field: expected 'Q' or 'Qi', got True"),
        ('{"n": 2, "m": 2, "matrix": [[0, 1], [[[-1]], 0]]}',
         "matrix[1][0]: expected an integer, got [[-1]]"),
        ('{"n": 2, "m": 2, "matrix": [[0, 1e400], [-1, 0]]}',
         "matrix[0][1]: expected an integer, got inf"),
        ('[{"n": 2, "m": 2, "matrix": [[0, 1], [-1, 0]]}]',
         "seed file must contain a JSON object"),
        ('"A:2"', "seed file must contain a JSON object"),
    ], ids=["bool-n", "bool-m", "bool-entry", "bool-field", "nested-list",
            "1e400", "array", "string"])
    def test_fuzzed_seed_file(self, capsys, tmp_path, text, where):
        self.check(capsys, tmp_path, text, where)

    @pytest.mark.parametrize("m", [MAX_ROWS + 1, 10_000])
    def test_rows_past_the_cap(self, capsys, tmp_path, m):
        start = time.perf_counter()
        self.check(capsys, tmp_path, json.dumps(self.column(m)),
                   f"m = {m} is above the largest number of rows {MAX_ROWS}")
        assert time.perf_counter() - start < 1.0

    def test_rows_at_the_cap(self, capsys, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(self.column(MAX_ROWS)))
        code, body = run_json(capsys, "structure", "--seed", str(path))
        assert code == 0 and body["m"] == MAX_ROWS

    @staticmethod
    def column(m):
        """One mutable index joined to m - 1 frozen rows."""
        return {"n": 1, "m": m, "matrix": [[0]] + [[1]] * (m - 1)}

    @staticmethod
    def check(capsys, tmp_path, text, where):
        path = tmp_path / "seed.json"
        path.write_text(text)
        code, body = run_json(capsys, "verdict", "--seed", str(path))
        assert code == 3
        assert body["verdict"] == "error"
        assert where in body["error"]
