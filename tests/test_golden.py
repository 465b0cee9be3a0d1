"""Byte-identical --json output for the README examples, the cross-check
verdicts and the enumeration, Laurent-check and mutation commands, against
reports frozen in ``golden_cli.json``.

Reduced Groebner bases are canonical and the reports carry no timings, so
any change to these bytes is a behavior change.  The frozen reports were
recorded with the linear-scan pair selection that predates the heap-ordered
queue.  Seed-file cases name an entry of the file's "seeds" table, which is
written to a temporary file before the run.  Each case also runs in text
mode, which must exit the same way and end on the same verdict.

``golden_workloads.json`` pins every command of the benchmark's three
workloads (``perfbench/workloads.py``) at workload seeds 1-3, in --json and
in text mode: its exit code and the sha256 of its stdout, since the A:16
certificate listing alone is 11.8 MB.  After an intended output change,
rewrite both files with ``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import sys
import tempfile

import pytest

from clusterufd.cli import build_parser, main
from conftest import run_python

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_cli.json")
WORKLOAD_PINS = os.path.join(HERE, "golden_workloads.json")
PERFBENCH = os.path.join(os.path.dirname(HERE), "perfbench")

with open(GOLDEN, encoding="utf-8") as fh:
    RECORD = json.load(fh)


def run_case(argv: list[str], workdir: str,
             as_json: bool = True) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one case, in JSON or text mode."""
    argv = list(argv)
    if "--seed" in argv:
        k = argv.index("--seed") + 1
        path = os.path.join(workdir, argv[k] + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(RECORD["seeds"][argv[k]], fh)
        argv[k] = path
    return run_main(argv + ["--json"] if as_json else argv)


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


CASE_IDS = [" ".join(c["argv"]) for c in RECORD["cases"]]


@pytest.mark.parametrize("case", RECORD["cases"], ids=CASE_IDS)
def test_json_report_is_byte_identical(case, tmp_path):
    code, stdout, _ = run_case(case["argv"], str(tmp_path))
    assert code == case["exit"]
    assert stdout == case["stdout"]


@pytest.mark.parametrize("case", RECORD["cases"], ids=CASE_IDS)
def test_text_report_agrees_with_the_json_verdict(case, tmp_path):
    """Text mode, the default, exits as --json does; a report's last line
    is its verdict, and an input error goes to stderr."""
    code, stdout, stderr = run_case(case["argv"], str(tmp_path), as_json=False)
    assert code == case["exit"]
    if code == 3:
        assert stderr.startswith("error: ")
    else:
        verdict = json.loads(case["stdout"])["verdict"]
        assert stdout.splitlines()[-1] == f"verdict: {verdict}"


# the first builtin-seed case of each of the 11 subcommands, replayed through
# ``python -m clusterufd.cli`` in a fresh interpreter, where each command
# imports only the layers it runs
FRESH_CASES: dict[str, dict] = {}
for _case in RECORD["cases"]:
    if "--seed" not in _case["argv"]:
        FRESH_CASES.setdefault(_case["argv"][0], _case)


@pytest.mark.parametrize("command", sorted(FRESH_CASES))
def test_fresh_process_is_byte_identical(command):
    case = FRESH_CASES[command]
    proc = run_python("-m", "clusterufd.cli", *case["argv"], "--json")
    assert proc.returncode == case["exit"], proc.stderr
    assert proc.stdout == case["stdout"]


def test_every_subcommand_has_a_fresh_case():
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(FRESH_CASES) == sorted(commands.choices)


def workload_outcomes(workloads, run: str, workdir: str) -> dict[str, list]:
    """[exit code, sha256 of stdout] of each command of one pinned run,
    named "<workload> <workload seed> <json|text>", by command key.  The
    commands are built as ``perfbench/run.py`` builds them."""
    name, seed, mode = run.split()
    cmds = workloads.WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir)
    outcomes = {}
    for cmd in cmds:
        argv = list(cmd.argv)
        if mode == "text":
            argv.remove("--json")
        code, stdout, _ = run_main(argv)
        outcomes[cmd.key] = [code, hashlib.sha256(stdout.encode()).hexdigest()]
    return outcomes


with open(WORKLOAD_PINS, encoding="utf-8") as fh:
    PINS = json.load(fh)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("workloads")


@pytest.mark.parametrize("run", sorted(PINS))
def test_workload_output_is_pinned(run, workloads, tmp_path):
    assert workload_outcomes(workloads, run, str(tmp_path)) == PINS[run]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        for case in RECORD["cases"]:
            case["exit"], case["stdout"], _ = run_case(case["argv"], workdir)
        sys.path.insert(0, PERFBENCH)
        workloads = importlib.import_module("workloads")
        runs = [f"{name} {seed} {mode}" for name in sorted(workloads.WORKLOADS)
                for seed in (1, 2, 3) for mode in ("json", "text")]
        pins = {run: workload_outcomes(workloads, run, workdir) for run in runs}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(RECORD, fh, indent=1, sort_keys=True, ensure_ascii=False)
    with open(WORKLOAD_PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
