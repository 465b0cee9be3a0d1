"""The exit-code contract is one table, ``cli.EXIT_CODES``: every handler
ends by returning what ``_Report.emit`` gives for the verdict it reports,
and no handler spells an exit code itself."""
from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
import os
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from clusterufd import cli
from clusterufd.cli import EXIT_CODES, build_parser, main
from conftest import random_acyclic_seed, random_skew_symmetrizable

TREE = ast.parse(inspect.getsource(cli))

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")


def handlers() -> dict[str, ast.FunctionDef]:
    """The definition of each subcommand's handler, by command name."""
    commands = next(a for a in build_parser()._actions if a.dest == "command")
    defs = {node.name: node for node in TREE.body
            if isinstance(node, ast.FunctionDef)}
    return {command: defs[parser.get_default("handler").__name__]
            for command, parser in commands.choices.items()}


def is_emit(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "emit")


def verdicts(node) -> list[str]:
    """The verdicts an ``emit`` argument can name: a string literal, or a
    conditional expression between such arguments."""
    if isinstance(node, ast.IfExp):
        return verdicts(node.body) + verdicts(node.orelse)
    assert isinstance(node, ast.Constant) and isinstance(node.value, str), \
        f"emit({ast.unparse(node)}) does not name its verdict"
    return [node.value]


@pytest.mark.parametrize("command", sorted(handlers()))
def test_handler_returns_only_its_report(command):
    handler = handlers()[command]
    returns = [node for node in ast.walk(handler) if isinstance(node, ast.Return)]
    assert handler.body[-1] in returns
    for node in returns:
        assert is_emit(node.value), \
            f"{handler.name} returns {ast.unparse(node.value)}"


def test_every_emitted_verdict_has_an_exit_code():
    emitted = {verdict for node in ast.walk(TREE) if is_emit(node)
               for verdict in verdicts(node.args[0])}
    # the two verdicts of ``_emit_error``, which reports failures
    assert emitted | {"error", "internal-error"} == set(EXIT_CODES)
    assert (EXIT_CODES["error"], EXIT_CODES["internal-error"]) == (3, 4)
    assert set(EXIT_CODES.values()) == {0, 1, 2, 3, 4}


def test_golden_exit_codes_follow_the_table():
    with open(GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    for case in cases:
        verdict = json.loads(case["stdout"])["verdict"]
        assert case["exit"] == EXIT_CODES[verdict], case["argv"]


# ``enumerate``, ``verify-laurent`` and ``mutate`` are left out: nothing yet
# bounds their time on infinite types, so a random seed can run for minutes
FUZZED = ("check-conjecture", "exchange-polys", "hypersurface", "member",
          "normal-form", "prove-ufd", "structure", "verdict")

# short expressions in x1..x5 that may name a variable the ring lacks, use i
# over Q or divide by a sum, so input errors are drawn too
FACTORS = st.builds(lambda atom, power: atom + power,
                    st.sampled_from(["1", "2", "i", "x1", "x2", "x3", "x4",
                                     "x5", "(x1 + 1)"]),
                    st.sampled_from(["", "", "", "^0", "^2", "^3"]))
TERMS = st.builds(lambda first, rest: first + "".join(op + f for op, f in rest),
                  FACTORS, st.lists(st.tuples(st.sampled_from("**/"), FACTORS),
                                    max_size=2))
EXPRESSIONS = st.builds(lambda first, rest: first + "".join(op + t for op, t in rest),
                        TERMS, st.lists(st.tuples(st.sampled_from([" + ", " - "]),
                                                  TERMS), max_size=2))


@st.composite
def invocations(draw):
    """A command line and the seed it reads, if any: a random seed of rank
    n <= 4 with 0-1 frozen rows over Q or Q(i), and the command's options."""
    command = draw(st.sampled_from(FUZZED))
    if command == "hypersurface":
        return [command, "--n", str(draw(st.integers(1, 5)))], None
    n, frozen = draw(st.integers(1, 4)), draw(st.integers(0, 1))
    make = draw(st.sampled_from([random_acyclic_seed, random_skew_symmetrizable]))
    rows = make(random.Random(draw(st.integers(0, 2 ** 32))), n, frozen)
    seed_json = {"n": n, "m": n + frozen, "matrix": rows,
                 "field": draw(st.sampled_from(["Q", "Qi"]))}
    argv = [command]
    if command == "check-conjecture":
        if draw(st.booleans()):
            index = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            argv += ["--index", ",".join(map(str, index))]
        else:
            argv += ["--max-total-degree", str(draw(st.integers(0, 2)))]
    if command == "verdict":
        argv += ["--bound", str(draw(st.integers(0, 2)))]
    if command in ("check-conjecture", "verdict") and draw(st.booleans()):
        argv += ["--budget", str(draw(st.integers(0, 50)))]
    if command in ("member", "normal-form"):
        argv += ["--expr", draw(EXPRESSIONS)]
    return argv, seed_json


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(invocations())
def test_random_invocations_keep_the_contract(tmp_path_factory, invocation):
    """Every command ends in one JSON report whose verdict gives the exit
    code, and only a bug exits 4."""
    argv, seed_json = invocation
    if seed_json is not None:
        path = tmp_path_factory.mktemp("fuzz") / "seed.json"
        path.write_text(json.dumps(seed_json))
        argv = argv + ["--seed", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--json"])
    body = json.loads(out.getvalue())
    assert isinstance(body, dict)
    assert code in (0, 1, 2, 3), body
    assert EXIT_CODES[body["verdict"]] == code
