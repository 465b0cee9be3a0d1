"""The exit-code contract is one table, ``cli.EXIT_CODES``: every handler
ends by returning what ``_Report.emit`` gives for the verdict it reports,
and no handler spells an exit code itself."""
from __future__ import annotations

import ast
import inspect
import json
import os

import pytest

from clusterufd import cli
from clusterufd.cli import EXIT_CODES, build_parser

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
