"""The three workloads: command lists built from the workload seed.

Every command runs with ``--json``.  Each carries the exit code the
contract demands (or None, when the code follows from the reported verdict)
and a check of its report from ``checks``; a check gets the matrix the
benchmark itself built or defined, never one read back from the program.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import checks
import gen

VERDICT_EXIT = {"UFD": 0, "certified": 0, "NotUFD": 1, "Inconclusive": 2,
                "inconclusive": 2}


@dataclass(frozen=True)
class Command:
    key: str
    argv: tuple[str, ...]
    exit_code: Optional[int]
    check: Optional[Callable[[dict], list[str]]] = None


def _verdict(name, rows, field="Q", bound=None, expected=None, seed_file=None):
    argv = ["verdict"]
    argv += ["--seed", seed_file] if seed_file else ["--builtin", name]
    if field != "Q":
        argv += ["--field", field]
    if bound is not None:
        argv += ["--bound", str(bound)]
    key = " ".join(argv[:1] + [name] + argv[3:])
    return Command(key, tuple(argv + ["--json"]), VERDICT_EXIT.get(expected),
                   lambda r: checks.check_verdict(r, rows, field, expected))


def _builtin_verdict(name, field="Q", bound=None, expected=None):
    return _verdict(name, gen.builtin_rows(name), field, bound, expected)


def _enumerate(name, rows, expected_count=None, max_seeds=None, seed_file=None):
    """Finite type when ``expected_count`` is given (exit 0), else bounded (exit 2)."""
    argv = ["enumerate"]
    argv += ["--seed", seed_file] if seed_file else ["--builtin", name]
    if max_seeds is not None:
        argv += ["--max-seeds", str(max_seeds)]
    key = " ".join(argv[:1] + [name] + argv[3:])

    def check(report):
        if report["complete"] != (expected_count is not None):
            return ["enumeration completeness is wrong"]
        return checks.check_enumeration(report, expected_count)

    return Command(key, tuple(argv + ["--json"]), 0 if expected_count else 2, check)


def crosscheck(rng: random.Random, workdir: str) -> list[Command]:
    """UFD verdicts whose cost is the Groebner cross-check."""
    cmds = [
        _builtin_verdict("E:6", bound=3, expected="UFD"),
        _builtin_verdict("A:4", field="Qi", bound=3, expected="UFD"),
        _builtin_verdict("kronecker", bound=4, expected="UFD"),
        _builtin_verdict("rank2:1,2", bound=5, expected="UFD"),
    ]
    for k, n in enumerate((3, 4)):
        rows = gen.random_tree_seed(rng, n, rng.randint(0, 2), weights=(1, 1, 2))
        path = gen.write_seed(workdir, f"cross{k}", rows)
        cmds.append(_verdict(f"random{k}", rows, bound=2, seed_file=path))
    indices = sum(comb(4 + w - 1, w) for w in (1, 2))  # weights 1..2 in 4 variables
    cmds.append(Command(
        "check-conjecture A:4 --max-total-degree 2",
        ("check-conjecture", "--builtin", "A:4", "--max-total-degree", "2", "--json"), 0,
        lambda r: [] if r["checked"] == indices else [f"checked {r['checked']} multi-indices"]))
    return cmds


def mutation(rng: random.Random, workdir: str) -> list[Command]:
    """Seed mutation and Laurent arithmetic, with no Groebner work."""
    type_a = gen.random_a_seed(rng, 5, rng.randint(1, 2))
    type_d = gen.random_d_seed(rng, 4, rng.randint(1, 2))
    e8 = gen.builtin_rows("E:8")
    sequence = [1, 2, 3, 4, 5, 6, 7, 8] * 2
    return [
        _enumerate("A:6", gen.builtin_rows("A:6"), expected_count=6 * 9 // 2),
        Command("verify-laurent D:4", ("verify-laurent", "--builtin", "D:4", "--json"), 0,
                lambda r: [] if (r["count"], r["violations"]) == (16, [])
                else [f"{r['count']} variables, violations {r['violations']}"]),
        _enumerate("randomA5", type_a, 5 * 8 // 2,
                   seed_file=gen.write_seed(workdir, "typeA", type_a)),
        _enumerate("randomD4", type_d, 4 * 4,
                   seed_file=gen.write_seed(workdir, "typeD", type_d)),
        _enumerate("kronecker", gen.builtin_rows("kronecker"), max_seeds=16),
        _enumerate("rank2:1,4", gen.builtin_rows("rank2:1,4"), max_seeds=12),
        Command("mutate E:8 x16",
                ("mutate", "--builtin", "E:8", "--sequence", ",".join(map(str, sequence)),
                 "--json"), 0,
                lambda r: checks.check_mutation(r, e8, sequence)),
    ]


def prover(rng: random.Random, workdir: str) -> list[Command]:
    """Certificate search, rendering, refutations and start-up."""
    a4 = gen.builtin_rows("A:4")
    a16 = gen.builtin_rows("A:16")
    e8 = gen.builtin_rows("E:8")
    return [
        Command("prove-ufd A:16", ("prove-ufd", "--builtin", "A:16", "--json"), 0,
                lambda r: checks.check_verdict(r, a16, "Q", "certified")),
        Command("member A:12", ("member", "--builtin", "A:12", "--expr", "(x2 + 1)/x1",
                                "--json"), 0,
                lambda r: [] if r["verdict"] == "member" else ["not a member"]),
        Command("normal-form A:4 oracle", ("normal-form", "--builtin", "A:4", "--expr",
                                           "x1*x2 + x3 + 1", "--json"), 0,
                lambda r: checks.check_normal_form(r, a4, "x1*x2 + x3 + 1", "Q")),
        _builtin_verdict("D:16", expected="NotUFD"),
        _builtin_verdict("rank2:2,2", field="Qi", expected="NotUFD"),
        Command("structure E:8", ("structure", "--builtin", "E:8", "--json"), 0,
                lambda r: checks.check_structure(r, e8)),
        Command("input error", ("verdict", "--builtin", "A:0", "--json"), 3,
                lambda r: [] if r["verdict"] == "error" else ["no error report"]),
    ]


WORKLOADS = {"crosscheck": crosscheck, "mutation": mutation, "prover": prover}
