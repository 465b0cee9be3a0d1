"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import os
import random
import sys
import types

import checks
import gen
import tracing
from run import END_TO_END_UNITS, judge
from workloads import Command

A3 = gen.builtin_rows("A:3")


def _full_certificate(n):
    """A certificate for linear A_n: per support, the first rule that holds."""
    from itertools import combinations
    rows = gen.builtin_rows(f"A:{n}")
    candidates = ([{"rule": "sink_source", "i": i, "j": j}
                   for i in range(1, n + 1) for j in range(1, n + 1)]
                  + [{"rule": "free_index", "i": i} for i in range(1, n + 1)]
                  + [{"rule": "free_variable", "i": i, "k": k}
                     for i in range(1, n + 1) for k in range(1, n + 1)])
    out = []
    for size in range(1, n + 1):
        for support in combinations(range(1, n + 1), size):
            rule = next(c for c in candidates
                        if checks._rule_holds(rows, set(support), c))
            out.append({"support": list(support), **rule})
    return rows, out


def test_certificate_accepted_when_complete():
    rows, cert = _full_certificate(4)
    assert checks.check_certificate(cert, rows) == []


def test_tampered_certificate_rejected():
    rows, cert = _full_certificate(4)
    assert checks.check_certificate(cert[:-1], rows)            # a support missing
    assert checks.check_certificate(cert + [cert[0]], rows)     # a support twice
    bad = [dict(e) for e in cert]
    two = next(e for e in bad if e["rule"] == "sink_source")
    two.update(rule="free_index")                                # a rule that fails
    two.pop("j")
    assert checks.check_certificate(bad, rows)


def test_factor_pair_checked_by_expansion():
    rows = gen.builtin_rows("rank2:2,2")
    good = {"reducible": {"index": 1, "factors": ["i*x2 + 1", "-i*x2 + 1"]}}
    assert checks.check_witness(good, rows, "Qi") == []
    tampered = {"reducible": {"index": 1, "factors": ["i*x2 + 1", "i*x2 + 1"]}}
    assert checks.check_witness(tampered, rows, "Qi")
    wrong_index = {"reducible": {"index": 2, "factors": ["i*x2 + 1", "-i*x2 + 1"]}}
    assert checks.check_witness(wrong_index, rows, "Qi")


def test_coincident_witness_must_match_both_columns():
    assert checks.check_witness({"coincident": [1, 3], "value": "x2 + 1"}, A3, "Q") == []
    assert checks.check_witness({"coincident": [1, 2], "value": "x2 + 1"}, A3, "Q")


def test_expected_verdicts_from_the_matrix():
    assert checks.expected_not_ufd(A3, "Q")
    assert not checks.expected_not_ufd(gen.builtin_rows("A:4"), "Q")
    assert not checks.expected_not_ufd(gen.builtin_rows("rank2:2,2"), "Q")
    assert checks.expected_not_ufd(gen.builtin_rows("rank2:2,2"), "Qi")


def test_judge_counts_tracebacks_and_exit_codes():
    cmd = Command("x", ("verdict",), None, None)
    report = json.dumps({"verdict": "NotUFD"})
    assert judge(cmd, 1, report, "") == []
    assert judge(cmd, 0, report, "")
    assert judge(cmd, 1, report, "Traceback (most recent call last):\n  ...")
    assert judge(cmd, 1, "not json", "")


def _connected_acyclic(rows) -> bool:
    n = len(rows[0])
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(n):
            if rows[i][j] and j not in seen:
                seen.add(j)
                todo.append(j)
    indeg = [sum(1 for i in range(n) if rows[i][j] > 0) for j in range(n)]
    ready = [j for j in range(n) if indeg[j] == 0]
    done = 0
    while ready:
        i = ready.pop()
        done += 1
        for j in range(n):
            if rows[i][j] > 0:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
    return len(seen) == n and done == n


def test_generator_is_deterministic_and_valid(tmp_path):
    def draw(seed):
        rng = random.Random(seed)
        return [gen.random_tree_seed(rng, n, 2, weights=(1, 2)) for n in (3, 4, 5)] + [
            gen.random_a_seed(rng, 5, 1), gen.random_d_seed(rng, 5, 2)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    for seed in range(20):
        for rows in draw(seed):
            n = len(rows[0])
            assert _connected_acyclic([row[:n] for row in rows[:n]])
            assert all(any(row) for row in rows[n:])
    path = gen.write_seed(str(tmp_path), "s", draw(1)[0])
    assert json.load(open(path))["matrix"] == draw(1)[0]


def test_workload_commands_are_deterministic(tmp_path):
    from workloads import WORKLOADS
    for name, build in WORKLOADS.items():
        first = [c.argv for c in build(random.Random(f"{name}:3"), str(tmp_path))]
        again = [c.argv for c in build(random.Random(f"{name}:3"), str(tmp_path))]
        assert first == again


def test_self_time_on_a_synthetic_span_tree():
    t = tracing.Tracer()
    # root [0, 10] with children a [1, 4] and b [5, 9]; b has child c [6, 7]
    for start, end, parent in ((0, 10, -1), (1, 4, 0), (5, 9, 0), (6, 7, 2)):
        t.start.append(start)
        t.end.append(end)
        t.parent.append(parent)
    assert t.self_times() == [3, 3, 3, 1]


def test_wrappers_record_nesting_and_patch_every_namespace():
    pkg = types.ModuleType("fakepkg")
    inner_mod = types.ModuleType("fakepkg.inner")
    outer_mod = types.ModuleType("fakepkg.outer")

    def leaf(x):
        return x + 1

    def caller(x):
        return outer_mod.leaf(x) * 2

    inner_mod.leaf = leaf
    outer_mod.leaf = leaf          # imported by name, as `from .inner import leaf`
    outer_mod.caller = caller
    sys.modules.update({"fakepkg": pkg, "fakepkg.inner": inner_mod,
                        "fakepkg.outer": outer_mod})
    try:
        t = tracing.Tracer()
        t.patch_function("fakepkg", leaf, t.wrap("layer.leaf", leaf))
        t.patch_function("fakepkg", caller, t.wrap("layer.caller", caller))
        assert outer_mod.caller(1) == 4
        assert list(t.parent) == [-1, 0]
        assert [t.names[i] for i in t.name] == ["layer.caller", "layer.leaf"]
        assert list(t.layer_outer) == [1, 0]
        summary = t.summary()
        assert summary["layer.leaf"]["calls"] == 1
        t.uninstall()
        assert inner_mod.leaf is leaf and outer_mod.leaf is leaf
    finally:
        for name in ("fakepkg", "fakepkg.inner", "fakepkg.outer"):
            sys.modules.pop(name, None)


def test_benchmark_json_lists_what_the_runs_report():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = list(tracing.layer_metrics(tracing.Tracer(), 1.0)) + list(
        tracing.EXTRA_METRICS)
    assert per_layer == {name: tracing.unit_of(name) for name in reported}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
