"""Output checks that decide correctness without the program's own code.

Each check takes the parsed JSON report of one command plus what the
benchmark knows about its input (the matrix rows and the field), and
returns a list of problems; an empty list means the output is correct.
Polynomials printed by the program are parsed into sympy and compared with
expressions built here from the matrix columns.
"""
from __future__ import annotations

import re
from itertools import combinations

import sympy

TRACEBACK = "Traceback (most recent call last)"


# -- the matrix, read directly -------------------------------------------------

def _symbols(m: int):
    return sympy.symbols(f"x1:{m + 1}")


def exchange_poly(rows, j: int):
    """f_j = prod_{b_ij > 0} x_i^b_ij + prod_{b_ij < 0} x_i^-b_ij, in sympy."""
    xs = _symbols(len(rows))
    pos = sympy.Integer(1)
    neg = sympy.Integer(1)
    for i, row in enumerate(rows):
        b = row[j - 1]
        if b > 0:
            pos *= xs[i] ** b
        elif b < 0:
            neg *= xs[i] ** -b
    return sympy.expand(pos + neg)


def neighbors(rows, i: int) -> set[int]:
    n = len(rows[0])
    return {j + 1 for j in range(n) if rows[i - 1][j] != 0 and j != i - 1}


def is_source(rows, i: int) -> bool:
    return all(row[i - 1] <= 0 for row in rows)


def is_sink(rows, i: int) -> bool:
    return all(row[i - 1] >= 0 for row in rows)


def mutate_rows(rows, k: int):
    """Matrix mutation in direction k (1-based), from its defining formula."""
    kp = k - 1
    out = []
    for i, row in enumerate(rows):
        new = []
        for j, b in enumerate(row):
            if i == kp or j == kp:
                new.append(-b)
            else:
                bik, bkj = rows[i][kp], rows[kp][j]
                new.append(b + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        out.append(new)
    return out


def is_factor_irreducible(expr, field: str) -> bool:
    gens = sorted(expr.free_symbols, key=str)
    _, factors = sympy.factor_list(expr, *gens, gaussian=(field == "Qi"))
    nonconstant = [(f, k) for f, k in factors if f.free_symbols]
    return len(nonconstant) == 1 and nonconstant[0][1] == 1


def expected_not_ufd(rows, field: str) -> bool:
    """Some f_i is reducible over the field, or two f_i coincide."""
    n = len(rows[0])
    polys = [exchange_poly(rows, j) for j in range(1, n + 1)]
    if any(not is_factor_irreducible(f, field) for f in polys):
        return True
    return any(polys[i] == polys[j] for i, j in combinations(range(n), 2))


def parse_printed(text: str, m: int):
    """A polynomial or Laurent value as the program prints it, in sympy."""
    names = {f"x{p}": s for p, s in enumerate(_symbols(m), start=1)}
    names["I"] = sympy.I
    body = re.sub(r"\bi\b", "I", text.replace("^", "**"))
    return sympy.sympify(body, locals=names)


# -- checks per report kind ----------------------------------------------------

def _rule_holds(rows, support: set[int], entry: dict) -> bool:
    n = len(rows[0])
    rule = entry.get("rule")
    if rule == "sink_source":
        i, j = entry["i"], entry["j"]
        return (i in support and j in support and i != j
                and (is_source(rows, i) or is_sink(rows, i))
                and j in neighbors(rows, i))
    if rule == "free_index":
        i = entry["i"]
        return i in support and not (neighbors(rows, i) & support)
    if rule == "free_variable":
        i, k = entry["i"], entry["k"]
        if i not in support or not 1 <= k <= len(rows) or k == i:
            return False
        if k <= n and k in support:
            return False
        col = [row[i - 1] for row in rows]
        unit = [1 if p == k - 1 else 0 for p in range(len(rows))]
        halves = ([max(b, 0) for b in col], [max(-b, 0) for b in col])
        if unit not in halves:
            return False
        return not ((neighbors(rows, k) - {i}) & support)
    return False


def check_certificate(certificate, rows) -> list[str]:
    """Every nonempty support of 1..n exactly once, each rule holding."""
    n = len(rows[0])
    problems = []
    seen = set()
    for entry in certificate:
        support = tuple(entry["support"])
        if support in seen:
            problems.append(f"support {list(support)} listed twice")
        seen.add(support)
        if not _rule_holds(rows, set(support), entry):
            problems.append(f"support {list(support)}: rule {entry} does not hold")
    expected = {s for size in range(1, n + 1)
                for s in combinations(range(1, n + 1), size)}
    if seen != expected:
        problems.append(f"certificate covers {len(seen & expected)} of "
                        f"{len(expected)} supports, plus {len(seen - expected)} others")
    return problems


def check_witness(witness, rows, field: str) -> list[str]:
    m = len(rows)
    if "reducible" in witness:
        body = witness["reducible"]
        g, h = (parse_printed(t, m) for t in body["factors"])
        f = exchange_poly(rows, body["index"])
        if sympy.expand(g * h - f) != 0:
            return [f"factors {body['factors']} do not multiply to f_{body['index']} = {f}"]
        if not (g.free_symbols and h.free_symbols):
            return [f"factor pair {body['factors']} is trivial"]
        return []
    if "coincident" in witness:
        i, j = witness["coincident"]
        value = parse_printed(witness["value"], m)
        fi, fj = exchange_poly(rows, i), exchange_poly(rows, j)
        if i == j or sympy.expand(fi - value) != 0 or sympy.expand(fj - value) != 0:
            return [f"coincidence f_{i} = f_{j} = {witness['value']} does not hold"]
        return []
    return [f"unknown witness {witness}"]


def check_verdict(report, rows, field: str, expected=None) -> list[str]:
    """A verdict report against the verdict the inputs call for."""
    verdict = report.get("verdict")
    not_ufd = expected_not_ufd(rows, field)
    if expected is not None and verdict != expected:
        return [f"verdict {verdict}, expected {expected}"]
    if not_ufd and verdict != "NotUFD":
        return [f"verdict {verdict}, but an exchange polynomial factors or two coincide"]
    if verdict == "NotUFD":
        if not not_ufd:
            return ["NotUFD, but every f_i is irreducible and no two coincide"]
        return check_witness(report["witness"], rows, field)
    if verdict in ("UFD", "certified"):
        return check_certificate(report["certificate"], rows)
    if verdict == "Inconclusive":
        return []
    return [f"unexpected verdict {verdict!r}"]


def _positive_laurent(text: str) -> bool:
    """Positivity: numerators have positive integer coefficients only."""
    return "-" not in text and not re.search(r"\d/\d", text)


def check_enumeration(report, expected_count=None) -> list[str]:
    problems = []
    variables = report["variables"]
    if len(set(variables)) != len(variables) or report["count"] != len(variables):
        problems.append("variables are not a set of the reported size")
    if expected_count is not None and report["count"] != expected_count:
        problems.append(f"{report['count']} cluster variables, expected {expected_count}")
    bad = [v for v in variables if not _positive_laurent(v)]
    if bad:
        problems.append(f"not a positive Laurent polynomial: {bad[0]}")
    return problems


def check_mutation(report, rows, sequence) -> list[str]:
    expected = rows
    for k in sequence:
        expected = mutate_rows(expected, k)
    problems = []
    if report["matrix"] != expected:
        problems.append("mutated matrix differs from the mutation formula")
    if len(report["cluster"]) != len(rows):
        problems.append("cluster has the wrong number of entries")
    bad = [v for v in report["cluster"] if not _positive_laurent(v)]
    if bad:
        problems.append(f"not a positive Laurent polynomial: {bad[0]}")
    return problems


def check_structure(report, rows) -> list[str]:
    n, m = len(rows[0]), len(rows)
    want = {
        "n": n, "m": m,
        "sources": [i for i in range(1, n + 1) if is_source(rows, i)],
        "sinks": [i for i in range(1, n + 1) if is_sink(rows, i)],
        "neighbors": {str(i): sorted(neighbors(rows, i)) for i in range(1, m + 1)},
    }
    return [f"{key}: {report.get(key)} != {value}"
            for key, value in want.items() if report.get(key) != value]


def check_normal_form(report, rows, expr: str, field: str) -> list[str]:
    """value * M equals the input, and the irreducibility claim is right."""
    m = len(rows)
    xs = _symbols(m)
    p = parse_printed(expr, m)
    value = parse_printed(report["value"], m)
    monomial = sympy.Mul(*(x ** e for x, e in zip(xs, report["normal_monomial"])))
    problems = []
    if sympy.expand(sympy.cancel(value * monomial) - p) != 0:
        problems.append(f"{report['value']} times the normal monomial is not {expr}")
    want = "irreducible" if is_factor_irreducible(p, field) else "reducible"
    if report["irreducibility"] != want:
        problems.append(f"irreducibility {report['irreducibility']}, expected {want}")
    return problems
