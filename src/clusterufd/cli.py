"""Command-line interface.

Each report's verdict determines the exit code, through ``EXIT_CODES``: 0
verified/holds, 1 refuted (a witness was found), 2 inconclusive (budget or
missing certificate), 3 input error, 4 internal error (a bug, such as two
independent computations disagreeing).  With --json every command emits a
single object carrying "schema_version" and "verdict"; reports contain no
timestamps or floats, so identical invocations produce byte-identical
output.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

# Each handler imports the layers it uses when it runs, so ``--help``, a
# usage error and the mutation commands never load the Groebner kernel,
# the factoriality pipeline or the parser.  ``main`` loads the seed first,
# so a seed that fails to load never loads the pipeline either.

SCHEMA_VERSION = 2

# The exit-code contract: the exit code of every verdict a command reports.
EXIT_CODES = {
    "ok": 0, "complete": 0, "laurent": 0, "holds": 0, "certified": 0,
    "UFD": 0, "member": 0,
    "violated": 1, "fails": 1, "NotUFD": 1, "non-member": 1,
    "incomplete": 2, "inconclusive": 2, "Inconclusive": 2,
    "error": 3, "internal-error": 4,
}


# Stands in for the per-support listing while json.dumps renders the rest of
# a report; json escapes the NUL, so no other report value renders like it.
_LISTING_SLOT = "\0certificate"


def _listing_json(certificate) -> str:
    """The per-support listing under a report's "certificate" key, byte for
    byte as ``json.dumps(sort_keys=True, indent=2)`` renders its dicts
    ``{"support": [...], **rule.to_json()}``, from one template per cube
    and the certificate's first-cube table."""
    heads, tails = [], []
    for _, _, rule in certificate.cubes:
        entry = json.dumps({**rule.to_json(), "support": _LISTING_SLOT},
                           sort_keys=True, indent=2)
        # an entry sits at depth 2 of the report, its support list at depth 3
        head, _, tail = entry.replace("\n", "\n    ").partition(
            json.dumps(_LISTING_SLOT))
        heads.append(head + "[\n        ")
        tails.append("\n      ]" + tail)
    sep = ",\n        "
    decimal = [str(i) for i in range(1, certificate.n + 1)]
    entries = [f"{heads[first]}{sep.join(support)}{tails[first]}"
               for support, first in certificate.listing(decimal)]
    return "[\n    " + ",\n    ".join(entries) + "\n  ]"


class _Report:
    """Collects per-command output for either text or JSON emission."""

    def __init__(self, command: str, as_json: bool):
        self.command = command
        self.as_json = as_json
        self.payload: dict = {}
        self.lines: list[str] = []
        # a certificate whose per-support listing the JSON report carries
        self.certificate = None

    def set(self, key: str, value):
        self.payload[key] = value

    def text(self, line: str):
        self.lines.append(line)

    def emit(self, verdict: str) -> int:
        """Print the report and return the verdict's exit code."""
        if self.as_json:
            body = dict(self.payload)
            body["schema_version"] = SCHEMA_VERSION
            body["command"] = self.command
            body["verdict"] = verdict
            if self.certificate is None:
                _write(json.dumps(body, sort_keys=True, indent=2) + "\n")
            else:
                body["certificate"] = _LISTING_SLOT
                rendered = json.dumps(body, sort_keys=True, indent=2)
                head, _, tail = rendered.partition(json.dumps(_LISTING_SLOT))
                # three writes, so the listing is never copied into one string
                _write(head, _listing_json(self.certificate), tail + "\n")
        else:
            _write("\n".join([*self.lines, f"verdict: {verdict}\n"]))
        return EXIT_CODES[verdict]


def _write(*parts: str):
    """Write ``parts`` to standard output and flush it.  Once the reader has
    closed it, point standard output at the null device, so a later flush
    (``entrypoint``'s, or the one at interpreter exit) does not raise
    again."""
    try:
        for part in parts:
            sys.stdout.write(part)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_error(command: str, as_json: bool, message: str,
                verdict: str = "error") -> int:
    if as_json:
        body = {"schema_version": SCHEMA_VERSION, "command": command,
                "verdict": verdict, "error": message}
        _write(json.dumps(body, sort_keys=True, indent=2) + "\n")
    else:
        print(f"{verdict}: {message}", file=sys.stderr)
    return EXIT_CODES[verdict]


def _load_seed(args):
    from .cluster import builtin_seed, load_seed_file
    from .fields import FieldTag
    field = FieldTag(args.field) if args.field else None
    if args.builtin:
        return builtin_seed(args.builtin, field or FieldTag.Q)
    seed = load_seed_file(args.seed)
    if field is not None and field is not seed.field:
        raise ValueError(f"--field {field.value} contradicts the seed file "
                         f"field {seed.field.value}")
    return seed


def _positive(value, flag: str):
    """``value`` unless it is below 1; None passes through."""
    if value is not None and value < 1:
        raise ValueError(f"{flag} must be positive")
    return value


def _set_cover(report: _Report, certificate):
    """Set "cover"; a JSON report up to ``MAX_CERTIFICATE_N`` gets the listing."""
    from .factoriality import MAX_CERTIFICATE_N
    report.set("cover", [{"inside": list(inside), "outside": list(outside),
                          **rule.to_json()}
                         for inside, outside, rule in certificate.cubes])
    if report.as_json and certificate.n <= MAX_CERTIFICATE_N:
        report.certificate = certificate


def _problem(verdict) -> str:
    """Why a NotUFD or Inconclusive verdict gives no certificate."""
    from .factoriality import NotUFD
    if isinstance(verdict, NotUFD):
        return f"necessary conditions already fail: {verdict.witness}"
    if verdict.stuck_supports:
        stuck = [list(s) for s in verdict.stuck_supports]
        return f"certificate search stuck at supports {stuck}"
    return verdict.reason


# -- command handlers --------------------------------------------------------

def _cmd_mutate(args, seed, report: _Report) -> int:
    try:
        indices = [int(tok) for tok in args.sequence.split(",") if tok]
    except ValueError:
        raise ValueError(f"--sequence must be comma-separated integers, "
                         f"got {args.sequence!r}")
    mutated = seed.mutate_sequence(indices)
    report.set("sequence", indices)
    report.set("order", "applied left to right (first index first)")
    report.set("matrix", [list(row) for row in mutated.matrix.rows])
    report.set("cluster", [str(entry) for entry in mutated.cluster])
    report.text(f"applied mutations {indices} (left to right)")
    report.text("matrix:")
    for row in mutated.matrix.rows:
        report.text("  " + " ".join(f"{b:3d}" for b in row))
    for i, entry in enumerate(mutated.cluster, start=1):
        report.text(f"entry {i}: {entry}")
    return report.emit("ok")


def _cmd_exchange_polys(args, seed, report: _Report) -> int:
    from .cluster import exchange_polynomial
    polys = [exchange_polynomial(seed.matrix, j, seed.field)
             for j in range(1, seed.matrix.n + 1)]
    report.set("exchange_polynomials", [str(f) for f in polys])
    for j, f in enumerate(polys, start=1):
        report.text(f"f_{j} = {f}")
    return report.emit("ok")


def _cmd_structure(args, seed, report: _Report) -> int:
    from .cluster import structure_report
    rep = structure_report(seed.matrix)
    report.payload.update(rep._asdict())
    report.set("neighbors", {str(i + 1): list(ns)
                             for i, ns in enumerate(rep.neighbors)})
    report.text(f"n = {rep.n}, m = {rep.m}")
    report.text(f"skew-symmetrizer D = diag{tuple(rep.skew_symmetrizer)}")
    report.text(f"connected: {rep.connected}, acyclic: {rep.acyclic}")
    report.text(f"sources: {list(rep.sources)}, sinks: {list(rep.sinks)}")
    for i, ns in enumerate(rep.neighbors, start=1):
        report.text(f"N({i}) = {list(ns)}")
    return report.emit("ok")


def _cmd_enumerate(args, seed, report: _Report) -> int:
    from .cluster import enumerate_cluster_variables
    result = enumerate_cluster_variables(
        seed, max_seeds=_positive(args.max_seeds, "--max-seeds"))
    report.set("count", result.count)
    report.set("complete", result.complete)
    report.set("seeds", result.seeds_seen)
    report.set("variables", [str(v) for v in result.variables])
    report.text(f"{result.count} cluster variables across "
                f"{result.seeds_seen} seeds (complete: {result.complete})")
    for v in result.variables:
        report.text(f"  {v}")
    return report.emit("complete" if result.complete else "incomplete")


def _cmd_verify_laurent(args, seed, report: _Report) -> int:
    from .cluster import verify_laurent_property
    result, problems = verify_laurent_property(
        seed, max_seeds=_positive(args.max_seeds, "--max-seeds"))
    report.set("count", result.count)
    report.set("complete", result.complete)
    report.set("violations", problems)
    report.text(f"checked {result.count} cluster variables "
                f"(complete enumeration: {result.complete})")
    for p in problems:
        report.text(f"VIOLATION: {p}")
    return report.emit("violated" if problems else "laurent")


def _cmd_check_conjecture(args, seed, report: _Report) -> int:
    from .factoriality import (ExchangeIdeals, conjecture_check,
                               conjecture_sweep, gate)
    ideals = ExchangeIdeals(seed.matrix, seed.field)
    budget = _positive(args.budget, "--budget")
    if (args.index is None) == (args.max_total_degree is None):
        raise ValueError("pass exactly one of --index or --max-total-degree")
    _positive(args.max_total_degree, "--max-total-degree")
    if args.index is not None:
        try:
            a = tuple(int(tok) for tok in args.index.split(","))
        except ValueError:
            raise ValueError(f"--index must be comma-separated integers, "
                             f"got {args.index!r}")
    stop = None if args.override_assumptions else gate(ideals)
    if stop is not None:
        raise ValueError(f"{_problem(stop)}; pass --override-assumptions "
                         f"to probe anyway")
    if args.index is not None:
        outcomes = [conjecture_check(ideals, a, budget)]
    else:
        outcomes = conjecture_sweep(ideals, args.max_total_degree, budget)
    last = outcomes[-1]
    report.set("checked", len(outcomes))
    report.set("multi_index", list(last.multi_index))
    report.text(f"checked {len(outcomes)} multi-indices, "
                f"last {list(last.multi_index)}")
    if last.status == "fails":
        report.set("witness", str(last.witness))
        report.text(f"witness in intersection but not product: {last.witness}")
        return report.emit("fails")
    if last.status == "inconclusive":
        report.set("detail", last.detail)
        report.text(f"inconclusive: {last.detail}")
        return report.emit("inconclusive")
    return report.emit("holds")


def _cmd_prove_ufd(args, seed, report: _Report) -> int:
    from .factoriality import (MAX_CERTIFICATE_N, ExchangeIdeals,
                               Inconclusive, NotUFD, certify)
    verdict = certify(ExchangeIdeals(seed.matrix, seed.field))
    if isinstance(verdict, NotUFD):
        report.set("witness", verdict.witness.to_json())
        report.text(str(verdict.witness))
        return report.emit("NotUFD")
    if isinstance(verdict, Inconclusive):
        if verdict.stuck_supports:
            stuck = [list(s) for s in verdict.stuck_supports]
            report.set("stuck_supports", stuck)
            report.text(f"stuck at supports {stuck}")
        else:
            report.set("reason", verdict.reason)
            report.text(verdict.reason)
        return report.emit("inconclusive")
    certificate = verdict.certificate
    supports = (1 << certificate.n) - 1  # past len()'s range from n = 64
    _set_cover(report, certificate)
    report.set("supports", supports)
    if certificate.n > MAX_CERTIFICATE_N:
        report.text(f"certificate covers {supports} supports "
                    f"with {len(certificate.cubes)} cubes:")
        for inside, outside, rule in certificate.cubes:
            report.text(f"  in {list(inside)}, out {list(outside)}: "
                        f"{rule.to_json()}")
    elif not report.as_json:
        report.text(f"certificate covers {supports} supports:")
        rules = [rule.to_json() for _, _, rule in certificate.cubes]
        for support, first in certificate.listing(range(1, certificate.n + 1)):
            report.text(f"  {list(support)}: {rules[first]}")
    return report.emit("certified")


def _cmd_verdict(args, seed, report: _Report) -> int:
    from .factoriality import (UFD, ExchangeIdeals, Inconclusive, NotUFD,
                               ufd_verdict)
    ideals = ExchangeIdeals(seed.matrix, seed.field)
    verdict = ufd_verdict(ideals, degree_bound=args.bound,
                          budget=_positive(args.budget, "--budget"))
    report.set("field", seed.field.value)
    if isinstance(verdict, UFD):
        certificate = verdict.certificate
        _set_cover(report, certificate)
        report.set("cross_checked_bound", verdict.cross_checked_bound)
        report.text(f"UFD: certificate covers {(1 << certificate.n) - 1} "
                    f"supports, cross-checked to weight "
                    f"{verdict.cross_checked_bound}")
        if verdict.notes:
            report.set("notes", verdict.notes)
            report.text(f"note: {verdict.notes}")
        return report.emit("UFD")
    if isinstance(verdict, NotUFD):
        report.set("witness", verdict.witness.to_json())
        report.text(f"not a UFD: {verdict.witness}")
        return report.emit("NotUFD")
    assert isinstance(verdict, Inconclusive)
    stuck = [list(s) for s in verdict.stuck_supports]
    report.set("reason", verdict.reason)
    report.set("stuck_supports", stuck)
    report.set("verified_bound", verdict.verified_bound)
    report.text(f"inconclusive: {verdict.reason}")
    if stuck:
        report.text(f"stuck at supports {stuck}")
    report.text(f"direct checks verified all weights <= {verdict.verified_bound}")
    return report.emit("Inconclusive")


def _cmd_member(args, seed, report: _Report) -> int:
    from .factoriality import ExchangeIdeals, Uncertified, algebra_membership
    from .parse import parse_expression
    ideals = ExchangeIdeals(seed.matrix, seed.field)
    value = parse_expression(args.expr, seed.matrix.m, seed.field)
    try:
        member = algebra_membership(ideals, value)
    except Uncertified as exc:
        report.set("reason", f"{_problem(exc.args[0])}; no verified "
                             f"certificate, so the valuation test does not "
                             f"apply (use explicit Groebner product-ideal "
                             f"membership instead)")
        report.text(report.payload["reason"])
        return report.emit("inconclusive")
    report.set("expression", str(value))
    report.text(f"{value}: {'member' if member else 'not a member'}")
    return report.emit("member" if member else "non-member")


def _cmd_normal_form(args, seed, report: _Report) -> int:
    from .factoriality import ExchangeIdeals, Uncertified, normal_form_element
    from .parse import check_digits, parse_polynomial
    ideals = ExchangeIdeals(seed.matrix, seed.field)
    p = parse_polynomial(args.expr, seed.matrix.m, seed.field)
    try:
        result = normal_form_element(ideals, p)
    except Uncertified as exc:
        report.set("reason", _problem(exc.args[0]))
        report.text(report.payload["reason"])
        return report.emit("inconclusive")
    # over Q(i), dividing by the leading coefficient can double a denominator
    check_digits(result.value, 1)
    report.set("value", str(result.value))
    report.set("normal_monomial", list(result.normal_monomial))
    report.set("irreducibility", result.irreducibility)
    report.text(f"normal form: {result.value}")
    report.text(f"normal monomial exponents: {list(result.normal_monomial)}")
    report.text(f"irreducibility: {result.irreducibility}")
    return report.emit("ok")


def _cmd_hypersurface(args, report: _Report) -> int:
    from .cluster import hypersurface_relation_check
    holds = hypersurface_relation_check(args.n)
    report.set("n", args.n)
    report.text(f"hypersurface relation for n = {args.n}: "
                f"{'holds' if holds else 'FAILS'}")
    return report.emit("holds" if holds else "fails")


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a single JSON report")

    budgeted = argparse.ArgumentParser(add_help=False)
    budgeted.add_argument("--budget", type=int, default=None, metavar="N",
                          help="Groebner pair-reduction budget")

    seedful = argparse.ArgumentParser(add_help=False)
    seedful.add_argument("--field", choices=["Q", "Qi"],
                         help="coefficient field (default Q; must match seed files)")
    group = seedful.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", metavar="FILE", help="seed JSON file")
    group.add_argument("--builtin", metavar="NAME",
                       help="builtin seed, e.g. A:4, D:5, E:6, rank2:2,3, "
                            "kronecker, cyclicA3")

    max_seeds_help = ("expand at most N seeds (default %(default)s); the "
                      "reported seed count is every distinct seed found, "
                      "so it can exceed N")

    parser = argparse.ArgumentParser(
        prog="clusterufd",
        description="Exact unique-factorization analysis for cluster seeds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", parents=[common, seedful],
                       help="apply a mutation sequence to a seed")
    p.add_argument("--sequence", required=True, metavar="K1,K2,...",
                   help="mutation indices, applied left to right")
    p.set_defaults(handler=_cmd_mutate)

    p = sub.add_parser("exchange-polys", parents=[common, seedful],
                       help="list the exchange polynomials f_1..f_n")
    p.set_defaults(handler=_cmd_exchange_polys)

    p = sub.add_parser("structure", parents=[common, seedful],
                       help="symmetrizer, connectivity, acyclicity, sources/sinks")
    p.set_defaults(handler=_cmd_structure)

    p = sub.add_parser("enumerate", parents=[common, seedful],
                       help="enumerate cluster variables up to a seed budget")
    p.add_argument("--max-seeds", type=int, default=10_000, metavar="N",
                   help=max_seeds_help)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("verify-laurent", parents=[common, seedful],
                       help="check enumerated variables are integer Laurent")
    p.add_argument("--max-seeds", type=int, default=1_000, metavar="N",
                   help=max_seeds_help)
    p.set_defaults(handler=_cmd_verify_laurent)

    p = sub.add_parser("check-conjecture", parents=[common, seedful, budgeted],
                       help="compare products of ideal powers with intersections")
    p.add_argument("--index", metavar="A1,...,AN",
                   help="a single multi-index to check")
    p.add_argument("--max-total-degree", type=int, metavar="D",
                   help="check every multi-index of weight 1..D")
    p.add_argument("--override-assumptions", action="store_true",
                   help="probe even when the standing assumptions fail")
    p.set_defaults(handler=_cmd_check_conjecture)

    p = sub.add_parser("prove-ufd", parents=[common, seedful],
                       help="necessary conditions plus the certificate search")
    p.set_defaults(handler=_cmd_prove_ufd)

    p = sub.add_parser("verdict", parents=[common, seedful, budgeted],
                       help="full pipeline with conjecture cross-validation")
    p.add_argument("--bound", type=int, default=3, metavar="D",
                   help="cross-check weight bound (default 3)")
    p.set_defaults(handler=_cmd_verdict)

    p = sub.add_parser("member", parents=[common, seedful],
                       help="decide cluster-algebra membership of a Laurent value")
    p.add_argument("--expr", required=True, metavar="EXPR")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("normal-form", parents=[common, seedful],
                       help="canonical Laurent form P / M(P) of an irreducible")
    p.add_argument("--expr", required=True, metavar="EXPR")
    p.set_defaults(handler=_cmd_normal_form)

    p = sub.add_parser("hypersurface", parents=[common],
                       help="verify the once-mutated hypersurface relation")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_hypersurface)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit status 2 for usage errors; our contract says 3
        return 0 if exc.code == 0 else EXIT_CODES["error"]
    report = _Report(args.command, args.json)
    try:
        if not hasattr(args, "builtin"):  # hypersurface reads no seed
            return args.handler(args, report)
        return args.handler(args, _load_seed(args), report)
    except ValueError as exc:  # ParseError included
        return _emit_error(args.command, args.json, str(exc))
    except Exception as exc:
        # anything else is a bug (ConsistencyError, LaurentViolation, an
        # escaped BudgetExceeded, ...); exit 1 would read as "refuted"
        import traceback
        code = _emit_error(args.command, args.json,
                           f"{type(exc).__name__}: {exc}",
                           verdict="internal-error")
        traceback.print_exc()
        return code


def entrypoint():
    """Run ``main`` as a process: flush the report, then end at once.

    The report is complete once both streams are flushed, so the process
    skips interpreter teardown (a final garbage collection and the clearing
    of every module): no ``atexit`` handler runs.  An exception that escapes
    ``main`` ends the process the usual way.  As at interpreter exit, a
    reader that closed standard error does not change the exit code."""
    code = main(sys.argv[1:])
    _write()
    try:
        sys.stderr.flush()
    except OSError:
        pass
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
