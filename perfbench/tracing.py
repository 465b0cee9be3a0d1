"""Span tracing of the program's layers, from wrappers the benchmark installs.

``Tracer.install`` replaces public functions and methods of ``cli``,
``parse``, ``cluster``, ``poly``, ``fields``, ``groebner`` and
``factoriality`` with wrappers that record one span per call (name, start,
end, parent span, command id) in flat arrays.  A function is replaced in
every module namespace that holds it, so a caller that imported it by name
(``from .groebner import normal_form``) is traced too.  ``uninstall`` puts
the originals back.  Hot scalar operations get count-only wrappers.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.outer = array("b")        # no open span of the same name
        self.layer_outer = array("b")  # no open span of the same layer
        self.stack: list[int] = []
        self.depth: Counter = Counter()        # open spans per name
        self.layer_depth: Counter = Counter()  # open spans per layer
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.cmd_id = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None, on_error=None):
        """A wrapper recording a span per call; hooks see the tracer state
        (with the span already closed) and the call's arguments."""
        nid = self._id(name)
        layer = name.split(".")[0]
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer.stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.cmd.append(tracer.cmd_id)
            depth = tracer.depth[nid]
            tracer.outer.append(depth == 0)
            layer_depth = tracer.layer_depth[layer]
            tracer.layer_outer.append(layer_depth == 0)
            tracer.depth[nid] = depth + 1
            tracer.layer_depth[layer] = layer_depth + 1
            stack.append(idx)
            tracer.end.append(0.0)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc, perf_counter() - tracer.start[idx])
                raise
            finally:
                tracer.end[idx] = perf_counter()
                stack.pop()
                tracer.depth[nid] = depth
                tracer.layer_depth[layer] = layer_depth
            if after is not None:
                after(tracer, result, args, tracer.end[idx] - tracer.start[idx])
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        """A wrapper that only counts calls, for operations too small to time."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ------------------------------------------------------------

    def patch_function(self, package: str, original, wrapper):
        """Replace ``original`` in every module of the package that holds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package
                                      or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, name: str, make):
        """Replace a method and each alias of it (``__rmul__ = __mul__``)."""
        original = cls.__dict__[name]
        wrapper = make(original)
        for attr, value in list(vars(cls).items()):
            if value is original:
                self._undo.append((cls, attr, original))
                setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                out[par] -= self.end[idx] - self.start[idx]
        return out

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy (outermost spans only) and self time."""
        selfs = self.self_times()
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        layers: Counter = Counter()
        for idx, nid in enumerate(self.name):
            row = out[self.names[nid]]
            duration = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["self_s"] += selfs[idx]
            if self.outer[idx]:
                row["busy_s"] += duration
            if self.layer_outer[idx]:
                layers[self.names[nid].split(".")[0]] += duration
        for layer, busy in layers.items():
            out[layer] = {"busy_s": busy}
        return out

    def write(self, path: str):
        """All spans as tab-separated lines: id, name, start, end, parent, command."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tcommand\n")
            for idx, nid in enumerate(self.name):
                fh.write(f"{idx}\t{self.names[nid]}\t{self.start[idx]:.9f}\t"
                         f"{self.end[idx]:.9f}\t{self.parent[idx]}\t{self.cmd[idx]}\n")


# -- what is traced in clusterufd --------------------------------------------

def _after_enumerate(tracer, result, args, duration):
    tracer.counts["cluster.enumerate.seeds"] += result.seeds_seen
    tracer.counts["cluster.enumerate.new_seeds"] += result.seeds_seen - 1


def _coeff_bits(c) -> int:
    parts = (c.re, c.im) if hasattr(c, "im") else (c,)
    return max(max(abs(p.numerator).bit_length(), p.denominator.bit_length())
               for p in parts)


def _after_mutate(tracer, result, args, duration):
    entry = result.cluster[args[1] - 1]
    terms = entry.num.terms
    maxima = tracer.maxima
    maxima["cluster.max_terms"] = max(maxima["cluster.max_terms"], len(terms))
    bits = max(_coeff_bits(c) for c in terms.values())
    maxima["cluster.max_coeff_bits"] = max(maxima["cluster.max_coeff_bits"], bits)
    if tracer.depth[tracer._id("cluster.enumerate")]:
        tracer.counts["cluster.enumerate.mutate_calls"] += 1


def _after_divide(tracer, result, args, duration):
    if result is not None:
        tracer.counts["poly.divide_exact.exact"] += 1


def _buchberger_time(tracer, duration):
    if tracer.depth[tracer._id("groebner.intersection")]:
        tracer.counts["groebner.intersection.busy_s"] += duration
    else:
        tracer.counts["groebner.product_basis.busy_s"] += duration


def _after_buchberger(tracer, result, args, duration):
    maxima = tracer.maxima
    maxima["groebner.buchberger.input_gens_max"] = max(
        maxima["groebner.buchberger.input_gens_max"], len(args[0]))
    maxima["groebner.basis_max"] = max(maxima["groebner.basis_max"], len(result))
    tracer.counts["groebner.basis_sum"] += len(result)
    _buchberger_time(tracer, duration)


def _error_buchberger(tracer, exc, duration):
    if type(exc).__name__ == "BudgetExceeded":
        tracer.counts["groebner.budget_exceeded"] += 1
    _buchberger_time(tracer, duration)


def _after_conjecture(tracer, result, args, duration):
    tracer.counts[f"factoriality.conjecture_check.{result.status}"] += 1
    if sum(1 for a in args[1] if a > 0) >= 2:
        tracer.counts["factoriality.conjecture_check.multi_active"] += 1


def _after_prover(tracer, result, args, duration):
    covered = len(result.certificate) if result.certificate is not None else 0
    tracer.counts["factoriality.prover.supports"] += covered + len(result.stuck_supports)


def install(tracer: Tracer):
    """Wrap the public functions of every layer of the imported package."""
    from clusterufd import cli, cluster, factoriality, fields, groebner, parse, poly

    def function(module, attr, name, **hooks):
        original = getattr(module, attr)
        tracer.patch_function("clusterufd", original,
                              tracer.wrap(name, original, **hooks))

    def method(cls, attr, name, **hooks):
        tracer.patch_method(cls, attr, lambda fn: tracer.wrap(name, fn, **hooks))

    method(cli._Report, "emit", "cli.render")
    function(cli, "main", "cli.main")
    function(parse, "parse_expression", "parse.expression")
    function(parse, "parse_polynomial", "parse.polynomial")

    method(cluster.Seed, "mutate", "cluster.mutate", after=_after_mutate)
    function(cluster, "enumerate_cluster_variables", "cluster.enumerate",
             after=_after_enumerate)
    for attr in ("neighbors", "is_source", "is_sink"):
        method(cluster.ExchangeMatrix, attr, "cluster.matrix_query")
    function(cluster, "structure_report", "cluster.matrix_query")

    method(poly.Polynomial, "__mul__", "poly.mul")
    for attr in ("__add__", "__sub__", "__mul__", "__truediv__", "__pow__"):
        method(poly.LaurentPolynomial, attr, "poly.laurent")
    function(poly, "divide_exact", "poly.divide_exact", after=_after_divide)
    tracer.patch_method(poly.MonomialOrder, "key",
                        lambda fn: tracer.count("poly.order_key.calls", fn))
    for attr in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
                 "__rtruediv__", "__neg__", "__pow__"):
        tracer.patch_method(fields.GaussianRational, attr,
                            lambda fn: tracer.count("fields.gaussian_ops", fn))

    function(groebner, "buchberger", "groebner.buchberger",
             after=_after_buchberger, on_error=_error_buchberger)
    function(groebner, "ideal_intersection", "groebner.intersection")
    function(groebner, "ideal_intersection_many", "groebner.intersection")
    function(groebner, "normal_form", "groebner.normal_form")
    function(groebner, "ideal_product", "groebner.product")
    method(groebner.Ideal, "groebner_basis", "groebner.basis")

    function(factoriality, "conjecture_check", "factoriality.conjecture_check",
             after=_after_conjecture)
    method(factoriality.ExchangeIdeals, "power_membership",
           "factoriality.power_membership")
    function(factoriality, "inductive_prover", "factoriality.prover",
             after=_after_prover)
    method(factoriality.SupportCertificate, "verify", "factoriality.verify")
    function(factoriality, "necessary_conditions", "factoriality.necessary")
    function(factoriality, "brute_force_factor", "factoriality.factor_oracle")


def layer_metrics(tracer: Tracer, elapsed: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass that took ``elapsed`` seconds."""
    s = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def get(name, field):
        return s.get(name, empty).get(field, 0)

    c, mx = tracer.counts, tracer.maxima

    def ratio(num, den):
        return num / den if den else 0.0

    checks = c["factoriality.conjecture_check.holds"] + c[
        "factoriality.conjecture_check.fails"] + c["factoriality.conjecture_check.inconclusive"]
    return {
        "cli.render.self_s": get("cli.render", "self_s"),
        "parse.calls": get("parse.expression", "calls") + get("parse.polynomial", "calls"),
        "parse.busy_s": s.get("parse", {}).get("busy_s", 0.0),
        "cluster.mutate.calls": get("cluster.mutate", "calls"),
        "cluster.mutate.self_s": get("cluster.mutate", "self_s"),
        "cluster.enumerate.seeds": c["cluster.enumerate.seeds"],
        "cluster.enumerate.new_seed_ratio": ratio(c["cluster.enumerate.new_seeds"],
                                                  c["cluster.enumerate.mutate_calls"]),
        "cluster.max_terms": mx["cluster.max_terms"],
        "cluster.max_coeff_bits": mx["cluster.max_coeff_bits"],
        "cluster.matrix_query.calls": get("cluster.matrix_query", "calls"),
        "cluster.matrix_query.busy_s": get("cluster.matrix_query", "busy_s"),
        "poly.mul.calls": get("poly.mul", "calls"),
        "poly.mul.busy_s": get("poly.mul", "busy_s"),
        "poly.laurent.busy_s": get("poly.laurent", "busy_s"),
        "poly.divide_exact.calls": get("poly.divide_exact", "calls"),
        "poly.divide_exact.busy_s": get("poly.divide_exact", "busy_s"),
        "poly.divide_exact.exact_ratio": ratio(c["poly.divide_exact.exact"],
                                               get("poly.divide_exact", "calls")),
        "poly.order_key.calls": c["poly.order_key.calls"],
        "fields.gaussian_ops": c["fields.gaussian_ops"],
        "groebner.buchberger.calls": get("groebner.buchberger", "calls"),
        "groebner.buchberger.busy_s": get("groebner.buchberger", "busy_s"),
        "groebner.buchberger.input_gens_max": mx["groebner.buchberger.input_gens_max"],
        "groebner.basis_max": mx["groebner.basis_max"],
        "groebner.basis_sum": c["groebner.basis_sum"],
        "groebner.intersection.busy_s": c["groebner.intersection.busy_s"],
        "groebner.product_basis.busy_s": c["groebner.product_basis.busy_s"],
        "groebner.normal_form.calls": get("groebner.normal_form", "calls"),
        "groebner.normal_form.busy_s": get("groebner.normal_form", "busy_s"),
        "groebner.budget_exceeded": c["groebner.budget_exceeded"],
        "groebner.busy_share": ratio(s.get("groebner", {}).get("busy_s", 0.0), elapsed),
        "factoriality.conjecture_check.calls": get("factoriality.conjecture_check", "calls"),
        "factoriality.conjecture_check.busy_s": get("factoriality.conjecture_check", "busy_s"),
        "factoriality.conjecture_check.holds": c["factoriality.conjecture_check.holds"],
        "factoriality.conjecture_check.fails": c["factoriality.conjecture_check.fails"],
        "factoriality.conjecture_check.inconclusive":
            c["factoriality.conjecture_check.inconclusive"],
        "factoriality.conjecture_check.gb_share":
            ratio(c["factoriality.conjecture_check.multi_active"], checks),
        "factoriality.power_membership.calls": get("factoriality.power_membership", "calls"),
        "factoriality.power_membership.busy_s": get("factoriality.power_membership", "busy_s"),
        "factoriality.prover.busy_s": get("factoriality.prover", "busy_s"),
        "factoriality.prover.supports": c["factoriality.prover.supports"],
        "factoriality.verify.busy_s": get("factoriality.verify", "busy_s"),
        "factoriality.necessary.busy_s": get("factoriality.necessary", "busy_s"),
        "factoriality.factor_oracle.calls": get("factoriality.factor_oracle", "calls"),
        "factoriality.factor_oracle.busy_s": get("factoriality.factor_oracle", "busy_s"),
        "trace.spans": len(tracer.start),
    }


EXTRA_METRICS = ("cli.import_s", "cli.sympy_at_import", "cli.output_bytes",
                 "inprocess_s", "trace.overhead_ratio", "checks.error_rate")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share", "error_rate")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("bits"):
        return "bits"
    if name == "cli.sympy_at_import":
        return "bool"
    return "count"
