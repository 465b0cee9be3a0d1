"""Exact tools for seed mutation and unique-factorization verdicts in
acyclic cluster algebras.

The public names below are loaded from their submodule on first access
(PEP 562), so importing the package, or one submodule such as ``cli``,
loads no layer it does not use.  Nothing is cached here: every access
reads the submodule's current binding.
"""
from importlib import import_module

_EXPORTS = {
    "cluster": (
        "EnumerationResult", "ExchangeMatrix", "LaurentViolation", "Seed",
        "StructureReport", "builtin_matrix", "builtin_seed",
        "cyclic_a3_matrix", "d_matrix", "e_matrix",
        "enumerate_cluster_variables", "exchange_polynomial",
        "find_skew_symmetrizer", "hypersurface_relation_check",
        "kronecker_matrix", "linear_a_matrix",
        "load_seed_file", "rank2_matrix", "seed_from_dict",
        "structure_report", "verify_laurent_property"),
    "factoriality": (
        "CoincidentExchangePolynomials", "ConjectureOutcome",
        "ConsistencyError", "ExchangeIdeals", "FreeIndex", "FreeVariable",
        "Inconclusive", "NormalFormResult", "NotUFD", "ProverResult",
        "ReducibleExchangePolynomial", "SinkSourceSplit", "SupportCertificate",
        "UFD", "Uncertified", "algebra_membership",
        "binomial_irreducible", "binomial_witness_factors",
        "brute_force_factor", "certify", "conjecture_check",
        "conjecture_sweep", "gate", "necessary_conditions",
        "inductive_prover", "multi_indices_of_weight", "normal_form_element",
        "ufd_verdict"),
    "fields": ("FieldTag", "GaussianRational"),
    "groebner": (
        "BudgetExceeded", "DEFAULT_BUDGET", "GroebnerBasis", "Ideal",
        "buchberger", "ideal_intersection", "ideal_intersection_many",
        "ideal_product", "normal_form"),
    "parse": ("ParseError", "parse_expression", "parse_polynomial"),
    "poly": (
        "ELIMINATE_LAST", "GREVLEX", "LaurentPolynomial", "MonomialOrder",
        "Polynomial", "divide_exact", "render_laurent", "render_polynomial"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *_MODULE_OF])
