"""Exact tools for seed mutation and unique-factorization verdicts in
acyclic cluster algebras."""

from .cluster import (EnumerationResult, ExchangeMatrix, LaurentViolation,
                      Seed, StructureReport, builtin_matrix, builtin_seed,
                      cyclic_a3_matrix, d_matrix, e_matrix,
                      enumerate_cluster_variables, exchange_polynomial,
                      find_skew_symmetrizer, hypersurface_relation,
                      hypersurface_relation_check, kronecker_matrix,
                      linear_a_matrix, load_seed_file, rank2_matrix,
                      seed_from_dict, structure_report,
                      verify_laurent_property)
from .factoriality import (CoincidentExchangePolynomials, ConjectureOutcome,
                           ConsistencyError, ExchangeIdeals,
                           FactorSearchResult, FreeIndex, FreeVariable,
                           Inconclusive, NormalFormResult, NotUFD,
                           ProverResult, ReducibleExchangePolynomial,
                           SinkSourceSplit, SupportCertificate, UFD,
                           algebra_membership, binomial_irreducible,
                           binomial_witness_factors, brute_force_factor,
                           check_assumptions, conjecture_check,
                           conjecture_sweep, necessary_conditions,
                           inductive_prover, multi_indices_of_weight,
                           normal_form_element, ufd_verdict)
from .fields import FieldTag, GaussianRational, conjugate
from .groebner import (BudgetExceeded, DEFAULT_BUDGET, GroebnerBasis,
                       GroebnerBudget, Ideal, buchberger, ideal_intersection,
                       ideal_intersection_many, ideal_membership,
                       ideal_product, normal_form)
from .parse import ParseError, parse_expression, parse_polynomial
from .poly import (LaurentPolynomial, MonomialOrder, Polynomial, divide_exact,
                   elimination_order, grevlex_order, lex_order,
                   render_laurent, render_polynomial)

__version__ = "0.1.0"
