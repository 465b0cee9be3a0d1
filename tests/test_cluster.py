"""Exchange matrices, seed mutation, enumeration, structure analysis.

Frozen counts below have two independent confirmations: variable counts
equal (number of positive roots) + n for the finite types, and seed counts
match the generalized Catalan numbers (A3: 14, A4: 42, D4: 50, D5: 182).
"""
from __future__ import annotations

import json
import random
from itertools import islice

import pytest

from conftest import random_acyclic_seed, random_skew_symmetrizable
from oracles import (enumerate_every_direction, every_direction_search,
                     hypersurface_relation)
from clusterufd.fields import FieldTag
from clusterufd.parse import parse_expression
from clusterufd.poly import (LaurentPolynomial, MonomialOrder, Polynomial,
                             render_laurent)
from clusterufd import cluster
from clusterufd.cluster import (
    ExchangeMatrix,
    LaurentViolation,
    Seed,
    builtin_matrix,
    builtin_seed,
    cyclic_a3_matrix,
    d_matrix,
    e_matrix,
    enumerate_cluster_variables,
    exchange_polynomial,
    find_skew_symmetrizer,
    hypersurface_relation_check,
    is_acyclic,
    kronecker_matrix,
    linear_a_matrix,
    load_seed_file,
    rank2_matrix,
    seed_from_dict,
    structure_report,
    verify_laurent_property,
)

Q = FieldTag.Q


def L(text: str, m: int = 2) -> LaurentPolynomial:
    return parse_expression(text, m, Q)


class TestSkewSymmetrizer:
    def test_skew_symmetric_gets_ones(self):
        d, refutation = find_skew_symmetrizer([[0, 1, 0], [-1, 0, 1], [0, -1, 0]])
        assert refutation is None and d == (1, 1, 1)

    def test_type_b_weights(self):
        d, refutation = find_skew_symmetrizer([[0, 1], [-2, 0]])
        assert refutation is None and d == (2, 1)

    def test_zero_matrix(self):
        d, refutation = find_skew_symmetrizer([[0, 0], [0, 0]])
        assert refutation is None and d == (1, 1)

    def test_sign_violation_refuted(self):
        d, refutation = find_skew_symmetrizer([[0, 1], [1, 0]])
        assert d is None and refutation is not None

    def test_cycle_inconsistency_refuted(self):
        # Tree edges force d = (2, 1, 2) but the back edge 2-3 needs
        # d2*b23 = -d3*b32, i.e. 1 = -2*(-1) = 2.  No symmetrizer exists.
        d, refutation = find_skew_symmetrizer(
            [[0, 1, -1], [-2, 0, 1], [1, -1, 0]])
        assert d is None and refutation is not None

    def test_components_scaled_independently(self):
        d, refutation = find_skew_symmetrizer(
            [[0, 1, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 3], [0, 0, -1, 0]])
        assert refutation is None and d == (2, 1, 1, 3)

    def test_minimality(self):
        d, _ = find_skew_symmetrizer([[0, 2], [-2, 0]])
        assert d == (1, 1)


class TestExchangeMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExchangeMatrix([])
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1]])                    # more columns than rows
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1], [1, 0]])            # not skew-symmetrizable
        with pytest.raises(ValueError) as err:
            ExchangeMatrix([[0, True], [-1, 0]])
        assert "matrix[0][1]" in str(err.value)
        with pytest.raises(ValueError):
            ExchangeMatrix([[0, 1], [-1]])

    @pytest.mark.parametrize("rows, message", [
        ([[1]], "principal part is not skew-symmetrizable: diagonal entry "
                "b[1][1] = 1 is nonzero"),
        ([[], []], "matrix needs at least one column")])
    def test_validation_messages(self, rows, message):
        with pytest.raises(ValueError) as err:
            ExchangeMatrix(rows)
        assert str(err.value) == message

    def test_accessors(self):
        mat = ExchangeMatrix([[0, 1], [-1, 0], [2, -3]])
        assert (mat.n, mat.m) == (2, 3)
        assert mat.rows[2][0] == 2
        assert mat.column(2) == (1, 0, -3)
        assert mat.principal() == ((0, 1), (-1, 0))

    def test_mutation_example_interior(self):
        # A3, mutating the middle vertex turns the path into a 3-cycle.
        assert linear_a_matrix(3).mutate(2).rows \
            == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))

    def test_mutation_example_rank2(self):
        assert kronecker_matrix().mutate(1).rows == ((0, -2), (2, 0))

    def test_mutation_updates_frozen_rows(self):
        mat = ExchangeMatrix([[0, 1], [-1, 0], [1, 0]])
        assert mat.mutate(1).rows == ((0, -1), (1, 0), (-1, 1))

    def test_mutation_index_range(self):
        with pytest.raises(ValueError):
            linear_a_matrix(2).mutate(0)
        with pytest.raises(ValueError):
            linear_a_matrix(2).mutate(3)    # frozen rows are not mutable

    def test_mutation_matches_entrywise_formula(self):
        rng = random.Random(127)
        for _ in range(300):
            n = rng.randint(1, 6)
            mat = ExchangeMatrix(
                random_skew_symmetrizable(rng, n, frozen=rng.randint(0, 3)))
            k = rng.randint(1, n)
            b = mat.rows
            expected = tuple(
                tuple(-b[i][j] if k - 1 in (i, j) else
                      b[i][j] + (abs(b[i][k - 1]) * b[k - 1][j]
                                 + b[i][k - 1] * abs(b[k - 1][j])) // 2
                      for j in range(n))
                for i in range(mat.m))
            assert mat.mutate(k).rows == expected, (b, k)

    def test_mutation_is_involution(self):
        rng = random.Random(97)
        for _ in range(100):
            n = rng.randint(1, 5)
            mat = ExchangeMatrix(
                random_skew_symmetrizable(rng, n, frozen=rng.randint(0, 2)))
            k = rng.randint(1, n)
            assert mat.mutate(k).mutate(k) == mat

    def test_mutation_preserves_symmetrizer(self):
        # For a connected principal part the minimal symmetrizer is unique,
        # and matrix mutation must not change it.
        for name in ("A:3", "rank2:1,2", "rank2:2,3", "D:4"):
            mat = builtin_matrix(name)
            d0 = structure_report(mat).skew_symmetrizer
            rng = random.Random(101)
            for _ in range(20):
                mat = mat.mutate(rng.randint(1, mat.n))
                assert structure_report(mat).skew_symmetrizer == d0

    def test_mutation_preserves_connectivity(self):
        rng = random.Random(103)
        for _ in range(50):
            mat = ExchangeMatrix(random_skew_symmetrizable(rng, 4))
            connected = structure_report(mat).connected
            for _ in range(6):
                mat = mat.mutate(rng.randint(1, 4))
                assert structure_report(mat).connected == connected


class TestExchangePolynomials:
    def test_path_quiver(self):
        mat = linear_a_matrix(3)
        assert str(exchange_polynomial(mat, 1, Q)) == "x2 + 1"
        assert str(exchange_polynomial(mat, 2, Q)) == "x1 + x3"
        assert str(exchange_polynomial(mat, 3, Q)) == "x2 + 1"

    def test_isolated_vertex(self):
        assert str(exchange_polynomial(linear_a_matrix(1), 1, Q)) == "2"

    def test_column_index_range(self):
        with pytest.raises(ValueError) as err:
            exchange_polynomial(linear_a_matrix(2), 3, Q)
        assert str(err.value) == "column index 3 outside 1..2"

    def test_rank2_weights(self):
        mat = rank2_matrix(2, 3)
        assert str(exchange_polynomial(mat, 1, Q)) == "x2^3 + 1"
        assert str(exchange_polynomial(mat, 2, Q)) == "x1^2 + 1"

    def test_branch_vertex(self):
        assert str(exchange_polynomial(e_matrix(6), 3, Q)) == "x2*x5 + x4"

    def test_frozen_rows_contribute(self):
        mat = ExchangeMatrix([[0, 1], [-1, 0], [1, 0]])
        assert str(exchange_polynomial(mat, 1, Q)) == "x2 + x3"

    def test_always_a_unit_binomial(self):
        rng = random.Random(107)
        for _ in range(40):
            mat = ExchangeMatrix(
                random_skew_symmetrizable(rng, 3, frozen=rng.randint(0, 2)))
            for j in range(1, 4):
                f = exchange_polynomial(mat, j, Q)
                assert f.degree_in(j) == 0
                if not any(mat.column(j)):
                    assert f == 2 * Polynomial.one(mat.m, Q)
                    continue
                assert len(f.terms) == 2
                assert all(c == 1 for c in f.terms.values())
                supports = [
                    {p for p, e in enumerate(exp) if e} for exp in f.terms]
                assert supports[0].isdisjoint(supports[1])


class TestSeedMutation:
    def test_cluster_size_checked(self):
        seed = builtin_seed("A:2")
        with pytest.raises(ValueError) as err:
            Seed(seed.matrix, seed.cluster[:1], seed.field)
        assert str(err.value) == "cluster has 1 entries, expected 2"

    def test_short_type_a_chain(self):
        seed = builtin_seed("A:2")
        s1 = seed.mutate(1)
        assert render_laurent(s1.cluster[0]) == "(x2 + 1)/x1"
        s12 = s1.mutate(2)
        assert render_laurent(s12.cluster[1]) == "(x1 + x2 + 1)/(x1*x2)"

    def test_pentagon_periodicity(self):
        seed = builtin_seed("A:2")
        s5 = seed.mutate_sequence([1, 2, 1, 2, 1])
        assert [render_laurent(v) for v in s5.cluster] == ["x2", "x1"]
        assert s5.matrix.rows == ((0, -1), (1, 0))
        s10 = s5.mutate_sequence([2, 1, 2, 1, 2])
        assert s10.cluster == seed.cluster and s10.matrix == seed.matrix

    def test_sequence_applies_left_to_right(self):
        seed = builtin_seed("A:3")
        assert seed.mutate_sequence([1, 2]).cluster \
            == seed.mutate(1).mutate(2).cluster

    def test_involution_on_seeds(self):
        seed = builtin_seed("D:4")
        rng = random.Random(109)
        for _ in range(8):
            prefix = [rng.randint(1, 4) for _ in range(rng.randint(0, 4))]
            s = seed.mutate_sequence(prefix)
            k = rng.randint(1, 4)
            back = s.mutate(k).mutate(k)
            assert back.cluster == s.cluster and back.matrix == s.matrix

    def test_frozen_variables_stay_in_numerators(self):
        seed = Seed.initial(ExchangeMatrix([[0, 1], [-1, 0], [1, 1]]))
        s1 = seed.mutate(1)
        assert render_laurent(s1.cluster[0]) == "(x2 + x3)/x1"
        assert s1.cluster[2] == LaurentPolynomial.variable(3, 3, Q)
        with pytest.raises(ValueError):
            seed.mutate(3)

    def test_laurent_phenomenon_randomized(self):
        rng = random.Random(113)
        for name in ("A:3", "D:4"):
            seed = builtin_seed(name)
            for _ in range(12):
                length = rng.randint(1, 7)
                s = seed.mutate_sequence(
                    rng.randint(1, seed.matrix.n) for _ in range(length))
                for entry in s.cluster:
                    for coeff in entry.num.terms.values():
                        assert Q.is_integer_scalar(coeff)

    def test_non_laurent_quotient_raises(self):
        seed = Seed(linear_a_matrix(2), [L("x1 + x2"), L("x2")], Q)
        with pytest.raises(LaurentViolation) as err:
            seed.mutate(1)
        assert str(err.value) == ("exchange quotient is not Laurent: "
                                  "x1 + x2 does not divide x2 + 1")

    def test_frozen_denominator_raises(self):
        matrix = ExchangeMatrix([[0, 1], [-1, 0], [1, 0]])
        seed = Seed(matrix, [L("x1*x3", 3), L("x2", 3), L("x3", 3)], Q)
        with pytest.raises(LaurentViolation) as err:
            seed.mutate(1)
        assert str(err.value) == ("mutated entry (x2 + x3)/(x1*x3) has a "
                                  "frozen variable in its denominator")

    def test_dedup_key_ignores_order(self):
        # After five alternating flips the cluster is (x2, x1): a different
        # seed object carrying the same unordered cluster.
        seed = builtin_seed("A:2")
        s5 = seed.mutate_sequence([1, 2, 1, 2, 1])
        assert s5.cluster != seed.cluster
        assert s5.dedup_key() == seed.dedup_key()


class TestStructure:
    def test_path_report(self):
        report = structure_report(linear_a_matrix(3))
        assert report.sources == (1,)
        assert report.sinks == (3,)
        assert report.acyclic and report.connected
        assert report.skew_symmetrizer == (1, 1, 1)
        assert report.neighbors == ((2,), (1, 3), (2,))

    def test_cycle_not_acyclic(self):
        report = structure_report(cyclic_a3_matrix())
        assert not report.acyclic
        assert report.sources == () and report.sinks == ()

    def test_branching_types(self):
        report = structure_report(e_matrix(6))
        assert report.sources == (1, 6)
        assert report.sinks == (4,)
        report = structure_report(d_matrix(4))
        assert set(report.neighbors[1]) == {1, 3, 4}

    def test_frozen_rows_can_block_source_status(self):
        # Vertex 1 has only outgoing arrows among mutable vertices but an
        # incoming arrow from the frozen vertex 3, so it is neither a source
        # nor a sink under the full-column convention.
        report = structure_report(ExchangeMatrix([[0, 1], [-1, 0], [1, 0]]))
        assert report.sources == ()
        assert report.sinks == (2,)

    def test_disconnected(self):
        report = structure_report(
            ExchangeMatrix([[0, 0], [0, 0]]))
        assert not report.connected

    def test_acyclic_against_transitive_closure(self):
        """``is_acyclic`` against a cycle oracle: the transitive closure of
        the arrows i -> j (b_ij > 0 among mutable indices), by Warshall's
        algorithm, has no loop.  Frozen rows carry no arrow of the quiver."""
        rng = random.Random(107)
        draws, cyclic = 600, 0
        for _ in range(draws):
            n = rng.randint(1, 7)
            rows = random_skew_symmetrizable(rng, n, frozen=rng.randint(0, 2))
            reach = [[rows[i][j] > 0 for j in range(n)] for i in range(n)]
            for k in range(n):
                for i in range(n):
                    if reach[i][k]:
                        reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
            has_cycle = any(reach[i][i] for i in range(n))
            cyclic += has_cycle
            assert is_acyclic(ExchangeMatrix(rows)) == (not has_cycle), rows
        assert 0 < cyclic < draws


class TestEnumeration:
    @pytest.mark.parametrize("name,variables,seeds", [
        ("A:2", 5, 5),
        ("A:3", 9, 14),
        ("A:4", 14, 42),
        ("D:4", 16, 50),
        ("D:5", 25, 182),
        ("cyclicA3", 9, 14),
    ])
    def test_finite_type_counts(self, monkeypatch, name, variables, seeds):
        calls = []
        mutate = Seed.mutate

        def counted_mutate(seed, k, *rest):
            calls.append(k)
            return mutate(seed, k, *rest)

        monkeypatch.setattr(Seed, "mutate", counted_mutate)
        seed = builtin_seed(name)
        result = enumerate_cluster_variables(seed)
        assert result.complete
        assert result.count == variables
        assert result.seeds_seen == seeds
        # each of the n * seeds / 2 edges of the n-regular exchange graph
        # is mutated once
        assert len(calls) == seed.matrix.n * seeds // 2

    def test_rank1(self):
        result = enumerate_cluster_variables(builtin_seed("A:1"))
        assert result.complete and result.count == 2

    def test_infinite_type_hits_budget(self):
        result = enumerate_cluster_variables(builtin_seed("kronecker"),
                                             max_seeds=25)
        assert not result.complete
        assert result.seeds_seen >= 25
        assert result.count > 10

    def test_deterministic(self):
        a = enumerate_cluster_variables(builtin_seed("A:3"))
        b = enumerate_cluster_variables(builtin_seed("A:3"))
        assert a.variables == b.variables

    def test_variables_sorted_by_rendering(self):
        result = enumerate_cluster_variables(builtin_seed("A:2"))
        rendered = [render_laurent(v) for v in result.variables]
        assert rendered == sorted(rendered)

    def test_laurent_verification_clean(self):
        result, problems = verify_laurent_property(builtin_seed("A:3"))
        assert result.complete and problems == []


class TestBuiltins:
    def test_names(self):
        assert builtin_matrix("A:4").rows == linear_a_matrix(4).rows
        assert builtin_matrix("D:5").rows == d_matrix(5).rows
        assert builtin_matrix("E:7").rows == e_matrix(7).rows
        assert builtin_matrix("rank2:2,3").rows == rank2_matrix(2, 3).rows
        assert builtin_matrix("kronecker").rows == ((0, 2), (-2, 0))
        assert builtin_matrix("cyclicA3").rows \
            == ((0, 1, -1), (-1, 0, 1), (1, -1, 0))

    @pytest.mark.parametrize("bad", [
        "A:0", "D:3", "E:9", "E:5", "rank2:1", "rank2:0,1", "rank2:-1,2",
        "foo", "A:x", "A", ""])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            builtin_matrix(bad)

    @pytest.mark.parametrize("family", ["A", "D"])
    def test_rank_cap(self, family):
        largest = builtin_matrix(f"{family}:{cluster.MAX_ROWS}")
        assert largest.n == cluster.MAX_ROWS
        with pytest.raises(ValueError, match="above the largest builtin rank"):
            builtin_matrix(f"{family}:{cluster.MAX_ROWS + 1}")

    def test_families_are_acyclic_and_connected(self):
        for name in ("A:1", "A:6", "D:4", "D:6", "E:6", "E:7", "E:8",
                     "rank2:3,1", "kronecker"):
            report = structure_report(builtin_matrix(name))
            assert report.connected and report.acyclic, name


class TestSeedFiles:
    def good(self):
        return {"n": 2, "m": 3, "matrix": [[0, 1], [-1, 0], [1, 0]],
                "field": "Q"}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "seed.json"
        path.write_text(json.dumps(self.good()))
        seed = load_seed_file(str(path))
        assert seed.matrix.rows == ((0, 1), (-1, 0), (1, 0))
        assert seed.field is Q

    def test_field_defaults_to_q(self):
        data = self.good()
        del data["field"]
        assert seed_from_dict(data).field is Q

    def test_error_names_entry(self):
        data = self.good()
        data["matrix"][2][1] = "x"
        with pytest.raises(ValueError) as err:
            seed_from_dict(data)
        assert "matrix[2][1]" in str(err.value)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.pop("n"),
        lambda d: d.update(n="2"),
        lambda d: d.update(m=1),
        lambda d: d.update(matrix=[[0, 1], [-1, 0]]),
        lambda d: d.update(matrix=[[0, 1], [-1, 0], [1]]),
        lambda d: d.update(field="R"),
        lambda d: d.update(extra=1),
    ])
    def test_malformed_rejected(self, mutate):
        data = self.good()
        mutate(data)
        with pytest.raises(ValueError):
            seed_from_dict(data)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ValueError):
            load_seed_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(ValueError):
            load_seed_file(str(bad))

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.load raises a plain ValueError for a 5,001-digit integer; the
        # CLI reports it as an input error that names the file
        from clusterufd.cli import main
        big = tmp_path / "big.json"
        big.write_text('{"n": 2, "matrix": [[0, 1%s], [-1, 0]]}' % ("0" * 5000))
        assert main(["structure", "--seed", str(big)]) == 3
        assert str(big) in capsys.readouterr().err


class TestHypersurface:
    def test_small_cases_vanish(self):
        for n in (2, 3, 4):
            assert hypersurface_relation_check(n)

    def test_wrong_relation_fails(self, monkeypatch):
        relation = cluster._relation
        monkeypatch.setattr(cluster, "_relation",
                            lambda x1, primed: relation(x1, primed) + 1)
        assert not hypersurface_relation_check(4)

    def test_rank2_shape(self):
        rel = hypersurface_relation(2)
        assert str(rel) == "x1*x2*x3 - x1 - x3 - 1"

    def test_recursion_consistency(self):
        # P_k = y_k P_{k-1} + y_k - P_{k-2} - 2 with matching variable counts.
        r4 = hypersurface_relation(4)
        assert r4.m == 5
        assert r4.total_degree() == 5

    def test_too_small(self):
        for n in (-1, 0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                hypersurface_relation_check(n)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_recursion_expands_to_the_oracle(self, n):
        variables = [Polynomial.variable(i, n + 1, Q) for i in range(1, n + 2)]
        assert cluster._relation(variables[0], variables[1:]) \
            == hypersurface_relation(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_check_agrees_with_the_substituted_oracle(self, n):
        seed = Seed.initial(linear_a_matrix(n))
        values = [seed.cluster[0]] + [seed.mutate(k).cluster[k - 1]
                                      for k in range(1, n + 1)]
        evaluated = cluster._relation(values[0], values[1:])
        assert evaluated == hypersurface_relation(n).substitute(values)
        assert hypersurface_relation_check(n) == evaluated.is_zero

    def test_each_shorter_relation_is_the_next_entry_minus_one(self):
        # R_k = x_{k+1} - 1 at the mutated entries, so the evaluation never
        # meets the exponentially many terms of the expanded R_n
        n = 7
        seed = Seed.initial(linear_a_matrix(n))
        primed = [seed.mutate(k).cluster[k - 1] for k in range(1, n + 1)]
        for k in range(1, n):
            assert cluster._relation(seed.cluster[0], primed[:k]) \
                == seed.cluster[k] - 1


def _adjacency_from_rows(mat: ExchangeMatrix):
    """Neighbors of every row and source/sink flags, straight from the rows."""
    rows, n = mat.rows, mat.n
    neighbors = [tuple(j + 1 for j in range(n) if j != i and row[j] != 0)
                 for i, row in enumerate(rows)]
    sources = [all(row[j] <= 0 for row in rows) for j in range(n)]
    sinks = [all(row[j] >= 0 for row in rows) for j in range(n)]
    return neighbors, sources, sinks


def _adjacency_from_methods(mat: ExchangeMatrix):
    return ([mat.neighbors(i) for i in range(1, mat.m + 1)],
            [mat.is_source(j) for j in range(1, mat.n + 1)],
            [mat.is_sink(j) for j in range(1, mat.n + 1)])


ADJACENCY_BUILTINS = ("A:1", "A:2", "A:5", "D:4", "D:7", "E:6", "E:7", "E:8",
                      "kronecker", "cyclicA3", "rank2:1,4", "rank2:2,3")


class TestAdjacencyCache:
    @pytest.mark.parametrize("name", ADJACENCY_BUILTINS)
    def test_builtins_match_rows(self, name):
        mat = builtin_matrix(name)
        assert _adjacency_from_methods(mat) == _adjacency_from_rows(mat)

    def test_mutation_sequences_match_rows(self):
        rng = random.Random(211)
        for _ in range(40):
            n = rng.randint(1, 6)
            mat = ExchangeMatrix(
                random_skew_symmetrizable(rng, n, frozen=rng.randint(0, 3)))
            for _ in range(8):
                mat = mat.mutate(rng.randint(1, n))
                assert _adjacency_from_methods(mat) == _adjacency_from_rows(mat)

    def test_mutated_matrix_has_its_own_cache(self):
        mat = linear_a_matrix(3)
        assert mat.is_source(1) and mat.neighbors(1) == (2,)
        mutated = mat.mutate(1)
        assert mutated.is_sink(1) and not mutated.is_source(1)
        assert mat.is_source(1)                 # the parent's cache is intact
        assert _adjacency_from_methods(mutated) == _adjacency_from_rows(mutated)

    def test_equality_and_hash_ignore_the_cache(self):
        warm = builtin_matrix("E:6")
        warm.neighbors(1)
        cold = builtin_matrix("E:6")
        assert warm == cold
        assert hash(warm) == hash(cold)
        assert len({warm, cold}) == 1


class TestMutationWork:
    """Enumeration does only the mutations and products its answer needs."""

    def test_enumerate_a6_work_counts(self, monkeypatch):
        counts = {"mutate": 0, "mul": 0}
        mutate, mul = Seed.mutate, Polynomial.__mul__

        def counted_mutate(seed, k, *rest):
            counts["mutate"] += 1
            return mutate(seed, k, *rest)

        def counted_mul(a, b):
            counts["mul"] += 1
            return mul(a, b)

        monkeypatch.setattr(Seed, "mutate", counted_mutate)
        monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
        monkeypatch.setattr(Polynomial, "__rmul__", counted_mul)
        result = enumerate_cluster_variables(builtin_seed("A:6"))
        assert (result.count, result.seeds_seen, result.complete) == (27, 429, True)
        # each of the 429 * 6 / 2 edges of the exchange graph is computed
        # from one end only (2,146 mutations and 822 products while the
        # search skipped just the direction back to a seed's parent), and
        # each exchange relation is evaluated once (495 products while every
        # mutation evaluated its own)
        assert counts == {"mutate": 1287, "mul": 90}

    def test_enumerate_a6_order_keys(self, monkeypatch):
        calls = []
        key = MonomialOrder.key

        def counted_key(order, exp):
            calls.append(exp)
            return key(order, exp)

        monkeypatch.setattr(MonomialOrder, "key", counted_key)
        enumerate_cluster_variables(builtin_seed("A:6"))
        # exact division keys nothing; all 83 keys render the numerators
        # of the 27 variables that sorted(variables, key=str) orders
        # (44,407 keys when every step re-keyed the whole remainder,
        # 21,307 while the search computed most edges from both ends,
        # 11,850 while every mutation divided its own exchange relation,
        # and 1,483 while division keyed each remainder term under grevlex)
        assert len(calls) == 83

    @pytest.mark.parametrize("name, relations", [("A:6", 126), ("E:6", 447)])
    def test_each_exchange_relation_evaluated_once(self, monkeypatch, name,
                                                   relations):
        calls = []
        substitute = Polynomial.substitute

        def counted_substitute(poly, values):
            calls.append(poly)
            return substitute(poly, values)

        monkeypatch.setattr(Polynomial, "substitute", counted_substitute)
        enumerate_cluster_variables(builtin_seed(name))
        # A:6 has C(9, 4) = 126 relations, one per crossing pair of
        # diagonals of the 9-gon, over its 1,287 mutations; E:6 has 447
        # over 2,499
        assert len(calls) == relations

    def test_cached_entries_equal_entries_from_scratch(self, monkeypatch):
        mutate = Seed.mutate
        hits = []

        def checked_mutate(seed, k, exchanges=None):
            known = len(exchanges)
            cached = mutate(seed, k, exchanges)
            hits.append(len(exchanges) == known)
            scratch = mutate(seed, k)
            assert (cached.cluster, cached.matrix) \
                == (scratch.cluster, scratch.matrix)
            return cached

        monkeypatch.setattr(Seed, "mutate", checked_mutate)
        rng = random.Random(131)
        for _ in range(12):
            rows = random_acyclic_seed(rng, rng.randint(2, 5),
                                       rng.randint(1, 3))
            enumerate_cluster_variables(Seed.initial(ExchangeMatrix(rows)),
                                        max_seeds=rng.randint(5, 40))
        assert any(hits) and not all(hits)

    def test_cache_key_tells_relations_apart(self):
        # one cache shared by seeds on one cluster whose relations differ
        # only in an exponent, in the side a row is on, or in the old entry
        exchanges = {}
        for rows in ([[0, 1], [-1, 0], [1, 0]],
                     [[0, 1], [-2, 0], [1, 0]],
                     [[0, 1], [-1, 0], [-1, 0]],
                     [[0, -1], [1, 0], [-1, 0]],  # the first, sides swapped
                     [[0, 0], [0, 0], [1, 1]]):
            seed = Seed.initial(ExchangeMatrix(rows))
            for k in (1, 2):
                assert seed.mutate(k, exchanges).cluster \
                    == seed.mutate(k).cluster, (rows, k)
        # the first four seeds share x2*x2' = x1 + 1, and the fourth
        # repeats the first's relation at 1
        assert len(exchanges) == 6

    @pytest.mark.parametrize("name, path, max_seeds", [
        ("A:4", (2, 3, 1), 10_000),
        ("D:4", (3,), 10_000),
        ("kronecker", (1,), 4),
        ("kronecker", (2, 1), 7),
        ("rank2:1,4", (2,), 5),
    ])
    def test_start_history_does_not_matter(self, name, path, max_seeds):
        walked = builtin_seed(name).mutate_sequence(path)
        result = enumerate_cluster_variables(walked, max_seeds)
        assert (result.variables, result.seeds_seen, result.complete) \
            == enumerate_every_direction(walked, max_seeds)


class TestEveryDirectionOracle:
    """Skipping known exchanges changes no result of the search."""

    @pytest.mark.parametrize("name", [
        "A:1", "A:2", "A:3", "A:4", "A:5", "D:4", "D:5", "cyclicA3"])
    def test_finite_builtins(self, name):
        seed = builtin_seed(name)
        result = enumerate_cluster_variables(seed)
        assert result.complete
        assert (result.variables, result.seeds_seen, result.complete) \
            == enumerate_every_direction(seed, 10_000)

    @pytest.mark.parametrize("rows, budget", [
        (kronecker_matrix().rows, 30),
        (rank2_matrix(1, 4).rows, 30),
        (rank2_matrix(2, 3).rows, 11),  # its entries pass 1,000 terms at 12
        (((0, 2, -2), (-2, 0, 2), (2, -2, 0)), 30),  # the Markov quiver
    ], ids=["kronecker", "rank2_1_4", "rank2_2_3", "markov"])
    def test_infinite_types_at_every_budget(self, rows, budget):
        seed = Seed.initial(ExchangeMatrix(rows))
        oracle = islice(every_direction_search(seed), budget)
        for max_seeds, expected in enumerate(oracle, start=1):
            result = enumerate_cluster_variables(seed, max_seeds)
            assert (result.variables, result.seeds_seen, result.complete) \
                == expected, max_seeds

    def test_random_acyclic_seeds(self):
        # some weighted rank-3 seeds take seconds each past 30 seeds
        # expanded; this stream's 16 seeds, n = 2..5 at budgets up to 58,
        # take under 2 s in all, the oracle's searches included
        rng = random.Random(9)
        for _ in range(16):
            rows = random_acyclic_seed(rng, rng.randint(2, 5),
                                       rng.randint(0, 2))
            seed = Seed.initial(ExchangeMatrix(rows))
            max_seeds = rng.randint(1, 60)
            result = enumerate_cluster_variables(seed, max_seeds)
            assert (result.variables, result.seeds_seen, result.complete) \
                == enumerate_every_direction(seed, max_seeds), rows
