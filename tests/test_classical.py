import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndmonogamy import classical
from ndmonogamy.classical import (
    BOUNDS,
    DeterministicAssignment,
    LinearExpression,
    behavior_from_assignment,
    c1_expression,
    c2_expression,
    chsh_expression,
    classical_bound,
    enumerate_assignments,
    kcbs_expression,
    monogamy_expression,
)
from ndmonogamy.scenario import (
    MEASUREMENT_IDS,
    canonical_context,
    correlator,
    expression_values,
)


def toy_ids(n: int) -> tuple[str, ...]:
    return tuple(f"X{k}" for k in range(n))


def brute_force_cycle_minimum(n: int) -> int:
    """Independent oracle: plain product enumeration of the n-cycle."""
    best = n
    for signs in itertools.product((-1, 1), repeat=n):
        best = min(best, sum(signs[i] * signs[(i + 1) % n] for i in range(n)))
    return best


class TestBoundsTable:
    def test_is_the_papers_table(self):
        s5 = math.sqrt(5.0)
        paper = [
            ("kcbs", kcbs_expression(), -3.0, -5.0, 5.0 - 4.0 * s5),
            ("chsh", chsh_expression(), -2.0, -4.0, 1.0 - s5 - math.sqrt(2.0 * s5 - 2.0)),
            *[(f"c1[{i}]", c1_expression(i), -3.0, -3.0, -3.0) for i in range(1, 6)],
            *[(f"c2[{i}]", c2_expression(i), -2.0, -2.0, -2.0) for i in range(1, 6)],
            ("kcbs+chsh", monogamy_expression(), -5.0, -5.0, -5.0),
        ]
        assert [tuple(row) for row in BOUNDS] == paper


class TestEnumeration:
    def test_canonical_scenario_gives_128(self):
        assignments = list(enumerate_assignments())
        assert len(assignments) == 128
        assert len({a.outcomes for a in assignments}) == 128

    def test_lexicographic_order_minus_first(self):
        assignments = list(enumerate_assignments())
        assert assignments[0].outcomes == (-1,) * 7
        assert assignments[1].outcomes == (-1,) * 6 + (1,)
        assert assignments[-1].outcomes == (1,) * 7

    def test_assignment_products(self):
        assignment = DeterministicAssignment(("A1", "A2"), (-1, 1))
        assert assignment.product(("A1", "A2")) == -1
        assert assignment.value("A2") == 1


class TestLinearExpression:
    def test_rejects_empty_subset(self):
        with pytest.raises(ValueError):
            LinearExpression(((1.0, ()),))

    def test_rejects_non_finite_coefficient(self):
        with pytest.raises(ValueError):
            LinearExpression(((float("nan"), ("A1",)),))

    @pytest.mark.parametrize(
        "coeff", [True, np.bool_(False), "1", 1j, np.complex128(1.0), None, [1.0]]
    )
    def test_rejects_non_real_coefficient(self, coeff):
        with pytest.raises(ValueError, match="real number"):
            LinearExpression(((coeff, ("A1", "A2")),))

    @pytest.mark.parametrize("subset", ["A1", ["A1", "A2"], ("A1", 2), (("A1", "A2"),)])
    def test_rejects_subset_not_a_tuple_of_ids(self, subset):
        with pytest.raises(ValueError, match="tuple of measurement ids"):
            LinearExpression(((1.0, subset),))

    @pytest.mark.parametrize(
        "terms",
        [
            [(1.0, ("A1", "A2"))],
            ([1.0, ("A1", "A2")],),
            ((1.0, ("A1", "A2")), [-1.0, ("B1",)]),
        ],
    )
    def test_rejects_terms_not_a_tuple_of_tuples(self, terms):
        # a list would break + with another expression and hash()
        with pytest.raises(ValueError, match=r"tuple of \(coefficient, subset\) tuples"):
            LinearExpression(terms)

    def test_accepts_real_coefficients(self):
        terms = ((1, ("A1",)), (np.int64(2), ("A2",)), (np.float32(0.5), ("B1",)), (-1.5, ("B2",)))
        assert LinearExpression(terms).terms == terms

    def test_addition_concatenates_terms(self):
        combined = kcbs_expression() + chsh_expression()
        assert len(combined.terms) == 9

    def test_split_sums_to_monogamy_expression(self, nd_behaviors):
        # the pentagon + Bell split around any pivot recombines to kcbs+chsh
        probs = np.stack([behavior.probs for behavior in nd_behaviors[:5]])
        for pivot in range(1, 6):
            split = c1_expression(pivot) + c2_expression(pivot)
            combined = monogamy_expression(pivot)
            assert expression_values(probs, split.terms) == pytest.approx(
                expression_values(probs, combined.terms), abs=1e-12
            )

    def test_relabeled_shifts_alice_only(self):
        shifted = chsh_expression(5).relabeled(1)
        subsets = [sub for _, sub in shifted.terms]
        assert ("A2", "B1") in subsets and ("A5", "B2") in subsets


class TestClassicalBounds:
    def test_kcbs_bound(self):
        bound = classical_bound(kcbs_expression())
        assert bound.minimum == -3.0
        assert bound.maximum == 5.0

    def test_chsh_bound_all_pivots(self):
        for pivot in range(1, 6):
            bound = classical_bound(chsh_expression(pivot))
            assert (bound.minimum, bound.maximum) == (-2.0, 2.0)

    def test_monogamy_sum_bound(self):
        assert classical_bound(monogamy_expression()).minimum == -5.0

    @pytest.mark.parametrize("pivot", range(1, 6))
    def test_split_bounds(self, pivot):
        assert classical_bound(c1_expression(pivot)).minimum == -3.0
        assert classical_bound(c2_expression(pivot)).minimum == -2.0

    @pytest.mark.parametrize("build", [c1_expression, c2_expression, monogamy_expression])
    def test_split_parts_are_built_once_per_wrapped_pivot(self, build):
        build(1)  # a cached pivot 1 must not answer for True == 1
        with pytest.raises(ValueError, match="^pivot must be an integer, got True$"):
            build(True)
        assert build(6) == build(1)
        assert build(6) is build(1) is build(np.int64(-4))

    def test_sum_argmin_achieves_both_bounds(self):
        # additivity holds because the two optima are simultaneously reachable
        argmin = classical_bound(monogamy_expression()).argmin
        assert kcbs_expression().evaluate_assignment(argmin) == -3.0
        assert chsh_expression().evaluate_assignment(argmin) == -2.0

    def test_bounds_sandwich_every_assignment(self):
        bound = classical_bound(kcbs_expression())
        rng = np.random.default_rng(5)
        ids = ("A1", "A2", "A3", "A4", "A5", "B1", "B2")
        for _ in range(100):
            outcomes = tuple(rng.choice((-1, 1)) for _ in ids)
            value = kcbs_expression().evaluate_assignment(
                DeterministicAssignment(ids, outcomes)
            )
            assert bound.minimum <= value <= bound.maximum

    def test_cyclic_relabeling_invariance(self):
        reference = classical_bound(kcbs_expression())
        for shift in range(1, 5):
            shifted = classical_bound(kcbs_expression().relabeled(shift))
            assert shifted.minimum == reference.minimum
            assert shifted.maximum == reference.maximum

    def test_argmin_deterministic_first_found(self):
        first = classical_bound(kcbs_expression()).argmin
        second = classical_bound(kcbs_expression()).argmin
        assert first == second

    def test_unknown_measurement_rejected(self):
        # rejected when the expression is built, so classical_bound,
        # expression_vector and expression_operator never see it
        message = r"^expression references unknown measurements \['Z9'\]$"
        for subset in (("Z9",), ("A1", "Z9")):
            with pytest.raises(ValueError, match=message):
                LinearExpression(((1.0, subset),))

    MEASURABLE_PAIRS = [
        ("A1", "A2"), ("A2", "A3"), ("A3", "A4"), ("A4", "A5"), ("A5", "A1"),
        ("A1", "B1"), ("A3", "B2"), ("A4", "B1"),
    ]

    @given(
        coeffs=st.lists(
            st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=8
        ),
        outcome_bits=st.integers(0, 127),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_expressions_respect_their_bounds(self, coeffs, outcome_bits):
        terms = tuple(
            (c, self.MEASURABLE_PAIRS[k % len(self.MEASURABLE_PAIRS)])
            for k, c in enumerate(coeffs)
        )
        expr = LinearExpression(terms)
        bound = classical_bound(expr)
        ids = ("A1", "A2", "A3", "A4", "A5", "B1", "B2")
        outcomes = tuple(1 if outcome_bits >> k & 1 else -1 for k in range(7))
        value = expr.evaluate_assignment(DeterministicAssignment(ids, outcomes))
        assert bound.minimum - 1e-12 <= value <= bound.maximum + 1e-12


def loop_bound(expr: LinearExpression):
    """Reference: one ``evaluate_assignment`` per enumerated assignment."""
    best_min, best_max, argmin = math.inf, -math.inf, None
    for assignment in enumerate_assignments():
        value = expr.evaluate_assignment(assignment)
        if value < best_min:
            best_min, argmin = value, assignment
        best_max = max(best_max, value)
    return float(best_min), float(best_max), argmin


class TestWholeArrayBound:
    """``classical_bound`` against the per-assignment loop, exactly."""

    @pytest.mark.parametrize("row", BOUNDS, ids=lambda row: row.name)
    def test_bounds_rows(self, row):
        assert tuple(classical_bound(row.expression)) == loop_bound(row.expression)

    @pytest.mark.parametrize("shift", range(5))
    def test_relabeled_kcbs(self, shift):
        expr = kcbs_expression().relabeled(shift)
        assert tuple(classical_bound(expr)) == loop_bound(expr)

    def test_non_integer_singleton_and_repeated_terms(self):
        expr = LinearExpression(
            (
                (0.3, ("A1", "A2")),
                (-1.7, ("B1",)),
                (2.25, ("A1", "A1")),
                (1 / 3, ("A3", "B2")),
                (-0.1, ("A4", "A5", "A4")),
                (math.pi, ("A5", "B1", "B2")),
            )
        )
        bound = classical_bound(expr)
        assert tuple(bound) == loop_bound(expr)
        assert bound.minimum != round(bound.minimum)

    def test_parity_vectors_are_cached_read_only_and_exact(self):
        n = len(MEASUREMENT_IDS)
        for mask in (0, 0b1000000, 0b0110001, 0b1111111):
            parity = classical._minus_parity(mask, n)
            assert classical._minus_parity(mask, n) is parity
            # oracle: an odd count of the mask's measurements at -1 (bit clear)
            assert parity.tolist() == [bin(~k & mask).count("1") % 2 for k in range(1 << n)]
            with pytest.raises(ValueError):
                parity[0] = 1

    @pytest.mark.parametrize("n", range(1, 11))
    def test_toy_scenarios(self, n, monkeypatch):
        # the bit indexing at widths other than 7: both functions read the
        # module's MEASUREMENT_IDS
        ids = toy_ids(n)
        monkeypatch.setattr(classical, "MEASUREMENT_IDS", ids)
        rng = np.random.default_rng(n)
        terms = tuple(
            (
                float(rng.normal()) if k % 2 else float(rng.integers(-2, 3)),
                tuple(rng.choice(ids, size=rng.integers(1, min(n, 3) + 1))),
            )
            for k in range(6)
        )
        expr = LinearExpression(terms)
        assert tuple(classical_bound(expr)) == loop_bound(expr)


def cycle_minimum(monkeypatch, n: int) -> float:
    """classical_bound of the n-cycle sum <X_k X_{k+1}> over n toy measurements."""
    ids = toy_ids(n)
    monkeypatch.setattr(classical, "MEASUREMENT_IDS", ids)
    expr = LinearExpression(tuple((1.0, (ids[k], ids[(k + 1) % n])) for k in range(n)))
    return classical_bound(expr).minimum


class TestCycleBound:
    """The whole-array kernel on n-cycles, against their closed form."""

    # derived by the brute-force oracle above, then frozen
    @pytest.mark.parametrize("n,expected", [(3, -1), (4, -4), (5, -3), (6, -6), (7, -5)])
    def test_small_cycles_match_brute_force(self, n, expected, monkeypatch):
        assert brute_force_cycle_minimum(n) == expected
        assert cycle_minimum(monkeypatch, n) == expected

    @pytest.mark.parametrize("n", range(3, 15))
    def test_parity_closed_form(self, n, monkeypatch):
        expected = -(n - 2) if n % 2 else -n
        assert cycle_minimum(monkeypatch, n) == expected

    def test_largest_supported(self, monkeypatch):
        # 2^20 assignments in one array
        assert cycle_minimum(monkeypatch, 20) == -20.0


class TestAssignmentBehavior:
    def test_point_mass_tables(self):
        assignment = DeterministicAssignment(
            MEASUREMENT_IDS, (1, -1, 1, -1, 1, -1, 1)
        )
        behavior = behavior_from_assignment(assignment)
        context = canonical_context(("A1", "A2", "B1"))
        assert behavior.marginal(context, {"A1": 1, "A2": -1, "B1": -1}) == 1.0
        assert correlator(behavior, ("A1", "A2")) == -1.0

    def test_every_assignment_behavior_matches_products(self):
        for assignment in list(enumerate_assignments())[:16]:
            behavior = behavior_from_assignment(assignment)
            for pair in [("A1", "A2"), ("A3", "B2"), ("A5", "A1")]:
                assert correlator(behavior, pair) == assignment.product(pair)
