import itertools
import json
import math
import operator
import re
import warnings
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndmonogamy import scenario
from ndmonogamy.classical import (
    BOUNDS,
    DeterministicAssignment,
    behavior_from_assignment,
    c1_expression,
    c2_expression,
    chsh_expression,
    classical_bound,
    kcbs_expression,
)
from ndmonogamy.errors import SubsetNotMeasurable
from ndmonogamy.nodisturbance import ND_CERTIFICATES, JointDistribution, _behavior_row_name
from ndmonogamy.quantum import behavior_from_state, kcbs_observables, random_states
from ndmonogamy.scenario import (
    CONTEXTS,
    KCBS_TERMS,
    LABELS,
    MEASUREMENT_IDS,
    OUTCOME_TRIPLES,
    OUTCOMES,
    PROB_TOL,
    Behavior,
    Context,
    canonical_context,
    check_no_disturbance,
    chsh_terms,
    chsh_value,
    correlator,
    correlator_many,
    expression_values,
    kcbs_value,
    probability_tables,
    sign_vector,
    term,
)


def _validate_table(table: np.ndarray, name: str) -> np.ndarray:
    """The per-table reference of :func:`probability_tables`: one 8-entry table."""
    table = np.asarray(table, dtype=float)
    if table.shape != (8,):
        raise ValueError(f"{name}: expected 8 probabilities, got {table.shape}")
    # phrased so that NaN and infinite entries fail the comparisons
    if not table.min() >= -PROB_TOL:
        raise ValueError(f"{name}: negative or non-finite probability {table.min()}")
    total = float(table.sum())
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"{name}: probabilities sum to {total}, not 1")
    return np.clip(table, 0.0, None)


def all_plus_assignment():
    ids = MEASUREMENT_IDS
    return DeterministicAssignment(ids, (1,) * len(ids))


class TestCanonicalScenario:
    def test_seven_measurements(self):
        assert MEASUREMENT_IDS == ("A1", "A2", "A3", "A4", "A5", "B1", "B2")

    def test_outcomes_are_plus_minus_one(self):
        assert OUTCOMES == (-1, 1)
        assert OUTCOME_TRIPLES == tuple(itertools.product((-1, 1), repeat=3))

    def test_ten_contexts(self):
        assert len(CONTEXTS) == 10
        labels = {c.label for c in CONTEXTS}
        assert "A1,A2,B1" in labels
        assert "A5,A1,B2" in labels
        assert LABELS == tuple(c.label for c in CONTEXTS)

    def test_contexts_are_cyclic_pairs_with_one_bob_setting(self):
        for context in CONTEXTS:
            first, second, third = context.members
            i = int(first[1])
            assert second == f"A{i % 5 + 1}"
            assert third in ("B1", "B2")

    def test_bobs_settings_share_no_context(self):
        assert not any(c.contains(("B1", "B2")) for c in CONTEXTS)
        with pytest.raises(SubsetNotMeasurable):
            canonical_context(("B1", "B2"))

    def test_rebuild_matches_module_constant(self):
        # the paper's contexts {A_i, A_{i+1}, B_j}, written out by hand
        rebuilt = tuple(
            Context((f"A{i}", f"A{i % 5 + 1}", f"B{j}")) for i in range(1, 6) for j in (1, 2)
        )
        assert CONTEXTS == rebuilt
        assert {m for c in CONTEXTS for m in c.members} == set(MEASUREMENT_IDS)


class TestBehavior:
    def test_uniform_tables(self, uniform_behavior):
        assert uniform_behavior.probs.shape == (10, 8)
        assert np.all(uniform_behavior.probs == 1 / 8)

    def test_rejects_negative_probability(self):
        probs = np.full((10, 8), 1 / 8)
        probs[0, 0] = -0.01
        probs[0, 1] = 0.26
        with pytest.raises(ValueError, match="negative"):
            Behavior(probs)

    def test_rejects_bad_normalization(self):
        probs = np.full((10, 8), 1 / 8)
        probs[3, 0] = 0.5
        with pytest.raises(ValueError, match="sum"):
            Behavior(probs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probability(self, bad):
        probs = np.full((10, 8), 1 / 8)
        probs[2, 5] = bad
        with pytest.raises(ValueError, match=str(bad)):
            Behavior(probs)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda p: Behavior(p).probs, lambda k: f"context {LABELS[k]}"),
            # a (10, 8) table is a 10-row stack of joints over 3 variables
            (lambda p: JointDistribution(("X", "Y", "Z"), p).probs, lambda k: f"joint row {k}"),
            # the rule as the stacked joins and certificate apply it, on a 1-row stack
            (
                lambda p: probability_tables(
                    p[None], (None, 10, 8), "behavior table stack", _behavior_row_name
                ),
                lambda k: f"behavior row 0, context {LABELS[k]}",
            ),
        ],
        ids=["behavior", "joint", "stack"],
    )
    def test_whole_table_check_matches_per_row_check(self, build, name):
        # the reference validates one table at a time; the whole-array check
        # must accept the same tables, raise the same first message and clip
        # to the same bits
        rng = np.random.default_rng(5)

        def per_row(probs):
            return np.array([_validate_table(row, name(k)) for k, row in enumerate(probs)])

        def outcome(build, probs):
            try:
                return build(probs).tobytes()
            except ValueError as exc:
                return str(exc)

        tables = []
        for _ in range(300):
            probs = rng.dirichlet(np.ones(8), size=10)
            rows = rng.choice(10, size=rng.integers(0, 3), replace=False)
            probs[rows, rng.integers(0, 8)] -= rng.choice([1e-14, 1e-12, 2e-12, 1e-3])
            probs[rng.integers(0, 10), 0] += rng.choice([0.0, 1e-13, 1e-12, 3e-12])
            tables.append(probs)
        tables[0][4, 2] = np.nan
        tables[1][7, 0] = np.inf
        tables[2][0, 0] = -0.0
        for low in (-1e-12, -1.5e-12, -3e-12):
            probs = np.full((10, 8), 1 / 8)
            probs[5] = [low, 0.25 - low, 0.25, 0.25, 0.25, 0.0, 0.0, 0.0]
            tables.append(probs)
        raised = 0
        for probs in tables:
            expected = outcome(per_row, probs)
            assert outcome(build, probs) == expected
            raised += isinstance(expected, str)
        assert 0 < raised < len(tables)

    @pytest.mark.parametrize("imag", [0.0, 1e-3])
    def test_rejects_complex_probabilities(self, imag):
        probs = np.full((10, 8), 1 / 8) + 1j * imag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="real"):
                Behavior(probs)
            with pytest.raises(ValueError, match="real"):
                Behavior.from_tables(dict(zip(LABELS, probs.tolist())))

    def test_rejects_missing_context(self):
        with pytest.raises(ValueError, match="missing"):
            Behavior.from_tables({"A1,A2,B1": [1 / 8] * 8})

    def test_rejects_unknown_context_labels(self, uniform_behavior):
        tables = json.loads(uniform_behavior.to_json())
        tables["extra"] = [1]
        tables["A2,A1,B1"] = [1 / 8] * 8
        with pytest.raises(ValueError, match=r"unknown context labels: \['extra', 'A2,A1,B1'\]"):
            Behavior.from_tables(tables)
        with pytest.raises(ValueError, match="'extra'"):
            Behavior.from_json(json.dumps(tables))

    @pytest.mark.parametrize(
        "text, kind",
        [("null", "NoneType"), ("5", "int"), ("[[0.125]]", "list"), ('"A1,A2,B1 A1,A2,B2"', "str")],
    )
    def test_rejects_json_that_is_not_an_object(self, text, kind):
        # a string would be searched by substring; null or a number raise TypeError
        message = f"context tables must be a mapping, got {kind}"
        with pytest.raises(ValueError, match=message):
            Behavior.from_json(text)
        with pytest.raises(ValueError, match=message):
            Behavior.from_tables(json.loads(text))

    def test_tiny_negative_entries_clip_to_zero(self):
        probs = np.full((10, 8), 1 / 8)
        probs[0, 0] = -1e-14
        probs[0, 1] = 2 / 8 + 1e-14
        behavior = Behavior(probs)
        assert behavior.probs[0, 0] == 0.0

    def test_tables_are_read_only(self, uniform_behavior):
        with pytest.raises(ValueError):
            uniform_behavior.probs[0, 0] = 0.5

    def test_json_round_trip_is_bit_exact(self, nd_behaviors, quantum_behaviors):
        for behavior in [nd_behaviors[0], *quantum_behaviors]:
            text = behavior.to_json()
            again = Behavior.from_json(text)
            assert again.probs.tobytes() == behavior.probs.tobytes()
            assert again.to_json() == text

    def test_accepts_tuples_and_arrays_of_rows(self):
        rows = Behavior.uniform().probs.tolist()
        mixed = tuple(np.array(row) if k % 2 else tuple(row) for k, row in enumerate(rows))
        assert Behavior(mixed).probs.tobytes() == Behavior(rows).probs.tobytes()

    def test_accepts_numeric_python_and_numpy_entries(self):
        rows = [[1, 0, 0, 0, 0, 0, 0, 0]] * 9 + [[np.float32(0.5), np.int64(0), 0.5, 0, 0, 0, 0, 0]]
        behavior = Behavior(rows)
        assert behavior.probs[9].tolist() == [0.5, 0.0, 0.5, 0, 0, 0, 0, 0]
        assert Behavior(np.array(rows, dtype=object)).probs.tobytes() == behavior.probs.tobytes()

    @pytest.mark.parametrize(
        "assignment, message",
        [
            ({}, "an assignment needs at least one id of context A1,A2,B1"),
            ({"B2": 1}, "'B2' is not a measurement of context A1,A2,B1"),
            ({"A1": 1, "A9": -1}, "'A9' is not a measurement of context A1,A2,B1"),
            ({"A1": 0}, "outcome of A1 must be -1 or +1, got 0"),
            ({"A2": 2.0}, "outcome of A2 must be -1 or +1, got 2.0"),
            ({"B1": True}, "outcome of B1 must be -1 or +1, got True"),
            ({"B1": np.True_}, "outcome of B1 must be -1 or +1, got np.True_"),
            ({"A1": 1, "B1": "1"}, "outcome of B1 must be -1 or +1, got '1'"),
        ],
    )
    def test_marginal_rejects_bad_assignments(self, uniform_behavior, assignment, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            uniform_behavior.marginal(CONTEXTS[0], assignment)

    def test_json_keys_are_context_labels(self, uniform_behavior):
        payload = json.loads(uniform_behavior.to_json())
        assert set(payload) == {c.label for c in CONTEXTS}
        assert all(len(v) == 8 for v in payload.values())


class TestCorrelator:
    def test_uniform_pair_correlator_is_zero(self, uniform_behavior):
        assert correlator(uniform_behavior, ("A1", "A2")) == 0.0

    def test_deterministic_all_plus(self):
        behavior = behavior_from_assignment(all_plus_assignment())
        assert correlator(behavior, ("A1", "B1")) == 1.0
        assert correlator(behavior, ("A1", "A2", "B1")) == 1.0

    def test_unmeasurable_subsets_raise(self, uniform_behavior):
        for subset in [("A1", "A3"), ("B1", "B2"), ("A1", "A2", "B1", "B2")]:
            with pytest.raises(SubsetNotMeasurable):
                correlator(uniform_behavior, subset)

    def test_a_str_subset_is_not_split_into_ids(self, uniform_behavior):
        # "A1" used to read as the ids "A" and "1", which share no context,
        # and sign_vector raised tuple.index's bare error
        message = r"^a subset is a sequence of measurement ids, got the str 'A1'$"
        for call in (
            lambda: correlator(uniform_behavior, "A1"),
            lambda: correlator_many(uniform_behavior.probs[None], "A1"),
            lambda: term("A1"),
            lambda: canonical_context("A1"),
            lambda: sign_vector(CONTEXTS[0], "A1"),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_cached_sign_vectors_are_read_only(self):
        for subset in [("A1", "A2"), ("A2", "B1"), ("A1", "A2", "B1")]:
            c_idx, signs = term(subset)
            assert term(list(subset))[1] is signs
            expected = canonical_context(subset)
            assert c_idx == CONTEXTS.index(expected)
            assert np.array_equal(signs, sign_vector(expected, subset))
            with pytest.raises(ValueError):
                signs[0] = 0.0

    def test_stacked_correlators_equal_scalar_ones(self, nd_behaviors, quantum_behaviors):
        behaviors = nd_behaviors + quantum_behaviors
        probs = np.stack([b.probs for b in behaviors])
        for subset in [("A1", "A2"), ("A4", "B2"), ("A5", "A1", "B1"), ("B1",)]:
            context = canonical_context(subset)
            signs = sign_vector(context, subset)
            # reference: the signed entries added one after the other
            expected = [float(sum(signs * b.table(context))) for b in behaviors]
            assert correlator_many(probs, subset).tolist() == expected
            assert [correlator(b, subset) for b in behaviors] == expected
        assert correlator_many(probs[:0], ("A1", "A2")).shape == (0,)

    def test_quantum_pair_correlator_matches_trace_oracle(self, basis_state_behavior):
        # oracle: <20|A1 A2 (x) 1|20> computed directly from the observables
        a1a2 = kcbs_observables()[0] @ kcbs_observables()[1]
        expected = float(np.real(a1a2[2, 2]))
        assert correlator(basis_state_behavior, ("A1", "A2")) == pytest.approx(
            expected, abs=1e-12
        )

    def test_nd_behavior_pair_correlator_context_independent(self, nd_behaviors):
        for behavior in nd_behaviors[:10]:
            for i in range(1, 6):
                pair = (f"A{i}", f"A{i % 5 + 1}")
                v1, v2 = (
                    float(sign_vector(ctx, pair) @ behavior.table(ctx))
                    for ctx in CONTEXTS
                    if ctx.contains(pair)
                )
                assert v1 == pytest.approx(v2, abs=1e-12)

    def test_triple_correlator_is_exposed(self, nd_behaviors):
        behavior = nd_behaviors[0]
        value = correlator(behavior, ("A1", "A2", "B1"))
        assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


class TestNoDisturbance:
    def test_quantum_behavior_passes(self, quantum_behaviors):
        for behavior in quantum_behaviors:
            assert check_no_disturbance(behavior) == []

    def test_constructed_counterexample_reports_singleton_gap(self):
        # context A1,A2,B1 pins a1 = +1; context A5,A1,B1 pins a1 = -1
        tables = {c.label: [1 / 8] * 8 for c in CONTEXTS}
        tables["A1,A2,B1"] = [0, 0, 0, 0, 0, 0, 0, 1.0]
        tables["A5,A1,B1"] = [1.0, 0, 0, 0, 0, 0, 0, 0]
        behavior = Behavior.from_tables(tables)
        violations = check_no_disturbance(behavior)
        assert violations
        assert any(v.subset == ("A1",) for v in violations)

    def test_mixture_of_nd_behaviors_is_nd(self, quantum_behaviors):
        first, second = quantum_behaviors[:2]
        mixed = Behavior(0.3 * first.probs + 0.7 * second.probs)
        assert check_no_disturbance(mixed) == []

    def test_violation_records_carry_values(self):
        tables = {c.label: [1 / 8] * 8 for c in CONTEXTS}
        tables["A1,A2,B1"] = [0, 0, 0, 0, 0, 0, 0, 1.0]
        behavior = Behavior.from_tables(tables)
        violations = check_no_disturbance(behavior)
        worst = max(violations, key=lambda v: v.magnitude)
        assert worst.magnitude == pytest.approx(
            abs(worst.value_a - worst.value_b), abs=0
        )


class TestWitnessValues:
    def test_all_plus_deterministic(self):
        behavior = behavior_from_assignment(all_plus_assignment())
        assert kcbs_value(behavior) == 5.0
        assert chsh_value(behavior) == 2.0

    def test_classical_optimum_reaches_kcbs_bound(self):
        argmin = classical_bound(kcbs_expression()).argmin
        behavior = behavior_from_assignment(argmin)
        assert kcbs_value(behavior) == -3.0

    def test_classical_optimum_reaches_chsh_bound(self):
        argmin = classical_bound(chsh_expression()).argmin
        behavior = behavior_from_assignment(argmin)
        assert chsh_value(behavior) == -2.0

    def test_default_pivot_uses_a1_a4(self, nd_behaviors):
        behavior = nd_behaviors[0]
        expected = (
            correlator(behavior, ("A1", "B1"))
            + correlator(behavior, ("A1", "B2"))
            + correlator(behavior, ("A4", "B1"))
            - correlator(behavior, ("A4", "B2"))
        )
        assert chsh_value(behavior) == pytest.approx(expected, abs=1e-14)
        assert chsh_value(behavior, 5) == chsh_value(behavior)

    @given(weight=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_witnesses_linear_in_mixtures(self, weight):
        rng = np.random.default_rng(7)
        tables = rng.dirichlet(np.ones(8), size=(2, 10))
        first = Behavior(tables[0])
        second = Behavior(tables[1])
        mixed = Behavior(weight * first.probs + (1.0 - weight) * second.probs)
        for value in (kcbs_value, chsh_value):
            direct = value(mixed)
            combined = weight * value(first) + (1 - weight) * value(second)
            assert direct == pytest.approx(combined, abs=1e-12)

    def test_pivot_wraps_modulo_five(self, nd_behaviors):
        behavior = nd_behaviors[1]
        assert chsh_value(behavior, 5) == pytest.approx(
            chsh_value(behavior, 10), abs=1e-14
        )

    @pytest.mark.parametrize(
        "pivot", [True, False, np.bool_(True), 2.5, 3.0, np.float64(5.0), "5", None]
    )
    def test_rejects_bool_and_non_integer_pivots(self, nd_behaviors, pivot):
        behavior = nd_behaviors[1]
        calls = (
            lambda: chsh_terms(pivot),
            lambda: chsh_value(behavior, pivot),
            lambda: chsh_expression(pivot),
            lambda: c1_expression(pivot),
            lambda: c2_expression(pivot),
        )
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"got {pivot!r}")):
                call()

    def test_numpy_integer_pivot_wraps(self, nd_behaviors):
        behavior = nd_behaviors[1]
        assert chsh_value(behavior, np.int64(10)) == chsh_value(behavior, 5)
        assert chsh_terms(np.int32(-4)) == chsh_terms(1)


def reference_value(behavior, terms):
    """The per-term reference in Python floats: each correlator's signed
    entries added one after the other in outcome order, then the weighted
    correlators added one after the other in term order from 0.

    Not by the builtin ``sum``: since Python 3.12 it compensates float
    additions, while numpy adds a stack's terms in order.
    """
    total = 0
    for coeff, subset in terms:
        c_idx, signs = term(subset)
        products = [p * s for p, s in zip(behavior.probs[c_idx].tolist(), signs.tolist())]
        value = products[0]
        for product in products[1:]:
            value += product
        total += coeff * value
    return total


@lru_cache(maxsize=None)
def witness_behaviors():
    """The 13 certificate witnesses ``x = n/2``, polytope faces with exact
    zeros (some terms are -0.0), then the Born behaviors of 2000 states."""
    behaviors = []
    for _, primal in ND_CERTIFICATES.values():
        x = np.zeros(len(CONTEXTS) * 8)
        x[list(primal)] = [n / 2 for n in primal.values()]
        behaviors.append(Behavior(x.reshape(-1, 8)))
    behaviors.append(Behavior.uniform())  # every pair correlator is +0.0
    behaviors += [behavior_from_state(psi) for psi in random_states(2000, seed=17)]
    return behaviors


#: each BOUNDS row's terms, and the negated kcbs terms, whose weighted terms
#: are all -0.0 on the uniform behavior, so only a sum from 0 reads 0.0
EXPRESSION_TERMS = [(row.name, row.expression.terms) for row in BOUNDS] + [
    ("-kcbs", tuple((-1.0, subset) for _, subset in KCBS_TERMS))
]


def compensated_sum(items, start=0):
    """The builtin ``sum`` of Python 3.12 and later: Python floats added
    with Neumaier's compensation, anything else in order.

    On the weighted terms of every witness of :func:`witness_behaviors`,
    its results equal those of Python 3.12.1's and 3.13's ``sum``.
    """
    total, compensation = start, 0.0
    for item in items:
        if type(total) is float and type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
        else:
            total = total + item
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


class TestWitnessBits:
    """The witnesses, one behavior or a stack, have the bits of one
    ``correlator`` per term added in term order from 0, on every Python.

    Compared by ``repr``, so -0.0 and 0.0 differ.
    """

    def test_kcbs_value_is_the_per_term_sum(self):
        for behavior in witness_behaviors():
            assert repr(kcbs_value(behavior)) == repr(reference_value(behavior, KCBS_TERMS))

    @pytest.mark.parametrize("pivot", [1, 2, 3, 4, 5, 10])
    def test_chsh_value_is_the_per_term_sum(self, pivot):
        for behavior in witness_behaviors():
            want = reference_value(behavior, chsh_terms(pivot))
            assert repr(chsh_value(behavior, pivot)) == repr(want)

    @pytest.mark.parametrize("name,terms", EXPRESSION_TERMS, ids=[n for n, _ in EXPRESSION_TERMS])
    def test_expression_values_is_the_per_term_sum(self, name, terms):
        behaviors = witness_behaviors()
        values = expression_values(np.stack([b.probs for b in behaviors]), terms)
        assert values.shape == (len(behaviors),)
        for behavior, value in zip(behaviors, values.tolist()):
            assert repr(value) == repr(reference_value(behavior, terms))
        if name == "-kcbs":
            assert repr(float(expression_values(Behavior.uniform().probs[None], terms)[0])) == "0.0"

    def test_a_compensated_builtin_sum_changes_no_bit(self, monkeypatch):
        # the builtin sum of Python 3.12 and later, on any Python
        monkeypatch.setattr(scenario, "sum", compensated_sum, raising=False)
        behaviors = witness_behaviors()
        stack = np.stack([b.probs for b in behaviors])
        for terms in (KCBS_TERMS, *map(chsh_terms, range(1, 6))):
            stacked = expression_values(stack, terms).tolist()
            for behavior, value in zip(behaviors, stacked):
                want = repr(reference_value(behavior, terms))
                assert repr(value) == want
        for behavior in behaviors:
            assert repr(kcbs_value(behavior)) == repr(reference_value(behavior, KCBS_TERMS))
            for pivot in range(1, 6):
                want = repr(reference_value(behavior, chsh_terms(pivot)))
                assert repr(chsh_value(behavior, pivot)) == want

    def test_compensated_sum_differs_from_in_order_addition(self):
        # so the test above can fail: on these behaviors, the compensated
        # sum of the weighted terms moves some kcbs values
        behaviors = witness_behaviors()
        moved = sum(
            repr(compensated_sum(c * correlator(b, s) for c, s in KCBS_TERMS))
            != repr(reference_value(b, KCBS_TERMS))
            for b in behaviors
        )
        assert moved > 100

    def test_certificate_witnesses_hold_negative_zero_terms(self):
        terms = [
            coeff * correlator(behavior, subset)
            for behavior in witness_behaviors()[: len(ND_CERTIFICATES)]
            for row in BOUNDS
            for coeff, subset in row.expression.terms
        ]
        assert "-0.0" in map(repr, terms)


def test_outcome_triples_are_lexicographic():
    assert OUTCOME_TRIPLES[0] == (-1, -1, -1)
    assert OUTCOME_TRIPLES[7] == (1, 1, 1)
    assert OUTCOME_TRIPLES == tuple(itertools.product((-1, 1), repeat=3))


def test_quantum_behavior_from_state_passes_nd_everywhere():
    for k in range(6):
        e = np.zeros(6, dtype=complex)
        e[k] = 1.0
        assert check_no_disturbance(behavior_from_state(e)) == []


class TestRowSum:
    @pytest.mark.parametrize("width", range(2, 10))
    def test_adds_the_columns_in_order(self, width):
        # huge entries of both signs, so another order changes the bits
        rng = np.random.default_rng(width)
        rows = rng.standard_normal((500, width)) * 10.0 ** rng.integers(-3, 17, (500, width))
        want = [reduce(operator.add, row.tolist()) for row in rows]
        assert scenario.row_sum(rows).tolist() == want
        assert scenario.row_sum(rows[:, ::-1]).tolist() == [
            reduce(operator.add, row.tolist()[::-1]) for row in rows
        ]
