import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from ndmonogamy import classical, cli, nodisturbance, region, scenario, verify
from ndmonogamy.classical import (
    BOUNDS,
    LinearExpression,
    c1_expression,
    c2_expression,
    chsh_expression,
    kcbs_expression,
    monogamy_expression,
)
from ndmonogamy.errors import InvalidCertificate, NotNoDisturbance
from ndmonogamy.nodisturbance import (
    ND_CERTIFICATES,
    JointDistribution,
    MonogamyReport,
    certified_nd_minimum,
    expression_vector,
    fine_join_c1,
    fine_join_c2,
    monogamy_certificate,
    nd_equality_system,
    nd_optimum,
    sample_behavior_matrix,
    sample_behaviors,
)
from ndmonogamy.quantum import behavior_from_state, random_state_blocks, random_states
from ndmonogamy.scenario import (
    CONTEXTS,
    MEASUREMENT_IDS,
    ND_TOL,
    PROB_TOL,
    Behavior,
    NdViolation,
    alice,
    bob,
    canonical_context,
    check_no_disturbance,
    chsh_value,
    correlator,
    correlator_many,
    expression_values,
    kcbs_value,
    marginal_constraint_rows,
    nd_violations,
    sign_vector,
)
from witness_mixes import witness_mixes

PIVOTS = (1, 2, 3, 4, 5)


def disturbing_behavior():
    """Sum over a_{i-1} and a_{i+1} of the B2 tables pin different p(a_i, b2)."""
    tables = {c.label: [1 / 8] * 8 for c in CONTEXTS}
    tables["A1,A2,B1"] = [0, 0, 0, 0, 0, 0, 0, 1.0]
    return Behavior.from_tables(tables)


def expression_value(behavior, expr) -> float:
    """``expr`` on one behavior through the stacked ``expression_values``."""
    return float(expression_values(behavior.probs[None], expr.terms)[0])


def negated(expr):
    """``-expr``: ``nd_optimum`` of it is minus the maximum of ``expr``."""
    return LinearExpression(tuple((-coeff, subset) for coeff, subset in expr.terms))


#: every row of the bounds table with its no-disturbance minimum, and the kcbs
#: maximiser as the minimiser of -kcbs, whose minimum is -5
OPTIMUM_CASES = [(row.expression, row.nd) for row in BOUNDS] + [
    (negated(kcbs_expression()), -5.0)
]


def bell_like_state():
    """(|00> + |11>)/sqrt(2) in the qutrit-qubit product basis."""
    psi = np.zeros(6, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return psi


class TestJointDistribution:
    def test_validates_shape_and_mass(self):
        with pytest.raises(ValueError):
            JointDistribution(("X", "Y"), np.ones((1, 3)))
        with pytest.raises(ValueError, match="stack"):
            JointDistribution(("X", "Y"), np.full(4, 0.25))  # one table, not a stack
        with pytest.raises(ValueError):
            JointDistribution(("X",), np.array([[0.7, 0.7]]))
        with pytest.raises(ValueError):
            JointDistribution(("X",), np.array([[0.5, 0.5], [-0.5, 1.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probability(self, bad):
        with pytest.raises(ValueError):
            JointDistribution(("X", "Y"), np.array([[0.25, 0.25, 0.5, bad]]))

    @pytest.mark.parametrize(
        "probs, message",
        [
            # numpy would parse the strings, cast the bools and, with only a
            # ComplexWarning, drop the imaginary part
            ([["0.5", "0.5"]], "entries must be numbers, got str"),
            ([[True, False]], "entries must be numbers, got bool"),
            ([[0.5 + 0j, 0.5]], "entries must be real, got complex"),
            ([[0.5, 0.5], [0.25, 0.75 + 0j]], "entries must be real, got complex"),
            (np.array([[0.5, 0.5]]) + 0j, "entries must be real, got complex128"),
        ],
        ids=["strings", "bools", "complex", "complex-in-row-1", "complex-array"],
    )
    def test_rejects_entries_that_are_not_real_numbers(self, probs, message):
        row = len(probs) - 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^joint row {row}: {message}$"):
                JointDistribution(("X",), probs)

    @pytest.mark.parametrize(
        "make, kind",
        [
            (lambda rows: (row for row in rows), "generator"),
            (lambda rows: iter(rows), "list_iterator"),
            (lambda rows: rows[:1] + [iter(rows[1])], "list_iterator"),
            (lambda rows: [set(rows[0])] + rows[1:], "set"),
        ],
        ids=["generator", "iterator", "iterator-row", "set-row"],
    )
    def test_rejects_nests_that_are_not_sequences(self, make, kind):
        rows = [[0.25, 0.75], [0.5, 0.5]]
        message = f"^joint stack must be nested lists, tuples or arrays, got {kind}$"
        with pytest.raises(ValueError, match=message):
            JointDistribution(("X",), make(rows))

    def test_marginal_orders_variables_as_requested(self):
        probs = np.arange(8, dtype=float)
        probs /= probs.sum()
        joint = JointDistribution(("X", "Y", "Z"), probs[None])
        forward = joint.marginal(("X", "Z"))
        swapped = joint.marginal(("Z", "X"))
        assert forward.probs[0, 1] == swapped.probs[0, 2]  # (x=-1,z=+1) vs (z=+1,x=-1)

    def test_correlator_of_uniform_vanishes(self):
        joint = JointDistribution(("X", "Y"), np.full((3, 4), 0.25))
        np.testing.assert_array_equal(joint.correlator(("X", "Y")), np.zeros(3))

    def test_rejects_repeated_variables(self):
        # with a repeated name, correlator(("A1",)) would read 0.0
        with pytest.raises(ValueError, match="repeat"):
            JointDistribution(("A1", "A1"), np.full((1, 4), 0.25))

    def test_rejects_unknown_subset_variable(self):
        joint = JointDistribution(("X", "Y"), np.full((2, 4), 0.25))
        for call in (joint.marginal, joint.correlator):
            with pytest.raises(ValueError, match="'Z' is not a variable"):
                call(("X", "Z"))
            with pytest.raises(ValueError, match="repeats"):
                call(("X", "X"))

    @pytest.mark.parametrize("subset", [("X",), ("Z", "X"), ("Y", "Z"), ("Z", "Y", "X")])
    def test_marginal_then_correlator_equals_reference(self, subset):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(8), size=7)
        joint = JointDistribution(("X", "Y", "Z"), probs)
        marginal = joint.marginal(subset)
        assert marginal.variables == subset
        assert marginal.probs.shape == (7, 2 ** len(subset))
        got = marginal.correlator(subset)
        expected = [reference_joint_correlator(joint.variables, row, subset) for row in probs]
        assert got.tobytes() == np.array(expected).tobytes()


class TestFineJoinC1:
    def test_uniform_behavior_gives_uniform_joint(self, uniform_behavior):
        joint = fine_join_c1(uniform_behavior.probs[None], 1)
        assert joint.probs.shape == (1, 32)
        assert np.allclose(joint.probs, 1 / 32, atol=1e-15)
        assert joint.variables == ("A2", "A3", "A5", "A4", "B1")

    def test_bell_state_marginals_recovered(self):
        behavior = behavior_from_state(bell_like_state())
        joint = fine_join_c1(behavior.probs[None], 1)
        for subset in [("A2", "A3"), ("A2", "B1")]:
            marginal = joint.marginal(subset)
            for k, values in enumerate(itertools.product((-1, 1), repeat=2)):
                context = canonical_context(subset)
                direct = behavior.marginal(context, dict(zip(subset, values)))
                assert marginal.probs[0, k] == pytest.approx(direct, abs=1e-10)

    def test_expression_value_matches_behavior_path(self, nd_behaviors):
        for behavior in nd_behaviors[:10]:
            for pivot in PIVOTS:
                joint = fine_join_c1(behavior.probs[None], pivot)
                from_joint = sum(
                    coeff * joint.correlator(subset)[0]
                    for coeff, subset in c1_expression(pivot).terms
                )
                direct = expression_value(behavior, c1_expression(pivot))
                assert from_joint == pytest.approx(direct, abs=1e-10)

    def test_rejects_disturbing_behavior(self):
        with pytest.raises(NotNoDisturbance):
            fine_join_c1(disturbing_behavior().probs[None], 1)


class TestFineJoinC2:
    def test_uniform_behavior_gives_uniform_joint(self, uniform_behavior):
        joint = fine_join_c2(uniform_behavior.probs[None], 1)
        assert joint.probs.shape == (1, 16)
        assert np.allclose(joint.probs, 1 / 16, atol=1e-15)
        assert joint.variables == ("A5", "A1", "A2", "B2")

    @pytest.mark.parametrize("pivot", PIVOTS)
    def test_marginalization_identities(self, nd_behaviors, pivot):
        # dropping (a_{i+1}, b2) leaves p(a_{i-1}, a_i); dropping
        # (a_{i-1}, b2) leaves p(a_i, a_{i+1})
        for behavior in nd_behaviors[:10]:
            joint = fine_join_c2(behavior.probs[None], pivot)
            prev_pair = (alice(pivot - 1), alice(pivot))
            next_pair = (alice(pivot), alice(pivot + 1))
            for pair in (prev_pair, next_pair):
                recovered = joint.marginal(pair)
                context = canonical_context(pair)
                for k, values in enumerate(itertools.product((-1, 1), repeat=2)):
                    direct = behavior.marginal(context, dict(zip(pair, values)))
                    assert recovered.probs[0, k] == pytest.approx(direct, abs=1e-10)

    def test_rejects_disturbing_behavior(self):
        with pytest.raises(NotNoDisturbance) as excinfo:
            fine_join_c2(disturbing_behavior().probs[None], 1)
        assert excinfo.value.violations

    def test_zero_denominators_handled_on_lp_witness(self):
        # the kcbs LP witness has many exact zeros in its tables
        witness = nd_optimum(kcbs_expression()).witness
        for pivot in PIVOTS:
            joint1 = fine_join_c1(witness.probs[None], pivot)
            joint2 = fine_join_c2(witness.probs[None], pivot)
            assert joint1.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert joint2.probs.sum() == pytest.approx(1.0, abs=1e-9)
            for coeff, subset in c1_expression(pivot).terms:
                assert joint1.correlator(subset)[0] == pytest.approx(
                    correlator(witness, subset), abs=1e-8
                )


class TestNdOptimum:
    def test_kcbs_nd_bound(self):
        assert nd_optimum(kcbs_expression()).value == pytest.approx(-5.0, abs=1e-9)

    def test_chsh_nd_bound(self):
        assert nd_optimum(chsh_expression()).value == pytest.approx(-4.0, abs=1e-9)

    def test_monogamy_nd_bound(self):
        assert nd_optimum(monogamy_expression()).value == pytest.approx(-5.0, abs=1e-9)

    @pytest.mark.parametrize("pivot", PIVOTS)
    def test_split_nd_bounds(self, pivot):
        assert nd_optimum(c1_expression(pivot)).value == pytest.approx(-3.0, abs=1e-9)
        assert nd_optimum(c2_expression(pivot)).value == pytest.approx(-2.0, abs=1e-9)

    @pytest.mark.parametrize(
        "expr, bound",
        OPTIMUM_CASES,
        ids=[row.name for row in BOUNDS] + ["-kcbs"],
    )
    def test_witness_attains_optimum_and_is_feasible(self, expr, bound):
        # HiGHS returns exact vertices, so each witness passes Behavior's
        # check at PROB_TOL and no-disturbance at ND_TOL with no tolerance
        # of its own
        value, witness = nd_optimum(expr)
        assert isinstance(witness, Behavior)
        assert value == pytest.approx(bound, abs=1e-9)
        assert check_no_disturbance(witness) == []
        assert expression_value(witness, expr) == pytest.approx(value, abs=1e-9)

    def test_max_sense(self):
        # the maximum is minus the minimum of the negated expression, whose
        # vector is the negated vector: the LP of the maximum
        expr = kcbs_expression()
        np.testing.assert_array_equal(
            expression_vector(negated(expr)), -expression_vector(expr)
        )
        value, witness = nd_optimum(negated(expr))
        assert -value == pytest.approx(5.0, abs=1e-9)
        assert kcbs_value(witness) == pytest.approx(5.0, abs=1e-8)

    def test_expression_vector_is_built_once_and_read_only(self):
        # equal expressions share one vector, which no caller can change
        vector = expression_vector(monogamy_expression())
        assert vector is expression_vector(kcbs_expression() + chsh_expression())
        assert not vector.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 1.0

    def test_cyclic_relabeling_invariance(self):
        reference = nd_optimum(kcbs_expression()).value
        for shift in range(1, 5):
            shifted = nd_optimum(kcbs_expression().relabeled(shift)).value
            assert shifted == pytest.approx(reference, abs=1e-9)

    def test_solves_through_the_module_linprog(self, monkeypatch):
        # The LP is looked up as nodisturbance.linprog at call time, which is
        # where the benchmark tracer counts LP iterations.
        forward = nodisturbance.linprog
        calls = []

        def recording(*args, **kwargs):
            result = forward(*args, **kwargs)
            calls.append(result.nit)
            return result

        monkeypatch.setattr(nodisturbance, "linprog", recording)
        assert nd_optimum(kcbs_expression()).value == pytest.approx(-5.0, abs=1e-9)
        assert len(calls) == 1

    def test_optimum_not_beaten_by_random_feasible_sample(self):
        matrix = sample_behavior_matrix(5000, seed=11)
        for expr in (kcbs_expression(), monogamy_expression()):
            bound = nd_optimum(expr).value
            values = matrix @ expression_vector(expr)
            assert values.min() >= bound - 1e-9

    def test_witness_exports_to_scenario_json(self):
        witness = nd_optimum(kcbs_expression()).witness
        again = Behavior.from_json(witness.to_json())
        assert np.array_equal(again.probs, witness.probs)

    def test_equality_system_shape(self):
        matrix, rhs = nd_equality_system()
        assert matrix.shape[1] == 80
        assert matrix.shape[0] == rhs.shape[0]
        assert rhs[: len(CONTEXTS)].tolist() == [1.0] * 10
        uniform = np.full(80, 1 / 8)
        assert np.max(np.abs(matrix @ uniform - rhs)) == 0.0


def mutated_certificates():
    """(row name, certificate) for one-entry changes of every committed certificate.

    Each dual entry gains or loses 1; each primal witness moves half a unit
    of mass from one of its columns to the next column of the same context.
    """
    for name, (dual, primal) in ND_CERTIFICATES.items():
        for k in dual:
            yield name, ({**dual, k: dual[k] + 1}, primal)
            yield name, ({**dual, k: dual[k] - 1}, primal)
        for j in primal:
            other = j - j % 8 + (j + 1) % 8
            moved = {**primal, j: primal[j] - 1}
            moved[other] = moved.get(other, 0) + 1
            yield name, (dual, moved)


class TestCertificates:
    def test_every_committed_certificate_checks(self):
        values = [certified_nd_minimum(row) for row in BOUNDS]
        assert values == [-5.0, -4.0] + [-3.0] * 5 + [-2.0] * 5 + [-5.0]
        assert values == [row.nd for row in BOUNDS]
        assert list(ND_CERTIFICATES) == [row.name for row in BOUNDS]

    def test_integer_system_is_cached_read_only_and_exact(self):
        a_int, b_int = nodisturbance._integer_equality_system()
        assert nodisturbance._integer_equality_system()[0] is a_int
        for integer, original in zip((a_int, b_int), nd_equality_system()):
            assert integer.dtype == np.int64 and np.array_equal(integer, original)
            with pytest.raises(ValueError):
                integer[0] = 2

    def test_no_lp_is_solved(self, monkeypatch):
        monkeypatch.setattr(nodisturbance, "linprog", None)
        assert [certified_nd_minimum(row) for row in BOUNDS] == [row.nd for row in BOUNDS]

    def test_every_one_entry_mutation_fails(self, monkeypatch):
        rows = {row.name: row for row in BOUNDS}
        count = 0
        for name, certificate in mutated_certificates():
            monkeypatch.setitem(ND_CERTIFICATES, name, certificate)
            with pytest.raises(InvalidCertificate, match=rf"^{re.escape(name)}: "):
                certified_nd_minimum(rows[name])
            count += 1
        monkeypatch.undo()
        assert count == sum(2 * len(d) + len(p) for d, p in ND_CERTIFICATES.values())

    @pytest.mark.parametrize("shift", [1.0, -1.0, 0.5])
    def test_wrong_expected_value_fails(self, shift):
        for row in BOUNDS:
            with pytest.raises(InvalidCertificate, match=re.escape(row.name)):
                certified_nd_minimum(row._replace(nd=row.nd + shift))

    def test_certificate_of_another_expression_fails(self):
        kcbs, chsh = BOUNDS[0], BOUNDS[1]
        with pytest.raises(InvalidCertificate, match=re.escape("kcbs: no-disturbance certificate fails: c - A^T y")):
            certified_nd_minimum(chsh._replace(name=kcbs.name))

    @pytest.mark.parametrize(
        "dual, condition",
        [({0: 1.0}, "not an int"), ({0: True}, "not an int"), ({116: 1}, "outside"), ({-1: 1}, "outside")],
    )
    def test_malformed_entries_fail(self, monkeypatch, dual, condition):
        _, primal = ND_CERTIFICATES["kcbs"]
        monkeypatch.setitem(ND_CERTIFICATES, "kcbs", (dual, primal))
        with pytest.raises(InvalidCertificate, match=condition):
            certified_nd_minimum(BOUNDS[0])

    def test_missing_certificate_fails(self, monkeypatch):
        monkeypatch.delitem(ND_CERTIFICATES, "chsh")
        with pytest.raises(InvalidCertificate, match="chsh: .*no certificate"):
            certified_nd_minimum(BOUNDS[1])

    def test_rederived_certificates_check(self, monkeypatch):
        # LP duals are not unique across HiGHS versions, so the committed data
        # is not compared; a fresh LP certificate must pass the same checker.
        A_eq, b_eq = nd_equality_system()
        for row in BOUNDS:
            result = nodisturbance.linprog(
                expression_vector(row.expression), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs"
            )
            assert result.success, row.name
            dual = np.rint(result.eqlin.marginals).astype(int)
            primal = np.rint(2 * result.x).astype(int)
            certificate = (
                {int(k): int(dual[k]) for k in np.flatnonzero(dual)},
                {int(j): int(primal[j]) for j in np.flatnonzero(primal)},
            )
            monkeypatch.setitem(ND_CERTIFICATES, row.name, certificate)
            assert certified_nd_minimum(row) == row.nd

    def test_mutation_fails_bounds_and_verify(self, monkeypatch, capsys):
        dual, primal = ND_CERTIFICATES["kcbs+chsh"]
        k = next(iter(dual))
        monkeypatch.setitem(ND_CERTIFICATES, "kcbs+chsh", ({**dual, k: dual[k] + 1}, primal))
        assert cli.main(["bounds"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bound check failed: kcbs+chsh: no-disturbance certificate fails: ")
        assert "Traceback" not in err
        result = verify.check_nd_lp_bounds()
        assert not result.passed
        # the certificate route fails alone; the lower bounds still agree
        assert result.detail.startswith("kcbs+chsh: no-disturbance certificate fails: ")
        assert "lower bound" not in result.detail

    def test_verify_detail_on_a_passing_run(self):
        result = verify.check_nd_lp_bounds()
        assert result.passed
        assert result.detail == "13 certificates exact and lower bounds equal"

    @pytest.mark.parametrize(
        "name, nd, bound",
        [
            ("kcbs", -4.0, -5.0),  # the algebraic bound
            ("c1[1]", -4.0, -3.0),  # enumeration
            ("c1[1]", -5.0, -3.0),  # equals -sum|coeff|, so no branch may be chosen by value
            ("kcbs+chsh", -4.5, -5.0),  # the split
        ],
    )
    def test_lower_bound_route_fails_on_its_own(self, monkeypatch, name, nd, bound):
        monkeypatch.setattr(nodisturbance, "certified_nd_minimum", lambda row: row.nd)
        rows = tuple(row._replace(nd=nd) if row.name == name else row for row in BOUNDS)
        monkeypatch.setattr(classical, "BOUNDS", rows)
        result = verify.check_nd_lp_bounds()
        assert not result.passed
        assert result.detail == f"lower bound mismatches {{{name!r}: {bound!r}}}"

    def test_split_that_is_not_the_sum_fails(self, monkeypatch):
        monkeypatch.setattr(classical, "monogamy_expression", lambda: classical.kcbs_expression())
        result = verify.check_nd_lp_bounds()
        assert not result.passed
        assert result.detail == "c1[5] + c2[5] is not kcbs+chsh"


class TestSampling:
    def test_samples_are_nd(self, nd_behaviors):
        for behavior in nd_behaviors:
            assert check_no_disturbance(behavior) == []

    def test_seed_reproducibility(self):
        first = sample_behavior_matrix(50, seed=21)
        second = sample_behavior_matrix(50, seed=21)
        assert np.array_equal(first, second)

    def test_behavior_objects_round_trip(self):
        behaviors = sample_behaviors(5, seed=8)
        assert len(behaviors) == 5
        for behavior in behaviors:
            assert behavior.probs.shape == (10, 8)


class TestWitnessMixes:
    def test_rows_are_exact_nd_behaviors_on_faces(self):
        rows = witness_mixes(20_000, seed=3)
        matrix, rhs = nd_equality_system()
        assert rows.min() >= 0.0
        assert np.max(np.abs(rows @ matrix.T - rhs)) <= 1e-12
        assert nodisturbance._nd_tables(rows.reshape(-1, 10, 8)).shape == (20_000, 10, 8)
        assert (rows == 0.0).sum(axis=1).min() > 0

    def test_mixes_reach_every_certified_bound(self):
        rows = witness_mixes(20_000, seed=3)
        for row in BOUNDS:
            least = float((rows @ expression_vector(row.expression)).min())
            assert abs(least - row.nd) <= 1e-9, row.name

    @pytest.mark.parametrize("join", [fine_join_c1, fine_join_c2])
    def test_fine_joins_meet_zero_denominators(self, monkeypatch, join):
        zero_denominators = []

        def recording_divide(num, den):
            zero_denominators.append(int((den == 0.0).sum()))
            return safe_divide(num, den)

        safe_divide = nodisturbance._safe_divide
        monkeypatch.setattr(nodisturbance, "_safe_divide", recording_divide)
        probs = witness_mixes(200, seed=5).reshape(-1, 10, 8)
        for pivot in PIVOTS:
            joint = join(probs, pivot)
            assert np.allclose(joint.probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert len(zero_denominators) == len(PIVOTS)
        assert min(zero_denominators) > 0


def one_shot_sample_matrix(count, seed):
    """The sampler drawing ``max(1000, 16 * rows still needed)`` rows per pass,
    at most 200 000: the reference that the chunked draws must reproduce."""
    rng = np.random.default_rng(seed)
    q, uniform = nodisturbance._projector()
    chunks = [np.empty((0, 80))]
    total = 0
    while total < count:
        size = min(200_000, max(1000, 16 * (count - total)))
        raw = rng.dirichlet(np.ones(8), size=(size, 10)).reshape(size, 80)
        raw -= uniform
        raw -= (raw @ q) @ q.T
        raw += uniform
        keep = raw[np.min(raw, axis=1) >= -PROB_TOL]
        tables = np.clip(keep, 0.0, None).reshape(-1, 10, 8)
        tables /= tables.sum(axis=2, keepdims=True)
        chunks.append(tables.reshape(-1, 80))
        total += len(chunks[-1])
    return np.concatenate(chunks)[:count]


class TestChunkedSampler:
    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_bytes_equal_the_one_shot_draw(self, seed):
        for count in (0, 1, 15, 16, 17, 200, 511, 512, 513, 5000):
            got = sample_behavior_matrix(count, seed)
            want = one_shot_sample_matrix(count, seed)
            assert got.shape == want.shape == (count, 80)
            assert got.tobytes() == want.tobytes(), (count, seed)

    def test_draws_whole_chunks(self):
        rng = np.random.default_rng(4)
        sample_behavior_matrix(3, rng)
        reference = np.random.default_rng(4)
        reference.dirichlet(np.ones(8), size=(nodisturbance._SAMPLE_BATCH, 10))
        assert rng.bit_generator.state == reference.bit_generator.state


class TestMonogamyCertificate:
    def test_uniform_behavior(self, uniform_behavior):
        (report,) = monogamy_certificate(uniform_behavior.probs[None])
        assert report.kcbs == 0.0
        assert all(v == 0.0 for v in report.chsh_by_pivot.values())
        assert report.at_most_one_violated

    def test_kcbs_witness_forces_nonnegative_chsh(self):
        witness = nd_optimum(kcbs_expression()).witness
        (report,) = monogamy_certificate(witness.probs[None])
        assert report.kcbs == pytest.approx(-5.0, abs=1e-8)
        for pivot in PIVOTS:
            assert report.chsh_by_pivot[pivot] >= -1e-8
            assert report.sums_by_pivot[pivot] >= -5.0 - 1e-8
        assert report.at_most_one_violated

    def test_chsh_witness_forces_unviolated_kcbs(self):
        witness = nd_optimum(chsh_expression()).witness
        (report,) = monogamy_certificate(witness.probs[None])
        assert min(report.chsh_by_pivot.values()) == pytest.approx(-4.0, abs=1e-8)
        assert report.kcbs >= -1.0 - 1e-8  # kcbs + chsh >= -5 with chsh = -4
        assert report.at_most_one_violated

    def test_every_sampled_behavior_obeys_monogamy(self, nd_behaviors):
        for behavior in nd_behaviors:
            (report,) = monogamy_certificate(behavior.probs[None])
            assert report.at_most_one_violated
            assert min(report.sums_by_pivot.values()) >= -5.0 - 1e-9

    def test_quantum_touching_point_saturates(self):
        from ndmonogamy.region import boundary_state, touching_point

        point = touching_point()
        behavior = behavior_from_state(boundary_state(point.phi, "plus"))
        (report,) = monogamy_certificate(behavior.probs[None])
        best = min(report.sums_by_pivot.values())
        assert best == pytest.approx(-5.0, abs=2e-2)
        assert best == pytest.approx(-5.0, abs=1e-6)

    def test_rejects_disturbing_behavior(self):
        with pytest.raises(NotNoDisturbance):
            monogamy_certificate(disturbing_behavior().probs[None])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_report_rejects_non_finite_values(self, bad):
        # a NaN would read as no violation of either bound
        with pytest.raises(ValueError, match="kcbs must be finite"):
            MonogamyReport(bad, {5: -3.0})
        with pytest.raises(ValueError, match=r"chsh_by_pivot\[5\] must be finite"):
            MonogamyReport(-4.0, {1: -1.0, 5: bad})

    def test_flags_read_the_bound_slack(self, bound_slack):
        report = MonogamyReport(-3.5, {5: -1.0})
        assert report.kcbs_violated and not report.chsh_violated
        bound_slack(1.0)
        assert not report.kcbs_violated and not report.chsh_violated
        assert not MonogamyReport(0.0, {1: -2.9, 5: -1.0}).chsh_violated
        assert MonogamyReport(-4.1, {1: -3.1}).kcbs_violated

    @pytest.mark.parametrize(
        "chsh_by_pivot",
        [
            {},
            {0: -3.0},
            {6: -3.0},
            {5: -3.0, 9: -3.0},
            {True: -2.0},
            {1.0: -2.5},
            {np.float64(2.0): -2.5},
        ],
    )
    def test_report_rejects_empty_or_unknown_pivots(self, chsh_by_pivot):
        # with no CHSH value, or one at no pivot, the tradeoff flag checks nothing
        with pytest.raises(ValueError, match="pivot"):
            MonogamyReport(-4.0, chsh_by_pivot)


class TestFineRecoveryProperty:
    def test_pairwise_marginal_recovery_on_sample(self, nd_behaviors):
        worst = 0.0
        for behavior in nd_behaviors:
            for pivot in PIVOTS:
                joint1 = fine_join_c1(behavior.probs[None], pivot)
                joint2 = fine_join_c2(behavior.probs[None], pivot)
                for joint, expr in (
                    (joint1, c1_expression(pivot)),
                    (joint2, c2_expression(pivot)),
                ):
                    for _, subset in expr.terms:
                        gap = abs(
                            joint.correlator(subset)[0] - correlator(behavior, subset)
                        )
                        worst = max(worst, gap)
        assert worst <= 1e-10


# ---------------------------------------------------------------------------
# reference: the per-behavior construction the stacked sweeps replaced
# ---------------------------------------------------------------------------


def _reference_context_array(behavior, members):
    context = canonical_context(members)
    table = behavior.table(context).reshape(2, 2, 2)
    return np.transpose(table, [context.position(m) for m in members])


def _reference_divide(num, den):
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0.0)
    return out


def reference_fine_join_c1(behavior, pivot):
    i = pivot
    t_a = _reference_context_array(behavior, (alice(i + 1), alice(i + 2), bob(1)))
    t_b = _reference_context_array(behavior, (alice(i + 2), alice(i - 2), bob(1)))
    t_c = _reference_context_array(behavior, (alice(i - 2), alice(i - 1), bob(1)))
    num = np.einsum("pqb,qsb,srb->pqrsb", t_a, t_b, t_c)
    den = np.einsum("qb,sb->qsb", t_b.sum(axis=1), t_c.sum(axis=1))
    variables = (alice(i + 1), alice(i + 2), alice(i - 1), alice(i - 2), bob(1))
    return variables, _reference_divide(num, den[None, :, None, :, :]).ravel()


def reference_fine_join_c2(behavior, pivot):
    i = pivot
    t_prev = _reference_context_array(behavior, (alice(i - 1), alice(i), bob(2)))
    t_next = _reference_context_array(behavior, (alice(i), alice(i + 1), bob(2)))
    num = np.einsum("mib,ipb->mipb", t_prev, t_next)
    variables = (alice(i - 1), alice(i), alice(i + 1), bob(2))
    return variables, _reference_divide(num, t_next.sum(axis=1)[None, :, None, :]).ravel()


def _sequential_dot(signs, probs):
    total = 0.0
    for s, p in zip(signs, probs):
        total += s * p
    return total


def reference_joint_correlator(variables, probs, subset):
    """Marginal of one joint table, then its signed entries added in order."""
    positions = [variables.index(m) for m in subset]
    drop = tuple(k for k in range(len(variables)) if k not in positions)
    summed = probs.reshape((2,) * len(variables)).sum(axis=drop)
    marginal = np.transpose(summed, np.argsort(np.argsort(positions))).ravel()
    signs = [np.prod(t) for t in itertools.product((-1, 1), repeat=len(subset))]
    return _sequential_dot(signs, marginal)


def reference_correlator(behavior, subset):
    context = canonical_context(subset)
    return _sequential_dot(sign_vector(context, subset), behavior.table(context))


def reference_worst_recovery_gap(behaviors):
    """The per-behavior loop of the fine-marginal-recovery check."""
    worst = 0.0
    for behavior in behaviors:
        for pivot in PIVOTS:
            for join, expr in (
                (reference_fine_join_c1, c1_expression(pivot)),
                (reference_fine_join_c2, c2_expression(pivot)),
            ):
                variables, joint = join(behavior, pivot)
                for _, subset in expr.terms:
                    gap = abs(
                        reference_joint_correlator(variables, joint, subset)
                        - reference_correlator(behavior, subset)
                    )
                    worst = max(worst, gap)
    return worst


@pytest.fixture(scope="module")
def sweep_behaviors(nd_behaviors):
    """Sampled behaviors plus every LP witness of the bounds table."""
    witnesses = [nd_optimum(row.expression).witness for row in BOUNDS]
    witnesses.append(nd_optimum(negated(kcbs_expression())).witness)
    return nd_behaviors + witnesses


class TestStackedFineJoins:
    @pytest.mark.parametrize("pivot", PIVOTS)
    def test_stacked_joints_equal_scalar_construction(self, sweep_behaviors, pivot):
        probs = np.stack([b.probs for b in sweep_behaviors])
        for join, reference in (
            (fine_join_c1, reference_fine_join_c1),
            (fine_join_c2, reference_fine_join_c2),
        ):
            joint = join(probs, pivot)
            expected = [reference(b, pivot) for b in sweep_behaviors]
            assert joint.variables == expected[0][0]
            np.testing.assert_array_equal(joint.probs, np.stack([j for _, j in expected]))

    @pytest.mark.parametrize("pivot", PIVOTS)
    def test_stacked_joint_correlators_equal_scalar_ones(self, sweep_behaviors, pivot):
        probs = np.stack([b.probs for b in sweep_behaviors])
        for join, expr in (
            (fine_join_c1, c1_expression(pivot)),
            (fine_join_c2, c2_expression(pivot)),
        ):
            joint = join(probs, pivot)
            for subset in [s for _, s in expr.terms] + [joint.variables[:3]]:
                expected = [
                    reference_joint_correlator(joint.variables, row, subset)
                    for row in joint.probs
                ]
                np.testing.assert_array_equal(joint.correlator(subset), expected)

    def test_one_row_stack_is_the_single_behavior_joint(self, nd_behaviors):
        behavior = nd_behaviors[0]
        for join, reference, expr, size in (
            (fine_join_c1, reference_fine_join_c1, c1_expression(3), 32),
            (fine_join_c2, reference_fine_join_c2, c2_expression(3), 16),
        ):
            joint = join(behavior.probs[None], 3)
            variables, expected = reference(behavior, 3)
            assert joint.probs.shape == (1, size)
            assert joint.probs[0].tobytes() == expected.tobytes()
            assert joint.variables == variables
            for _, subset in expr.terms:
                want = reference_joint_correlator(variables, expected, subset)
                assert joint.correlator(subset).tobytes() == np.array([want]).tobytes()

    def test_empty_stack(self):
        empty = np.empty((0, 10, 8))
        for join, size in ((fine_join_c1, 32), (fine_join_c2, 16)):
            joint = join(empty, 2)
            assert joint.probs.shape == (0, size)
            assert joint.correlator(joint.variables[:2]).shape == (0,)
            assert joint.marginal(joint.variables[:2]).probs.shape == (0, 4)
        assert monogamy_certificate(empty) == []

    def test_rejects_malformed_stack(self, uniform_behavior):
        with pytest.raises(ValueError, match="table stack"):
            fine_join_c1(uniform_behavior.probs, 1)
        unnormalized = np.full((2, 10, 8), 1 / 4)
        with pytest.raises(ValueError, match="sum to"):
            fine_join_c2(unnormalized, 1)

    def test_disturbing_row_names_its_index(self, uniform_behavior):
        disturbing = disturbing_behavior()
        want = check_no_disturbance(disturbing)
        worst = max(v.magnitude for v in want)
        probs = np.stack([uniform_behavior.probs, disturbing.probs])
        for call in (
            lambda: fine_join_c1(probs, 1),
            lambda: fine_join_c2(probs, 1),
            lambda: monogamy_certificate(probs),
        ):
            with pytest.raises(NotNoDisturbance, match="row 1") as excinfo:
                call()
            # the records of check_no_disturbance on that row, and their worst
            assert repr(excinfo.value.violations) == repr(want)
            assert f"(worst marginal gap {worst:.3e} at tolerance" in str(excinfo.value)


def report_fields(report):
    """Every field of a report, floats by ``repr``, so -0.0 differs from 0.0."""
    return repr(dataclasses.astuple(report))


def reference_report(behavior):
    """The report of one behavior from the one-behavior witness values."""
    return MonogamyReport(kcbs_value(behavior), {i: chsh_value(behavior, i) for i in PIVOTS})


class TestStackedCertificates:
    def test_agree_with_scalar_witnesses(self, sweep_behaviors):
        probs = np.stack([b.probs for b in sweep_behaviors])
        reports = monogamy_certificate(probs)
        assert len(reports) == len(sweep_behaviors)
        for behavior, report in zip(sweep_behaviors, reports):
            # the terms are added in the witnesses' own order, so they agree exactly
            assert report_fields(report) == report_fields(reference_report(behavior))

    def test_one_row_stack(self, nd_behaviors):
        (report,) = monogamy_certificate(nd_behaviors[4].probs[None])
        assert report_fields(report) == report_fields(reference_report(nd_behaviors[4]))


def in_order_sum(table, weights):
    """The products of ``table`` and ``weights`` added one after the other in
    outcome order, starting from the first: ``scenario.table_sum`` as a loop."""
    products = [entry * weight for entry, weight in zip(table, weights)]
    total = products[0]
    for product in products[1:]:
        total += product
    return total


def reference_marginal(table, context, assignment):
    """Probability of ``assignment`` under one context's table: its entries
    whose outcome triple matches, by :func:`in_order_sum`."""
    positions = [(context.position(m), v) for m, v in assignment.items()]
    triples = itertools.product((-1, 1), repeat=3)
    weights = [float(all(t[p] == v for p, v in positions)) for t in triples]
    return in_order_sum(table, weights)


def full_scan_violations(probs):
    """Every residual beyond ``ND_TOL`` as a record, with no early exit: the reference scan."""
    matrix, infos = marginal_constraint_rows()
    residuals = matrix @ probs.ravel()
    violations = []
    for k in np.flatnonzero(np.abs(residuals) > ND_TOL):
        info = infos[k]
        assignment = dict(zip(info.subset, info.outcomes))
        a, b = info.context_a, info.context_b
        violations.append(
            NdViolation(
                info.subset,
                a.label,
                b.label,
                info.outcomes,
                reference_marginal(probs[CONTEXTS.index(a)], a, assignment),
                reference_marginal(probs[CONTEXTS.index(b)], b, assignment),
            )
        )
    return violations


def signed_zero_tables():
    """Dirichlet context tables, each with two entries moved onto a third and set to -0.0."""
    probs = np.random.default_rng(30).dirichlet(np.ones(8), size=len(CONTEXTS))
    for row, table in enumerate(probs):
        for column in (row % 8, (row + 3) % 8):
            table[(row + 5) % 8] += table[column]
            table[column] = -0.0
    return probs


class TestTableSum:
    def test_every_sum_is_the_in_order_sum(self):
        # a -0.0 entry gives a -0.0 product, whose sign an in-order sum keeps
        # until a +0.0 or nonzero product joins; Behavior stores +0.0 for it
        probs = signed_zero_tables()
        assert np.signbit(probs[probs == 0.0]).all() and (probs == 0.0).sum() == 20
        behavior = Behavior(probs)
        for context in CONTEXTS:
            for size in (1, 2, 3):
                for subset in itertools.combinations(context.members, size):
                    ctx = canonical_context(subset)
                    signs = [
                        float(math.prod(t[ctx.position(m)] for m in subset))
                        for t in itertools.product((-1, 1), repeat=3)
                    ]
                    want = in_order_sum(behavior.table(ctx), signs)
                    assert repr(correlator(behavior, subset)) == repr(float(want))
                    raw = in_order_sum(probs[CONTEXTS.index(ctx)], signs)
                    assert repr(correlator_many(probs[None], subset)[0]) == repr(raw)
                    for values in itertools.product((-1, 1), repeat=size):
                        assignment = dict(zip(subset, values))
                        want = reference_marginal(behavior.table(context), context, assignment)
                        assert repr(behavior.marginal(context, assignment)) == repr(want)
        joint = JointDistribution(("X", "Y", "Z"), probs)
        for size in (1, 2, 3):
            for subset in itertools.permutations(("X", "Y", "Z"), size):
                signs = [float(math.prod(t)) for t in itertools.product((-1, 1), repeat=size)]
                want = [float(in_order_sum(row, signs)) for row in joint.marginal(subset).probs]
                assert repr(joint.correlator(subset).tolist()) == repr(want)


def straddling_mixtures():
    """Mixtures u + t (d - u) of the uniform and the disturbing behavior at
    adjacent floats t, found by bisection: the worst residual of the first
    is at most ``ND_TOL``, that of the second above it."""
    uniform, disturbing = Behavior.uniform().probs, disturbing_behavior().probs
    matrix, _ = marginal_constraint_rows()

    def mixture(t):
        return Behavior(uniform + t * (disturbing - uniform))

    def worst(t):
        return np.abs(matrix @ mixture(t).probs.ravel()).max()

    lo, hi = 0.0, 1.0
    while np.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        if worst(mid) <= ND_TOL:
            lo = mid
        else:
            hi = mid
    return mixture(lo), mixture(hi)


STACKED_CALLS = [
    lambda probs: fine_join_c1(probs, 5),
    lambda probs: fine_join_c2(probs, 2),
    monogamy_certificate,
]
STACKED_IDS = ["fine_join_c1", "fine_join_c2", "certificate"]


def overshot_witness():
    """u + 1.5 (w - u), u the uniform tables and w the kcbs+chsh certificate's witness."""
    witness = np.zeros(80)
    for column, twice in ND_CERTIFICATES["kcbs+chsh"][1].items():
        witness[column] = twice / 2
    uniform = Behavior.uniform().probs
    return uniform + 1.5 * (witness.reshape(10, 8) - uniform)


def point_mass_as_bools():
    """The tables of the all-plus deterministic behavior, True for 1.0 and False for 0.0."""
    assignment = classical.DeterministicAssignment(MEASUREMENT_IDS, (1,) * len(MEASUREMENT_IDS))
    return classical.behavior_from_assignment(assignment).probs == 1.0


class TestNdViolations:
    def test_early_exit_returns_the_full_scan(self, quantum_behaviors):
        disturbing = disturbing_behavior()
        below, above = straddling_mixtures()
        cases = [*quantum_behaviors, Behavior.uniform(), disturbing, below, above]
        for behavior in cases:
            want = full_scan_violations(behavior.probs)
            assert repr(check_no_disturbance(behavior)) == repr(want)
        assert full_scan_violations(disturbing.probs)
        assert full_scan_violations(below.probs) == []
        assert full_scan_violations(above.probs)

    def test_behavior_verdict_is_the_table_verdict(self, monkeypatch, quantum_behaviors):
        below, above = straddling_mixtures()
        random_tables = np.random.default_rng(31).dirichlet(np.ones(8), size=len(CONTEXTS))
        disturbing = [disturbing_behavior(), above, Behavior(signed_zero_tables())]
        disturbing.append(Behavior(random_tables))
        cases = [*disturbing, below, Behavior.uniform(), *quantum_behaviors]
        want = [repr(nd_violations(behavior.probs)) for behavior in cases]
        assert all(nd_violations(behavior.probs) for behavior in disturbing)

        def unchecked(*args):
            raise AssertionError("a Behavior's tables were checked again")

        # a Behavior's tables passed the table rule once, when it was built
        monkeypatch.setattr(scenario, "_require_real_entries", unchecked)
        assert [repr(check_no_disturbance(behavior)) for behavior in cases] == want

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_table(self, bad):
        probs = Behavior.uniform().probs.copy()
        probs[3, 5] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="NaN or infinity"):
                nd_violations(probs)

    @pytest.mark.parametrize(
        "table, kind",
        [
            ([["0.125"] * 8] * 10, "str"),
            ([[True] + [False] * 7] * 10, "bool"),
            (np.full((10, 8), "0.125"), "str"),
            (np.eye(8, dtype=bool)[[0] * 10], "bool"),
        ],
        ids=["string-list", "bool-list", "string-array", "bool-array"],
    )
    def test_rejects_entries_that_are_not_numbers(self, table, kind):
        # numpy would parse "0.125" and cast True; both used to return []
        message = f"^context A1,A2,B1: entries must be numbers, got {kind}"
        with pytest.raises(ValueError, match=message):
            nd_violations(table)

    @pytest.mark.parametrize("shape", [(80,), (10, 7), (1, 10, 8)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got {shape}")):
            nd_violations(np.full(shape, 1 / 8))

    @pytest.mark.parametrize(
        "call",
        [
            lambda probs: fine_join_c1(probs, 5),
            lambda probs: fine_join_c2(probs, 2),
            monogamy_certificate,
        ],
    )
    def test_stack_with_a_nan_row_names_it(self, call):
        probs = sample_behavior_matrix(6, seed=3).reshape(-1, 10, 8)
        probs[4, 2, 3] = np.nan
        message = "^behavior row 4, context A2,A3,B1: negative or non-finite probability nan$"
        with pytest.raises(ValueError, match=message):
            call(probs)

    @pytest.mark.parametrize("call", STACKED_CALLS, ids=STACKED_IDS)
    @pytest.mark.parametrize(
        "bad_row, message",
        [
            # every marginal agrees, but the row leaves the simplex: the
            # certificate used to report kcbs -4.5 and chsh[5] -3.0
            (overshot_witness(), "negative or non-finite probability -0.0625"),
            # every marginal agrees, but each table sums to 2: the
            # certificate used to report all zeros
            (2 * Behavior.uniform().probs, "probabilities sum to 2.0, not 1"),
            (np.full((10, 8), "0.125"), "entries must be numbers, got str"),
            (point_mass_as_bools(), "entries must be numbers, got bool"),
        ],
        ids=["overshot-witness", "twice-uniform", "strings", "bools"],
    )
    def test_stack_that_is_not_probabilities_names_the_row(self, call, bad_row, message):
        rows = sample_behavior_matrix(4, seed=3).reshape(-1, 10, 8).tolist()
        rows[2] = bad_row.tolist()
        stacks = [rows, np.array(rows)] if bad_row.dtype.kind == "f" else [rows]
        pattern = f"^behavior row 2, context A1,A2,B1: {re.escape(message)}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stack in stacks:
                with pytest.raises(ValueError, match=pattern):
                    call(stack)

    @pytest.mark.parametrize("call", STACKED_CALLS, ids=STACKED_IDS)
    @pytest.mark.parametrize(
        "make, kind",
        [
            (lambda rows: (row for row in rows), "generator"),
            (lambda rows: iter(rows), "list_iterator"),
            (lambda rows: rows[:2] + [iter(rows[2])] + rows[3:], "list_iterator"),
            (lambda rows: [[iter(table) for table in row] for row in rows], "list_iterator"),
        ],
        ids=["generator", "iterator", "iterator-row", "iterator-tables"],
    )
    def test_stack_that_is_not_nested_sequences_is_rejected(self, call, make, kind):
        rows = sample_behavior_matrix(4, seed=3).reshape(-1, 10, 8).tolist()
        message = f"^behavior table stack must be nested lists, tuples or arrays, got {kind}$"
        with pytest.raises(ValueError, match=message):
            call(make(rows))

    @pytest.mark.parametrize("call", STACKED_CALLS, ids=STACKED_IDS)
    def test_nested_list_stack_gives_the_array_bits(self, call):
        probs = witness_mixes(20, seed=4).reshape(-1, 10, 8)
        assert (probs == 0.0).any()
        from_array, from_list = call(probs), call(probs.tolist())
        if isinstance(from_array, JointDistribution):
            assert from_list.probs.tobytes() == from_array.probs.tobytes()
        else:
            assert list(map(report_fields, from_list)) == list(map(report_fields, from_array))


class TestStackVerdict:
    """The joins and the certificate decide no-disturbance row by row, by
    ``check_no_disturbance``'s rule, whatever stack a row sits in."""

    def test_borderline_rows_get_the_one_row_verdict(self):
        # d moves probability within context A1,A2,B1.  At t0 its worst
        # marginal gap is ND_TOL, and the steps of 4e-14 t0 straddle it, where
        # a stacked and a one-row product can round to different sides
        probs = sample_behavior_matrix(400, 5)
        matrix, _ = marginal_constraint_rows()
        d = np.zeros(80)
        d[0], d[7] = 1.0, -1.0
        t0 = ND_TOL / np.abs(matrix @ d).max()
        verdicts, disagree, unrecorded = set(), [], []
        for r in range(len(probs) - 1):
            for k in range(-40, 41, 4):
                q = probs[r] + t0 * (1 + k * 1e-14) * d
                want = bool(check_no_disturbance(Behavior(q.reshape(10, 8))))
                verdicts.add(want)
                try:
                    monogamy_certificate(np.stack([probs[r + 1], q]).reshape(2, 10, 8))
                    raised = None
                except NotNoDisturbance as exc:
                    raised = exc
                if (raised is not None) != want:
                    disagree.append((r, k))
                if raised is not None and not raised.violations:
                    unrecorded.append((r, k))
        assert verdicts == {False, True}
        assert disagree == []
        assert unrecorded == []

    @pytest.mark.parametrize("join", [fine_join_c1, fine_join_c2])
    @pytest.mark.parametrize("pivot", [True, False, 2.5, "1"])
    def test_joins_follow_the_pivot_rule(self, join, pivot):
        # True used to give the pivot-1 joints, and 2.5 to name A3.5
        message = f"^pivot must be an integer, got {re.escape(repr(pivot))}$"
        with pytest.raises(ValueError, match=message):
            join(Behavior.uniform().probs[None], pivot)


class TestEmptySample:
    def test_zero_count(self):
        assert sample_behavior_matrix(0).shape == (0, 80)
        assert sample_behaviors(0) == []

    @pytest.mark.parametrize("count", [-1, -200])
    def test_negative_count(self, count):
        with pytest.raises(ValueError, match=str(count)):
            sample_behavior_matrix(count)
        with pytest.raises(ValueError, match=str(count)):
            sample_behaviors(count)

    @pytest.mark.parametrize(
        "count, shown",
        [(True, "True"), (False, "False"), (2.5, "2.5"), (float("nan"), "nan"), ("3", "'3'")],
    )
    def test_count_that_is_not_an_integer(self, count, shown):
        message = f"^count must be an integer, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            sample_behavior_matrix(count)
        with pytest.raises(ValueError, match=message):
            sample_behaviors(count)

    def test_numpy_integer_count(self):
        rows = sample_behavior_matrix(np.int64(3), seed=5)
        assert rows.tobytes() == sample_behavior_matrix(3, seed=5).tobytes()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: random_states(2.5), "count must be an integer, got 2.5"),
            (lambda: random_states(True), "count must be an integer, got True"),
            (lambda: random_states(-1), "count must be at least 0, got -1"),
            (lambda: list(random_state_blocks(3.0)), "count must be an integer, got 3.0"),
            # at the call, not at the first next()
            (lambda: random_state_blocks(2.5), "count must be an integer, got 2.5"),
            (lambda: random_state_blocks(-1), "count must be at least 0, got -1"),
            (lambda: sample_behavior_matrix(-2), "count must be at least 0, got -2"),
            (lambda: region.region_membership_sweep(0), "samples must be at least 1, got 0"),
            (lambda: region.sample_boundary(1), "n must be at least 2, got 1"),
            (lambda: region.region_membership_sweep(2.5), "samples must be an integer, got 2.5"),
            (lambda: region.region_membership_sweep(True), "samples must be an integer, got True"),
            (lambda: region.sample_boundary(4.0), "n must be an integer, got 4.0"),
            (lambda: region.sample_boundary(True), "n must be an integer, got True"),
        ],
    )
    def test_state_and_boundary_counts_follow_the_count_rule(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_numpy_integer_state_and_boundary_counts(self):
        assert random_states(np.int64(3), seed=5).tobytes() == random_states(3, seed=5).tobytes()
        got, want = region.sample_boundary(np.int32(7)), region.sample_boundary(7)
        for column in ("theta", "phi", "chsh", "kcbs"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
        sweep = region.region_membership_sweep(np.int64(50), seed=1)
        assert sweep == region.region_membership_sweep(50, seed=1)
        assert type(sweep.samples) is int


class TestStackedVerifyChecks:
    def test_fine_recovery_matches_reference_loop(self, monkeypatch):
        monkeypatch.setattr(verify, "ND_BEHAVIOR_COUNT", 40)
        behaviors = sample_behaviors(40, seed=7)
        worst = reference_worst_recovery_gap(behaviors)
        result = verify.check_fine_recovery(7)
        assert result.passed
        assert result.detail == f"40 behaviors x 5 pivots, worst marginal gap {worst:.3g}"

    def test_monogamy_sweep_matches_reference_loop(self, monkeypatch):
        monkeypatch.setattr(verify, "ND_BEHAVIOR_COUNT", 40)
        behaviors = sample_behaviors(40, seed=8)
        worst = min(
            kcbs_value(b) + chsh_value(b, i) for b in behaviors for i in PIVOTS
        )
        result = verify.check_nd_monogamy(7)
        assert result.passed
        assert result.detail == f"min kcbs+chsh over sample {worst:.12g}"

    def test_monogamy_sweep_can_fail(self, monkeypatch):
        passing = verify.check_nd_monogamy(1)
        monkeypatch.setattr(classical, "MONOGAMY_BOUND", -1.5)
        monkeypatch.setattr(region, "MONOGAMY_BOUND", -1.5)
        failing = verify.check_nd_monogamy(1)
        assert passing.passed and not failing.passed
        assert failing.detail == passing.detail
        assert failing.detail.startswith("min kcbs+chsh over sample -2.0158")

    def test_fine_recovery_can_fail(self, monkeypatch):
        stacked = nodisturbance.fine_join_c1

        def perturbed(probs, pivot):
            joint = stacked(probs, pivot)
            joints = joint.probs.copy()
            # entries 4 and 5 differ only in B1: every B1 correlator moves by 1e-6
            joints[17, 5] += 5e-7
            joints[17, 4] -= 5e-7
            return JointDistribution(joint.variables, joints)

        monkeypatch.setattr(nodisturbance, "fine_join_c1", perturbed)
        result = verify.check_fine_recovery(42)
        assert not result.passed
        assert "worst marginal gap 1e-06" in result.detail


class TestScreenedStack:
    """A stack that ``_nd_tables`` screened passes the joins and the
    certificate as it is, with the bits of the raw stack; any other array
    is screened again."""

    @staticmethod
    def raw_stack():
        # sampled rows and certificate face mixes, whose zeros meet the
        # joins' zero denominators
        rows = np.concatenate([sample_behavior_matrix(40, 11), witness_mixes(40, seed=4)])
        return rows.reshape(-1, 10, 8)

    def test_fine_recovery_screens_its_stack_once(self, monkeypatch):
        screens = []
        checked = nodisturbance.probability_tables

        def counting(probs, shape, what, name):
            if what == "behavior table stack":
                screens.append(np.shape(probs))
            return checked(probs, shape, what, name)

        monkeypatch.setattr(nodisturbance, "probability_tables", counting)
        assert verify.check_fine_recovery(42).passed
        assert screens == [(verify.ND_BEHAVIOR_COUNT, 10, 8)]

    def test_screened_stack_gives_the_raw_stack_bits(self):
        raw = self.raw_stack()
        screened = nodisturbance._nd_tables(raw)
        assert screened.tobytes() == raw.tobytes()
        for pivot in PIVOTS:
            for join, expr in (
                (fine_join_c1, c1_expression(pivot)),
                (fine_join_c2, c2_expression(pivot)),
            ):
                want, got = join(raw, pivot), join(screened, pivot)
                assert got.variables == want.variables
                assert got.probs.tobytes() == want.probs.tobytes()
                for _, subset in expr.terms:
                    assert got.correlator(subset).tobytes() == want.correlator(subset).tobytes()
        want = list(map(report_fields, monogamy_certificate(raw)))
        assert list(map(report_fields, monogamy_certificate(screened))) == want

    def test_screened_stack_is_read_only_and_passes_through(self):
        screened = nodisturbance._nd_tables(self.raw_stack())
        assert not screened.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            screened[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            screened.setflags(write=True)
        assert nodisturbance._nd_tables(screened) is screened

    def test_arrays_made_from_a_screened_stack_are_screened_again(self):
        screened = nodisturbance._nd_tables(self.raw_stack())
        disturbing = screened.copy()
        disturbing[1] = disturbing_behavior().probs
        for call in STACKED_CALLS:
            with pytest.raises(NotNoDisturbance, match="row 1"):
                call(disturbing)
            with pytest.raises(ValueError, match="sum to"):
                call(2 * screened)
        assert nodisturbance._nd_tables(screened[:5]) is not screened


class TestSeedRule:
    """Every seeded draw of the package takes a ``Generator`` or an integer
    of at least 0, not a bool."""

    CALLS = [
        lambda seed: sample_behavior_matrix(3, seed),
        lambda seed: random_states(3, seed),
        lambda seed: random_state_blocks(3, seed),
        lambda seed: region.region_membership_sweep(5, seed),
    ]
    IDS = ["sample_behavior_matrix", "random_states", "random_state_blocks", "sweep"]

    @pytest.mark.parametrize("call", CALLS, ids=IDS)
    @pytest.mark.parametrize(
        "seed, message",
        [
            (True, "seed must be an integer, got True"),
            (False, "seed must be an integer, got False"),
            (1.5, "seed must be an integer, got 1.5"),
            ("1", "seed must be an integer, got '1'"),
            (None, "seed must be an integer, got None"),
            (-1, "seed must be at least 0, got -1"),
        ],
    )
    def test_rejects_bool_negative_and_non_integer_seeds(self, call, seed, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**40])
    def test_valid_seeds_draw_numpys_values(self, seed):
        def rng():
            return np.random.default_rng(int(seed))

        want = sample_behavior_matrix(5, rng())
        assert sample_behavior_matrix(5, seed).tobytes() == want.tobytes()
        assert random_states(5, seed).tobytes() == random_states(5, rng()).tobytes()
        got = region.region_membership_sweep(20, seed)
        assert got == dataclasses.replace(region.region_membership_sweep(20, rng()), seed=seed)

    def test_generator_is_drawn_from(self):
        rng = np.random.default_rng(3)
        first, second = random_states(4, rng), random_states(4, rng)
        assert first.tobytes() == random_states(4, 3).tobytes()
        assert first.tobytes() != second.tobytes()


SCIPY_FREE_SCRIPT = textwrap.dedent(
    """
    import contextlib, io, sys

    def scipy_modules():
        return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

    import ndmonogamy
    assert not scipy_modules(), "import ndmonogamy"
    from ndmonogamy import cli, classical, nodisturbance, quantum, region
    from ndmonogamy.scenario import Behavior, check_no_disturbance, chsh_value, kcbs_value

    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["region", "--samples", "4", "--out", sys.argv[1]]) == 0
    assert not scipy_modules(), "region"
    for state in quantum.random_states(3, seed=5):
        behavior = Behavior.from_json(quantum.behavior_from_state(state).to_json())
        assert check_no_disturbance(behavior) == []
        kcbs_value(behavior), chsh_value(behavior)
    region.region_membership_sweep(50, seed=1)
    assert not scipy_modules(), "Born rule"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["bounds"]) == 0
        assert cli.main(["bounds", "--format", "json"]) == 0
    assert not scipy_modules(), "bounds"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--samples", "1000"]) == 0
    assert not scipy_modules(), "verify"
    print(nodisturbance.nd_optimum(classical.kcbs_expression()).value)
    assert scipy_modules(), "nd_optimum"
    """
)


def test_scipy_is_loaded_by_the_first_lp_only(tmp_path):
    src = str(Path(nodisturbance.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_SCRIPT, str(tmp_path / "region")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == pytest.approx(-5.0, abs=1e-9)
