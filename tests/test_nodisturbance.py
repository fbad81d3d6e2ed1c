import itertools

import numpy as np
import pytest

from ndmonogamy.classical import (
    c1_expression,
    c2_expression,
    chsh_expression,
    kcbs_expression,
    monogamy_expression,
)
from ndmonogamy.errors import NotNoDisturbance
from ndmonogamy.nodisturbance import (
    JointDistribution,
    expression_vector,
    fine_join_c1,
    fine_join_c2,
    monogamy_certificate,
    nd_equality_system,
    nd_optimum,
    sample_behavior_matrix,
    sample_behaviors,
)
from ndmonogamy.quantum import behavior_from_state
from ndmonogamy.scenario import (
    Behavior,
    alice,
    check_no_disturbance,
    correlator,
    kcbs_value,
)

PIVOTS = (1, 2, 3, 4, 5)


def disturbing_behavior(scenario):
    """Sum over a_{i-1} and a_{i+1} of the B2 tables pin different p(a_i, b2)."""
    tables = {c.label: [1 / 8] * 8 for c in scenario.contexts}
    tables["A1,A2,B1"] = [0, 0, 0, 0, 0, 0, 0, 1.0]
    return Behavior.from_tables(tables)


def bell_like_state():
    """(|00> + |11>)/sqrt(2) in the qutrit-qubit product basis."""
    psi = np.zeros(6, dtype=complex)
    psi[0] = psi[3] = 1 / np.sqrt(2)
    return psi


class TestJointDistribution:
    def test_validates_shape_and_mass(self):
        with pytest.raises(ValueError):
            JointDistribution(("X", "Y"), np.ones(3))
        with pytest.raises(ValueError):
            JointDistribution(("X",), np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            JointDistribution(("X",), np.array([-0.5, 1.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_probability(self, bad):
        with pytest.raises(ValueError):
            JointDistribution(("X", "Y"), np.array([0.25, 0.25, 0.5, bad]))

    def test_marginal_orders_variables_as_requested(self):
        probs = np.arange(8, dtype=float)
        probs /= probs.sum()
        joint = JointDistribution(("X", "Y", "Z"), probs)
        forward = joint.marginal(("X", "Z"))
        swapped = joint.marginal(("Z", "X"))
        assert forward.probs[1] == swapped.probs[2]  # (x=-1,z=+1) vs (z=+1,x=-1)

    def test_correlator_of_uniform_vanishes(self):
        joint = JointDistribution(("X", "Y"), np.full(4, 0.25))
        assert joint.correlator(("X", "Y")) == 0.0


class TestFineJoinC1:
    def test_uniform_behavior_gives_uniform_joint(self, uniform_behavior):
        joint = fine_join_c1(uniform_behavior, 1)
        assert joint.probs.shape == (32,)
        assert np.allclose(joint.probs, 1 / 32, atol=1e-15)
        assert joint.variables == ("A2", "A3", "A5", "A4", "B1")

    def test_bell_state_marginals_recovered(self):
        behavior = behavior_from_state(bell_like_state())
        joint = fine_join_c1(behavior, 1)
        for subset in [("A2", "A3"), ("A2", "B1")]:
            marginal = joint.marginal(subset)
            for k, values in enumerate(itertools.product((-1, 1), repeat=2)):
                context = behavior.scenario.canonical_context(subset)
                direct = behavior.marginal(context, dict(zip(subset, values)))
                assert marginal.probs[k] == pytest.approx(direct, abs=1e-10)

    def test_expression_value_matches_behavior_path(self, nd_behaviors):
        for behavior in nd_behaviors[:10]:
            for pivot in PIVOTS:
                joint = fine_join_c1(behavior, pivot)
                from_joint = sum(
                    coeff * joint.correlator(subset)
                    for coeff, subset in c1_expression(pivot).terms
                )
                direct = c1_expression(pivot).evaluate_behavior(behavior)
                assert from_joint == pytest.approx(direct, abs=1e-10)

    def test_rejects_disturbing_behavior(self, scenario):
        with pytest.raises(NotNoDisturbance):
            fine_join_c1(disturbing_behavior(scenario), 1)


class TestFineJoinC2:
    def test_uniform_behavior_gives_uniform_joint(self, uniform_behavior):
        joint = fine_join_c2(uniform_behavior, 1)
        assert joint.probs.shape == (16,)
        assert np.allclose(joint.probs, 1 / 16, atol=1e-15)
        assert joint.variables == ("A5", "A1", "A2", "B2")

    @pytest.mark.parametrize("pivot", PIVOTS)
    def test_marginalization_identities(self, nd_behaviors, pivot):
        # dropping (a_{i+1}, b2) leaves p(a_{i-1}, a_i); dropping
        # (a_{i-1}, b2) leaves p(a_i, a_{i+1})
        for behavior in nd_behaviors[:10]:
            joint = fine_join_c2(behavior, pivot)
            prev_pair = (alice(pivot - 1), alice(pivot))
            next_pair = (alice(pivot), alice(pivot + 1))
            for pair in (prev_pair, next_pair):
                recovered = joint.marginal(pair)
                context = behavior.scenario.canonical_context(pair)
                for k, values in enumerate(itertools.product((-1, 1), repeat=2)):
                    direct = behavior.marginal(context, dict(zip(pair, values)))
                    assert recovered.probs[k] == pytest.approx(direct, abs=1e-10)

    def test_rejects_disturbing_behavior(self, scenario):
        with pytest.raises(NotNoDisturbance) as excinfo:
            fine_join_c2(disturbing_behavior(scenario), 1)
        assert excinfo.value.violations

    def test_zero_denominators_handled_on_lp_witness(self):
        # the kcbs LP witness has many exact zeros in its tables
        witness = nd_optimum(kcbs_expression()).witness
        for pivot in PIVOTS:
            joint1 = fine_join_c1(witness, pivot)
            joint2 = fine_join_c2(witness, pivot)
            assert joint1.probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert joint2.probs.sum() == pytest.approx(1.0, abs=1e-9)
            for coeff, subset in c1_expression(pivot).terms:
                assert joint1.correlator(subset) == pytest.approx(
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

    def test_witness_attains_optimum_and_is_feasible(self):
        for expr in (kcbs_expression(), chsh_expression(), monogamy_expression()):
            value, witness = nd_optimum(expr)
            assert check_no_disturbance(witness, 1e-8) == []
            assert expr.evaluate_behavior(witness) == pytest.approx(value, abs=1e-8)

    def test_max_sense(self):
        value, witness = nd_optimum(kcbs_expression(), sense="max")
        assert value == pytest.approx(5.0, abs=1e-9)
        assert kcbs_value(witness) == pytest.approx(5.0, abs=1e-8)

    def test_invalid_sense(self):
        with pytest.raises(ValueError):
            nd_optimum(kcbs_expression(), sense="between")

    def test_cyclic_relabeling_invariance(self):
        reference = nd_optimum(kcbs_expression()).value
        for shift in range(1, 5):
            shifted = nd_optimum(kcbs_expression().relabeled(shift)).value
            assert shifted == pytest.approx(reference, abs=1e-9)

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

    def test_equality_system_shape(self, scenario):
        matrix, rhs = nd_equality_system(scenario)
        assert matrix.shape[1] == 80
        assert matrix.shape[0] == rhs.shape[0]
        assert rhs[: len(scenario.contexts)].tolist() == [1.0] * 10
        uniform = np.full(80, 1 / 8)
        assert np.max(np.abs(matrix @ uniform - rhs)) == 0.0


class TestSampling:
    def test_samples_are_nd(self, nd_behaviors):
        for behavior in nd_behaviors:
            assert check_no_disturbance(behavior, 1e-10) == []

    def test_seed_reproducibility(self):
        first = sample_behavior_matrix(50, seed=21)
        second = sample_behavior_matrix(50, seed=21)
        assert np.array_equal(first, second)

    def test_shrink_method_feasible(self, scenario):
        matrix, rhs = nd_equality_system(scenario)
        rows = sample_behavior_matrix(500, seed=3, method="shrink")
        assert rows.min() >= 0.0
        assert np.max(np.abs(rows @ matrix.T - rhs)) < 1e-12

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            sample_behavior_matrix(10, method="walk")

    def test_behavior_objects_round_trip(self):
        behaviors = sample_behaviors(5, seed=8)
        assert len(behaviors) == 5
        for behavior in behaviors:
            assert behavior.probs.shape == (10, 8)


class TestMonogamyCertificate:
    def test_uniform_behavior(self, uniform_behavior):
        report = monogamy_certificate(uniform_behavior)
        assert report.kcbs == 0.0
        assert all(v == 0.0 for v in report.chsh_by_pivot.values())
        assert report.at_most_one_violated

    def test_kcbs_witness_forces_nonnegative_chsh(self):
        witness = nd_optimum(kcbs_expression()).witness
        report = monogamy_certificate(witness)
        assert report.kcbs == pytest.approx(-5.0, abs=1e-8)
        for pivot in PIVOTS:
            assert report.chsh_by_pivot[pivot] >= -1e-8
            assert report.sums_by_pivot[pivot] >= -5.0 - 1e-8
        assert report.at_most_one_violated

    def test_chsh_witness_forces_unviolated_kcbs(self):
        witness = nd_optimum(chsh_expression()).witness
        report = monogamy_certificate(witness)
        assert min(report.chsh_by_pivot.values()) == pytest.approx(-4.0, abs=1e-8)
        assert report.kcbs >= -1.0 - 1e-8  # kcbs + chsh >= -5 with chsh = -4
        assert report.at_most_one_violated

    def test_every_sampled_behavior_obeys_monogamy(self, nd_behaviors):
        for behavior in nd_behaviors:
            report = monogamy_certificate(behavior)
            assert report.at_most_one_violated
            assert min(report.sums_by_pivot.values()) >= -5.0 - 1e-9

    def test_quantum_touching_point_saturates(self):
        from ndmonogamy.region import boundary_state, touching_point

        point = touching_point()
        behavior = behavior_from_state(boundary_state(point.phi, "plus"))
        report = monogamy_certificate(behavior)
        best = min(report.sums_by_pivot.values())
        assert best == pytest.approx(-5.0, abs=2e-2)
        assert best == pytest.approx(-5.0, abs=1e-6)

    def test_rejects_disturbing_behavior(self, scenario):
        with pytest.raises(NotNoDisturbance):
            monogamy_certificate(disturbing_behavior(scenario))

    def test_report_json(self, uniform_behavior):
        import json

        payload = json.loads(monogamy_certificate(uniform_behavior).to_json())
        assert payload["at_most_one_violated"] is True
        assert set(payload["chsh_by_pivot"]) == {"1", "2", "3", "4", "5"}


class TestFineRecoveryProperty:
    def test_pairwise_marginal_recovery_on_sample(self, nd_behaviors):
        worst = 0.0
        for behavior in nd_behaviors:
            for pivot in PIVOTS:
                joint1 = fine_join_c1(behavior, pivot)
                joint2 = fine_join_c2(behavior, pivot)
                for joint, expr in (
                    (joint1, c1_expression(pivot)),
                    (joint2, c2_expression(pivot)),
                ):
                    for _, subset in expr.terms:
                        gap = abs(
                            joint.correlator(subset) - correlator(behavior, subset)
                        )
                        worst = max(worst, gap)
        assert worst <= 1e-10
