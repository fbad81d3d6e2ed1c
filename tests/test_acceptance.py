"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Every expected number is either an exact enumeration
value, a closed form, or comes from an independent oracle computed here
(numpy eigensolvers, characteristic polynomial, finite differences,
random feasible points); printed two-decimal literature values are used
only at their printed precision.
"""

import itertools
import math
import time

import numpy as np

from ndmonogamy import classical, quantum, region, verify
from ndmonogamy.classical import (
    c1_expression,
    c2_expression,
    chsh_expression,
    kcbs_expression,
    monogamy_expression,
)
from ndmonogamy.nodisturbance import (
    PIVOTS,
    expression_vector,
    fine_join_c1,
    fine_join_c2,
    nd_optimum,
    sample_behavior_matrix,
    sample_behaviors,
)
from ndmonogamy.scenario import OUTCOMES, canonical_context

S5 = math.sqrt(5.0)


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_classical_bounds():
    start = time.monotonic()
    values = {
        "kcbs": classical.classical_bound(kcbs_expression()).minimum,
        "chsh": classical.classical_bound(chsh_expression()).minimum,
        "sum": classical.classical_bound(monogamy_expression()).minimum,
    }
    for i in PIVOTS:
        values[f"c1[{i}]"] = classical.classical_bound(c1_expression(i)).minimum
        values[f"c2[{i}]"] = classical.classical_bound(c2_expression(i)).minimum
    elapsed = time.monotonic() - start
    expected = {"kcbs": -3.0, "chsh": -2.0, "sum": -5.0}
    expected.update({f"c1[{i}]": -3.0 for i in PIVOTS})
    expected.update({f"c2[{i}]": -2.0 for i in PIVOTS})
    exact = values == expected
    report(
        1,
        exact and elapsed < 1.0,
        f"enumeration minima exact integers in {elapsed:.3f}s "
        f"(kcbs {values['kcbs']}, chsh {values['chsh']}, sum {values['sum']})",
    )


def test_criterion_02_nd_lp_bounds_with_random_oracle():
    start = time.monotonic()
    lp = {
        "kcbs": nd_optimum(kcbs_expression()).value,
        "chsh": nd_optimum(chsh_expression()).value,
        "sum": nd_optimum(monogamy_expression()).value,
    }
    gaps = [abs(lp["kcbs"] + 5), abs(lp["chsh"] + 4), abs(lp["sum"] + 5)]
    # oracle: one million random feasible behaviors must never beat the LP
    vectors = {
        name: expression_vector(expr)
        for name, expr in (
            ("kcbs", kcbs_expression()),
            ("chsh", chsh_expression()),
            ("sum", monogamy_expression()),
        )
    }
    mins = {name: math.inf for name in vectors}
    for method, count, seed in (("shrink", 900_000, 42), ("reject", 100_000, 43)):
        matrix = sample_behavior_matrix(count, seed=seed, method=method)
        for name, vec in vectors.items():
            mins[name] = min(mins[name], float((matrix @ vec).min()))
    never_beaten = all(mins[name] >= lp[name] - 1e-9 for name in vectors)
    elapsed = time.monotonic() - start
    report(
        2,
        max(gaps) <= 1e-6 and never_beaten and elapsed < 60.0,
        f"LP minima (-5,-4,-5) within {max(gaps):.2e}; 1e6 random feasible "
        f"behaviors never beat them (sample minima kcbs {mins['kcbs']:.3f}, "
        f"chsh {mins['chsh']:.3f}, sum {mins['sum']:.3f}) in {elapsed:.1f}s",
    )


def pair_marginals(variables, joints, pair):
    """(n, 4) marginals of stacked joint tables over ``pair``, in ``pair`` order."""
    tables = joints.reshape((len(joints),) + (2,) * len(variables))
    axes = [1 + variables.index(m) for m in pair]
    others = tuple(k for k in range(1, tables.ndim) if k not in axes)
    summed = tables.sum(axis=others)
    if axes[0] > axes[1]:
        summed = summed.transpose(0, 2, 1)
    return summed.reshape(len(joints), 4)


def test_criterion_03_fine_construction_recovery():
    behaviors = sample_behaviors(1000, seed=2024)
    probs = np.stack([behavior.probs for behavior in behaviors])
    pair_values = list(itertools.product(OUTCOMES, repeat=2))
    direct = {}

    def reference(pair):
        """``Behavior.marginal`` of every behavior over ``pair``, in its first context."""
        if pair not in direct:
            context = canonical_context(pair)
            direct[pair] = np.array(
                [
                    [behavior.marginal(context, dict(zip(pair, values))) for values in pair_values]
                    for behavior in behaviors
                ]
            )
        return direct[pair]

    worst_marginal = 0.0
    worst_identity = 0.0
    for pivot in PIVOTS:
        joint1 = fine_join_c1(probs, pivot)
        joint2 = fine_join_c2(probs, pivot)
        for joint, expr in (
            (joint1, c1_expression(pivot)),
            (joint2, c2_expression(pivot)),
        ):
            for _, subset in expr.terms:
                marginals = pair_marginals(joint.variables, joint.probs, subset)
                gaps = np.abs(marginals - reference(subset))
                worst_marginal = max(worst_marginal, float(gaps.max()))
        # marginalization identities of the Bell-shaped joint
        prev_pair = (classical.alice(pivot - 1), classical.alice(pivot))
        next_pair = (classical.alice(pivot), classical.alice(pivot + 1))
        for pair in (prev_pair, next_pair):
            gaps = np.abs(pair_marginals(joint2.variables, joint2.probs, pair) - reference(pair))
            worst_identity = max(worst_identity, float(gaps.max()))
    report(
        3,
        worst_marginal <= 1e-10 and worst_identity <= 1e-10,
        f"1000 behaviors x 5 pivots: worst marginal gap {worst_marginal:.2e}, "
        f"worst marginalization-identity gap {worst_identity:.2e}",
    )


def test_criterion_04_kcbs_spectrum():
    op = quantum.kcbs_operator()
    off_diag = float(np.max(np.abs(op - np.diag(np.diag(op)))))
    w, _ = quantum.eigensystem(op)
    expected = np.array([5 - 4 * S5] * 2 + [-5 + 2 * S5] * 4)
    gap = float(np.max(np.abs(w - expected)))
    report(
        4,
        gap <= 1e-10 and off_diag <= 1e-12,
        f"eigenvalues {{-5+2*sqrt5 x4, 5-4*sqrt5 x2}} within {gap:.2e}, "
        f"off-diagonal {off_diag:.2e}",
    )


def test_criterion_05_chsh_block_structure():
    op = quantum.chsh_operator()
    decomposition = quantum.block_decompose(op)
    minus = decomposition.basis_minus.conj().T @ op @ decomposition.basis_minus
    cross = op[np.ix_(quantum.PLUS_BLOCK, quantum.MINUS_BLOCK)]
    direct_sum_gap = max(
        float(np.max(np.abs(decomposition.m + minus))),
        float(np.max(np.abs(cross))),
    )
    w, _ = quantum.eigensystem(decomposition.m)
    printed_gap = float(np.max(np.abs(w - np.array([-2.808, 0.336, 2.0]))))
    oracle = quantum.eigvals_characteristic_3x3(np.real(decomposition.m))
    oracle_gap = float(np.max(np.abs(w - oracle)))
    lam2_gap = abs(w[2] - 2.0)
    report(
        5,
        direct_sum_gap <= 1e-10
        and printed_gap <= 1e-3
        and oracle_gap <= 1e-10
        and lam2_gap <= 1e-10,
        f"direct sum gap {direct_sum_gap:.2e}, printed-eigenvalue gap "
        f"{printed_gap:.2e}, characteristic-oracle gap {oracle_gap:.2e}, "
        f"lambda2-2 {lam2_gap:.2e}",
    )


def test_criterion_06_region_constants():
    frame = region.region_basis()
    g = region.gammas()
    printed_gap = max(
        abs(frame.alpha - 0.42),
        abs(frame.beta - 0.91),
        abs(g.g1 - 0.21),
        abs(g.g2 + 0.34),
        abs(g.g3 + 1.38),
        abs(g.g4 - 3.47),
        abs(g.g5 + 1.94),
    )
    # independent recomputation: numpy eigensolver and raw quadratic forms
    m = region.bell_block()
    w2, v2 = np.linalg.eigh(m[:2, :2])
    ref = v2[:, 0] if v2[0, 0] > 0 else -v2[:, 0]
    b = np.array([ref[0], ref[1], 0.0])
    c = np.array([-ref[1], ref[0], 0.0])
    a = np.array([0.0, 0.0, 1.0])
    recompute_gap = max(
        abs(frame.alpha - ref[0]),
        abs(frame.beta - ref[1]),
        abs(g.g1 - a @ m @ a),
        abs(g.g2 - (b @ m @ b + c @ m @ c) / 2),
        abs(g.g3 - (b @ m @ b - c @ m @ c) / 2),
        abs(g.g4 - 2 * (a @ m @ b)),
        abs(g.g5 - 2 * (a @ m @ c)),
    )
    report(
        6,
        printed_gap <= 0.01 and recompute_gap <= 1e-10,
        f"printed-value gap {printed_gap:.3f} (<=0.01), matrix recomputation "
        f"gap {recompute_gap:.2e}",
    )


def test_criterion_07_closed_forms_and_stationarity():
    grid_gap = region.closed_form_agreement_gap(100, 100)
    quarter = math.pi / 2
    offsets = np.linspace(0.02, quarter - 0.02, 25)
    residual = max(
        abs(region.stationarity_residual(k * quarter + float(d)))
        for k in range(4)
        for d in offsets
    )
    report(
        7,
        grid_gap <= 1e-10 and residual <= 1e-8,
        f"100x100 grid agreement {grid_gap:.2e}, worst finite-difference "
        f"stationarity residual over 100 phis {residual:.2e}",
    )


def test_criterion_08_touching_point():
    point = region.touching_point()
    sum_gap = abs(point.chsh + point.kcbs + 5.0)
    coord_gap = max(abs(point.chsh + 2.08), abs(point.kcbs + 2.92))
    classical_distance = math.hypot(point.chsh + 2.0, point.kcbs + 3.0)
    report(
        8,
        sum_gap <= 1e-6 and coord_gap <= 0.01 and classical_distance > 0.05,
        f"chsh+kcbs=-5 within {sum_gap:.2e} at ({point.chsh:.4f}, "
        f"{point.kcbs:.4f}); distance from (-2,-3) is {classical_distance:.3f}",
    )


def test_criterion_09_boundary_states():
    quarter = math.pi / 2
    phis = np.linspace(0.02, quarter - 0.02, 50)
    worst = 0.0
    for branch, sign in (("plus", 1.0), ("minus", -1.0)):
        for phi in phis:
            theta = region.boundary_theta(float(phi))
            state = region.boundary_state(float(phi), branch)
            behavior = quantum.behavior_from_state(state)
            from ndmonogamy.scenario import chsh_value, kcbs_value

            worst = max(
                worst,
                abs(chsh_value(behavior) - sign * region.expectation_M(theta, float(phi))),
                abs(kcbs_value(behavior) - region.expectation_N(theta)),
            )
    report(
        9,
        worst <= verify.BOUNDARY_TOL,
        f"50 phis per branch: boundary-family states land within {worst:.2e} "
        f"of the computed boundary (tolerance {verify.BOUNDARY_TOL:g})",
    )


def test_criterion_10_monogamy_sweep():
    start = time.monotonic()
    report_obj = region.region_membership_sweep(100_000, seed=42)
    elapsed = time.monotonic() - start
    lam1 = region.bell_block_minimum()
    bounds_hold = (
        report_obj.clean
        and report_obj.min_sum >= -5.0 - 1e-9
        and report_obj.min_kcbs >= (5 - 4 * S5) - 1e-9
        and report_obj.min_chsh >= lam1 - 1e-9
    )
    two_sided = (
        report_obj.kcbs_only_violation_count >= 1
        and report_obj.chsh_only_violation_count >= 1
    )
    report(
        10,
        bounds_hold and two_sided and elapsed < 60.0,
        f"1e5 states in {elapsed:.1f}s: min sum {report_obj.min_sum:.4f}, "
        f"min kcbs {report_obj.min_kcbs:.4f}, min chsh {report_obj.min_chsh:.4f}; "
        f"one-sided violations kcbs/chsh {report_obj.kcbs_only_violation_count}/"
        f"{report_obj.chsh_only_violation_count}",
    )
