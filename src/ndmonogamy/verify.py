"""Cross-module invariant suite behind the ``verify`` CLI command.

Each check recomputes a property two independent ways (certificate vs
split or algebraic bound, closed form vs matrix quadratic form, LAPACK
eigensolver vs characteristic polynomial, behavior path vs operator path,
eigenvector of M + N vs boundary arm) and reports pass/fail with a short
deterministic detail string, so repeated runs with the same seed produce
identical output.  Expected bounds come from
:data:`ndmonogamy.classical.BOUNDS`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import classical, nodisturbance, quantum, region
from .errors import BlockStructureViolated, InvalidCertificate, NotHermitian
from .scenario import check_no_disturbance, chsh_value, correlator_many, kcbs_value

ND_BEHAVIOR_COUNT = 200
STATE_SPOT_CHECKS = 25
BOUNDARY_PHI_SAMPLES = 100
GRID = 100

# Pass thresholds: each check's worst gap must be at most one of these.
#: entries that are exact in exact arithmetic, a few roundings from their value
ROUNDOFF_TOL = 1e-12
#: two independent routes to the same number: closed form against matrix,
#: eigensolver against characteristic polynomial, behavior against operator
AGREEMENT_TOL = 1e-10
#: routes through the boundary formula: a central difference of step
#: ``region.RESIDUAL_STEP``, or boundary states built from ``boundary_theta``
BOUNDARY_TOL = 1e-8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_classical_bounds() -> CheckResult:
    bad = {}
    for row in classical.BOUNDS:
        got = classical.classical_bound(row.expression).minimum
        if got != row.classical:
            bad[row.name] = got
    return _result(
        "classical-bounds",
        not bad,
        "all enumeration minima exact" if not bad else f"mismatches {bad}",
    )


def _nd_lower_bound(row: classical.BoundRow) -> float:
    """A lower bound on the no-disturbance minimum of ``row``, from no certificate.

    The route follows the row's name family, never its ``nd`` value.  The
    split parts ``c1[i]`` and ``c2[i]`` keep their classical minimum: the
    fine joins, which ``fine-marginal-recovery`` checks, make their terms
    marginals of one joint distribution.  ``kcbs+chsh`` is the paper's
    split, the ``c1[5]`` bound plus the ``c2[5]`` bound.  ``kcbs`` and
    ``chsh`` get ``-sum |coeff|``, since every correlator is at least -1.
    """
    if row.name.startswith(("c1[", "c2[")):
        return classical.classical_bound(row.expression).minimum
    if row.name == "kcbs+chsh":
        return (
            classical.classical_bound(classical.c1_expression(5)).minimum
            + classical.classical_bound(classical.c2_expression(5)).minimum
        )
    return -sum(abs(coeff) for coeff, _ in row.expression.terms)


def check_nd_lp_bounds() -> CheckResult:
    """Every no-disturbance bound two ways, with no LP.

    Its committed certificate proves and attains it, exactly in int64, and
    :func:`_nd_lower_bound` reaches the same value by a route that shares
    no code with the certificate.
    """
    rows = classical.BOUNDS
    try:
        for row in rows:
            nodisturbance.certified_nd_minimum(row)
        failures = []
    except InvalidCertificate as exc:
        failures = [str(exc)]
    split = classical.c1_expression(5) + classical.c2_expression(5)
    if not np.array_equal(
        nodisturbance.expression_vector(split),
        nodisturbance.expression_vector(classical.monogamy_expression()),
    ):
        failures.append("c1[5] + c2[5] is not kcbs+chsh")
    bad = {row.name: bound for row in rows if (bound := _nd_lower_bound(row)) != row.nd}
    if bad:
        failures.append(f"lower bound mismatches {bad}")
    return _result(
        "nd-lp-bounds",
        not failures,
        ", ".join(failures) or f"{len(rows)} certificates exact and lower bounds equal",
    )


def check_fine_recovery(seed: int) -> CheckResult:
    # screened once here, so that the ten joins take the stack as it is
    probs = nodisturbance._nd_tables(
        nodisturbance.sample_behavior_matrix(ND_BEHAVIOR_COUNT, seed).reshape(-1, 10, 8)
    )
    direct = {}  # the 45 terms name 20 subsets
    worst = 0.0
    for pivot in nodisturbance.PIVOTS:
        for join, expr in (
            (nodisturbance.fine_join_c1, classical.c1_expression(pivot)),
            (nodisturbance.fine_join_c2, classical.c2_expression(pivot)),
        ):
            joint = join(probs, pivot)
            for _, subset in expr.terms:
                if subset not in direct:
                    direct[subset] = correlator_many(probs, subset)
                gaps = np.abs(joint.correlator(subset) - direct[subset])
                worst = max(worst, float(gaps.max()))
    return _result(
        "fine-marginal-recovery",
        worst <= AGREEMENT_TOL,
        f"{ND_BEHAVIOR_COUNT} behaviors x {len(nodisturbance.PIVOTS)} pivots, "
        f"worst marginal gap {worst:.3g}",
    )


def check_nd_monogamy(seed: int) -> CheckResult:
    probs = nodisturbance.sample_behavior_matrix(ND_BEHAVIOR_COUNT, seed + 1)
    reports = nodisturbance.monogamy_certificate(probs.reshape(-1, 10, 8))
    worst = min(min(report.sums_by_pivot.values()) for report in reports)
    flags_ok = all(report.at_most_one_violated for report in reports)
    passed = flags_ok and worst >= classical.MONOGAMY_BOUND - classical.BOUND_SLACK
    return _result(
        "nd-monogamy-sweep",
        passed,
        f"min kcbs+chsh over sample {worst:.12g}",
    )


def check_kcbs_spectrum() -> CheckResult:
    op = quantum.kcbs_operator()
    off = float(np.max(np.abs(op - np.diag(np.diag(op)))))
    w, _ = quantum.eigensystem(op)
    expected = np.array(
        [classical.KCBS_QUANTUM_MIN] * 2 + [classical.KCBS_QUANTUM_DEGENERATE] * 4
    )
    gap = float(np.max(np.abs(w - expected)))
    passed = off <= ROUNDOFF_TOL and gap <= AGREEMENT_TOL
    return _result(
        "kcbs-spectrum",
        passed,
        f"off-diagonal {off:.3g}, eigenvalue gap {gap:.3g}",
    )


def check_chsh_block_structure(chsh_matrix: np.ndarray | None = None) -> CheckResult:
    op = quantum.chsh_operator() if chsh_matrix is None else chsh_matrix
    try:
        decomposition = quantum.block_decompose(op)
    except (BlockStructureViolated, NotHermitian) as exc:
        return _result("chsh-block-structure", False, str(exc))
    minus = decomposition.basis_minus.conj().T @ op @ decomposition.basis_minus
    mirror_gap = float(np.max(np.abs(decomposition.m + minus)))
    corner_gap = abs(decomposition.m[0, 0].real - (1.0 - 1.0 / classical.SQRT5))
    passed = mirror_gap <= AGREEMENT_TOL and corner_gap <= AGREEMENT_TOL
    return _result(
        "chsh-block-structure",
        passed,
        f"mirror gap {mirror_gap:.3g}, corner entry gap {corner_gap:.3g}",
    )


def check_bell_block_eigensystem() -> CheckResult:
    m = region.bell_block()
    w, v = quantum.eigensystem(m.astype(complex))
    oracle = quantum.eigvals_characteristic_3x3(m)
    gap_oracle = float(np.max(np.abs(w - oracle)))
    residual = float(np.max(np.abs(m @ v - v * w[None, :])))
    reconstruction = float(
        np.max(np.abs((v * w[None, :]) @ v.conj().T - m))
    )
    lam2_gap = abs(w[2] - 2.0)
    passed = (
        gap_oracle <= AGREEMENT_TOL
        and residual <= AGREEMENT_TOL
        and reconstruction <= AGREEMENT_TOL
        and lam2_gap <= AGREEMENT_TOL
    )
    return _result(
        "bell-block-eigensystem",
        passed,
        f"oracle gap {gap_oracle:.3g}, residual {residual:.3g}, "
        f"lam2 gap {lam2_gap:.3g}",
    )


def check_behavior_operator_consistency(seed: int) -> CheckResult:
    states = quantum.random_states(STATE_SPOT_CHECKS, seed + 2)
    # each row of an operator stack has the bits of a one-operator call;
    # a stack of states would take another BLAS path than one state
    witnesses = np.stack([quantum.kcbs_operator(), quantum.chsh_operator()])
    worst_gap = 0.0
    worst_nd = 0.0
    for psi in states:
        behavior = quantum.behavior_from_state(psi)
        kcbs, chsh = quantum.expectation(witnesses, psi)
        worst_gap = max(
            worst_gap,
            abs(kcbs_value(behavior) - kcbs),
            abs(chsh_value(behavior) - chsh),
        )
        violations = check_no_disturbance(behavior)
        if violations:
            worst_nd = max(worst_nd, max(v.magnitude for v in violations))
    passed = worst_gap <= AGREEMENT_TOL and worst_nd == 0.0
    return _result(
        "behavior-operator-consistency",
        passed,
        f"{STATE_SPOT_CHECKS} states, worst value gap {worst_gap:.3g}",
    )


def check_region_constants() -> CheckResult:
    # The closed forms assume a unit frame in which M has no b-c coupling
    # (no sin 2phi term in expectation_M) and |b> is the minimising axis.
    frame = region.region_basis()
    m = region.bell_block()
    worst = max(
        abs(frame.alpha**2 + frame.beta**2 - 1.0),
        abs(float(frame.b @ m @ frame.c)),
        float(frame.b @ m @ frame.b - frame.c @ m @ frame.c),
    )
    return _result(
        "region-constants",
        worst <= ROUNDOFF_TOL,
        f"frame norm, <b|M|c> and <b|M|b> - <c|M|c> gaps, worst {worst:.3g}",
    )


def check_closed_form_agreement() -> CheckResult:
    worst = region.closed_form_agreement_gap(GRID, GRID)
    return _result(
        "closed-form-agreement",
        worst <= AGREEMENT_TOL,
        f"{GRID}x{GRID} grid, worst gap {worst:.3g}",
    )


def check_boundary_stationarity() -> CheckResult:
    quarter = math.pi / 2
    offsets = np.linspace(0.02, quarter - 0.02, BOUNDARY_PHI_SAMPLES // 4)
    phis = np.add.outer(np.arange(4) * quarter, offsets).ravel()
    worst = float(np.max(np.abs(region.stationarity_residual(phis))))
    return _result(
        "boundary-stationarity",
        worst <= BOUNDARY_TOL,
        f"{len(phis)} phi samples, worst d<M>/dphi {worst:.3g}",
    )


def check_touching_point() -> CheckResult:
    point = region.touching_point()
    w, _ = quantum.eigensystem(region.bell_block() + region.pentagon_block())
    eig_gap = abs(w[0] - classical.MONOGAMY_BOUND)
    low, low_phi, _, _ = (float(c[0]) for c in region._phi_extremes_many([point.theta]))
    phi_gap = abs((low_phi - point.phi + math.pi) % (2 * math.pi) - math.pi)
    arm_gap = max(abs(low - point.chsh), phi_gap)
    passed = eig_gap <= AGREEMENT_TOL and arm_gap <= AGREEMENT_TOL
    return _result(
        "touching-point",
        passed,
        f"eigenvalue gap {eig_gap:.3g}, boundary-arm gap {arm_gap:.3g}",
    )


def check_boundary_states() -> CheckResult:
    quarter = math.pi / 2
    worst = 0.0
    for branch, sign in (("plus", 1.0), ("minus", -1.0)):
        for phi in np.linspace(0.1, quarter - 0.1, 10):
            theta = region.boundary_theta(float(phi))
            state = region.boundary_state(float(phi), branch)
            behavior = quantum.behavior_from_state(state)
            worst = max(
                worst,
                abs(chsh_value(behavior) - sign * region.expectation_M(theta, float(phi))),
                abs(kcbs_value(behavior) - region.expectation_N(theta)),
            )
    return _result(
        "boundary-states",
        worst <= BOUNDARY_TOL,
        f"end-to-end boundary gap {worst:.3g}",
    )


def check_region_membership(samples: int, seed: int) -> CheckResult:
    report = region.region_membership_sweep(samples, seed)
    two_sided = (
        report.kcbs_only_violation_count >= 1
        and report.chsh_only_violation_count >= 1
    )
    return _result(
        "region-membership",
        report.clean and two_sided,
        f"{samples} states, min sum {report.min_sum:.12g}, "
        f"one-sided counts {report.kcbs_only_violation_count}/"
        f"{report.chsh_only_violation_count}",
    )


def verify_all(
    samples: int, seed: int, chsh_matrix: np.ndarray | None = None
) -> list[CheckResult]:
    """Run the full suite.

    ``chsh_matrix`` overrides the Bell operator in the block-structure
    check (fault-injection hook for testing).  The random sweeps grant
    the pointwise monogamy bounds ``classical.BOUND_SLACK``.
    """
    return [
        check_classical_bounds(),
        check_nd_lp_bounds(),
        check_fine_recovery(seed),
        check_nd_monogamy(seed),
        check_kcbs_spectrum(),
        check_chsh_block_structure(chsh_matrix),
        check_bell_block_eigensystem(),
        check_behavior_operator_consistency(seed),
        check_region_constants(),
        check_closed_form_agreement(),
        check_boundary_stationarity(),
        check_touching_point(),
        check_boundary_states(),
        check_region_membership(samples, seed),
    ]


def summary_json(results: list[CheckResult], samples: int, seed: int) -> str:
    return json.dumps(
        {
            "samples": samples,
            "seed": seed,
            "passed": all(r.passed for r in results),
            "checks": [
                {"name": r.name, "passed": r.passed, "detail": r.detail}
                for r in results
            ],
        },
        indent=2,
    )
