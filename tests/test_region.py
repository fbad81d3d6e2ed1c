import dataclasses
import io
import itertools
import math
import re
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndmonogamy import classical, cli, region, verify
from ndmonogamy.classical import CHSH_ND_BOUND, MONOGAMY_BOUND
from ndmonogamy.errors import NotHermitian, SingularParameter
from ndmonogamy import quantum
from ndmonogamy.quantum import (
    behavior_from_state,
    chsh_operator,
    eigensystem,
    expectation,
    kcbs_operator,
    random_state_blocks,
    random_states,
)
from ndmonogamy.region import (
    KCBS_QUANTUM_DEGENERATE,
    KCBS_QUANTUM_MIN,
    Boundary,
    RegionPoint,
    _phi_extremes_many,
    bell_block,
    boundary_coefficients,
    boundary_state,
    boundary_theta,
    closed_form_agreement_gap,
    expectation_M,
    expectation_N,
    frame_state,
    gammas,
    pentagon_block,
    region_basis,
    region_membership_sweep,
    sample_boundary,
    stationarity_residual,
    touching_point,
    write_boundary_csv,
    write_csv,
)
from ndmonogamy.scenario import chsh_value, kcbs_value

QUARTER = math.pi / 2
BLOCK = quantum._STATE_BLOCK


def report_fields(report: region.SweepReport) -> str:
    """Every field of a report, floats by ``repr``, so -0.0 differs from 0.0."""
    return repr(dataclasses.astuple(report))


def whole_stack_sweep(samples: int, seed: int) -> region.SweepReport:
    """The reference for the blocked sweep: every state and value at once."""
    states = random_states(samples, seed)
    kcbs = expectation(kcbs_operator(), states)
    chsh = expectation(chsh_operator(), states)
    return reference_report(samples, seed, kcbs, chsh)


def reference_report(
    samples: int, seed: int, kcbs: np.ndarray, chsh: np.ndarray
) -> region.SweepReport:
    """The sweep's report of every state's values, built at once.

    Reads the bounds from ``region`` at call time, so a test can move them.
    """
    total = kcbs + chsh

    def offenders(mask: np.ndarray) -> list[dict]:
        return [
            {"index": int(i), "kcbs": float(kcbs[i]), "chsh": float(chsh[i])}
            for i in np.flatnonzero(mask)[:100]
        ]

    slack = region.BOUND_SLACK
    kcbs_violated = kcbs < region.KCBS_CLASSICAL_BOUND - slack
    chsh_violated = chsh < region.CHSH_CLASSICAL_BOUND - slack
    return region.SweepReport(
        samples=samples,
        seed=seed,
        min_kcbs=float(kcbs.min()),
        min_chsh=float(chsh.min()),
        min_sum=float(total.min()),
        monogamy_violations=offenders(total < region.MONOGAMY_BOUND - slack),
        kcbs_floor_violations=offenders(kcbs < region.KCBS_QUANTUM_MIN - slack),
        chsh_floor_violations=offenders(chsh < region.CHSH_QUANTUM_MIN - slack),
        kcbs_only_violation_count=int(np.sum(kcbs_violated & ~chsh_violated)),
        chsh_only_violation_count=int(np.sum(chsh_violated & ~kcbs_violated)),
    )


def per_theta_phi_extremes(theta: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """((min value, phi), (max value, phi)) over phi at one theta.

    The reference for the stacked solve: ``np.roots`` on this theta's
    quartic in tan(phi/2), libm ``atan`` of every real root, and the
    scalar ``expectation_M`` at each candidate phi (the real roots and pi,
    or 0 and pi where the quartic vanishes), compared as (value, phi mod
    2 pi) tuples.
    """
    g = gammas()
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    a = g.g3 * sin_t * sin_t
    b = g.g4 * sin_t * cos_t
    c = g.g5 * sin_t * cos_t
    coeffs = np.array([-c, 8.0 * a - 2.0 * b, 0.0, -(8.0 * a + 2.0 * b), c])
    candidates = [math.pi]
    if np.max(np.abs(coeffs)) > 1e-15:
        candidates.extend(
            2.0 * math.atan(float(r.real))
            for r in np.roots(coeffs)
            if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))
        )
    else:
        candidates.append(0.0)
    values = [(float(expectation_M(theta, p)), p % (2 * math.pi)) for p in candidates]
    return min(values), max(values)


def per_theta_boundary(n: int) -> list[RegionPoint]:
    """sample_boundary(n) rebuilt one theta at a time from the reference."""
    points = []
    for count, pick in (((n + 1) // 2, 0), (n - (n + 1) // 2, 1)):
        for theta in np.linspace(0.0, QUARTER, count).tolist():
            value, phi = per_theta_phi_extremes(theta)[pick]
            kcbs = float(expectation_N(theta))
            points.append(RegionPoint(value, kcbs, "plus", theta, phi))
            points.append(RegionPoint(-value, kcbs, "minus", theta, phi))
    points.sort(key=lambda p: (p.branch != "plus", p.kcbs, p.chsh))
    return points


COLUMNS = ("phi", "theta", "chsh", "kcbs")


def point_columns(points) -> dict[str, dict[str, list[float]]]:
    """Each branch's phi, theta, chsh and kcbs columns, points in the given order."""
    return {
        branch: {name: [getattr(p, name) for p in points if p.branch == branch] for name in COLUMNS}
        for branch in ("plus", "minus")
    }


def boundary_columns(boundary) -> dict[str, dict[str, list[float]]]:
    """Each branch's columns of a Boundary, rows in ``plus_order`` / ``minus_order``."""
    columns = {}
    for branch, order, chsh in (
        ("plus", boundary.plus_order, boundary.chsh),
        ("minus", boundary.minus_order, -boundary.chsh),
    ):
        values = (boundary.phi, boundary.theta, chsh, boundary.kcbs)
        columns[branch] = {name: c[order].tolist() for name, c in zip(COLUMNS, values)}
    return columns


def per_point_csv(columns) -> str:
    """Boundary CSV text built one f-string row per point from branch columns."""
    rows = ["branch,phi,theta,chsh,kcbs"]
    for branch, c in columns.items():
        for phi, theta, chsh, kcbs in zip(*(c[name] for name in COLUMNS)):
            rows.append(f"{branch},{phi:.17g},{theta:.17g},{chsh:.17g},{kcbs:.17g}")
    return "\n".join(rows) + "\n"


def per_sample_nd_line_csv(n: int) -> str:
    """nd_line.csv text built one f-string row per line sample."""
    rows = ["chsh,kcbs"] + [
        f"{c:.17g},{MONOGAMY_BOUND - c:.17g}" for c in np.linspace(CHSH_ND_BOUND, 1.0, n)
    ]
    return "\n".join(rows) + "\n"


def boundary_csv(boundary) -> str:
    file = io.StringIO()
    write_boundary_csv(file, boundary)
    return file.getvalue()


def _golden_minimize(func, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimizer of a unimodal function on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = func(x1), func(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = func(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = func(x2)
    return (lo + hi) / 2.0


def boundary_minimum_oracle() -> tuple[float, float, float]:
    """(theta, chsh, kcbs) minimizing chsh + kcbs along the lower boundary arm.

    A 201-point grid brackets the minimum and golden-section search refines
    it; this never touches the eigenvector route of ``touching_point``.
    """

    def lower_arm(theta: float) -> float:
        return float(_phi_extremes_many([theta])[0][0])

    def objective(theta: float) -> float:
        return lower_arm(theta) + expectation_N(theta)

    grid = np.linspace(0.0, QUARTER, 201)
    k = int(np.argmin([objective(float(t)) for t in grid]))
    theta = _golden_minimize(objective, float(grid[max(0, k - 1)]), float(grid[min(200, k + 1)]))
    return theta, lower_arm(theta), float(expectation_N(theta))


class TestRegionBasis:
    def test_printed_anchor_values(self):
        frame = region_basis()
        assert frame.alpha == pytest.approx(0.42, abs=0.01)
        assert frame.beta == pytest.approx(0.91, abs=0.01)

    def test_unit_norm(self):
        frame = region_basis()
        assert frame.alpha**2 + frame.beta**2 == pytest.approx(1.0, abs=1e-12)

    def test_b_minimizes_and_c_maximizes_top_plane(self):
        frame = region_basis()
        m = bell_block()
        top = m[:2, :2]
        w = np.linalg.eigvalsh(top)  # independent eigenvalue oracle
        assert frame.b @ m @ frame.b == pytest.approx(w[0], abs=1e-10)
        assert frame.c @ m @ frame.c == pytest.approx(w[1], abs=1e-10)

    def test_frame_is_orthonormal(self):
        frame = region_basis()
        basis = np.stack([frame.a, frame.b, frame.c])
        assert np.max(np.abs(basis @ basis.T - np.eye(3))) < 1e-12


class TestGammas:
    def test_printed_anchor_values(self):
        g = gammas()
        printed = (0.21, -0.34, -1.38, 3.47, -1.94)
        for value, anchor in zip(g, printed):
            assert value == pytest.approx(anchor, abs=0.01)

    def test_match_direct_matrix_elements(self):
        g = gammas()
        m = bell_block()
        frame = region_basis()
        assert g.g1 == pytest.approx(frame.a @ m @ frame.a, abs=1e-12)
        assert g.g4 == pytest.approx(2 * frame.a @ m @ frame.b, abs=1e-12)
        assert g.g5 == pytest.approx(2 * frame.a @ m @ frame.c, abs=1e-12)

    def test_closed_form_agrees_with_quadratic_form_randomly(self):
        rng = np.random.default_rng(31)
        thetas = rng.uniform(0, math.pi, 100)
        phis = rng.uniform(0, 2 * math.pi, 100)
        states = frame_state(thetas, phis)
        direct = np.einsum("ni,ij,nj->n", states, bell_block(), states)
        assert np.max(np.abs(expectation_M(thetas, phis) - direct)) <= 1e-10


class TestClosedForms:
    def test_pentagon_extremes(self):
        assert expectation_N(0.0) == pytest.approx(KCBS_QUANTUM_MIN, abs=1e-12)
        assert expectation_N(QUARTER) == pytest.approx(KCBS_QUANTUM_DEGENERATE, abs=1e-12)

    def test_pentagon_closed_form_keeps_its_sqrt5_bits(self):
        # (m + d) / 2 and (m - d) / 2 of the pentagon spectrum are -sqrt 5
        # and 5 - 3 sqrt 5 to the last bit
        thetas = np.linspace(0.0, math.pi, 10_001)
        sqrt5 = math.sqrt(5.0)
        reference = -sqrt5 + (5.0 - 3.0 * sqrt5) * np.cos(2 * thetas)
        assert np.array_equal(expectation_N(thetas), reference)
        assert [expectation_N(t) for t in thetas.tolist()] == reference.tolist()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: expectation_M("1", 0.3), "theta entries must be real numbers, got ['str']"),
            (lambda: expectation_M(0.3, "1"), "phi entries must be real numbers, got ['str']"),
            (lambda: expectation_M([0.3, True], 0.3), "theta entries must be real numbers, got ['bool']"),
            (lambda: expectation_M(0.3, None), "phi entries must be real numbers, got ['NoneType']"),
            (lambda: expectation_M(0.3, 1j), "phi entries must be real numbers, got ['complex']"),
            (lambda: expectation_N("1"), "theta entries must be real numbers, got ['str']"),
            (lambda: expectation_N(np.array([True])), "theta entries must be real numbers, got ['bool']"),
            (lambda: expectation_N(np.array(["1"])), "theta entries must be real numbers, got ['str']"),
            (lambda: stationarity_residual("1.0"), "phi entries must be real numbers, got ['str']"),
            (lambda: stationarity_residual([0.3, None]), "phi entries must be real numbers, got ['NoneType']"),
            (lambda: frame_state(0.3, False), "phi entries must be real numbers, got ['bool']"),
        ],
    )
    def test_closed_forms_reject_entries_that_are_not_real_numbers(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_closed_forms_take_numeric_python_and_numpy_entries(self):
        assert expectation_M([0.3, np.float32(0.5)], 1).tolist() == [
            expectation_M(0.3, 1.0), expectation_M(float(np.float32(0.5)), 1.0)
        ]
        assert expectation_N(np.arange(3)).tolist() == [expectation_N(k) for k in range(3)]
        assert stationarity_residual(np.array([0.3])).tolist() == [stationarity_residual(0.3)]

    def test_array_calls_equal_scalar_calls_bit_for_bit(self, monkeypatch):
        # On this grid x * x and libm pow(x, 2) round some squares apart.
        # Besides phi = 1, the phis are the candidates of the stacked root
        # solve, recorded from its own calls; root slots that hold no real
        # root are 0 and are skipped.
        grid = np.linspace(0.0, QUARTER, 50_000)
        recorded = []

        def recording(theta, phi):
            recorded.append((theta, phi))
            return expectation_M(theta, phi)

        monkeypatch.setattr(region, "expectation_M", recording)
        _phi_extremes_many(grid)
        monkeypatch.undo()
        mismatches = 0
        for theta, phi in [(grid, 1.0), *recorded]:
            thetas, phis = np.broadcast_arrays(theta, phi)
            keep = phis != 0.0
            stacked = expectation_M(theta, phi)[keep]
            pairs = zip(thetas[keep].tolist(), phis[keep].tolist())
            mismatches += int(np.sum(stacked != [expectation_M(t, p) for t, p in pairs]))
        assert mismatches == 0
        assert recorded

    def test_grid_agreement(self):
        assert closed_form_agreement_gap(100, 100) <= 1e-10

    def test_agreement_check_catches_a_shifted_coefficient(self, monkeypatch):
        shifted = gammas()._replace(g4=gammas().g4 + 1e-6)
        monkeypatch.setattr(region, "gammas", lambda: shifted)
        assert not verify.check_closed_form_agreement().passed

    @pytest.mark.parametrize("angle", [1e-6, -1e-6, math.pi / 2])
    def test_region_constants_check_catches_a_rotated_frame(self, monkeypatch, angle):
        # Rotating b and c within their plane couples them through M (1e-6)
        # or hands the minimising axis to c (pi/2); the norm stays exact.
        frame = region_basis()
        cos, sin = math.cos(angle), math.sin(angle)
        alpha = cos * frame.alpha - sin * frame.beta
        beta = cos * frame.beta + sin * frame.alpha
        b = cos * frame.b + sin * frame.c
        c = -sin * frame.b + cos * frame.c
        rotated = region.RegionBasis(frame.a, b, c, alpha, beta)
        assert np.allclose(b, [alpha, beta, 0.0]) and np.allclose(c, [-beta, alpha, 0.0])
        monkeypatch.setattr(region, "region_basis", lambda: rotated)
        assert not verify.check_region_constants().passed

    def test_boundary_reaches_bell_minimum(self):
        lam1 = region.CHSH_QUANTUM_MIN
        assert sample_boundary(800).chsh.min() == pytest.approx(lam1, abs=1e-3)

    def test_frame_state_is_unit(self):
        rng = np.random.default_rng(3)
        thetas = rng.uniform(0, math.pi, 20)
        phis = rng.uniform(0, 2 * math.pi, 20)
        states = frame_state(thetas, phis)
        assert states.shape == (20, 3)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) <= 1e-12
        for theta, phi, state in zip(thetas.tolist(), phis.tolist(), states):
            assert np.array_equal(frame_state(theta, phi), state)


class TestBoundaryTheta:
    def test_stationarity_on_hundred_samples(self):
        offsets = np.linspace(0.02, QUARTER - 0.02, 25)
        for quadrant in range(4):
            for offset in offsets:
                phi = quadrant * QUARTER + float(offset)
                assert abs(stationarity_residual(phi)) <= 1e-8

    def test_array_call_equals_scalar_calls_bit_for_bit(self):
        offsets = np.linspace(0.02, QUARTER - 0.02, 25)
        phis = [k * QUARTER + float(d) for k in range(4) for d in offsets]
        scalar = [stationarity_residual(phi) for phi in phis]
        assert {type(r) for r in scalar} == {float}
        array = stationarity_residual(np.array(phis))
        assert array.shape == (100,) and array.tobytes() == np.array(scalar).tobytes()
        grid = stationarity_residual(np.array(phis).reshape(4, 25))
        assert grid.shape == (4, 25) and grid.tobytes() == array.tobytes()

    def test_verify_worst_is_the_scalar_maximum(self, monkeypatch):
        offsets = np.linspace(0.02, QUARTER - 0.02, verify.BOUNDARY_PHI_SAMPLES // 4)
        worst = max(
            abs(stationarity_residual(k * QUARTER + d)) for k in range(4) for d in offsets
        )
        result = verify.check_boundary_stationarity()
        assert result.detail == f"100 phi samples, worst d<M>/dphi {worst:.3g}"
        # the check passes at a threshold of exactly that worst value, not one ulp below
        monkeypatch.setattr(verify, "BOUNDARY_TOL", worst)
        assert verify.check_boundary_stationarity().passed
        monkeypatch.setattr(verify, "BOUNDARY_TOL", math.nextafter(worst, 0.0))
        assert not verify.check_boundary_stationarity().passed

    @pytest.mark.parametrize("phi", [0.0, QUARTER, math.pi, 3 * QUARTER, 2 * math.pi])
    def test_singular_parameters_raise(self, phi):
        with pytest.raises(SingularParameter):
            boundary_theta(phi)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [boundary_theta, boundary_state])
    def test_non_finite_phi_is_named(self, entry, phi):
        with pytest.raises(ValueError, match=f"phi must be finite, got {phi}"):
            entry(phi)

    def test_result_in_range(self):
        for phi in np.linspace(0.05, 2 * math.pi - 0.05, 50):
            try:
                theta = boundary_theta(float(phi))
            except SingularParameter:
                continue
            assert 0.0 <= theta < math.pi

    def test_limit_toward_half_pi_hits_c_direction_extremum(self):
        # 1-d oracle: the top-plane circle's maximal Bell expectation sits
        # exactly at the c vector, which the boundary approaches as phi -> pi/2
        phis_top = np.linspace(0, 2 * math.pi, 4001)
        top_max = max(expectation_M(QUARTER, float(p)) for p in phis_top)
        phi = QUARTER - 1e-4
        theta = boundary_theta(phi)
        assert expectation_M(theta, phi) == pytest.approx(top_max, abs=1e-3)
        assert expectation_N(theta) == pytest.approx(
            expectation_N(QUARTER), abs=1e-6
        )

    def test_boundary_dominates_dense_interior_grid(self):
        # no interior point at the same pentagon value may undercut the
        # lower branch or exceed the upper branch
        boundary = sample_boundary(60)
        phis = np.linspace(0.0, 2 * math.pi, 2000, endpoint=False)
        for theta in np.unique(boundary.theta):
            chsh = boundary.chsh[boundary.theta == theta]
            values = expectation_M(theta, phis)
            assert values.min() >= chsh.min() - 1e-8
            assert values.max() <= chsh.max() + 1e-8


ORACLE_THETAS = np.concatenate(
    [np.linspace(0.0, QUARTER, 2001), [0.0, QUARTER, 1.7, 2.2, 2.9, math.pi - 1e-3]]
)


class TestStackedPhiExtremes:
    def _assert_matches_reference(self, thetas):
        lo, lo_phi, hi, hi_phi = _phi_extremes_many(thetas)
        mismatches = []
        for i, theta in enumerate(thetas.tolist()):
            (ref_lo, ref_lo_phi), (ref_hi, ref_hi_phi) = per_theta_phi_extremes(theta)
            got = (lo[i], lo_phi[i], hi[i], hi_phi[i])
            if got != (ref_lo, ref_lo_phi, ref_hi, ref_hi_phi):
                mismatches.append(theta)
        assert mismatches == []

    def test_bit_identical_to_per_theta_roots(self):
        self._assert_matches_reference(ORACLE_THETAS)

    def test_thetas_where_pow_and_product_squares_differ(self):
        # the reference squares cos and sin with libm pow; on the default
        # region grid some thetas round x * x differently
        grid = np.linspace(0.0, QUARTER, 50_000)
        differ = [
            theta
            for theta in grid.tolist()
            if math.pow(math.cos(theta), 2.0) != math.cos(theta) * math.cos(theta)
            or math.pow(math.sin(theta), 2.0) != math.sin(theta) * math.sin(theta)
        ]
        if not differ:
            pytest.skip("libm pow(x, 2) equals x * x on every grid theta here")
        self._assert_matches_reference(np.array(differ))

    @pytest.mark.parametrize(
        "block, thetas",
        [
            (7, ORACLE_THETAS[::13]),
            (1, ORACLE_THETAS[::13]),
            # one full block of the default size, then a 1-row tail
            (4096, np.linspace(0.0, QUARTER, 4097)),
        ],
        ids=["7", "1", "4096-and-tail"],
    )
    def test_block_layout_does_not_matter(self, monkeypatch, block, thetas):
        monkeypatch.setattr(region, "_EXTREMES_BLOCK", block)
        self._assert_matches_reference(thetas)

    def test_theta_zero_tie_break(self):
        lo, lo_phi, hi, hi_phi = _phi_extremes_many([0.0])
        assert lo[0] == hi[0] == gammas().g1
        assert lo_phi[0] == 0.0
        assert hi_phi[0] == math.pi

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 60, 101])
    def test_sample_boundary_matches_per_theta_build(self, n):
        boundary = sample_boundary(n)
        reference = point_columns(per_theta_boundary(n))
        assert boundary_columns(boundary) == reference
        assert boundary_csv(boundary) == per_point_csv(reference)


class TestSampleBoundary:
    def test_point_counts_per_branch(self):
        boundary = sample_boundary(100)
        assert len(boundary) == 200
        assert len(boundary.plus_order) == len(boundary.minus_order) == 100

    def test_minimum_kcbs_is_quantum_floor(self):
        boundary = sample_boundary(100)
        assert boundary.kcbs.min() == pytest.approx(KCBS_QUANTUM_MIN, abs=1e-6)

    def test_all_points_respect_monogamy(self):
        for c in boundary_columns(sample_boundary(400)).values():
            assert min(np.add(c["chsh"], c["kcbs"])) >= -5.0 - 1e-9

    def test_minus_branch_is_mirrored_plus_branch(self):
        columns = boundary_columns(sample_boundary(80))
        plus, minus = columns["plus"], columns["minus"]
        assert sorted(zip(plus["kcbs"], plus["chsh"])) == sorted(
            zip(minus["kcbs"], np.negative(minus["chsh"]).tolist())
        )

    def test_sorted_by_kcbs_within_branch(self):
        for c in boundary_columns(sample_boundary(50)).values():
            assert c["kcbs"] == sorted(c["kcbs"])

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            sample_boundary(1)

    def test_csv_rows_format(self):
        rows = boundary_csv(sample_boundary(4)).splitlines()
        assert rows[0] == "branch,phi,theta,chsh,kcbs"
        assert len(rows) == 9
        branch, phi, theta, chsh, kcbs = rows[1].split(",")
        assert branch in ("plus", "minus")
        float(phi), float(theta), float(chsh), float(kcbs)


class TestBoundarySequence:
    def test_columns_are_read_only(self):
        boundary = sample_boundary(6)
        for column in (boundary.theta, boundary.chsh, boundary.plus_order):
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_one_extremes_solve_for_both_arms_of_even_n(self, monkeypatch):
        calls = []
        real = region._phi_extremes_many

        def counted(thetas):
            calls.append(len(thetas))
            return real(thetas)

        monkeypatch.setattr(region, "_phi_extremes_many", counted)
        sample_boundary(10)
        assert calls == [5]
        calls.clear()
        sample_boundary(11)
        assert calls == [6, 5]

    def test_equal_points_keep_lower_arm_first(self):
        # theta = 0 gives the same (chsh, kcbs) on both arms, at phi 0 and pi
        columns = boundary_columns(sample_boundary(4))
        assert columns["plus"]["chsh"][0] == columns["plus"]["chsh"][1]
        assert columns["plus"]["phi"][:2] == columns["minus"]["phi"][:2] == [0.0, math.pi]

    @pytest.mark.parametrize(
        "arm,index,value,message",
        [
            ("lo", 2, math.nan, "non-finite"),
            ("hi", 4, -math.inf, "non-finite"),
            ("hi", 3, -10.0, "point (-10.0, "),
            ("lo", 1, 10.0, "point (-10.0, "),
        ],
    )
    def test_columnar_check_rejects_bad_extremes(self, monkeypatch, arm, index, value, message):
        real = region._phi_extremes_many

        def corrupted(thetas):
            lo, lo_phi, hi, hi_phi = (c.copy() for c in real(thetas))
            (lo if arm == "lo" else hi)[index] = value
            return lo, lo_phi, hi, hi_phi

        monkeypatch.setattr(region, "_phi_extremes_many", corrupted)
        with pytest.raises(ValueError) as excinfo:
            sample_boundary(12)
        assert message in str(excinfo.value)

    def test_columnar_check_names_first_offender(self):
        with pytest.raises(ValueError, match=r"point \(-7\.0, -3\.0\)"):
            Boundary(
                theta=[0.1, 0.2, 0.3],
                phi=[1.0, 1.0, 1.0],
                chsh=[0.0, 7.0, -8.0],
                kcbs=[-3.0, -3.0, -3.0],
            )

    @pytest.mark.parametrize("column", ["theta", "phi", "kcbs"])
    def test_columnar_check_rejects_non_finite_shared_columns(self, column):
        columns = {"theta": [0.1, 0.2], "phi": [1.0, 1.0], "chsh": [0.0, 0.5], "kcbs": [-3.0, -3.0]}
        columns[column] = [columns[column][0], math.inf]
        with pytest.raises(ValueError, match="non-finite"):
            Boundary(**columns)

    def test_non_finite_point_is_named_before_an_earlier_point_below(self):
        with pytest.raises(ValueError, match=r"point \(0\.5, inf\) has a non-finite entry"):
            Boundary(theta=[0.1, 0.2], phi=[1.0, 1.0], chsh=[7.0, 0.5], kcbs=[-3.0, math.inf])

    def test_check_memory_stays_at_column_size(self):
        # the (row, branch)-ordered check built 2n-long copies of every
        # column: sample_boundary(100000) peaked at 22.0 MB for a 4.8 MB result
        sample_boundary(100)  # fill the caches
        tracemalloc.start()
        try:
            sample_boundary(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14e6

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="equal length"):
            Boundary(theta=[0.1, 0.2], phi=[1.0], chsh=[0.0, 0.0], kcbs=[-3.0, -3.0])


def assert_formats_as_17g(values) -> None:
    """write_csv writes format(x, ".17g") of every entry, one line each."""
    values = np.asarray(values, dtype=float).ravel()
    file = io.StringIO()
    write_csv(file, "x", values)
    lines = file.getvalue().split("\n")
    assert lines[0] == "x" and lines[-1] == "" and len(lines) == len(values) + 2
    mismatches = [
        (x, got, want)
        for x, got, want in zip(
            values.tolist(), lines[1:-1], (format(x, ".17g") for x in values.tolist())
        )
        if got != want
    ]
    assert mismatches[:5] == []


def exponent_and_zero_words(x: float) -> tuple[int, int]:
    """(e10, k): the decimal exponent of x and how many of the four 4-digit
    words after its lead digit, at 17 significant digits, are all zeros at
    the end."""
    mantissa, e10 = format(x, ".16e").split("e")
    words = re.findall("....", mantissa[2:])
    return int(e10), len(list(itertools.takewhile("0000".__eq__, reversed(words))))


def dyadic_ties(per_exponent: int, seed: int) -> np.ndarray:
    """Values k / 2**(17 - e) with odd k and 10**e <= x < 10**(e + 1), for
    e = -4..15.  Each has exactly 18 significant digits, the last a 5, so
    rounding it to 17 digits is an exact tie."""
    rng = np.random.default_rng(seed)
    values = []
    for e in range(-4, 16):
        scale = 2 ** (17 - e)
        lo = math.ceil(Fraction(10) ** e * scale)
        hi = min(math.ceil(Fraction(10) ** (e + 1) * scale), 2**53)
        odd = rng.integers(lo // 2, hi // 2, per_exponent) * 2 + 1
        values.append(np.ldexp(odd.astype(float), e - 17))
    return np.concatenate(values)


class TestCsvFloats:
    def test_powers_of_ten_and_twenty_ulps_around(self):
        powers = np.array([float(f"1e{e}") for e in range(-330, 309)])
        bits = powers.view(np.int64)[:, None] + np.arange(-20, 21)
        values = bits[bits >= 0].view(np.float64)
        assert_formats_as_17g(np.concatenate([values, -values]))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20260)
        assert_formats_as_17g(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64))

    def test_log_uniform_values_across_the_fixed_window(self):
        rng = np.random.default_rng(20261)
        values = 10.0 ** rng.uniform(-7.0, 18.0, 200000)
        assert_formats_as_17g(values * rng.choice([-1.0, 1.0], len(values)))

    def test_exact_ties_round_half_to_even(self):
        values = dyadic_ties(2000, seed=20262)
        for x in values[::97].tolist():
            digits = Decimal(x).as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5, x
        assert_formats_as_17g(np.concatenate([values, -values]))

    def test_short_decimals_with_every_count_of_all_zero_words(self):
        # random bit patterns almost never end their 17 digits in zeros; the
        # trailing-zeros-as-NUL words and the point mark need them at every
        # decimal exponent of the fixed window, in both signs
        bases = [1, 5, 12, 1234, 123456, 12345678, 1234567890, 1234567890123, 1234567890123457]
        values = np.array(
            [
                x
                for base in bases
                for d in range(base, base + 10)
                for e in range(-30, 20)
                if 1e-4 <= (x := d * 10.0**e) < 1e16
            ]
        )
        reached = set(map(exponent_and_zero_words, values.tolist()))
        assert reached == {(e10, zeros) for e10 in range(-4, 16) for zeros in range(5)}
        assert_formats_as_17g(np.concatenate([values, -values]))

    def test_window_edges_zeros_subnormals_and_non_finite(self):
        edges = np.array([1e-4, 1e16])
        bits = edges.view(np.int64)[:, None] + np.arange(-3, 4)
        special = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e-310, math.inf, -math.inf, math.nan]
        values = np.concatenate([bits.view(np.float64).ravel(), special])
        assert_formats_as_17g(np.concatenate([values, -values]))

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_every_finite_double(self, x):
        assert_formats_as_17g([x])


class TestRegionExport:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 60, 101])
    def test_cli_files_match_per_point_build(self, n, tmp_path, capsys):
        assert cli.main(["region", "--samples", str(n), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "boundary.csv").read_bytes() == per_point_csv(
            point_columns(per_theta_boundary(n))
        ).encode()
        assert (tmp_path / "touching_point.csv").read_bytes() == per_point_csv(
            point_columns([touching_point()])
        ).encode()
        assert (tmp_path / "nd_line.csv").read_bytes() == per_sample_nd_line_csv(n).encode()
        assert f"wrote {2 * n} boundary points, {n} line samples" in capsys.readouterr().out

    def test_minus_branch_strings_are_negated_plus_strings(self):
        # the minus chsh is formatted from -chsh; 0.0 and -0.0 come out as "-0" and "0"
        boundary = Boundary(
            theta=[0.1, 0.2, 0.3],
            phi=[1.0, 2.0, 3.0],
            chsh=[0.0, -0.0, -1.25e-7],
            kcbs=[-3.0, -2.0, -1.0],
        )
        assert boundary_csv(boundary) == per_point_csv(boundary_columns(boundary))

    @pytest.mark.parametrize("n", [2000, 2001])
    def test_writer_matches_per_point_rows(self, n):
        # 2000: both arms on one theta grid; 2001: arms on different grids
        boundary = sample_boundary(n)
        assert boundary_csv(boundary) == per_point_csv(boundary_columns(boundary))

    def test_signed_zeros_in_every_column_keep_their_strings(self):
        # a dedup on float values would merge 0.0 and -0.0, which .17g
        # prints as "0" and "-0"
        boundary = Boundary(
            theta=[0.0, -0.0, 0.5, -0.0, 0.0],
            phi=[-0.0, 0.0, 0.0, 1.0, -0.0],
            chsh=[0.0, -0.0, -0.0, 0.0, 0.25],
            kcbs=[-0.0, 0.0, -3.0, 0.0, -0.0],
        )
        text = boundary_csv(boundary)
        assert text == per_point_csv(boundary_columns(boundary))
        rows = [line.split(",") for line in text.splitlines()[1:]]
        for name, column in zip(COLUMNS, list(zip(*rows))[1:]):
            assert {"0", "-0"} <= set(column), name

    def test_writer_memory_stays_at_block_size(self):
        # formatting whole columns at once would peak near 40 MB here
        class CharCounter:
            count = 0

            def write(self, text):
                self.count += len(text)
                return len(text)

        boundary = sample_boundary(100000)
        sink = CharCounter()
        tracemalloc.start()
        try:
            write_boundary_csv(sink, boundary)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.count == 16737057
        assert peak < 12e6

    def test_rows_are_written_in_blocks(self, monkeypatch):
        monkeypatch.setattr(region, "_CSV_BLOCK", 3)
        writes = []

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        file = Recorder()
        boundary = sample_boundary(7)
        write_boundary_csv(file, boundary)
        assert file.getvalue() == per_point_csv(boundary_columns(boundary))
        # the header, then each branch's 7 rows in blocks of at most 3
        assert [text.count("\n") for text in writes] == [1, 3, 3, 1, 3, 3, 1]


class TestTouchingPoint:
    def test_saturates_monogamy_line(self):
        point = touching_point()
        assert point.chsh + point.kcbs == pytest.approx(-5.0, abs=1e-6)

    def test_printed_coordinates(self):
        point = touching_point()
        assert point.chsh == pytest.approx(-2.08, abs=0.01)
        assert point.kcbs == pytest.approx(-2.92, abs=0.01)

    def test_not_the_classical_corner(self):
        point = touching_point()
        distance = math.hypot(point.chsh + 2.0, point.kcbs + 3.0)
        assert distance > 0.05

    def test_matches_boundary_minimisation_oracle(self):
        theta, chsh, kcbs = boundary_minimum_oracle()
        point = touching_point()
        assert point.theta == pytest.approx(theta, abs=1e-7)
        assert point.chsh == pytest.approx(chsh, abs=1e-7)
        assert point.kcbs == pytest.approx(kcbs, abs=1e-7)

    def test_lowest_eigenvalue_of_m_plus_n_is_monogamy_bound(self):
        w = np.linalg.eigvalsh(bell_block() + pentagon_block())
        assert w[0] == pytest.approx(-5.0, abs=1e-12)

    def test_only_the_plus_branch_touches(self):
        m, n = bell_block(), pentagon_block()
        w, _ = eigensystem((n - m).astype(complex))
        assert w[0] > -5.0 + 1e-3


class TestBoundaryStates:
    def test_anchor_coefficients_at_quarter_pi(self):
        f, g = boundary_coefficients(math.pi / 4)
        assert f == pytest.approx(-0.05 + 0.15 - 0.57, abs=2e-2)
        assert g == pytest.approx(0.72 + 0.32 + 0.26, abs=2e-2)

    def test_two_decimal_expansion_tracks_exact_coefficients(self):
        for phi in np.linspace(0.3, QUARTER - 0.3, 7):
            f, g = boundary_coefficients(float(phi))
            cot, tan = 1 / math.tan(phi), math.tan(phi)
            assert f == pytest.approx(-0.05 + 0.15 * cot - 0.57 * tan, abs=2e-2)
            assert g == pytest.approx(0.72 + 0.32 * cot + 0.26 * tan, abs=2e-2)

    @pytest.mark.parametrize("branch,sign", [("plus", 1.0), ("minus", -1.0)])
    def test_states_land_on_boundary(self, branch, sign):
        for phi in np.linspace(0.15, QUARTER - 0.15, 9):
            theta = boundary_theta(float(phi))
            behavior = behavior_from_state(boundary_state(float(phi), branch))
            assert chsh_value(behavior) == pytest.approx(
                sign * expectation_M(theta, float(phi)), abs=1e-8
            )
            assert kcbs_value(behavior) == pytest.approx(
                expectation_N(theta), abs=1e-8
            )

    def test_states_are_normalized(self):
        psi = boundary_state(0.9, "plus")
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_singular_phi_raises(self):
        with pytest.raises(SingularParameter):
            boundary_state(math.pi, "plus")

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError):
            boundary_state(0.7, "sideways")


class TestRegionPoint:
    def test_rejects_monogamy_violation(self):
        with pytest.raises(ValueError):
            RegionPoint(-3.0, -3.0, "plus", 0.0, 0.0)

    def test_message_names_the_monogamy_bound(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^point \(-3\.0, -3\.0\) breaks chsh\+kcbs >= -5$"):
            RegionPoint(-3.0, -3.0, "plus", 0.0, 0.0)
        monkeypatch.setattr(region, "MONOGAMY_BOUND", -4.5)
        message = r"^point \(-2\.1, -2\.6\) breaks chsh\+kcbs >= -4\.5$"
        with pytest.raises(ValueError, match=message):
            RegionPoint(-2.1, -2.6, "plus", 0.0, 0.0)

    def test_bound_slack_is_the_margin(self, bound_slack):
        with pytest.raises(ValueError, match="breaks"):
            RegionPoint(-3.0, -2.5, "plus", 0.0, 0.0)
        bound_slack(1.0)
        assert RegionPoint(-3.0, -2.5, "plus", 0.0, 0.0).kcbs == -2.5

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            RegionPoint(0.0, 0.0, "middle", 0.0, 0.0)

    @pytest.mark.parametrize(
        "chsh,kcbs",
        [
            (math.nan, -3.0),
            (0.0, math.nan),
            (math.inf, -math.inf),
            (math.inf, 0.0),
            (0.0, math.inf),
            (-math.inf, 0.0),
        ],
    )
    def test_rejects_non_finite_values(self, chsh, kcbs):
        with pytest.raises(ValueError):
            RegionPoint(chsh, kcbs, "plus", 0.0, 0.0)

    @pytest.mark.parametrize("theta,phi", [(math.nan, 0.5), (0.5, math.inf)])
    def test_rejects_non_finite_parameters(self, theta, phi):
        with pytest.raises(ValueError, match="non-finite"):
            RegionPoint(-2.0, -2.9, "plus", theta, phi)


class TestMembershipSweep:
    def test_sweep_is_clean_and_two_sided(self):
        report = region_membership_sweep(20_000, seed=42)
        assert report.clean
        assert report.kcbs_only_violation_count >= 1
        assert report.chsh_only_violation_count >= 1
        assert report.min_sum >= -5.0 - 1e-9

    def test_seed_reproducibility(self):
        first = region_membership_sweep(2000, seed=9)
        second = region_membership_sweep(2000, seed=9)
        assert report_fields(first) == report_fields(second)

    def test_level_two_product_state(self):
        # |2> (x) |0> maximally violates the pentagon bound but stays local
        e20 = np.zeros(6, dtype=complex)
        e20[4] = 1.0
        behavior = behavior_from_state(e20)
        assert kcbs_value(behavior) == pytest.approx(KCBS_QUANTUM_MIN, abs=1e-10)
        assert abs(chsh_value(behavior)) <= 2.0

    def test_ground_state_kcbs(self):
        e00 = np.zeros(6, dtype=complex)
        e00[0] = 1.0
        behavior = behavior_from_state(e00)
        assert kcbs_value(behavior) == pytest.approx(KCBS_QUANTUM_DEGENERATE, abs=1e-10)

    @pytest.mark.parametrize(
        "samples", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 100_000]
    )
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_blocks_match_the_whole_stack(self, samples, seed):
        got = region_membership_sweep(samples, seed)
        assert report_fields(got) == report_fields(whole_stack_sweep(samples, seed))

    @pytest.mark.parametrize("samples", [BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_block_values_match_the_whole_stack(self, samples, seed):
        # a report hides a last-bit change of one value, so compare every
        # value; a 1-row block changes some at these seeds
        for operator in (kcbs_operator(), chsh_operator()):
            blocks = random_state_blocks(samples, seed)
            blocked = [expectation(operator, states) for states in blocks]
            whole = expectation(operator, random_states(samples, seed))
            assert np.concatenate(blocked).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("samples", [1, 2, BLOCK + 1, 100_000])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("bounds", ["paper", "moved"])
    def test_report_matches_the_public_expectation_of_each_block(
        self, monkeypatch, samples, seed, bounds
    ):
        # the sweep checks once and then skips expectation's checks; the
        # values, and so the report, must stay those of the public call.
        # Moved inside the region, the bounds give offenders of each kind.
        if bounds == "moved":
            monkeypatch.setattr(region, "MONOGAMY_BOUND", -2.0)
            monkeypatch.setattr(region, "KCBS_QUANTUM_MIN", -1.5)
            monkeypatch.setattr(region, "CHSH_QUANTUM_MIN", -1.0)
        operators = np.stack([kcbs_operator(), chsh_operator()])
        blocks = random_state_blocks(samples, seed)
        values = np.concatenate([expectation(operators, states) for states in blocks], axis=1)
        want = reference_report(samples, seed, *values)
        got = region_membership_sweep(samples, seed)
        for field in ("min_kcbs", "min_chsh", "min_sum"):
            assert getattr(got, field).hex() == getattr(want, field).hex()
        assert report_fields(got) == report_fields(want)
        if bounds == "moved" and samples == 100_000:
            assert got.kcbs_floor_violations and got.chsh_floor_violations
            assert got.monogamy_violations

    def test_rejects_a_non_hermitian_witness(self, monkeypatch):
        bad = chsh_operator()
        bad[0, 1] += 1e-9
        monkeypatch.setattr(region, "chsh_operator", lambda: bad)
        with pytest.raises(NotHermitian, match="^operator 1: matrix deviates .* by 1.000e-09$"):
            region_membership_sweep(3, seed=1)

    def test_offenders_keep_their_global_indices(self, monkeypatch):
        # bounds moved inside the region, so offenders spread over many
        # blocks and the first 100 of each kind span block boundaries
        monkeypatch.setattr(quantum, "_STATE_BLOCK", 64)
        monkeypatch.setattr(region, "MONOGAMY_BOUND", -2.0)
        monkeypatch.setattr(region, "KCBS_QUANTUM_MIN", -1.5)
        monkeypatch.setattr(region, "CHSH_QUANTUM_MIN", -1.0)
        report = region_membership_sweep(5001, seed=7)
        assert report_fields(report) == report_fields(whole_stack_sweep(5001, seed=7))
        kinds = (
            report.monogamy_violations,
            report.kcbs_floor_violations,
            report.chsh_floor_violations,
        )
        for offenders in kinds:
            assert len(offenders) == 100
            assert offenders[-1]["index"] > 64

    @pytest.mark.parametrize("slack", [1.0, 0.25])
    def test_one_sided_counts_read_the_bound_slack(self, bound_slack, slack):
        # a violation is a value more than BOUND_SLACK below its bound,
        # as in MonogamyReport
        bound_slack(slack)
        report = region_membership_sweep(20_000, seed=42)
        states = random_states(20_000, seed=42)
        kcbs_low = expectation(kcbs_operator(), states) < -3.0 - slack
        chsh_low = expectation(chsh_operator(), states) < -2.0 - slack
        counts = (int(np.sum(kcbs_low & ~chsh_low)), int(np.sum(chsh_low & ~kcbs_low)))
        assert (report.kcbs_only_violation_count, report.chsh_only_violation_count) == counts
        assert report_fields(report) == report_fields(whole_stack_sweep(20_000, seed=42))

    def test_region_membership_can_fail(self, monkeypatch):
        passing = verify.check_region_membership(2000, 1)
        monkeypatch.setattr(classical, "MONOGAMY_BOUND", -1.5)
        monkeypatch.setattr(region, "MONOGAMY_BOUND", -1.5)
        failing = verify.check_region_membership(2000, 1)
        assert passing.passed and not failing.passed
        assert failing.detail == passing.detail
        assert failing.detail.startswith("2000 states, min sum -4.372")

    def test_memory_stays_at_block_size(self):
        # the whole-stack sweep peaked at 21.6 MB here: 216 bytes a state
        region_membership_sweep(2, seed=42)  # fill the operator caches
        tracemalloc.start()
        try:
            region_membership_sweep(100_000, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            region_membership_sweep(0)
