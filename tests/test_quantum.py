import json
import math
import warnings

import numpy as np
import pytest

from ndmonogamy import quantum, region, verify
from ndmonogamy.classical import BOUNDS, chsh_expression, kcbs_expression
from ndmonogamy.errors import (
    BlockStructureViolated,
    NotHermitian,
    NotNormalized,
    SubsetNotMeasurable,
)
from ndmonogamy.quantum import (
    MINUS_BLOCK,
    PLUS_BLOCK,
    behavior_from_state,
    block_decompose,
    bob_observable,
    chsh_operator,
    eigensystem,
    eigvals_characteristic_3x3,
    expectation,
    expression_operator,
    kcbs_observables,
    kcbs_operator,
    kcbs_vectors,
    observables_6d,
    random_state_blocks,
    random_states,
    require_hermitian,
    require_normalized,
)
from ndmonogamy.scenario import (
    CONTEXTS,
    MEASUREMENT_IDS,
    Behavior,
    alice,
    canonical_context,
    check_no_disturbance,
    chsh_value,
    kcbs_value,
    sign_vector,
)

S5 = math.sqrt(5.0)
KCBS_MIN = 5.0 - 4.0 * S5          # about -3.9443
KCBS_DEGENERATE = -5.0 + 2.0 * S5  # about -0.5279
BLOCK = quantum._STATE_BLOCK
#: around one and two blocks, and the default ``verify --samples``
STATE_COUNTS = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 100_000]


def one_shot_states(count: int, rng: np.random.Generator) -> np.ndarray:
    """The reference draw: every real part, then every imaginary part, at once."""
    raw = rng.normal(size=(count, 6)) + 1j * rng.normal(size=(count, 6))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


class TestKcbsVectors:
    def test_unit_norm(self):
        for v in kcbs_vectors():
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)

    def test_adjacent_orthogonality(self):
        vs = kcbs_vectors()
        for i in range(5):
            assert abs(np.dot(vs[i], vs[(i + 1) % 5])) < 1e-12

    def test_normalization_constant(self):
        # oracle: norm of the unnormalized ray for i = 5 (cos, sin, sqrt terms)
        raw = np.array([np.cos(4 * np.pi), np.sin(4 * np.pi), np.sqrt(np.cos(np.pi / 5))])
        constant = 1.0 / np.linalg.norm(raw)
        assert constant == pytest.approx(1.0 / np.sqrt(1.0 + np.cos(np.pi / 5)), abs=1e-15)
        vs = kcbs_vectors()
        assert vs[4][2] == pytest.approx(constant * np.sqrt(np.cos(np.pi / 5)), abs=1e-12)

    def test_nonadjacent_not_orthogonal(self):
        vs = kcbs_vectors()
        assert abs(np.dot(vs[0], vs[2])) > 0.1


class TestKcbsObservables:
    def test_involutory(self):
        for a in kcbs_observables():
            assert np.max(np.abs(a @ a - np.eye(3))) < 1e-12

    def test_hermitian(self):
        for a in kcbs_observables():
            assert np.max(np.abs(a - a.conj().T)) < 1e-12

    def test_spectrum_one_plus_two_minus(self):
        for a in kcbs_observables():
            w, _ = eigensystem(a)
            assert np.allclose(w, [-1.0, -1.0, 1.0], atol=1e-12)

    def test_adjacent_commute(self):
        a = kcbs_observables()
        for i in range(5):
            comm = a[i] @ a[(i + 1) % 5] - a[(i + 1) % 5] @ a[i]
            assert np.max(np.abs(comm)) < 1e-12

    def test_a1_a4_do_not_commute(self):
        a = kcbs_observables()
        comm = a[0] @ a[3] - a[3] @ a[0]
        assert np.max(np.abs(comm)) > 1.0


class TestKcbsOperator:
    def test_diagonal_in_computational_basis(self):
        op = kcbs_operator()
        assert np.max(np.abs(op - np.diag(np.diag(op)))) < 1e-12

    def test_spectrum_closed_form(self):
        w, _ = eigensystem(kcbs_operator())
        assert np.allclose(w[:2], KCBS_MIN, atol=1e-10)
        assert np.allclose(w[2:], KCBS_DEGENERATE, atol=1e-10)

    def test_min_eigenvalue_value(self):
        w, _ = eigensystem(kcbs_operator())
        assert w[0] == pytest.approx(-3.944271909999159, abs=1e-10)

    def test_eigenvector_split_follows_qutrit_level(self):
        diag = np.real(np.diag(kcbs_operator()))
        assert np.allclose(diag[:4], KCBS_DEGENERATE, atol=1e-12)  # |00>..|11>
        assert np.allclose(diag[4:], KCBS_MIN, atol=1e-12)          # |20>,|21>

    def test_cyclic_covariance_of_spectrum(self):
        a = kcbs_observables()
        rolled = a[1:] + a[:1]
        original = sum(a[i] @ a[(i + 1) % 5] for i in range(5))
        relabeled = sum(rolled[i] @ rolled[(i + 1) % 5] for i in range(5))
        w1, _ = eigensystem(np.kron(original, np.eye(2)))
        w2, _ = eigensystem(np.kron(relabeled, np.eye(2)))
        assert np.allclose(w1, w2, atol=1e-12)


class TestChshOperator:
    def test_hermitian_and_traceless(self):
        op = chsh_operator()
        assert np.max(np.abs(op - op.conj().T)) < 1e-12
        assert abs(np.trace(op)) < 1e-12

    def test_block_expectations_match_closed_form(self):
        from ndmonogamy.region import expectation_M, frame_state

        decomposition = block_decompose(chsh_operator())
        rng = np.random.default_rng(17)
        for _ in range(25):
            theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
            psi = decomposition.basis_plus @ frame_state(theta, phi).astype(complex)
            assert expectation(chsh_operator(), psi) == pytest.approx(
                expectation_M(theta, phi), abs=1e-10
            )

    def test_bob_observables_are_paulis(self):
        assert np.array_equal(bob_observable(1), np.array([[1, 0], [0, -1]], dtype=complex))
        assert np.array_equal(bob_observable(2), np.array([[0, 1], [1, 0]], dtype=complex))


class TestBlockDecompose:
    def test_corner_entry(self):
        m = block_decompose(chsh_operator()).m
        assert m[0, 0].real == pytest.approx(1.0 - 1.0 / S5, abs=1e-10)

    def test_all_entries_match_closed_forms(self):
        m = np.real(block_decompose(chsh_operator()).m)
        expected = np.array(
            [
                [1 - 1 / S5, -math.sqrt(2 - 2 / S5), math.sqrt(4 / 5 + 4 / S5)],
                [-math.sqrt(2 - 2 / S5), 1 - S5, 2 * math.sqrt(-1 + 3 / S5)],
                [math.sqrt(4 / 5 + 4 / S5), 2 * math.sqrt(-1 + 3 / S5), 2 - 4 / S5],
            ]
        )
        assert np.max(np.abs(m - expected)) < 1e-10

    def test_cross_block_vanishes(self):
        op = chsh_operator()
        cross = op[np.ix_(PLUS_BLOCK, MINUS_BLOCK)]
        assert np.max(np.abs(cross)) < 1e-12

    def test_minus_restriction_is_negated_m(self):
        decomposition = block_decompose(chsh_operator())
        minus = (
            decomposition.basis_minus.conj().T
            @ chsh_operator()
            @ decomposition.basis_minus
        )
        assert np.max(np.abs(decomposition.m + minus)) < 1e-12

    def test_bases_are_orthonormal_and_disjoint(self):
        decomposition = block_decompose(chsh_operator())
        for basis in (decomposition.basis_plus, decomposition.basis_minus):
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(3))) < 1e-14
        overlap = decomposition.basis_plus.conj().T @ decomposition.basis_minus
        assert np.max(np.abs(overlap)) == 0.0

    def test_perturbed_operator_raises(self):
        perturbed = chsh_operator()
        perturbed[0, 1] += 1e-6
        perturbed[1, 0] += 1e-6
        with pytest.raises(BlockStructureViolated):
            block_decompose(perturbed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_not_hermitian(self, bad):
        matrix = chsh_operator()
        matrix[0, 1] = matrix[1, 0] = bad
        with np.errstate(invalid="ignore"):  # inf - inf in the gap
            with pytest.raises(NotHermitian):
                require_hermitian(matrix)
            with pytest.raises(NotHermitian):
                block_decompose(matrix)

    def test_nan_cross_block_entry_violates_block_structure(self, monkeypatch):
        # reach the cross-block comparison past the Hermiticity check
        monkeypatch.setattr(quantum, "require_hermitian", np.asarray)
        matrix = chsh_operator()
        matrix[0, 1] = matrix[1, 0] = np.nan
        with pytest.raises(BlockStructureViolated):
            block_decompose(matrix)

    def test_block_check_reports_non_hermitian_input(self):
        matrix = chsh_operator()
        matrix[0, 1] = np.nan
        result = verify.check_chsh_block_structure(matrix)
        assert not result.passed
        assert result.detail == "matrix deviates from Hermiticity by nan"


class TestRequireHermitian:
    def test_stack_names_the_first_bad_operator(self):
        bad = chsh_operator()
        bad[1, 4] += 1e-6
        worse = kcbs_operator()
        worse[0, 0] = np.nan
        stack = np.stack([kcbs_operator(), chsh_operator(), bad, worse])
        message = "^operator 2: matrix deviates from Hermiticity by 1.000e-06$"
        with pytest.raises(NotHermitian, match=message):
            require_hermitian(stack)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NotHermitian, match="^operator 0: .* by nan$"):
                require_hermitian(stack[::-1])

    def test_stack_of_hermitian_operators_passes_whole(self):
        stack = np.stack([kcbs_operator(), chsh_operator()])
        got = require_hermitian(stack)
        assert got.dtype == complex and got.tobytes() == stack.tobytes()
        assert require_hermitian(stack[:0]).shape == (0, 6, 6)
        assert require_hermitian(stack.real.tolist()).shape == (2, 6, 6)

    def test_one_operator_is_not_named(self):
        matrix = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian, match="^matrix deviates from Hermiticity by 1.000e"):
            require_hermitian(matrix)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 3), (3, 1), (2, 2, 3), (1, 2, 3, 3)])
    def test_rejects_shapes_that_are_not_square(self, shape):
        with pytest.raises(ValueError, match=r"expected shape \(n, n\) or \(m, n, n\)"):
            require_hermitian(np.zeros(shape))


class TestEigensystem:
    def test_identity(self):
        w, v = eigensystem(np.eye(3, dtype=complex))
        assert np.allclose(w, 1.0)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-14)

    def test_bell_block_eigenvalues_vs_printed(self):
        m = block_decompose(chsh_operator()).m
        w, _ = eigensystem(m)
        assert np.allclose(w, [-2.808, 0.336, 2.0], atol=1e-3)

    def test_bell_block_eigenvalues_vs_characteristic_oracle(self):
        m = np.real(block_decompose(chsh_operator()).m)
        w, _ = eigensystem(m.astype(complex))
        assert np.max(np.abs(w - eigvals_characteristic_3x3(m))) < 1e-10

    def test_middle_eigenvalue_is_exactly_two(self):
        w, _ = eigensystem(block_decompose(chsh_operator()).m)
        assert abs(w[2] - 2.0) < 1e-10

    def test_eigenvector_of_two_matches_closed_form(self):
        _, v = eigensystem(block_decompose(chsh_operator()).m)
        expected = np.array([math.sqrt(1 - 1 / S5), 0.0, 5.0 ** -0.25])
        assert np.max(np.abs(v[:, 2] - expected)) < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_random_hermitian_residuals(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (g + g.conj().T) / 2
        w, v = eigensystem(h)
        assert np.max(np.abs(h @ v - v * w[None, :])) < 1e-10
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
        assert np.all(np.diff(w) >= -1e-14)

    def test_spectral_reconstruction(self):
        for op in (kcbs_operator(), chsh_operator(), block_decompose(chsh_operator()).m):
            w, v = eigensystem(op)
            rebuilt = (v * w[None, :]) @ v.conj().T
            assert np.max(np.abs(rebuilt - op)) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_characteristic_oracle_rejects_asymmetric(self):
        with pytest.raises(NotHermitian):
            eigvals_characteristic_3x3(np.arange(9.0).reshape(3, 3))

    def test_characteristic_oracle_asymmetry_tolerance(self):
        # the rule is require_hermitian's: at most 1e-12 from symmetric
        m = region.bell_block().copy()
        m[0, 1] += 1e-11
        with pytest.raises(NotHermitian):
            eigvals_characteristic_3x3(m)
        m[0, 1] -= 1e-11 - 1e-13
        assert eigvals_characteristic_3x3(m).shape == (3,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_characteristic_oracle_rejects_non_finite(self, bad):
        # the cubic formula would give NaN eigenvalues, not an error
        for where in ((0, 0), (0, 2)):
            m = region.bell_block().copy()
            m[where] = m[where[::-1]] = bad
            with pytest.raises(NotHermitian):
                eigvals_characteristic_3x3(m)

    def test_characteristic_oracle_rejects_complex_entries(self):
        # a cast to float would drop the imaginary part with only a ComplexWarning
        m = region.bell_block().astype(complex)
        m[0, 1] += 1e-3j
        m[1, 0] -= 1e-3j  # Hermitian, but not real
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitian):
                eigvals_characteristic_3x3(m)
            m[0, 1] = complex(m[0, 1].real, np.nan)
            with pytest.raises(NotHermitian):
                eigvals_characteristic_3x3(m)
            real = region.bell_block().astype(complex)
            assert eigvals_characteristic_3x3(real).tobytes() == (
                eigvals_characteristic_3x3(region.bell_block()).tobytes()
            )

    def test_phase_convention_largest_component_positive(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) / 2
        _, v = eigensystem(h)
        for k in range(4):
            top = v[np.argmax(np.abs(v[:, k])), k]
            assert abs(top.imag) < 1e-12
            assert top.real > 0


class TestBehaviorFromState:
    def test_every_state_is_nd(self):
        for psi in random_states(10, seed=4):
            assert check_no_disturbance(behavior_from_state(psi)) == []

    def test_level_two_basis_state_minimizes_kcbs(self, basis_state_behavior):
        assert kcbs_value(basis_state_behavior) == pytest.approx(KCBS_MIN, abs=1e-10)

    def test_level_zero_basis_state(self):
        e00 = np.zeros(6, dtype=complex)
        e00[0] = 1.0
        assert kcbs_value(behavior_from_state(e00)) == pytest.approx(
            KCBS_DEGENERATE, abs=1e-10
        )

    def test_maximally_mixed_behavior_trace_oracle(self):
        # the maximally mixed state as the uniform mixture of the basis states
        probs = np.mean(
            [behavior_from_state(e).probs for e in np.eye(6, dtype=complex)], axis=0
        )
        behavior = Behavior(probs)
        observables = kcbs_observables()
        from ndmonogamy.scenario import correlator

        for i in range(5):
            oracle = float(np.real(np.trace(observables[i] @ observables[(i + 1) % 5]))) / 3.0
            assert oracle == pytest.approx(-1 / 3, abs=1e-12)
            pair = (f"A{i + 1}", f"A{(i + 1) % 5 + 1}")
            assert correlator(behavior, pair) == pytest.approx(oracle, abs=1e-12)
        assert kcbs_value(behavior) == pytest.approx(-5 / 3, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalized):
            behavior_from_state(np.ones(6, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        psi = np.zeros(6, dtype=complex)
        psi[0] = 1.0
        psi[3] = bad
        with pytest.raises(NotNormalized):
            require_normalized(psi)
        with pytest.raises(NotNormalized):
            behavior_from_state(psi)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="expected shape"):
            behavior_from_state(np.array([1.0, 0.0], dtype=complex))

    def test_rejects_a_stack(self):
        with pytest.raises(ValueError, match=r"one state of shape \(6,\)"):
            behavior_from_state(random_states(2, seed=1))

    def test_behavior_and_operator_paths_agree(self):
        k_op = kcbs_operator()
        c_op = chsh_operator()
        for psi in random_states(20, seed=23):
            behavior = behavior_from_state(psi)
            assert kcbs_value(behavior) == pytest.approx(
                float(expectation(k_op, psi)), abs=1e-10
            )
            assert chsh_value(behavior) == pytest.approx(
                float(expectation(c_op, psi)), abs=1e-10
            )

    def test_stacked_born_rule_matches_per_context_reference(self):
        # the reference contracts the state with one context's 8 projectors
        # at a time, sums each correlator's signed entries with a cumsum
        # over its context's row and adds each witness's correlators one
        # after the other; the stacked contraction and the witnesses must
        # give the same bits, and the JSON text must be the plain per-row dump
        per_context = quantum._context_projectors().reshape(10, 8, 6, 6)

        def corr(probs, subset):
            context = canonical_context(subset)
            row = probs[CONTEXTS.index(context)]
            return float(np.cumsum(row * sign_vector(context, subset))[-1])

        for psi in random_states(2000, seed=808):
            probs = np.empty((10, 8))
            for c_idx, ops in enumerate(per_context):
                probs[c_idx] = np.real(np.einsum("i,kij,j->k", psi.conj(), ops, psi))
            reference = Behavior(probs).probs
            behavior = behavior_from_state(psi)
            assert behavior.probs.tobytes() == reference.tobytes()
            assert kcbs_value(behavior) == sum(
                corr(reference, (alice(i), alice(i + 1))) for i in range(1, 6)
            )
            for pivot in range(1, 6):
                a_plus, a_minus = alice(pivot + 1), alice(pivot - 1)
                assert chsh_value(behavior, pivot) == (
                    corr(reference, (a_plus, "B1"))
                    + corr(reference, (a_plus, "B2"))
                    + corr(reference, (a_minus, "B1"))
                    - corr(reference, (a_minus, "B2"))
                )
            assert behavior.to_json() == json.dumps(
                {c.label: list(row) for c, row in zip(CONTEXTS, reference)}
            )

    def test_projector_stack_is_cached_and_read_only(self):
        stack = quantum._context_projectors()
        assert stack.shape == (80, 6, 6)
        assert quantum._context_projectors() is stack
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 1.0


class TestStateRule:
    # one state, and the same state as a row of a stack, pass or fail alike
    # through every caller of require_normalized
    @pytest.mark.parametrize(
        "offset",
        [-1.1e-12, -0.9e-12, 0.9e-12, 1.1e-12]
        + [f * quantum.NORM_TOL for f in (-1.1, -0.9, 0.9, 1.1)],
        ids=[f"{f:+}{unit}" for unit in ("e-12", " NORM_TOL") for f in (-1.1, -0.9, 0.9, 1.1)],
    )
    def test_one_state_and_a_stack_row_agree(self, offset):
        states = random_states(3, seed=9)
        states[1] *= 1.0 + offset
        calls = {
            "require_normalized": lambda: require_normalized(states[1]),
            "expectation": lambda: expectation(kcbs_operator(), states[1]),
            "behavior_from_state": lambda: behavior_from_state(states[1]),
            "require_normalized (stack)": lambda: require_normalized(states),
            "expectation (stack)": lambda: expectation(kcbs_operator(), states),
        }
        for name, call in calls.items():
            if abs(offset) < quantum.NORM_TOL:
                call()
            else:
                match = "^state 1 has norm" if name.endswith("(stack)") else "^state has norm"
                with pytest.raises(NotNormalized, match=match):
                    call()

    @pytest.mark.parametrize("shape", [(5,), (7,), (2, 5), (1, 2, 6), (6, 6, 1), ()])
    def test_other_shapes_are_value_errors(self, shape):
        for check in (require_normalized, behavior_from_state):
            with pytest.raises(ValueError, match="expected shape"):
                check(np.ones(shape, dtype=complex))

    def test_returns_the_states_as_complex(self):
        state = np.eye(6)[2]
        out = require_normalized(state)
        assert out.dtype == complex and np.array_equal(out, state)
        stack = random_states(4, seed=2)
        assert require_normalized(stack) is stack
        # complex entries in a list are numbers too
        out = require_normalized([0, 0.6j, np.complex128(0.8), 0, 0, 0])
        assert out.dtype == complex and np.array_equal(out, [0, 0.6j, 0.8, 0, 0, 0])

    @pytest.mark.parametrize("bad", ["1", True, np.True_, None], ids=["str", "bool", "np.bool", "None"])
    def test_non_number_entries_are_value_errors(self, bad):
        # numpy would parse "1" and cast True, also among numbers
        state = [bad, 0.0, 0.0, 0.0, 0.0, 0.0]
        operator = kcbs_operator().tolist()
        operator[0][0] = bad
        name = type(bad).__name__
        calls = {
            "require_normalized": lambda: require_normalized(state),
            "require_normalized (stack)": lambda: require_normalized([np.eye(6)[0], state]),
            "behavior_from_state": lambda: behavior_from_state(state),
            "expectation": lambda: expectation(kcbs_operator(), state),
            "expectation (operator)": lambda: expectation(operator, np.eye(6)[0]),
            "expectation (operator stack)": lambda: expectation(
                [kcbs_operator(), operator], np.eye(6)[0]
            ),
            "require_hermitian": lambda: require_hermitian(operator),
        }
        for call in calls.values():
            with pytest.raises(ValueError, match=rf"entries must be numbers, got \['{name}'\]"):
                call()

    def test_whole_arrays_of_strings_and_booleans_are_value_errors(self):
        for state in (["0", "0", "0", "0", "1", "0"], np.eye(6, dtype=bool)[4]):
            with pytest.raises(ValueError, match="entries must be numbers"):
                expectation(kcbs_operator(), state)
            with pytest.raises(ValueError, match="entries must be numbers"):
                behavior_from_state(state)


class TestBoundsQuantumColumn:
    def test_every_row_has_a_float_quantum_minimum(self):
        assert [type(row.quantum) for row in BOUNDS] == [float] * len(BOUNDS)

    def test_chsh_minimum_is_the_lowest_eigenvalue(self):
        (row,) = [row for row in BOUNDS if row.name == "chsh"]
        w = np.linalg.eigh(expression_operator(row.expression)).eigenvalues
        assert abs(row.quantum - w[0]) <= 1e-15


class TestRandomStateSweep:
    def test_pointwise_bounds_hold(self):
        states = random_states(10_000, seed=42)
        kcbs = expectation(kcbs_operator(), states)
        chsh = expectation(chsh_operator(), states)
        lam1 = eigensystem(block_decompose(chsh_operator()).m)[0][0]
        assert (kcbs + chsh).min() >= -5.0 - 1e-9
        assert kcbs.min() >= KCBS_MIN - 1e-9
        assert chsh.min() >= lam1 - 1e-9


class TestRandomStateBlocks:
    @pytest.mark.parametrize("count", STATE_COUNTS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_bit_identical_to_one_shot_draw(self, count, seed):
        got = random_states(count, seed)
        want = one_shot_states(count, np.random.default_rng(seed))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", [1, BLOCK + 1, 2 * BLOCK + 1])
    def test_generator_seed_ends_in_the_one_shot_state(self, count):
        rng, reference = np.random.default_rng(5), np.random.default_rng(5)
        assert random_states(count, rng).tobytes() == one_shot_states(count, reference).tobytes()
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.normal() == reference.normal()

    def test_no_states(self):
        states = random_states(0)
        assert states.shape == (0, 6) and states.dtype == np.complex128

    @pytest.mark.parametrize(
        "count,sizes",
        [
            (0, [0]),
            (1, [1]),
            (2, [2]),
            (BLOCK, [BLOCK]),
            (BLOCK + 1, [BLOCK + 1]),  # never a 1-row tail
            (BLOCK + 2, [BLOCK, 2]),
            (2 * BLOCK + 1, [BLOCK, BLOCK + 1]),
        ],
    )
    def test_block_sizes(self, count, sizes):
        assert [len(block) for block in random_state_blocks(count, 1)] == sizes

    @pytest.mark.parametrize(
        "count,row,value,norm",
        [
            (3, 0, 0.0, "0.0"),
            (BLOCK + 2, BLOCK + 1, 0.0, "0.0"),  # named by its index in random_states
            (2 * BLOCK + 1, BLOCK + 5, np.inf, "inf"),
            (5, 4, np.nan, "nan"),
            # its squares are subnormal: the norm, not 3.4641016e-160, has lost bits
            (5, 2, 1e-160, r"3\.46408\d*e-160"),
            (5, 1, 1e200, "inf"),  # its squares overflow
        ],
    )
    def test_unnormalizable_state_raises(self, count, row, value, norm):
        message = rf"^state {row} has norm {norm}, cannot be normalized$"
        with pytest.raises(NotNormalized, match=message):
            list(random_state_blocks(count, RowFilledGenerator(row, value)))

    @pytest.mark.parametrize("value", [1e-150, 1e150])
    def test_blocks_are_normalized_by_construction(self, value):
        # the smallest and largest scales whose squared norm is a normal float
        for block in random_state_blocks(BLOCK + 2, RowFilledGenerator(3, value)):
            assert quantum.require_normalized(block) is block


class RowFilledGenerator(np.random.Generator):
    """Seeded normal draws, but every part of state ``row`` is ``value``.

    ``random_state_blocks`` draws the real parts of all states first and
    then each block's imaginary parts, in order; the row is found in each.
    """

    def __init__(self, row: int, value: float):
        super().__init__(np.random.PCG64(8))
        self.row, self.value, self.seen = row, value, None

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        draw = super().standard_normal(size)
        if self.seen is None:  # the real parts of every state
            draw[self.row] = self.value
            self.seen = 0
            return draw
        if 0 <= self.row - self.seen < len(draw):
            draw[self.row - self.seen] = self.value
        self.seen += len(draw)
        return draw


class TestStackedExpectation:
    @pytest.fixture(scope="class")
    def states(self):
        return random_states(1000, seed=17)

    @pytest.mark.parametrize("name", ["kcbs", "chsh", "random"])
    def test_matches_one_state_path(self, states, name):
        if name == "random":
            rng = np.random.default_rng(3)
            raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            operator = require_hermitian((raw + raw.conj().T) / 2)
        else:
            operator = {"kcbs": kcbs_operator, "chsh": chsh_operator}[name]()
        stacked = expectation(operator, states)
        assert stacked.dtype == np.float64
        assert stacked.shape == (1000,)
        single = np.array([expectation(operator, psi) for psi in states])
        assert np.max(np.abs(stacked - single)) <= 1e-14
        # a strided view of the stack gives the same rows
        assert np.array_equal(expectation(operator, states[::3]), stacked[::3])

    @pytest.mark.parametrize("which", ["stack", "strided", "one row", "one state"])
    def test_operator_stack_rows_match_single_operator_calls(self, states, which):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        operators = [kcbs_operator(), chsh_operator(), (raw + raw.conj().T) / 2]
        picked = {
            "stack": states,
            "strided": states[1::3],
            "one row": states[4:5],
            "one state": states[4],
        }[which]
        stacked = expectation(np.stack(operators), picked)
        assert stacked.shape == (3, *picked.shape[:-1])
        for operator, row in zip(operators, stacked):
            assert row.tobytes() == np.asarray(expectation(operator, picked)).tobytes()

    def test_one_operator_stack_keeps_its_axis(self, states):
        assert expectation(kcbs_operator()[None], states).shape == (1, 1000)
        assert expectation(kcbs_operator()[None], states[0]).shape == (1,)

    @pytest.mark.parametrize("shape", [(5, 5), (6,), (6, 5), (2, 6, 5), (1, 2, 6, 6), ()])
    def test_rejects_malformed_operators(self, shape):
        with pytest.raises(ValueError, match=r"operator of shape \(6, 6\) or \(m, 6, 6\)"):
            expectation(np.zeros(shape, dtype=complex), random_states(2, seed=1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_operator(self, bad):
        operator = kcbs_operator()
        operator[2, 2] = bad
        for states in (random_states(3, seed=2), random_states(1, seed=2)[0]):
            with pytest.raises(NotHermitian, match="^matrix deviates from Hermiticity by "):
                expectation(operator, states)

    def test_rejects_non_hermitian_operator(self):
        operator = kcbs_operator()
        operator[0, 1] += 1e-9
        with pytest.raises(NotHermitian, match="^matrix deviates .* by 1.000e-09$"):
            expectation(operator, random_states(3, seed=2))
        operator[0, 1] -= 1e-9 - 1e-13  # within HERMITICITY_TOL
        assert expectation(operator, random_states(3, seed=2)).shape == (3,)

    def test_stack_names_the_bad_operator(self):
        bad = chsh_operator()
        bad[1, 4] = 1j
        with pytest.raises(NotHermitian, match="^operator 1: "):
            expectation(np.stack([kcbs_operator(), bad]), random_states(3, seed=2))
        bad[1, 4] = np.nan
        stack = np.stack([kcbs_operator(), kcbs_operator(), bad])
        with pytest.raises(NotHermitian, match="^operator 2: "):
            expectation(stack, random_states(3, seed=2)[0])

    @pytest.mark.parametrize("shape", [(2, 5), (2, 3, 6), (5,), (6, 2), ()])
    def test_rejects_malformed_shapes(self, shape):
        with pytest.raises(ValueError, match="expected shape"):
            expectation(kcbs_operator(), np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite_state_naming_its_row(self, bad):
        states = random_states(4, seed=5)
        states[2, 1] = bad
        with pytest.raises(NotNormalized, match="^state 2 has norm"):
            expectation(kcbs_operator(), states)
        with pytest.raises(NotNormalized):
            expectation(kcbs_operator(), states[2])

    def test_rejects_unnormalized_states(self):
        with pytest.raises(NotNormalized, match="^state 0 has norm"):
            expectation(kcbs_operator(), np.ones((2, 6)))
        with pytest.raises(NotNormalized):
            expectation(kcbs_operator(), np.ones(6))
        states = random_states(3, seed=6)
        states[1] *= 1.0 + 1e-11
        with pytest.raises(NotNormalized, match="^state 1 has norm"):
            expectation(kcbs_operator(), states)
        states[1] /= 1.0 + 1e-11
        assert expectation(kcbs_operator(), states).shape == (3,)


class TestExpressionOperator:
    # references: the witness operators written out from the observables
    def test_kcbs_expression_reproduces_operator(self):
        a = [kcbs_observables()[(i - 1) % 5] for i in range(1, 6)]
        qutrit = sum(a[i] @ a[(i + 1) % 5] for i in range(5))
        reference = np.kron(qutrit, np.eye(2, dtype=complex))
        assert np.max(np.abs(expression_operator(kcbs_expression()) - reference)) < 1e-12
        assert np.max(np.abs(kcbs_operator() - reference)) < 1e-12

    def test_chsh_expression_reproduces_operator(self):
        a1, a4 = kcbs_observables()[0], kcbs_observables()[3]
        z, x = bob_observable(1), bob_observable(2)
        reference = np.kron(a1, z) + np.kron(a1, x) + np.kron(a4, z) - np.kron(a4, x)
        assert np.max(np.abs(expression_operator(chsh_expression()) - reference)) < 1e-12
        assert np.max(np.abs(chsh_operator() - reference)) < 1e-12

    def test_witness_operators_are_new_writable_arrays(self):
        # the term products behind them are cached, the sums are not
        for build in (kcbs_operator, chsh_operator):
            first = build()
            first[0, 1] += 1.0
            assert build()[0, 1] == first[0, 1] - 1.0

    def test_term_products_are_cached_and_read_only(self):
        for bound in BOUNDS:
            for _, subset in bound.expression.terms:
                product = quantum._term_product(subset)
                assert quantum._term_product(subset) is product
                with pytest.raises(ValueError):
                    product[0, 0] = 2.0

    @pytest.mark.parametrize("bound", BOUNDS, ids=lambda b: b.name)
    def test_bytes_equal_a_per_term_kron_reference(self, bound):
        # the construction from single-factor observables, one np.kron per factor
        def factor(m):
            if m[0] == "A":
                alice_factor = kcbs_observables()[(int(m[1:]) - 1) % 5]
                return np.kron(alice_factor, np.eye(2, dtype=complex))
            return np.kron(np.eye(3, dtype=complex), bob_observable(int(m[1:])))

        reference = np.zeros((6, 6), dtype=complex)
        for coeff, subset in bound.expression.terms:
            op = np.eye(6, dtype=complex)
            for m in subset:
                op = op @ factor(m)
            reference += coeff * op
        assert expression_operator(bound.expression).tobytes() == reference.tobytes()

    def test_unmeasurable_expression_rejected(self):
        from ndmonogamy.classical import LinearExpression

        # on every call: a raising call caches no term product
        for _ in range(2):
            with pytest.raises(SubsetNotMeasurable):
                expression_operator(LinearExpression(((1.0, ("A1", "A3")),)))

    def test_singletons_supported(self):
        from ndmonogamy.classical import LinearExpression

        op = expression_operator(LinearExpression(((2.0, ("B1",)),)))
        assert np.max(np.abs(op - 2 * np.kron(np.eye(3), bob_observable(1)))) < 1e-14


class TestObservableTable:
    def test_cached_read_only_table_of_the_seven_ids(self):
        table = observables_6d()
        assert table is observables_6d()
        assert tuple(table) == MEASUREMENT_IDS
        with pytest.raises(TypeError):
            table["A1"] = np.eye(6, dtype=complex)
        for matrix in table.values():
            with pytest.raises(ValueError):
                matrix[0, 0] = 2.0

    @pytest.mark.parametrize(
        "measurement_id", ["A0", "A6", "A12", "A", "Ax", "B0", "B3", "C1", ""]
    )
    def test_unknown_id_rejected(self, measurement_id):
        with pytest.raises(ValueError, match=f"unknown measurement id {measurement_id!r}"):
            observables_6d()[measurement_id]
