"""Qutrit-qubit operators for the pentagon and Bell witnesses.

Conventions
-----------
- Alice's system is a qutrit with basis {|0>,|1>,|2>}, Bob's a qubit with
  {|0>,|1>}.  Product basis ordering is qutrit-major: |00>,|01>,|10>,
  |11>,|20>,|21> (index 2*t + q).
- Alice's observables are reflections 2|v_i><v_i| - 1 about the pentagon
  vectors v_i; adjacent reflections commute because <v_i|v_{i+1}> = 0.
- Bob measures the Pauli operators Z and X.
- Eigensystems come from LAPACK's Hermitian solver (``numpy.linalg.eigh``);
  eigenvector phases are fixed by making the largest-magnitude component
  real and positive.  The closed forms and the characteristic-polynomial
  oracle give every spectrum a second, independent route.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .classical import LinearExpression, chsh_expression, kcbs_expression
from .errors import BlockStructureViolated, NotHermitian, NotNormalized
from .scenario import CONTEXTS, OUTCOMES, Behavior, alice, bob, canonical_context

HERMITICITY_TOL = 1e-12
#: largest distance of a state's norm from 1
NORM_TOL = 1e-12
#: largest cross-block entry that :func:`block_decompose` accepts
BLOCK_CROSS_TOL = 1e-10
_STATE_BLOCK = 8192  # states per block of random_state_blocks

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: product-basis index of qutrit level t and qubit level q
PLUS_BLOCK = (1, 2, 5)    # |01>, |10>, |21>
MINUS_BLOCK = (0, 3, 4)   # |00>, |11>, |20>


def require_hermitian(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
        gap = float(np.max(np.abs(matrix - matrix.conj().T)))
    if not gap <= HERMITICITY_TOL:  # NaN fails too
        raise NotHermitian(f"matrix deviates from Hermiticity by {gap:.3e}")
    return matrix


def require_normalized(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    norm = float(np.linalg.norm(ket))
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN and inf fail too
        raise NotNormalized(f"state has norm {norm}, expected 1")
    return ket


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def kcbs_vectors() -> tuple[np.ndarray, ...]:
    """The five pentagon rays, normalized; v_i is orthogonal to v_{i+1}.

    Ray i is proportional to (cos(4 pi i/5), sin(4 pi i/5), sqrt(cos(pi/5)))
    for i = 1..5; the common normalization is 1/sqrt(1 + cos(pi/5)).
    Cached: every call returns the same tuple of read-only vectors.
    """
    vectors = []
    for i in range(1, 6):
        v = np.array(
            [
                np.cos(4 * np.pi * i / 5),
                np.sin(4 * np.pi * i / 5),
                np.sqrt(np.cos(np.pi / 5)),
            ]
        )
        v = v / np.linalg.norm(v)
        v.setflags(write=False)
        vectors.append(v)
    return tuple(vectors)


@lru_cache(maxsize=None)
def kcbs_observables() -> tuple[np.ndarray, ...]:
    """Alice's five reflections A_i = 2|v_i><v_i| - 1 (qutrit, Hermitian).

    Each is involutory with spectrum {+1, -1, -1}; A_i commutes with
    A_{i+1} and with no other A_j.  Cached: every call returns the same
    tuple of read-only matrices.
    """
    obs = []
    for v in kcbs_vectors():
        a = (2.0 * np.outer(v, v) - np.eye(3)).astype(complex)
        a.setflags(write=False)
        obs.append(a)
    return tuple(obs)


def alice_observable(i: int) -> np.ndarray:
    """A_i on the qutrit, index mod 5."""
    return kcbs_observables()[(i - 1) % 5].copy()


def bob_observable(j: int) -> np.ndarray:
    """B_1 = Z, B_2 = X on the qubit."""
    if j == 1:
        return PAULI_Z.copy()
    if j == 2:
        return PAULI_X.copy()
    raise ValueError(f"Bob has observables 1 and 2, got {j}")


class _ObservableTable(dict):
    """Observables by measurement id; an unknown id is a ValueError."""

    def __missing__(self, measurement_id):
        raise ValueError(f"unknown measurement id {measurement_id!r}")


@lru_cache(maxsize=None)
def observables_6d() -> Mapping[str, np.ndarray]:
    """Every measurement's observable on the qutrit (x) qubit space, by id.

    Keyed by :data:`~ndmonogamy.scenario.MEASUREMENT_IDS`: A_i (x) 1 for
    Alice, 1 (x) B_j for Bob; any other id raises ``ValueError``.
    Cached: every call returns the same read-only mapping of read-only
    matrices.
    """
    eye3, eye2 = np.eye(3, dtype=complex), np.eye(2, dtype=complex)
    table = _ObservableTable(
        {alice(i): np.kron(a, eye2) for i, a in enumerate(kcbs_observables(), start=1)}
    )
    table.update({bob(j): np.kron(eye3, bob_observable(j)) for j in (1, 2)})
    for matrix in table.values():
        matrix.setflags(write=False)
    return MappingProxyType(table)


def observable_6d(measurement_id: str) -> np.ndarray:
    """A measurement's observable on the full qutrit (x) qubit space, a new array."""
    return observables_6d()[measurement_id].copy()


def kcbs_operator() -> np.ndarray:
    """Sum of the five products A_i A_{i+1} on the 6-dim space, a new array.

    The operator of :func:`ndmonogamy.classical.kcbs_expression`.
    Diagonal in the computational basis with eigenvalues -5+2*sqrt(5)
    (multiplicity 4, on |00>,|01>,|10>,|11>) and 5-4*sqrt(5)
    (multiplicity 2, on |20>,|21>).
    """
    return expression_operator(kcbs_expression())


def chsh_operator() -> np.ndarray:
    """A1 B1 + A1 B2 + A4 B1 - A4 B2 on the 6-dim space (traceless), a new array.

    The operator of :func:`ndmonogamy.classical.chsh_expression`.
    """
    return expression_operator(chsh_expression())


def expression_operator(expr: LinearExpression) -> np.ndarray:
    """The 6-dim observable whose expectation equals the expression value.

    Every term's subset must be jointly measurable, so the per-term
    operator products commute and the result is Hermitian.
    """
    observables = observables_6d()
    total = np.zeros((6, 6), dtype=complex)
    for coeff, subset in expr.terms:
        canonical_context(subset)  # raises SubsetNotMeasurable
        op = np.eye(6, dtype=complex)
        for m in subset:
            op = op @ observables[m]
        total += coeff * op
    return require_hermitian(total)


# ---------------------------------------------------------------------------
# eigensystems
# ---------------------------------------------------------------------------


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude component real and positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        j = int(np.argmax(np.abs(col)))
        if abs(col[j]) > 0:
            out[:, k] = col * (np.conj(col[j]) / abs(col[j]))
    return out


def eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian.

    LAPACK through ``numpy.linalg.eigh``.  Returns (w, V) with
    matrix @ V = V @ diag(w), phases as in :func:`_fix_phases`.
    """
    w, v = np.linalg.eigh(require_hermitian(matrix))
    return w, _fix_phases(v)


def eigvals_characteristic_3x3(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric 3x3 by solving the cubic directly.

    Trigonometric solution of the characteristic polynomial; independent
    of :func:`eigensystem`, used as a cross-check oracle.
    """
    a = np.asarray(matrix)
    if a.shape != (3, 3) or np.any(np.imag(a) != 0):
        raise NotHermitian("characteristic oracle needs a real symmetric 3x3")
    a = require_hermitian(a).real  # rejects non-finite entries too
    shift = np.trace(a) / 3.0
    b = a - shift * np.eye(3)
    p2 = float(np.sum(b * b)) / 6.0
    if p2 <= 0.0:
        return np.array([shift, shift, shift])
    p = np.sqrt(p2)
    r = float(np.linalg.det(b)) / (2.0 * p ** 3)
    r = min(1.0, max(-1.0, r))
    angle = np.arccos(r) / 3.0
    eigs = shift + 2.0 * p * np.cos(angle + 2.0 * np.pi * np.arange(3) / 3.0)
    return np.sort(eigs)


class BlockDecomposition(NamedTuple):
    """The Bell operator split into two 3-dim invariant blocks.

    ``m`` is the restriction to span{|01>,|10>,|21>}; the restriction to
    the complementary block equals ``-m`` entrywise in the returned
    ``basis_minus``, whose middle vector carries a sign flip (-|11>), a
    pure phase convention.  Columns of the basis matrices are the kets.
    """

    m: np.ndarray
    basis_plus: np.ndarray
    basis_minus: np.ndarray


def block_decompose(chsh: np.ndarray) -> BlockDecomposition:
    """Split the Bell operator into its two odd/even invariant blocks."""
    chsh = require_hermitian(chsh)
    basis_plus = np.zeros((6, 3), dtype=complex)
    basis_minus = np.zeros((6, 3), dtype=complex)
    for k, idx in enumerate(PLUS_BLOCK):
        basis_plus[idx, k] = 1.0
    signs = (1.0, -1.0, 1.0)
    for k, idx in enumerate(MINUS_BLOCK):
        basis_minus[idx, k] = signs[k]
    cross = basis_plus.conj().T @ chsh @ basis_minus
    worst = float(np.max(np.abs(cross)))
    if not worst <= BLOCK_CROSS_TOL:  # NaN fails too
        raise BlockStructureViolated(
            f"cross-block entries reach {worst:.3e} (tolerance {BLOCK_CROSS_TOL:.1e})"
        )
    m = basis_plus.conj().T @ chsh @ basis_plus
    return BlockDecomposition(m, basis_plus, basis_minus)


# ---------------------------------------------------------------------------
# states and behaviors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _context_projectors() -> np.ndarray:
    """Read-only (10 * 8, 6, 6) stack of the contexts' commuting projectors.

    Row 8c + k is outcome k of context c, so the stacked expectation
    values reshape to the behavior tables.
    """
    eye3, eye2 = np.eye(3, dtype=complex), np.eye(2, dtype=complex)
    spectral = {}  # measurement id -> outcome -> projector on its own factor
    for i, v in enumerate(kcbs_vectors(), start=1):
        ray = np.outer(v, v).astype(complex)
        spectral[alice(i)] = {+1: ray, -1: eye3 - ray}
    for j in (1, 2):
        b = bob_observable(j)
        spectral[bob(j)] = {+1: (eye2 + b) / 2, -1: (eye2 - b) / 2}
    stack = np.stack(
        [
            np.kron(spectral[first][a] @ spectral[second][a2], spectral[third][o])
            for first, second, third in (c.members for c in CONTEXTS)
            for a, a2, o in itertools.product(OUTCOMES, repeat=3)
        ]
    )
    stack.setflags(write=False)
    return stack


def behavior_from_state(state: np.ndarray) -> Behavior:
    """Born-rule behavior of a pure qutrit-qubit state.

    Each context's eight probabilities are expectation values of products
    of the commuting spectral projectors, all contracted with the state
    in one ``einsum``.  The result always satisfies no-disturbance (up to
    roundoff).
    """
    psi = require_normalized(state)
    if psi.shape != (6,):
        raise NotNormalized(f"expected a 6-dim state, got shape {psi.shape}")
    probs = np.einsum("i,kij,j->k", psi.conj(), _context_projectors(), psi)
    return Behavior(np.real(probs).reshape(-1, 8))


def random_state_blocks(
    count: int, seed: int | np.random.Generator = 0
) -> Iterator[np.ndarray]:
    """:func:`random_states` drawn and yielded in blocks of rows, in order.

    The generator draws every real part first and then every imaginary
    part, so the ``(count, 6)`` real parts are drawn at once (48 bytes a
    state) and each block draws only its own imaginary parts.  Blocks
    hold ``_STATE_BLOCK`` states; a 1-row tail joins the block before it,
    since a 1-row product takes another BLAS path whose last bits can
    differ from the same row in a stack.  ``count = 0`` yields one empty
    block.

    Each block is written in place: both parts go into one complex array
    through its float64 view, which is then multiplied by the reciprocal
    of its row norms.  That is how numpy divides a complex by a real, so
    the bits equal ``raw / np.linalg.norm(raw, axis=1, keepdims=True)``.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    real = rng.standard_normal((count, 6))
    starts = list(range(0, max(count, 1), _STATE_BLOCK))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [count]):
        block = np.empty((stop - start, 6), dtype=complex)
        parts = block.view(np.float64)  # (rows, 12): re, im, re, im, ...
        parts[:, 0::2] = real[start:stop]
        parts[:, 1::2] = rng.standard_normal((stop - start, 6))
        block *= 1.0 / np.linalg.norm(block, axis=1, keepdims=True)
        yield block


def random_states(
    count: int, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Haar-like random pure states: normalized complex Gaussian rows.

    The concatenation of the blocks of :func:`random_state_blocks`, which
    is the one definition of the distribution and of the generator's
    draws.
    """
    return np.concatenate(list(random_state_blocks(count, seed)))


def expectation(operator: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re <psi|O|psi> for one state, shape (6,), or a stack, shape (n, 6).

    ``operator`` is one operator, shape (6, 6), or a stack, shape
    (m, 6, 6); a stack gives one row of values per operator, shape (m,)
    or (m, n), each row bit-identical to a call with that operator alone.
    Every operator must be finite and Hermitian within
    :data:`HERMITICITY_TOL` (:func:`require_hermitian`'s rule); otherwise
    :class:`NotHermitian` names the first bad one.  Every state must be
    finite with norm within :data:`NORM_TOL` of 1
    (:func:`require_normalized`'s rule); otherwise :class:`NotNormalized`
    names the first bad row.  The norms are checked once per call.  A
    stack of states is multiplied by each operator once, and each row is
    paired with its image through the real and imaginary parts, so no
    conjugate copy of the stack is made.
    """
    operators = np.asarray(operator, dtype=complex)
    if operators.ndim not in (2, 3) or operators.shape[-2:] != (6, 6):
        raise ValueError(
            f"expected an operator of shape (6, 6) or (m, 6, 6), got {operators.shape}"
        )
    stack = operators.reshape(-1, 6, 6)
    for k, op in enumerate(stack):
        try:
            require_hermitian(op)
        except NotHermitian as exc:
            name = "operator" if operators.ndim == 2 else f"operator {k}"
            raise NotHermitian(f"{name}: {exc}") from None
    states = np.asarray(states, dtype=complex)
    if states.ndim not in (1, 2) or states.shape[-1] != 6:
        raise ValueError(f"expected shape (6,) or (n, 6), got {states.shape}")
    if states.ndim == 1:
        require_normalized(states)
        values = np.array([np.real(states.conj() @ op @ states) for op in stack])
    else:
        _require_normalized_rows(states)
        values = np.empty((len(stack), len(states)))
        for op, row in zip(stack, values):
            images = states @ op.T
            np.einsum("ni,ni->n", states.real, images.real, out=row)
            row += np.einsum("ni,ni->n", states.imag, images.imag)
    return values[0] if operators.ndim == 2 else values


def _require_normalized_rows(states: np.ndarray) -> None:
    """:func:`require_normalized` for every row of a stack, in one pass.

    A function of its own, so the norms are freed before the caller
    allocates the stack's images.
    """
    parts = np.ascontiguousarray(states).view(np.float64)  # (n, 12): re, im, ...
    norms = np.sqrt(np.einsum("nk,nk->n", parts, parts))
    bad = ~(np.abs(norms - 1.0) <= NORM_TOL)  # NaN and inf fail too
    if bad.any():
        row = int(np.argmax(bad))
        raise NotNormalized(f"state {row} has norm {norms[row]}, expected 1")
