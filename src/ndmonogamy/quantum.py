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

from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .classical import LinearExpression, chsh_expression, kcbs_expression
from .errors import BlockStructureViolated, NotHermitian, NotNormalized
from .scenario import (
    CONTEXTS,
    OUTCOME_TRIPLES,
    PROB_TOL,
    Behavior,
    alice,
    bob,
    canonical_context,
    number_array,
    require_count,
    row_sum,
    seeded_generator,
)

HERMITICITY_TOL = 1e-12
#: largest distance of a state's norm from 1; the Born probabilities sum to
#: the squared norm, so every accepted state's behavior passes ``PROB_TOL``
NORM_TOL = 0.4 * PROB_TOL
#: largest cross-block entry that :func:`block_decompose` accepts
BLOCK_CROSS_TOL = 1e-10
_STATE_BLOCK = 8192  # states per block of random_state_blocks
#: least squared norm that random_state_blocks scales to 1; below it the
#: squared moduli lose bits to subnormal rounding
_TINY = np.finfo(np.float64).tiny

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)

#: product-basis index of qutrit level t and qubit level q
PLUS_BLOCK = (1, 2, 5)    # |01>, |10>, |21>
MINUS_BLOCK = (0, 3, 4)   # |00>, |11>, |20>


def require_hermitian(matrix: np.ndarray) -> np.ndarray:
    """One operator, shape (n, n), or a stack, shape (m, n, n), as a complex array.

    Any other shape raises ``ValueError``.  Every operator must be finite
    and within :data:`HERMITICITY_TOL` of its conjugate transpose;
    otherwise :class:`NotHermitian` gives the gap, and for a stack names
    the first bad operator as "operator k".  A str, bool or None entry
    raises ``ValueError``.
    """
    matrix = number_array(matrix, complex, "operator")
    if matrix.ndim not in (2, 3) or matrix.shape[-1] != matrix.shape[-2]:
        raise ValueError(f"expected shape (n, n) or (m, n, n), got {matrix.shape}")
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
        gaps = np.abs(matrix - np.swapaxes(matrix, -1, -2).conj()).max(axis=(-2, -1))
    bad = ~(gaps <= HERMITICITY_TOL)  # NaN fails too
    if bad.any():
        k = int(np.argmax(bad))
        name = "matrix" if matrix.ndim == 2 else f"operator {k}: matrix"
        raise NotHermitian(f"{name} deviates from Hermiticity by {gaps.flat[k]:.3e}")
    return matrix


def require_normalized(states: np.ndarray) -> np.ndarray:
    """One state, shape (6,), or a stack, shape (n, 6), as a complex array.

    Any other shape raises ``ValueError``.  Every state must be finite with
    norm within :data:`NORM_TOL` of 1; otherwise :class:`NotNormalized`
    names the first bad row of a stack.  The norms come from one pass over
    the real and imaginary parts of all states.  A str, bool or None entry
    raises ``ValueError``.
    """
    states = number_array(states, complex, "state")
    if states.ndim not in (1, 2) or states.shape[-1] != 6:
        raise ValueError(f"expected shape (6,) or (n, 6), got {states.shape}")
    parts = np.ascontiguousarray(states).view(np.float64).reshape(-1, 12)  # re, im, ...
    norms = np.sqrt(np.einsum("nk,nk->n", parts, parts))
    gaps = np.abs(norms - 1.0)
    if not gaps.max(initial=0.0) <= NORM_TOL:  # NaN and inf fail too
        row = int(np.argmax(~(gaps <= NORM_TOL)))
        name = "state" if states.ndim == 1 else f"state {row}"
        raise NotNormalized(f"{name} has norm {norms[row]}, expected 1")
    return states


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
    """The 6-dim observable whose expectation equals the expression value, a new array.

    Every term's subset must be jointly measurable, so the per-term
    operator products commute and the result is Hermitian.  The terms'
    products are added in term order.
    """
    total = np.zeros((6, 6), dtype=complex)
    for coeff, subset in expr.terms:
        total += coeff * _term_product(subset)
    return require_hermitian(total)


@lru_cache(maxsize=None)
def _term_product(subset: tuple[str, ...]) -> np.ndarray:
    """Read-only product of the subset's observables, left to right.

    Cached per subset; a subset that no context contains raises
    :class:`~ndmonogamy.errors.SubsetNotMeasurable` on every call, since
    a raising call caches nothing.
    """
    canonical_context(subset)  # raises SubsetNotMeasurable
    observables = observables_6d()
    op = np.eye(6, dtype=complex)
    for m in subset:
        op = op @ observables[m]
    op.setflags(write=False)
    return op


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
            for a, a2, o in OUTCOME_TRIPLES
        ]
    )
    stack.setflags(write=False)
    return stack


def behavior_from_state(state: np.ndarray) -> Behavior:
    """Born-rule behavior of a pure qutrit-qubit state.

    Each context's eight probabilities are expectation values of products
    of the commuting spectral projectors, all contracted with the state
    in one ``einsum``.  The result always satisfies no-disturbance (up to
    roundoff).  ``state`` is one state under :func:`require_normalized`'s
    rule; a stack raises ``ValueError``.
    """
    psi = require_normalized(state)
    if psi.ndim != 1:
        raise ValueError(f"expected one state of shape (6,), got {psi.shape}")
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
    block; a bool, a non-integer or a negative count or seed raises
    ``ValueError`` naming it (``scenario.require_count``'s rule) at the
    call.

    Each block is written in place: both parts go into one complex array
    through its float64 view, which is then multiplied by the reciprocal
    of its row norms.  A row's squared norm is the ``scenario.row_sum`` of
    numpy's squared moduli ``(block.conj() * block).real``, which is how
    ``np.linalg.norm`` adds a 6-entry row, and numpy divides a complex by a
    real through that reciprocal; so the bits equal
    ``raw / np.linalg.norm(raw, axis=1, keepdims=True)``.  A squared norm
    that is zero, subnormal or not finite raises :class:`NotNormalized`
    naming the state, so every yielded block is normalized (within
    :data:`NORM_TOL`) by construction and needs no :func:`require_normalized`.
    """
    return _state_blocks(require_count(count, "count", 0), seeded_generator(seed))


def _state_blocks(count: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    real = rng.standard_normal((count, 6))
    starts = list(range(0, max(count, 1), _STATE_BLOCK))
    if len(starts) > 1 and count - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [count]):
        block = np.empty((stop - start, 6), dtype=complex)
        parts = block.view(np.float64)  # (rows, 12): re, im, re, im, ...
        parts[:, 0::2] = real[start:stop]
        parts[:, 1::2] = rng.standard_normal((stop - start, 6))
        with np.errstate(over="ignore", invalid="ignore"):  # such rows fail below
            squares = row_sum((block.conj() * block).real)
        fine = (_TINY <= squares) & (squares < np.inf)  # NaN fails too
        if not fine.all():
            row = int(np.argmin(fine))
            raise NotNormalized(
                f"state {start + row} has norm {np.sqrt(squares[row])}, cannot be normalized"
            )
        block *= (1.0 / np.sqrt(squares))[:, None]
        yield block


def random_states(
    count: int, seed: int | np.random.Generator = 0
) -> np.ndarray:
    """Haar-like random pure states: normalized complex Gaussian rows.

    The concatenation of the blocks of :func:`random_state_blocks`, which
    is the one definition of the distribution, of the generator's draws
    and of the count rule.
    """
    return np.concatenate(list(random_state_blocks(count, seed)))


def expectation(operator: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re <psi|O|psi> for one state, shape (6,), or a stack, shape (n, 6).

    ``operator`` is one operator, shape (6, 6), or a stack, shape
    (m, 6, 6); a stack gives one row of values per operator, shape (m,)
    or (m, n), each row bit-identical to a call with that operator alone.
    Operator entries, like states', must be numbers (not str, bool or
    None; ``ValueError``).  The operators pass :func:`require_hermitian`
    and the states :func:`require_normalized`, each once per call.  A
    stack of states is multiplied by each operator once, and each row is
    paired with its image through the real and imaginary parts, so no
    conjugate copy of the stack is made.
    """
    operators = number_array(operator, complex, "operator")
    if operators.ndim not in (2, 3) or operators.shape[-2:] != (6, 6):
        raise ValueError(
            f"expected an operator of shape (6, 6) or (m, 6, 6), got {operators.shape}"
        )
    stack = require_hermitian(operators).reshape(-1, 6, 6)
    values = _expectation_values(stack, require_normalized(states))
    return values[0] if operators.ndim == 2 else values


def _expectation_values(stack: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The arithmetic of :func:`expectation`, shape (m,) or (m, n), unchecked.

    ``stack`` is a complex (m, 6, 6) stack that passed
    :func:`require_hermitian` and ``states`` one complex state or stack
    that passed :func:`require_normalized` or came from
    :func:`random_state_blocks`.
    """
    if states.ndim == 1:
        return np.array([np.real(states.conj() @ op @ states) for op in stack])
    values = np.empty((len(stack), len(states)))
    for op, row in zip(stack, values):
        images = states @ op.T
        np.einsum("ni,ni->n", states.real, images.real, out=row)
        row += np.einsum("ni,ni->n", states.imag, images.imag)
    return values
