"""The quantum (chsh, kcbs) region of the qutrit-qubit implementation.

Both witnesses are block-diagonal in the same splitting of the 6-dim
space, so the reachable (chsh, kcbs) pairs of each 3-dim block form a
region swept by two real parameters:

    |theta, phi> = cos(theta)|a> + sin(theta) cos(phi)|b>
                 + sin(theta) sin(phi)|c>,

with |a> the block direction extremizing the pentagon witness and |b>,
|c> the eigenvectors of the upper-left 2x2 submatrix of the Bell block M.
The pentagon expectation depends on theta alone, so boundary points of
the region are exactly the phi-stationary points of the Bell expectation
at fixed theta.  Solving that stationarity for theta as a function of phi
gives the closed-form boundary condition

    tan(theta) = csc(2 phi) (g5 cos(phi) - g4 sin(phi)) / (2 g3),

and substituting it back yields one-parameter families of boundary states
f(phi)|01> + g(phi)|10> + |21> (plus block) and the mirrored family on
the other block.  The second block reproduces the same region with the
chsh axis negated.  The region touches the line chsh + kcbs = -5 at the
lowest eigenvector of M + N, whose eigenvalue is exactly -5.

All constants (alpha, beta, g1..g5, f, g) are recomputed from the Bell
block to full precision; rounded literature values appear only in tests
as anchors.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple, TextIO

import numpy as np

from .classical import (
    BOUND_SLACK,
    CHSH_CLASSICAL_BOUND,
    CHSH_QUANTUM_MIN,
    KCBS_CLASSICAL_BOUND,
    KCBS_QUANTUM_DEGENERATE,
    KCBS_QUANTUM_MIN,
    MONOGAMY_BOUND,
)
from .errors import SingularParameter
from .quantum import (
    _expectation_values,
    block_decompose,
    chsh_operator,
    eigensystem,
    kcbs_operator,
    random_state_blocks,
    require_hermitian,
)
from .scenario import number_array, real_number, require_count

#: distance from a multiple of pi/2 within which the boundary formula is singular
SINGULAR_PHI_TOL = 1e-9
#: half-width of the central difference in :func:`stationarity_residual`
RESIDUAL_STEP = 1e-6
_EXTREMES_BLOCK = 4096  # thetas per stacked root solve in _phi_extremes_many
#: largest |coefficient| of a theta's stationarity quartic at or below which
#: <M> counts as flat in phi, with no roots to solve
_LIVE_QUARTIC_TOL = 1e-15
#: |imaginary part| of a companion eigenvalue, relative to 1 + |real part|,
#: within which it counts as a real root: eigvals can split a double root into
#: a conjugate pair with a tiny imaginary part
_REAL_ROOT_TOL = 1e-9
_OFFENDERS_KEPT = 100  # offenders of each kind that a SweepReport lists

BRANCHES = ("plus", "minus")


# ---------------------------------------------------------------------------
# block data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _blocks() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(M, N, basis_plus, basis_minus): the real 3x3 blocks and embeddings."""
    decomposition = block_decompose(chsh_operator())
    m = np.real(decomposition.m)
    m.setflags(write=False)
    n = np.diag([KCBS_QUANTUM_DEGENERATE, KCBS_QUANTUM_DEGENERATE, KCBS_QUANTUM_MIN])
    n.setflags(write=False)
    return m, n, decomposition.basis_plus, decomposition.basis_minus


def bell_block() -> np.ndarray:
    """The 3x3 Bell block M in the basis (|01>, |10>, |21>)."""
    return _blocks()[0].copy()


def pentagon_block() -> np.ndarray:
    """The 3x3 pentagon block, diagonal in the same basis."""
    return _blocks()[1].copy()


@dataclass(frozen=True, eq=False)
class RegionBasis:
    """Orthonormal block frame (a, b, c) with b, c in the top 2x2 plane."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    alpha: float
    beta: float


@lru_cache(maxsize=None)
def region_basis() -> RegionBasis:
    """Frame with |b> minimizing and |c> maximizing <M> on the top plane.

    Cached: every call returns the same object, with read-only vectors.
    """
    m = _blocks()[0]
    w, v = eigensystem(m[:2, :2].astype(complex))
    minimizer = np.real(v[:, 0])
    alpha, beta = float(minimizer[0]), float(minimizer[1])
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([alpha, beta, 0.0])
    c = np.array([-beta, alpha, 0.0])
    for vec in (a, b, c):
        vec.setflags(write=False)
    return RegionBasis(a, b, c, alpha, beta)


class Gammas(NamedTuple):
    """Coefficients of the closed-form Bell expectation in the frame."""

    g1: float
    g2: float
    g3: float
    g4: float
    g5: float


@lru_cache(maxsize=None)
def gammas() -> Gammas:
    """g1 = <a|M|a>, g2/g3 = mean/half-gap of <b|M|b>, <c|M|c>, g4 = 2<a|M|b>,
    g5 = 2<a|M|c>; recomputed from the Bell block to full precision."""
    m = _blocks()[0]
    frame = region_basis()
    mbb = float(frame.b @ m @ frame.b)
    mcc = float(frame.c @ m @ frame.c)
    return Gammas(
        g1=float(frame.a @ m @ frame.a),
        g2=(mbb + mcc) / 2.0,
        g3=(mbb - mcc) / 2.0,
        g4=2.0 * float(frame.a @ m @ frame.b),
        g5=2.0 * float(frame.a @ m @ frame.c),
    )


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def expectation_M(theta, phi):
    """Closed-form Bell expectation <theta,phi|M|theta,phi> (array-safe).

    theta and phi broadcast.  cos^2 and sin^2 are libm ``math.pow(x, 2.0)``
    once per entry of theta, for every shape (``x * x`` rounds some thetas
    apart), so array calls equal scalar calls bit for bit.  A str, bool,
    None or complex entry raises ``ValueError`` (``scenario.number_array``'s
    rule, as for every closed form here)."""
    g = gammas()
    theta = number_array(theta, float, "theta")
    phi = number_array(phi, float, "phi")
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    squares = map(math.pow, np.ravel([cos_t, sin_t]).tolist(), repeat(2.0))
    cos_sq, sin_sq = np.fromiter(squares, float, 2 * theta.size).reshape(2, *theta.shape)
    value = (
        g.g1 * cos_sq
        + (g.g2 + g.g3 * np.cos(2 * phi)) * sin_sq
        + cos_t * sin_t * (g.g4 * np.cos(phi) + g.g5 * np.sin(phi))
    )
    return float(value) if value.ndim == 0 else value


def expectation_N(theta):
    """Closed-form pentagon expectation, independent of phi (array-safe):
    (m + d) / 2 + (m - d) / 2 cos(2 theta), with the pentagon spectrum
    m = ``KCBS_QUANTUM_MIN`` on |a> and d = ``KCBS_QUANTUM_DEGENERATE``."""
    m, d = KCBS_QUANTUM_MIN, KCBS_QUANTUM_DEGENERATE
    theta = number_array(theta, float, "theta")
    value = (m + d) / 2.0 + (m - d) / 2.0 * np.cos(2 * theta)
    return float(value) if value.ndim == 0 else value


def frame_state(theta, phi) -> np.ndarray:
    """The parametrized block vector in (e1, e2, e3) coordinates.

    Array-safe: the three coordinates run along a new last axis.
    """
    frame = region_basis()
    theta = number_array(theta, float, "theta")
    phi = number_array(phi, float, "phi")
    return (
        np.cos(theta)[..., None] * frame.a
        + (np.sin(theta) * np.cos(phi))[..., None] * frame.b
        + (np.sin(theta) * np.sin(phi))[..., None] * frame.c
    )


def closed_form_agreement_gap(n_theta: int, n_phi: int) -> float:
    """Worst |closed form - quadratic form| for both witnesses on a grid."""
    m, n, _, _ = _blocks()
    thetas = np.linspace(0.0, math.pi, n_theta)[:, None]  # a column against the phi row
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    states = frame_state(thetas, phis)
    direct_m = np.einsum("...i,ij,...j->...", states, m, states)
    direct_n = np.einsum("...i,ij,...j->...", states, n, states)
    gap_m = np.max(np.abs(expectation_M(thetas, phis) - direct_m))
    gap_n = np.max(np.abs(expectation_N(thetas) - direct_n))
    return float(max(gap_m, gap_n))


# ---------------------------------------------------------------------------
# boundary
# ---------------------------------------------------------------------------


def _check_not_singular(phi: float) -> float:
    """``phi`` as a float by ``scenario.real_number``'s rule, away from the
    multiples of pi/2 where the boundary formula is singular."""
    phi = real_number(phi, "phi")
    nearest = round(phi / (math.pi / 2)) * (math.pi / 2)
    if abs(phi - nearest) < SINGULAR_PHI_TOL:
        raise SingularParameter(
            f"phi={phi} is within {SINGULAR_PHI_TOL} of a multiple of pi/2 where the "
            "boundary formula is singular; approach by limit instead"
        )
    return phi


def boundary_theta(phi: float) -> float:
    """theta in [0, pi) making (theta, phi) a boundary point of the region.

    Solves the phi-stationarity of the Bell expectation at fixed theta,
    tan(theta) = csc(2 phi)(g5 cos(phi) - g4 sin(phi)) / (2 g3); the
    pentagon expectation is constant in phi, so these stationary points
    sweep the boundary curves.  ``phi`` is one number by
    ``scenario.real_number``'s rule.
    """
    phi = _check_not_singular(phi)
    g = gammas()
    t = (g.g5 * math.cos(phi) - g.g4 * math.sin(phi)) / (
        2.0 * g.g3 * math.sin(2.0 * phi)
    )
    theta = math.atan(t)
    return theta if theta >= 0.0 else theta + math.pi


def stationarity_residual(phi):
    """Central-difference d<M>/dphi at (boundary_theta(phi), phi) (array-safe).

    A float for a scalar phi, else an array of phi's shape.  Each theta is
    the scalar :func:`boundary_theta` of its phi, and the two
    :func:`expectation_M` calls equal their scalar calls bit for bit, so
    every entry equals the call on that phi alone.
    """
    phi = number_array(phi, float, "phi")
    theta = np.array([boundary_theta(p) for p in phi.ravel().tolist()]).reshape(phi.shape)
    step = RESIDUAL_STEP
    value = (expectation_M(theta, phi + step) - expectation_M(theta, phi - step)) / (
        2.0 * step
    )
    return float(value) if phi.ndim == 0 else value


def _phi_extremes_many(
    thetas,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(min value, its phi, max value, its phi) over phi, for every theta.

    Stationary phis solve a degree-4 polynomial in tan(phi/2); all real
    roots plus phi = pi are evaluated, and ties in value go to the smaller
    (min) or larger (max) phi mod 2 pi.  Where the polynomial vanishes
    (theta = 0) the expectation is constant and the candidates are 0 and
    pi.  The roots of each block of thetas come from one stacked
    eigenvalue solve of the companion matrices (ones on the subdiagonal,
    first row -p[1:]/p[0]).  Blocks of ``_EXTREMES_BLOCK`` thetas keep
    the temporaries, and so the peak memory, small (see
    :func:`_phi_extremes_block`).  The four results are 1-dim, one entry
    per theta.
    """
    thetas = np.asarray(thetas, dtype=float)
    blocks = [
        _phi_extremes_block(thetas[start : start + _EXTREMES_BLOCK])
        for start in range(0, len(thetas), _EXTREMES_BLOCK)
    ]
    lo, lo_phi, hi, hi_phi = (np.concatenate(col) for col in zip(*blocks))
    return lo, lo_phi, hi, hi_phi


def _phi_extremes_block(
    thetas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One block of :func:`_phi_extremes_many`.

    The n thetas of the block are columns.  The coefficients of the
    quartic, the five phi candidates (phi = pi in row 0, then the four
    root slots, 2 atan(root) where the root is real) and their ``valid``
    mask are (5, n) arrays, and so are the candidates' values, from one
    ``expectation_M`` call.  The minimum, the maximum and the tie-breaking
    phis reduce over axis 0, row by contiguous row.  Only the companion
    matrices are (m, 4, 4), one per live column, as ``np.linalg.eigvals``
    needs them.

    ``expectation_M`` equals its scalar calls bit for bit and the roots'
    angles are libm ``math.atan`` (``np.arctan`` differs in the last bit on
    some roots), so the boundary files do not depend on the block layout.
    """
    g = gammas()
    n = len(thetas)
    sin_t, cos_t = np.sin(thetas), np.cos(thetas)
    a = g.g3 * sin_t * sin_t
    b = g.g4 * sin_t * cos_t
    c = g.g5 * sin_t * cos_t
    coeffs = np.stack([-c, 8.0 * a - 2.0 * b, np.zeros_like(a), -(8.0 * a + 2.0 * b), c])
    live = np.abs(coeffs).max(axis=0) > _LIVE_QUARTIC_TOL
    # row 0 is phi = pi in every column; where the polynomial vanishes the
    # expectation is constant in phi and row 1 adds phi = 0
    phis = np.zeros((5, n))
    valid = np.zeros((5, n), dtype=bool)
    phis[0] = math.pi
    valid[0] = True
    valid[1] = ~live
    # the leading coefficient -g5 sin cos is nonzero on every live column
    p = coeffs[:, live]
    companion = np.zeros((p.shape[1], 4, 4))
    companion[:, 0, :] = (-p[1:] / p[0]).T
    companion[:, (1, 2, 3), (0, 1, 2)] = 1.0
    roots = np.linalg.eigvals(companion).T
    real = np.abs(roots.imag) <= _REAL_ROOT_TOL * (1.0 + np.abs(roots.real))
    real_roots = roots.real[real].tolist()
    atans = np.fromiter(map(math.atan, real_roots), float, len(real_roots))
    live_phis = np.zeros(real.shape)
    live_phis[real] = 2.0 * atans
    phis[1:, live] = live_phis
    valid[1:, live] = real

    values = expectation_M(thetas, phis)
    # np.mod(phis, 2 pi) for phis in [-pi, pi], several times faster: + 0.0
    # turns -0.0 into the 0.0 that np.mod gives
    wrapped = np.where(phis < 0.0, phis + 2 * math.pi, phis + 0.0)
    lo = np.where(valid, values, np.inf).min(axis=0)
    lo_phi = np.where(valid & (values == lo), wrapped, np.inf).min(axis=0)
    hi = np.where(valid, values, -np.inf).max(axis=0)
    hi_phi = np.where(valid & (values == hi), wrapped, -np.inf).max(axis=0)
    return lo, lo_phi, hi, hi_phi


def _check_points(chsh: np.ndarray, kcbs: np.ndarray, *angles: np.ndarray) -> None:
    """Reject the first point with a non-finite entry, then the first point
    below chsh + kcbs = ``MONOGAMY_BOUND``; every argument holds one entry
    per point."""
    finite = np.isfinite(np.stack([chsh, kcbs, *angles])).all(axis=0)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"point ({float(chsh[k])}, {float(kcbs[k])}) has a non-finite entry")
    below = chsh + kcbs < MONOGAMY_BOUND - BOUND_SLACK
    if below.any():
        k = int(np.argmax(below))
        point = f"({float(chsh[k])}, {float(kcbs[k])})"
        raise ValueError(f"point {point} breaks chsh+kcbs >= {MONOGAMY_BOUND!r}")


def _check_rows(chsh: np.ndarray, kcbs: np.ndarray, *angles: np.ndarray) -> None:
    """:func:`_check_points` on the plus point (chsh, kcbs) and the minus
    point (-chsh, kcbs) of every row, in (row, branch) order.

    The columns are tested as they are, with no 2n-long copies; the first
    bad row's two points then go to :func:`_check_points`, which raises
    for the first of them.  kcbs - chsh has the bits of -chsh + kcbs.
    """
    finite = np.isfinite(chsh)
    for column in (kcbs, *angles):
        finite &= np.isfinite(column)
    if finite.all():
        bad = chsh + kcbs < MONOGAMY_BOUND - BOUND_SLACK
        bad |= kcbs - chsh < MONOGAMY_BOUND - BOUND_SLACK
    else:
        bad = ~finite
    if bad.any():
        r = int(np.argmax(bad))
        row = (np.repeat(c[r], 2) for c in (kcbs, *angles))
        _check_points(np.array([chsh[r], -chsh[r]]), *row)


@dataclass(frozen=True)
class RegionPoint:
    """One (chsh, kcbs) pair with the block and parameters producing it.

    Each number field is one real number by ``scenario.real_number``'s
    rule, stored as a float; anything else, a 0-d array included, raises
    its ``ValueError``, and so does a point below the monogamy line.
    """

    chsh: float
    kcbs: float
    branch: str
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {self.branch!r}")
        values = []
        for name in ("chsh", "kcbs", "theta", "phi"):
            values.append(real_number(getattr(self, name), name))
            object.__setattr__(self, name, values[-1])
        _check_points(*np.array(values)[:, None])


@dataclass(frozen=True, eq=False)
class Boundary:
    """Both branches of the sampled boundary, kept as columns.

    Row i of ``theta``, ``phi``, ``chsh`` and ``kcbs`` is one arm point:
    the lower arm (minimum over phi) first, then the upper arm.  The plus
    branch has ``chsh`` and the minus branch ``-chsh``; both share theta,
    phi and kcbs.  ``plus_order`` and ``minus_order`` list the rows of each
    branch by kcbs, then chsh, ties in row order.  ``len`` counts the
    points of both branches.  Each column is a read-only float copy of
    what was given, whose entries pass ``scenario.number_array``'s entry
    rule.
    """

    theta: np.ndarray
    phi: np.ndarray
    chsh: np.ndarray
    kcbs: np.ndarray
    plus_order: np.ndarray = field(init=False)
    minus_order: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        names = ("theta", "phi", "chsh", "kcbs")
        # a copy, so that the caller's arrays stay writable
        columns = [number_array(getattr(self, name), float, name).copy() for name in names]
        theta, phi, chsh, kcbs = columns
        if theta.ndim != 1 or any(c.shape != theta.shape for c in columns):
            raise ValueError("boundary columns must be 1-dim and of equal length")
        _check_rows(chsh, kcbs, theta, phi)
        orders = np.lexsort((chsh, kcbs)), np.lexsort((-chsh, kcbs))
        names += ("plus_order", "minus_order")
        for name, value in zip(names, (*columns, *orders)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return 2 * len(self.theta)


def sample_boundary(n: int) -> Boundary:
    """n points per branch tracing the closed quantum boundary curves.

    For each theta on a grid over [0, pi/2] the Bell expectation is
    extremized over phi exactly; lower and upper extremes give the two
    arms of the boundary, of (n + 1) // 2 and n // 2 thetas.  When both
    arms have the same grid (every even n) one :func:`_phi_extremes_many`
    call serves both; with libm ``atan`` for the roots, every point is
    bit-identical to a per-theta solve with scalar ``expectation_M``.  The
    minus branch is the plus branch with the chsh coordinate negated.
    ``plus_order`` and ``minus_order`` order each branch by kcbs, then chsh.
    ``n`` must be an integer of at least 2, and not a bool
    (``scenario.require_count``'s ``ValueError``).
    """
    n = require_count(n, "n", 2)
    n_lower = (n + 1) // 2
    lower = np.linspace(0.0, math.pi / 2, n_lower)
    if n - n_lower == n_lower:
        upper = lower
        lo, lo_phi, hi, hi_phi = _phi_extremes_many(lower)
    else:
        upper = np.linspace(0.0, math.pi / 2, n - n_lower)
        lo, lo_phi, _, _ = _phi_extremes_many(lower)
        _, _, hi, hi_phi = _phi_extremes_many(upper)
    theta = np.concatenate([lower, upper])
    return Boundary(
        theta=theta,
        phi=np.concatenate([lo_phi, hi_phi]),
        chsh=np.concatenate([lo, hi]),
        kcbs=expectation_N(theta),
    )


def touching_point() -> RegionPoint:
    """The boundary point minimizing chsh + kcbs.

    It is the lowest eigenvector v of M + N, whose eigenvalue is exactly
    -5, so the point lies on the no-disturbance line chsh + kcbs = -5.
    With the sign of v fixed by v.a >= 0, theta = acos(v.a) and
    phi = atan2(v.c, v.b) place it on the lower plus-branch boundary.
    """
    m, n, _, _ = _blocks()
    frame = region_basis()
    _, vectors = eigensystem(m + n)
    v = np.real(vectors[:, 0])
    if v @ frame.a < 0.0:
        v = -v
    theta = math.acos(min(1.0, float(v @ frame.a)))
    phi = math.atan2(float(v @ frame.c), float(v @ frame.b)) % (2 * math.pi)
    return RegionPoint(float(v @ m @ v), float(v @ n @ v), "plus", theta, phi)


# ---------------------------------------------------------------------------
# boundary states
# ---------------------------------------------------------------------------


def boundary_coefficients(phi: float) -> tuple[float, float]:
    """(f, g) with f e1 + g e2 + e3 the unnormalized boundary vector."""
    theta = boundary_theta(phi)
    tan_theta = math.tan(theta)
    frame = region_basis()
    f = tan_theta * (frame.alpha * math.cos(phi) - frame.beta * math.sin(phi))
    g = tan_theta * (frame.beta * math.cos(phi) + frame.alpha * math.sin(phi))
    return f, g


def boundary_state(phi: float, branch: str = "plus") -> np.ndarray:
    """Normalized 6-dim state mapping onto the boundary at parameter phi.

    Plus branch: f|01> + g|10> + |21>.  Minus branch: the mirrored family
    on the complementary block (in that block's sign convention), whose
    point is the plus point with chsh negated.
    """
    if branch not in BRANCHES:
        raise ValueError(f"branch must be one of {BRANCHES}, got {branch!r}")
    f, g = boundary_coefficients(phi)
    block_vec = np.array([f, g, 1.0], dtype=complex)
    block_vec /= np.linalg.norm(block_vec)
    basis = _blocks()[2] if branch == "plus" else _blocks()[3]
    return basis @ block_vec


# ---------------------------------------------------------------------------
# membership sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Random-state sweep statistics against the three pointwise bounds."""

    samples: int
    seed: int
    min_kcbs: float
    min_chsh: float
    min_sum: float
    monogamy_violations: list[dict] = field(default_factory=list)
    kcbs_floor_violations: list[dict] = field(default_factory=list)
    chsh_floor_violations: list[dict] = field(default_factory=list)
    kcbs_only_violation_count: int = 0
    chsh_only_violation_count: int = 0

    @property
    def clean(self) -> bool:
        return not (
            self.monogamy_violations
            or self.kcbs_floor_violations
            or self.chsh_floor_violations
        )


def region_membership_sweep(samples: int, seed: int = 0) -> SweepReport:
    """Check random pure states against the three region bounds.

    Every state must satisfy chsh + kcbs >= -5, kcbs >= ``KCBS_QUANTUM_MIN``
    and chsh >= ``CHSH_QUANTUM_MIN``, all within ``BOUND_SLACK``; the report
    also counts states violating exactly one of the two classical bounds
    (the two-sided tradeoff), by the rule of ``MonogamyReport``: a value
    more than ``BOUND_SLACK`` below its bound violates it.  The states of
    ``random_states(samples, seed)`` are drawn and checked in blocks
    (:func:`random_state_blocks`), and only the report's minima, first
    offenders and counts are kept, so the sweep holds 48 bytes a state of
    drawn real parts plus one block.  ``samples`` must be an integer of at
    least 1 and ``seed`` one of at least 0 or a ``Generator``, neither a
    bool (``scenario.require_count``'s ``ValueError``).

    The checks run once a sweep: the witness stack passes
    ``require_hermitian`` before the first draw, and every block of
    :func:`random_state_blocks` is normalized by construction, so each
    block goes straight to the arithmetic of ``quantum.expectation``, with
    the same values bit for bit.
    """
    samples = require_count(samples, "samples", 1)
    operators = require_hermitian(np.stack([kcbs_operator(), chsh_operator()]))
    lows = []  # per block: (kcbs, chsh, sum) minima
    found: tuple[list[dict], ...] = ([], [], [])  # monogamy, kcbs floor, chsh floor
    kcbs_only = chsh_only = 0
    start = 0
    for states in random_state_blocks(samples, seed):
        kcbs, chsh = _expectation_values(operators, states)
        total = kcbs + chsh
        lows.append((kcbs.min(), chsh.min(), total.min()))
        masks = (
            total < MONOGAMY_BOUND - BOUND_SLACK,
            kcbs < KCBS_QUANTUM_MIN - BOUND_SLACK,
            chsh < CHSH_QUANTUM_MIN - BOUND_SLACK,
        )
        for offenders, mask in zip(found, masks):
            for i in np.flatnonzero(mask)[: _OFFENDERS_KEPT - len(offenders)]:
                offenders.append(
                    {"index": start + int(i), "kcbs": float(kcbs[i]), "chsh": float(chsh[i])}
                )
        kcbs_low = kcbs < KCBS_CLASSICAL_BOUND - BOUND_SLACK
        chsh_low = chsh < CHSH_CLASSICAL_BOUND - BOUND_SLACK
        kcbs_only += int(np.count_nonzero(kcbs_low & ~chsh_low))
        chsh_only += int(np.count_nonzero(chsh_low & ~kcbs_low))
        start += len(states)
    min_kcbs, min_chsh, min_sum = (float(v) for v in np.min(lows, axis=0))
    return SweepReport(
        samples=samples,
        seed=seed,
        min_kcbs=min_kcbs,
        min_chsh=min_chsh,
        min_sum=min_sum,
        monogamy_violations=found[0],
        kcbs_floor_violations=found[1],
        chsh_floor_violations=found[2],
        kcbs_only_violation_count=kcbs_only,
        chsh_only_violation_count=chsh_only,
    )


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


BOUNDARY_HEADER = "branch,phi,theta,chsh,kcbs"
_CSV_BLOCK = 4096  # rows per write

# A number is formatted into a cell of _CELL_WORDS uint64 words, 40 bytes:
# byte 0 holds its sign, bytes 1-5 the "0.000" that leads a number below 1,
# byte 6 + 2i the i-th of its 17 significant digits and byte 7 + 2i a
# decimal point after that digit.  Every other byte is NUL, and the cell
# with its NULs removed is the number's .17g string.  Byte 39 stays NUL,
# free for a field separator.
_CELL_WORDS = 5
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for float64


class _FormatTables(NamedTuple):
    """Lookup tables of :func:`_csv_cells`."""

    pow10: np.ndarray  # 10**k for k = 0..22, each exact in float64
    pow10_hi: np.ndarray  # its upper 26 bits, for Dekker's product
    ten: np.ndarray  # 10**k as int64, k = 0..16
    lead: np.ndarray  # the word holding lead digit d at byte 6, by d
    quads: np.ndarray  # the digit bytes of q = 0..9999; at 10000 + q with trailing zeros NUL
    marks: np.ndarray  # sign, "0.000", point and integer zeros, by (sign, e10 + 4, point)


def _as_words(byte_rows) -> np.ndarray:
    """Rows of 8k bytes read as k native uint64 words."""
    return np.ascontiguousarray(byte_rows, dtype=np.uint8).view(np.uint64)


@lru_cache(maxsize=None)
def _format_tables() -> _FormatTables:
    pow10 = np.array([float(10**k) for k in range(23)])
    split = _SPLIT * pow10
    q = np.arange(10000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1) + ord("0")
    significant = np.select([q % 10 > 0, q % 100 > 0, q % 1000 > 0, q > 0], [4, 3, 2, 1], 0)
    quads = np.zeros((2, 10000, 8), np.uint8)
    quads[0, :, ::2] = digits
    quads[1, :, ::2] = np.where(np.arange(4) < significant[:, None], digits, 0)
    lead = np.zeros((10, 8), np.uint8)
    lead[:, 6] = np.arange(10) + ord("0")
    sign, e10, point, at = np.ix_(range(2), range(-4, 16), range(2), range(8 * _CELL_WORDS))
    marks = np.select(
        [
            (at == 0) & (sign == 1),
            (e10 < 0) & (at == 2),
            (e10 < 0) & (at >= 1) & (at <= 1 - e10),
            (e10 >= 0) & (point == 1) & (at == 7 + 2 * e10),
            (at >= 6) & (at % 2 == 0) & (at <= 6 + 2 * e10),
        ],
        [ord("-"), ord("."), ord("0"), ord("."), ord("0")],
        0,
    )
    return _FormatTables(
        pow10=pow10,
        pow10_hi=split - (split - pow10),
        ten=10 ** np.arange(17),
        lead=_as_words(lead).ravel(),
        quads=_as_words(quads).ravel(),
        marks=_as_words(marks.reshape(-1, 8 * _CELL_WORDS)),
    )


def _scaled(a: np.ndarray, e10: np.ndarray, tables: _FormatTables) -> np.ndarray:
    """a * 10**(16 - e10) rounded to an integer, ties to even, exactly.

    Dekker's product gives a * 10**k as hi + lo with no rounding error:
    10**k is exact for k <= 22, and nothing overflows or underflows here.
    The product is near 10**16 or above, so hi exceeds 2**53 and is an
    even integer, and the nearest integer to hi + lo, ties to even, is
    hi + rint(lo).
    """
    k = 16 - e10
    p, p_hi = tables.pow10[k], tables.pow10_hi[k]
    p_lo = p - p_hi
    split = _SPLIT * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    hi = a * p
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _csv_cells(values: np.ndarray) -> np.ndarray:
    """The cells of a 1-dim float64 array (see ``_CELL_WORDS``), one row each.

    A finite x with 1e-4 <= |x| < 1e16 is in the fixed notation of
    ``.17g``.  Its digits are N = |x| * 10**(16 - e10), rounded, for the
    decimal exponent e10 that puts N in [10**16, 10**17).  e10 starts as
    floor(log10|x|) and moves by one where N falls outside, because log10
    was off by one or the rounding carried to 10**17.  The 16 digits after
    the lead come as four words of four from a table; the last word with a
    nonzero digit drops its trailing zeros and later words are NUL.  The
    four-digit numbers are one (4, n) array, a contiguous row per word
    position: each row is split off the digits by floor division, and the
    table offset of the dropped zeros is added row by row from the last.
    Only the gather into the (n, 5) cells transposes them.  The
    marks add the sign, the "0.000" of e10 < 0, the point unless every
    digit after it is zero, and the zeros of the integer part (OR with "0"
    keeps a digit byte as it is).  Every other value, zeros and signed
    zeros among them, goes through ``format`` one at a time.
    """
    tables = _format_tables()
    magnitude = np.abs(values)
    fixed = (magnitude >= 1e-4) & (magnitude < 1e16)
    magnitude = np.where(fixed, magnitude, 1.0)
    e10 = np.floor(np.log10(magnitude)).astype(np.int64)
    digits = _scaled(magnitude, e10, tables)
    while len(wrong := np.flatnonzero((digits < 10**16) | (digits >= 10**17))):
        e10[wrong] += np.where(digits[wrong] < 10**16, -1, 1)
        digits[wrong] = _scaled(magnitude[wrong], e10[wrong], tables)
    # word k holds digits // 10**(12 - 4k) less 10**4 times the digits above
    # it; floor division by a scalar is several times faster than np.divmod
    lead = above = digits // 10**16
    quads = np.empty((4, len(values)), np.int64)
    for k, scale in enumerate((10**12, 10**8, 10**4, 1)):
        upto = digits // scale if scale > 1 else digits
        np.subtract(upto, above * 10**4, out=quads[k])
        above = upto
    # the last word, and every word before a stripped all-zero one, takes
    # the table's trailing-zeros-as-NUL half
    quads[3] += 10000
    for k in (2, 1, 0):
        np.add(quads[k], 10000, out=quads[k], where=quads[k + 1] == 10000)
    cells = np.empty((len(values), _CELL_WORDS), np.uint64)
    cells[:, 0] = tables.lead[lead]
    cells[:, 1:] = tables.quads[quads.T]
    # 10**16 is a multiple of every divisor here, so the lead digit drops out
    point = (e10 < 0) | (digits % tables.ten[16 - np.maximum(e10, 0)] > 0)
    # take, not [], gathers whole rows of a 2-dim table several times faster
    cells |= tables.marks.take((np.signbit(values) * 20 + e10 + 4) * 2 + point, axis=0)
    other = np.flatnonzero(~fixed)
    if len(other):
        text = np.array([format(x, ".17g") for x in values[other].tolist()], dtype="S40")
        cells[other] = text.view(np.uint64).reshape(-1, _CELL_WORDS)
    return cells


def _ascii_word(text: str) -> np.uint64:
    """Up to 8 ASCII characters as one NUL-padded word."""
    return np.frombuffer(text.encode().ljust(8, b"\0"), np.uint64)[0]


def _cell_end(char: str) -> np.uint64:
    """The word that puts ``char`` in byte 39, the free last byte of a cell."""
    return _ascii_word("\0" * 7 + char)


def _write_lines(
    file: TextIO, columns: Sequence[np.ndarray], order: np.ndarray | None = None, label: str = ""
) -> None:
    """One line per row: ``label,`` when a label is given, then the row's
    entry of each float column at 17 significant digits, comma-separated.

    Rows go in ``order``, or as stored when it is None, in blocks of
    ``_CSV_BLOCK``.  Each block is gathered, formatted, joined and written
    at once, so no temporary outgrows a block.
    """
    ends = np.full(len(columns), _cell_end(","))
    ends[-1] = _cell_end("\n")
    count = len(columns[0]) if order is None else len(order)
    for start in range(0, count, _CSV_BLOCK):
        stop = start + _CSV_BLOCK
        rows = slice(start, stop) if order is None else order[start:stop]
        values = np.stack([column[rows] for column in columns], axis=1, dtype=float)
        cells = _csv_cells(values.ravel()).reshape(len(values), len(columns), _CELL_WORDS)
        cells[:, :, -1] |= ends
        lines = cells.reshape(len(values), -1)
        if label:
            prefix = np.full((len(lines), 1), _ascii_word(label + ","))
            lines = np.concatenate([prefix, lines], axis=1)
        file.write(lines.tobytes().translate(None, b"\0").decode("ascii"))


def write_csv(file: TextIO, header: str, *columns: np.ndarray) -> None:
    """The header line, then one line per row of the float columns."""
    file.write(header + "\n")
    _write_lines(file, columns)


def write_boundary_csv(file: TextIO, boundary: Boundary) -> None:
    """Rows 'branch,phi,theta,chsh,kcbs': the plus branch in ``plus_order``,
    then the minus branch, its chsh formatted from ``-chsh``, in
    ``minus_order``.
    """
    file.write(BOUNDARY_HEADER + "\n")
    for branch, order, chsh in (
        ("plus", boundary.plus_order, boundary.chsh),
        ("minus", boundary.minus_order, -boundary.chsh),
    ):
        _write_lines(file, (boundary.phi, boundary.theta, chsh, boundary.kcbs), order, branch)


def write_point_csv(file: TextIO, point: RegionPoint) -> None:
    """The one-row boundary CSV of a single point, such as the touching point."""
    file.write(BOUNDARY_HEADER + "\n")
    numbers = [np.array([x]) for x in (point.phi, point.theta, point.chsh, point.kcbs)]
    _write_lines(file, numbers, label=point.branch)
