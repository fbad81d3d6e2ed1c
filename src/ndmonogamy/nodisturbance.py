"""The no-disturbance polytope: joint constructions, LP bounds, monogamy.

Under no-disturbance, the context tables of a behavior can be stitched
into explicit joint distributions over larger measurement sets by
conditional product formulas.  The existence of those joints forces the
pentagon-shaped and Bell-shaped parts of any kcbs+chsh split back to
their classical bounds (-3 and -2), which is the monogamy relation
``kcbs + chsh >= -5``.  This module builds the joints and verifies them,
one row per behavior of an (n, 10, 8) stack of context tables; the stack
and every joint obey the one table rule, ``scenario.probability_tables``,
and the joins and the certificate take only stacks whose every row is
no-disturbance at the fixed ``scenario.ND_TOL``, by the rule of
``scenario.check_no_disturbance``.
Committed exact certificates prove every no-disturbance bound with no LP;
:func:`nd_optimum`, the LP over the 80-dimensional behavior polytope that
found them, is the one function here that needs scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .classical import (
    BOUND_SLACK,
    CHSH_CLASSICAL_BOUND,
    KCBS_CLASSICAL_BOUND,
    PIVOTS,
    BoundRow,
    LinearExpression,
)
from .errors import Infeasible, InvalidCertificate, NotNoDisturbance
from .scenario import (
    CONTEXTS,
    KCBS_TERMS,
    LABELS,
    ND_TOL,
    OUTCOMES,
    PROB_TOL,
    Behavior,
    alice,
    bob,
    canonical_context,
    chsh_terms,
    expression_values,
    marginal_constraint_rows,
    nd_violations,
    probability_tables,
    real_number,
    require_count,
    require_integer,
    require_subset,
    row_sum,
    seeded_generator,
    table_sum,
    term,
    wrap_pivot,
)

#: raw rows that sample_behavior_matrix draws, projects and accepts per pass.  On
#: the OpenBLAS it was tested with (0.3.31), a row's projection has the same bits
#: in every product of 16 rows or more, while 2- and 3-row products can differ in
#: the last bits; CI's witness_bytes.py comparison with the base commit guards it
_SAMPLE_BATCH = 512
#: singular value, relative to the largest, below which a direction of the
#: no-disturbance equality system counts as outside its row space
_RANK_TOL = 1e-12


# ---------------------------------------------------------------------------
# joint distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A stack of distributions over +-1 outcome tuples of several measurements.

    ``probs`` is an (n, 2**k) array with one joint table over the k
    distinct ``variables`` per row.  Indexing is lexicographic with -1
    before +1 and the first variable most significant, matching the
    context-table convention.  ``variables`` is a tuple or list of str
    ids; a str, or any other id, raises ``ValueError`` naming it.  Every
    row is checked as a probability table by
    :func:`~ndmonogamy.scenario.probability_tables` at ``PROB_TOL``.
    """

    variables: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        if not (
            isinstance(self.variables, (tuple, list)) and all(isinstance(m, str) for m in self.variables)
        ):
            raise ValueError(f"joint variables must be a tuple or list of str ids, got {self.variables!r}")
        variables = tuple(self.variables)
        if len(set(variables)) < len(variables):
            raise ValueError(f"joint variables {variables} repeat a name")
        probs = probability_tables(
            self.probs, (None, 2 ** len(variables)), "joint stack", "joint row {}".format
        )
        probs.setflags(write=False)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "probs", probs)

    def marginal(self, subset: Sequence[str]) -> "JointDistribution":
        """Marginals of every row over ``subset`` (in ``subset`` order)."""
        return JointDistribution(tuple(subset), self._marginals(subset))

    def correlator(self, subset: Sequence[str]) -> np.ndarray:
        """Mean product of the outcomes of ``subset``, one value per row: the
        ``scenario.table_sum`` of each row's marginal with its outcome signs."""
        return table_sum(self._marginals(subset), _product_signs(len(subset)))

    def _marginals(self, subset: Sequence[str]) -> np.ndarray:
        """(n, 2**len(subset)) marginals over ``subset``, in ``subset`` order.
        A str subset raises ``scenario.require_subset``'s ``ValueError``."""
        subset = require_subset(subset, "variables")
        for m in subset:
            if m not in self.variables:
                raise ValueError(f"{m!r} is not a variable of {self.variables}")
        if len(set(subset)) < len(subset):
            raise ValueError(f"subset {subset} repeats a variable")
        drop, order = _marginal_layout(self.variables, subset)
        summed = self.probs.reshape((-1,) + (2,) * len(self.variables)).sum(axis=drop)
        return np.transpose(summed, order).reshape(len(self.probs), 2 ** len(subset))


@lru_cache(maxsize=256)
def _marginal_layout(
    variables: tuple[str, ...], subset: tuple[str, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(axes summed out, transpose order of the rest) that take a joint stack
    over ``variables``, one axis a variable after the row axis, to its
    marginals over ``subset``, in ``subset`` order.  ``subset`` names
    distinct variables.  Memoised per pair."""
    positions = [variables.index(m) for m in subset]
    drop = tuple(1 + k for k in range(len(variables)) if k not in positions)
    order = (0, *(1 + int(k) for k in np.argsort(np.argsort(positions))))
    return drop, order


@lru_cache(maxsize=None)
def _product_signs(size: int) -> np.ndarray:
    """Read-only products of the outcomes of every +-1 ``size``-tuple, in table order."""
    signs = np.array([float(math.prod(t)) for t in itertools.product(OUTCOMES, repeat=size)])
    signs.setflags(write=False)
    return signs


def _behavior_row_name(k: int) -> str:
    row, context = divmod(k, len(CONTEXTS))
    return f"behavior row {row}, context {LABELS[context]}"


class _NdStack(np.ndarray):
    """A read-only (n, 10, 8) stack that :func:`_nd_tables` returned marked
    ``screened``, and so passes through it unchecked.  Views of it and
    arrays computed from it are of this class too, but unmarked.  Every
    numpy call costs more on a subclass, so the joins and the certificate
    compute on ``np.asarray`` of it, a plain view."""

    screened = False


def _nd_tables(probs: np.ndarray) -> np.ndarray:
    """``probs`` as an (n, 10, 8) array, every row no-disturbance at ``ND_TOL``.

    A stack that this function returned comes back as it is: it is
    read-only, so it still holds the rows that passed.  Any other input is
    screened.  :func:`probability_tables` checks every table at
    ``PROB_TOL``.  Each row's verdict is that of
    :func:`~ndmonogamy.scenario.nd_violations`, the rule of
    ``check_no_disturbance``, on the row alone.  One matrix product with
    the marginal-agreement rows only screens the stack: a row whose
    stacked gap exceeds ``ND_TOL / 2`` goes to that rule.  The screen
    misses no row, since a stacked and a one-row product differ only in
    the last bits.  The first row that fails raises
    :class:`NotNoDisturbance` carrying its violation records and naming
    their largest magnitude.
    """
    if isinstance(probs, _NdStack) and probs.screened:
        return probs
    probs = probability_tables(
        probs, (None, len(CONTEXTS), 8), "behavior table stack", _behavior_row_name
    )
    matrix, _ = marginal_constraint_rows()
    gaps = np.abs(probs.reshape(-1, matrix.shape[1]) @ matrix.T).max(axis=1)
    for k in np.flatnonzero(gaps > ND_TOL / 2):
        violations = nd_violations(probs[k])
        if violations:
            where = f"row {k} " if len(probs) > 1 else ""
            worst = max(v.magnitude for v in violations)
            raise NotNoDisturbance(
                f"behavior {where}violates no-disturbance (worst marginal gap "
                f"{worst:.3e} at tolerance {ND_TOL:.1e})",
                violations,
            )
    probs.setflags(write=False)
    stack = probs.view(_NdStack)
    stack.screened = True
    return stack


def _context_arrays(probs: np.ndarray, members: tuple[str, str, str]) -> np.ndarray:
    """Stacked tables of the context containing ``members``, axes in ``members`` order."""
    context = canonical_context(members)
    tables = probs[:, CONTEXTS.index(context)].reshape(-1, 2, 2, 2)
    return np.transpose(tables, [0] + [1 + context.position(m) for m in members])


def _safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with 0/0 = 0; the joint formulas guarantee num=0 where den=0."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0.0)
    return out


def fine_join_c1(probs: np.ndarray, pivot: int) -> JointDistribution:
    """Joints over (A_{i+1}, A_{i+2}, A_{i-1}, A_{i-2}, B1), i = pivot, of an (n, 10, 8) stack.

    Conditional product of the three measured B1-context tables around
    the pentagon, divided by the two linking pair marginals.  Requires
    no-disturbance; recovers every pair marginal of the pentagon-shaped
    split expression exactly.  Entries whose denominator marginal
    vanishes are zero (their numerators vanish too) and the remaining
    entries still sum to one, so no renormalization is applied.  The
    pivot wraps mod 5, and ``scenario.wrap_pivot`` rejects a bool or a
    non-integer with ``ValueError``.  Raises :class:`NotNoDisturbance` for
    the first row that violates no-disturbance at ``ND_TOL``, by the rule
    of ``check_no_disturbance`` on that row alone.
    """
    i = wrap_pivot(pivot)
    probs = np.asarray(_nd_tables(probs))
    t_a = _context_arrays(probs, (alice(i + 1), alice(i + 2), bob(1)))
    t_b = _context_arrays(probs, (alice(i + 2), alice(i - 2), bob(1)))
    t_c = _context_arrays(probs, (alice(i - 2), alice(i - 1), bob(1)))
    den_a = t_b.sum(axis=2)  # p(a_{i+2}, b1)
    den_b = t_c.sum(axis=2)  # p(a_{i-2}, b1)
    # joint[n, a+1, a+2, a-1, a-2, b1]
    num = np.einsum("npqb,nqsb,nsrb->npqrsb", t_a, t_b, t_c)
    den = np.einsum("nqb,nsb->nqsb", den_a, den_b)
    joint = _safe_divide(num, den[:, None, :, None, :, :])
    variables = (alice(i + 1), alice(i + 2), alice(i - 1), alice(i - 2), bob(1))
    return JointDistribution(variables, joint.reshape(len(probs), 32))


def fine_join_c2(probs: np.ndarray, pivot: int) -> JointDistribution:
    """Joints over (A_{i-1}, A_i, A_{i+1}, B2), i = pivot, of an (n, 10, 8) stack.

    Conditional product of the two measured B2-context tables that share
    A_i, divided by the pair marginal p(a_i, b2).  Marginalizing over
    (A_{i+1}, B2) recovers p(a_{i-1}, a_i); over (A_{i-1}, B2) recovers
    p(a_i, a_{i+1}).  Same zero-denominator rule, pivot rule and errors
    as :func:`fine_join_c1`.
    """
    i = wrap_pivot(pivot)
    probs = np.asarray(_nd_tables(probs))
    t_prev = _context_arrays(probs, (alice(i - 1), alice(i), bob(2)))
    t_next = _context_arrays(probs, (alice(i), alice(i + 1), bob(2)))
    den = t_next.sum(axis=2)  # p(a_i, b2)
    # joint[n, a-1, a_i, a+1, b2]
    num = np.einsum("nmib,nipb->nmipb", t_prev, t_next)
    joint = _safe_divide(num, den[:, None, :, None, :])
    variables = (alice(i - 1), alice(i), alice(i + 1), bob(2))
    return JointDistribution(variables, joint.reshape(len(probs), 16))


# ---------------------------------------------------------------------------
# linear program over the behavior polytope
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def nd_equality_system() -> tuple[np.ndarray, np.ndarray]:
    """Equality constraints A x = b of the no-disturbance polytope, as
    read-only int64 arrays: every entry is 0 or +-1, so they are exact,
    and the certificates check them in integer arithmetic.

    Variables are the stacked context tables (10 * 8).  Rows:
    one normalization per context, then agreement of every shared
    marginal between consecutive containing contexts.  Some rows are
    redundant (singleton ties follow from pair ties); the LP solver's
    presolve handles that, and the explicit form mirrors the definition.
    """
    n_contexts = len(CONTEXTS)
    normalization = np.zeros((n_contexts, n_contexts * 8))
    for c_idx in range(n_contexts):
        normalization[c_idx, 8 * c_idx : 8 * c_idx + 8] = 1.0
    marginal_rows, _ = marginal_constraint_rows()
    matrix = np.vstack([normalization, marginal_rows]).astype(np.int64)
    rhs = np.concatenate([np.ones(n_contexts), np.zeros(len(marginal_rows))]).astype(np.int64)
    matrix.setflags(write=False)
    rhs.setflags(write=False)
    return matrix, rhs


@lru_cache(maxsize=256)
def expression_vector(expr: LinearExpression) -> np.ndarray:
    """Vector c with c @ x = expression value on the stacked tables x.

    Each term is evaluated in its first containing context; on the
    no-disturbance polytope the choice does not matter.  Cached per
    expression: equal expressions share one read-only vector.
    """
    c = np.zeros(len(CONTEXTS) * 8)
    for coeff, subset in expr.terms:
        c_idx, signs = term(subset)
        c[8 * c_idx : 8 * c_idx + 8] += coeff * signs
    c.setflags(write=False)
    return c


def linprog(*args, **kwargs):
    """:func:`scipy.optimize.linprog`, imported on the first call.

    Only :func:`nd_optimum` needs scipy (``pip install scipy``), so no
    command, and no other function of the package, loads it.
    """
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


class NdOptimum(NamedTuple):
    value: float
    witness: Behavior


def nd_optimum(expr: LinearExpression) -> NdOptimum:
    """HiGHS's float minimum of ``expr`` over the no-disturbance polytope.

    Needs scipy.  It can miss the last bit (-4.999999999999999 for
    kcbs+chsh); :func:`certified_nd_minimum` gives the exact bound.  A
    maximum is minus the minimum of the negated expression.  The optima
    are exact vertices, so the witness is a plain :class:`Behavior`,
    checked at ``PROB_TOL``.
    """
    A_eq, b_eq = nd_equality_system()
    c = expression_vector(expr)
    result = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
    if not result.success:
        raise Infeasible(f"LP failed unexpectedly: {result.message}")
    return NdOptimum(float(result.fun), Behavior(result.x.reshape(-1, 8)))


#: One exact LP certificate per row of :data:`ndmonogamy.classical.BOUNDS`,
#: by row name, over ``A, b = nd_equality_system()`` and
#: ``c = expression_vector(row.expression)``.  The first map is a dual
#: ``{row of A: y}`` with ``c - A^T y >= 0`` and ``b.y == row.nd``, which
#: proves ``row.nd`` a lower bound.  The second is twice a primal witness,
#: ``{column of A: n}`` with ``n >= 0``, ``A n == 2b`` and ``c.n == 2 row.nd``,
#: so ``x = n/2`` attains the bound.  Entries left out are zero.  The duals
#: are L1-minimal and the witnesses HiGHS vertices; any exact certificate
#: would do.
ND_CERTIFICATES: dict[str, tuple[dict[int, int], dict[int, int]]] = {
    "kcbs": (
        {0: -1, 2: -1, 4: -1, 6: -1, 8: -1},
        {
            2: 1, 4: 1, 11: 1, 13: 1, 18: 1, 20: 1, 27: 1, 29: 1, 34: 1, 36: 1, 43: 1,
            45: 1, 50: 1, 52: 1, 59: 1, 61: 1, 66: 1, 68: 1, 75: 1, 77: 1,
        },
    ),
    "chsh": (
        {0: -1, 1: -1, 4: -1, 5: -1},
        {
            1: 1, 4: 1, 9: 1, 12: 1, 16: 1, 19: 1, 25: 1, 26: 1, 34: 1, 37: 1, 43: 1,
            44: 1, 49: 1, 52: 1, 56: 1, 61: 1, 65: 1, 66: 1, 73: 1, 74: 1,
        },
    ),
    "c1[1]": (
        {0: -1, 2: -1, 4: -1, 38: 2, 41: 2, 69: 2, 70: 2, 86: 2, 89: 2},
        {1: 2, 9: 2, 19: 2, 27: 2, 37: 2, 45: 2, 51: 2, 59: 2, 69: 2, 77: 2},
    ),
    "c1[2]": (
        {
            0: -1, 4: -2, 34: 2, 37: 2, 68: 1, 69: -1, 70: -1, 71: 1, 87: 2, 88: 2,
            104: 1, 105: -1, 106: -1, 107: 1,
        },
        {4: 2, 13: 2, 16: 2, 25: 2, 34: 2, 43: 2, 52: 2, 61: 2, 66: 2, 75: 2},
    ),
    "c1[3]": (
        {8: -3, 34: -2, 37: -2, 86: 1, 87: -1, 88: -1, 89: 1, 104: -2, 107: -2},
        {4: 2, 13: 2, 16: 2, 25: 2, 34: 2, 43: 2, 52: 2, 61: 2, 66: 2, 75: 2},
    ),
    "c1[4]": (
        {0: -3, 34: 2, 37: 2, 38: 2, 41: 2, 104: 1, 105: -1, 106: -1, 107: 1},
        {5: 2, 13: 2, 19: 2, 27: 2, 37: 2, 45: 2, 49: 2, 57: 2, 67: 2, 75: 2},
    ),
    "c1[5]": (
        {0: -2, 4: -1, 39: 2, 40: 2, 68: 1, 69: -1, 70: -1, 71: 1},
        {4: 2, 13: 2, 18: 2, 27: 2, 36: 2, 45: 2, 50: 2, 59: 2, 70: 2, 79: 2},
    ),
    "c2[1]": (
        {
            0: -1, 1: -1, 30: 2, 33: 2, 51: 2, 52: 2, 108: -1, 109: 1, 110: 1, 111: -1,
            112: 1, 113: -1, 114: -1, 115: 1,
        },
        {4: 2, 13: 2, 18: 2, 27: 2, 36: 2, 45: 2, 50: 2, 59: 2, 70: 2, 79: 2},
    ),
    "c2[2]": (
        {2: -1, 3: -1, 30: 1, 31: -1, 32: -1, 33: 1, 55: -2, 56: -2, 64: 2, 67: 2},
        {4: 2, 13: 2, 16: 2, 25: 2, 34: 2, 43: 2, 54: 2, 63: 2, 70: 2, 79: 2},
    ),
    "c2[3]": (
        {
            1: -1, 2: -1, 55: 2, 56: 2, 64: 2, 67: 2, 72: 2, 75: 2, 82: 1, 83: -1, 84: -1,
            85: 1,
        },
        {4: 2, 13: 2, 18: 2, 27: 2, 36: 2, 45: 2, 50: 2, 59: 2, 70: 2, 79: 2},
    ),
    "c2[4]": (
        {
            3: -1, 4: -1, 73: 2, 74: 2, 82: 2, 85: 2, 90: 2, 93: 2, 100: 1, 101: -1,
            102: -1, 103: 1,
        },
        {5: 2, 13: 2, 19: 2, 27: 2, 37: 2, 45: 2, 51: 2, 59: 2, 71: 2, 79: 2},
    ),
    "c2[5]": (
        {
            6: -1, 7: -1, 50: 1, 51: -1, 52: -1, 53: 1, 90: -1, 91: 1, 92: 1, 93: -1,
            100: 2, 103: 2, 108: 2, 111: 2, 112: 1, 113: -1, 114: -1, 115: 1,
        },
        {4: 2, 13: 2, 16: 2, 25: 2, 34: 2, 43: 2, 52: 2, 61: 2, 66: 2, 75: 2},
    ),
    "kcbs+chsh": (
        {
            0: -2, 4: -1, 6: -1, 7: -1, 39: 2, 40: 2, 50: 1, 51: -1, 52: -1, 53: 1, 68: 1,
            69: -1, 70: -1, 71: 1, 90: -1, 91: 1, 92: 1, 93: -1, 100: 2, 103: 2, 108: 2,
            111: 2, 112: 1, 113: -1, 114: -1, 115: 1,
        },
        {1: 2, 9: 2, 19: 2, 27: 2, 37: 2, 45: 2, 51: 2, 59: 2, 69: 2, 77: 2},
    ),
}


def _integer_vector(entries: dict[int, int], size: int, fail) -> np.ndarray:
    """The dense int64 vector of a certificate's sparse ``{index: int}`` entries."""
    if not (set(map(type, entries)) | set(map(type, entries.values()))) <= {int}:
        raise fail("an index or entry is not an int")
    if entries and not (min(entries) >= 0 and max(entries) < size):
        raise fail(f"an index is outside 0..{size - 1}")
    vector = np.zeros(size, dtype=np.int64)
    vector[list(entries)] = list(entries.values())
    return vector


def certified_nd_minimum(row: BoundRow) -> float:
    """``row.nd``, proven the exact no-disturbance minimum of ``row.expression``.

    Checks the committed certificate of ``row`` in :data:`ND_CERTIFICATES`
    in int64 arithmetic, with no LP and no floating-point tolerance.
    Raises :class:`InvalidCertificate` naming the row and the first
    condition that fails.
    """

    def fail(condition: str) -> InvalidCertificate:
        return InvalidCertificate(f"{row.name}: no-disturbance certificate fails: {condition}")

    if row.name not in ND_CERTIFICATES:
        raise fail("no certificate")
    a_int, b_int = nd_equality_system()
    c = expression_vector(row.expression)
    c_int = c.astype(np.int64)  # c holds sums of term coefficients
    if not np.array_equal(c_int, c):
        raise fail("the expression vector is not integer")
    if not float(row.nd).is_integer():
        raise fail(f"the bound {row.nd} is not an integer")
    bound = int(row.nd)
    dual, primal = ND_CERTIFICATES[row.name]
    y = _integer_vector(dual, len(b_int), fail)
    n = _integer_vector(primal, len(c_int), fail)
    if (c_int - a_int.T @ y).min() < 0:
        raise fail("c - A^T y has a negative entry")
    if b_int @ y != bound:
        raise fail(f"b.y is {b_int @ y}, not {bound}")
    if n.min() < 0:
        raise fail("the witness has a negative entry")
    if not np.array_equal(a_int @ n, 2 * b_int):
        raise fail("A n is not 2b")
    if c_int @ n != 2 * bound:
        raise fail(f"c.n is {c_int @ n}, not {2 * bound}")
    return float(bound)


# ---------------------------------------------------------------------------
# random no-disturbance behaviors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _projector() -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis Q of the constraint row space and a feasible point."""
    A_eq, _ = nd_equality_system()
    _, singulars, vt = np.linalg.svd(A_eq, full_matrices=False)
    rank = int((singulars > singulars[0] * _RANK_TOL).sum())
    q = np.ascontiguousarray(vt[:rank].T)
    q.setflags(write=False)
    uniform = np.full(len(CONTEXTS) * 8, 1 / 8)
    uniform.setflags(write=False)
    return q, uniform


def sample_behavior_matrix(count: int, seed: int | np.random.Generator = 0) -> np.ndarray:
    """``count`` random no-disturbance behaviors, stacked as rows.

    Raw context tables are drawn uniformly from the simplex and
    orthogonally projected onto the no-disturbance equality subspace;
    projections with genuinely negative entries are discarded.  The
    returned rows are exact members of the polytope: entries in
    [-PROB_TOL, 0) are clipped to zero and each context row renormalized.
    A bool, a non-integer or a negative count or seed raises ``ValueError``
    naming it (``scenario.require_count``'s rule); a ``Generator`` seed is
    used as it is.

    Rows are drawn in whole chunks of ``_SAMPLE_BATCH`` until ``count``
    are accepted, so a passed ``Generator`` is left after the last chunk,
    not after the last returned row.

    A raw context table is 8 standard exponential draws, each multiplied
    by the reciprocal of their ``scenario.row_sum``.  That is a
    Dirichlet(1, ..., 1) draw and the arithmetic of
    ``rng.dirichlet(np.ones(8))``, which draws the same exponentials, so
    the rows and the generator's final state have the same bits as a
    ``dirichlet`` draw of the chunk.
    """
    count = require_count(count, "count", 0)
    rng = seeded_generator(seed)
    q, uniform = _projector()
    n_ctx = len(CONTEXTS)
    chunks = [np.empty((0, 8 * n_ctx))]
    total = 0
    while total < count:
        raw = rng.standard_exponential((_SAMPLE_BATCH * n_ctx, 8))
        raw *= (1.0 / row_sum(raw))[:, None]
        raw = raw.reshape(-1, 8 * n_ctx)
        raw -= uniform
        raw -= (raw @ q) @ q.T
        raw += uniform
        keep = raw[np.min(raw, axis=1) >= -PROB_TOL]
        tables = np.clip(keep, 0.0, None).reshape(-1, n_ctx, 8)
        tables /= tables.sum(axis=2, keepdims=True)
        chunks.append(tables.reshape(-1, 8 * n_ctx))
        total += len(chunks[-1])
    return np.concatenate(chunks)[:count]


def sample_behaviors(
    count: int, seed: int | np.random.Generator = 0
) -> list[Behavior]:
    """Random no-disturbance behaviors as :class:`Behavior` objects."""
    rows = sample_behavior_matrix(count, seed)
    return [Behavior(row.reshape(-1, 8)) for row in rows]


# ---------------------------------------------------------------------------
# monogamy certificate
# ---------------------------------------------------------------------------


#: the name of each pivot's value in a report's errors, built once
_CHSH_NAMES = {pivot: f"chsh_by_pivot[{pivot}]" for pivot in PIVOTS}


@dataclass(frozen=True)
class MonogamyReport:
    """kcbs and per-pivot chsh values of a no-disturbance behavior.

    ``chsh_by_pivot`` is nonempty and keyed by the integers of ``PIVOTS``:
    a bool or float key raises by ``scenario.require_integer``'s rule,
    though ``True == 1.0 == 1``.  Every value must pass
    ``scenario.real_number``'s rule, else ``ValueError``: a NaN compares
    false against both classical bounds, so it would read as no violation,
    and a bool would read as 0 or 1.  A value more than ``BOUND_SLACK``
    below its classical bound is a violation.
    """

    kcbs: float
    chsh_by_pivot: dict[int, float]

    def __post_init__(self) -> None:
        if not self.chsh_by_pivot:
            raise ValueError("chsh_by_pivot needs at least one pivot")
        unknown = [p for p in self.chsh_by_pivot if require_integer(p, "pivot") not in PIVOTS]
        if unknown:
            raise ValueError(f"chsh_by_pivot has pivots {unknown} outside {PIVOTS}")
        real_number(self.kcbs, "kcbs")
        for pivot, value in self.chsh_by_pivot.items():
            real_number(value, _CHSH_NAMES[pivot])

    @property
    def sums_by_pivot(self) -> dict[int, float]:
        return {i: self.kcbs + v for i, v in self.chsh_by_pivot.items()}

    @property
    def kcbs_violated(self) -> bool:
        return self.kcbs < KCBS_CLASSICAL_BOUND - BOUND_SLACK

    @property
    def chsh_violated(self) -> bool:
        return any(
            v < CHSH_CLASSICAL_BOUND - BOUND_SLACK
            for v in self.chsh_by_pivot.values()
        )

    @property
    def at_most_one_violated(self) -> bool:
        return not (self.kcbs_violated and self.chsh_violated)


def monogamy_certificate(probs: np.ndarray) -> list[MonogamyReport]:
    """kcbs, chsh for every pivot, their sums and the tradeoff flag, per row.

    One :class:`MonogamyReport` per row of an (n, 10, 8) table stack.
    For any behavior satisfying no-disturbance at ``ND_TOL``, at most one
    of the two inequalities can be violated (beyond ``BOUND_SLACK``).
    Raises :class:`NotNoDisturbance` for the first row that violates
    no-disturbance at ``ND_TOL``, by the rule of ``check_no_disturbance``
    on that row alone.
    """
    probs = np.asarray(_nd_tables(probs))
    kcbs = expression_values(probs, KCBS_TERMS)
    chsh = np.stack([expression_values(probs, chsh_terms(i)) for i in PIVOTS], axis=-1)
    return [
        MonogamyReport(float(k), dict(zip(PIVOTS, map(float, row))))
        for k, row in zip(kcbs, chsh)
    ]
