"""The no-disturbance polytope: joint constructions, LP bounds, monogamy.

Under no-disturbance, the context tables of a behavior can be stitched
into explicit joint distributions over larger measurement sets by
conditional product formulas.  The existence of those joints forces the
pentagon-shaped and Bell-shaped parts of any kcbs+chsh split back to
their classical bounds (-3 and -2), which is the monogamy relation
``kcbs + chsh >= -5``.  This module builds the joints, verifies them,
and independently computes all bounds as linear programs over the
80-dimensional behavior polytope.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .classical import (
    CHSH_CLASSICAL_BOUND,
    KCBS_CLASSICAL_BOUND,
    PIVOTS,
    LinearExpression,
)
from .errors import Infeasible, NotNoDisturbance
from .scenario import (
    CANONICAL,
    KCBS_TERMS,
    OUTCOMES,
    Behavior,
    Scenario,
    alice,
    bob,
    chsh_terms,
    expression_values,
    marginal_constraint_rows,
    nd_violations,
    require_tolerance,
)

ND_TOL = 1e-10
_SAMPLE_BATCH = 200_000  # most raw rows drawn per pass of sample_behavior_matrix


# ---------------------------------------------------------------------------
# joint distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A distribution over +-1 outcome tuples of several measurements.

    Indexing is lexicographic with -1 before +1 and the first variable
    most significant, matching the context-table convention.
    """

    variables: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (2 ** len(self.variables),):
            raise ValueError(
                f"need {2 ** len(self.variables)} probabilities for "
                f"{len(self.variables)} variables, got {probs.shape}"
            )
        probs = _joint_rows(probs[None])[0]
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    def marginal(self, subset: Sequence[str]) -> "JointDistribution":
        """Marginal distribution over ``subset`` (in ``subset`` order)."""
        marginals = _joint_marginals(self.variables, self.probs[None], subset)
        return JointDistribution(tuple(subset), marginals[0])

    def correlator(self, subset: Sequence[str]) -> float:
        """Mean product of the outcomes of ``subset`` under this joint."""
        return float(joint_correlator_many(self.variables, self.probs[None], subset)[0])


def _joint_rows(probs: np.ndarray) -> np.ndarray:
    """Stacked joint tables, each checked like a :class:`JointDistribution`.

    Every row must be nonnegative and sum to 1 within 1e-12; entries
    within the tolerance below zero are clipped to exactly zero.
    """
    # phrased so that NaN and infinite entries fail the comparisons
    bad = np.flatnonzero(~(probs.min(axis=1) >= -1e-12))
    if bad.size:
        raise ValueError(
            f"negative or non-finite joint probability {probs[bad[0]].min()}"
        )
    sums = probs.sum(axis=1)
    bad = np.flatnonzero(~(np.abs(sums - 1.0) <= 1e-12))
    if bad.size:
        raise ValueError(f"joint probabilities sum to {sums[bad[0]]}, not 1")
    return np.clip(probs, 0.0, None)


def _joint_marginals(
    variables: Sequence[str], joints: np.ndarray, subset: Sequence[str]
) -> np.ndarray:
    """(n, 2**len(subset)) marginals over ``subset``, in ``subset`` order."""
    positions = [variables.index(m) for m in subset]
    drop = tuple(1 + k for k in range(len(variables)) if k not in positions)
    summed = joints.reshape((-1,) + (2,) * len(variables)).sum(axis=drop)
    order = [0] + [1 + k for k in np.argsort(np.argsort(positions))]
    return np.transpose(summed, order).reshape(len(joints), 2 ** len(subset))


def joint_correlator_many(
    variables: Sequence[str], joints: np.ndarray, subset: Sequence[str]
) -> np.ndarray:
    """:meth:`JointDistribution.correlator` of every row of ``joints``.

    ``joints`` is an (n, 2**len(variables)) stack of joint tables over
    ``variables``.  Each row's marginal over ``subset`` is summed with
    its outcome signs one entry after the other, in outcome order.
    """
    signs = np.array(
        [float(np.prod(t)) for t in itertools.product(OUTCOMES, repeat=len(subset))]
    )
    marginals = _joint_marginals(variables, joints, subset)
    return np.cumsum(marginals * signs, axis=1)[:, -1]


def _nd_tables(probs: np.ndarray, tol: float, scenario: Scenario) -> np.ndarray:
    """``probs`` as an (n, n_contexts, 8) array, every row no-disturbance at ``tol``.

    One matrix product with the marginal-agreement rows checks the whole
    stack; the first offending row raises :class:`NotNoDisturbance`
    carrying its violation records.
    """
    require_tolerance(tol)
    probs = np.asarray(probs, dtype=float)
    shape = (len(scenario.contexts), 8)
    if probs.ndim != 3 or probs.shape[1:] != shape:
        raise ValueError(f"need an (n, {shape[0]}, 8) table stack, got {probs.shape}")
    matrix, _ = marginal_constraint_rows(scenario)
    gaps = np.abs(probs.reshape(-1, matrix.shape[1]) @ matrix.T).max(axis=1)
    bad = np.flatnonzero(~(gaps <= tol))
    if bad.size:
        k = int(bad[0])
        where = f"row {k} " if len(probs) > 1 else ""
        raise NotNoDisturbance(
            f"behavior {where}violates no-disturbance (worst marginal gap "
            f"{gaps[k]:.3e} at tolerance {tol:.1e})",
            nd_violations(probs[k], tol, scenario),
        )
    return probs


def _context_arrays(
    probs: np.ndarray, scenario: Scenario, members: tuple[str, str, str]
) -> np.ndarray:
    """Stacked tables of the context containing ``members``, axes in ``members`` order."""
    context = scenario.canonical_context(members)
    tables = probs[:, scenario.context_index(context)].reshape(-1, 2, 2, 2)
    return np.transpose(tables, [0] + [1 + context.position(m) for m in members])


def _safe_divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num/den with 0/0 = 0; the joint formulas guarantee num=0 where den=0."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=den > 0.0)
    return out


def fine_join_c1_many(
    probs: np.ndarray, pivot: int, tol: float = ND_TOL, scenario: Scenario = CANONICAL
) -> tuple[tuple[str, ...], np.ndarray]:
    """:func:`fine_join_c1` of every row of an (n, n_contexts, 8) table stack.

    Returns the joint's variables and the (n, 32) stack of joint tables.
    Raises :class:`NotNoDisturbance` for the first row that violates
    no-disturbance at ``tol``.
    """
    probs = _nd_tables(probs, tol, scenario)
    i = pivot
    t_a = _context_arrays(probs, scenario, (alice(i + 1), alice(i + 2), bob(1)))
    t_b = _context_arrays(probs, scenario, (alice(i + 2), alice(i - 2), bob(1)))
    t_c = _context_arrays(probs, scenario, (alice(i - 2), alice(i - 1), bob(1)))
    den_a = t_b.sum(axis=2)  # p(a_{i+2}, b1)
    den_b = t_c.sum(axis=2)  # p(a_{i-2}, b1)
    # joint[n, a+1, a+2, a-1, a-2, b1]
    num = np.einsum("npqb,nqsb,nsrb->npqrsb", t_a, t_b, t_c)
    den = np.einsum("nqb,nsb->nqsb", den_a, den_b)
    joint = _safe_divide(num, den[:, None, :, None, :, :])
    variables = (alice(i + 1), alice(i + 2), alice(i - 1), alice(i - 2), bob(1))
    return variables, _joint_rows(joint.reshape(len(probs), 32))


def fine_join_c1(behavior: Behavior, pivot: int, tol: float = ND_TOL) -> JointDistribution:
    """Joint over (A_{i+1}, A_{i+2}, A_{i-1}, A_{i-2}, B1) for i = pivot.

    Conditional product of the three measured B1-context tables around
    the pentagon, divided by the two linking pair marginals.  Requires
    no-disturbance; recovers every pair marginal of the pentagon-shaped
    split expression exactly.  Entries whose denominator marginal
    vanishes are zero (their numerators vanish too) and the remaining
    entries still sum to one, so no renormalization is applied.
    """
    variables, joints = fine_join_c1_many(behavior.probs[None], pivot, tol, behavior.scenario)
    return JointDistribution(variables, joints[0])


def fine_join_c2_many(
    probs: np.ndarray, pivot: int, tol: float = ND_TOL, scenario: Scenario = CANONICAL
) -> tuple[tuple[str, ...], np.ndarray]:
    """:func:`fine_join_c2` of every row of an (n, n_contexts, 8) table stack.

    Returns the joint's variables and the (n, 16) stack of joint tables.
    Raises :class:`NotNoDisturbance` for the first row that violates
    no-disturbance at ``tol``.
    """
    probs = _nd_tables(probs, tol, scenario)
    i = pivot
    t_prev = _context_arrays(probs, scenario, (alice(i - 1), alice(i), bob(2)))
    t_next = _context_arrays(probs, scenario, (alice(i), alice(i + 1), bob(2)))
    den = t_next.sum(axis=2)  # p(a_i, b2)
    # joint[n, a-1, a_i, a+1, b2]
    num = np.einsum("nmib,nipb->nmipb", t_prev, t_next)
    joint = _safe_divide(num, den[:, None, :, None, :])
    variables = (alice(i - 1), alice(i), alice(i + 1), bob(2))
    return variables, _joint_rows(joint.reshape(len(probs), 16))


def fine_join_c2(behavior: Behavior, pivot: int, tol: float = ND_TOL) -> JointDistribution:
    """Joint over (A_{i-1}, A_i, A_{i+1}, B2) for i = pivot.

    Conditional product of the two measured B2-context tables that share
    A_i, divided by the pair marginal p(a_i, b2).  Marginalizing over
    (A_{i+1}, B2) recovers p(a_{i-1}, a_i); over (A_{i-1}, B2) recovers
    p(a_i, a_{i+1}).  Same zero-denominator rule as the pentagon joint.
    """
    variables, joints = fine_join_c2_many(behavior.probs[None], pivot, tol, behavior.scenario)
    return JointDistribution(variables, joints[0])


# ---------------------------------------------------------------------------
# linear program over the behavior polytope
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def nd_equality_system(scenario: Scenario = CANONICAL) -> tuple[np.ndarray, np.ndarray]:
    """Equality constraints A x = b of the no-disturbance polytope.

    Variables are the stacked context tables (n_contexts * 8).  Rows:
    one normalization per context, then agreement of every shared
    marginal between consecutive containing contexts.  Some rows are
    redundant (singleton ties follow from pair ties); the LP solver's
    presolve handles that, and the explicit form mirrors the definition.
    """
    n = len(scenario.contexts) * 8
    normalization = np.zeros((len(scenario.contexts), n))
    for c_idx in range(len(scenario.contexts)):
        normalization[c_idx, 8 * c_idx : 8 * c_idx + 8] = 1.0
    marginal_rows, _ = marginal_constraint_rows(scenario)
    matrix = np.vstack([normalization, marginal_rows])
    rhs = np.concatenate([np.ones(len(scenario.contexts)), np.zeros(len(marginal_rows))])
    matrix.setflags(write=False)
    rhs.setflags(write=False)
    return matrix, rhs


def expression_vector(expr: LinearExpression, scenario: Scenario = CANONICAL) -> np.ndarray:
    """Vector c with c @ x = expression value on the stacked tables x.

    Each term is evaluated in its first containing context; on the
    no-disturbance polytope the choice does not matter.
    """
    c = np.zeros(len(scenario.contexts) * 8)
    for coeff, subset in expr.terms:
        c_idx, signs = scenario.term(subset)
        c[8 * c_idx : 8 * c_idx + 8] += coeff * signs
    return c


def linprog(*args, **kwargs):
    """:func:`scipy.optimize.linprog`, imported on the first call.

    Only the LP route needs scipy, so importing the package, sampling the
    region or running the Born rule never loads it.
    """
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


class NdOptimum(NamedTuple):
    value: float
    witness: Behavior


def nd_optimum(
    expr: LinearExpression,
    sense: str = "min",
    scenario: Scenario = CANONICAL,
) -> NdOptimum:
    """Exact LP optimum of ``expr`` over the no-disturbance polytope."""
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    A_eq, b_eq = nd_equality_system(scenario)
    c = expression_vector(expr, scenario)
    sign = 1.0 if sense == "min" else -1.0
    result = linprog(sign * c, A_eq=A_eq, b_eq=b_eq, bounds=(0, 1), method="highs")
    if not result.success:
        raise Infeasible(f"LP failed unexpectedly: {result.message}")
    witness = Behavior(scenario, result.x.reshape(-1, 8), validation_tol=1e-7)
    return NdOptimum(float(sign * result.fun), witness)


# ---------------------------------------------------------------------------
# random no-disturbance behaviors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _projector(scenario: Scenario = CANONICAL) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis Q of the constraint row space and a feasible point."""
    A_eq, _ = nd_equality_system(scenario)
    _, singulars, vt = np.linalg.svd(A_eq, full_matrices=False)
    rank = int((singulars > singulars[0] * 1e-12).sum())
    q = np.ascontiguousarray(vt[:rank].T)
    q.setflags(write=False)
    uniform = np.full(len(scenario.contexts) * 8, 1 / 8)
    uniform.setflags(write=False)
    return q, uniform


def sample_behavior_matrix(
    count: int,
    seed: int | np.random.Generator = 0,
    scenario: Scenario = CANONICAL,
    method: str = "reject",
) -> np.ndarray:
    """``count`` random no-disturbance behaviors, stacked as rows.

    Raw context tables are drawn uniformly from the simplex and
    orthogonally projected onto the no-disturbance equality subspace.
    ``method='reject'`` discards projections with genuinely negative
    entries; ``method='shrink'`` instead pulls them toward the uniform
    behavior just enough to reach the polytope (its outputs often sit on
    polytope faces, and nothing is discarded, which makes it the cheap
    choice for very large feasibility sweeps).  Either way the returned
    rows are exact members of the polytope: entries in [-1e-12, 0) are
    clipped to zero and each context row renormalized.
    """
    if method not in ("reject", "shrink"):
        raise ValueError(f"method must be 'reject' or 'shrink', got {method!r}")
    if count < 0:
        raise ValueError(f"cannot sample a negative number of behaviors, got {count}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q, uniform = _projector(scenario)
    n_ctx = len(scenario.contexts)
    chunks = [np.empty((0, 8 * n_ctx))]
    total = 0
    while total < count:
        size = min(_SAMPLE_BATCH, max(1000, 16 * (count - total)))
        raw = rng.dirichlet(np.ones(8), size=(size, n_ctx)).reshape(size, 8 * n_ctx)
        raw -= uniform
        raw -= (raw @ q) @ q.T
        raw += uniform
        if method == "reject":
            keep = raw[np.min(raw, axis=1) >= -1e-12]
        else:
            # largest t with uniform + t*(row - uniform) nonnegative, t <= 1
            drop = uniform - raw
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(drop > 0.0, uniform / drop, np.inf)
            t = np.minimum(ratios.min(axis=1), 1.0)
            keep = uniform + t[:, None] * (raw - uniform)
        tables = np.clip(keep, 0.0, None).reshape(-1, n_ctx, 8)
        tables /= tables.sum(axis=2, keepdims=True)
        chunks.append(tables.reshape(-1, 8 * n_ctx))
        total += len(chunks[-1])
    return np.concatenate(chunks)[:count]


def sample_behaviors(
    count: int,
    seed: int | np.random.Generator = 0,
    scenario: Scenario = CANONICAL,
) -> list[Behavior]:
    """Random no-disturbance behaviors as :class:`Behavior` objects."""
    rows = sample_behavior_matrix(count, seed, scenario)
    return [Behavior(scenario, row.reshape(-1, 8)) for row in rows]


# ---------------------------------------------------------------------------
# monogamy certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonogamyReport:
    """kcbs and per-pivot chsh values of a no-disturbance behavior."""

    kcbs: float
    chsh_by_pivot: dict[int, float]
    violation_tol: float

    def __post_init__(self) -> None:
        require_tolerance(self.violation_tol)

    @property
    def sums_by_pivot(self) -> dict[int, float]:
        return {i: self.kcbs + v for i, v in self.chsh_by_pivot.items()}

    @property
    def kcbs_violated(self) -> bool:
        return self.kcbs < KCBS_CLASSICAL_BOUND - self.violation_tol

    @property
    def chsh_violated(self) -> bool:
        return any(
            v < CHSH_CLASSICAL_BOUND - self.violation_tol
            for v in self.chsh_by_pivot.values()
        )

    @property
    def at_most_one_violated(self) -> bool:
        return not (self.kcbs_violated and self.chsh_violated)

    def to_json(self) -> str:
        return json.dumps(
            {
                "kcbs": self.kcbs,
                "chsh_by_pivot": {str(i): v for i, v in self.chsh_by_pivot.items()},
                "sums_by_pivot": {str(i): v for i, v in self.sums_by_pivot.items()},
                "kcbs_violated": self.kcbs_violated,
                "chsh_violated": self.chsh_violated,
                "at_most_one_violated": self.at_most_one_violated,
            }
        )


def monogamy_certificate_many(
    probs: np.ndarray,
    tol: float = ND_TOL,
    violation_tol: float = 1e-9,
    scenario: Scenario = CANONICAL,
) -> list[MonogamyReport]:
    """:func:`monogamy_certificate` of every row of an (n, n_contexts, 8) table stack.

    Raises :class:`NotNoDisturbance` for the first row that violates
    no-disturbance at ``tol``.
    """
    require_tolerance(violation_tol)
    probs = _nd_tables(probs, tol, scenario)
    kcbs = expression_values(probs, KCBS_TERMS, scenario)
    chsh = np.stack([expression_values(probs, chsh_terms(i), scenario) for i in PIVOTS], axis=-1)
    return [
        MonogamyReport(float(k), dict(zip(PIVOTS, map(float, row))), violation_tol)
        for k, row in zip(kcbs, chsh)
    ]


def monogamy_certificate(
    behavior: Behavior, tol: float = ND_TOL, violation_tol: float = 1e-9
) -> MonogamyReport:
    """kcbs, chsh for every pivot, their sums, and the tradeoff flag.

    For any behavior satisfying no-disturbance at ``tol``, at most one of
    the two inequalities can be violated (beyond ``violation_tol``).
    """
    return monogamy_certificate_many(
        behavior.probs[None], tol, violation_tol, behavior.scenario
    )[0]
