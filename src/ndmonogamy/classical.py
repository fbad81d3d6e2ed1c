"""Deterministic hidden-variable models and exhaustive classical bounds.

A noncontextual (or local) hidden-variable model is a probability mixture
of deterministic assignments, one fixed outcome per measurement, so the
classical bound of any linear correlator expression is its extremum over
all 2^n assignments.  At n = 7 this is 128 cases; :func:`classical_bound`
evaluates them all as one numpy array over the bit patterns 0 .. 2^n - 1,
which is exact and instant, so no symmetry reduction is attempted.
:func:`enumerate_assignments` and
:meth:`LinearExpression.evaluate_assignment` give the same values one
assignment at a time.

The module also holds the bound constants and the paper's bounds table
:data:`BOUNDS`, the one definition that ``ndmonogamy bounds``, ``verify``
and the other modules read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .scenario import (
    CONTEXTS,
    KCBS_TERMS,
    MEASUREMENT_IDS,
    OUTCOME_TRIPLES,
    Behavior,
    alice,
    bob,
    chsh_terms,
    real_number,
    require_outcome,
    wrap_pivot,
)

PIVOTS = (1, 2, 3, 4, 5)
SQRT5 = math.sqrt(5.0)
KCBS_CLASSICAL_BOUND = -3.0
CHSH_CLASSICAL_BOUND = -2.0
KCBS_ND_BOUND = -5.0
CHSH_ND_BOUND = -4.0
MONOGAMY_BOUND = -5.0
#: how far a value may lie below one of these bounds and still meet it: the
#: margin of every violation flag, floor and pointwise bound check
BOUND_SLACK = 1e-9
#: lowest eigenvalue of the pentagon operator (the quantum kcbs minimum)
KCBS_QUANTUM_MIN = 5.0 - 4.0 * SQRT5
#: its other, four-fold degenerate eigenvalue
KCBS_QUANTUM_DEGENERATE = -5.0 + 2.0 * SQRT5
#: lowest eigenvalue of the Bell operator (the quantum chsh minimum), the
#: smaller root of the factor lambda^2 + (2 sqrt5 - 2) lambda + 8 - 4 sqrt5
#: of its characteristic polynomial
CHSH_QUANTUM_MIN = 1.0 - SQRT5 - math.sqrt(2.0 * SQRT5 - 2.0)


@dataclass(frozen=True)
class DeterministicAssignment:
    """One outcome for every measurement in ``ids``, each -1 or +1 by
    :func:`~ndmonogamy.scenario.require_outcome`'s rule."""

    ids: tuple[str, ...]
    outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.outcomes):
            raise ValueError("ids and outcomes must have equal length")
        for m, v in zip(self.ids, self.outcomes):
            require_outcome(v, m)

    def value(self, measurement_id: str) -> int:
        return self.outcomes[self.ids.index(measurement_id)]

    def product(self, subset: Sequence[str]) -> int:
        p = 1
        for m in subset:
            p *= self.value(m)
        return p


@dataclass(frozen=True)
class LinearExpression:
    """A linear combination of outcome-product correlators.

    ``terms`` is a tuple of (coefficient, measurement-id subset) tuples: a
    coefficient by :func:`~ndmonogamy.scenario.real_number`'s rule and a
    nonempty tuple of ids of :data:`~ndmonogamy.scenario.MEASUREMENT_IDS`,
    read when the expression is built; anything else raises
    ``ValueError``.  A :class:`BoundRow` holds its name.
    """

    terms: tuple[tuple[float, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.terms, tuple) and all(isinstance(t, tuple) for t in self.terms)):
            raise ValueError(
                f"terms must be a tuple of (coefficient, subset) tuples, got {self.terms!r}"
            )
        known = frozenset(MEASUREMENT_IDS)  # read per call, not once at import
        for coeff, subset in self.terms:
            if not (isinstance(subset, tuple) and all(isinstance(m, str) for m in subset)):
                raise ValueError(f"a subset must be a tuple of measurement ids, got {subset!r}")
            if not subset:
                raise ValueError("each term needs a nonempty subset")
            if not known.issuperset(subset):
                unknown = [m for m in subset if m not in known]
                raise ValueError(f"expression references unknown measurements {unknown}")
            real_number(coeff, "a coefficient")

    def __add__(self, other: "LinearExpression") -> "LinearExpression":
        return LinearExpression(self.terms + other.terms)

    def evaluate_assignment(self, assignment: DeterministicAssignment) -> float:
        return sum(c * assignment.product(sub) for c, sub in self.terms)

    def relabeled(self, shift: int) -> "LinearExpression":
        """Cyclic relabeling A_i -> A_{i+shift}; Bob's settings unchanged."""

        def move(m: str) -> str:
            return alice(int(m[1]) + shift) if m.startswith("A") else m

        return LinearExpression(tuple((c, tuple(move(m) for m in sub)) for c, sub in self.terms))


def kcbs_expression() -> LinearExpression:
    """Pentagon expression: sum of the 5 cyclic pair correlators (bound -3)."""
    return LinearExpression(KCBS_TERMS)


def chsh_expression(pivot: int = 5) -> LinearExpression:
    """Bell expression on A_{pivot+1}, A_{pivot-1} vs B1, B2 (bound -2)."""
    return LinearExpression(chsh_terms(pivot))


def c1_expression(pivot: int) -> LinearExpression:
    """Pentagon-shaped part of the split of kcbs+chsh around ``pivot``.

    Runs around the 5-cycle (B1, A_{pivot+1}, A_{pivot+2}, A_{pivot-2},
    A_{pivot-1}); classical and no-disturbance bound -3.  Pivots wrap
    mod 5; a bool or a non-integer raises ``ValueError``.  Built once per
    wrapped pivot.
    """
    return _c1_expression(wrap_pivot(pivot))


@lru_cache(maxsize=len(PIVOTS))
def _c1_expression(i: int) -> LinearExpression:
    return LinearExpression(
        (
            (1.0, (alice(i + 1), bob(1))),
            (1.0, (alice(i + 1), alice(i + 2))),
            (1.0, (alice(i + 2), alice(i - 2))),
            (1.0, (alice(i - 2), alice(i - 1))),
            (1.0, (alice(i - 1), bob(1))),
        )
    )


def c2_expression(pivot: int) -> LinearExpression:
    """Bell-shaped part of the split: A_{pivot+-1} against A_pivot and B2.

    Classical and no-disturbance bound -2.  Together with
    :func:`c1_expression` it sums to kcbs + chsh for the same pivot.
    Pivots wrap mod 5; a bool or a non-integer raises ``ValueError``.
    Built once per wrapped pivot.
    """
    return _c2_expression(wrap_pivot(pivot))


@lru_cache(maxsize=len(PIVOTS))
def _c2_expression(i: int) -> LinearExpression:
    return LinearExpression(
        (
            (1.0, (alice(i + 1), alice(i))),
            (1.0, (alice(i - 1), alice(i))),
            (1.0, (alice(i + 1), bob(2))),
            (-1.0, (alice(i - 1), bob(2))),
        )
    )


def monogamy_expression(pivot: int = 5) -> LinearExpression:
    """The combined expression kcbs + chsh for one pivot (bound -5).

    Pivots wrap mod 5; a bool or a non-integer raises ``ValueError``.
    Built once per wrapped pivot.
    """
    return _monogamy_expression(wrap_pivot(pivot))


@lru_cache(maxsize=len(PIVOTS))
def _monogamy_expression(i: int) -> LinearExpression:
    return kcbs_expression() + chsh_expression(i)


class BoundRow(NamedTuple):
    """Classical, no-disturbance and quantum minima of one expression.

    Each minimum is a closed form; ``quantum`` is the lowest eigenvalue of
    the expression's qutrit-qubit operator.
    """

    name: str
    expression: LinearExpression
    classical: float
    nd: float
    quantum: float


#: The paper's bounds table, in the row order of ``ndmonogamy bounds``.
#: The split parts c1, c2 keep their classical bound under no-disturbance
#: and in the qutrit-qubit implementation.
BOUNDS: tuple[BoundRow, ...] = (
    BoundRow("kcbs", kcbs_expression(), KCBS_CLASSICAL_BOUND, KCBS_ND_BOUND, KCBS_QUANTUM_MIN),
    BoundRow("chsh", chsh_expression(), CHSH_CLASSICAL_BOUND, CHSH_ND_BOUND, CHSH_QUANTUM_MIN),
    *(
        BoundRow(f"c1[{i}]", c1_expression(i), *(KCBS_CLASSICAL_BOUND,) * 3)
        for i in PIVOTS
    ),
    *(
        BoundRow(f"c2[{i}]", c2_expression(i), *(CHSH_CLASSICAL_BOUND,) * 3)
        for i in PIVOTS
    ),
    BoundRow("kcbs+chsh", monogamy_expression(), *(MONOGAMY_BOUND,) * 3),
)


def enumerate_assignments() -> Iterator[DeterministicAssignment]:
    """All 128 deterministic assignments, lexicographic, -1 before +1.

    The first measurement of :data:`MEASUREMENT_IDS` is most significant.
    """
    ids = MEASUREMENT_IDS
    for outcomes in itertools.product((-1, +1), repeat=len(ids)):
        yield DeterministicAssignment(ids, outcomes)


@lru_cache(maxsize=None)
def _minus_parity(mask: int, n: int) -> np.ndarray:
    """Read-only parity of each pattern ``0 .. 2^n - 1`` on the bits of ``mask``.

    Entry ``k`` is 1 exactly when an odd number of the measurements in
    ``mask`` read -1 (their bits clear) in pattern ``k``.  Cached per
    mask and width.
    """
    patterns = np.arange(1 << n, dtype=np.uint32)
    parity = (np.bitwise_count(patterns & mask) ^ mask.bit_count()) & 1
    parity.setflags(write=False)
    return parity


class ClassicalBound(NamedTuple):
    minimum: float
    maximum: float
    argmin: DeterministicAssignment


def classical_bound(expr: LinearExpression) -> ClassicalBound:
    """Exact hidden-variable extrema of ``expr`` by full enumeration.

    All 2^n assignments are evaluated as one array: assignment ``k`` gives
    measurement ``j`` the outcome +1 exactly when bit ``n-1-j`` of ``k`` is
    set (the order of :func:`enumerate_assignments`), so a term's product
    is -1 exactly when an odd number of its measurements read -1.  Terms
    are added in expression order, so every value has the bits of
    :meth:`LinearExpression.evaluate_assignment`.  Ties in the argmin are
    broken by the first assignment in lexicographic order, so results are
    reproducible.  ``expr`` names only ids of :data:`MEASUREMENT_IDS`,
    since :class:`LinearExpression` rejects any other when it is built.
    """
    ids = MEASUREMENT_IDS
    n = len(ids)
    bit = {m: 1 << (n - 1 - j) for j, m in enumerate(ids)}
    values = np.zeros(1 << n)
    for coeff, subset in expr.terms:
        # a measurement repeated in a term squares to 1, so its bit cancels
        mask = 0
        for m in subset:
            mask ^= bit[m]
        values += np.where(_minus_parity(mask, n), -coeff, coeff)
    k = int(np.argmin(values))
    outcomes = tuple(1 if k >> (n - 1 - j) & 1 else -1 for j in range(n))
    return ClassicalBound(
        float(values[k]), float(values.max()), DeterministicAssignment(ids, outcomes)
    )


def behavior_from_assignment(assignment: DeterministicAssignment) -> Behavior:
    """The deterministic behavior: each context table is a point mass."""
    probs = np.zeros((len(CONTEXTS), 8))
    for c_idx, context in enumerate(CONTEXTS):
        triple = tuple(assignment.value(m) for m in context.members)
        probs[c_idx, OUTCOME_TRIPLES.index(triple)] = 1.0
    return Behavior(probs)
