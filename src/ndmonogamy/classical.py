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
    number_type,
    wrap_pivot,
)

PIVOTS = (1, 2, 3, 4, 5)
SQRT5 = math.sqrt(5.0)
KCBS_CLASSICAL_BOUND = -3.0
CHSH_CLASSICAL_BOUND = -2.0
CHSH_ND_BOUND = -4.0
MONOGAMY_BOUND = -5.0
#: lowest eigenvalue of the pentagon operator (the quantum kcbs minimum)
KCBS_QUANTUM_MIN = 5.0 - 4.0 * SQRT5
#: its other, four-fold degenerate eigenvalue
KCBS_QUANTUM_DEGENERATE = -5.0 + 2.0 * SQRT5


@dataclass(frozen=True)
class DeterministicAssignment:
    """One outcome (-1 or +1) for every measurement in ``ids``."""

    ids: tuple[str, ...]
    outcomes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.ids) != len(self.outcomes):
            raise ValueError("ids and outcomes must have equal length")
        if any(v not in (-1, 1) for v in self.outcomes):
            raise ValueError("outcomes must be -1 or +1")

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
    finite real coefficient (not bool, str or complex) and a nonempty
    tuple of measurement-id strings.
    """

    terms: tuple[tuple[float, tuple[str, ...]], ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not (isinstance(self.terms, tuple) and all(isinstance(t, tuple) for t in self.terms)):
            raise ValueError(
                f"terms must be a tuple of (coefficient, subset) tuples, got {self.terms!r}"
            )
        for coeff, subset in self.terms:
            if not (isinstance(subset, tuple) and all(isinstance(m, str) for m in subset)):
                raise ValueError(f"a subset must be a tuple of measurement ids, got {subset!r}")
            if not subset:
                raise ValueError("each term needs a nonempty subset")
            kind = type(coeff)
            if not number_type(kind) or issubclass(kind, (complex, np.complexfloating)):
                raise ValueError(f"a coefficient must be a real number, got {kind.__name__}")
            if not np.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff}")

    def __add__(self, other: "LinearExpression") -> "LinearExpression":
        name = f"{self.name}+{other.name}" if self.name and other.name else ""
        return LinearExpression(self.terms + other.terms, name)

    def evaluate_assignment(self, assignment: DeterministicAssignment) -> float:
        return sum(c * assignment.product(sub) for c, sub in self.terms)

    def relabeled(self, shift: int) -> "LinearExpression":
        """Cyclic relabeling A_i -> A_{i+shift}; Bob's settings unchanged."""

        def move(m: str) -> str:
            return alice(int(m[1]) + shift) if m.startswith("A") else m

        return LinearExpression(
            tuple((c, tuple(move(m) for m in sub)) for c, sub in self.terms),
            self.name,
        )


def kcbs_expression() -> LinearExpression:
    """Pentagon expression: sum of the 5 cyclic pair correlators (bound -3)."""
    return LinearExpression(KCBS_TERMS, "kcbs")


def chsh_expression(pivot: int = 5) -> LinearExpression:
    """Bell expression on A_{pivot+1}, A_{pivot-1} vs B1, B2 (bound -2)."""
    return LinearExpression(chsh_terms(pivot), f"chsh[{pivot}]")


def c1_expression(pivot: int) -> LinearExpression:
    """Pentagon-shaped part of the split of kcbs+chsh around ``pivot``.

    Runs around the 5-cycle (B1, A_{pivot+1}, A_{pivot+2}, A_{pivot-2},
    A_{pivot-1}); classical and no-disturbance bound -3.  Pivots wrap
    mod 5; a bool or a non-integer raises ``ValueError``.
    """
    i = wrap_pivot(pivot)
    return LinearExpression(
        (
            (1.0, (alice(i + 1), bob(1))),
            (1.0, (alice(i + 1), alice(i + 2))),
            (1.0, (alice(i + 2), alice(i - 2))),
            (1.0, (alice(i - 2), alice(i - 1))),
            (1.0, (alice(i - 1), bob(1))),
        ),
        f"c1[{pivot}]",
    )


def c2_expression(pivot: int) -> LinearExpression:
    """Bell-shaped part of the split: A_{pivot+-1} against A_pivot and B2.

    Classical and no-disturbance bound -2.  Together with
    :func:`c1_expression` it sums to kcbs + chsh for the same pivot.
    Pivots wrap mod 5; a bool or a non-integer raises ``ValueError``.
    """
    i = wrap_pivot(pivot)
    return LinearExpression(
        (
            (1.0, (alice(i + 1), alice(i))),
            (1.0, (alice(i - 1), alice(i))),
            (1.0, (alice(i + 1), bob(2))),
            (-1.0, (alice(i - 1), bob(2))),
        ),
        f"c2[{pivot}]",
    )


def monogamy_expression(pivot: int = 5) -> LinearExpression:
    """The combined expression kcbs + chsh for one pivot (bound -5)."""
    return kcbs_expression() + chsh_expression(pivot)


class BoundRow(NamedTuple):
    """Classical, no-disturbance and quantum minima of one expression.

    ``quantum`` is None where the minimum has no closed form here.
    """

    name: str
    expression: LinearExpression
    classical: float
    nd: float
    quantum: float | None


#: The paper's bounds table, in the row order of ``ndmonogamy bounds``.
#: The split parts c1, c2 keep their classical bound under no-disturbance
#: and in the qutrit-qubit implementation.
BOUNDS: tuple[BoundRow, ...] = (
    BoundRow("kcbs", kcbs_expression(), KCBS_CLASSICAL_BOUND, -5.0, KCBS_QUANTUM_MIN),
    BoundRow("chsh", chsh_expression(), CHSH_CLASSICAL_BOUND, CHSH_ND_BOUND, None),
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
    reproducible.
    """
    ids = MEASUREMENT_IDS
    known = set(ids)
    for _, subset in expr.terms:
        unknown = set(subset) - known
        if unknown:
            raise ValueError(f"expression references unknown measurements {unknown}")
    n = len(ids)
    bit = {m: 1 << (n - 1 - j) for j, m in enumerate(ids)}
    patterns = np.arange(1 << n, dtype=np.uint32)
    values = np.zeros(1 << n)
    for coeff, subset in expr.terms:
        # a measurement repeated in a term squares to 1, so its bit cancels
        mask = 0
        for m in subset:
            mask ^= bit[m]
        minus_parity = (np.bitwise_count(patterns & mask) ^ mask.bit_count()) & 1
        values += np.where(minus_parity, -coeff, coeff)
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
