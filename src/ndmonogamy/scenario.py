"""Measurement scenario: a 5-cycle of Alice settings plus two Bob settings.

Alice holds five dichotomic measurements A1..A5, cyclically compatible
(A_i with A_{i+1}, indices mod 5).  Bob holds two mutually incompatible
dichotomic measurements B1, B2, each compatible with every A_i.  The
maximal measurement contexts are the ten triples {A_i, A_{i+1}, B_j}.
The package models this one scenario as module data,
:data:`MEASUREMENT_IDS`, :data:`CONTEXTS` and :data:`LABELS`: no function
takes a scenario argument, and every ``Behavior`` holds the tables of the
ten contexts.

A ``Behavior`` assigns a probability distribution over the eight outcome
triples of every context.  Pair and singleton marginals are always derived
from the context tables, never stored, so a behavior cannot contradict
itself about its own marginals; whether marginals agree *across* contexts
is exactly the no-disturbance question answered by
:func:`check_no_disturbance`.

Outcome indexing convention: outcomes are -1/+1, tables are indexed
lexicographically with -1 before +1 and the leftmost measurement of the
context most significant, e.g. index 0 is (-1,-1,-1) and index 7 is
(+1,+1,+1).
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import SubsetNotMeasurable

N_CYCLE = 5
OUTCOMES = (-1, +1)
#: the eight outcome triples of a context, lexicographic, -1 first
OUTCOME_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    itertools.product(OUTCOMES, repeat=3)
)

#: how far a probability may fall below 0, and a table's sum miss 1: the default
#: of ``Behavior.validation_tol`` and the check of every joint table and sample
PROB_TOL = 1e-12
#: marginal gap that still counts as no-disturbance: the default of
#: :func:`check_no_disturbance`, and the tolerance of the joint constructions
ND_TOL = 1e-10
Terms = tuple[tuple[float, tuple[str, ...]], ...]  # (coefficient, subset) pairs


def alice(i: int) -> str:
    """Label of Alice's i-th measurement, index taken mod 5 into 1..5."""
    return f"A{(i - 1) % N_CYCLE + 1}"


def bob(j: int) -> str:
    """Label of Bob's j-th measurement, j in {1, 2}."""
    if j not in (1, 2):
        raise ValueError(f"Bob has measurements 1 and 2, got {j}")
    return f"B{j}"


@dataclass(frozen=True)
class Context:
    """An ordered triple of jointly measurable measurements."""

    members: tuple[str, str, str]

    @property
    def label(self) -> str:
        return ",".join(self.members)

    def position(self, measurement_id: str) -> int:
        return self.members.index(measurement_id)

    def contains(self, subset: Iterable[str]) -> bool:
        return set(subset) <= set(self.members)


#: the seven measurements, in assignment order: A1..A5, then B1, B2
MEASUREMENT_IDS: tuple[str, ...] = (
    *(alice(i) for i in range(1, N_CYCLE + 1)),
    bob(1),
    bob(2),
)
#: the ten maximal contexts {A_i, A_{i+1}, B_j}, i in 1..5, j in 1..2, in
#: the row order of every behavior table
CONTEXTS: tuple[Context, ...] = tuple(
    Context((alice(i), alice(i + 1), bob(j)))
    for i in range(1, N_CYCLE + 1)
    for j in (1, 2)
)
#: context labels, in :data:`CONTEXTS` order
LABELS: tuple[str, ...] = tuple(c.label for c in CONTEXTS)


def canonical_context(subset: Iterable[str]) -> Context:
    """First context (in :data:`CONTEXTS` order) containing ``subset``."""
    subset = tuple(subset)
    for context in CONTEXTS:
        if context.contains(subset):
            return context
    raise SubsetNotMeasurable(f"measurements {subset} share no context")


def term(subset: Iterable[str], context: Context | None = None) -> tuple[int, np.ndarray]:
    """(context index, read-only sign vector) of the correlator of ``subset``.

    The context is ``context`` when given, else the canonical one.
    Memoised per subset and context; a context that does not contain
    ``subset`` raises :class:`SubsetNotMeasurable` on every call.
    """
    return _term(tuple(subset), context)


@lru_cache(maxsize=None)
def _term(subset: tuple[str, ...], context: Context | None) -> tuple[int, np.ndarray]:
    if context is None:
        context = canonical_context(subset)
    elif not context.contains(subset):
        raise SubsetNotMeasurable(f"{subset} not contained in context {context.label}")
    signs = sign_vector(context, subset)
    signs.setflags(write=False)
    return CONTEXTS.index(context), signs


def _validate_table(table: np.ndarray, label: str, tol: float) -> np.ndarray:
    table = np.asarray(table, dtype=float)
    if table.shape != (8,):
        raise ValueError(f"context {label}: expected 8 probabilities, got {table.shape}")
    # phrased so that NaN and infinite entries fail the comparisons
    if not table.min() >= -tol:
        raise ValueError(
            f"context {label}: negative or non-finite probability {table.min()}"
        )
    total = float(table.sum())
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"context {label}: probabilities sum to {total}, not 1")
    return np.clip(table, 0.0, None)


def number_type(kind: type) -> bool:
    """Whether ``kind`` is a numeric type: int, float, complex or a numpy
    number, but not bool, str or a container."""
    return kind is not bool and issubclass(kind, (int, float, complex, np.number))


def _require_numbers(probs, labels: Sequence[str]) -> None:
    """Reject str, bool, None and nested entries of a table stack, naming the context.

    ``np.asarray(..., dtype=float)`` would parse ``"0.125"`` and cast
    ``True``, even when mixed into a row of floats.  A numeric array passes
    at once; any other input is checked by the types of all its entries in
    one pass, and row by row only to name the first offending context.
    """
    if isinstance(probs, np.ndarray) and probs.dtype.kind in "fiuc":
        return
    try:
        kinds = set(map(type, itertools.chain.from_iterable(probs)))
    except TypeError:
        return  # not a sequence of rows: the shape check names it
    if all(map(number_type, kinds)):
        return
    for label, row in zip(labels, probs):
        for entry in row:
            if not number_type(type(entry)):
                raise ValueError(
                    f"context {label}: entries must be numbers, got {type(entry).__name__}"
                )
    raise ValueError(f"entries must be numbers, got {sorted(k.__name__ for k in kinds)}")


@dataclass(frozen=True, eq=False)
class Behavior:
    """Probability tables over every context of :data:`CONTEXTS`.

    ``probs`` has shape (10, 8), rows in :data:`CONTEXTS` order,
    columns in the lexicographic outcome order of ``OUTCOME_TRIPLES``.
    The array is read-only after construction; negative entries within
    the validation tolerance are clipped to exactly zero.
    """

    probs: np.ndarray
    validation_tol: float = field(default=PROB_TOL, compare=False)

    def __post_init__(self) -> None:
        _require_numbers(self.probs, LABELS)
        probs = np.asarray(self.probs)
        if np.iscomplexobj(probs):
            raise ValueError("behavior probabilities must be real, got a complex table")
        probs = probs.astype(float, copy=False)
        expected = (len(CONTEXTS), 8)
        if probs.shape != expected:
            raise ValueError(f"behavior table must have shape {expected}, got {probs.shape}")
        tol = self.validation_tol
        require_tolerance(tol)
        # one pass over the whole table, phrased so that NaN and infinite
        # entries fail; then the per-row check raises with the label of the
        # first failing context
        if not (probs.min() >= -tol and np.abs(probs.sum(axis=1) - 1.0).max() <= tol):
            for label, row in zip(LABELS, probs):
                _validate_table(row, label, tol)
        probs = np.maximum(probs, 0.0)  # np.clip(probs, 0.0, None) into a new array
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_tables(cls, tables: Mapping[str, Sequence[float]]) -> "Behavior":
        """Build from a mapping of each context label, and no other key, to its 8-entry table."""
        if not isinstance(tables, Mapping):
            raise ValueError(f"context tables must be a mapping, got {type(tables).__name__}")
        missing = [label for label in LABELS if label not in tables]
        if missing:
            raise ValueError(f"missing context tables: {missing}")
        if len(tables) != len(LABELS):
            raise ValueError(f"unknown context labels: {[k for k in tables if k not in LABELS]}")
        return cls([tables[label] for label in LABELS])

    @classmethod
    def uniform(cls) -> "Behavior":
        return cls(np.full((len(CONTEXTS), 8), 1 / 8))

    # -- access ------------------------------------------------------------

    def table(self, context: Context) -> np.ndarray:
        return self.probs[CONTEXTS.index(context)]

    def marginal(self, context: Context, assignment: Mapping[str, int]) -> float:
        """Probability of ``assignment`` (id -> outcome) within one context."""
        return _table_marginal(self.table(context), context, assignment)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """JSON object keyed by context label, bit-exact round trip."""
        return json.dumps(dict(zip(LABELS, self.probs.tolist())))

    @classmethod
    def from_json(cls, text: str) -> "Behavior":
        return cls.from_tables(json.loads(text))


def _table_marginal(
    table: np.ndarray, context: Context, assignment: Mapping[str, int]
) -> float:
    """Probability of ``assignment`` under one context's 8-entry table."""
    positions = [(context.position(m), v) for m, v in assignment.items()]
    total = 0.0
    for k, triple in enumerate(OUTCOME_TRIPLES):
        if all(triple[pos] == v for pos, v in positions):
            total += table[k]
    return total


def sign_vector(context: Context, subset: Sequence[str]) -> np.ndarray:
    """Products of ``subset`` outcomes for the 8 outcome triples of a context."""
    positions = [context.position(m) for m in subset]
    return np.array(
        [float(np.prod([t[p] for p in positions])) for t in OUTCOME_TRIPLES]
    )


def indicator_vector(context: Context, assignment: Mapping[str, int]) -> np.ndarray:
    """1 where an outcome triple matches ``assignment``, else 0, per column."""
    positions = [(context.position(m), v) for m, v in assignment.items()]
    return np.array(
        [
            1.0 if all(t[p] == v for p, v in positions) else 0.0
            for t in OUTCOME_TRIPLES
        ]
    )


class MarginalRowInfo(NamedTuple):
    """Provenance of one marginal-agreement constraint row."""

    subset: tuple[str, ...]
    outcomes: tuple[int, ...]
    context_a: Context
    context_b: Context


@lru_cache(maxsize=None)
def marginal_constraint_rows() -> tuple[np.ndarray, tuple[MarginalRowInfo, ...]]:
    """Matrix R with R @ behavior.probs.ravel() = marginal disagreements.

    The no-disturbance principle ties together the marginals of every
    pair and every singleton that lies in several contexts.  One row per
    such subset, outcome assignment and consecutive pair of containing
    contexts; all rows vanish exactly on no-disturbance behaviors.
    """
    containing: dict[tuple[str, ...], tuple[Context, ...]] = {}
    for context in CONTEXTS:
        for size in (1, 2):
            for sub in itertools.combinations(context.members, size):
                key = tuple(sorted(sub))
                if key not in containing:
                    containing[key] = tuple(c for c in CONTEXTS if c.contains(key))
    rows: list[np.ndarray] = []
    infos: list[MarginalRowInfo] = []
    for subset, contexts in containing.items():
        for values in itertools.product(OUTCOMES, repeat=len(subset)):
            assignment = dict(zip(subset, values))
            for ctx_a, ctx_b in zip(contexts, contexts[1:]):
                row = np.zeros(len(CONTEXTS) * 8)
                ia = 8 * CONTEXTS.index(ctx_a)
                ib = 8 * CONTEXTS.index(ctx_b)
                row[ia : ia + 8] = indicator_vector(ctx_a, assignment)
                row[ib : ib + 8] -= indicator_vector(ctx_b, assignment)
                rows.append(row)
                infos.append(MarginalRowInfo(subset, values, ctx_a, ctx_b))
    matrix = np.array(rows)
    matrix.setflags(write=False)
    return matrix, tuple(infos)


def correlator_many(
    probs: np.ndarray, subset: Sequence[str], context: Context | None = None
) -> np.ndarray:
    """:func:`correlator` of every row of an (n, 10, 8) table stack.

    Each row's signed table entries are summed in outcome order, one
    after the other, so a row's value does not depend on the stack it
    sits in.
    """
    c_idx, signs = term(subset, context)
    return np.cumsum(probs[:, c_idx] * signs, axis=1)[:, -1]


def correlator(
    behavior: Behavior,
    subset: Sequence[str],
    context: Context | None = None,
) -> float:
    """Mean value of the product of outcomes of ``subset``.

    The subset must be jointly measurable (contained in some context).
    By default the first containing context is used; any other containing
    context may be requested explicitly, which matters only for behaviors
    violating no-disturbance.  The signed entries are summed in outcome
    order, like :func:`correlator_many`.
    """
    c_idx, signs = term(subset, context)
    return float(np.add.accumulate(behavior.probs[c_idx] * signs)[-1])


class NdViolation(NamedTuple):
    """One marginal that disagrees between two contexts sharing it."""

    subset: tuple[str, ...]
    context_a: str
    context_b: str
    outcomes: tuple[int, ...]
    value_a: float
    value_b: float

    @property
    def magnitude(self) -> float:
        return abs(self.value_a - self.value_b)


def require_tolerance(tol: float) -> None:
    """Reject a tolerance that is negative, NaN or infinite."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def nd_violations(probs: np.ndarray, tol: float = ND_TOL) -> list[NdViolation]:
    """All marginal disagreements beyond ``tol`` of one (10, 8) table array.

    Any other shape, and a table with a NaN or infinite entry, raise
    ``ValueError``.
    """
    require_tolerance(tol)
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (len(CONTEXTS), 8):
        raise ValueError(f"need a ({len(CONTEXTS)}, 8) table array, got {probs.shape}")
    matrix, infos = marginal_constraint_rows()
    residuals = matrix @ probs.ravel()
    # every entry has a nonzero coefficient in some row, so a NaN or
    # infinite entry makes the worst residual NaN or infinite too
    if np.abs(residuals).max() <= tol:
        return []
    if not np.isfinite(probs).all():
        raise ValueError("no-disturbance needs finite probabilities, got NaN or infinity")
    violations: list[NdViolation] = []
    for k in np.flatnonzero(np.abs(residuals) > tol):
        info = infos[k]
        assignment = dict(zip(info.subset, info.outcomes))
        violations.append(
            NdViolation(
                info.subset,
                info.context_a.label,
                info.context_b.label,
                info.outcomes,
                _table_marginal(
                    probs[CONTEXTS.index(info.context_a)], info.context_a, assignment
                ),
                _table_marginal(
                    probs[CONTEXTS.index(info.context_b)], info.context_b, assignment
                ),
            )
        )
    return violations


def check_no_disturbance(behavior: Behavior, tol: float = ND_TOL) -> list[NdViolation]:
    """All marginal disagreements of ``behavior`` beyond ``tol``.

    Covers every shared pair marginal, p(a_i, a_{i+1}) across j in {1,2}
    and p(a_i, b_j) across the two contexts containing {A_i, B_j}, and
    every singleton marginal across all containing contexts.  An empty
    list means the behavior satisfies no-disturbance at this tolerance;
    violations are returned as data, never raised.  A negative or
    non-finite ``tol`` raises ``ValueError``.  One matrix-vector product
    gives every residual; the list is built only when the worst exceeds ``tol``.
    """
    return nd_violations(behavior.probs, tol)


#: the pentagon witness: the five cyclic pair correlators <A_i A_{i+1}>
KCBS_TERMS: Terms = tuple((1.0, (alice(i), alice(i + 1))) for i in range(1, 6))


def wrap_pivot(pivot: int) -> int:
    """``pivot`` taken mod 5 into 1..5.

    A bool, or anything that is not an integer, raises ``ValueError``
    naming it: ``True`` would otherwise act as pivot 1, and ``2.5`` name
    the measurement ``A3.5``.
    """
    if type(pivot) is not int and (
        isinstance(pivot, bool) or not isinstance(pivot, numbers.Integral)
    ):
        raise ValueError(f"pivot must be an integer, got {pivot!r}")
    return (int(pivot) - 1) % N_CYCLE + 1


def chsh_terms(pivot: int = 5) -> Terms:
    """Terms of :func:`chsh_value` at ``pivot``: A_{pivot+-1} against B1, B2."""
    return _chsh_terms(wrap_pivot(pivot))


@lru_cache(maxsize=N_CYCLE)
def _chsh_terms(pivot: int) -> Terms:
    a_plus, a_minus = alice(pivot + 1), alice(pivot - 1)
    pairs = ((a_plus, bob(1)), (a_plus, bob(2)), (a_minus, bob(1)), (a_minus, bob(2)))
    return tuple(zip((1.0, 1.0, 1.0, -1.0), pairs))


def expression_values(probs: np.ndarray, terms: Terms) -> np.ndarray:
    """Sum of the correlator ``terms`` on every row of an (n, 10, 8)
    table stack, the terms added in order like :func:`kcbs_value` does."""
    return sum(coeff * correlator_many(probs, subset) for coeff, subset in terms)


def kcbs_value(behavior: Behavior) -> float:
    """The pentagon witness: sum of the five cyclic pair correlators.

    Noncontextual hidden-variable models obey ``kcbs_value >= -3``.
    """
    return sum(coeff * correlator(behavior, subset) for coeff, subset in KCBS_TERMS)


def chsh_value(behavior: Behavior, pivot: int = 5) -> float:
    """The Bell witness built on Alice's settings around ``pivot``.

    Uses A_{pivot+1} and A_{pivot-1} (an incompatible pair) against B1, B2:
    ``<A+ B1> + <A+ B2> + <A- B1> - <A- B2>``.  Local hidden-variable
    models obey ``chsh_value >= -2``.  The default pivot 5 selects the
    A1/A4 form; pivots wrap mod 5, and :func:`wrap_pivot` rejects a bool
    or a non-integer.
    """
    return sum(coeff * correlator(behavior, subset) for coeff, subset in chsh_terms(pivot))
