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
triples of every context, as checked by :func:`probability_tables`, the
package's one rule for a probability table.  Pair and singleton marginals
are always derived from the context tables, never stored, so a behavior
cannot contradict itself about its own marginals; whether marginals agree
*across* contexts is exactly the no-disturbance question answered by
:func:`check_no_disturbance`.  Each notion has one fixed tolerance,
:data:`PROB_TOL` and :data:`ND_TOL`, which no function takes as an
argument.

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
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import SubsetNotMeasurable

N_CYCLE = 5
OUTCOMES = (-1, +1)
#: the eight outcome triples of a context, lexicographic, -1 first
OUTCOME_TRIPLES: tuple[tuple[int, int, int], ...] = tuple(
    itertools.product(OUTCOMES, repeat=3)
)

#: how far a probability may fall below 0, and a table's sum miss 1: the check
#: of every ``Behavior``, joint table, stack and sample
PROB_TOL = 1e-12
#: marginal gap that still counts as no-disturbance: the check of
#: :func:`check_no_disturbance` and of the joint constructions
ND_TOL = 1e-10
Terms = tuple[tuple[float, tuple[str, ...]], ...]  # (coefficient, subset) pairs


def require_integer(value: int, what: str) -> int:
    """``value`` as an int; a bool, or anything that is not an integer,
    raises ``ValueError`` naming ``what`` and ``value``."""
    if type(value) is not int and (
        isinstance(value, bool) or not isinstance(value, numbers.Integral)
    ):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def alice(i: int) -> str:
    """Label of Alice's i-th measurement, index taken mod 5 into 1..5.  A
    bool or a non-integer raises :func:`require_integer`'s ``ValueError``."""
    return f"A{(require_integer(i, 'Alice index') - 1) % N_CYCLE + 1}"


def bob(j: int) -> str:
    """Label of Bob's j-th measurement, j in {1, 2}.  A bool or a
    non-integer raises :func:`require_integer`'s ``ValueError``."""
    j = require_integer(j, "Bob index")
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


def require_subset(subset: Iterable[str], what: str) -> tuple[str, ...]:
    """``subset`` as a tuple, the rule of every subset argument: a str raises
    ``ValueError`` naming ``what``, since ``"A1"`` would read as the ids
    ``"A"`` and ``"1"``."""
    if isinstance(subset, str):
        raise ValueError(f"a subset is a sequence of {what}, got the str {subset!r}")
    return tuple(subset)


def canonical_context(subset: Iterable[str]) -> Context:
    """First context (in :data:`CONTEXTS` order) containing ``subset``; a
    str subset raises :func:`require_subset`'s ``ValueError``."""
    subset = require_subset(subset, "measurement ids")
    for context in CONTEXTS:
        if context.contains(subset):
            return context
    raise SubsetNotMeasurable(f"measurements {subset} share no context")


def term(subset: Iterable[str]) -> tuple[int, np.ndarray]:
    """(context index, read-only sign vector) of the correlator of ``subset``
    in its canonical context, memoised per subset.  A str subset raises
    :func:`require_subset`'s ``ValueError``."""
    return _term(require_subset(subset, "measurement ids"))


@lru_cache(maxsize=None)
def _term(subset: tuple[str, ...]) -> tuple[int, np.ndarray]:
    context = canonical_context(subset)
    signs = sign_vector(context, subset)
    signs.setflags(write=False)
    return CONTEXTS.index(context), signs


def real_number_type(kind: type) -> bool:
    """Whether ``kind`` is int, float or a real numpy number, and not bool."""
    return kind is not bool and issubclass(kind, (int, float, np.integer, np.floating))


def real_number(value, what: str) -> float:
    """``value`` as a float: the one rule of every real scalar input.

    A finite int, float or real numpy number passes.  A bool, str, None,
    complex, any array (0-d included), NaN, +-inf and an int too large for
    a float raise ``ValueError: <what> must be a finite real number, got
    <repr>``.  ``what`` is a fixed name, so a passing value builds no
    string.
    """
    if type(value) is float or real_number_type(type(value)):
        try:
            if math.isfinite(value):  # an int too large for a float overflows
                return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


def number_array(
    values,
    dtype: type,
    what: str,
    name: Callable[[int], str] | None = None,
    shape: tuple[int | None, ...] = (),
) -> np.ndarray:
    """``values`` as an array of ``dtype``, ``float`` or ``complex``: the one
    entry rule of every array the package accepts, tables included.

    ``np.asarray(..., dtype=...)`` would parse ``"1"`` and cast ``True``,
    even when mixed into a row of numbers, and a float array would drop an
    imaginary part.  So every entry must be an int, float or numpy number
    (complex too where ``dtype`` is complex), and not a bool.  A numeric
    array passes with one dtype check.  Any other input is read once, as
    an object array: a str, bool, None or complex entry fails the one pass
    over its entry types, and so does a container that numpy holds as one
    object, nothing consumed: a generator, iterator, set, mapping or
    ragged row.  The ``ValueError`` reads ``<what> entries must be real
    numbers, got [<types>]`` (``numbers`` where ``dtype`` is complex).
    Tables pass ``name`` and their expected ``shape`` (as
    :func:`probability_tables` takes it), tables along its last axis: when
    the object array has that shape, the message starts ``<name(k)>: ``
    for the first table k that holds a bad entry and lists that table's
    types.
    """
    complex_ok = dtype is complex
    if isinstance(values, np.ndarray) and values.dtype.kind in ("fiuc" if complex_ok else "fiu"):
        return np.asarray(values, dtype=dtype)
    entries = np.asarray(values, dtype=object)
    bad = {
        kind
        for kind in set(map(type, entries.flat))
        if not (
            real_number_type(kind)
            or complex_ok and issubclass(kind, (complex, np.complexfloating))
        )
    }
    if bad:
        if name is not None and _has_shape(entries, shape):
            tables = entries.reshape(-1, shape[-1])
            k = next(k for k, table in enumerate(tables) if bad.intersection(map(type, table)))
            bad.intersection_update(map(type, tables[k]))
            what = f"{name(k)}: {what}"
        need = "numbers" if complex_ok else "real numbers"
        raise ValueError(f"{what} entries must be {need}, got {sorted(kind.__name__ for kind in bad)}")
    return entries.astype(dtype)


def _has_shape(array: np.ndarray, shape: tuple[int | None, ...]) -> bool:
    """Whether ``array`` has ``shape``, whose first length ``None`` allows any."""
    return array.shape[1:] == shape[1:] and shape[0] in (None, array.shape[0])


def probability_tables(
    probs, shape: tuple[int | None, ...], what: str, name: Callable[[int], str]
) -> np.ndarray:
    """``probs`` as a new float array of probability tables, tiny negatives clipped to 0.

    The one rule for every table of the package.  ``shape`` is the
    expected shape, its first length ``None`` when any will do; tables run
    along its last axis.  Entries pass :func:`number_array` as real
    numbers, and each table must be finite, nonnegative within
    :data:`PROB_TOL` and sum to 1 within :data:`PROB_TOL`.  ``ValueError``
    names ``what`` for a wrong shape, and otherwise the first failing
    table by ``name(k)``, k its index.
    """
    probs = number_array(probs, float, what, name, shape)
    if not _has_shape(probs, shape):
        expected = str(shape).replace("None", "n")
        raise ValueError(f"{what} must have shape {expected}, got {probs.shape}")
    # one pass over the whole array, phrased so that NaN and infinite entries
    # fail; then table by table only to name the first failing one
    if probs.size and not (
        probs.min() >= -PROB_TOL and np.abs(probs.sum(axis=-1) - 1.0).max() <= PROB_TOL
    ):
        for k, table in enumerate(probs.reshape(-1, shape[-1])):
            if not table.min() >= -PROB_TOL:
                raise ValueError(f"{name(k)}: negative or non-finite probability {table.min()}")
            total = float(table.sum())
            if not abs(total - 1.0) <= PROB_TOL:
                raise ValueError(f"{name(k)}: probabilities sum to {total}, not 1")
    return np.maximum(probs, 0.0)  # np.clip(probs, 0.0, None) into a new array


def _context_name(k: int) -> str:
    return f"context {LABELS[k]}"


@dataclass(frozen=True, eq=False)
class Behavior:
    """Probability tables over every context of :data:`CONTEXTS`.

    ``probs`` has shape (10, 8), rows in :data:`CONTEXTS` order,
    columns in the lexicographic outcome order of ``OUTCOME_TRIPLES``.
    The array is read-only after construction; negative entries within
    :data:`PROB_TOL` are clipped to exactly zero.
    """

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = probability_tables(self.probs, (len(CONTEXTS), 8), "behavior table", _context_name)
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
        """Probability of ``assignment`` (id -> outcome) within one context,
        the :func:`table_sum` of its table with :func:`indicator_vector`,
        which rejects an empty assignment, an id outside ``context`` and an
        outcome other than -1 or +1."""
        return table_sum(self.table(context), indicator_vector(context, assignment))[()]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        """JSON object keyed by context label, bit-exact round trip."""
        return json.dumps(dict(zip(LABELS, self.probs.tolist())))

    @classmethod
    def from_json(cls, text: str) -> "Behavior":
        return cls.from_tables(json.loads(text))


def sign_vector(context: Context, subset: Sequence[str]) -> np.ndarray:
    """Products of ``subset`` outcomes for the 8 outcome triples of a context;
    a str subset raises :func:`require_subset`'s ``ValueError``."""
    positions = [context.position(m) for m in require_subset(subset, "measurement ids")]
    return np.array(
        [float(np.prod([t[p] for p in positions])) for t in OUTCOME_TRIPLES]
    )


def require_outcome(value: int, measurement_id: str) -> None:
    """The rule of every outcome: a real number, -1 or +1.  A bool, numpy's
    included, an array or any other value raises ``ValueError`` naming
    ``measurement_id`` and ``value``."""
    if not (real_number_type(type(value)) and value in OUTCOMES):
        raise ValueError(f"outcome of {measurement_id} must be -1 or +1, got {value!r}")


def indicator_vector(context: Context, assignment: Mapping[str, int]) -> np.ndarray:
    """1 where an outcome triple matches ``assignment``, else 0, per column.

    ``assignment`` maps at least one id of ``context`` to an outcome of
    :func:`require_outcome`; an empty assignment or another id raises
    ``ValueError`` naming it.
    """
    if not assignment:
        raise ValueError(f"an assignment needs at least one id of context {context.label}")
    for m, v in assignment.items():
        if m not in context.members:
            raise ValueError(f"{m!r} is not a measurement of context {context.label}")
        require_outcome(v, m)
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


def table_sum(tables: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``weights``-weighted sum along the last axis of ``tables``: the one
    sum of every correlator and marginal.

    The products are added one after the other in outcome order, starting
    from the first, so a table's value has the same bits whatever stack it
    sits in; numpy's ``sum`` adds pairwise and ``@`` by BLAS blocks, which
    can differ in the last bit.  A 0-d result stays an array: ``[()]``
    makes it an ``np.float64``.
    """
    return np.add.accumulate(tables * weights, axis=-1)[..., -1]


def row_sum(rows: np.ndarray) -> np.ndarray:
    """The sum of each row of a 2-d array of at least two columns, adding
    the columns one after the other, starting from the first.

    The random draws normalise with it: it is the order in which
    ``np.linalg.norm`` adds a 6-entry row and ``Generator.dirichlet``
    a table, so the draws keep their bits, and a column at a time is
    cheaper than numpy's reduction over short rows.
    """
    total = rows[:, 0] + rows[:, 1]
    for k in range(2, rows.shape[1]):
        total += rows[:, k]
    return total


def correlator_many(probs: np.ndarray, subset: Sequence[str]) -> np.ndarray:
    """:func:`correlator` of every row of an (n, 10, 8) table stack."""
    c_idx, signs = term(subset)
    return table_sum(probs[:, c_idx], signs)


def correlator(behavior: Behavior, subset: Sequence[str]) -> float:
    """Mean value of the product of outcomes of ``subset``.

    The subset must be jointly measurable (contained in some context), and
    is read in the first containing context, as the :func:`table_sum` of
    its table with its sign vector.
    """
    c_idx, signs = term(subset)
    return float(table_sum(behavior.probs[c_idx], signs))


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


def nd_violations(probs: np.ndarray) -> list[NdViolation]:
    """All marginal disagreements beyond :data:`ND_TOL` of one (10, 8) table array.

    Its entries pass :func:`number_array` as real numbers, named "table
    array" and by context.  Any other shape and a NaN or infinite entry
    raise ``ValueError`` too.
    """
    probs = number_array(probs, float, "table array", _context_name, (len(CONTEXTS), 8))
    if probs.shape != (len(CONTEXTS), 8):
        raise ValueError(f"need a ({len(CONTEXTS)}, 8) table array, got {probs.shape}")
    # before the product, in which 0 * inf would warn
    if not np.isfinite(probs).all():
        raise ValueError("no-disturbance needs finite probabilities, got NaN or infinity")
    return _nd_verdict(probs)


def _nd_verdict(probs: np.ndarray) -> list[NdViolation]:
    """The body of :func:`nd_violations` on a finite (10, 8) float array: the
    package's one no-disturbance verdict."""
    matrix, infos = marginal_constraint_rows()
    residuals = matrix @ probs.ravel()
    if np.abs(residuals).max() <= ND_TOL:
        return []
    violations: list[NdViolation] = []
    for k in np.flatnonzero(np.abs(residuals) > ND_TOL):
        info = infos[k]
        assignment = dict(zip(info.subset, info.outcomes))
        a, b = info.context_a, info.context_b
        violations.append(
            NdViolation(
                info.subset,
                a.label,
                b.label,
                info.outcomes,
                table_sum(probs[CONTEXTS.index(a)], indicator_vector(a, assignment))[()],
                table_sum(probs[CONTEXTS.index(b)], indicator_vector(b, assignment))[()],
            )
        )
    return violations


def check_no_disturbance(behavior: Behavior) -> list[NdViolation]:
    """All marginal disagreements of ``behavior`` beyond :data:`ND_TOL`.

    Covers every shared pair marginal, p(a_i, a_{i+1}) across j in {1,2}
    and p(a_i, b_j) across the two contexts containing {A_i, B_j}, and
    every singleton marginal across all containing contexts.  An empty
    list means the behavior satisfies no-disturbance; violations are
    returned as data, never raised.  One matrix-vector product gives
    every residual; the list is built only when the worst exceeds
    :data:`ND_TOL`.  ``behavior.probs`` passed the table rule when the
    behavior was built, so the verdict runs on it with no second check.
    """
    return _nd_verdict(behavior.probs)


#: the pentagon witness: the five cyclic pair correlators <A_i A_{i+1}>
KCBS_TERMS: Terms = tuple((1.0, (alice(i), alice(i + 1))) for i in range(1, 6))


def require_count(value: int, what: str, least: int) -> int:
    """``value`` as an int of at least ``least``, the rule of every count: else
    :func:`require_integer`'s ``ValueError``, or one naming ``least``."""
    value = require_integer(value, what)
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
    return value


def seeded_generator(seed: int | np.random.Generator) -> np.random.Generator:
    """``np.random.default_rng(seed)``, the rule of every seed: a ``Generator``
    is used as it is, and a bool, a non-integer or a negative seed raises
    :func:`require_count`'s ``ValueError`` naming it."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(require_count(seed, "seed", 0))


def wrap_pivot(pivot: int) -> int:
    """``pivot`` taken mod 5 into 1..5.

    A bool, or anything that is not an integer, raises ``ValueError``
    naming it: ``True`` would otherwise act as pivot 1, and ``2.5`` name
    the measurement ``A3.5``.
    """
    return (require_integer(pivot, "pivot") - 1) % N_CYCLE + 1


def chsh_terms(pivot: int = 5) -> Terms:
    """Terms of :func:`chsh_value` at ``pivot``: A_{pivot+-1} against B1, B2."""
    return _chsh_terms(wrap_pivot(pivot))


@lru_cache(maxsize=N_CYCLE)
def _chsh_terms(pivot: int) -> Terms:
    a_plus, a_minus = alice(pivot + 1), alice(pivot - 1)
    pairs = ((a_plus, bob(1)), (a_plus, bob(2)), (a_minus, bob(1)), (a_minus, bob(2)))
    return tuple(zip((1.0, 1.0, 1.0, -1.0), pairs))


def _term_sum(correlate: Callable, source, terms: Terms):
    """``coeff * correlate(source, subset)`` of every term, added in term
    order from 0: the one sum of every witness, scalar or stacked.  Not the
    builtin ``sum``, which compensates float additions since Python 3.12,
    while numpy adds arrays in order."""
    total = 0
    for coeff, subset in terms:
        total += coeff * correlate(source, subset)
    return total


def expression_values(probs: np.ndarray, terms: Terms) -> np.ndarray:
    """Sum of the correlator ``terms`` on every row of an (n, 10, 8)
    table stack, with the bits of :func:`kcbs_value` and :func:`chsh_value`
    on each row."""
    return _term_sum(correlator_many, probs, terms)


def kcbs_value(behavior: Behavior) -> float:
    """The pentagon witness: sum of the five cyclic pair correlators.

    Noncontextual hidden-variable models obey ``kcbs_value >= -3``.
    """
    return _term_sum(correlator, behavior, KCBS_TERMS)


def chsh_value(behavior: Behavior, pivot: int = 5) -> float:
    """The Bell witness built on Alice's settings around ``pivot``.

    Uses A_{pivot+1} and A_{pivot-1} (an incompatible pair) against B1, B2:
    ``<A+ B1> + <A+ B2> + <A- B1> - <A- B2>``.  Local hidden-variable
    models obey ``chsh_value >= -2``.  The default pivot 5 selects the
    A1/A4 form; pivots wrap mod 5, and :func:`wrap_pivot` rejects a bool
    or a non-integer.
    """
    return _term_sum(correlator, behavior, chsh_terms(pivot))
