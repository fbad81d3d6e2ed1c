"""The inputs that the package's entry rules reject, as one table: each row
is an entry point and a bad entry, and asserts ``ValueError`` with its exact
message.  Arrays pass ``scenario.number_array`` (``[<table>: ]<what>
entries must be [real ]numbers, got [<types>]``), real scalars
``scenario.real_number`` (``<what> must be a finite real number, got
<repr>``) and measurement indices ``scenario.require_integer``."""

import copy
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest

from ndmonogamy import classical
from ndmonogamy.nodisturbance import (
    JointDistribution,
    MonogamyReport,
    fine_join_c1,
    fine_join_c2,
    monogamy_certificate,
    sample_behavior_matrix,
)
from ndmonogamy.quantum import (
    behavior_from_state,
    bob_observable,
    expectation,
    kcbs_operator,
    require_hermitian,
    require_normalized,
)
from ndmonogamy.region import (
    RegionPoint,
    boundary_state,
    boundary_theta,
    expectation_M,
    expectation_N,
    frame_state,
    stationarity_residual,
)
from ndmonogamy.scenario import (
    LABELS,
    MEASUREMENT_IDS,
    Behavior,
    alice,
    bob,
    nd_violations,
    number_array,
    real_number,
)

ROWS = Behavior.uniform().probs.tolist()
TABLES = dict(zip(LABELS, ROWS))
#: the all-plus point mass, True for 1.0 and False for 0.0: a valid behavior once cast
BOOL_TABLES = classical.behavior_from_assignment(
    classical.DeterministicAssignment(MEASUREMENT_IDS, (1,) * len(MEASUREMENT_IDS))
).probs == 1.0
JOINT = [[0.25, 0.75], [0.5, 0.5]]
STACK = sample_behavior_matrix(4, seed=3).reshape(-1, 10, 8).tolist()
STACKED_CALLS = {
    "fine_join_c1": lambda probs: fine_join_c1(probs, 5),
    "fine_join_c2": lambda probs: fine_join_c2(probs, 2),
    "certificate": monogamy_certificate,
}
STATE = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
E0 = np.eye(6)[0]
OPERATOR = kcbs_operator().tolist()
#: the str, bool, numpy bool and None entries that states and operators reject
NON_NUMBERS = {"str": "1", "bool": True, "np.bool": np.True_, "None": None}


def planted(nest, index, entry):
    """A copy of the nested lists ``nest`` with ``entry`` at ``index``."""
    nest = copy.deepcopy(nest)
    *path, last = index
    inner = nest
    for i in path:
        inner = inner[i]
    inner[last] = entry
    return nest


def tables_with(label, entry):
    """``TABLES`` with ``entry`` as the third entry of context ``label``."""
    return dict(TABLES, **{label: TABLES[label][:2] + [entry] + TABLES[label][3:]})


def behavior_calls(tables):
    """Each way to give ``tables`` to a ``Behavior``: as a mapping, as JSON and as a list."""
    return {
        "from_tables": lambda: Behavior.from_tables(tables),
        "from_json": lambda: Behavior.from_json(json.dumps(tables)),
        "list": lambda: Behavior(list(tables.values())),
    }


def cases(point, bad, calls, message):
    return [pytest.param(call, message, id=f"{point}-{bad}-{how}") for how, call in calls.items()]


def case(point, bad, call, message):
    return pytest.param(call, message, id=f"{point}-{bad}")


def table_rows():
    mixed_bools = dict(TABLES, **{"A5,A1,B2": [False] + TABLES["A5,A1,B2"][1:7] + [True]})
    whole_bools = dict(zip(LABELS, BOOL_TABLES.tolist()))
    as_strings = {label: [repr(v) for v in table] for label, table in TABLES.items()}
    what = "behavior table entries must be real numbers, got"
    return [
        *cases("tables", "str", behavior_calls(tables_with("A3,A4,B2", "0.125")),
                  f"context A3,A4,B2: {what} ['str']"),
        case("tables", "str-every-entry", behavior_calls(as_strings)["from_json"],
            f"context A1,A2,B1: {what} ['str']"),
        case("tables", "str-array", lambda: Behavior(np.full((10, 8), "0.125")),
            f"context A1,A2,B1: {what} ['str']"),
        *cases("tables", "bool-mixed", behavior_calls(mixed_bools), f"context A5,A1,B2: {what} ['bool']"),
        *cases("tables", "bool-whole", behavior_calls(whole_bools), f"context A1,A2,B1: {what} ['bool']"),
        case("tables", "bool-array", lambda: Behavior(BOOL_TABLES), f"context A1,A2,B1: {what} ['bool']"),
        *cases("tables", "None", behavior_calls(tables_with("A3,A4,B2", None)),
                  f"context A3,A4,B2: {what} ['NoneType']"),
        case("tables", "complex", lambda: Behavior(planted(ROWS, (4, 3), 0.125 + 0j)),
            f"context A3,A4,B1: {what} ['complex']"),
        case("tables", "generator", lambda: Behavior(row for row in ROWS), f"{what} ['generator']"),
        case("tables", "iterator", lambda: Behavior(iter(ROWS)), f"{what} ['list_iterator']"),
        case("tables", "iterator-row", lambda: Behavior([iter(row) for row in ROWS]), f"{what} ['list_iterator']"),
        case("tables", "set-row", lambda: Behavior(ROWS[:9] + [set(ROWS[9])]), f"{what} ['list', 'set']"),
        case("tables", "mapping", lambda: Behavior(dict(enumerate(ROWS))), f"{what} ['dict']"),
        *cases("tables", "mapping-entry", behavior_calls(tables_with("A3,A4,B2", {"p": 0.125})),
                  f"context A3,A4,B2: {what} ['dict']"),
        *cases("tables", "ragged-entry", behavior_calls(tables_with("A3,A4,B2", [0.125])),
                  f"context A3,A4,B2: {what} ['list']"),
        # two 8-entry lists per context: not the table shape, so no context is named
        *cases("tables", "str-misshaped", behavior_calls(
            {label: [table, table] for label, table in tables_with("A3,A4,B2", "0.125").items()}
        ), f"{what} ['str']"),
        case("tables", "ragged", lambda: Behavior(ROWS[:9] + [ROWS[9][:7]]), f"{what} ['list']"),
    ]


def nd_violations_rows():
    what = "table array entries must be real numbers, got"
    return [
        case("nd_violations", "str", lambda: nd_violations([["0.125"] * 8] * 10),
            f"context A1,A2,B1: {what} ['str']"),
        case("nd_violations", "str-array", lambda: nd_violations(np.full((10, 8), "0.125")),
            f"context A1,A2,B1: {what} ['str']"),
        case("nd_violations", "bool", lambda: nd_violations([[True] + [False] * 7] * 10),
            f"context A1,A2,B1: {what} ['bool']"),
        case("nd_violations", "bool-array", lambda: nd_violations(np.eye(8, dtype=bool)[[0] * 10]),
            f"context A1,A2,B1: {what} ['bool']"),
        case("nd_violations", "None", lambda: nd_violations(planted(ROWS, (0, 0), None)),
            f"context A1,A2,B1: {what} ['NoneType']"),
        case("nd_violations", "complex", lambda: nd_violations(planted(ROWS, (9, 7), 0.125 + 0j)),
            f"context A5,A1,B2: {what} ['complex']"),
        case("nd_violations", "generator", lambda: nd_violations(row for row in ROWS), f"{what} ['generator']"),
        case("nd_violations", "iterator", lambda: nd_violations(iter(ROWS)), f"{what} ['list_iterator']"),
        case("nd_violations", "iterator-row", lambda: nd_violations([iter(row) for row in ROWS]),
            f"{what} ['list_iterator']"),
        case("nd_violations", "set-row", lambda: nd_violations(ROWS[:9] + [set(ROWS[9])]), f"{what} ['list', 'set']"),
        case("nd_violations", "mapping", lambda: nd_violations(dict(enumerate(ROWS))), f"{what} ['dict']"),
        case("nd_violations", "ragged", lambda: nd_violations(ROWS[:9] + [ROWS[9][:7]]), f"{what} ['list']"),
        case("nd_violations", "str-misshaped", lambda: nd_violations([ROWS, planted(ROWS, (9, 7), "0.125")]),
            f"{what} ['str']"),
        case("nd_violations", "mapping-entry", lambda: nd_violations(planted(ROWS, (2, 1), {"p": 0.125})),
            f"context A2,A3,B1: {what} ['dict']"),
    ]


def joint_rows():
    def joint(make):
        return lambda: JointDistribution(("X",), make())

    what = "joint stack entries must be real numbers, got"
    return [
        # numpy would parse the strings, cast the bools and, with only a
        # ComplexWarning, drop the imaginary part
        case("joints", "str", joint(lambda: [["0.5", "0.5"]]), f"joint row 0: {what} ['str']"),
        case("joints", "bool", joint(lambda: [[True, False]]), f"joint row 0: {what} ['bool']"),
        case("joints", "None", joint(lambda: [[0.5, None]]), f"joint row 0: {what} ['NoneType']"),
        case("joints", "complex", joint(lambda: [[0.5 + 0j, 0.5]]), f"joint row 0: {what} ['complex']"),
        case("joints", "complex-in-row-1", joint(lambda: [[0.5, 0.5], [0.25, 0.75 + 0j]]),
            f"joint row 1: {what} ['complex']"),
        case("joints", "complex-array", joint(lambda: np.array([[0.5, 0.5]]) + 0j), f"joint row 0: {what} ['complex']"),
        case("joints", "generator", joint(lambda: (row for row in JOINT)), f"{what} ['generator']"),
        case("joints", "iterator", joint(lambda: iter(JOINT)), f"{what} ['list_iterator']"),
        case("joints", "iterator-row", joint(lambda: JOINT[:1] + [iter(JOINT[1])]), f"{what} ['list', 'list_iterator']"),
        case("joints", "set-row", joint(lambda: [set(JOINT[0])] + JOINT[1:]), f"{what} ['list', 'set']"),
        case("joints", "mapping", joint(lambda: dict(enumerate(JOINT))), f"{what} ['dict']"),
        case("joints", "ragged", joint(lambda: [[0.25, 0.75], [1.0]]), f"{what} ['list']"),
    ]


def stack_rows():
    what = "behavior table stack entries must be real numbers, got"
    # each a maker, so that every call meets a fresh generator or iterator
    bad_stacks = {
        "str": (lambda: planted(STACK, (2,), np.full((10, 8), "0.125").tolist()),
                f"behavior row 2, context A1,A2,B1: {what} ['str']"),
        "bool": (lambda: planted(STACK, (2,), BOOL_TABLES.tolist()),
                 f"behavior row 2, context A1,A2,B1: {what} ['bool']"),
        "None": (lambda: planted(STACK, (1, 4, 2), None), f"behavior row 1, context A3,A4,B1: {what} ['NoneType']"),
        "complex": (lambda: planted(STACK, (3, 0, 0), 0j), f"behavior row 3, context A1,A2,B1: {what} ['complex']"),
        "mapping-entry": (lambda: planted(STACK, (1, 4, 2), {"p": 0.125}),
                          f"behavior row 1, context A3,A4,B1: {what} ['dict']"),
        "generator": (lambda: (row for row in STACK), f"{what} ['generator']"),
        "iterator": (lambda: iter(STACK), f"{what} ['list_iterator']"),
        "iterator-row": (lambda: STACK[:2] + [iter(STACK[2])] + STACK[3:], f"{what} ['list', 'list_iterator']"),
        "iterator-tables": (lambda: [[iter(table) for table in row] for row in STACK], f"{what} ['list_iterator']"),
        "set-row": (lambda: planted(STACK, (1, 0), set(STACK[1][0])), f"{what} ['list', 'set']"),
        "mapping": (lambda: dict(enumerate(STACK)), f"{what} ['dict']"),
        "ragged": (lambda: STACK[:3] + [STACK[3][:9]], f"{what} ['list']"),
    }
    return [
        pytest.param(lambda call=call, make=make: call(make()), message, id=f"stacks-{bad}-{how}")
        for bad, (make, message) in bad_stacks.items()
        for how, call in STACKED_CALLS.items()
    ]


def state_rows():
    what = "state entries must be numbers, got"
    rows = []
    for bad, entry in NON_NUMBERS.items():
        state = [entry] + STATE[1:]
        calls = {
            "require_normalized": lambda state=state: require_normalized(state),
            "require_normalized-stack": lambda state=state: require_normalized([E0, state]),
            "behavior_from_state": lambda state=state: behavior_from_state(state),
            "expectation": lambda state=state: expectation(kcbs_operator(), state),
        }
        rows += cases("states", bad, calls, f"{what} ['{type(entry).__name__}']")
    for bad, state in {"str-whole": ["0", "0", "0", "0", "1", "0"], "bool-array": np.eye(6, dtype=bool)[4]}.items():
        calls = {
            "expectation": lambda state=state: expectation(kcbs_operator(), state),
            "behavior_from_state": lambda state=state: behavior_from_state(state),
        }
        rows += cases("states", bad, calls, f"{what} ['{type(state[0]).__name__}']")
    return rows + [
        case("states", "generator", lambda: require_normalized(x for x in STATE), f"{what} ['generator']"),
        case("states", "iterator-row", lambda: require_normalized([STATE, iter(STATE)]),
            f"{what} ['list', 'list_iterator']"),
        case("states", "set-row", lambda: require_normalized([STATE, set(STATE)]), f"{what} ['list', 'set']"),
        case("states", "mapping", lambda: require_normalized(dict(enumerate(STATE))), f"{what} ['dict']"),
        case("states", "ragged", lambda: require_normalized([STATE, STATE[:5]]), f"{what} ['list']"),
    ]


def operator_rows():
    what = "operator entries must be numbers, got"
    rows = []
    for bad, entry in NON_NUMBERS.items():
        operator = planted(OPERATOR, (0, 0), entry)
        calls = {
            "expectation": lambda operator=operator: expectation(operator, E0),
            "expectation-stack": lambda operator=operator: expectation([kcbs_operator(), operator], E0),
            "require_hermitian": lambda operator=operator: require_hermitian(operator),
        }
        rows += cases("operators", bad, calls, f"{what} ['{type(entry).__name__}']")
    return rows + [
        case("operators", "generator", lambda: require_hermitian(row for row in OPERATOR), f"{what} ['generator']"),
        case("operators", "iterator-row", lambda: require_hermitian(OPERATOR[:5] + [iter(OPERATOR[5])]),
            f"{what} ['list', 'list_iterator']"),
        case("operators", "set-row", lambda: require_hermitian(OPERATOR[:5] + [set(OPERATOR[5])]),
            f"{what} ['list', 'set']"),
        case("operators", "mapping", lambda: require_hermitian(dict(enumerate(OPERATOR))), f"{what} ['dict']"),
        case("operators", "ragged", lambda: require_hermitian(OPERATOR[:5] + [OPERATOR[5][:5]]), f"{what} ['list']"),
    ]


def angle_rows():
    theta, phi = "theta entries must be real numbers, got", "phi entries must be real numbers, got"
    return [
        case("angles", "str-theta", lambda: expectation_M("1", 0.3), f"{theta} ['str']"),
        case("angles", "str-phi", lambda: expectation_M(0.3, "1"), f"{phi} ['str']"),
        case("angles", "str-N", lambda: expectation_N("1"), f"{theta} ['str']"),
        case("angles", "str-array", lambda: expectation_N(np.array(["1"])), f"{theta} ['str']"),
        case("angles", "str-residual", lambda: stationarity_residual("1.0"), f"{phi} ['str']"),
        case("angles", "bool-theta", lambda: expectation_M([0.3, True], 0.3), f"{theta} ['bool']"),
        case("angles", "bool-array", lambda: expectation_N(np.array([True])), f"{theta} ['bool']"),
        case("angles", "bool-frame", lambda: frame_state(0.3, False), f"{phi} ['bool']"),
        case("angles", "None-phi", lambda: expectation_M(0.3, None), f"{phi} ['NoneType']"),
        case("angles", "None-residual", lambda: stationarity_residual([0.3, None]), f"{phi} ['NoneType']"),
        case("angles", "complex", lambda: expectation_M(0.3, 1j), f"{phi} ['complex']"),
        case("angles", "generator", lambda: expectation_N(t for t in (0.1, 0.2)), f"{theta} ['generator']"),
        case("angles", "iterator-row", lambda: expectation_N([[0.1], iter([0.2])]),
            f"{theta} ['list', 'list_iterator']"),
        case("angles", "set-row", lambda: expectation_N([[0.1], {0.2}]), f"{theta} ['list', 'set']"),
        case("angles", "mapping", lambda: expectation_N({0: 0.1}), f"{theta} ['dict']"),
        case("angles", "ragged", lambda: expectation_N([[0.1, 0.2], [0.3]]), f"{theta} ['list']"),
    ]


#: the scalars that ``scenario.real_number`` rejects
BAD_SCALARS = {
    "bool": True,
    "np.bool": np.True_,
    "str": "1",
    "None": None,
    "complex": 1j,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "0d-array": np.array(0.5),
    "array": np.array([0.5]),
    "list": [0.5],
    "huge-int": 10**400,
}
POINT = {"chsh": -2.0, "kcbs": -2.9, "branch": "plus", "theta": 0.0, "phi": 0.5}
#: each scalar entry point: (the name its message gives, a call on one value)
SCALAR_CALLS = {
    "coefficient": ("a coefficient", lambda x: classical.LinearExpression(((x, ("A1", "A2")),))),
    # a NaN would read as no violation of either bound, and a bool as 0 or 1
    "report-kcbs": ("kcbs", lambda x: MonogamyReport(x, {1: -1.0})),
    "report-chsh": ("chsh_by_pivot[5]", lambda x: MonogamyReport(-1.0, {1: -1.0, 5: x})),
    **{
        f"point-{field}": (field, lambda x, field=field: RegionPoint(**dict(POINT, **{field: x})))
        for field in ("chsh", "kcbs", "theta", "phi")
    },
    "boundary_theta": ("phi", boundary_theta),
    "boundary_state": ("phi", boundary_state),
}
#: the indices that ``scenario.require_integer`` rejects; ``10**400`` is an
#: integer, which ``alice`` takes mod 5
BAD_INDICES = {
    **{bad: BAD_SCALARS[bad] for bad in ("bool", "np.bool", "str", "None", "complex", "nan", "inf")},
    "0d-array": np.array(1),
    "array": np.array([1]),
    "float": 1.0,
    "np.float": np.float64(1.0),
    "fraction": 2.5,
}
INDEX_CALLS = {
    "alice": ("Alice index", alice),
    "bob": ("Bob index", bob),
    "bob_observable": ("Bob index", bob_observable),
}


def scalar_rows():
    return [
        pytest.param(
            lambda call=call, value=value: call(value),
            f"{what} must be a finite real number, got {value!r}",
            id=f"{point}-{bad}",
        )
        for point, (what, call) in SCALAR_CALLS.items()
        for bad, value in BAD_SCALARS.items()
    ]


def index_rows():
    return [
        pytest.param(
            lambda call=call, value=value: call(value),
            f"{what} must be an integer, got {value!r}",
            id=f"{point}-{bad}",
        )
        for point, (what, call) in INDEX_CALLS.items()
        for bad, value in BAD_INDICES.items()
    ]


REJECTIONS = [
    *table_rows(),
    *nd_violations_rows(),
    *joint_rows(),
    *stack_rows(),
    *state_rows(),
    *operator_rows(),
    *angle_rows(),
    *scalar_rows(),
    *index_rows(),
]


@pytest.mark.parametrize("call, message", REJECTIONS)
def test_entry_rule_rejects(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning either
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


@pytest.mark.parametrize(
    "call",
    [Behavior, nd_violations, lambda rows: JointDistribution(("X",), rows), require_normalized],
    ids=["tables", "nd_violations", "joints", "states"],
)
def test_rejected_iterators_are_not_consumed(call):
    # an entry-type pass used to consume them, and numpy then raised
    # TypeError reading the leftover as one object
    rows = [[0.5, 0.5]] * 3
    for make in (iter, lambda rows: (row for row in rows)):
        nest = make(rows)
        with pytest.raises(ValueError, match=r"entries must be (real )?numbers"):
            call(nest)
        assert list(nest) == rows


@pytest.mark.parametrize("dtype", [float, complex])
def test_nested_lists_get_the_bits_of_numpy(dtype):
    nest = [[0.1, 1, np.float32(0.3)], [np.int64(2**40), 1 / 3, np.float16(0.7)]]
    if dtype is complex:
        nest.append([0.5j, np.complex64(1 - 2j), 3])
    assert number_array(nest, dtype, "x").tobytes() == np.asarray(nest, dtype=dtype).tobytes()


@pytest.mark.parametrize(
    "value",
    [1, -0.0, 0.5, 5e-324, sys.float_info.max, pytest.param(2**1023, id="2**1023"), np.float64(0.5),
     np.float32(0.5), np.float16(0.5), np.longdouble(0.5), np.int64(-7), np.uint8(1)],
    ids=repr,
)
def test_real_number_takes_every_finite_real_scalar(value):
    number = real_number(value, "x")
    assert type(number) is float and number == float(value)


@pytest.mark.parametrize("point", SCALAR_CALLS)
def test_scalar_entry_points_take_python_and_numpy_numbers(point):
    _, call = SCALAR_CALLS[point]
    for value in (1, 0.5, np.float64(0.5), np.float32(0.5), np.float16(0.5), np.int64(1), np.uint8(1)):
        call(value)


def test_indices_take_python_and_numpy_integers():
    assert [alice(6), alice(np.int64(-1)), bob(np.uint8(2))] == ["A1", "A4", "B2"]
    assert np.array_equal(bob_observable(np.int64(2)), bob_observable(2))
    for call in (bob, bob_observable):
        with pytest.raises(ValueError, match="^Bob has measurements 1 and 2, got 3$"):
            call(3)
