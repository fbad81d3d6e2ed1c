"""Four rules of the package source, read from its tokens: a float written
in e-notation is a named module constant, a running sum is
``scenario.table_sum``'s alone, an object array, the entry-type pass,
is ``scenario.number_array``'s alone, and a real scalar is checked by
``scenario.real_number`` alone."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ndmonogamy").glob("*.py"))
E_NOTATION = re.compile(r"[0-9_.]+[eE][-+]?[0-9_]+[jJ]?")


def located_tokens(path):
    """Each token of ``path`` with the module-level statement that holds it,
    or ``None`` (a decorator line, a comment between statements)."""
    text = path.read_text()
    body = ast.parse(text).body
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        line = token.start[0]
        yield token, next((s for s in body if s.lineno <= line <= s.end_lineno), None)


def defines_constants(statement) -> bool:
    """Whether ``statement`` binds upper-case names only, as a constant does."""
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return False
    return all(isinstance(t, ast.Name) and t.id.lstrip("_").isupper() for t in targets)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_e_notation_floats_are_module_constants(path):
    # a tolerance with one value in use is a module constant; _csv_cells
    # writes the .17g fixed-notation range 1e-4 <= |x| < 1e16
    stray = [
        f"{path.name}:{token.start[0]}: {token.string}"
        for token, statement in located_tokens(path)
        if token.type == tokenize.NUMBER
        and E_NOTATION.fullmatch(token.string)
        and not defines_constants(statement)
        and not (getattr(statement, "name", None) == "_csv_cells" and token.string in ("1e-4", "1e16"))
    ]
    assert stray == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_running_sums_are_table_sum_alone(path):
    # table_sum is the one in-order sum of every correlator and marginal
    tokens = list(located_tokens(path))
    stray = [
        f"{path.name}:{token.start[0]}: {token.string}"
        for k, (token, statement) in enumerate(tokens)
        if token.type == tokenize.NAME
        and (
            token.string == "cumsum"
            or token.string == "accumulate"
            and [t.string for t, _ in tokens[k - 2 : k]] == ["add", "."]
        )
        and not (path.name == "scenario.py" and getattr(statement, "name", None) == "table_sum")
    ]
    assert stray == []


def names_object_dtype(node) -> bool:
    """Whether ``node`` spells numpy's object dtype: ``object``, ``np.object_``,
    ``"O"`` or ``"object"``."""
    return (
        isinstance(node, ast.Name) and node.id == "object"
        or isinstance(node, ast.Attribute) and node.attr == "object_"
        or isinstance(node, ast.Constant) and node.value in ("O", "object")
    )


def object_dtype_calls(statement):
    """Each call within ``statement`` that asks for an object array: its
    ``dtype=`` keyword, or the first argument of ``astype``, names the
    object dtype."""
    for node in ast.walk(statement):
        if isinstance(node, ast.Call) and (
            any(k.arg == "dtype" and names_object_dtype(k.value) for k in node.keywords)
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and node.args
            and names_object_dtype(node.args[0])
        ):
            yield node


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_object_arrays_are_number_array_alone(path):
    # number_array is the one entry rule; a second pass over entry types
    # would build its own object array
    stray = [
        f"{path.name}:{call.lineno}: {ast.unparse(call)}"
        for statement in ast.parse(path.read_text()).body
        if not (path.name == "scenario.py" and getattr(statement, "name", None) == "number_array")
        for call in object_dtype_calls(statement)
    ]
    assert stray == []



def scalar_check(node) -> str | None:
    """``real_number_type`` or ``math.isfinite`` where ``node`` names or
    imports it, else ``None``."""
    if isinstance(node, ast.alias):
        name = node.name
    elif isinstance(node, (ast.Name, ast.Attribute)):
        name = ast.unparse(node)
    else:
        return None
    if name.rpartition(".")[2] == "real_number_type":
        return "real_number_type"
    return "math.isfinite" if name in ("math.isfinite", "isfinite") else None


#: where each scalar check may appear: a file, or a file's top-level definition
SCALAR_CHECK_PLACES = {
    "real_number_type": {"scenario.py"},
    # real_number's float, and the --perturb-chsh float that argparse parsed
    "math.isfinite": {"scenario.py:real_number", "cli.py:main"},
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_real_scalars_are_real_number_alone(path):
    # real_number is the one rule of a real scalar input
    stray = [
        f"{path.name}:{node.lineno}: {check}"
        for statement in ast.parse(path.read_text()).body
        for node in ast.walk(statement)
        if (check := scalar_check(node))
        and not {path.name, f"{path.name}:{getattr(statement, 'name', None)}"} & SCALAR_CHECK_PLACES[check]
    ]
    assert stray == []
