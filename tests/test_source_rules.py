"""Two rules of the package source, read from its tokens: a float written in
e-notation is a named module constant, and a running sum is
``scenario.table_sum``'s alone."""

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
