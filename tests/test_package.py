"""The package namespace loads submodules on first use, and each command only what it runs."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ndmonogamy

SRC = Path(__file__).resolve().parents[1] / "src"
PROBE = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("ndmonogamy"))))
"""


def loaded_after(code: str, tmp_path) -> set[str]:
    """numpy and the ndmonogamy modules that ``code`` loads in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code + PROBE],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


def test_import_loads_no_submodule_and_not_numpy(tmp_path):
    assert loaded_after("import ndmonogamy", tmp_path) == {"ndmonogamy"}


def test_born_path_loads_four_modules(tmp_path):
    code = "from ndmonogamy import quantum\nfrom ndmonogamy.scenario import Behavior"
    assert loaded_after(code, tmp_path) == {
        "numpy",
        "ndmonogamy",
        "ndmonogamy.errors",
        "ndmonogamy.scenario",
        "ndmonogamy.classical",
        "ndmonogamy.quantum",
    }


def test_bounds_loads_neither_region_nor_verify(tmp_path):
    loaded = loaded_after("from ndmonogamy import cli\nassert cli.main(['bounds']) == 0", tmp_path)
    assert "ndmonogamy.nodisturbance" in loaded
    assert not loaded & {"ndmonogamy.region", "ndmonogamy.verify"}


def test_region_loads_neither_nodisturbance_nor_verify(tmp_path):
    code = "from ndmonogamy import cli\nassert cli.main(['region', '--samples', '7', '--out', 'r7']) == 0"
    loaded = loaded_after(code, tmp_path)
    assert "ndmonogamy.region" in loaded
    assert not loaded & {"ndmonogamy.nodisturbance", "ndmonogamy.verify"}


@pytest.mark.parametrize("name", ndmonogamy.__all__)
def test_exported_name_is_its_submodule_object(name):
    value = getattr(ndmonogamy, name)
    assert value.__module__.startswith("ndmonogamy.")
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert name in dir(ndmonogamy)


def test_submodule_attribute_resolves():
    assert ndmonogamy.region is importlib.import_module("ndmonogamy.region")
    assert "region" in dir(ndmonogamy)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ndmonogamy import *", namespace)
    assert set(ndmonogamy.__all__) <= set(namespace)
    assert namespace["Behavior"] is ndmonogamy.scenario.Behavior


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        ndmonogamy.no_such_name


def test_resolved_names_are_not_stored_in_the_namespace():
    for name in ndmonogamy.__all__:
        getattr(ndmonogamy, name)
    assert not set(vars(ndmonogamy)) & set(ndmonogamy.__all__)
