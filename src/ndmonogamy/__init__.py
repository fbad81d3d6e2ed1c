"""Monogamy of the pentagon (KCBS) and Bell (CHSH) witnesses at desk scale.

Library layout:

- :mod:`ndmonogamy.scenario` - the scenario's measurement and context
  tables, behaviors, correlators, the no-disturbance check.
- :mod:`ndmonogamy.classical` - deterministic assignments and exhaustive
  hidden-variable bounds.
- :mod:`ndmonogamy.nodisturbance` - joint-distribution constructions and
  monogamy certificates on (n, 10, 8) stacks of behavior tables, exact
  no-disturbance bound certificates, and the LP over the behavior
  polytope (``nd_optimum``, which needs scipy).
- :mod:`ndmonogamy.quantum` - qutrit-qubit operators, spectra, block
  structure, Born-rule behaviors.
- :mod:`ndmonogamy.region` - the quantum (chsh, kcbs) region, its
  boundary, touching point and boundary states.
- :mod:`ndmonogamy.cli` - the ``ndmonogamy`` command.

``import ndmonogamy`` loads no submodule.  A name of ``__all__`` or a
submodule name is imported on first access (PEP 562).  A name of
``__all__`` is looked up in its submodule on every access and never
stored here.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "classical": (
            "ClassicalBound",
            "DeterministicAssignment",
            "LinearExpression",
            "behavior_from_assignment",
            "c1_expression",
            "c2_expression",
            "chsh_expression",
            "classical_bound",
            "enumerate_assignments",
            "kcbs_expression",
            "monogamy_expression",
        ),
        "errors": (
            "BlockStructureViolated",
            "Infeasible",
            "InvalidCertificate",
            "NdMonogamyError",
            "NotHermitian",
            "NotNoDisturbance",
            "NotNormalized",
            "SingularParameter",
            "SubsetNotMeasurable",
        ),
        "nodisturbance": (
            "JointDistribution",
            "MonogamyReport",
            "NdOptimum",
            "certified_nd_minimum",
            "fine_join_c1",
            "fine_join_c2",
            "monogamy_certificate",
            "nd_optimum",
            "sample_behaviors",
        ),
        "quantum": (
            "behavior_from_state",
            "block_decompose",
            "chsh_operator",
            "eigensystem",
            "kcbs_observables",
            "kcbs_operator",
            "kcbs_vectors",
        ),
        "region": (
            "RegionPoint",
            "boundary_state",
            "boundary_theta",
            "expectation_M",
            "expectation_N",
            "gammas",
            "region_basis",
            "region_membership_sweep",
            "sample_boundary",
            "touching_point",
        ),
        "scenario": (
            "Behavior",
            "Context",
            "check_no_disturbance",
            "chsh_value",
            "correlator",
            "kcbs_value",
        ),
    }.items()
    for name in names
}

_SUBMODULES = frozenset({*_EXPORTS.values(), "cli", "verify"})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # No caching: perfbench/tracer.py rebinds wrapped functions in every loaded
    # ndmonogamy module, and a copy stored here would outlive its uninstall.
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
