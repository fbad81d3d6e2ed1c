"""Fault table of the ``verify`` checks: every check that ``verify_all``
reports, in its order, with the faults that must each break it.  A check
passes without its fault and fails under it."""

import importlib.util
import inspect
import math
import re
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from ndmonogamy import classical, nodisturbance, quantum, region, verify
from ndmonogamy.nodisturbance import JointDistribution
from ndmonogamy.scenario import Behavior

SHIFT = 1e-6
SEED = 1
SAMPLES = 2000


def wrap(module, attr, change):
    """The fault that rebinds ``module.attr`` to ``change`` of its original."""
    return lambda monkeypatch: monkeypatch.setattr(module, attr, change(getattr(module, attr)))


def raised_dual_entry(certificates):
    dual, primal = certificates["kcbs+chsh"]
    k = next(iter(dual))
    return {**certificates, "kcbs+chsh": ({**dual, k: dual[k] + 1}, primal)}


def moved_in_b1(joint):
    # entries 4 and 5 differ only in B1: every B1 correlator of row 17 moves by 1e-6
    probs = joint.probs.copy()
    probs[17, 4] -= SHIFT / 2
    probs[17, 5] += SHIFT / 2
    return JointDistribution(joint.variables, probs)


def rotated(angle):
    """``region_basis`` with b and c rotated by ``angle`` within their plane.

    That couples them through M (1e-6) or hands the minimising axis to c
    (pi/2); the norm stays exact.
    """

    def rotate(basis):
        frame, cos, sin = basis(), math.cos(angle), math.sin(angle)
        alpha = cos * frame.alpha - sin * frame.beta
        beta = cos * frame.beta + sin * frame.alpha
        b = cos * frame.b + sin * frame.c
        c = -sin * frame.b + cos * frame.c
        assert np.allclose(b, [alpha, beta, 0.0]) and np.allclose(c, [-beta, alpha, 0.0])
        return lambda: region.RegionBasis(frame.a, b, c, alpha, beta)

    return rotate


#: 1e-6 moved between the first two outcomes of context A1,A2,B1, which differ in B1 only
MOVED_ENTRY = np.zeros((10, 8))
MOVED_ENTRY[0, :2] = -SHIFT, SHIFT
#: one Hermitian entry between the two invariant blocks of the Bell operator
LEAK = np.zeros((6, 6))
LEAK[0, 1] = LEAK[1, 0] = SHIFT
# The sweeps fail only at a bound far above their sample's minimum, until
# they reach the bound they test (ROADMAP item 1).
SWEEP_BOUND = -1.5

#: check name, in ``verify_all``'s order -> (the check alone, *its faults)
FAULTS = {
    "classical-bounds": (
        verify.check_classical_bounds,  # kcbs, really -3
        wrap(classical, "BOUNDS", lambda rows: (rows[0]._replace(classical=-4.0), *rows[1:])),
    ),
    "nd-lp-bounds": (
        verify.check_nd_lp_bounds,
        wrap(nodisturbance, "ND_CERTIFICATES", raised_dual_entry),
    ),
    "fine-marginal-recovery": (
        partial(verify.check_fine_recovery, SEED),
        wrap(nodisturbance, "fine_join_c1", lambda join: lambda p, i: moved_in_b1(join(p, i))),
    ),
    "nd-monogamy-sweep": (
        partial(verify.check_nd_monogamy, SEED),
        wrap(classical, "MONOGAMY_BOUND", lambda _: SWEEP_BOUND),
    ),
    "kcbs-spectrum": (
        verify.check_kcbs_spectrum,
        wrap(classical, "KCBS_QUANTUM_MIN", lambda low: low + SHIFT),
    ),
    "chsh-block-structure": (
        verify.check_chsh_block_structure,
        wrap(quantum, "chsh_operator", lambda build: lambda: build() + LEAK),
    ),
    "bell-block-eigensystem": (
        verify.check_bell_block_eigensystem,
        wrap(quantum, "eigensystem", lambda solve: lambda m: (solve(m)[0] + SHIFT, solve(m)[1])),
    ),
    "behavior-operator-consistency": (
        partial(verify.check_behavior_operator_consistency, SEED),
        wrap(quantum, "behavior_from_state", lambda born: lambda s: Behavior(np.roll(born(s).probs, 1, 1))),
        wrap(quantum, "behavior_from_state", lambda born: lambda s: Behavior(born(s).probs + MOVED_ENTRY)),
    ),
    "region-constants": (
        verify.check_region_constants,
        *(wrap(region, "region_basis", rotated(angle)) for angle in (SHIFT, -SHIFT, math.pi / 2)),
    ),
    "closed-form-agreement": (
        verify.check_closed_form_agreement,
        wrap(region, "gammas", lambda gammas: lambda: gammas()._replace(g4=gammas().g4 + SHIFT)),
    ),
    "boundary-stationarity": (
        verify.check_boundary_stationarity,
        wrap(region, "boundary_theta", lambda solve: lambda phi: solve(phi) + SHIFT),
    ),
    "touching-point": (
        verify.check_touching_point,
        wrap(region, "expectation_M", lambda m: lambda t, p: m(t, p) * (1 + SHIFT)),
    ),
    "boundary-states": (
        verify.check_boundary_states,
        wrap(region, "boundary_coefficients", lambda fg: lambda p: (fg(p)[0] * (1 + SHIFT), fg(p)[1])),
    ),
    "region-membership": (
        partial(verify.check_region_membership, SAMPLES, SEED),
        wrap(region, "MONOGAMY_BOUND", lambda _: SWEEP_BOUND),
    ),
}

#: (check name, its detail under its first fault, whether that equals its detail without it)
DETAILS = [
    ("fine-marginal-recovery", r"^200 behaviors x 5 pivots, worst marginal gap 1e-06$", False),
    ("nd-monogamy-sweep", r"^min kcbs\+chsh over sample -2\.0158", True),
    ("chsh-block-structure", r"^cross-block entries reach 1\.000e-06 \(tolerance 1\.0e-10\)$", False),
    ("boundary-stationarity", r"^100 phi samples, worst d<M>/dphi 3\.98e-06$", False),
    ("region-membership", r"^2000 states, min sum -4\.372", True),
]


@pytest.mark.parametrize(
    "name,k",
    [
        pytest.param(name, k, id=name if len(row) == 2 else f"{name}-{k}")
        for name, row in FAULTS.items()
        for k in range(len(row) - 1)
    ],
)
def test_check_fails_under_its_fault(name, k, monkeypatch):
    check, *faults = FAULTS[name]
    clean = check()
    assert clean.name == name and clean.passed, clean.detail
    faults[k](monkeypatch)
    broken = check()
    assert broken.name == name and not broken.passed, broken.detail


@pytest.mark.parametrize("name,detail,unchanged", DETAILS, ids=[row[0] for row in DETAILS])
def test_fault_reads_in_the_detail(name, detail, unchanged, monkeypatch):
    check, inject, *_ = FAULTS[name]
    clean = check().detail
    inject(monkeypatch)
    broken = check().detail
    assert re.match(detail, broken), broken
    assert (broken == clean) is unchanged


def test_faults_name_every_check_in_order():
    assert list(FAULTS) == [r.name for r in verify.verify_all(SAMPLES, SEED)]


def test_benchmark_harness_names_the_checks_of_verify_all(monkeypatch):
    # the tracer times each check through its function name; a name it
    # lost would read 0 s, not fail
    harness = {}
    for name in ("tracer", "workloads"):
        path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"harness_{name}", path)
        harness[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, harness[name])  # for its dataclasses
        spec.loader.exec_module(harness[name])
    functions = [
        name
        for name, value in vars(verify).items()
        if name.startswith("check_") and inspect.getmodule(value) is verify
    ]
    assert list(harness["tracer"].VERIFY_CHECKS) == functions
    assert list(harness["tracer"].VERIFY_CHECKS.values()) == list(FAULTS)
    assert harness["workloads"].VERIFY_CHECK_COUNT == len(FAULTS) == 14
