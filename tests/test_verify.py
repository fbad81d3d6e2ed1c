"""Fault table of the ``verify`` checks: each row breaks one check with the
smallest named fault, and the check must fail under it and pass without it."""

import functools
import re

import numpy as np
import pytest

from ndmonogamy import classical, quantum, region, verify
from ndmonogamy.scenario import Behavior

SHIFT = 1e-6


def shift_kcbs_minimum(monkeypatch):
    monkeypatch.setattr(classical, "KCBS_QUANTUM_MIN", classical.KCBS_QUANTUM_MIN + SHIFT)


def shift_eigenvalues(monkeypatch):
    solve = quantum.eigensystem

    def shifted(matrix):
        values, vectors = solve(matrix)
        return values + SHIFT, vectors

    monkeypatch.setattr(quantum, "eigensystem", shifted)


def roll_born_tables(monkeypatch):
    born = quantum.behavior_from_state

    def rolled(state):
        return Behavior(np.roll(born(state).probs, 1, axis=1))

    monkeypatch.setattr(quantum, "behavior_from_state", rolled)


def scale_expectation_M(monkeypatch):
    closed_form = region.expectation_M
    monkeypatch.setattr(region, "expectation_M", lambda t, p: closed_form(t, p) * (1 + SHIFT))


def scale_boundary_f(monkeypatch):
    coefficients = region.boundary_coefficients

    def scaled(phi):
        f, g = coefficients(phi)
        return f * (1 + SHIFT), g

    monkeypatch.setattr(region, "boundary_coefficients", scaled)


def shift_boundary_theta(monkeypatch):
    solve = region.boundary_theta
    monkeypatch.setattr(region, "boundary_theta", lambda phi: solve(phi) + SHIFT)


def leak_chsh_blocks(monkeypatch):
    # one entry between the two invariant blocks, kept Hermitian
    build = quantum.chsh_operator

    def leaked():
        op = build()
        op[0, 1] += SHIFT
        op[1, 0] += SHIFT
        return op

    monkeypatch.setattr(quantum, "chsh_operator", leaked)


#: check name -> (the check alone, the fault that must break it)
FAULTS = {
    "kcbs-spectrum": (verify.check_kcbs_spectrum, shift_kcbs_minimum),
    "bell-block-eigensystem": (verify.check_bell_block_eigensystem, shift_eigenvalues),
    "behavior-operator-consistency": (
        functools.partial(verify.check_behavior_operator_consistency, 1),
        roll_born_tables,
    ),
    "touching-point": (verify.check_touching_point, scale_expectation_M),
    "boundary-states": (verify.check_boundary_states, scale_boundary_f),
    "boundary-stationarity": (verify.check_boundary_stationarity, shift_boundary_theta),
    "chsh-block-structure": (verify.check_chsh_block_structure, leak_chsh_blocks),
}


@pytest.mark.parametrize("name", FAULTS)
def test_check_fails_under_its_fault(name, monkeypatch):
    check, inject = FAULTS[name]
    clean = check()
    assert clean.name == name and clean.passed, clean.detail
    inject(monkeypatch)
    broken = check()
    assert broken.name == name and not broken.passed, broken.detail


@pytest.mark.parametrize(
    "name,detail",
    [
        ("boundary-stationarity", r"^100 phi samples, worst d<M>/dphi 3\.98e-06$"),
        ("chsh-block-structure", r"^cross-block entries reach 1\.000e-06 \(tolerance 1\.0e-10\)$"),
    ],
)
def test_fault_reads_in_the_detail(name, detail, monkeypatch):
    check, inject = FAULTS[name]
    inject(monkeypatch)
    assert re.match(detail, check().detail)
