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
"""

from .classical import (
    ClassicalBound,
    DeterministicAssignment,
    LinearExpression,
    behavior_from_assignment,
    c1_expression,
    c2_expression,
    chsh_expression,
    classical_bound,
    enumerate_assignments,
    kcbs_expression,
    monogamy_expression,
)
from .errors import (
    BlockStructureViolated,
    Infeasible,
    InvalidCertificate,
    NdMonogamyError,
    NotHermitian,
    NotNoDisturbance,
    NotNormalized,
    SingularParameter,
    SubsetNotMeasurable,
)
from .nodisturbance import (
    JointDistribution,
    MonogamyReport,
    NdOptimum,
    certified_nd_minimum,
    fine_join_c1,
    fine_join_c2,
    monogamy_certificate,
    nd_optimum,
    sample_behaviors,
)
from .quantum import (
    behavior_from_state,
    block_decompose,
    chsh_operator,
    eigensystem,
    kcbs_observables,
    kcbs_operator,
    kcbs_vectors,
)
from .region import (
    RegionPoint,
    boundary_state,
    boundary_theta,
    expectation_M,
    expectation_N,
    gammas,
    region_basis,
    region_membership_sweep,
    sample_boundary,
    touching_point,
)
from .scenario import (
    Behavior,
    Context,
    check_no_disturbance,
    chsh_value,
    correlator,
    kcbs_value,
)

__version__ = "0.1.0"

__all__ = [
    "Behavior",
    "BlockStructureViolated",
    "ClassicalBound",
    "Context",
    "DeterministicAssignment",
    "Infeasible",
    "InvalidCertificate",
    "JointDistribution",
    "LinearExpression",
    "MonogamyReport",
    "NdMonogamyError",
    "NdOptimum",
    "NotHermitian",
    "NotNoDisturbance",
    "NotNormalized",
    "RegionPoint",
    "SingularParameter",
    "SubsetNotMeasurable",
    "behavior_from_assignment",
    "behavior_from_state",
    "block_decompose",
    "boundary_state",
    "boundary_theta",
    "c1_expression",
    "c2_expression",
    "certified_nd_minimum",
    "check_no_disturbance",
    "chsh_expression",
    "chsh_operator",
    "chsh_value",
    "classical_bound",
    "correlator",
    "eigensystem",
    "enumerate_assignments",
    "expectation_M",
    "expectation_N",
    "fine_join_c1",
    "fine_join_c2",
    "gammas",
    "kcbs_expression",
    "kcbs_observables",
    "kcbs_operator",
    "kcbs_value",
    "kcbs_vectors",
    "monogamy_certificate",
    "monogamy_expression",
    "nd_optimum",
    "region_basis",
    "region_membership_sweep",
    "sample_behaviors",
    "sample_boundary",
    "touching_point",
]
