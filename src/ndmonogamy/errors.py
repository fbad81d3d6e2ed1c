"""Semantic exception hierarchy for the toolkit."""


class NdMonogamyError(Exception):
    """Base class for all toolkit errors."""


class SubsetNotMeasurable(NdMonogamyError):
    """A correlator was requested for measurements that share no context."""


class NotNoDisturbance(NdMonogamyError):
    """A behavior violates the no-disturbance marginal constraints.

    Carries the violation records in ``.violations``; ``args`` is the message.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations is not None else []


class Infeasible(NdMonogamyError):
    """The no-disturbance linear program reported an empty feasible region.

    Cannot occur for the package's one scenario, whose polytope holds the
    uniform behavior; treated as an internal error.
    """


class InvalidCertificate(NdMonogamyError):
    """A committed no-disturbance certificate does not prove its bound."""


class NotHermitian(NdMonogamyError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class NotNormalized(NdMonogamyError):
    """A state vector is not normalized to unit length within tolerance."""


class BlockStructureViolated(NdMonogamyError):
    """Cross-block entries of the CHSH operator exceed tolerance."""


class SingularParameter(NdMonogamyError):
    """A closed-form formula was evaluated at a parameter where it diverges."""
