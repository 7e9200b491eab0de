"""Exception hierarchy for the veldt toolkit."""

from __future__ import annotations


class VeldtError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(VeldtError):
    """Invalid problem or run configuration, rejected before numeric work."""


class CapabilityError(VeldtError):
    """Requested combination (dimension, order, boundary condition, p) is unsupported."""


class EvaluationError(VeldtError):
    """An integrand callback produced a non-finite value."""

    def __init__(self, message, x=None, index=None):
        super().__init__(message)
        self.x = x
        self.index = index


class DiscretizationError(VeldtError):
    """Gram solve or basis construction failed."""


class DependencyError(VeldtError):
    """A required precomputed quantity is missing."""


class DegenerateKernelError(VeldtError):
    """Kernel dimension could not be resolved from the spectrum."""


class HypothesisViolationError(VeldtError):
    """A structural assumption (invertible second variation) fails numerically."""


class EigenvalueCollisionError(VeldtError):
    """A query value does not fit the pencil eigenvalues: none sits at it, or its offset reaches another group."""


class IndexJumpMismatchError(VeldtError):
    """Direct eigencounts disagree with the crossing-multiplicity formula."""

    def __init__(self, message, direct=None, formula=None):
        super().__init__(message)
        self.direct = direct
        self.formula = formula


class ReductionFailureError(VeldtError):
    """Newton iteration on the complement equation did not converge."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class IdentityViolationError(VeldtError):
    """A closed-form identity disagrees with its finite-difference cross-check."""


class DegenerateCriticalPointError(VeldtError):
    """A census found a degenerate critical point; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
