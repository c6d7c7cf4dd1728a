"""Exception hierarchy shared across the package.

The command line front end maps these onto process exit codes, so the
distinctions matter: configuration problems, infeasible mode rotations and
truncation aborts must stay separable all the way up the stack.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class InvalidModelError(EngineError):
    """Model data violates a structural invariant (normalization, domain, shape)."""


class ClassificationError(EngineError):
    """A generator kind was requested that the coupling structure does not admit."""


class RegularizationError(EngineError):
    """Base class for failures of the two-mode rotation into Lindblad form."""


class PositivityViolationError(RegularizationError):
    """Rotated damping rates came out negative; no completely positive form exists.

    Carries the offending rates in ``rates`` so callers can report both values.
    """

    def __init__(self, message: str, rates: tuple[float, float]):
        super().__init__(message)
        self.rates = rates


class SingularRotationError(RegularizationError):
    """The coupling ratio sits at a parametrization singularity (e.g. mu**2 == -1)."""


class UnsupportedRegularizationError(RegularizationError):
    """Closed-form regularization is only implemented for exactly two modes."""


class TruncationGuardError(EngineError):
    """Top Fock level acquired non-negligible population; results are untrustworthy.

    ``partial`` holds whatever result object the integrator had accumulated when
    the guard tripped, so front ends can still emit the valid prefix.
    """

    def __init__(self, message: str, time: float, population: float, partial=None):
        super().__init__(message)
        self.time = time
        self.population = population
        self.partial = partial


class StepUnderflowError(EngineError):
    """A row is too long for the propagator's step plan, or its norm bound is unusable.

    When it is raised while a history of kets is advanced
    (``dynamics.no_jump_history``), ``partial`` holds the rows advanced
    before the refused run of rows.
    """

    partial = None


class ConfigError(EngineError):
    """Run configuration is missing keys, has bad types or inconsistent values."""
