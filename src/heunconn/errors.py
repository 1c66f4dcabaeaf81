"""Exception hierarchy for the connection-coefficient library.

Every failure mode that callers are expected to handle has a named exception
class deriving from :class:`HeunConnError`, so downstream code (and the CLI)
can report *what* went wrong by class name alone.
"""

from __future__ import annotations

__all__ = [
    "HeunConnError",
    "PoleError",
    "OrderError",
    "ResonantExponents",
    "DomainError",
    "FamilyFieldError",
    "AccessoryResonance",
    "RadiusError",
    "TailError",
    "CFBreakdown",
    "NonConvergence",
    "DetCheckFailed",
    "MonodromyInconsistent",
    "JetDivByZero",
    "ParameterResonance",
    "SizeError",
    "ReflectionMismatch",
]


class HeunConnError(Exception):
    """Base class for all library-specific errors."""


class PoleError(HeunConnError):
    """Argument of a gamma-type function is within tolerance of a pole."""


class OrderError(HeunConnError):
    """Requested derivative order of polygamma exceeds the supported range."""


class ResonantExponents(HeunConnError):
    """Local exponents at a regular singular point differ by an integer."""


class DomainError(HeunConnError):
    """Input lies outside the validity domain of the requested operation."""


class FamilyFieldError(HeunConnError):
    """Equation-family parameter set is incomplete or has extraneous fields."""


class AccessoryResonance(HeunConnError):
    """A recurrence denominator (k + 1/2 - theta0 + theta1)^2 - omega^2 vanishes."""


class RadiusError(HeunConnError):
    """Evaluation point lies outside the disc of convergence of a local series."""


class TailError(HeunConnError):
    """Truncated series tail exceeds the requested tolerance."""


class CFBreakdown(HeunConnError):
    """A continued-fraction denominator passed within tolerance of zero."""


class NonConvergence(HeunConnError):
    """Iteration failed to stabilise within the allowed depth or size budget."""


class DetCheckFailed(HeunConnError):
    """Connection-matrix determinant deviates from -theta0/theta1 beyond tolerance."""


class MonodromyInconsistent(HeunConnError):
    """Connection-matrix entries violate the composite-monodromy product relations."""


class JetDivByZero(HeunConnError):
    """Division of truncated power series by a series with vanishing constant term."""


class ParameterResonance(HeunConnError):
    """Closed-form expression hits a resonant parameter value (vanishing denominator)."""


class SizeError(HeunConnError):
    """Combinatorial request exceeds the supported size range."""


class ReflectionMismatch(HeunConnError):
    """Reflected equation data fail their consistency identities."""
