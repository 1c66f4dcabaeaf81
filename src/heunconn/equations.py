"""Equation families, parameter validation, and coefficient recurrences.

Four families of second-order equations in normal form ``psi'' + P(z) psi = 0``
with regular singular points at 0 and 1 are supported:

* ``HYP``  — hypergeometric class: singularities 0, 1, infinity;
* ``RCHE`` — one-parameter deformation with coupling ``lam`` entering the
  potential linearly (third singularity pushed to infinity, rank 1/2);
* ``CHE``  — deformation with an irregular point of rank 1 at infinity
  (coupling enters quadratically, plus a linear ``theta_star`` term);
* ``HE``   — four regular singular points 0, 1, t, infinity with t = 1/lam.

Local exponents at 0 are ``1/2 ± theta0`` and at 1 are ``1/2 ± theta1``.  The
series coefficients ``u_k`` of the auxiliary function attached to the
normalized solution at 0 satisfy a three-term recurrence in ``k`` whose
``lam``-linear part defines the coefficient pair ``(alpha_k, beta_k)``; the
ratio against the ``lam = 0`` solution gives the rescaled sequence ``a_k``
with ``a_{k+1} - a_k = -lam (alpha_k a_k + beta_k a_{k-1})``.

All arithmetic here is type-generic: specs built from binary64 scalars run in
``complex``, specs coerced with :func:`heunconn.precision.spec_to_precision`
run in mpmath arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .errors import (
    AccessoryResonance,
    DomainError,
    FamilyFieldError,
    NonConvergence,
    ResonantExponents,
)

__all__ = [
    "FAMILIES",
    "EquationSpec",
    "hyp_spec",
    "rche_spec",
    "che_spec",
    "he_spec",
    "validate",
    "alpha_beta",
    "canonical_recurrence_step",
    "u_lambda0_sequence",
    "rescaled_a",
]

FAMILIES = ("HYP", "RCHE", "CHE", "HE")

_HALF_INT_TOL = 1e-10
_RESONANCE_TOL = 1e-12

# Fields that must be present (not None) / absent (None) per family, besides
# theta0 and theta1 which are always required.
_REQUIRED = {
    "HYP": ("theta_inf_hyp",),
    "RCHE": ("omega",),
    "CHE": ("omega", "theta_star"),
    "HE": ("omega", "theta_t", "theta_inf"),
}
_OPTIONAL_NAMES = ("omega", "theta_t", "theta_inf", "theta_star", "theta_inf_hyp")


@dataclass(frozen=True)
class EquationSpec:
    """Immutable parameter set identifying one equation of one family.

    ``lam`` is the coupling (0 for HYP, the reciprocal of the third regular
    singular point location for HE).  Unused parameters of a family must stay
    ``None``.
    """

    family: str
    theta0: Any
    theta1: Any
    lam: Any = 0.0
    omega: Optional[Any] = None
    theta_t: Optional[Any] = None
    theta_inf: Optional[Any] = None
    theta_star: Optional[Any] = None
    theta_inf_hyp: Optional[Any] = None


def hyp_spec(theta0: Any, theta1: Any, theta_inf_hyp: Any) -> EquationSpec:
    """Hypergeometric-class spec (no coupling)."""
    return validate(
        EquationSpec(family="HYP", theta0=theta0, theta1=theta1, theta_inf_hyp=theta_inf_hyp)
    )


def rche_spec(theta0: Any, theta1: Any, omega: Any, lam: Any) -> EquationSpec:
    """Reduced-confluent spec."""
    return validate(
        EquationSpec(family="RCHE", theta0=theta0, theta1=theta1, omega=omega, lam=lam)
    )


def che_spec(theta0: Any, theta1: Any, omega: Any, theta_star: Any, lam: Any) -> EquationSpec:
    """Confluent spec."""
    return validate(
        EquationSpec(
            family="CHE",
            theta0=theta0,
            theta1=theta1,
            omega=omega,
            theta_star=theta_star,
            lam=lam,
        )
    )


def he_spec(
    theta0: Any,
    theta1: Any,
    theta_t: Any,
    theta_inf: Any,
    omega: Any,
    lam: Any,
) -> EquationSpec:
    """Four-regular-point spec with third finite singularity at t = 1/lam."""
    return validate(
        EquationSpec(
            family="HE",
            theta0=theta0,
            theta1=theta1,
            omega=omega,
            theta_t=theta_t,
            theta_inf=theta_inf,
            lam=lam,
        )
    )


def _near_half_integer(theta: Any) -> bool:
    two = 2 * theta
    try:
        n = round(complex(two).real)
    except (TypeError, OverflowError):
        return False
    return abs(two - n) < _HALF_INT_TOL


def validate(spec: EquationSpec) -> EquationSpec:
    """Check family membership, field completeness, and exponent conditions.

    Raises :class:`FamilyFieldError` for unknown families or field misuse,
    :class:`ResonantExponents` when ``2 theta0`` or ``2 theta1`` is within
    1e-10 of an integer (integer exponent differences at 0 or 1), and
    :class:`DomainError` when an HE coupling has ``|lam| >= 1`` (the third
    singularity would enter the closed unit disc).  Returns the spec unchanged
    so calls can be chained.
    """
    if spec.family not in FAMILIES:
        raise FamilyFieldError(f"unknown family {spec.family!r}; expected one of {FAMILIES}")
    required = _REQUIRED[spec.family]
    for name in required:
        if getattr(spec, name) is None:
            raise FamilyFieldError(f"family {spec.family} requires field {name!r}")
    for name in _OPTIONAL_NAMES:
        if name not in required and getattr(spec, name) is not None:
            raise FamilyFieldError(f"family {spec.family} must not set field {name!r}")
    if spec.family == "HYP":
        if spec.lam != 0:
            raise FamilyFieldError("family HYP must have lam = 0")
    for label, theta in (("theta0", spec.theta0), ("theta1", spec.theta1)):
        if _near_half_integer(theta):
            raise ResonantExponents(
                f"2*{label} = {2 * theta!r} is within {_HALF_INT_TOL} of an integer"
            )
    if spec.family == "HE" and abs(spec.lam) >= 1.0:
        raise DomainError(f"HE coupling must satisfy |lam| < 1, got |lam| = {abs(spec.lam)}")
    return spec


def _q_pair(spec: EquationSpec, k: Any) -> tuple[Any, Any]:
    """Denominators Q_k = (k + 1/2 - theta0 + theta1)^2 - x^2 and the shifted
    Q'_k = (k - 1/2 - theta0 + theta1)^2 - x^2, with x = omega (theta_inf_hyp
    for HYP)."""
    x = spec.theta_inf_hyp if spec.family == "HYP" else spec.omega
    base = k - spec.theta0 + spec.theta1
    q = (base + 0.5) ** 2 - x * x
    qp = (base - 0.5) ** 2 - x * x
    return q, qp


def alpha_beta(spec: EquationSpec, k: int) -> tuple[Any, Any]:
    """Coefficient pair of the rescaled recurrence at index ``k >= 0``.

    HYP has no coupling, so both entries are 0.  A denominator within 1e-12 of
    zero raises :class:`AccessoryResonance`; ``beta_0 = 0`` for every family.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"recurrence index must be a nonnegative integer, got {k!r}")
    if spec.family == "HYP":
        return 0.0, 0.0
    q, qp = _q_pair(spec, k)
    if abs(q) < _RESONANCE_TOL or (k > 0 and abs(qp) < _RESONANCE_TOL):
        raise AccessoryResonance(
            f"recurrence denominator vanishes at k = {k} (Q = {q!r}, Q' = {qp!r})"
        )
    t0, t1 = spec.theta0, spec.theta1
    if spec.family == "RCHE":
        alpha = 0.0
        beta = k * (k - 2 * t0) / (q * qp) if k > 0 else 0.0
        return alpha, beta
    if spec.family == "CHE":
        ts = spec.theta_star
        alpha = (k + 0.5 - t0 - ts) / q
        beta = -(k * (k - 2 * t0) * (k - t0 + t1 - ts)) / (q * qp) if k > 0 else 0.0
        return alpha, beta
    # HE
    tt, ti, om = spec.theta_t, spec.theta_inf, spec.omega
    alpha = -(((k + 0.5 - t0 - tt) ** 2 - t0 * t0 - ti * ti + om * om)) / q
    beta = (
        k * (k - 2 * t0) * ((k - t0 + t1 - tt) ** 2 - ti * ti) / (q * qp) if k > 0 else 0.0
    )
    return alpha, beta


def canonical_recurrence_step(spec: EquationSpec, k: int, u_k: Any, u_km1: Any) -> Any:
    """One forward step of the three-term recurrence for the series
    coefficients ``u_k``: given ``u_k`` and ``u_{k-1}``, return ``u_{k+1}``.

    The left-hand factor is ``(k+1)(k+1-2 theta0)``; its near-vanishing
    (``2 theta0`` within 1e-10 of a positive integer) raises
    :class:`ResonantExponents`, and a vanishing ``Q_k`` raises
    :class:`AccessoryResonance`.  Seed with ``u_0 = 1, u_{-1} = 0`` at k = 0.
    """
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"recurrence index must be a nonnegative integer, got {k!r}")
    t0, t1, lam = spec.theta0, spec.theta1, spec.lam
    lead = (k + 1) * (k + 1 - 2 * t0)
    if abs(k + 1 - 2 * t0) < _HALF_INT_TOL:
        raise ResonantExponents(f"leading factor k+1-2*theta0 vanishes at k = {k}")
    q, _ = _q_pair(spec, k)
    if spec.family == "HYP":
        return q * u_k / lead
    if abs(q) < _RESONANCE_TOL:
        raise AccessoryResonance(f"recurrence denominator Q_{k} vanishes")
    if spec.family == "RCHE":
        rhs = q * u_k - lam * u_km1
    elif spec.family == "CHE":
        ts = spec.theta_star
        rhs = (q - lam * (k + 0.5 - t0 - ts)) * u_k + lam * (k - t0 + t1 - ts) * u_km1
    else:  # HE
        tt, ti, om = spec.theta_t, spec.theta_inf, spec.omega
        r_k = (k + 0.5 - t0 - tt) ** 2 - t0 * t0 - ti * ti + om * om
        rhs = (q + lam * r_k) * u_k - lam * (((k - t0 + t1 - tt) ** 2) - ti * ti) * u_km1
    return rhs / lead


def recurrence_quadratics(spec: EquationSpec, k_max: int) -> tuple[tuple, tuple, tuple]:
    """Coefficients ``(c0, c1, c2)`` of ``c0 + c1 k + c2 k^2`` for ``lead_k``,
    ``A_k`` and ``B_k`` in the recurrence ``lead_k u_{k+1} = A_k u_k - B_k u_{k-1}``
    of :func:`canonical_recurrence_step`, in that order.

    First raises the error :func:`canonical_recurrence_step` would raise at the
    first gated step ``k < k_max``: a gate fires only within 1e-6 of a root of
    ``k+1-2 theta0`` or ``Q_k``, so the steps at the rounded roots are checked.
    """
    t0, t1, lam = spec.theta0, spec.theta1, spec.lam
    x = spec.theta_inf_hyp if spec.family == "HYP" else spec.omega
    a = 0.5 - t0 + t1
    roots = [2 * t0 - 1] + ([] if spec.family == "HYP" else [x - a, -x - a])
    for k in sorted({int(round(complex(r).real)) for r in roots}):
        if 0 <= k < k_max:
            canonical_recurrence_step(spec, k, 0, 0)
    lead = (1 - 2 * t0, 2 - 2 * t0, 1)
    q = (a * a - x * x, 2 * a, 1)
    if spec.family == "HYP":
        return lead, q, (0, 0, 0)
    if spec.family == "RCHE":
        return lead, q, (lam, 0, 0)
    if spec.family == "CHE":
        ts = spec.theta_star
        a_che = (q[0] - lam * (0.5 - t0 - ts), q[1] - lam, 1)
        return lead, a_che, (-lam * (t1 - t0 - ts), -lam, 0)
    tt, ti, om = spec.theta_t, spec.theta_inf, spec.omega
    b, c = 0.5 - t0 - tt, t1 - t0 - tt
    r = (b * b - t0 * t0 - ti * ti + om * om, 2 * b, 1)
    return (
        lead,
        tuple(qi + lam * ri for qi, ri in zip(q, r)),
        (lam * (c * c - ti * ti), 2 * lam * c, lam),
    )


def u_lambda0_sequence(spec: EquationSpec, K: int) -> list:
    """Coefficients of the zero-coupling solution,
    ``u0_k = (a+x)_k (a-x)_k / (k! (1-2 theta0)_k)`` with
    ``a = 1/2 - theta0 + theta1`` and ``x`` the family's third exponent
    parameter, built iteratively as ``u0_{k+1} = Q_k u0_k / ((k+1)(k+1-2t0))``.
    """
    if K < 0:
        raise DomainError("K must be nonnegative")
    t0 = spec.theta0
    out = [1.0 + 0 * t0]
    for k in range(K):
        q, _ = _q_pair(spec, k)
        lead = (k + 1) * (k + 1 - 2 * t0)
        if abs(k + 1 - 2 * t0) < _HALF_INT_TOL:
            raise ResonantExponents(f"leading factor k+1-2*theta0 vanishes at k = {k}")
        out.append(q * out[-1] / lead)
    return out


def rescaled_a(spec: EquationSpec, K: int, check_tol: float = 1e-10) -> list:
    """Sequence ``a_k = u_k / u0_k`` for ``k = 0..K``.

    Computed from the canonical recurrence and the zero-coupling sequence, and
    self-checked against the rescaled recurrence
    ``a_{k+1} - a_k = -lam (alpha_k a_k + beta_k a_{k-1})``; a relative
    residual above ``check_tol`` raises :class:`NonConvergence` (numerical
    breakdown of the ratio representation).
    """
    validate(spec)
    if K < 1:
        raise DomainError("K must be at least 1")
    u = [1.0 + 0 * spec.theta0, canonical_recurrence_step(spec, 0, 1.0, 0.0)]
    for k in range(1, K):
        u.append(canonical_recurrence_step(spec, k, u[k], u[k - 1]))
    u0 = u_lambda0_sequence(spec, K)
    a = [uk / u0k for uk, u0k in zip(u, u0)]
    lam = spec.lam
    worst = 0.0
    for k in range(K):
        al, be = alpha_beta(spec, k)
        a_km1 = a[k - 1] if k >= 1 else 0.0
        resid = a[k + 1] - a[k] + lam * (al * a[k] + be * a_km1)
        scale = max(1.0, abs(a[k + 1]))
        worst = max(worst, abs(resid) / scale)
    if worst > check_tol:
        raise NonConvergence(
            f"rescaled recurrence self-check failed: residual {worst:.3e} > {check_tol:.1e}"
        )
    return a
