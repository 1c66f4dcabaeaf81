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

import cmath
from dataclasses import dataclass, fields
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
    "coefficient_table",
    "canonical_recurrence_step",
    "u_lambda0_sequence",
    "rescaled_a",
]

FAMILIES = ("HYP", "RCHE", "CHE", "HE")

_HALF_INT_TOL = 1e-10
_RESONANCE_TOL = 1e-12
_SELF_CHECK_TOL = 1e-10  # relative residual of the rescaled recurrence

# Fields that must be present (not None) / absent (None) per family, besides
# theta0 and theta1 which are always required.
_REQUIRED = {
    "HYP": ("theta_inf_hyp",),
    "RCHE": ("omega",),
    "CHE": ("omega", "theta_star"),
    "HE": ("omega", "theta_t", "theta_inf"),
}


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


_OPTIONAL_NAMES = tuple(f.name for f in fields(EquationSpec) if f.default is None)
# Per family, the optional fields that must stay None and the fields that
# must be finite numbers, in the order validate checks them.
_ABSENT = {
    family: tuple(name for name in _OPTIONAL_NAMES if name not in required)
    for family, required in _REQUIRED.items()
}
_NUMERIC = {family: ("theta0", "theta1", "lam", *required) for family, required in _REQUIRED.items()}


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
        n = round(two if isinstance(two, float) else complex(two).real)
    except (TypeError, OverflowError):
        return False
    return abs(two - n) < _HALF_INT_TOL


def validate(spec: EquationSpec) -> EquationSpec:
    """Check family membership, field completeness, and exponent conditions.

    Raises :class:`FamilyFieldError` for unknown families or field misuse,
    :class:`DomainError` for a parameter that is not a number or is nan or
    infinite,
    :class:`ResonantExponents` when ``2 theta0`` or ``2 theta1`` is within
    1e-10 of an integer (integer exponent differences at 0 or 1), and
    :class:`DomainError` when an HE coupling has ``|lam| >= 1`` (the third
    singularity would enter the closed unit disc).  Returns the spec unchanged
    so calls can be chained.
    """
    if spec.family not in FAMILIES:
        raise FamilyFieldError(f"unknown family {spec.family!r}; expected one of {FAMILIES}")
    for name in _REQUIRED[spec.family]:
        if getattr(spec, name) is None:
            raise FamilyFieldError(f"family {spec.family} requires field {name!r}")
    for name in _ABSENT[spec.family]:
        if getattr(spec, name) is not None:
            raise FamilyFieldError(f"family {spec.family} must not set field {name!r}")
    if spec.family == "HYP":
        if spec.lam != 0:
            raise FamilyFieldError("family HYP must have lam = 0")
    for name in _NUMERIC[spec.family]:
        value = getattr(spec, name)
        try:
            finite = cmath.isfinite(value)
        except TypeError:
            raise DomainError(f"{name} = {value!r} is not a number") from None
        if not finite:
            raise DomainError(f"{name} = {value!r} is not finite")
    for label, theta in (("theta0", spec.theta0), ("theta1", spec.theta1)):
        if _near_half_integer(theta):
            raise ResonantExponents(
                f"2*{label} = {2 * theta!r} is within {_HALF_INT_TOL} of an integer"
            )
    if spec.family == "HE" and abs(spec.lam) >= 1.0:
        raise DomainError(f"HE coupling must satisfy |lam| < 1, got |lam| = {abs(spec.lam)}")
    return spec


def _third_parameter(spec: EquationSpec) -> Any:
    """The third exponent parameter ``x``: ``theta_inf_hyp`` for HYP, else ``omega``."""
    return spec.theta_inf_hyp if spec.family == "HYP" else spec.omega


def _q_pair(spec: EquationSpec, k: Any) -> tuple[Any, Any]:
    """Denominators Q_k = (k + 1/2 - theta0 + theta1)^2 - x^2 and the shifted
    Q'_k = (k - 1/2 - theta0 + theta1)^2 - x^2, with x the third exponent
    parameter."""
    x = _third_parameter(spec)
    base = k - spec.theta0 + spec.theta1
    q = (base + 0.5) ** 2 - x * x
    qp = (base - 0.5) ** 2 - x * x
    return q, qp


def _check_resonance(spec: EquationSpec, start: int, stop: int) -> None:
    """Raise :class:`AccessoryResonance` at the first ``start <= k < stop``
    where ``Q_k``, or ``Q'_k`` for ``k > 0``, is within 1e-12 of zero.

    ``Q_k = (k + a - x)(k + a + x)`` with ``a = 1/2 - theta0 + theta1``, and
    ``Q'_k = Q_{k-1}``, so only the rounded roots ``k0 = round(Re(+-x - a))``
    and ``k0 + 1`` (for ``Q'``) can come that close."""
    x = _third_parameter(spec)
    a = 0.5 - spec.theta0 + spec.theta1
    candidates = set()
    for root in (x - a, -x - a):
        try:
            k0 = int(round(complex(root).real))
        except (ValueError, OverflowError):  # a non-finite parameter
            continue
        candidates.update((k0, k0 + 1))
    for k in sorted(candidates):
        if start <= k < stop:
            q, qp = _q_pair(spec, k)
            if abs(q) < _RESONANCE_TOL or (k > 0 and abs(qp) < _RESONANCE_TOL):
                raise AccessoryResonance(
                    f"recurrence denominator vanishes at k = {k} (Q = {q!r}, Q' = {qp!r})"
                )


def coefficient_table(spec: EquationSpec, start: int, stop: int) -> tuple[list, list]:
    """Coefficient pairs of the rescaled recurrence for ``start <= k < stop``,
    as the lists ``(alphas, betas)``.

    HYP has no coupling, so every entry is 0.  A denominator within 1e-12 of
    zero raises :class:`AccessoryResonance`; ``beta_0 = 0`` for every family.
    The spec is validated and its constants computed once per table.
    """
    validate(spec)
    for k in (start, stop):
        if not isinstance(k, int) or k < 0:
            raise DomainError(f"recurrence index must be a nonnegative integer, got {k!r}")
    rows = range(start, stop)
    if spec.family == "HYP":
        return [0.0] * len(rows), [0.0] * len(rows)
    _check_resonance(spec, start, stop)
    t0, t1 = spec.theta0, spec.theta1
    xx, two_t0 = spec.omega * spec.omega, 2 * t0
    alphas, betas = [], []
    if spec.family == "RCHE":
        for k in rows:
            base = k - t0 + t1
            q = (base + 0.5) ** 2 - xx
            qp = (base - 0.5) ** 2 - xx
            betas.append(k * (k - two_t0) / (q * qp) if k > 0 else 0.0)
        return [0.0] * len(rows), betas
    if spec.family == "CHE":
        ts = spec.theta_star
        for k in rows:
            base = k - t0 + t1
            q = (base + 0.5) ** 2 - xx
            qp = (base - 0.5) ** 2 - xx
            alphas.append((k + 0.5 - t0 - ts) / q)
            betas.append(-(k * (k - two_t0) * (base - ts)) / (q * qp) if k > 0 else 0.0)
        return alphas, betas
    # HE
    tt, ti = spec.theta_t, spec.theta_inf
    t0t0, titi = t0 * t0, ti * ti
    for k in rows:
        base = k - t0 + t1
        q = (base + 0.5) ** 2 - xx
        qp = (base - 0.5) ** 2 - xx
        alphas.append(-((k + 0.5 - t0 - tt) ** 2 - t0t0 - titi + xx) / q)
        betas.append(
            k * (k - two_t0) * ((base - tt) ** 2 - titi) / (q * qp) if k > 0 else 0.0
        )
    return alphas, betas


def alpha_beta(spec: EquationSpec, k: int) -> tuple[Any, Any]:
    """Coefficient pair of the rescaled recurrence at index ``k >= 0``: the
    one row ``k`` of :func:`coefficient_table`."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"recurrence index must be a nonnegative integer, got {k!r}")
    alphas, betas = coefficient_table(spec, k, k + 1)
    return alphas[0], betas[0]


def canonical_recurrence_step(spec: EquationSpec, k: int, u_k: Any, u_km1: Any) -> Any:
    """One forward step of the three-term recurrence for the series
    coefficients ``u_k``: given ``u_k`` and ``u_{k-1}``, return ``u_{k+1}``.

    The left-hand factor is ``(k+1)(k+1-2 theta0)``, away from zero once the
    spec is validated (:func:`validate`); a vanishing ``Q_k`` raises
    :class:`AccessoryResonance`.  Seed with ``u_0 = 1, u_{-1} = 0`` at k = 0.
    """
    validate(spec)
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"recurrence index must be a nonnegative integer, got {k!r}")
    t0, t1, lam = spec.theta0, spec.theta1, spec.lam
    lead = (k + 1) * (k + 1 - 2 * t0)
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


def _quadratic_parts(spec: EquationSpec) -> tuple[tuple, tuple, tuple, tuple]:
    """The coupling-free parts ``(lead, Q, R, P)`` of the recurrence
    ``lead_k u_{k+1} = A_k u_k - B_k u_{k-1}``, with ``A_k = Q_k + lam R_k``
    and ``B_k = lam P_k``, each as ``(c0, c1, c2)`` of ``c0 + c1 k + c2 k^2``."""
    t0, t1, x = spec.theta0, spec.theta1, _third_parameter(spec)
    a = 0.5 - t0 + t1
    lead = (1 - 2 * t0, 2 - 2 * t0, 1)
    q = (a * a - x * x, 2 * a, 1)
    if spec.family == "HYP":
        return lead, q, (0, 0, 0), (0, 0, 0)
    if spec.family == "RCHE":
        return lead, q, (0, 0, 0), (1, 0, 0)
    if spec.family == "CHE":
        ts = spec.theta_star
        return lead, q, (-(0.5 - t0 - ts), -1, 0), (-(t1 - t0 - ts), -1, 0)
    tt, ti, om = spec.theta_t, spec.theta_inf, spec.omega
    b, c = 0.5 - t0 - tt, t1 - t0 - tt
    return lead, q, (b * b - t0 * t0 - ti * ti + om * om, 2 * b, 1), (c * c - ti * ti, 2 * c, 1)


def _at_shift(poly: tuple, s: int) -> list:
    """``c0 + c1 k + c2 k^2`` at ``k + s`` as ``k^2 (c2 + c1' w + c0' w^2)``,
    ``w = 1/k``: the coefficient list ``[c2, c1', c0']``."""
    c0, c1, c2 = poly
    return [c2, c1 + 2 * c2 * s, c0 + c1 * s + c2 * s * s]


def _shifted_product(x: tuple, s: int, y: tuple, t: int) -> list:
    """``x(k + s) y(k + t)`` of two quadratics, as :func:`_at_shift` gives one."""
    (a0, a1, a2), (b0, b1, b2) = _at_shift(x, s), _at_shift(y, t)
    return [a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0, a1 * b2 + a2 * b1, a2 * b2]


def u_lambda0_sequence(spec: EquationSpec, K: int) -> list:
    """Coefficients of the zero-coupling solution,
    ``u0_k = (a+x)_k (a-x)_k / (k! (1-2 theta0)_k)`` with
    ``a = 1/2 - theta0 + theta1`` and ``x`` the family's third exponent
    parameter, built iteratively as ``u0_{k+1} = Q_k u0_k / ((k+1)(k+1-2t0))``
    for a valid spec (:func:`validate`).
    """
    t0 = validate(spec).theta0
    if not isinstance(K, int) or K < 0:
        raise DomainError(f"K must be a nonnegative integer, got {K!r}")
    out = [1.0 + 0 * t0]
    for k in range(K):
        q, _ = _q_pair(spec, k)
        lead = (k + 1) * (k + 1 - 2 * t0)
        out.append(q * out[-1] / lead)
    return out


def rescaled_a(spec: EquationSpec, K: int) -> list:
    """Sequence ``a_k = u_k / u0_k`` for ``k = 0..K``.

    Computed from the canonical recurrence and the zero-coupling sequence, and
    self-checked against the rescaled recurrence
    ``a_{k+1} - a_k = -lam (alpha_k a_k + beta_k a_{k-1})``; a relative
    residual above 1e-10 raises :class:`NonConvergence` (numerical
    breakdown of the ratio representation).
    """
    validate(spec)
    if not isinstance(K, int) or K < 1:
        raise DomainError(f"K must be an integer of at least 1, got {K!r}")
    u = [1.0 + 0 * spec.theta0, canonical_recurrence_step(spec, 0, 1.0, 0.0)]
    for k in range(1, K):
        u.append(canonical_recurrence_step(spec, k, u[k], u[k - 1]))
    u0 = u_lambda0_sequence(spec, K)
    a = [uk / u0k for uk, u0k in zip(u, u0)]
    lam = spec.lam
    worst = 0.0
    alphas, betas = coefficient_table(spec, 0, K)
    for k, (al, be) in enumerate(zip(alphas, betas)):
        a_km1 = a[k - 1] if k >= 1 else 0.0
        resid = a[k + 1] - a[k] + lam * (al * a[k] + be * a_km1)
        scale = max(1.0, abs(a[k + 1]))
        worst = max(worst, abs(resid) / scale)
    if worst > _SELF_CHECK_TOL:
        raise NonConvergence(
            f"rescaled recurrence self-check failed: residual {worst:.3e} > {_SELF_CHECK_TOL:.1e}"
        )
    return a
