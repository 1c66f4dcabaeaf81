"""Coupling-series coefficients of ``ln a_inf`` from λ-jets of the forward
recurrence and its formal ``1/k`` tail.

The rescaled recurrence ``a_{k+1} = a_k - lam (alpha_k a_k + beta_k a_{k-1})``
with ``a_0 = 1`` is run with ``a_k`` a truncated power series (a λ-jet) in the
coupling.  Its order-``n`` coefficient obeys

``a^(n)_{k+1} = a^(n)_k - alpha_k a^(n-1)_k - beta_k a^(n-1)_{k-1}``,

so one sweep to depth ``K`` costs ``O(N K)`` additions and no division.  The
limit follows from the formal solution ``a_k ~ a_inf S(k)``, ``S(k) = sum_j
d_j k^-j``, with the ``d_j`` computed as λ-jets by the ``recurrence`` route's
own tail kernel (:func:`tails.summed_tail` of :func:`tails.a_space`): ``ln
a_inf = ln a_K - ln S(K)``.  At a fixed order in ``lam`` the recurrence has
no second solution (that one is of order ``lam^k``), so ``K`` is only
:func:`tails.root_depth`: 8 times above the roots of the denominators, and
at least 64.  For HE the ``-ln(1 - lam)`` part of ``ln a_inf`` is in the
jets already.

The :class:`Jet` type and the ``jet_*`` functions are a small public toolkit of
truncated-series arithmetic; the expansion above does not use them.

Closed forms for the leading coefficients (``c_1, c_2`` for RCHE, ``c_1`` for
HE through the composite-exponent slope ``sigma_1``) are implemented from
digamma/trigamma expressions and serve as independent references; the
family-to-forms roster is :data:`CLOSED_FORMS`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import sub
from typing import Any, Callable, Sequence

from .equations import EquationSpec, coefficient_table
from .errors import (
    DomainError,
    FamilyFieldError,
    JetDivByZero,
    ParameterResonance,
    SizeError,
)
from .precision import is_mp
from .special import polygamma
from .tails import a_space, root_depth, series_log, summed_tail

__all__ = [
    "Jet",
    "jet_from_scalar",
    "jet_variable",
    "jet_add",
    "jet_sub",
    "jet_scale",
    "jet_mul",
    "jet_div",
    "jet_log",
    "jet_exp",
    "c_coefficients",
    "CLOSED_FORMS",
    "c1_closed_rche",
    "c2_closed_rche",
    "sigma1_closed",
    "f1_closed_he",
    "c1_closed_he",
]

_MAX_ORDER = 8
_RESONANCE_TOL = 1e-10


@dataclass(frozen=True)
class Jet:
    """Truncated power series: ``coeffs[j]`` multiplies ``lam**j``."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise DomainError(
                f"jet of order {self.order} needs {self.order + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )


def jet_from_scalar(c: Any, order: int) -> Jet:
    """Constant jet."""
    return Jet(order, (c,) + (0.0,) * order)


def jet_variable(order: int) -> Jet:
    """The coupling itself as a jet: ``(0, 1, 0, ..., 0)``."""
    if order < 1:
        raise DomainError("jet order must be at least 1 for the coupling variable")
    return Jet(order, (0.0, 1.0) + (0.0,) * (order - 1))


def _match(a: Jet, b: Jet) -> int:
    if a.order != b.order:
        raise DomainError(f"jet order mismatch: {a.order} vs {b.order}")
    return a.order


def jet_add(a: Jet, b: Jet) -> Jet:
    n = _match(a, b)
    return Jet(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def jet_sub(a: Jet, b: Jet) -> Jet:
    n = _match(a, b)
    return Jet(n, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def jet_scale(a: Jet, s: Any) -> Jet:
    return Jet(a.order, tuple(s * x for x in a.coeffs))


def jet_mul(a: Jet, b: Jet) -> Jet:
    n = _match(a, b)
    out = [0.0] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x == 0.0:
            continue
        for j in range(0, n + 1 - i):
            out[i + j] = out[i + j] + x * b.coeffs[j]
    return Jet(n, tuple(out))


def jet_div(a: Jet, b: Jet) -> Jet:
    """Series quotient; :class:`JetDivByZero` when ``b`` has zero constant term."""
    n = _match(a, b)
    b0 = b.coeffs[0]
    if abs(b0) < 1e-280:
        raise JetDivByZero("division by a jet with vanishing constant term")
    out = [0.0] * (n + 1)
    for k in range(n + 1):
        s = a.coeffs[k]
        for j in range(1, k + 1):
            s = s - b.coeffs[j] * out[k - j]
        out[k] = s / b0
    return Jet(n, tuple(out))


def jet_log(f: Jet) -> Jet:
    """Series logarithm of a jet with unit constant term:
    ``l_n = f_n - (1/n) sum_{j=1}^{n-1} j l_j f_{n-j}``."""
    if abs(f.coeffs[0] - 1.0) > 1e-9:
        raise DomainError(
            f"jet_log requires a unit constant term, got {f.coeffs[0]!r}"
        )
    return Jet(f.order, tuple(series_log(f.coeffs)))


def jet_exp(a: Jet) -> Jet:
    """Series exponential of a jet with vanishing constant term:
    ``e_n = (1/n) sum_{j=1}^{n} j a_j e_{n-j}``."""
    if abs(a.coeffs[0]) > 1e-9:
        raise DomainError(
            f"jet_exp requires a vanishing constant term, got {a.coeffs[0]!r}"
        )
    n = a.order
    out = [0.0] * (n + 1)
    out[0] = 1.0
    for m in range(1, n + 1):
        s = 0.0
        for j in range(1, m + 1):
            s = s + (j / m) * a.coeffs[j] * out[m - j]
        out[m] = s
    return Jet(n, tuple(out))


def _forward_jet(alphas: list, betas: list, N: int) -> list:
    """Orders ``0 .. N`` of ``a_K`` (``K = len(alphas)``), each a cumulative
    sum over ``k`` of the order below: ``a^(n)_{k+1} = a^(n)_k - alpha_k
    a^(n-1)_k - beta_k a^(n-1)_{k-1}``, with ``a^(n)_0 = 0`` for ``n >= 1``."""
    prev = [1] * (len(alphas) + 1)  # a^(0)_k = 1
    out = [1]
    for _ in range(N):
        steps = map(lambda al, be, x, y: al * x + be * y, alphas, betas, prev, chain((0,), prev))
        prev = list(accumulate(steps, sub, initial=0))
        out.append(prev[-1])
    return out


def c_coefficients(spec: EquationSpec, N: int) -> list[complex]:
    """Coefficients ``c_1 .. c_N`` of ``ln a_inf`` in powers of the coupling.

    The spec's own ``lam`` value is ignored: only the family structure and
    the non-coupling parameters enter.  One λ-jet sweep of the forward
    recurrence to ``K`` (:func:`tails.root_depth`) gives ``a_K``, the
    ``recurrence`` route's formal tail (:func:`tails.summed_tail` of
    :func:`tails.a_space`) at coupling 0 to order ``N``, summed to working
    precision, gives ``S(K)``, and ``ln a_inf = ln a_K - ln S(K)``.
    The coefficients are binary64 ``complex`` also for an mpmath spec, whose
    arithmetic they are computed in.  ``N`` above 8 raises
    :class:`SizeError`; a tail that stops decreasing raises
    :class:`NonConvergence`.  For HYP all coefficients vanish.
    """
    if not isinstance(N, int) or N < 1 or N > _MAX_ORDER:
        raise SizeError(f"series order must be an integer in [1, {_MAX_ORDER}], got {N!r}")
    if spec.family == "HYP":
        return [0j] * N
    K = root_depth(spec)
    a_K = _forward_jet(*coefficient_table(spec, 0, K), N)
    s_K, _ = summed_tail(spec, a_space, K, "coupling-series tail", N)
    return [complex(x - y) for x, y in zip(series_log(a_K)[1:], series_log(s_K)[1:])]


# (key, value) of the last binary64 psi(a + w) - psi(a - w): c2 after c1 on
# one RCHE spec forms it once.  An mpmath value depends on mp.prec and is
# never kept.
_PSI_DIFF_MEMO: tuple = (None, None)


def _psi_diff(a: Any, w: Any) -> Any:
    """psi(a + w) - psi(a - w), from :data:`_PSI_DIFF_MEMO` where the last
    binary64 call had the same ``a`` and ``w``, by value and type."""
    global _PSI_DIFF_MEMO
    if is_mp(a) or is_mp(w):
        return polygamma(0, a + w) - polygamma(0, a - w)
    key = (type(a), a, type(w), w)
    last, val = _PSI_DIFF_MEMO
    if key != last:
        val = polygamma(0, a + w) - polygamma(0, a - w)
        _PSI_DIFF_MEMO = (key, val)
    return val


def _require_family(spec: EquationSpec, family: str, what: str) -> None:
    if spec.family != family:
        raise FamilyFieldError(f"{what} applies to family {family}, got {spec.family}")


def _closed_form_spec(spec: EquationSpec, family: str, what: str, poles: Sequence) -> None:
    """The gate of a closed form: :class:`FamilyFieldError` for another
    family, then :class:`ParameterResonance` for ``omega`` within 1e-10 of a
    pole."""
    _require_family(spec, family, what)
    om = spec.omega
    for b in poles:
        if abs(om - b) < _RESONANCE_TOL:
            raise ParameterResonance(
                f"{what} has a vanishing denominator at omega = {b}; omega = {om!r}"
            )


def _binary64(val: Any, what: str) -> complex:
    """``complex(val)``; a value outside the binary64 range raises
    :class:`DomainError` naming the form ``what``."""
    out = complex(val)
    if cmath.isfinite(out):
        return out
    raise DomainError(f"{what} = {out!r} is outside the binary64 range")


# The terms of the RCHE forms cancel as omega nears +-1/2, where c_1 and c_2
# stay finite.  Against 50 digits, relative to max(1, |c_n|), on 3,000 seeded
# specs (|theta| <= 0.45, complex omega among them), the binary64 c_2 form is
# within 1.5e-12 for |q| = |1/4 - omega^2| >= 0.02 and 6e-14 above 0.05, the
# c_1 form within 3.1e-14 for |q| >= 0.01 (6.4e-8 below).  Inside the band up
# to 27 digits cancel (at the poles' 1e-10 gate), and 60 digits keep 30 of
# them.  Both forms also cancel as omega nears 0, which the band leaves out.
_RCHE_BAND = 0.05
_RCHE_BAND_DPS = 60


def _rche_form(form: Callable, spec: EquationSpec, what: str) -> complex:
    """``form(theta0, theta1, omega)`` of an RCHE spec, rounded once to
    binary64: in the spec's arithmetic, or within ``|1/4 - omega^2| <
    0.05`` (:data:`_RCHE_BAND`) in mpmath at :data:`_RCHE_BAND_DPS` digits,
    the caller's mpmath context left as found."""
    t0, t1, om = spec.theta0, spec.theta1, spec.omega
    if abs(0.25 - om * om) >= _RCHE_BAND:
        return _binary64(form(t0, t1, om), what)
    import mpmath as mp
    with mp.workdps(_RCHE_BAND_DPS):
        return _binary64(form(*map(mp.mpmathify, (t0, t1, om))), what)


def c1_closed_rche(spec: EquationSpec) -> complex:
    """Digamma closed form of the first series coefficient (RCHE), by
    :func:`_rche_form`."""
    _closed_form_spec(spec, "RCHE", "c1 closed form", (0.0, 0.5, -0.5))
    return _rche_form(_c1_rche, spec, "c1 closed form")


def _c1_rche(t0: Any, t1: Any, om: Any) -> Any:
    """The form of :func:`c1_closed_rche` in the arithmetic of its arguments."""
    a = 0.5 - t0 + t1
    m = 0.25 - t0 * t0 + t1 * t1 - om * om
    q = 0.25 - om * om
    return -(m / (4 * om * q)) * _psi_diff(a, om) + (t0 + t1) / (2 * q)


def c2_closed_rche(spec: EquationSpec) -> complex:
    """Digamma/trigamma closed form of the second series coefficient (RCHE),
    by :func:`_rche_form`."""
    _closed_form_spec(spec, "RCHE", "c2 closed form", (0.0, 0.5, -0.5, 1.0, -1.0))
    return _rche_form(_c2_rche, spec, "c2 closed form")


def _c2_rche(t0: Any, t1: Any, om: Any) -> Any:
    """The form of :func:`c2_closed_rche` in the arithmetic of its arguments."""
    a = 0.5 - t0 + t1
    om2 = om * om
    q = 0.25 - om2
    r = 1.0 - om2
    m = 0.25 - t0 * t0 + t1 * t1 - om2
    d2 = t0 * t0 - t1 * t1
    s2 = t0 * t0 + t1 * t1
    psi_d = _psi_diff(a, om)
    psi1_s = polygamma(1, a + om) + polygamma(1, a - om)
    om4 = om2 * om2
    coeff_s = (
        (60 * om4 - 35 * om2 + 2) * d2 * d2 / (256 * om2 * om * q**3 * r)
        - 3 * s2 / (32 * om * r * q)
        - (1 - 12 * om2) * d2 / (64 * om2 * om * q * q)
        + (2 - 3 * om2) / (64 * om2 * om * r)
    )
    val = (
        -(m * m / (32 * om2 * q * q)) * psi1_s
        + coeff_s * psi_d
        + (t0 + t1) / (4 * q * q)
        - 3 * (t0 - t1) / (32 * q * r)
        - (25 - 52 * om2) * (t0 - t1) * (t0 + t1) ** 2 / (128 * q**3 * r)
    )
    return val


def sigma1_closed(spec: EquationSpec) -> complex:
    """Leading coupling-slope of the composite-monodromy exponent (HE):
    ``sigma = omega + sigma_1 lam + O(lam^2)``."""
    _closed_form_spec(spec, "HE", "sigma1 closed form", (0.0, 0.5, -0.5))
    return _binary64(_sigma1(spec), "sigma1 closed form")


def _sigma1(spec: EquationSpec) -> complex:
    """:func:`sigma1_closed` of a spec that passed its checks."""
    om, t0, t1 = spec.omega, spec.theta0, spec.theta1
    tt, ti = spec.theta_t, spec.theta_inf
    q = 0.25 - om * om
    val = (q + t0 * t0 - t1 * t1) * (q + ti * ti - tt * tt) / (4 * om * q)
    return complex(val)


def f1_closed_he(spec: EquationSpec) -> complex:
    """Digamma closed form of the first coefficient of ``ln(F(lam)/F(0))``
    for the gamma-ratio factor with shifted exponent (HE)."""
    _closed_form_spec(spec, "HE", "f1 closed form", (0.0, 0.5, -0.5))
    t0, t1, om = spec.theta0, spec.theta1, spec.omega
    tt, ti = spec.theta_t, spec.theta_inf
    q = 0.25 - om * om
    s1 = _sigma1(spec)  # the same checks, passed above
    a = 0.5 + t1 - t0
    val = -s1 * _psi_diff(a, om) - (t0 + t1) * (q + ti * ti - tt * tt) / (2 * q)
    return _binary64(val, "f1 closed form")


def c1_closed_he(spec: EquationSpec) -> complex:
    """First series coefficient of ``ln a_inf`` for HE:
    ``c_1 = 1/2 - theta_t + f_1``."""
    _require_family(spec, "HE", "c1 closed form")
    return _binary64(0.5 - spec.theta_t + f1_closed_he(spec), "c1 closed form")


# The closed forms of c_1, c_2, ... by family, in order; other families have none.
CLOSED_FORMS = {"RCHE": (c1_closed_rche, c2_closed_rche), "HE": (c1_closed_he,)}
