"""Local series solutions at the singular points 0 and 1, and their evaluation.

For each family the normal-form equation ``psi'' + P(z) psi = 0`` is cleared
of denominators, ``D(z) psi'' + Q(z) psi = 0`` with polynomial ``D, Q``, and
``D`` has a double root at the expansion point ``p``.  Writing ``w = z - p``
and ``D = w^2 E(w)``, the normalized local solution

* at 0:  ``psi = z^rho (1 + sum_{k>=1} c_k z^k)``, ``rho = 1/2 - s*theta0``;
* at 1:  ``psi = (1-z)^rho (1 + sum_{k>=1} c_k (z-1)^k)``, ``rho = 1/2 - s*theta1``

(sign ``s = +1`` or ``-1``) has coefficients from the single recurrence

``e_0 n (n + 2 rho - 1) c_n = - sum_{j>=1} [E_j (rho+n-j)(rho+n-j-1) + Q_j] c_{n-j}``.

Powers of ``z`` and ``1-z`` are principal-branch, so solutions are analytic on
the plane cut along ``(-inf, 0]`` and ``[1, +inf)`` intersected with the disc
of convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import count, islice, zip_longest
from typing import Any, Iterator, Optional

from .equations import EquationSpec, _third_parameter
from .errors import DomainError, RadiusError, TailError
from .precision import p_power

__all__ = [
    "FrobeniusSolution",
    "frobenius_series",
    "local_basis",
    "evaluate",
    "evaluate_deriv",
    "value_and_deriv",
    "wronskian",
    "ode_residual",
    "potential",
    "convergence_radius",
]

_INDICIAL_TOL = 1e-10
_BASIS_K = 64  # first truncation of local_basis, doubled until the tail is small
_BASIS_K_CAP = 10000  # no doubling from here on
_SERIES_TOL = 1e-15  # last retained terms of local_basis at its reach


def _padd(a: list, b: list) -> list:
    return [x + y for x, y in zip_longest(a, b, fillvalue=0.0)]


def _pmul(a: list, b: list) -> list:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0.0:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _pscale(a: list, s: Any) -> list:
    return [s * x for x in a]


def _pshift(a: list, h: Any) -> list:
    """Coefficients of p(w + h) given those of p(z), by synthetic Horner."""
    out: list = [0.0]
    for c in reversed(a):
        out = _padd(_pmul(out, [h, 1.0]), [c])
    return out


def _family_polys(spec: EquationSpec) -> tuple[list, list]:
    """Return (D, Q) with D psi'' + Q psi = 0 equivalent to the normal form."""
    t0, t1 = spec.theta0, spec.theta1
    z = [0.0, 1.0]
    zm1 = [-1.0, 1.0]
    z2 = _pmul(z, z)
    zm12 = _pmul(zm1, zm1)
    zzm1 = _pmul(z, zm1)
    z2zm12 = _pmul(z2, zm12)
    a0 = 0.25 - t0 * t0
    a1 = 0.25 - t1 * t1
    if spec.family != "HE":
        x = _third_parameter(spec)
        c0 = t0 * t0 + t1 * t1 - x * x - 0.25
        # U(z) = c0 (- lam z for RCHE) enters over z(z-1)
        u = [c0, -spec.lam] if spec.family == "RCHE" else [c0]
        q = _padd(_padd(_pscale(zm12, a0), _pscale(z2, a1)), _pmul(u, zzm1))
        if spec.family == "CHE":
            lam = spec.lam
            q = _padd(q, _pscale(z2zm12, -lam * lam / 4.0))
            q = _padd(q, _pscale(_pmul(z, zm12), -lam * spec.theta_star))
        return z2zm12, q
    om, lam = spec.omega, spec.lam
    tt, ti = spec.theta_t, spec.theta_inf
    t = 1.0 / lam
    zmt = [-t, 1.0]
    zmt2 = _pmul(zmt, zmt)
    at = 0.25 - tt * tt
    c1 = t0 * t0 + t1 * t1 + tt * tt - ti * ti - 0.5
    c2 = (t - 1.0) * (om * om + tt * tt - ti * ti - 0.25)
    q = _padd(_pscale(_pmul(zm12, zmt2), a0), _pscale(_pmul(z2, zmt2), a1))
    q = _padd(q, _pscale(z2zm12, at))
    q = _padd(q, _pscale(_pmul(zzm1, zmt2), c1))
    q = _padd(q, _pscale(_pmul(zzm1, zmt), c2))
    return _pmul(z2zm12, zmt2), q


def potential(spec: EquationSpec, z: Any) -> Any:
    """Normal-form potential P(z) of a spec, evaluated directly from its
    partial fractions (not via the cleared polynomials)."""
    t0, t1 = spec.theta0, spec.theta1
    a0 = 0.25 - t0 * t0
    a1 = 0.25 - t1 * t1
    lam = spec.lam
    if spec.family != "HE":
        x = _third_parameter(spec)
        c0 = t0 * t0 + t1 * t1 - x * x - 0.25
        u = c0 - lam * z if spec.family == "RCHE" else c0
        val = a0 / (z * z) + a1 / ((z - 1) * (z - 1)) + u / (z * (z - 1))
        if spec.family == "CHE":
            return val - lam * lam / 4.0 - lam * spec.theta_star / z
        return val
    om = spec.omega
    tt, ti = spec.theta_t, spec.theta_inf
    t = 1.0 / lam
    at = 0.25 - tt * tt
    c1 = t0 * t0 + t1 * t1 + tt * tt - ti * ti - 0.5
    c2 = (t - 1.0) * (om * om + tt * tt - ti * ti - 0.25)
    return (
        a0 / (z * z)
        + a1 / ((z - 1) * (z - 1))
        + at / ((z - t) * (z - t))
        + c1 / (z * (z - 1))
        + c2 / (z * (z - 1) * (z - t))
    )


@dataclass(frozen=True)
class FrobeniusSolution:
    """Truncated local solution: prefactor exponent and series coefficients.

    ``coeffs[k]`` multiplies ``(z - point)^k``; ``coeffs[0] = 1``.  The
    prefactor is ``z^exponent`` at ``point = 0`` and ``(1-z)^exponent`` at
    ``point = 1``.
    """

    spec: EquationSpec
    point: int
    sign: int
    exponent: Any
    coeffs: tuple
    K: int


def _cleared_at(d: list, q: list, point: int) -> tuple[list, list]:
    """``(E, Q)`` in ``w = z - point`` of ``D psi'' + Q psi = 0``, with
    ``D = w^2 E(w)``."""
    if point == 1:
        d = _pshift(d, 1.0)
        q = _pshift(q, 1.0)
    scale = max(abs(c) for c in d)
    if not (abs(d[0]) <= 1e-10 * scale and abs(d[1]) <= 1e-10 * scale):
        raise DomainError("cleared equation lacks the double root at the expansion point")
    return d[2:], list(q)


def _exponent(e: list, qw: list, theta: Any, sign: int) -> Any:
    """``rho = 1/2 - sign*theta``, checked against the indicial equation
    ``e0 rho (rho - 1) + q0 = 0``."""
    rho = 0.5 - sign * theta
    ind = e[0] * rho * (rho - 1) + qw[0]
    if abs(ind) > _INDICIAL_TOL * max(1.0, abs(qw[0])):
        raise DomainError(f"indicial equation violated: residual {abs(ind):.3e}")
    return rho


def _coefficients(e: list, qw: list, rho: Any) -> Iterator:
    """``c_0 = 1, c_1, c_2, ...`` of the local solution with exponent ``rho``;
    ``c_n`` does not depend on how many follow.  The denominator ``n (n + 2
    rho - 1) = n (n - 2 sign theta)`` keeps 1e-10 from 0, as every spec keeps
    ``2 theta`` from the integers."""
    jmax = max(len(e), len(qw)) - 1
    ej = e + [0.0] * (jmax + 1 - len(e))
    qj = qw + [0.0] * (jmax + 1 - len(qw))
    # Rows j of the sum over c_{n-j}; a row with E_j = Q_j = 0 adds nothing.
    rows = [(j, ej[j], qj[j]) for j in range(1, jmax + 1) if ej[j] != 0 or qj[j] != 0]
    c = [1.0 + 0 * rho]
    yield c[0]
    for n in count(1):
        den = e[0] * n * (n + 2 * rho - 1)
        rn = rho + n
        s = 0.0 * rho
        for j, ejj, qjj in rows:
            if j > n:
                break
            rr = rn - j
            s = s + (ejj * rr * (rr - 1) + qjj) * c[n - j]
        c.append(-s / den)
        yield c[n]


def frobenius_series(spec: EquationSpec, point: int, sign: int, K: int) -> FrobeniusSolution:
    """Coefficients of the normalized local solution at ``point`` (0 or 1)
    with exponent ``1/2 - sign*theta`` truncated at order ``K``.
    """
    if point not in (0, 1):
        raise DomainError(f"expansion point must be 0 or 1, got {point!r}")
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign!r}")
    if not isinstance(K, int) or K < 1:
        raise DomainError(f"K must be an integer of at least 1, got {K!r}")
    e, qw = _cleared_at(*_family_polys(spec), point)
    rho = _exponent(e, qw, spec.theta0 if point == 0 else spec.theta1, sign)
    coeffs = tuple(islice(_coefficients(e, qw, rho), K + 1))
    return FrobeniusSolution(spec=spec, point=point, sign=sign, exponent=rho, coeffs=coeffs, K=K)


def local_basis(spec: EquationSpec, reach: float) -> list[FrobeniusSolution]:
    """The four local solutions ``[psi0_+, psi0_-, psi1_+, psi1_-]``, truncated
    for probe points at most ``reach`` from their expansion point.

    The truncation is ``K = 64 * 2^m``, the first whose last retained terms
    ``|c_K| reach^K`` are all below 1e-15; doubling ``K`` extends the
    coefficients already computed.  Raises :class:`DomainError` unless
    ``0 < reach < 1``, :class:`RadiusError` when ``reach`` is not inside both
    discs of convergence, and :class:`TailError` when the tail is still too
    large at the ``K = 10^4`` cap.
    """
    if not 0.0 < reach < 1.0:
        raise DomainError(f"reach must lie in (0, 1), got {reach!r}")
    radius = min(convergence_radius(spec, 0), convergence_radius(spec, 1))
    if reach >= radius:
        raise RadiusError(
            f"reach {reach:.6g} is outside the convergence radius {radius:.6g}"
        )
    d, q = _family_polys(spec)
    series = []
    for point, theta in ((0, spec.theta0), (1, spec.theta1)):
        e, qw = _cleared_at(d, q, point)
        for sign in (1, -1):
            rho = _exponent(e, qw, theta, sign)
            series.append((point, sign, rho, _coefficients(e, qw, rho), []))
    K = _BASIS_K
    while True:
        for *_, coeffs, c in series:
            c.extend(islice(coeffs, K + 1 - len(c)))
        worst = _worst_tail([c for *_, c in series], K, reach)
        if worst < _SERIES_TOL:
            break
        if K >= _BASIS_K_CAP:
            raise TailError(
                f"series tail {worst:.3e} at reach {reach:g} still above {_SERIES_TOL:.1e} "
                f"at the K = 10^4 cap"
            )
        K *= 2
    return [
        FrobeniusSolution(spec=spec, point=point, sign=sign, exponent=rho, coeffs=tuple(c), K=K)
        for point, sign, rho, _, c in series
    ]


def _worst_tail(coeff_lists: list, K: int, reach: float) -> float:
    """The largest ``|c_K| reach^K`` of the series; an overflow's nan counts
    as inf."""
    tails = (abs(c[K]) * reach**K for c in coeff_lists)
    return max(t if t == t else math.inf for t in tails)


def truncated_basis(basis: list, reach: float) -> list[FrobeniusSolution]:
    """A basis of :func:`local_basis` cut to the ``K`` that ``local_basis(spec,
    reach)`` picks.  Built for a reach at least as large, the basis holds those
    coefficients as a prefix, so the result equals that basis."""
    coeffs = [sol.coeffs for sol in basis]
    K = _BASIS_K
    while K < basis[0].K and _worst_tail(coeffs, K, reach) >= _SERIES_TOL:
        K *= 2
    return [replace(sol, coeffs=sol.coeffs[: K + 1], K=K) for sol in basis]


def convergence_radius(spec: EquationSpec, point: int) -> float:
    """Distance from the expansion point to the nearest other finite
    singularity (1 for every family except HE, where the point t = 1/lam can
    be closer to 1)."""
    if point not in (0, 1):
        raise DomainError(f"expansion point must be 0 or 1, got {point!r}")
    if spec.family != "HE":
        return 1.0
    t = 1.0 / complex(spec.lam)
    other = abs(t) if point == 0 else abs(t - 1.0)
    return min(1.0, other)


def _horner(coeffs: Any, w: Any) -> Any:
    """``sum_k coeffs[k] w^k`` by Horner's rule."""
    s = 0.0 * w
    for ck in reversed(coeffs):
        s = s * w + ck
    return s


def _times_k(coeffs: tuple) -> list:
    """Coefficients of ``w S'(w)`` given those of ``S(w)``."""
    return [k * ck for k, ck in enumerate(coeffs)]


def _check_radius_and_tail(sol: FrobeniusSolution, z: Any, tol: Optional[float]) -> Any:
    w = z - sol.point
    r = convergence_radius(sol.spec, sol.point)
    if abs(w) >= r:
        raise RadiusError(
            f"|z - {sol.point}| = {abs(w):.6g} is outside the convergence radius {r:.6g}"
        )
    if tol is not None:
        last = abs(sol.coeffs[sol.K]) * abs(w) ** sol.K
        if last > tol:
            raise TailError(
                f"last retained term {last:.3e} exceeds requested tolerance {tol:.1e}"
            )
    return w


def _prefactor_base(sol: FrobeniusSolution, z: Any) -> Any:
    """Base of the principal-branch prefactor: z at point 0, 1-z at point 1."""
    return z if sol.point == 0 else 1.0 - z


def evaluate(sol: FrobeniusSolution, z: Any, tol: Optional[float] = None) -> Any:
    """Value of the truncated local solution at z (principal branches).

    Raises :class:`RadiusError` outside the open disc of convergence and, when
    ``tol`` is given, :class:`TailError` if the last retained term exceeds it.
    """
    w = _check_radius_and_tail(sol, z, tol)
    return p_power(_prefactor_base(sol, z), sol.exponent) * _horner(sol.coeffs, w)


def value_and_deriv(sol: FrobeniusSolution, z: Any, tol: Optional[float] = None) -> tuple:
    """``(psi(z), psi'(z))`` of the truncated local solution, as
    :func:`evaluate` and :func:`evaluate_deriv` give them."""
    w = _check_radius_and_tail(sol, z, tol)
    s0 = _horner(sol.coeffs, w)
    t1 = _horner(_times_k(sol.coeffs), w)
    rho = sol.exponent
    b = _prefactor_base(sol, z)
    inner = rho * s0 + t1  # = rho S + w S'(w)
    value = p_power(b, rho) * s0
    if sol.point == 0:
        return value, p_power(b, rho - 1) * inner
    return value, -p_power(b, rho - 1) * inner


def evaluate_deriv(sol: FrobeniusSolution, z: Any, tol: Optional[float] = None) -> Any:
    """d/dz of the truncated local solution at z."""
    return value_and_deriv(sol, z, tol)[1]


def wronskian(sol_a: FrobeniusSolution, sol_b: FrobeniusSolution, z: Any) -> Any:
    """W(a, b)(z) = a(z) b'(z) - a'(z) b(z)."""
    a, da = value_and_deriv(sol_a, z)
    b, db = value_and_deriv(sol_b, z)
    return a * db - da * b


def ode_residual(spec: EquationSpec, sol: FrobeniusSolution, z: Any) -> Any:
    """Residual ``psi'' + P(z) psi`` of the truncated solution at z."""
    w = _check_radius_and_tail(sol, z, None)
    s0 = _horner(sol.coeffs, w)
    t1 = _horner(_times_k(sol.coeffs), w)
    t2 = _horner([(k * (k - 1)) * ck for k, ck in enumerate(sol.coeffs)], w)
    rho = sol.exponent
    b = _prefactor_base(sol, z)
    # Both points reduce to the same form in the Horner sums t1 = w S' and
    # t2 = w^2 S'' (the w -> -w flips cancel in the second derivative).
    psi2 = p_power(b, rho - 2) * (rho * (rho - 1) * s0 + 2 * rho * t1 + t2)
    psi = p_power(b, rho) * s0
    return psi2 + potential(spec, z) * psi
