"""Cross-method and cross-module consistency harness.

Each ``verify_*`` operation measures a residual that is small only when
several independent code paths agree (series evaluation vs connection
matrix, one-parameter family limits, reflected-equation solutions), so a
pass certifies the pipeline end to end rather than any single formula.
``full_report`` aggregates every check applicable to a spec's family;
parameter degeneracies surface as failed entries, never as crashes.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Optional, Sequence

import mpmath as mp

from .connection import (
    _FLIPS,
    ConnectionMatrix,
    _flip_spec,
    _gamma_factors,
    _product_relations,
    _wronskian_of_basis,
    connection_matrix,
    det_residual,
    extract_sigma,
    tail_determinant_limit,
)
from .equations import EquationSpec, he_spec, validate
from .errors import DomainError, FamilyFieldError, HeunConnError, ReflectionMismatch
from .frobenius import (
    convergence_radius,
    evaluate,
    frobenius_series,
    local_basis,
    ode_residual,
    potential,
)
from .perturbative import CLOSED_FORMS, c_coefficients, sigma1_closed
from .precision import is_mp

__all__ = [
    "CheckResult",
    "ValidationReport",
    "CheckConfig",
    "verify_connection_identity",
    "verify_che_as_he_limit",
    "verify_reflection",
    "full_report",
]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one consistency check."""

    name: str
    passed: bool
    residual: float
    tol: float
    runtime: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return (
            f"{status}  {self.name}: residual {self.residual:.3e} "
            f"vs tol {self.tol:.1e} in {self.runtime:.2f}s{extra}"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Aggregated check results for one spec."""

    spec: EquationSpec
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        head = f"validation report for {self.spec.family} spec: " + (
            "ALL PASS" if self.passed else "FAILURES PRESENT"
        )
        return "\n".join([head] + [c.line() for c in self.checks])

    def as_dict(self) -> dict:
        return {
            "family": self.spec.family,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "residual": c.residual,
                    "tol": c.tol,
                    "runtime": c.runtime,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


# Tolerance of each check of ``full_report``: the measured precision floor
# of its route at double precision.
_TOLS = {
    "connection_identity": 1e-9,
    "determinant": 1e-10,
    "method_agreement_recurrence": 1e-8,
    "method_agreement_wronskian": 1e-8,
    "method_agreement_ss": 1e-8,
    "monodromy_products": 1e-8,
    "sigma_slope_vs_closed": 1e-10,  # 450x the worst of 600 seeded HE specs
    "series_vs_closed_forms": 1e-8,
    "che_as_he_limit": 1e-3,
    "reflection": 1e-8,
    "tail_determinant": 1e-11,  # 100x the worst of 780 seeded specs
}
_MATRIX_TOL = 1e-10  # tol of the connection matrices the checks compare
_Z_LIST = (0.3, 0.5, 0.7)  # probe points of the identity check
_LAMBDA = 1e4  # HE parameter scale of the CHE limit check


@dataclass(frozen=True)
class CheckConfig:
    """Settings of ``full_report``: one tolerance and whether the slow
    checks run.

    ``tol=None`` keeps each check's own tolerance (the measured precision
    floor of its route at double precision) and computes the connection
    matrices at ``tol=1e-10``; any other value sets every check's tolerance
    to ``tol`` and the matrices' to ``min(1e-10, tol)``.
    """

    tol: Optional[float] = None
    include_slow: bool = True


def _timed(name: str, tol: float, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        residual, detail = fn()
    except HeunConnError as exc:
        return CheckResult(
            name,
            False,
            float("nan"),
            tol,
            time.perf_counter() - start,
            f"{type(exc).__name__}: {exc}",
        )
    return CheckResult(
        name, bool(residual < tol), float(residual), tol, time.perf_counter() - start, detail
    )


def _once(compute: Callable[[], Any]) -> Callable[[], Any]:
    """Getter of ``compute()``, computed on the first call; a library error it
    raised is raised again on every later call."""
    outcome = []

    def get() -> Any:
        if not outcome:
            try:
                outcome.append(compute())
            except HeunConnError as exc:
                outcome.append(exc)
        if isinstance(outcome[0], HeunConnError):
            raise outcome[0]
        return outcome[0]

    return get


def _cf_once(spec: EquationSpec, matrix_tol: float) -> Callable[[], ConnectionMatrix]:
    """Getter of the ``cf``-route matrix of ``spec`` (see :func:`_once`)."""
    return _once(lambda: connection_matrix(spec, method="cf", tol=matrix_tol))


def _basis_for(spec: EquationSpec, z_list: Sequence[float], K: Optional[int]) -> Callable:
    """Getter of the Frobenius basis ``[psi0_+, psi0_-, psi1_+, psi1_-]`` of
    the identity check: ``K=None`` truncates as :func:`local_basis` does for
    the farthest probe point, an integer ``K`` truncates every series there."""
    if K is None:
        reach = max(max(z, 1 - z) for z in z_list)
        return _once(lambda: local_basis(spec, reach))
    return lambda: [frobenius_series(spec, pt, sg, K) for pt in (0, 1) for sg in (1, -1)]


def verify_connection_identity(
    spec: EquationSpec,
    z_list: Sequence[float] = _Z_LIST,
    K: Optional[int] = None,
    tol: float = 1e-9,
    matrix: Optional[ConnectionMatrix] = None,
) -> CheckResult:
    """Evaluate both Frobenius bases at interior points and compare
    ``psi0_eps`` against ``sum_eps' C[eps eps'] psi1_eps'`` entrywise.

    The residual is relative to ``|psi0_eps|``; the matrix defaults to the
    continued-fraction route.  ``K=None`` truncates the series as
    :func:`local_basis` does for the farthest probe point (as
    :func:`full_report` does); an integer ``K`` truncates every series there.
    """
    validate(spec)
    cf = _cf_once(spec, _MATRIX_TOL) if matrix is None else lambda: matrix
    return _check_identity(spec, z_list, tol, cf, _basis_for(spec, z_list, K))


def _check_identity(
    spec: EquationSpec, z_list: Sequence[float], tol: float, cf: Callable, basis: Callable
) -> CheckResult:
    """The identity check with the Frobenius basis of the getter ``basis``
    (:func:`_basis_for`)."""

    def run():
        mat = cf()
        r0 = convergence_radius(spec, 0)
        r1 = convergence_radius(spec, 1)
        for z in z_list:
            if not (0.0 < z < 1.0) or abs(z) >= r0 or abs(1 - z) >= r1:
                raise DomainError(
                    f"probe point {z} lies outside both series' convergence domains"
                )
        sol0p, sol0m, sol1p, sol1m = basis()
        worst = 0.0
        for z in z_list:
            psi1p, psi1m = evaluate(sol1p, z), evaluate(sol1m, z)
            for eps, sol0 in (("+", sol0p), ("-", sol0m)):
                lhs = evaluate(sol0, z)
                rhs = mat[eps + "+"] * psi1p + mat[eps + "-"] * psi1m
                res = abs(lhs - rhs) / abs(lhs)
                worst = max(worst, res if res == res else math.inf)  # nan: an overflowed series
        return worst, f"max over {len(z_list)} points x 2 signs, K={sol0p.K}"

    return _timed("connection_identity", tol, run)


def che_to_he_spec(spec: EquationSpec, Lambda: float) -> EquationSpec:
    """The HE spec whose large-``Lambda`` limit reproduces a CHE spec:
    ``theta_t = (Lambda + theta_star)/2``, ``theta_inf = (Lambda - theta_star)/2``,
    ``lam_he = lam_che / Lambda``."""
    if spec.family != "CHE":
        raise FamilyFieldError(f"limit check starts from a CHE spec, got {spec.family}")
    validate(spec)
    if Lambda < 1e3:
        raise DomainError(f"Lambda must be at least 1e3 for the limit regime, got {Lambda}")
    lam_he = spec.lam / Lambda
    if abs(lam_he) >= 1.0:
        raise DomainError("induced coupling must satisfy |lam/Lambda| < 1")
    return he_spec(
        spec.theta0,
        spec.theta1,
        omega=spec.omega,
        theta_t=(Lambda + spec.theta_star) / 2.0,
        theta_inf=(Lambda - spec.theta_star) / 2.0,
        lam=lam_he,
    )


def verify_che_as_he_limit(
    spec: EquationSpec, Lambda: float = _LAMBDA, tol: float = 1e-3
) -> CheckResult:
    """Compare the CHE connection matrix against the HE matrix at large
    ``Lambda``; the entrywise relative difference should be O(1/Lambda).

    The HE matrix is computed by the Wronskian route: its series evaluation
    is insensitive to the large parameters, whereas the continued-fraction
    route would need depths beyond ``Lambda`` to reach its asymptotic
    regime.
    """
    return _check_che_as_he_limit(spec, Lambda, tol, _MATRIX_TOL, _cf_once(spec, _MATRIX_TOL))


def _check_che_as_he_limit(
    spec: EquationSpec, Lambda: float, tol: float, matrix_tol: float, cf: Callable
) -> CheckResult:
    def run():
        che_mat = cf()
        he_sp = che_to_he_spec(spec, Lambda)
        he_mat = connection_matrix(he_sp, method="wronskian", tol=matrix_tol)
        worst = 0.0
        for key in ("++", "+-", "-+", "--"):
            worst = max(worst, abs(che_mat[key] - he_mat[key]) / abs(che_mat[key]))
        return worst, f"Lambda={Lambda:g}, HE route=wronskian"

    return _timed("che_as_he_limit", tol, run)


def reflected_spec(spec: EquationSpec) -> EquationSpec:
    """Parameters of the equation satisfied by ``psi(1 - z)``.

    Swapping the regular points 0 and 1 exchanges ``theta0`` and ``theta1``
    and flips the coupling; completing the partial fractions shifts the
    spectral parameter: ``omega**2 -> omega**2 + lam`` (RCHE) or
    ``omega**2 -> omega**2 - lam*theta_star`` (CHE).  The new ``omega`` is
    the principal root in the spec's own numbers: an mpmath root of an
    mpmath ``omega**2``, a float root of a nonnegative float.  The transform
    is certified numerically by the caller, not trusted.
    """
    validate(spec)
    if spec.family == "RCHE":
        om2 = spec.omega**2 + spec.lam
    elif spec.family == "CHE":
        om2 = spec.omega**2 - spec.lam * spec.theta_star
    else:
        raise FamilyFieldError(f"reflection transform covers RCHE and CHE, got {spec.family}")
    if is_mp(om2):
        omega = mp.sqrt(om2)
    elif isinstance(om2, float) and om2 >= 0.0:
        omega = math.sqrt(om2)
    else:
        omega = cmath.sqrt(om2)
    return replace(spec, theta0=spec.theta1, theta1=spec.theta0, lam=-spec.lam, omega=omega)


def verify_reflection(
    spec: EquationSpec, tol: float = 1e-8, strict: bool = False
) -> CheckResult:
    """Certify the z -> 1-z transform end to end.

    Three residuals, reported as their max: the reflected potential equals
    the original at mirrored points; reflected Frobenius solutions satisfy
    the original equation's mirrored normal form (via their own
    ode-residual); and the reflected connection matrix equals the inverse of
    the original.  With ``strict`` a failure raises
    :class:`ReflectionMismatch` instead of returning a failed result.
    """
    result = _check_reflection(spec, tol, _MATRIX_TOL, _cf_once(spec, _MATRIX_TOL))
    if strict and not result.passed:
        raise ReflectionMismatch(
            f"reflection check failed: residual {result.residual:.3e} "
            f"above {tol:.1e} ({result.detail})"
        )
    return result


def _check_reflection(
    spec: EquationSpec, tol: float, matrix_tol: float, cf: Callable
) -> CheckResult:
    def run():
        refl = reflected_spec(spec)
        pot_res = 0.0
        for w in (0.2, 0.45, 0.8):
            a = potential(refl, w)
            b = potential(spec, 1.0 - w)
            pot_res = max(pot_res, abs(a - b) / max(1.0, abs(b)))
        ode_res = 0.0
        sol0p, _, _, sol1m = local_basis(refl, 0.35)
        for sol, z0 in ((sol0p, 0.35), (sol1m, 0.65)):
            ode_res = max(ode_res, abs(ode_residual(refl, sol, z0)))
        mat = cf()
        mat_r = connection_matrix(refl, method="cf", tol=matrix_tol)
        a, b, c, d = (mat[k] for k in ("++", "+-", "-+", "--"))
        det = a * d - b * c
        inv = {"++": d / det, "+-": -b / det, "-+": -c / det, "--": a / det}
        mat_res = max(abs(mat_r[k] - inv[k]) / abs(inv[k]) for k in inv)
        worst = max(pot_res, ode_res, mat_res)
        return worst, (
            f"potential {pot_res:.1e}, ode {ode_res:.1e}, matrix-vs-inverse {mat_res:.1e}"
        )

    return _timed("reflection", tol, run)


def _check_determinant(spec: EquationSpec, tol: float, cf: Callable) -> CheckResult:
    def run():
        return det_residual(cf()), "cf route"

    return _timed("determinant", tol, run)


def _check_method_agreement(other: str, tol: float, cf: Callable, matrix: Callable) -> CheckResult:
    """Entrywise agreement of the matrix of the getter ``matrix``, by the
    route ``other``, with the ``cf`` matrix."""

    def run():
        base = cf()
        alt = matrix()
        worst = max(abs(base[k] - alt[k]) / abs(base[k]) for k in ("++", "+-", "-+", "--"))
        return worst, "entrywise vs cf"

    return _timed(f"method_agreement_{other}", tol, run)


def _shared_wronskian(spec: EquationSpec, matrix_tol: float, basis: Callable) -> ConnectionMatrix:
    """The ``wronskian``-route matrix from the identity check's basis, cut
    to the route's truncation; built anew when that basis raised (its reach
    can lie outside a convergence radius that the route's does not)."""
    try:
        shared = basis()
    except HeunConnError:
        return connection_matrix(spec, method="wronskian", tol=matrix_tol)
    return _wronskian_of_basis(spec, shared, matrix_tol)


def _check_monodromy(spec: EquationSpec, tol: float, cf: Callable) -> CheckResult:
    def run():
        mat = cf()
        sigma = extract_sigma(mat, tol=tol)
        # extract_sigma enforces both product relations at tol; report the worse.
        relations, scale = _product_relations(mat, sigma)
        res = max(abs(prod - rhs) for prod, rhs in relations) / scale
        return res, f"sigma={sigma:.12g}"

    return _timed("monodromy_products", tol, run)


def _check_sigma_slope(spec: EquationSpec, tol: float) -> CheckResult:
    """``sigma_1`` of ``sigma = omega + sigma_1 lam + ..`` from the ``c_1`` of the
    sign-flipped specs (README, Monodromy), against :func:`sigma1_closed`."""

    def run():
        target = sigma1_closed(spec)
        t0, t1, om = spec.theta0, spec.theta1, spec.omega
        f = [factor for factor, _ in _gamma_factors(t0, t1, om)]
        c1 = [c_coefficients(_flip_spec(spec, s0, s1), 1)[0] for s0, s1 in _FLIPS]
        r0, delta = f[1] * f[2] / (f[0] * f[3]), c1[1] + c1[2] - c1[0] - c1[3]
        cos_gap = cmath.cos(math.tau * (t0 - t1)) - cmath.cos(math.tau * (t0 + t1))
        slope = -r0 * delta * cos_gap / ((1 - r0) ** 2 * math.tau * cmath.sin(math.tau * om))
        res = abs(slope - target) / max(1.0, abs(target))  # sigma_1 has zeros
        return res, f"jet slope {slope.real:.12g} vs closed {target.real:.12g}"

    return _timed("sigma_slope_vs_closed", tol, run)


def _check_series_closed(spec: EquationSpec, tol: float) -> CheckResult:
    def run():
        forms = CLOSED_FORMS[spec.family]
        cs = c_coefficients(spec, len(forms))
        refs = (form(spec) for form in forms)
        worst = max(abs(got - ref) / max(1.0, abs(ref)) for got, ref in zip(cs, refs))
        return worst, f"{len(forms)} closed-form coefficient(s)"

    return _timed("series_vs_closed_forms", tol, run)


def _check_tail_determinant(spec: EquationSpec, tol: float) -> CheckResult:
    def run():
        val, _err = tail_determinant_limit(spec)
        target = 1.0 / (1.0 - spec.lam) if spec.family == "HE" else 1.0
        res = abs(val - target) / abs(target)
        return res, f"limit {val.real:.10g} vs closed {target:.10g}"

    return _timed("tail_determinant", tol, run)


def full_report(spec: EquationSpec, config: Optional[CheckConfig] = None) -> ValidationReport:
    """Run every check applicable to the spec's family and aggregate; which
    checks run depends only on the family and ``config.include_slow``.

    Failures (including parameter degeneracies raised as library errors)
    become failed entries; the call itself does not raise.
    """
    validate(spec)
    if config is None:
        config = CheckConfig()
    if config.tol is None:
        tols, mtol = _TOLS, _MATRIX_TOL
    else:
        tols, mtol = dict.fromkeys(_TOLS, config.tol), min(_MATRIX_TOL, config.tol)
    # One cf matrix and one Frobenius basis, shared by every check of this
    # spec that needs them.
    cf = _cf_once(spec, mtol)
    basis = _basis_for(spec, _Z_LIST, None)
    checks: list[CheckResult] = []
    checks.append(_check_identity(spec, _Z_LIST, tols["connection_identity"], cf, basis))
    checks.append(_check_determinant(spec, tols["determinant"], cf))
    matrices = {
        "recurrence": lambda: connection_matrix(spec, method="recurrence", tol=mtol),
        "wronskian": lambda: _shared_wronskian(spec, mtol, basis),
        "ss": lambda: connection_matrix(spec, method="ss", tol=mtol),
    }
    for other, matrix in matrices.items():
        tol = tols["method_agreement_" + other]
        checks.append(_check_method_agreement(other, tol, cf, matrix))
    checks.append(_check_monodromy(spec, tols["monodromy_products"], cf))
    if spec.family == "HE" and config.include_slow:
        checks.append(_check_sigma_slope(spec, tols["sigma_slope_vs_closed"]))
    if spec.family in CLOSED_FORMS:
        checks.append(_check_series_closed(spec, tols["series_vs_closed_forms"]))
    if spec.family == "CHE" and config.include_slow:
        tol = tols["che_as_he_limit"]
        checks.append(_check_che_as_he_limit(spec, _LAMBDA, tol, mtol, cf))
    if spec.family in ("RCHE", "CHE"):
        checks.append(_check_reflection(spec, tols["reflection"], mtol, cf))
    if spec.family != "HYP" and config.include_slow:
        checks.append(_check_tail_determinant(spec, tols["tail_determinant"]))
    return ValidationReport(spec=spec, checks=tuple(checks))
