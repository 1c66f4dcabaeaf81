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
import numbers
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from typing import Any, Callable, Optional, Sequence

import mpmath as mp

from .connection import (
    _FLIPS,
    _KEYS,
    ConnectionMatrix,
    _check_tol_arg,
    _flip_spec,
    _gamma_factors,
    _product_relations,
    _wronskian_of_basis,
    connection_matrix,
    det_residual,
    extract_sigma,
    tail_determinant_limit,
)
from .equations import FAMILIES, EquationSpec, he_spec, validate
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
        names = [f.name for f in fields(CheckResult)]
        return {
            "family": self.spec.family,
            "passed": self.passed,
            "checks": [{k: getattr(c, k) for k in names} for c in self.checks],
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
    to ``tol`` and the matrices' to ``min(1e-10, tol)``.  A ``tol`` that is
    not a real number, or is nan, raises :class:`DomainError`.
    """

    tol: Optional[float] = None
    include_slow: bool = True

    def __post_init__(self):
        if self.tol is not None:
            _check_tol_arg(self.tol)


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


class _ReportState:
    """What the checks of one report share: the spec, the tolerances of the
    checks by name and of their matrices, the identity check's probe points,
    and getters (:func:`_once`) of the ``cf`` matrix (or ``matrix``) and of the
    identity basis ``[psi0_+, psi0_-, psi1_+, psi1_-]``, truncated as
    :func:`local_basis` does for the farthest probe point (``K=None``) or at
    ``K``.  The getters close over locals, not over the state: a cycle would
    keep a report's matrices alive until the next cyclic collection."""

    def __init__(self, spec, tols, matrix_tol, z_list=_Z_LIST, K=None, matrix=None):
        for tol in tols.values():
            _check_tol_arg(tol)
        validate(spec)
        z_list = tuple(z_list)
        if not z_list or not all(isinstance(z, numbers.Real) for z in z_list):
            raise DomainError(f"probe points must be a nonempty list of reals, got {z_list!r}")
        self.spec, self.tols, self.matrix_tol, self.z_list = spec, tols, matrix_tol, z_list
        if matrix is None:
            self.cf = _once(lambda: connection_matrix(spec, method="cf", tol=matrix_tol))
        else:
            self.cf = lambda: matrix
        if K is None:
            reach = max(max(z, 1 - z) for z in z_list)
            self.basis = _once(lambda: local_basis(spec, reach))
        else:
            self.basis = lambda: [
                frobenius_series(spec, pt, sg, K) for pt in (0, 1) for sg in (1, -1)
            ]

    def matrix(self, route: str) -> ConnectionMatrix:
        """The ``route`` matrix; a ``wronskian`` one cuts the identity basis to
        the route's truncation, built anew only when that basis raised (its
        reach can lie outside a convergence radius that the route's does not)."""
        if route == "wronskian":
            try:
                basis = self.basis()
            except HeunConnError:
                pass
            else:
                return _wronskian_of_basis(self.spec, basis, self.matrix_tol)
        return connection_matrix(self.spec, method=route, tol=self.matrix_tol)

    def run(self, name: str, check: Callable) -> CheckResult:
        """The timed result of ``check(self) -> (residual, detail)`` against the
        tolerance of ``name``; a library error becomes a failed result naming it."""
        tol = self.tols[name]
        start = time.perf_counter()
        try:
            residual, detail = check(self)
        except HeunConnError as exc:
            residual, detail = math.nan, f"{type(exc).__name__}: {exc}"
            exc.__traceback__ = None  # a getter keeps exc; its frames would make a cycle
        runtime = time.perf_counter() - start
        return CheckResult(name, bool(residual < tol), float(residual), tol, runtime, detail)


# ---------------------------------------------------------------------------
# the checks: each maps the report state to (residual, detail); a check with a
# verify_* helper below is documented there


def _identity(s: _ReportState) -> tuple:
    mat = s.cf()
    radii = (convergence_radius(s.spec, 0), convergence_radius(s.spec, 1))
    for z in s.z_list:
        if not 0.0 < z < 1.0:
            raise DomainError(f"probe point {z} is not in (0, 1)")
        for point, radius in zip((0, 1), radii):
            if abs(z - point) >= radius:
                raise DomainError(
                    f"probe point {z} lies outside the convergence radius "
                    f"{radius:.6g} of the series at {point}"
                )
    sol0p, sol0m, sol1p, sol1m = s.basis()
    worst = 0.0
    for z in s.z_list:
        psi1p, psi1m = evaluate(sol1p, z), evaluate(sol1m, z)
        for eps, sol0 in (("+", sol0p), ("-", sol0m)):
            lhs = evaluate(sol0, z)
            rhs = mat[eps + "+"] * psi1p + mat[eps + "-"] * psi1m
            res = abs(lhs - rhs) / abs(lhs)
            worst = max(worst, res if res == res else math.inf)  # nan: an overflowed series
    return worst, f"max over {len(s.z_list)} points x 2 signs, K={sol0p.K}"


def _determinant(s: _ReportState) -> tuple:
    return det_residual(s.cf()), "cf route"


def _agreement(route: str, s: _ReportState) -> tuple:
    """Entrywise agreement of the ``route`` matrix with the ``cf`` matrix."""
    base = s.cf()
    alt = s.matrix(route)
    worst = max(abs(base[k] - alt[k]) / abs(base[k]) for k in _KEYS)
    return worst, "entrywise vs cf"


def _monodromy(s: _ReportState) -> tuple:
    mat = s.cf()
    sigma = extract_sigma(mat, tol=s.tols["monodromy_products"])
    # extract_sigma enforces both product relations at tol; report the worse.
    relations, scale = _product_relations(mat, sigma)
    res = max(abs(prod - rhs) for prod, rhs in relations) / scale
    return res, f"sigma={sigma:.12g}"


def _sigma_slope(s: _ReportState) -> tuple:
    """``sigma_1`` of ``sigma = omega + sigma_1 lam + ..`` from the ``c_1`` of the
    sign-flipped specs (README, Monodromy), against :func:`sigma1_closed`."""
    spec = s.spec
    target = sigma1_closed(spec)
    t0, t1, om = spec.theta0, spec.theta1, spec.omega
    f = [factor for factor, _ in _gamma_factors(t0, t1, om)]
    c1 = [c_coefficients(_flip_spec(spec, s0, s1), 1)[0] for s0, s1 in _FLIPS]
    r0, delta = f[1] * f[2] / (f[0] * f[3]), c1[1] + c1[2] - c1[0] - c1[3]
    cos_gap = cmath.cos(math.tau * (t0 - t1)) - cmath.cos(math.tau * (t0 + t1))
    slope = -r0 * delta * cos_gap / ((1 - r0) ** 2 * math.tau * cmath.sin(math.tau * om))
    res = abs(slope - target) / max(1.0, abs(target))  # sigma_1 has zeros
    return res, f"jet slope {slope.real:.12g} vs closed {target.real:.12g}"


def _series_closed(s: _ReportState) -> tuple:
    forms = CLOSED_FORMS[s.spec.family]
    cs = c_coefficients(s.spec, len(forms))
    refs = (form(s.spec) for form in forms)
    worst = max(abs(got - ref) / max(1.0, abs(ref)) for got, ref in zip(cs, refs))
    return worst, f"{len(forms)} closed-form coefficient(s)"


def _che_as_he_limit(s: _ReportState, Lambda: float = _LAMBDA) -> tuple:
    che_mat = s.cf()
    he_sp = che_to_he_spec(s.spec, Lambda)
    he_mat = connection_matrix(he_sp, method="wronskian", tol=s.matrix_tol)
    worst = 0.0
    for key in _KEYS:
        worst = max(worst, abs(che_mat[key] - he_mat[key]) / abs(che_mat[key]))
    return worst, f"Lambda={Lambda:g}, HE route=wronskian"


def _reflection(s: _ReportState) -> tuple:
    spec = s.spec
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
    mat = s.cf()
    mat_r = connection_matrix(refl, method="cf", tol=s.matrix_tol)
    a, b, c, d = (mat[k] for k in _KEYS)
    det = a * d - b * c
    inv = dict(zip(_KEYS, (d / det, -b / det, -c / det, a / det)))
    mat_res = max(abs(mat_r[k] - inv[k]) / abs(inv[k]) for k in inv)
    worst = max(pot_res, ode_res, mat_res)
    return worst, f"potential {pot_res:.1e}, ode {ode_res:.1e}, matrix-vs-inverse {mat_res:.1e}"


def _tail_determinant(s: _ReportState) -> tuple:
    spec = s.spec
    val, _err = tail_determinant_limit(spec)
    target = 1.0 / (1.0 - spec.lam) if spec.family == "HE" else 1.0
    res = abs(val - target) / abs(target)
    return res, f"limit {val.real:.10g} vs closed {target:.10g}"


# The checks of ``full_report`` in report order: name, function, tolerance
# (the measured precision floor of its route at double precision), the
# families it applies to, and whether only a slow report runs it.
_CHECKS = (
    ("connection_identity", _identity, 1e-9, FAMILIES, False),
    ("determinant", _determinant, 1e-10, FAMILIES, False),
    ("method_agreement_recurrence", partial(_agreement, "recurrence"), 1e-8, FAMILIES, False),
    ("method_agreement_wronskian", partial(_agreement, "wronskian"), 1e-8, FAMILIES, False),
    ("method_agreement_ss", partial(_agreement, "ss"), 1e-8, FAMILIES, False),
    ("monodromy_products", _monodromy, 1e-8, FAMILIES, False),
    # 1e-10: 450x the worst of 600 seeded HE specs
    ("sigma_slope_vs_closed", _sigma_slope, 1e-10, ("HE",), True),
    ("series_vs_closed_forms", _series_closed, 1e-8, tuple(CLOSED_FORMS), False),
    ("che_as_he_limit", _che_as_he_limit, 1e-3, ("CHE",), True),
    ("reflection", _reflection, 1e-8, ("RCHE", "CHE"), False),
    # 1e-11: 100x the worst of 780 seeded specs
    ("tail_determinant", _tail_determinant, 1e-11, ("RCHE", "CHE", "HE"), True),
)
_TOLS = {name: tol for name, _, tol, _, _ in _CHECKS}


def verify_connection_identity(
    spec: EquationSpec,
    z_list: Sequence[float] = _Z_LIST,
    K: Optional[int] = None,
    tol: float = _TOLS["connection_identity"],
    matrix: Optional[ConnectionMatrix] = None,
) -> CheckResult:
    """Evaluate both Frobenius bases at interior points and compare
    ``psi0_eps`` against ``sum_eps' C[eps eps'] psi1_eps'`` entrywise.

    The residual is relative to ``|psi0_eps|``; the matrix defaults to the
    continued-fraction route.  ``K=None`` truncates the series as
    :func:`local_basis` does for the farthest probe point (as
    :func:`full_report` does); an integer ``K`` truncates every series there.
    An empty ``z_list`` or a point that is not a real number raises
    :class:`DomainError`; a real point outside ``(0, 1)`` or outside a
    convergence radius gives a failed result.
    """
    state = _ReportState(spec, {"connection_identity": tol}, _MATRIX_TOL, z_list, K, matrix)
    return state.run("connection_identity", _identity)


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
    spec: EquationSpec, Lambda: float = _LAMBDA, tol: float = _TOLS["che_as_he_limit"]
) -> CheckResult:
    """Compare the CHE connection matrix against the HE matrix at large
    ``Lambda``; the entrywise relative difference should be O(1/Lambda).

    The HE matrix is computed by the Wronskian route: its series evaluation
    is insensitive to the large parameters, whereas the continued-fraction
    route would need depths beyond ``Lambda`` to reach its asymptotic
    regime.
    """
    state = _ReportState(spec, {"che_as_he_limit": tol}, _MATRIX_TOL)
    return state.run("che_as_he_limit", partial(_che_as_he_limit, Lambda=Lambda))


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
    spec: EquationSpec, tol: float = _TOLS["reflection"], strict: bool = False
) -> CheckResult:
    """Certify the z -> 1-z transform end to end.

    Three residuals, reported as their max: the reflected potential equals
    the original at mirrored points; reflected Frobenius solutions satisfy
    the original equation's mirrored normal form (via their own
    ode-residual); and the reflected connection matrix equals the inverse of
    the original.  With ``strict`` a failure raises
    :class:`ReflectionMismatch` instead of returning a failed result.
    """
    result = _ReportState(spec, {"reflection": tol}, _MATRIX_TOL).run("reflection", _reflection)
    if strict and not result.passed:
        raise ReflectionMismatch(
            f"reflection check failed: residual {result.residual:.3e} "
            f"above {tol:.1e} ({result.detail})"
        )
    return result


def full_report(spec: EquationSpec, config: Optional[CheckConfig] = None) -> ValidationReport:
    """Run every check of ``_CHECKS`` applicable to the spec's family, in
    table order, on one shared state; which checks run depends only on the
    family and ``config.include_slow``.

    Failures (including parameter degeneracies raised as library errors)
    become failed entries; the call itself does not raise.
    """
    if config is None:
        config = CheckConfig()
    if config.tol is None:
        state = _ReportState(spec, _TOLS, _MATRIX_TOL)
    else:
        tols = dict.fromkeys(_TOLS, config.tol)
        state = _ReportState(spec, tols, min(_MATRIX_TOL, config.tol))
    checks = []
    for name, check, _, families, slow in _CHECKS:
        if spec.family in families and (config.include_slow or not slow):
            checks.append(state.run(name, check))
    return ValidationReport(spec=spec, checks=tuple(checks))
