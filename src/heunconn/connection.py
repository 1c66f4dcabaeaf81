"""Connection coefficients between the local solution bases at 0 and 1.

The normalized solutions satisfy ``psi0_e(z) = sum_e' C(e theta0, e' theta1)
psi1_e'(z)`` with a single two-parameter function C; the 2x2 matrix over the
sign choices has ``det C = -theta0/theta1``.  Four independent computational
routes are implemented:

* ``cf``          — backward continued-fraction evaluation of the factors
  ``eta_k`` with ``ln a_inf = sum_k ln eta_k`` (plus ``-ln(1-lam)`` for HE),
  ladder-extrapolated in the truncation order;
* ``recurrence``  — forward iteration of the rescaled three-term recurrence
  ``a_k`` with the same ladder extrapolation of the limit;
* ``ss``          — large-order asymptotics of the series coefficients,
  ``C = pref * Gamma(2 theta1) * lim_k k^(1-2 theta1) u_k``, with the
  coefficients iterated in fixed-point Gaussian integers at the working
  precision plus guard bits;
* ``wronskian``   — overlap of the truncated local series at a midpoint probe,
  ``C_{e e'} = -W(psi0_e, psi1_{-e'}) / (2 e' theta1)``.

The first three produce the scalar ``C(theta0, theta1)``; matrix entries come
from sign-flipped parameter sets.  All four agree within stated tolerances and
mutually certify each other.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from itertools import accumulate, count
from typing import Any, Optional

import mpmath as mp

from .equations import (
    EquationSpec,
    alpha_beta,
    recurrence_quadratics,
    validate,
)
from .errors import (
    BranchAmbiguity,
    CFBreakdown,
    DetCheckFailed,
    DomainError,
    MonodromyInconsistent,
    TailError,
)
from .frobenius import frobenius_series, wronskian
from .precision import (
    DOUBLE,
    HIGH,
    is_mp,
    p_exp,
    p_log,
    p_power,
    spec_to_precision,
    to_complex,
)
from .richardson import double_until_stable, extrapolate, geometric_ladder, ladder_values
from .special import gamma, log_gamma

__all__ = [
    "ConnectionMatrix",
    "METHODS",
    "fusion_cl",
    "log_a_infinity_cf",
    "connection_scalar",
    "connection_matrix",
    "wronskian_connection",
    "schafke_schmidt_connection",
    "extract_sigma",
    "tail_determinant_limit",
    "det_residual",
]

METHODS = ("cf", "recurrence", "ss", "wronskian")

_LAMBDA_GATE = 0.9
_MAX_DEPTH = 2**20
_LEVELS = 5
_SS_K = 16384


@dataclass(frozen=True)
class ConnectionMatrix:
    """2x2 connection matrix over the sign choices at 0 (rows) and 1 (cols).

    ``entries`` maps the keys ``"++", "+-", "-+", "--"`` (row sign then column
    sign) to complex values; ``depth_or_K`` records the truncation the method
    settled on; ``err_estimate`` is an a-posteriori bound on the entrywise
    error; ``precision`` is the arithmetic backend that produced it.
    """

    entries: dict
    spec: EquationSpec
    method: str
    depth_or_K: int
    err_estimate: float
    precision: str = DOUBLE

    def __getitem__(self, key: str) -> complex:
        return self.entries[key]

    def det(self) -> complex:
        return (
            self.entries["++"] * self.entries["--"]
            - self.entries["+-"] * self.entries["-+"]
        )


def det_residual(matrix: ConnectionMatrix) -> float:
    """|det C + theta0/theta1| — zero in exact arithmetic."""
    sp = matrix.spec
    return abs(matrix.det() + complex(sp.theta0) / complex(sp.theta1))


def fusion_cl(
    theta0: Any, theta1: Any, theta_inf: Any, precision: Optional[str] = None
) -> Any:
    """Gamma-ratio connection factor

    ``Gamma(1-2 theta0) Gamma(2 theta1) / [Gamma(1/2+theta1-theta0+theta_inf)
    Gamma(1/2+theta1-theta0-theta_inf)]``,

    evaluated in log-gamma form so moderate parameters never overflow.
    Raises :class:`PoleError` when any gamma argument is within 1e-12 of a
    pole (e.g. ``theta1 -> 0``).
    """
    a = 0.5 + theta1 - theta0
    s = (
        log_gamma(1 - 2 * theta0, precision)
        + log_gamma(2 * theta1, precision)
        - log_gamma(a + theta_inf, precision)
        - log_gamma(a - theta_inf, precision)
    )
    if isinstance(s, (mp.mpf, mp.mpc)):
        return mp.exp(s)
    return cmath.exp(s)


def _check_lambda_gate(spec: EquationSpec, allow_large_coupling: bool) -> None:
    if spec.family in ("RCHE", "CHE") and abs(spec.lam) > _LAMBDA_GATE:
        if not allow_large_coupling:
            raise DomainError(
                f"|lam| = {abs(spec.lam):.4g} exceeds the series gate {_LAMBDA_GATE}; "
                "pass allow_large_coupling=True to override"
            )


def _seed_buffer(lam_abs: float) -> int:
    """Backward-sweep start offset so the unit-seed error is below 1e-18.

    The backward error contracts at least like |lam| per level once the
    coefficients have saturated, so ``|lam|**B < 1e-18`` suffices.
    """
    if lam_abs <= 0.0:
        return 1
    if lam_abs >= 1.0:
        return 4000
    b = int(math.ceil(-18.0 / math.log10(lam_abs))) + 8
    return min(4000, max(24, b))


def _eta_sweep(spec: EquationSpec, k_top: int, buffer: int) -> list:
    """Backward pass of ``eta_k = 1 - lam alpha_{k-1} - lam beta_k / eta_{k+1}``
    from a unit seed at ``k_top + buffer``; returns ``[eta_1, ..., eta_k_top]``.
    """
    lam = spec.lam
    watch_branch = abs(lam) > 0.3
    one = 1.0 + 0 * spec.theta0
    eta = one
    out = [one] * k_top
    for k in range(k_top + buffer, 0, -1):
        if abs(eta) < 1e-14:
            raise CFBreakdown(f"continued-fraction denominator vanished at k = {k + 1}")
        al_prev, _ = alpha_beta(spec, k - 1)
        _, be = alpha_beta(spec, k)
        eta = 1 - lam * al_prev - lam * be / eta
        if watch_branch and complex(eta).real <= 0.0:
            raise BranchAmbiguity(
                f"eta_{k} = {complex(eta):.6g} left the right half-plane; "
                "logarithm branch tracking is ambiguous"
            )
        if k <= k_top:
            out[k - 1] = eta
    return out


def log_a_infinity_cf(
    spec: EquationSpec,
    tol: float = 1e-10,
    max_depth: int = _MAX_DEPTH,
    allow_large_coupling: bool = False,
) -> tuple[Any, int, float]:
    """``ln a_inf`` by the continued-fraction route.

    Sums ``ln eta_k`` with ladder extrapolation of the truncated sums, doubling
    the truncation until two successive extrapolations agree within ``tol``
    (plus the unit-seed bound); for HE the exact shift ``-ln(1-lam)`` is added.
    Returns ``(value, depth, err_estimate)``; raises :class:`NonConvergence`
    past ``max_depth`` and :class:`DomainError` at the coupling gate.
    """
    validate(spec)
    _check_lambda_gate(spec, allow_large_coupling)
    lam = spec.lam
    if lam == 0:
        return 0.0, 0, 0.0
    lam_abs = abs(lam)
    buffer = _seed_buffer(lam_abs)
    seed_err = lam_abs**buffer if lam_abs < 1 else 1.0

    def limit_at(k_max: int) -> tuple[Any, float]:
        logs = map(p_log, _eta_sweep(spec, k_max, buffer))
        val, err = extrapolate(*ladder_values(accumulate(logs), k_max, _LEVELS))
        return val, float(err) + seed_err

    val, k, err = double_until_stable(limit_at, 2048, tol, max_depth, "continued-fraction sum")
    if spec.family == "HE":
        val = val - p_log(1 - lam)
    return val, k, err


def _forward_iterates(spec: EquationSpec):
    """Iterates ``a_1, a_2, ...`` of ``a_{k+1} = a_k - lam (alpha_k a_k + beta_k a_{k-1})``."""
    a_km1 = 0.0
    a_k = 1.0 + 0 * spec.theta0
    for k in count():
        al, be = alpha_beta(spec, k)
        a_k, a_km1 = a_k - spec.lam * (al * a_k + be * a_km1), a_k
        yield a_k


def _recurrence_limit(
    spec: EquationSpec,
    tol: float,
    max_K: int = _MAX_DEPTH,
    allow_large_coupling: bool = False,
) -> tuple[Any, int, float]:
    """Ladder-extrapolated limit of the rescaled iterates ``a_k``.  They do not
    depend on the truncation, so the doubling rounds continue one forward sweep."""
    validate(spec)
    _check_lambda_gate(spec, allow_large_coupling)
    if spec.lam == 0:
        return 1.0, 0, 0.0
    iterates, seen = _forward_iterates(spec), {}
    return double_until_stable(
        lambda k_max: extrapolate(*ladder_values(iterates, k_max, _LEVELS, seen=seen)),
        4096, tol, max_K, "recurrence limit",
    )


def _assembly_prefactor(spec: EquationSpec) -> Any:
    """Family factor multiplying ``F_cl * a_inf`` in the connection scalar."""
    if spec.family == "CHE":
        return cmath.exp(complex(spec.lam) / 2.0)
    if spec.family == "HE":
        return p_power(1.0 - complex(spec.lam), 0.5 - complex(spec.theta_t))
    return 1.0


def _third_parameter(spec: EquationSpec) -> Any:
    return spec.theta_inf_hyp if spec.family == "HYP" else spec.omega


def _scalar_with_depth(
    spec: EquationSpec,
    method: str,
    tol: float,
    allow_large_coupling: bool,
    max_depth: int = _MAX_DEPTH,
) -> tuple[complex, float, int]:
    validate(spec)
    method = method.lower()
    work_precision = HIGH if is_mp(spec.theta0) else DOUBLE
    pref = fusion_cl(spec.theta0, spec.theta1, _third_parameter(spec), work_precision)
    if spec.family == "HYP" or spec.lam == 0:
        return to_complex(pref), 5e-15 * abs(pref), 0
    pref = pref * _assembly_prefactor(spec)
    if method == "cf":
        log_a, depth, err_l = log_a_infinity_cf(
            spec, tol=tol, max_depth=max_depth, allow_large_coupling=allow_large_coupling
        )
        val = pref * p_exp(log_a)
        return to_complex(val), float(abs(val)) * (err_l + 1e-14), depth
    if method == "recurrence":
        a_inf, depth, err_a = _recurrence_limit(
            spec, tol=tol, max_K=max_depth, allow_large_coupling=allow_large_coupling
        )
        val = pref * a_inf
        return to_complex(val), float(abs(pref)) * (float(err_a) + 1e-14), depth
    raise DomainError(
        f"connection_scalar supports methods 'cf' and 'recurrence', got {method!r}"
    )


def connection_scalar(
    spec: EquationSpec,
    method: str = "cf",
    tol: float = 1e-10,
    allow_large_coupling: bool = False,
    max_depth: int = _MAX_DEPTH,
) -> tuple[complex, float]:
    """Connection scalar ``C(theta0, theta1)`` by the ``cf`` or ``recurrence``
    route (for HYP the coupling vanishes and the gamma-ratio factor is exact).

    Returns ``(value, err_estimate)``.
    """
    val, err, _ = _scalar_with_depth(spec, method, tol, allow_large_coupling, max_depth)
    return val, err


def _flip_spec(spec: EquationSpec, s0: int, s1: int) -> EquationSpec:
    return replace(spec, theta0=s0 * spec.theta0, theta1=s1 * spec.theta1)


def _fixed_iterates(quadratics: tuple, bits: int):
    """Iterates ``u_1, u_2, ...`` of ``lead_k u_{k+1} = A_k u_k - B_k u_{k-1}``
    from ``u_0 = 1, u_{-1} = 0`` as Gaussian integers ``(re, im)`` scaled by
    ``2^bits``.  The quadratic coefficients of :func:`recurrence_quadratics`
    are scaled once; ``lead_k, A_k, B_k`` then advance by exact integer finite
    differences, and the division goes through ``conj(lead)/|lead|^2``."""
    state = []  # per quadratic: re, im of p(k), of p(k+1) - p(k), of 2 c2
    with mp.workprec(bits):
        for c0, c1, c2 in quadratics:
            for v in (c0, c1 + c2, 2 * c2):
                v = mp.mpc(v)
                state += [int(mp.nint(mp.ldexp(part, bits))) for part in (v.real, v.imag)]
    lr, li, dlr, dli, ddlr, ddli = state[:6]
    ar, ai, dar, dai, ddar, ddai = state[6:12]
    br, bi, dbr, dbi, ddbr, ddbi = state[12:]
    ur, ui, vr, vi = 1 << bits, 0, 0, 0
    while True:
        nr = (ar * ur - ai * ui - br * vr + bi * vi) >> bits
        ni = (ar * ui + ai * ur - br * vi - bi * vr) >> bits
        d = lr * lr + li * li
        vr, vi = ur, ui
        ur = ((nr * lr + ni * li) << bits) // d
        ui = ((ni * lr - nr * li) << bits) // d
        yield ur, ui
        lr, dlr, li, dli = lr + dlr, dlr + ddlr, li + dli, dli + ddli
        ar, dar, ai, dai = ar + dar, dar + ddar, ai + dai, dai + ddai
        br, dbr, bi, dbi = br + dbr, dbr + ddbr, bi + dbi, dbi + ddbi


def _ss_precision(theta1: complex, K: int) -> tuple[int, int]:
    """Working ``dps`` of the ``ss`` route and the fixed-point ``bits`` of its
    iterates: ``|u_k|`` falls to about ``k^(-1-2|Re theta1|)``, so guard bits
    keep the iterates at the working precision down to ``k = K``."""
    dps = max(30, 20 + int(4 * abs(theta1.real) * math.log10(max(K, 10))) + 10)
    guard = int((1 + 2 * abs(theta1.real)) * math.log2(max(K, 2))) + 16
    return dps, mp.libmp.dps_to_prec(dps) + guard


def _ss_scalar(spec: EquationSpec, K: int = _SS_K, levels: int = 4) -> tuple[complex, float, int]:
    """``(value, err_estimate, K)`` of :func:`schafke_schmidt_connection`; the
    estimate is the ladder's last Neville correction scaled by
    ``|Gamma(2 theta1) pref|`` plus a ``1e-15 |value|`` rounding floor."""
    validate(spec)
    th1 = complex(spec.theta1)
    if abs(2 * th1.real) >= 4.0:
        raise DomainError(
            f"large-order route needs |Re 2 theta1| < 4, got {2 * th1.real:.3g}"
        )
    dps, bits = _ss_precision(th1, K)
    with mp.workdps(dps):
        msp = spec_to_precision(spec, HIGH)
        with mp.workprec(bits):
            quadratics = recurrence_quadratics(msp, K)
        expo = 1 - 2 * msp.theta1
        gam = gamma(2 * msp.theta1, HIGH)
        pref = _assembly_prefactor(spec)

        def at_node(k, u):
            u_k = mp.mpc(mp.ldexp(u[0], -bits), mp.ldexp(u[1], -bits))
            return mp.power(k, expo) * u_k

        steps, vals = ladder_values(
            _fixed_iterates(quadratics, bits), K, levels, at_node, mp.mpf(1)
        )
        limit, corr = extrapolate(steps, vals, require_contraction=True)
        val = to_complex(gam * limit) * pref
        err = float(abs(gam * pref) * corr)
    return val, err + 1e-15 * abs(val), K


def schafke_schmidt_connection(
    spec: EquationSpec,
    K: int = _SS_K,
    levels: int = 4,
) -> complex:
    """Connection scalar from the large-order behaviour of the series
    coefficients: ``C = pref * Gamma(2 theta1) * lim_k k^(1-2 theta1) u_k``.

    The forward recurrence for ``u_k`` runs in fixed-point Gaussian integers
    at the working precision plus guard bits (the subdominant component grows
    like ``k^(4 |Re theta1|)`` relative to the limit, so binary64 iterates
    would contaminate the ladder); the limit is extrapolated in mpmath over
    the geometric ladder ``K/2^j``.  Requires ``|Re 2 theta1| < 4``.
    """
    return _ss_scalar(spec, K, levels)[0]


def wronskian_connection(
    spec: EquationSpec,
    z_probe: complex = 0.5,
    K: Optional[int] = None,
    series_tol: float = 1e-15,
) -> ConnectionMatrix:
    """All four connection entries from Wronskians of the truncated local
    solutions at a probe point:

    ``C_{e+} = -W(psi0_e, psi1_-)/(2 theta1)``,
    ``C_{e-} = +W(psi0_e, psi1_+)/(2 theta1)``.

    With ``K=None`` the truncation grows geometrically (capped at 10^4) until
    the last retained terms at the probe are below ``series_tol``.
    """
    validate(spec)
    r = max(abs(complex(z_probe)), abs(1.0 - complex(z_probe)))
    if K is None:
        K = 64
        while True:
            sols = [frobenius_series(spec, pt, sg, K) for pt in (0, 1) for sg in (1, -1)]
            worst = max(abs(s.coeffs[K]) * r**K for s in sols)
            if worst < series_tol:
                break
            if K >= 10000:
                raise TailError(
                    f"series tail {worst:.3e} at probe still above {series_tol:.1e} "
                    f"at the K = 10^4 cap"
                )
            K *= 2
    else:
        sols = [frobenius_series(spec, pt, sg, K) for pt in (0, 1) for sg in (1, -1)]
    s0p, s0m, s1p, s1m = sols
    t1 = spec.theta1
    entries = {}
    for row_sign, s0 in (("+", s0p), ("-", s0m)):
        w_minus = wronskian(s0, s1m, z_probe)
        w_plus = wronskian(s0, s1p, z_probe)
        entries[row_sign + "+"] = to_complex(-w_minus / (2 * t1))
        entries[row_sign + "-"] = to_complex(w_plus / (2 * t1))
    # Self-Wronskian defects measure the truncation quality.
    w00 = wronskian(s0p, s0m, z_probe)
    w11 = wronskian(s1p, s1m, z_probe)
    err = abs(w00 - 2 * spec.theta0) + abs(w11 + 2 * spec.theta1) + 1e-14
    return ConnectionMatrix(
        entries=entries,
        spec=spec,
        method="wronskian",
        depth_or_K=K,
        err_estimate=float(err),
    )


def connection_matrix(
    spec: EquationSpec,
    method: str = "cf",
    tol: float = 1e-10,
    allow_large_coupling: bool = False,
    det_tol_factor: float = 100.0,
    max_depth: int = _MAX_DEPTH,
) -> ConnectionMatrix:
    """2x2 connection matrix by any route, with the determinant identity
    ``det C = -theta0/theta1`` enforced at ``det_tol_factor * tol``
    (:class:`DetCheckFailed` beyond)."""
    validate(spec)
    method = method.lower()
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if method == "wronskian":
        matrix = wronskian_connection(spec)
    else:
        entries = {}
        worst = 0.0
        depth = 0
        precision = HIGH if is_mp(spec.theta0) else DOUBLE
        for s0, row in ((1, "+"), (-1, "-")):
            for s1, col in ((1, "+"), (-1, "-")):
                fspec = validate(_flip_spec(spec, s0, s1))
                if method == "ss":
                    val, err, d = _ss_scalar(fspec)
                    precision = HIGH
                else:
                    val, err, d = _scalar_with_depth(
                        fspec, method, tol, allow_large_coupling, max_depth
                    )
                depth = max(depth, d)
                entries[row + col] = val
                worst = max(worst, err)
        matrix = ConnectionMatrix(
            entries=entries,
            spec=spec,
            method=method,
            depth_or_K=depth,
            err_estimate=worst,
            precision=precision,
        )
    resid = det_residual(matrix)
    # The determinant can only be certified to the accuracy of the method
    # that produced the entries.
    det_gate = det_tol_factor * max(tol, matrix.err_estimate)
    if resid > det_gate:
        raise DetCheckFailed(
            f"|det C + theta0/theta1| = {resid:.3e} exceeds {det_gate:.1e}"
        )
    return matrix


def _product_relations(
    matrix: ConnectionMatrix, sigma: complex
) -> tuple[list[tuple[complex, complex]], float]:
    """Both sides ``(prod, rhs)`` of the product relations ``C_++ C_-- =
    -(theta0/theta1) cos pi(theta1-theta0+sigma) cos pi(theta1-theta0-sigma) /
    (sin 2pi theta0 sin 2pi theta1)`` and the same with ``theta1+theta0`` for
    ``C_+- C_-+``, and the scale ``max(|C_++ C_--|, |C_+- C_-+|)``."""
    sp = matrix.spec
    t0, t1 = complex(sp.theta0), complex(sp.theta1)
    a, b, c, d = (matrix[k] for k in ("++", "+-", "-+", "--"))
    two_pi = 2.0 * math.pi
    denom = cmath.sin(two_pi * t0) * cmath.sin(two_pi * t1)
    cos, pi = cmath.cos, math.pi
    relations = [
        (prod, -(t0 / t1) * cos(pi * (base + sigma)) * cos(pi * (base - sigma)) / denom)
        for prod, base in ((a * d, t1 - t0), (b * c, t1 + t0))
    ]
    return relations, max(abs(a * d), abs(b * c), 1e-300)


def extract_sigma(matrix: ConnectionMatrix, tol: float = 1e-8) -> complex:
    """Composite-monodromy exponent sigma from the connection entries.

    Uses ``cos 2 pi sigma = [bc cos 2pi(theta0-theta1) - ad cos 2pi(theta0+theta1)]
    / (ad - bc)`` with ``(a,b,c,d) = (C_++, C_+-, C_-+, C_--)``, fixes the
    branch to ``Re sigma in [0, 1)`` with ``Im sigma >= 0`` as tie-break, and
    cross-checks both product relations (see :func:`_product_relations`); a
    relative violation beyond ``tol`` raises :class:`MonodromyInconsistent`.
    """
    sp = matrix.spec
    t0, t1 = complex(sp.theta0), complex(sp.theta1)
    a, b, c, d = (matrix[k] for k in ("++", "+-", "-+", "--"))
    det = a * d - b * c
    two_pi = 2.0 * math.pi
    cos_diff = cmath.cos(two_pi * (t0 - t1))
    cos_sum = cmath.cos(two_pi * (t0 + t1))
    cos_2pi_sigma = (b * c * cos_diff - a * d * cos_sum) / det
    sigma = cmath.acos(cos_2pi_sigma) / two_pi
    if sigma.imag < 0.0:
        sigma = 1.0 - sigma
    sigma = complex(sigma.real % 1.0, sigma.imag)
    relations, scale = _product_relations(matrix, sigma)
    for prod, rhs in relations:
        if abs(prod - rhs) > tol * scale:
            raise MonodromyInconsistent(
                f"product relation violated: |{prod:.8g} - {rhs:.8g}| "
                f"= {abs(prod - rhs):.3e} > {tol:.1e} * {scale:.3g}"
            )
    return sigma


def tail_determinant_limit(
    spec: EquationSpec,
    N: int = 10000,
    levels: int = 4,
) -> tuple[complex, float]:
    """Limit of the tail determinants ``D_{N+1}`` of the semi-infinite
    tridiagonal system as ``N -> infinity``.

    ``D_{N+1}`` is the determinant of the system restricted to rows ``k > N``;
    its truncations obey ``P_m = (1 - lam alpha_{N+m-1}) P_{m-1}
    - lam beta_{N+m-1} P_{m-2}`` and converge geometrically in ``m``
    (characteristic roots 1 and ``lam``), so a fixed row count suffices; the
    residual ``N``-dependence is algebraic and is removed over the ladder
    ``{N/2^j}``.  For HE the limit is ``1/(1-lam)``; for RCHE/CHE it is 1.
    """
    validate(spec)
    lam = spec.lam
    if lam == 0:
        return 1.0 + 0j, 0.0
    lam_abs = min(abs(lam), 0.95)
    rows = max(96, int(52.0 / -math.log10(lam_abs)) + 64) if lam_abs > 0 else 96
    nodes = geometric_ladder(N, levels)
    vals = []
    for n_j in nodes:
        p_mm2 = 1.0 + 0 * spec.theta0
        al, _ = alpha_beta(spec, n_j)
        p_mm1 = 1 - lam * al
        for m in range(2, rows + 1):
            al, be = alpha_beta(spec, n_j + m - 1)
            p_mm1, p_mm2 = (1 - lam * al) * p_mm1 - lam * be * p_mm2, p_mm1
        vals.append(p_mm1)
    limit, err = extrapolate([1.0 / n for n in nodes], vals)
    return to_complex(limit), float(err)
