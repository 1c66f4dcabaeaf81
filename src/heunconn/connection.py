"""Connection coefficients between the local solution bases at 0 and 1.

The normalized solutions satisfy ``psi0_e(z) = sum_e' C(e theta0, e' theta1)
psi1_e'(z)`` with a single two-parameter function C; the 2x2 matrix over the
sign choices has ``det C = -theta0/theta1``.  Four independent computational
routes are implemented:

* ``cf``          — backward continued-fraction evaluation of the factors
  ``eta_k`` with ``ln a_inf = sum_k ln eta_k`` (plus ``-ln(1-lam)`` for HE),
  summed to a depth ``K``, plus ``ln S(K+1)`` for the rest, ``S`` the
  formal ``1/k`` series of the tail determinants ``D_k``, ``eta_k = D_k /
  D_{k+1}``;
* ``recurrence``  — forward iteration of the rescaled three-term recurrence
  to ``a_K``, divided by the formal ``1/K`` series of ``a_K / a_inf``;
* ``ss``          — large-order asymptotics of the series coefficients,
  ``C = pref * Gamma(2 theta1) * lim_k k^(1-2 theta1) u_k``, with the
  coefficients iterated to a depth ``K`` in fixed-point Gaussian integers at
  the working precision plus guard bits, from recurrence coefficients formed
  exactly from the parameters, and divided by their own formal ``1/K``
  series;
* ``wronskian``   — overlap of the truncated local series at a midpoint probe,
  ``C_{e e'} = -W(psi0_e, psi1_{-e'}) / (2 e' theta1)``.

The first three produce the scalar ``C(theta0, theta1)``; matrix entries come
from sign-flipped parameter sets.  Their depths and formal series come from
:mod:`heunconn.tails`, one kernel run on each route's own recurrence, so
they share no tail coefficient.  All four agree within stated tolerances
and mutually certify each other.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass
from itertools import accumulate, islice, repeat, tee
from operator import mul
from typing import Any, Iterator, Sequence

from .equations import (
    METHODS, EquationSpec, _check_resonance, _quadratic_parts, _third_parameter,
)
from .errors import (
    CFBreakdown,
    DetCheckFailed,
    DomainError,
    MonodromyInconsistent,
    NonConvergence,
)
from .precision import (
    DOUBLE,
    HIGH,
    is_mp,
    p_exp,
    p_log,
    p_log1p,
    p_power,
)
from .special import _real_log_gamma, log_gamma
from .tails import (
    EPS64, a_space, d_space, formal_tail, inverse_depth, is_mp_spec, log_second_mode, sum_tail,
    summed_tail, tail_depth, u_space, unit_roundoff,
)

__all__ = [
    "ConnectionMatrix",
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

_LAMBDA_GATE = 0.9
_MAX_DEPTH = 2**20
_DET_FACTOR = 100.0  # determinant gate, in units of the matrix's accuracy
_PROBE = 0.5  # matching point of the wronskian route
_PROBE_REACH = max(abs(_PROBE), abs(1.0 - _PROBE))  # of the route's local basis
# Relative error of the binary64 fusion_cl factor away from gamma poles.  Real
# parameters take the real-line log-gamma (at most 3.4e-15 on 3000 seeded
# triples), complex ones the rational kernel in log form (at most 5.5e-15 on
# 3000 seeded triples with |Im| <= 0.2).  One floor serves both until each
# path has its own (ROADMAP item 15).
_PREF_ERR = 1e-13
# Roundings per row of a binary64 sweep (_sweep_floor).  Against the same
# forward and eta sweeps in mpmath at 40 digits (tools/sweep_roundings.py),
# the worst was 1.3 per row on 200 seeded specs per family, half complex, and
# 5.6 (HE; CHE 1.9) on 150 per family where a root of Q_k lies within 0.036
# of an integer, from the large rows next to that root.
_SWEEP_ROUNDINGS = 8
# Sign flips (s0, s1) of (theta0, theta1) and their matrix keys, row by row.
_FLIPS = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_KEYS = ("++", "+-", "-+", "--")
# Imaginary part of a real cos 2 pi sigma, in units of EPS64 times its terms:
# 10x the worst of the four routes' matrices of 240 seeded real specs (1.7).
_SIGMA_REAL_ULPS = 16


@dataclass(frozen=True)
class ConnectionMatrix:
    """2x2 connection matrix over the sign choices at 0 (rows) and 1 (cols).

    ``entries`` maps the keys ``"++", "+-", "-+", "--"`` (row sign then column
    sign) to complex values; ``depth_or_K`` records the truncation the method
    settled on; ``err_estimate`` is an a-posteriori bound on the entrywise
    error for ``cf``, ``recurrence`` and ``ss``, and for ``wronskian`` the
    self-Wronskian defect of the local basis, which measures its truncation
    but is no bound (on 1 of 60 scan-pool specs the error exceeds it 1.5-fold).
    """

    entries: dict
    spec: EquationSpec
    method: str
    depth_or_K: int
    err_estimate: float

    @property
    def precision(self) -> str:
        """The arithmetic that produced the matrix: ``"high"`` for ``ss``,
        which runs in mpmath at every spec, and for an mpmath spec, else
        ``"double"``."""
        return HIGH if self.method == "ss" or is_mp_spec(self.spec) else DOUBLE

    def __getitem__(self, key: str) -> complex:
        return self.entries[key]

    def det(self) -> complex:
        return self["++"] * self["--"] - self["+-"] * self["-+"]


def det_residual(matrix: ConnectionMatrix) -> float:
    """|det C + theta0/theta1| — zero in exact arithmetic."""
    sp = matrix.spec
    return abs(matrix.det() + complex(sp.theta0) / complex(sp.theta1))


def fusion_cl(theta0: Any, theta1: Any, theta_inf: Any) -> Any:
    """Gamma-ratio connection factor

    ``Gamma(1-2 theta0) Gamma(2 theta1) / [Gamma(1/2+theta1-theta0+theta_inf)
    Gamma(1/2+theta1-theta0-theta_inf)]``,

    evaluated in log-gamma form so moderate parameters never overflow.
    Raises :class:`PoleError` when any gamma argument is within 1e-12 of a
    pole (e.g. ``theta1 -> 0``), and :class:`DomainError` when a binary64
    value leaves the binary64 range.
    """
    return next(_gamma_factors(theta0, theta1, theta_inf, (1,)))[0]


def _pole_ulps(z: Any) -> Any:
    """Roundings of the gamma argument ``z`` in the value: ``|z| / dist(z,
    poles)`` where ``Re z < 1/2``, else 1."""
    return abs(z) / abs(z - round(z.real)) if z.real < 0.5 else 1.0


def _gamma_factors(
    theta0: Any, theta1: Any, x: Any, signs: Sequence[int] = (1, -1)
) -> Iterator[tuple[Any, float]]:
    """``(fusion_cl(s0 theta0, s1 theta1, x), bound)`` for the sign flips
    ``(s0, s1)`` of ``signs``, row by row (:data:`_FLIPS`); ``bound`` is the
    factor's relative error bound at its unit roundoff ``eps``: ``_PREF_ERR``
    scaled from binary64, plus ``eps |z| / dist(z, poles)`` for each gamma
    argument ``z``, the rounding of ``z`` magnified near a pole (1 where
    ``Re z >= 1/2``).

    The log-gammas of ``1 - 2 s0 theta0`` and ``2 s1 theta1`` are shared
    along the rows and columns, so the four flips of a matrix take 12 of
    them, not 16.  Each factor is formed as it is drawn, so an argument at a
    gamma pole raises where that flip's ``fusion_cl`` call would, after the
    work done on the flips before it.  Where ``theta0``, ``theta1`` and
    ``x`` are floats, each factor is the sign times the exponential of a
    float sum of real log-gammas (:func:`_real_log_gamma`), a ``complex``
    with imaginary part 0.  A binary64 factor outside the binary64 range
    raises :class:`DomainError`."""
    real = isinstance(theta0, float) and isinstance(theta1, float) and isinstance(x, float)
    high = not real and (is_mp(theta0) or is_mp(theta1) or is_mp(x))  # an mpmath factor
    lgam, eps = (_real_log_gamma if real else log_gamma), unit_roundoff(high)
    theta1s, cols = [s * theta1 for s in signs], []
    for i, t0 in enumerate(s * theta0 for s in signs):
        z0 = 1 - 2 * t0
        lg0, u0 = lgam(z0), _PREF_ERR / EPS64 + _pole_ulps(z0)
        for j, t1 in enumerate(theta1s):
            if i == 0:  # the first row forms each column's log-gamma in flip order
                z1 = 2 * t1
                cols.append((lgam(z1), _pole_ulps(z1)))
            lg1, u1 = cols[j]
            a = 0.5 + t1 - t0
            zp, zm = a + x, a - x
            lgp, lgm = lgam(zp), lgam(zm)
            ulps = u0 + u1 + _pole_ulps(zp) + _pole_ulps(zm)
            try:
                if real:  # (ln |Gamma|, k): Gamma has the sign (-1)^k
                    val = math.exp(lg0[0] + lg1[0] - lgp[0] - lgm[0])
                    val = complex(-val if (lg0[1] + lg1[1] + lgp[1] + lgm[1]) & 1 else val)
                else:
                    val = p_exp(lg0 + lg1 - lgp - lgm)
            except OverflowError:
                val = math.inf
            if not (high or cmath.isfinite(val)):
                raise DomainError(f"fusion_cl({t0!r}, {t1!r}, {x!r}) is outside the binary64 range")
            yield val, float(eps * ulps)


def _check_tol_arg(tol: Any) -> None:
    """A nan ``tol`` would pass every estimate (``inf`` turns the check off)."""
    # float and int first: they skip the slower check against the ABC
    if not isinstance(tol, (float, int, numbers.Real)) or tol != tol:
        raise DomainError(f"tol must be a real number other than nan, got {tol!r}")


def _method_name(method: Any) -> str:
    if not isinstance(method, str):
        raise DomainError(f"method must be a string, got {method!r}")
    return method.lower()


def _check_lambda_gate(spec: EquationSpec, allow_large_coupling: bool) -> None:
    """The opt-in gate of the ``cf`` and ``recurrence`` routes: RCHE or CHE
    ``|lam| > 0.9`` raises :class:`DomainError` unless ``allow_large_coupling``."""
    if not allow_large_coupling and spec.family in ("RCHE", "CHE") and abs(spec.lam) > _LAMBDA_GATE:
        raise DomainError(
            f"|lam| = {abs(spec.lam):.4g} exceeds the series gate {_LAMBDA_GATE}; "
            "pass allow_large_coupling=True to override"
        )


def _sweep_rows(spec: EquationSpec) -> tuple:
    """Constants of the sweeps' rows ``lam alpha_k = -lam R_k / Q_k`` and ``lam
    beta_k = lam P_k k (k - 2 theta0) / (Q_k Q_{k-1})``, with ``R`` and ``P``
    from :func:`_quadratic_parts` and ``Q_k = (k + a - x)(k + a + x)``, ``a =
    1/2 - theta0 + theta1``: ``(a - x, a + x, 2 theta0, lam R, lam P)``, the
    last two as triples ``(c0, c1, c2)``."""
    _, _, r, p = _quadratic_parts(spec)
    a, x, lam = 0.5 - spec.theta0 + spec.theta1, spec.omega, spec.lam
    return a - x, a + x, 2 * spec.theta0, [lam * c for c in r], [lam * c for c in p]


def _eta_sweep(spec: EquationSpec, k_top: int, seed: Any) -> list:
    """Backward pass of ``eta_k = 1 - lam alpha_{k-1} - lam beta_k / eta_{k+1}``
    from ``eta_{k_top+1} = seed`` down to ``k = 1``; returns ``[eta_1, ...,
    eta_k_top]``, each row formed in the loop (:func:`_sweep_rows`); every
    ``eta_k`` is 1 at ``lam = 0``, HYP included.
    """
    if spec.lam == 0:
        return [1.0] * k_top
    _check_resonance(spec, 0, k_top + 1)
    am, ap, two_t0, (r0, r1, r2), (p0, p1, p2) = _sweep_rows(spec)
    eta, out = seed, []
    q = (k_top + am) * (k_top + ap)
    # Float indices: without int operands CPython takes its float fast path.
    for k in map(float, range(k_top, 0, -1)):
        if abs(eta) < 1e-14:
            raise CFBreakdown(f"continued-fraction denominator vanished at k = {int(k) + 1}")
        j = k - 1.0
        qm = (j + am) * (j + ap)
        beta = (p0 + k * (p1 + k * p2)) * k * (k - two_t0) / (q * eta)
        eta = 1.0 + (r0 + j * (r1 + j * r2) - beta) / qm
        out.append(eta)
        q = qm
    out.reverse()
    return out


def log_a_infinity_cf(
    spec: EquationSpec,
    tol: float = 1e-10,
    max_depth: int = _MAX_DEPTH,
    allow_large_coupling: bool = False,
) -> tuple[Any, int, float]:
    """A logarithm of ``a_inf`` by the continued-fraction route: ``sum_{k<=K}
    Log eta_k + log1p(S(K+1) - 1)``, and ``- Log(1 - lam)`` for HE, in
    principal logarithms.  Its exponential is ``a_inf``; once some ``eta_k``
    leaves the right half-plane it can differ by ``2 pi i m`` from the
    continuation of ``ln a_inf`` in ``lam``.

    ``prod_{k>K} eta_k = S(K+1)``, ``eta_k = D_k / D_{k+1}`` with ``D_k`` the
    tail determinants and ``S`` their formal ``1/k`` series
    (:func:`d_space`), summed without its leading 1 to working precision.
    The same series seeds one backward sweep for ``eta_1 .. eta_K`` with
    ``eta_{K+1} = S(K+1) / S(K+2)``.  ``K`` comes from :func:`tail_depth`.
    The error estimate, the relative error of ``a_inf`` that ``tol`` bounds,
    is the last terms of ``S(K+1)`` (:func:`sum_tail`) and
    :func:`_sweep_floor`, which charges the seed's error, the last terms of
    both sums, as a rounding of the top row.
    Returns ``(value, K, err_estimate)``; raises :class:`NonConvergence` when
    ``K`` exceeds ``max_depth`` or the estimate exceeds ``tol``, and
    :class:`DomainError` at the coupling gate.
    """
    _check_tol_arg(tol)
    _check_lambda_gate(spec, allow_large_coupling)
    val, rel, K = _cf_limit(spec, tol, max_depth)
    return val, K, rel


def _cf_limit(spec: EquationSpec, tol: float, max_depth: int) -> tuple[Any, float, int]:
    """``(value, rel, K)`` of :func:`log_a_infinity_cf` of a valid spec."""
    lam = spec.lam
    if lam == 0:
        return 0.0, 0.0, 0
    what = "continued-fraction sum"
    mp_spec = is_mp_spec(spec)
    eps = unit_roundoff(mp_spec)
    K = tail_depth(spec, eps, max_depth, what)
    # The terms of S(K+1) - 1, and times ((K+1)/(K+2))^n those of S(K+2) - 1
    terms = islice(formal_tail(d_space(spec), lam, 0, inverse_depth(spec, K + 1)), 1, None)
    terms, shifted = tee(terms)
    ratio = (K + 1) * inverse_depth(spec, K + 2)
    rest, omitted = sum_tail(terms, eps, False, what)
    rest2, omitted2 = sum_tail(map(mul, shifted, accumulate(repeat(ratio), mul)), eps, False, what)
    rel, rel2 = omitted / float(abs(1 + rest)), omitted2 / float(abs(1 + rest2))
    if mp_spec:
        from mpmath import log
    else:
        log = cmath.log
    total = sum(map(log, _eta_sweep(spec, K, (1 + rest) / (1 + rest2))))
    err = rel + _sweep_floor(spec, K, eps, rel + rel2)
    _check_tol(err, tol, K, what)
    val = total + p_log1p(rest)
    if spec.family == "HE":
        val = val - p_log(1 - lam)
    return val, err, K


def _sweep_floor(spec: EquationSpec, K: int, eps: float, seed_err: float = 0.0) -> float:
    """Relative error a sweep to depth ``K`` leaves besides its tail: the
    second solution (:func:`log_second_mode`) and ``_SWEEP_ROUNDINGS``
    roundings per row, plus ``seed_err``, the relative error of the cf
    sweep's seed, which enters its top row as a rounding does.  Each row
    passes on about ``lam beta_k`` of an error ``d``: at most about
    ``|lam|/k`` for RCHE and CHE, but ``lam`` for HE, where ``d`` reaches the
    limit as ``d / (1 - lam)``, so there the sum is divided by ``|1 - lam|``."""
    rounding = _SWEEP_ROUNDINGS * K * eps + seed_err
    if spec.family == "HE":
        rounding /= abs(1 - complex(spec.lam))
    return math.exp(log_second_mode(spec, K)) + rounding


def _check_tol(err: float, tol: float, K: int, what: str) -> None:
    if err > tol:
        raise NonConvergence(
            f"{what} error estimate {err:.1e} at depth K = {K} is above tol = {tol:.1e}"
        )


def _forward_sweep(spec: EquationSpec, start: int, stop: int) -> Any:
    """``a_stop`` of ``a_{k+1} = a_k - lam (alpha_k a_k + beta_k a_{k-1})`` from
    ``a_start = 1``, ``a_{start-1} = 0``: the determinant of rows ``start ..
    stop-1``, each formed in the loop (:func:`_sweep_rows`); 1 at ``lam = 0``."""
    a_k = 1.0 + 0 * spec.theta0
    if spec.lam == 0 or stop <= start:
        return a_k
    _check_resonance(spec, start, stop)
    am, ap, two_t0, (r0, r1, r2), (p0, p1, p2) = _sweep_rows(spec)
    # The first row's beta meets a_{start-1} = 0.
    k = float(start)
    q = (k + am) * (k + ap)
    a_k, a_km1 = a_k + (r0 + k * (r1 + k * r2)) * a_k / q, a_k
    for k in map(float, range(start + 1, stop)):
        qm, q = q, (k + am) * (k + ap)
        beta = (p0 + k * (p1 + k * p2)) * k * (k - two_t0) * a_km1 / qm
        a_k, a_km1 = a_k + ((r0 + k * (r1 + k * r2)) * a_k - beta) / q, a_k
    return a_k


def _recurrence_limit(
    spec: EquationSpec, tol: float, max_K: int = _MAX_DEPTH
) -> tuple[Any, float, int]:
    """``(a_inf, rel, K)``: ``a_inf = a_K / S(K)`` from one forward sweep of
    the rescaled recurrence to ``a_K`` and its formal solution ``S``
    (:func:`a_space`) summed to working precision, for a valid spec with
    ``lam != 0``.  ``rel``, the relative error estimate that ``tol`` bounds,
    is the last terms of ``S`` (:func:`sum_tail`) and :func:`_sweep_floor`;
    :func:`_entry` floors it at the sweep's O(1) iterates."""
    what = "recurrence limit"
    eps = unit_roundoff(is_mp_spec(spec))
    K = tail_depth(spec, eps, max_K, what)
    total, omitted = summed_tail(spec, a_space, K, what)
    a_inf = _forward_sweep(spec, 0, K) / total
    rel = omitted / float(abs(total)) + _sweep_floor(spec, K, eps)
    _check_tol(rel, tol, K, what)
    return a_inf, rel, K


def _assembly_prefactor(spec: EquationSpec) -> Any:
    """Family factor multiplying ``F_cl * a_inf`` in the connection scalar."""
    if spec.family == "CHE":
        return p_exp(spec.lam / 2)
    if spec.family == "HE":
        return p_power(1 - spec.lam, 0.5 - spec.theta_t)
    return 1.0


def _entry(
    factor: Any, factor_err: float, spec: EquationSpec, method: str, tol: float, max_depth: int
) -> tuple[complex, float, int]:
    """``(value, err_estimate, K)`` of the connection scalar of a valid spec
    past the gate with the gamma-ratio factor ``factor`` of its parameters,
    whose relative error bound is ``factor_err`` (:func:`_gamma_factors`):
    ``factor`` itself at ``lam = 0`` (HYP included), where only the coupling
    of ``spec`` is read, else ``factor`` times the family prefactor times the
    amplitude ``a_inf`` by ``method``, ``"cf"`` or ``"recurrence"``."""
    # The factor's own error and the final rounding of the value to binary64.
    rel_err = factor_err + EPS64
    if spec.lam == 0:
        return complex(factor), rel_err * float(abs(factor)), 0
    pref = factor * _assembly_prefactor(spec)
    if method == "cf":
        log_a, rel, depth = _cf_limit(spec, tol, max_depth)
        a_inf = p_exp(log_a)
    else:
        a_inf, rel, depth = _recurrence_limit(spec, tol, max_depth)
    val = pref * a_inf
    # The route's relative estimate, scaled once by the larger of |value| and
    # |pref|: near a zero of the amplitude the sweep's rounding stays at the
    # size of its O(1) iterates.
    scale = max(abs(val), abs(pref))
    return complex(val), float(scale) * (float(rel) + rel_err), depth


def connection_scalar(
    spec: EquationSpec,
    method: str = "cf",
    tol: float = 1e-10,
    allow_large_coupling: bool = False,
    max_depth: int = _MAX_DEPTH,
) -> tuple[complex, float]:
    """Connection scalar ``C(theta0, theta1)`` by the ``cf`` or ``recurrence``
    route (for HYP the coupling vanishes and the gamma-ratio factor is exact).

    Returns ``(value, err_estimate)``; ``tol`` bounds the relative error
    estimate of ``a_inf``.  RCHE or CHE ``|lam| > 0.9`` raises
    :class:`DomainError` unless ``allow_large_coupling``.
    """
    _check_tol_arg(tol)
    method = _method_name(method)
    _check_lambda_gate(spec, allow_large_coupling)
    if method not in ("cf", "recurrence"):
        raise DomainError(
            f"connection_scalar supports methods 'cf' and 'recurrence', got {method!r}"
        )
    factor = next(_gamma_factors(spec.theta0, spec.theta1, _third_parameter(spec), (1,)))
    val, err, _ = _entry(*factor, spec, method, tol, max_depth)
    return val, err


def _flip_spec(spec: EquationSpec, s0: int, s1: int) -> EquationSpec:
    # The constructor, in field order: half the time of dataclasses.replace.
    return EquationSpec(
        spec.family, s0 * spec.theta0, s1 * spec.theta1, spec.lam, spec.omega,
        spec.theta_t, spec.theta_inf, spec.theta_star, spec.theta_inf_hyp,
    )


def _ss_precision(theta1: complex, K: int) -> tuple[int, int]:
    """Working ``dps`` of the ``ss`` route and the fixed-point ``bits`` of its
    iterates: ``|u_k|`` falls to about ``k^(-1-2|Re theta1|)``, so guard bits
    keep the iterates at the working precision down to ``k = K``."""
    import mpmath as mp

    dps = max(30, 20 + int(4 * abs(theta1.real) * math.log10(max(K, 10))) + 10)
    guard = int((1 + 2 * abs(theta1.real)) * math.log2(max(K, 2))) + 16
    return dps, mp.libmp.dps_to_prec(dps) + guard


def _ss_scalar(
    spec: EquationSpec, tol: float = math.inf, max_depth: int = _MAX_DEPTH
) -> tuple[complex, float, int]:
    """``(value, rel, K)`` of :func:`schafke_schmidt_connection`, ``rel``
    the relative error estimate of ``value``, the sum of:

    * the omitted tail terms (:func:`sum_tail`);
    * the second solution (:func:`log_second_mode`);
    * the fixed-point rounding, ``K`` units of the working ``dps``;
    * the binary64 tail's rounding, ``2 eps / |1 - B_2|``: the divisor
      ``n (1 - B_2)`` of :func:`formal_tail` magnifies the rounding of each
      residual.

    Raises :class:`NonConvergence` when ``rel`` is above ``tol``, as
    :func:`log_a_infinity_cf` judges its estimate.  Any ``theta1`` is
    served, as the depth, the tail and the precision (:func:`_ss_precision`)
    follow ``theta1`` itself."""
    from .fixedpoint import amplitude, exact_quadratics, fixed_iterates

    what = "large-order amplitude"
    # The root 2 theta0 - 1 of lead_k joins the roots of Q_k in the reach.
    K = tail_depth(spec, EPS64, max_depth, what, abs(2 * complex(spec.theta0) - 1))
    # The tail's terms first grow like (|x|^2 / 2K)^n / n!, so K >= |x|^2 / 2.
    K = max(K, math.ceil(abs(complex(_third_parameter(spec))) ** 2 / 2))
    if K > max_depth:
        raise NonConvergence(f"{what} needs depth K = {K}, above max_depth = {max_depth}")
    dps, bits = _ss_precision(complex(spec.theta1), K)
    quadratics, exact = exact_quadratics(spec, K)
    u_K = next(islice(fixed_iterates(quadratics, bits), K - 1, None))
    rho = 2 * exact.theta1 - 1
    terms = formal_tail(u_space(quadratics), 0, complex(rho), 1.0 / K)
    total, omitted = sum_tail(terms, EPS64, True, what)
    val = amplitude(exact, rho, u_K, bits, K) / total
    b2 = complex(quadratics[2][2])
    rel = (
        omitted / abs(total)
        + math.exp(log_second_mode(spec, K))
        + K * 10.0**-dps
        + 2 * EPS64 / abs(1 - b2)
    )
    _check_tol(rel, tol, K, what)
    return val, rel, K


def schafke_schmidt_connection(spec: EquationSpec) -> complex:
    """Connection scalar from the large-order behaviour of the series
    coefficients: ``C = pref * Gamma(2 theta1) * lim_k k^(1-2 theta1) u_k``.

    The forward recurrence for ``u_k`` runs once to a depth ``K`` chosen from
    the spec (:func:`tail_depth` at binary64, with the root ``2 theta0 - 1``
    of ``lead_k`` in the reach) in fixed-point Gaussian integers at the
    working precision plus guard bits (the iterates fall like
    ``k^(-1-2 |Re theta1|)``), from recurrence coefficients formed exactly
    from the parameters' binary mantissas and exponents
    (:mod:`heunconn.fixedpoint`).  The limit is ``u_K / (K^rho S(K))`` with
    ``rho = 2 theta1 - 1`` and ``S`` the recurrence's formal ``1/k`` series in
    u-space (:func:`u_space`), summed in binary64 to the unit roundoff.  No
    mpmath context is read or set: the gamma function and ``K^rho`` take an
    explicit precision.  Every valid spec is served, at any ``theta1`` and
    without the coupling gate of the ``cf`` and ``recurrence`` routes.
    """
    return _ss_scalar(spec)[0]


def wronskian_connection(spec: EquationSpec) -> ConnectionMatrix:
    """All four connection entries from Wronskians of the truncated local
    solutions at a probe point:

    ``C_{e+} = -W(psi0_e, psi1_-)/(2 theta1)``,
    ``C_{e-} = +W(psi0_e, psi1_+)/(2 theta1)``

    at ``z = 1/2``, with the truncation of :func:`local_basis` at reach 1/2.
    """
    from .frobenius import local_basis

    return _wronskian_matrix(spec, local_basis(spec, _PROBE_REACH))


def _wronskian_matrix(spec: EquationSpec, basis: list) -> ConnectionMatrix:
    """:func:`wronskian_connection` from its local basis."""
    from .frobenius import value_and_deriv

    (a0p, d0p), (a0m, d0m), (a1p, d1p), (a1m, d1m) = (value_and_deriv(s, _PROBE) for s in basis)
    t1 = spec.theta1
    entries = {}
    for row_sign, a0, d0 in (("+", a0p, d0p), ("-", a0m, d0m)):
        w_minus = a0 * d1m - d0 * a1m
        w_plus = a0 * d1p - d0 * a1p
        entries[row_sign + "+"] = complex(-w_minus / (2 * t1))
        entries[row_sign + "-"] = complex(w_plus / (2 * t1))
    # Self-Wronskian defects measure the truncation quality.
    w00 = a0p * d0m - d0p * a0m
    w11 = a1p * d1m - d1p * a1m
    err = abs(w00 - 2 * spec.theta0) + abs(w11 + 2 * spec.theta1) + 1e-14
    return ConnectionMatrix(entries, spec, "wronskian", basis[0].K, float(err))


def _wronskian_of_basis(spec: EquationSpec, basis: list, tol: float) -> ConnectionMatrix:
    """``connection_matrix(spec, "wronskian", tol)`` from a basis of
    :func:`local_basis` built for a reach of at least 1/2: cut to the
    route's own truncation (:func:`truncated_basis`), it gives the same
    matrix."""
    from .frobenius import truncated_basis

    return _det_gate(_wronskian_matrix(spec, truncated_basis(basis, _PROBE_REACH)), tol)


def connection_matrix(
    spec: EquationSpec,
    method: str = "cf",
    tol: float = 1e-10,
    allow_large_coupling: bool = False,
    max_depth: int = _MAX_DEPTH,
) -> ConnectionMatrix:
    """2x2 connection matrix by any route, with the determinant identity
    ``det C = -theta0/theta1`` enforced at ``100 max(tol, err_estimate)``
    (:class:`DetCheckFailed` beyond).

    By ``cf`` and ``recurrence`` the entry ``C(s0 theta0, s1 theta1)`` is
    the gamma-ratio factor ``fusion_cl(s0 theta0, s1 theta1, x)``, all four
    from one pass of 12 log-gammas (:func:`_gamma_factors`), times, where
    ``lam != 0``, the family prefactor and the amplitude ``a_inf`` of the
    flipped spec; at ``lam = 0`` (HYP included) the factors are the entries
    and no flipped spec is built.  ``ss`` and ``wronskian`` take no factor
    from that pass.  ``tol`` bounds each sweeping route's relative error
    estimate of its own value (``a_inf``, or the ``ss`` entry)."""
    _check_tol_arg(tol)
    method = _method_name(method)
    if method not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if method == "wronskian":
        return _det_gate(wronskian_connection(spec), tol)
    if method == "ss":
        scalars = (_ss_scalar(_flip_spec(spec, s0, s1), tol, max_depth) for s0, s1 in _FLIPS)
        # Absolute, with a 1e-15 floor for the assembly's roundings
        results = ((val, abs(val) * (rel + 1e-15), K) for val, rel, K in scalars)
    else:
        _check_lambda_gate(spec, allow_large_coupling)
        factors = _gamma_factors(spec.theta0, spec.theta1, _third_parameter(spec))
        # At lam = 0 the factors are the entries, and no flipped spec is built.
        coupled = spec.lam != 0
        results = (
            _entry(factor, factor_err, _flip_spec(spec, s0, s1) if coupled else spec,
                   method, tol, max_depth)
            for (s0, s1), (factor, factor_err) in zip(_FLIPS, factors)
        )
    entries, worst, depth = {}, 0.0, 0
    for key, (val, err, d) in zip(_KEYS, results):
        entries[key] = val
        worst = max(worst, err)
        depth = max(depth, d)
    return _det_gate(ConnectionMatrix(entries, spec, method, depth, worst), tol)


def _det_gate(matrix: ConnectionMatrix, tol: float) -> ConnectionMatrix:
    """The matrix, once ``|det C + theta0/theta1|`` is within ``_DET_FACTOR
    max(tol, err_estimate)``: the determinant can only be certified to the
    accuracy of the method that produced the entries.  Raises
    :class:`DetCheckFailed` beyond."""
    resid = det_residual(matrix)
    det_gate = _DET_FACTOR * max(tol, matrix.err_estimate)
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
    a, b, c, d = (matrix[k] for k in _KEYS)
    denom = cmath.sin(math.tau * t0) * cmath.sin(math.tau * t1)
    cos, pi = cmath.cos, math.pi
    relations = [
        (prod, -(t0 / t1) * cos(pi * (base + sigma)) * cos(pi * (base - sigma)) / denom)
        for prod, base in ((a * d, t1 - t0), (b * c, t1 + t0))
    ]
    return relations, max(abs(a * d), abs(b * c), 1e-300)


def extract_sigma(matrix: ConnectionMatrix, tol: float = 1e-8) -> complex:
    """Composite-monodromy exponent sigma from the connection entries.

    Uses ``cos 2 pi sigma = [bc cos 2pi(theta0-theta1) - ad cos 2pi(theta0+theta1)]
    / (ad - bc)`` with ``(a,b,c,d) = (C_++, C_+-, C_-+, C_--)``.  Where that
    cosine is real to within its rounding (an imaginary part of at most
    :data:`_SIGMA_REAL_ULPS` units of its two terms) and in ``[-1, 1]``,
    sigma is real and the representative in ``[0, 1/2]``, with imaginary part
    ``+0.0``, is returned.  Otherwise the branch is ``Re sigma in [0, 1)``
    with ``Im sigma >= 0`` as tie-break.  Both product relations are
    cross-checked (see :func:`_product_relations`); a relative violation
    beyond ``tol`` raises :class:`MonodromyInconsistent`.
    """
    _check_tol_arg(tol)
    sp = matrix.spec
    t0, t1 = complex(sp.theta0), complex(sp.theta1)
    a, b, c, d = (matrix[k] for k in _KEYS)
    det = matrix.det()
    diff_term = b * c * cmath.cos(math.tau * (t0 - t1))
    sum_term = a * d * cmath.cos(math.tau * (t0 + t1))
    cos_2pi_sigma = (diff_term - sum_term) / det
    noise = _SIGMA_REAL_ULPS * EPS64 * (abs(diff_term) + abs(sum_term)) / abs(det)
    if abs(cos_2pi_sigma.imag) <= noise and abs(cos_2pi_sigma.real) <= 1.0:
        sigma = complex(math.acos(cos_2pi_sigma.real) / math.tau, 0.0)
    else:
        sigma = cmath.acos(cos_2pi_sigma) / math.tau
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


def tail_determinant_limit(spec: EquationSpec) -> tuple[Any, float]:
    """Limit ``D_inf`` of the tail determinants (:func:`d_space`) of the
    semi-infinite tridiagonal system: ``1/(1 - lam)`` for HE, else 1.

    ``D_inf = P / (S_a(2N+1) S_d(N+1))``: ``P`` is the determinant of the rows
    ``N .. 2N`` (:func:`_forward_sweep`), ``N`` is :func:`tail_depth`, and the
    formal tails of :func:`a_space` and :func:`d_space` remove the rows below
    ``2N`` and above ``N``.  The estimate is ``|D_inf|`` times their omitted
    terms and :func:`_sweep_floor`.  ``D_inf`` has the spec's number type.
    """
    what = "tail determinant limit"
    eps = unit_roundoff(is_mp_spec(spec))
    N = tail_depth(spec, eps, _MAX_DEPTH, what)
    limit, rel = _forward_sweep(spec, N, 2 * N + 1), _sweep_floor(spec, N, eps)
    for space, k in ((a_space, 2 * N + 1), (d_space, N + 1)):
        total, omitted = summed_tail(spec, space, k, what)
        limit, rel = limit / total, rel + omitted / float(abs(total))
    return limit, float(abs(limit)) * rel
