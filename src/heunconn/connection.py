"""Connection coefficients between the local solution bases at 0 and 1.

The normalized solutions satisfy ``psi0_e(z) = sum_e' C(e theta0, e' theta1)
psi1_e'(z)`` with a single two-parameter function C; the 2x2 matrix over the
sign choices has ``det C = -theta0/theta1``.  Four independent computational
routes are implemented:

* ``cf``          — backward continued-fraction evaluation of the factors
  ``eta_k`` with ``ln a_inf = sum_k ln eta_k`` (plus ``-ln(1-lam)`` for HE),
  summed to a depth ``K`` plus the formal ``1/K`` series of the rest;
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
from sign-flipped parameter sets.  All four agree within stated tolerances and
mutually certify each other.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, replace
from itertools import count, islice
from operator import mul
from typing import Any, Iterator

import mpmath as mp

from .equations import (
    EquationSpec,
    coefficient_expansions,
    coefficient_table,
    validate,
)
from .errors import (
    BranchAmbiguity,
    CFBreakdown,
    DetCheckFailed,
    DomainError,
    MonodromyInconsistent,
    NonConvergence,
)
from .fixedpoint import amplitude, exact_quadratics, fixed_iterates
from .frobenius import local_basis, truncated_basis, value_and_deriv
from .precision import (
    DOUBLE,
    HIGH,
    is_mp,
    p_exp,
    p_log,
    p_power,
)
from .richardson import extrapolate, geometric_ladder
from .special import log_gamma

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
_TAIL_LEVELS = 4  # ladder nodes of the tail determinants
_DET_FACTOR = 100.0  # determinant gate, in units of the matrix's accuracy
_PROBE = 0.5  # matching point of the wronskian route
_PROBE_REACH = max(abs(_PROBE), abs(1.0 - _PROBE))  # of the route's local basis
# Relative error of the binary64 fusion_cl factor away from gamma poles
# (at most 6.4e-14 on 3000 seeded parameter triples).
_PREF_ERR = 1e-13
_EPS64 = 2.0**-53  # unit roundoff of binary64
_SEED_TARGET = 1e-18  # bound on the cf route's unit-seed error in binary64
# Depth rule of the cf, recurrence and ss sweeps (see _tail_depth): at least
# _TAIL_MIN_DEPTH, _ROOT_FACTOR times above the roots of the denominators, and
# deep enough that the second solution is e^-_MODE_MARGIN below the roundoff.
_TAIL_MIN_DEPTH = 64
_ROOT_FACTOR = 8
_MODE_MARGIN = 4.0
# A 1/k tail is given up after this many pairs of terms without a new
# smallest pair, or past this many terms in all.
_TAIL_STALL = 8
_TAIL_MAX_ORDER = 200


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


def fusion_cl(theta0: Any, theta1: Any, theta_inf: Any) -> Any:
    """Gamma-ratio connection factor

    ``Gamma(1-2 theta0) Gamma(2 theta1) / [Gamma(1/2+theta1-theta0+theta_inf)
    Gamma(1/2+theta1-theta0-theta_inf)]``,

    evaluated in log-gamma form so moderate parameters never overflow.
    Raises :class:`PoleError` when any gamma argument is within 1e-12 of a
    pole (e.g. ``theta1 -> 0``).
    """
    a = 0.5 + theta1 - theta0
    return p_exp(
        log_gamma(1 - 2 * theta0)
        + log_gamma(2 * theta1)
        - log_gamma(a + theta_inf)
        - log_gamma(a - theta_inf)
    )


def _check_lambda_gate(spec: EquationSpec, allow_large_coupling: bool) -> None:
    if spec.family in ("RCHE", "CHE") and abs(spec.lam) > _LAMBDA_GATE:
        if not allow_large_coupling:
            raise DomainError(
                f"|lam| = {abs(spec.lam):.4g} exceeds the series gate {_LAMBDA_GATE}; "
                "pass allow_large_coupling=True to override"
            )


def _seed_buffer(spec: EquationSpec, K: int) -> tuple[int, float]:
    """Rows ``B`` above ``K`` where the backward sweep starts from a unit seed,
    and a bound on the seed's error at ``K``, below ``_SEED_TARGET`` and a
    hundredth of the spec's unit roundoff.

    Each level multiplies the seed error by about ``|lam beta_k|``. For HE
    ``beta_k -> 1``, so the bound is ``|lam|^B``; for RCHE and CHE ``beta_k``
    falls like ``1/k`` or faster, so it is the product of ``|lam|/k`` over the
    buffer rows, and a few rows do even at ``|lam| >= 1``.
    """
    lam_abs = float(abs(spec.lam))
    target = min(_SEED_TARGET, 1e-2 * _unit_roundoff(_is_mp_spec(spec)))
    if spec.family == "HE":
        b = math.ceil(math.log10(target) / math.log10(lam_abs)) + 8
        b = min(4000, max(24, b))
        return b, lam_abs**b
    b, bound = 0, 1.0
    while bound >= target:
        b += 1
        bound *= lam_abs / (K + b)
    return b, bound


def _is_mp_spec(spec: EquationSpec) -> bool:
    return any(map(is_mp, vars(spec).values()))


def _unit_roundoff(mpmath_numbers: bool) -> float:
    """Unit roundoff: that of the current mpmath precision for mpmath
    numbers, else binary64's ``2^-53``."""
    return 2.0**-mp.mp.prec if mpmath_numbers else _EPS64


def _log_second_mode(spec: EquationSpec, K: int) -> float:
    """ln of a bound on the recurrence's second solution from depth ``K`` on,
    relative to the first.  Its characteristic roots are 1 and
    ``lam beta^(0)``: ``beta^(0) = 1`` for HE, so the second solution decays
    like ``|lam|^k k^p``, with ``p = -2 Re(theta_t + theta1)`` the difference
    of the two solutions' power laws (counted when positive); for RCHE and
    CHE ``beta_k`` falls like ``1/k`` or faster, so it decays like ``|lam|^k /
    k!``.  The bound sums these sizes over ``k >= K``."""
    lam_abs = abs(spec.lam)
    if lam_abs == 0:
        return -math.inf
    if spec.family == "HE":
        power = max(0.0, -2 * complex(spec.theta_t + spec.theta1).real)
        ratio = lam_abs * math.exp(power / K)  # bounds the ratio of two sizes
        log_scale = power * math.log(K)
    else:
        ratio = lam_abs / (K + 1)
        log_scale = -math.lgamma(K + 1)
    if ratio >= 1.0:
        return math.inf
    return K * math.log(lam_abs) - math.log1p(-ratio) + log_scale


def _root_depth(spec: EquationSpec, reach: float = 0.0) -> int:
    """The smallest depth ``K >= _TAIL_MIN_DEPTH`` that is ``_ROOT_FACTOR``
    times above ``reach`` and every root of ``Q_k`` and ``Q_{k-1}``: the ``1/k``
    expansions of the coefficients converge fast there, and every index where
    the accessory-resonance gate can fire is below it."""
    a = complex(0.5 - spec.theta0 + spec.theta1)
    x = complex(_third_parameter(spec))
    reach = max(reach, *(abs(s - a + e * x) for s in (0, 1) for e in (1, -1)))
    return max(_TAIL_MIN_DEPTH, math.ceil(_ROOT_FACTOR * reach))


def _tail_depth(
    spec: EquationSpec, eps: float, max_depth: int, what: str, reach: float = 0.0
) -> int:
    """Sweep depth ``K`` of the ``cf``, ``recurrence`` and ``ss`` routes, from
    the spec alone: the smallest ``K >= _TAIL_MIN_DEPTH`` that is

    * at least :func:`_root_depth` of ``reach``, for HE also ``_ROOT_FACTOR``
      times above ``1 / |1 - lam|``;
    * deep enough that the second solution (:func:`_log_second_mode`) is below
      ``eps e^-_MODE_MARGIN``: for HE the ``1/k`` series grow like
      ``n! n^p / (K ln(1/|lam|))^n`` at large order ``n``, and their smallest
      term, about ``sqrt(2 pi K ln(1/|lam|)) |lam|^K K^p``, must fall below
      ``eps``.

    Raises :class:`NonConvergence` when ``K`` would exceed ``max_depth``.
    """
    if spec.family == "HE":
        reach = max(reach, 1.0 / abs(1 - complex(spec.lam)))
    K = _root_depth(spec, reach)
    target = math.log(eps) - _MODE_MARGIN
    lam_abs = abs(spec.lam)
    if spec.family == "HE" and lam_abs > 0:
        K = max(K, math.ceil((target + math.log1p(-lam_abs)) / math.log(lam_abs)))
    while K <= max_depth and _log_second_mode(spec, K) > target:
        K += 1
    if K > max_depth:
        raise NonConvergence(f"{what} needs depth K = {K}, above max_depth = {max_depth}")
    return K


def _inverse_depth(spec: EquationSpec, K: int) -> Any:
    """``1/K`` in the spec's real number type: a binary64 ``1/K`` would hold an
    mpmath spec's ``1/K`` series near binary64's relative accuracy."""
    return 1 / (K + 0 * spec.theta0).real


@functools.cache  # at most _TAIL_MAX_ORDER rows
def _binomial_rows(n: int) -> tuple[tuple, tuple]:
    """Row ``n`` of Pascal's triangle, ``C(n, i)``, and the same with signs
    ``(-1)^(n-i)``, as Python ints (exact under mpmath)."""
    row = tuple(math.comb(n, i) for i in range(n + 1))
    return row, tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(row))


def _sum_tail(terms: Iterator, eps: float, relative: bool, what: str) -> tuple[Any, float]:
    """Sum an asymptotic series until two terms in a row are below ``eps``
    (times the magnitude of the sum when ``relative``); returns ``(sum, larger
    of those two sizes)``, which bounds the omitted terms of a decreasing
    series.  Terms are judged in pairs because one small term can be a
    cancellation at special parameters.  Raises :class:`NonConvergence`,
    listing the terms, when ``_TAIL_STALL`` pairs in a row bring no new
    smallest pair, or past ``_TAIL_MAX_ORDER`` terms."""
    total, sizes, best, best_at = 0, [], math.inf, 0
    for n, term in enumerate(terms, 1):
        total = total + term
        sizes.append(float(abs(term)))
        pair = max(sizes[-2:])
        if n >= 2 and pair < eps * (float(abs(total)) if relative else 1.0):
            return total, pair
        if pair < best:
            best, best_at = pair, n
        if n - best_at >= _TAIL_STALL or n >= _TAIL_MAX_ORDER:
            raise NonConvergence(
                f"{what}: the 1/k tail stopped decreasing before {eps:.1e}; terms "
                + ", ".join(f"{s:.1e}" for s in sizes)
            )
    raise AssertionError("endless series ended")  # pragma: no cover


def _eta_sweep(spec: EquationSpec, k_top: int, buffer: int) -> list:
    """Backward pass of ``eta_k = 1 - lam alpha_{k-1} - lam beta_k / eta_{k+1}``
    from a unit seed at ``k_top + buffer`` down to ``k = 1``; returns
    ``[eta_1, ..., eta_k_top]``, from one coefficient table of the indices
    ``0 .. k_top + buffer``.
    """
    lam = spec.lam
    watch_branch = abs(lam) > 0.3
    one = 1.0 + 0 * spec.theta0
    eta = one
    out = [one] * k_top
    alphas, betas = coefficient_table(spec, 0, k_top + buffer + 1)
    for k in range(k_top + buffer, 0, -1):
        if abs(eta) < 1e-14:
            raise CFBreakdown(f"continued-fraction denominator vanished at k = {k + 1}")
        eta = 1 - lam * alphas[k - 1] - lam * betas[k] / eta
        if watch_branch and complex(eta).real <= 0.0:
            raise BranchAmbiguity(
                f"eta_{k} = {complex(eta):.6g} left the right half-plane; "
                "logarithm branch tracking is ambiguous"
            )
        if k <= k_top:
            out[k - 1] = eta
    return out


def _log_eta_tail(spec: EquationSpec, K: int) -> Iterator:
    """Terms ``tau_n K^-n`` of ``T(K) = sum_{k>K} ln eta_k``.

    ``eta_k = sum_j g_j k^-j`` (``g_0 = 1``) follows order by order from
    ``eta_k eta_{k+1} = (1 - lam alpha_{k-1}) eta_{k+1} - lam beta_k``, whose
    order ``k^-N`` fixes ``g_N`` with divisor ``1 - lam beta^(0)``; then
    ``ln eta_k = sum_j l_j k^-j`` is its series logarithm, and ``T(K) -
    T(K+1) = ln eta_{K+1}`` fixes ``tau_n`` at order ``K^-(n+1)`` with divisor
    ``n``.  Coefficients at ``k + 1`` come from ``(1 + 1/k)^-j``."""
    lam = spec.lam
    alpha_it, beta_it = coefficient_expansions(spec, alpha_shift=-1)
    pa, qb = [lam * next(alpha_it)], [lam * next(beta_it)]
    g, e, logs, m_logs, shifted, tau = [1], [1], [0], [0], [0], [0]
    divisor = 1 + pa[0]
    inv_k, scale = _inverse_depth(spec, K), 1
    for N in count(1):
        pa.append(lam * next(alpha_it))
        qb.append(lam * next(beta_it))
        alt = _binomial_rows(N - 1)[1]
        # e_N without g_N: the coefficient of k^-N in sum_{j<N} g_j (k+1)^-j.
        e_partial = sum(map(mul, alt, g[1:]))
        residual = (
            sum(map(mul, g[1:], e[:0:-1]))
            + pa[0] * e_partial
            + sum(map(mul, pa[1:], e[::-1]))
            + qb[N]
        )
        g.append(-residual / divisor)
        e.append(e_partial + g[N])
        logs.append(g[N] - sum(map(mul, m_logs[1:], g[N - 1:0:-1])) / N)
        m_logs.append(N * logs[N])
        shifted.append(logs[N] + sum(map(mul, alt, logs[1:N])))  # of ln eta_{k+1}
        if N >= 2:
            n = N - 1
            tau.append((shifted[N] + sum(map(mul, alt, tau[1:n]))) / n)
            scale *= inv_k
            yield tau[n] * scale


def log_a_infinity_cf(
    spec: EquationSpec,
    tol: float = 1e-10,
    max_depth: int = _MAX_DEPTH,
    allow_large_coupling: bool = False,
) -> tuple[Any, int, float]:
    """``ln a_inf`` by the continued-fraction route.

    Sums ``ln eta_k`` for ``k <= K`` from one backward sweep seeded ``buffer``
    levels above ``K``, and adds the formal tail ``sum_{k>K} ln eta_k`` in
    powers of ``1/K`` (:func:`_log_eta_tail`) to working precision; for HE the
    exact shift ``-ln(1-lam)`` is added.  ``K`` comes from
    :func:`_tail_depth`.  The error estimate is the last tail terms
    (:func:`_sum_tail`), the unit-seed bound and :func:`_sweep_floor`.
    Returns ``(value, K, err_estimate)``; raises :class:`NonConvergence` when
    ``K`` exceeds ``max_depth`` or the estimate exceeds ``tol``, and
    :class:`DomainError` at the coupling gate.
    """
    validate(spec)
    _check_lambda_gate(spec, allow_large_coupling)
    lam = spec.lam
    if lam == 0:
        return 0.0, 0, 0.0
    what = "continued-fraction sum"
    mp_spec = _is_mp_spec(spec)
    eps = _unit_roundoff(mp_spec)
    K = _tail_depth(spec, eps, max_depth, what)
    buffer, seed_err = _seed_buffer(spec, K)
    log = mp.log if mp_spec else cmath.log
    total = sum(map(log, _eta_sweep(spec, K, buffer)))
    tail, omitted = _sum_tail(_log_eta_tail(spec, K), eps, False, what)
    err = omitted + seed_err + _sweep_floor(spec, K, eps)
    _check_tol(err, tol, K, what)
    val = total + tail
    if spec.family == "HE":
        val = val - p_log(1 - lam)
    return val, K, err


def _sweep_floor(spec: EquationSpec, K: int, eps: float) -> float:
    """Relative error a sweep to depth ``K`` leaves besides its tail: the
    second solution (:func:`_log_second_mode`) and ``K`` roundings, for HE
    divided by ``|1 - lam|``, as the second characteristic root ``lam``
    carries a rounding error ``d`` into the limit as ``d / (1 - lam)``."""
    rounding = K * eps
    if spec.family == "HE":
        rounding /= abs(1 - complex(spec.lam))
    return math.exp(_log_second_mode(spec, K)) + rounding


def _check_tol(err: float, tol: float, K: int, what: str) -> None:
    if err > tol:
        raise NonConvergence(
            f"{what} error estimate {err:.1e} at depth K = {K} is above tol = {tol:.1e}"
        )


def _recurrence_tail(spec: EquationSpec, K: int, lam: Any, N: int) -> Iterator:
    """Terms ``d_n K^-n`` of ``S(K)`` in the formal solution ``a_k ~ a_inf
    S(k)``, ``S(k) = sum_j d_j k^-j``, ``d_0 = 1``, of ``a_{k+1} = a_k -
    lam (alpha_k a_k + beta_k a_{k-1})`` at the coupling ``lam + delta``, each
    as the list of its orders ``0 .. N`` in ``delta``.

    With ``A_j``, ``B_j`` the ``1/k`` expansions of ``alpha_k``, ``beta_k``,
    order ``k^-(n+1)`` fixes ``d_n`` with divisor ``n - lam s_n``, ``s_n = n
    B_0 + A_1 + B_1`` (``A_1 + B_1`` cancels in exact arithmetic): order ``m``
    of ``d_n`` is ``(f_n + lam g_n + g'_n + s_n d'_n) / (n - lam s_n)``, where
    ``f_n`` (of ``S(k+1) - S(k)``) and ``g_n`` (of the ``A``, ``B`` terms) hold
    order ``m`` of ``d_0 .. d_{n-1}``, and ``g'_n``, ``d'_n`` are order ``m -
    1`` of ``g_n``, ``d_n`` (0 at ``m = 0``).  Coefficients at ``k + 1`` and
    ``k - 1`` come from ``(1 +- 1/k)^-j``."""
    alpha_it, beta_it = coefficient_expansions(spec)
    A = [next(alpha_it), next(alpha_it)]
    B = [next(beta_it), next(beta_it)]
    # d[m][j], back[m][j]: order m of d_j and of the coefficient of k^-j in S(k - 1)
    d = [[1]] + [[0] for _ in range(N)]
    back = [[1]] + [[0] for _ in range(N)]
    inv_k, scale = _inverse_depth(spec, K), 1
    yield [1.0] + [0.0] * N
    for n in count(1):
        A.append(next(alpha_it))
        B.append(next(beta_it))
        a_rev, b_rev = A[:1:-1], B[:1:-1]  # A_{n+1} .. A_2 against d_0 .. d_{n-1}
        row, alt = _binomial_rows(n)
        row_n = _binomial_rows(n - 1)[0]
        s_n = n * B[0] + A[1] + B[1]
        divisor = n - lam * s_n
        scale *= inv_k
        d_n, g_below, term = 0, 0, []
        for m in range(N + 1):
            known = d[m][1:]
            # Coefficients of k^-n and k^-(n+1) in S(k - 1), without d_n.
            back_n = sum(map(mul, row_n, known))
            g = (
                sum(map(mul, a_rev, d[m]))
                + sum(map(mul, b_rev, back[m]))
                + B[1] * back_n
                + B[0] * sum(map(mul, row, known))
            )
            d_n = (sum(map(mul, alt, known)) + lam * g + g_below + s_n * d_n) / divisor
            term.append(d_n * scale)
            g_below = g
            d[m].append(d_n)
            back[m].append(back_n + d_n)
        yield term


def _recurrence_limit(
    spec: EquationSpec,
    tol: float,
    max_K: int = _MAX_DEPTH,
    allow_large_coupling: bool = False,
) -> tuple[Any, int, float]:
    """``a_inf = a_K / S(K)`` from one forward sweep of the rescaled
    recurrence to ``a_K`` and its formal solution ``S`` (:func:`_recurrence_tail`)
    summed to working precision.  The error estimate is the last terms of
    ``S`` (:func:`_sum_tail`) and :func:`_sweep_floor`, relative to
    ``max(|a_inf|, 1)``: the sweep's rounding stays at the size of its
    iterates, which start at ``a_0 = 1``."""
    validate(spec)
    _check_lambda_gate(spec, allow_large_coupling)
    lam = spec.lam
    if lam == 0:
        return 1.0, 0, 0.0
    what = "recurrence limit"
    eps = _unit_roundoff(_is_mp_spec(spec))
    K = _tail_depth(spec, eps, max_K, what)
    a_km1 = 0.0
    a_k = 1.0 + 0 * spec.theta0
    for al, be in zip(*coefficient_table(spec, 0, K)):
        a_k, a_km1 = a_k - lam * (al * a_k + be * a_km1), a_k
    terms = (term[0] for term in _recurrence_tail(spec, K, lam, 0))
    total, omitted = _sum_tail(terms, eps, True, what)
    a_inf = a_k / total
    rel = omitted / float(abs(total)) + _sweep_floor(spec, K, eps)
    err = max(float(abs(a_inf)), 1.0) * rel
    _check_tol(err, tol, K, what)
    return a_inf, K, err


def _assembly_prefactor(spec: EquationSpec) -> Any:
    """Family factor multiplying ``F_cl * a_inf`` in the connection scalar."""
    if spec.family == "CHE":
        return p_exp(spec.lam / 2)
    if spec.family == "HE":
        return p_power(1 - spec.lam, 0.5 - spec.theta_t)
    return 1.0


def _third_parameter(spec: EquationSpec) -> Any:
    return spec.theta_inf_hyp if spec.family == "HYP" else spec.omega


def _pref_err(spec: EquationSpec, eps: float) -> float:
    """Relative error bound of the prefactor at unit roundoff ``eps``:
    ``_PREF_ERR`` scaled from binary64, plus ``eps |z| / dist(z, poles)`` for
    each gamma argument ``z`` of :func:`fusion_cl`, the rounding of ``z``
    magnified near a pole of the gamma function (1 where ``Re z >= 1/2``)."""
    t0, t1, x = spec.theta0, spec.theta1, _third_parameter(spec)
    a = 0.5 + t1 - t0
    ulps = _PREF_ERR / _EPS64
    for z in (1 - 2 * t0, 2 * t1, a + x, a - x):
        ulps += abs(z) / abs(z - round(z.real)) if z.real < 0.5 else 1.0
    return float(eps * ulps)


def _scalar_with_depth(
    spec: EquationSpec,
    method: str,
    tol: float,
    allow_large_coupling: bool,
    max_depth: int = _MAX_DEPTH,
) -> tuple[complex, float, int]:
    validate(spec)
    method = method.lower()
    pref = fusion_cl(spec.theta0, spec.theta1, _third_parameter(spec))
    # The prefactor's own error and the final rounding of the value to binary64.
    rel_err = _pref_err(spec, _unit_roundoff(is_mp(pref))) + _EPS64
    if spec.family == "HYP" or spec.lam == 0:
        return complex(pref), rel_err * float(abs(pref)), 0
    pref = pref * _assembly_prefactor(spec)
    if method == "cf":
        log_a, depth, err = log_a_infinity_cf(
            spec, tol=tol, max_depth=max_depth, allow_large_coupling=allow_large_coupling
        )
        val = pref * p_exp(log_a)
    elif method == "recurrence":
        a_inf, depth, err = _recurrence_limit(
            spec, tol=tol, max_K=max_depth, allow_large_coupling=allow_large_coupling
        )
        val = pref * a_inf
    else:
        raise DomainError(
            f"connection_scalar supports methods 'cf' and 'recurrence', got {method!r}"
        )
    # Scaled by the larger of |value| and |pref|: near a zero of the amplitude
    # the sweep's rounding stays at the size of its O(1) iterates.
    scale = max(abs(val), abs(pref))
    return complex(val), float(scale) * (float(err) + rel_err), depth


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


def _ss_precision(theta1: complex, K: int) -> tuple[int, int]:
    """Working ``dps`` of the ``ss`` route and the fixed-point ``bits`` of its
    iterates: ``|u_k|`` falls to about ``k^(-1-2|Re theta1|)``, so guard bits
    keep the iterates at the working precision down to ``k = K``."""
    dps = max(30, 20 + int(4 * abs(theta1.real) * math.log10(max(K, 10))) + 10)
    guard = int((1 + 2 * abs(theta1.real)) * math.log2(max(K, 2))) + 16
    return dps, mp.libmp.dps_to_prec(dps) + guard


def _ss_tail(quadratics: tuple, rho: complex, K: int) -> Iterator:
    """Terms ``e_n K^-n`` of ``S(K)`` in the formal solution ``u_k ~ C k^rho
    S(k)``, ``S(k) = sum_j e_j k^-j``, ``e_0 = 1``, of ``lead_k u_{k+1} = A_k
    u_k - B_k u_{k-1}``, in binary64.

    Divided by ``k^(rho+2)`` the recurrence reads ``L(w) P_+(w) S(k+1) -
    A(w) S(k) + B(w) P_-(w) S(k-1) = 0`` in ``w = 1/k``, with ``L, A, B`` the
    quadratics as polynomials in ``w`` and ``P_+- = (1 +- w)^rho``.  Order
    ``w^(n+1)`` fixes ``e_n`` with divisor ``n (1 - B_2)``; coefficients at
    ``k + 1`` and ``k - 1`` come from ``(1 +- 1/k)^-j``."""
    lead, a_w, b_w = ([complex(c) for c in reversed(poly)] for poly in quadratics)
    binom, g_plus, g_minus = [], [], []  # rho choose m; of L P_+ and B P_-
    e, s_plus, s_minus = [1.0], [1.0], [1.0]  # of S(k), S(k+1), S(k-1)
    divisor = 1 - b_w[0]
    inv_k, scale = 1.0 / K, 1.0
    yield 1.0
    for n in count(1):
        while len(binom) < n + 2:
            m = len(binom)
            binom.append(binom[-1] * (rho - m + 1) / m if m else 1.0)
            low = range(min(m, 2) + 1)
            g_plus.append(sum(lead[i] * binom[m - i] for i in low))
            g_minus.append(sum(b_w[i] * binom[m - i] * (-1) ** (m - i) for i in low))
        row, alt = _binomial_rows(n)
        row_n, alt_n = _binomial_rows(n - 1)
        known = e[1:]
        # Coefficients of w^(n+1) and w^n in S(k+-1), without e_n.
        plus_next, plus_n = sum(map(mul, alt, known)), sum(map(mul, alt_n, known))
        minus_next, minus_n = sum(map(mul, row, known)), sum(map(mul, row_n, known))
        residual = (
            g_plus[0] * plus_next
            + g_plus[1] * plus_n
            + sum(map(mul, g_plus[2:], reversed(s_plus)))
            + g_minus[0] * minus_next
            + g_minus[1] * minus_n
            + sum(map(mul, g_minus[2:], reversed(s_minus)))
            - a_w[2] * e[n - 1]
        )
        e.append(residual / (n * divisor))
        s_plus.append(plus_n + e[n])
        s_minus.append(minus_n + e[n])
        scale *= inv_k
        yield e[n] * scale


def _ss_scalar(
    spec: EquationSpec, tol: float = math.inf, max_depth: int = _MAX_DEPTH
) -> tuple[complex, float, int]:
    """``(value, err_estimate, K)`` of :func:`schafke_schmidt_connection`.

    The estimate is ``|value|`` times the sum of:

    * the omitted tail terms (:func:`_sum_tail`);
    * the second solution (:func:`_log_second_mode`);
    * the fixed-point rounding, ``K`` units of the working ``dps``;
    * the binary64 tail's rounding, ``2 eps / |1 - B_2|``: the divisor of
      :func:`_ss_tail` magnifies the rounding of each residual;
    * a ``1e-15`` floor for the assembly's roundings.

    Raises :class:`NonConvergence` when the sum without the floor is above
    ``tol``, as :func:`log_a_infinity_cf` judges its estimate."""
    validate(spec)
    th1 = complex(spec.theta1)
    if abs(2 * th1.real) >= 4.0:
        raise DomainError(
            f"large-order route needs |Re 2 theta1| < 4, got {2 * th1.real:.3g}"
        )
    what = "large-order amplitude"
    # The root 2 theta0 - 1 of lead_k joins the roots of Q_k in the reach.
    K = _tail_depth(spec, _EPS64, max_depth, what, abs(2 * complex(spec.theta0) - 1))
    dps, bits = _ss_precision(th1, K)
    quadratics, exact = exact_quadratics(spec, K)
    u_K = next(islice(fixed_iterates(quadratics, bits), K - 1, None))
    rho = 2 * exact.theta1 - 1
    total, omitted = _sum_tail(_ss_tail(quadratics, complex(rho), K), _EPS64, True, what)
    val = amplitude(exact, rho, u_K, bits, K) / total
    b2 = complex(quadratics[2][2])
    rel = (
        omitted / abs(total)
        + math.exp(_log_second_mode(spec, K))
        + K * 10.0**-dps
        + 2 * _EPS64 / abs(1 - b2)
    )
    _check_tol(rel, tol, K, what)
    return val, abs(val) * (rel + 1e-15), K


def schafke_schmidt_connection(spec: EquationSpec) -> complex:
    """Connection scalar from the large-order behaviour of the series
    coefficients: ``C = pref * Gamma(2 theta1) * lim_k k^(1-2 theta1) u_k``.

    The forward recurrence for ``u_k`` runs once to a depth ``K`` chosen from
    the spec (:func:`_tail_depth` at binary64, with the root ``2 theta0 - 1``
    of ``lead_k`` in the reach) in fixed-point Gaussian integers at the
    working precision plus guard bits (the iterates fall like
    ``k^(-1-2 |Re theta1|)``), from recurrence coefficients formed exactly
    from the parameters' binary mantissas and exponents
    (:mod:`heunconn.fixedpoint`).  The limit is ``u_K / (K^rho S(K))`` with
    ``rho = 2 theta1 - 1`` and ``S`` the recurrence's formal ``1/k`` series in
    u-space (:func:`_ss_tail`), summed in binary64 to the unit roundoff.  No
    mpmath context is read or set: the gamma function and ``K^rho`` take an
    explicit precision.  Requires ``|Re 2 theta1| < 4``.
    """
    return _ss_scalar(spec)[0]


def wronskian_connection(spec: EquationSpec) -> ConnectionMatrix:
    """All four connection entries from Wronskians of the truncated local
    solutions at a probe point:

    ``C_{e+} = -W(psi0_e, psi1_-)/(2 theta1)``,
    ``C_{e-} = +W(psi0_e, psi1_+)/(2 theta1)``

    at ``z = 1/2``, with the truncation of :func:`local_basis` at reach 1/2.
    """
    return _wronskian_matrix(spec, local_basis(spec, _PROBE_REACH))


def _wronskian_matrix(spec: EquationSpec, basis: list) -> ConnectionMatrix:
    """:func:`wronskian_connection` from its local basis."""
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
    return ConnectionMatrix(
        entries=entries,
        spec=spec,
        method="wronskian",
        depth_or_K=basis[0].K,
        err_estimate=float(err),
    )


def _wronskian_of_basis(spec: EquationSpec, basis: list, tol: float) -> ConnectionMatrix:
    """``connection_matrix(spec, "wronskian", tol)`` from a basis of
    :func:`local_basis` built for a reach of at least 1/2: cut to the
    route's own truncation (:func:`truncated_basis`), it gives the same
    matrix."""
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
                    val, err, d = _ss_scalar(fspec, tol, max_depth)
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
    return _det_gate(matrix, tol)


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


def tail_determinant_limit(spec: EquationSpec, N: int = 10000) -> tuple[complex, float]:
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
    nodes = geometric_ladder(N, _TAIL_LEVELS)
    vals = []
    for n_j in nodes:
        alphas, betas = coefficient_table(spec, n_j, n_j + rows)
        p_mm2 = 1.0 + 0 * spec.theta0
        p_mm1 = 1 - lam * alphas[0]
        for al, be in zip(alphas[1:], betas[1:]):
            p_mm1, p_mm2 = (1 - lam * al) * p_mm1 - lam * be * p_mm2, p_mm1
        vals.append(p_mm1)
    limit, err = extrapolate([1.0 / n for n in nodes], vals)
    return complex(limit), float(err)
