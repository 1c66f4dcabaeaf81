"""The formal ``1/k`` tail of a three-term recurrence beyond a sweep depth ``K``.

Every route that sweeps a recurrence to a finite depth takes the rest from
its formal solution ``y_k ~ k^rho S(k)``, ``S(k) = sum_n e_n k^-n`` (Wimp
1984), in the space of :func:`a_space`, :func:`d_space` or :func:`u_space`.
This module decides how that rest is formed and summed: the kernel
:func:`formal_tail`, the stopping rule :func:`sum_tail`, and the depth rules
:func:`root_depth` and :func:`tail_depth`.  :func:`summed_tail` forms ``1/k``
in the spec's number type, takes the tail at the spec's coupling or as
λ-jets at coupling 0, and sums it to the spec's unit roundoff; only ``cf``
(a seed from two depths) and ``ss`` (``rho != 0``) call the kernel directly.
"""

from __future__ import annotations

import bisect
import functools
import math
from itertools import accumulate, chain, count, repeat
from operator import add, mul, truediv
from typing import Any, Callable, Iterator, Sequence

import mpmath as mp

from .equations import EquationSpec, _quadratic_parts, _shifted_product, _third_parameter
from .errors import NonConvergence
from .precision import is_mp

__all__ = [
    "EPS64", "Orders", "a_space", "d_space", "formal_tail", "inverse_depth", "is_mp_spec",
    "log_second_mode", "root_depth", "series_log", "sum_tail", "summed_tail", "tail_depth",
    "u_space", "unit_roundoff",
]

EPS64 = 2.0**-53  # unit roundoff of binary64
# Depth rule of the cf, recurrence and ss sweeps (see tail_depth): at least
# _TAIL_MIN_DEPTH, _ROOT_FACTOR times above the roots of the denominators, and
# deep enough that the second solution is e^-_MODE_MARGIN below the roundoff.
_TAIL_MIN_DEPTH = 64
_ROOT_FACTOR = 8
_MODE_MARGIN = 4.0
# A 1/k tail is given up after this many pairs of terms without a new
# smallest pair, or past this many terms in all.
_TAIL_STALL = 8
_TAIL_MAX_ORDER = 200
# 1/i! and (-1)^i/i! from i = 2, for the shifts (1 +- 1/k)^rho S(k +- 1) at rho != 0
_INV_FACT = list(accumulate(range(1, _TAIL_MAX_ORDER + 2), truediv, initial=1.0))[2:]
_ALT_INV_FACT = [-f if i % 2 else f for i, f in enumerate(_INV_FACT)]
_ZERO = (0,) * 5  # a vanishing polynomial part of formal_tail


def is_mp_spec(spec: EquationSpec) -> bool:
    return any(map(is_mp, vars(spec).values()))


def unit_roundoff(mpmath_numbers: bool) -> float:
    """Unit roundoff: that of the current mpmath precision for mpmath
    numbers, else binary64's ``2^-53``."""
    return 2.0**-mp.mp.prec if mpmath_numbers else EPS64


def log_second_mode(spec: EquationSpec, K: int) -> float:
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


def root_depth(spec: EquationSpec, reach: float = 0.0) -> int:
    """The smallest depth ``K >= _TAIL_MIN_DEPTH`` that is ``_ROOT_FACTOR``
    times above ``reach`` and every root of ``Q_k`` and ``Q_{k-1}``: the ``1/k``
    expansions of the coefficients converge fast there, and every index where
    the accessory-resonance gate can fire is below it."""
    a = complex(0.5 - spec.theta0 + spec.theta1)
    x = complex(_third_parameter(spec))
    reach = max(reach, *(abs(s - a + e * x) for s in (0, 1) for e in (1, -1)))
    return max(_TAIL_MIN_DEPTH, math.ceil(_ROOT_FACTOR * reach))


def tail_depth(
    spec: EquationSpec, eps: float, max_depth: int, what: str, reach: float = 0.0
) -> int:
    """Sweep depth ``K`` of the ``cf``, ``recurrence`` and ``ss`` routes, from
    the spec alone: the smallest ``K >= _TAIL_MIN_DEPTH`` that is

    * at least :func:`root_depth` of ``reach``, for HE also ``_ROOT_FACTOR``
      times above ``1 / |1 - lam|``;
    * deep enough that the second solution (:func:`log_second_mode`) is below
      ``eps e^-_MODE_MARGIN``: for HE the ``1/k`` series grow like
      ``n! n^p / (K ln(1/|lam|))^n`` at large order ``n``, and their smallest
      term, about ``sqrt(2 pi K ln(1/|lam|)) |lam|^K K^p``, must fall below
      ``eps``.

    The bound is unimodal in ``K``, so once it is above the target it falls
    below it only once: a gallop and a bisection find that ``K``.  Raises
    :class:`NonConvergence` when ``K`` would exceed ``max_depth``.
    """
    if spec.family == "HE":
        reach = max(reach, 1.0 / abs(1 - complex(spec.lam)))
    K = root_depth(spec, reach)
    target = math.log(eps) - _MODE_MARGIN
    lam_abs = abs(spec.lam)
    if spec.family == "HE" and lam_abs > 0:
        K = max(K, math.ceil((target + math.log1p(-lam_abs)) / math.log(lam_abs)))

    def reached(k: int) -> bool:
        return k > max_depth or log_second_mode(spec, k) <= target

    if not reached(K):
        step = 1
        while not reached(K + step):
            K, step = K + step, 2 * step
        K += 1 + bisect.bisect_left(range(K + 1, K + step), True, key=reached)
    if K > max_depth:
        raise NonConvergence(f"{what} needs depth K = {K}, above max_depth = {max_depth}")
    return K


def inverse_depth(spec: EquationSpec, K: int) -> Any:
    """``1/K`` in the spec's real number type: a binary64 ``1/K`` would hold an
    mpmath spec's ``1/K`` series near binary64's relative accuracy."""
    return 1 / (K + 0 * spec.theta0).real


@functools.cache  # at most _TAIL_MAX_ORDER rows of each kind
def _binomial_rows(n: int, exact: bool) -> tuple[tuple, tuple]:
    """Row ``n`` of Pascal's triangle, ``C(n, i)``, and the same with signs
    ``(-1)^(n-i)``: as Python ints when ``exact`` (mpmath), else as the
    binary64 floats that an int times a float or complex rounds them to."""
    if not exact:
        return tuple(tuple(map(float, row)) for row in _binomial_rows(n, True))
    row = tuple(math.comb(n, i) for i in range(n + 1))
    return row, tuple(c if (n - i) % 2 == 0 else -c for i, c in enumerate(row))


def sum_tail(terms: Iterator, eps: float, relative: bool, what: str) -> tuple[Any, float]:
    """Sum an asymptotic series until two terms in a row are below ``eps``
    (times the magnitude of the sum when ``relative``); returns ``(sum, larger
    of those two sizes)``, which bounds the omitted terms of a decreasing
    series.  Terms are judged in pairs because one small term can be a
    cancellation at special parameters.  Raises :class:`NonConvergence`,
    listing the terms, when ``_TAIL_STALL`` pairs in a row bring no new
    smallest pair, or past ``_TAIL_MAX_ORDER`` terms."""
    total, sizes, size, best, best_at = 0, [], 0.0, math.inf, 0
    for n, term in enumerate(terms, 1):
        total = total + term
        last, size = size, float(abs(term))
        sizes.append(size)
        pair = max(last, size)
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


def formal_tail(parts: tuple, lam: Any, rho: Any, inv_k: Any, N: int = 0) -> Iterator:
    """Terms ``e_n K^-n`` (``inv_k = 1/K``) of the formal solution ``y_k ~ k^rho
    S(k)``, ``S(k) = sum_n e_n k^-n``, ``e_0 = 1``, of ``L(k) y_{k+1} - A(k)
    y_k + B(k) y_{k-1} = 0`` at the coupling ``lam + delta``, each as the list
    of its orders ``0 .. N`` in ``delta``, or at ``N = 0`` as the bare value at
    ``lam``.  ``parts`` holds ``(free, linear)`` of ``L``, ``A``, ``B``, each
    ``free + (lam + delta) linear``, as 5 coefficients in ``w = 1/k`` of
    ``k^-d`` times it, ``d <= 4``.

    Divided by ``k^(rho+d)`` the recurrence reads ``L(w) P_+(w) S(k+1) -
    A(w) S(k) + B(w) P_-(w) S(k-1) = 0``, ``P_+- = (1 +- w)^rho``.  With the
    root 1 (``L_0 - A_0 + B_0 = 0``) and its power law (``rho (L_0 - B_0) +
    L_1 - A_1 + B_1 = 0``) at every coupling, order ``w^(n+1)`` fixes ``e_n``
    with divisor ``n (L_0 - B_0)``.  One loop over ``n`` steps every order;
    each passes up what its ``e_n`` adds to the next order's residual (the
    carry): one ``sum`` of the residual's products on the ``linear`` parts
    (for floats compensated from Python 3.12, as ``sum`` is), less the
    ``delta`` part of the divisor, ``n (s_0 - u_0)``, times ``e_n``.

    The shifts enter as ``p_m = [w^m] P_+ S(k+1) = sum_j C(rho-j, m-j) e_j``
    and ``q_m``, the same with ``(-1)^(m-j)``.  Order ``n + 1`` takes one
    binomial sum each for ``p_{n+1}`` and ``q_{n+1}`` without ``e_n``; the
    rest has fixed length.  At ``rho = 0`` the sums run on the rows of
    :func:`_binomial_rows`, as ints where a coefficient at the coupling is an
    mpmath number and as floats otherwise (the products are those of the int
    rows), else in binary64 (finite to order 170) on ``C(rho-j, i) = v h_j /
    i!``, ``v = rho (rho-1) .. (rho-n)``, ``1/h_j = rho .. (rho-j+1)``.

    Where ``rho = 0`` and ``L - A + B`` vanishes at ``lam`` (coupling 0 in
    :func:`a_space` and :func:`d_space`), the jets' order 0 is ``S = 1``
    exactly and is not computed: its carry is the ``linear`` part of
    ``L_{n+1} - A_{n+1} + B_{n+1}`` for ``n <= 3``, and nothing after."""
    (L, (s0, s1, s2, s3, s4)), (A, (_, _, t2, t3, t4)), (B, (u0, u1, u2, u3, u4)) = parts
    l0, l1, l2, l3, l4 = map(add, L, map(mul, repeat(lam), (s0, s1, s2, s3, s4)))
    a2, a3, a4 = map(add, A[2:], map(mul, repeat(lam), (t2, t3, t4)))
    b0, b1, b2, b3, b4 = map(add, B, map(mul, repeat(lam), (u0, u1, u2, u3, u4)))
    # per order: e, p, q of n-1, n-2, n-3, the binomial sums, and e_1 .. (h_j e_j from j = 0)
    states = [(1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, [1] if rho else [])]
    carries, known = repeat(0), 0  # known: 1 where order 0 is S = 1
    if N:
        if not rho and l2 - a2 + b2 == l3 - a3 + b3 == l4 - a4 + b4 == 0:
            states, known = [], 1
            carries = chain([s2 - t2 + u2, s3 - t3 + u3, s4 - t4 + u4], carries)
        states += [(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, [0] if rho else []) for _ in range(N)]
    divisor, h, v, scale = l0 - b0, 1, rho or 1, 1
    nt2, nt3, nt4 = -t2, -t3, -t4  # the carry's coefficients of e_{n-1}, e_{n-2}, e_{n-3}
    exact = is_mp(sum((l0, l1, l2, l3, l4, a2, a3, a4, b0, b1, b2, b3, b4)))  # any mpmath
    yield [1] + [0] * N if N else 1
    for n, carry in zip(count(1), carries):
        back = rho - n + 1
        if rho:
            v *= rho - n
            h /= back
            q_row, p_row = _ALT_INV_FACT[n - 1 :: -1], _INV_FACT[n - 1 :: -1]
        else:
            q_row, p_row = _binomial_rows(n, exact)
        step, slope = n * divisor, n * (s0 - u0)
        for m, (e1, p1, q1, e2, p2, q2, e3, p3, q3, p_sum, q_sum, seq) in enumerate(states, known):
            shift = back * e1
            p_n, q_n = p_sum + shift, q_sum - shift  # without e_n
            p_sum, q_sum = sum(map(mul, p_row, seq)), sum(map(mul, q_row, seq))
            if rho:
                p_sum, q_sum = v * p_sum, v * q_sum
            residual = (
                l0 * p_sum + b0 * q_sum + l1 * p_n + b1 * q_n
                + l2 * p1 - a2 * e1 + b2 * q1
                + l3 * p2 - a3 * e2 + b3 * q2
                + l4 * p3 - a4 * e3 + b4 * q3
            )
            e = (residual + carry) / step
            if m < N:  # the last order passes no carry
                carry = sum((
                    s0 * p_sum, u0 * q_sum, s1 * p_n, u1 * q_n,
                    s2 * p1, nt2 * e1, u2 * q1,
                    s3 * p2, nt3 * e2, u3 * q2,
                    s4 * p3, nt4 * e3, u4 * q3,
                )) - slope * e
            seq.append(e * h)
            states[m - known] = e, p_n + e, q_n + e, e1, p1, q1, e2, p2, q2, p_sum, q_sum, seq
        scale *= inv_k
        yield [0] * known + [x[0] * scale for x in states] if N else e * scale


def a_space(spec: EquationSpec) -> tuple:
    """:func:`formal_tail` ``parts`` of ``a_{k+1} = a_k - lam (alpha_k a_k +
    beta_k a_{k-1})`` times ``Q_k Q_{k-1}``: ``L = Q_k Q_{k-1}``, ``A = L +
    lam R_k Q_{k-1}``, ``B = lam P_k lead_{k-1}`` (:func:`_quadratic_parts`)."""
    lead, q, r, p = _quadratic_parts(spec)
    qq, beta = _shifted_product(q, 0, q, -1), _shifted_product(p, 0, lead, -1)
    return (qq, _ZERO), (qq, _shifted_product(r, 0, q, -1)), (_ZERO, beta)


def d_space(spec: EquationSpec) -> tuple:
    """:func:`formal_tail` ``parts`` of the tail determinants, ``D_k = (1 - lam
    alpha_{k-1}) D_{k+1} - lam beta_k D_{k+2}``, in ``j = k + 1`` times
    ``Q_{j-1} Q_{j-2}``: ``L = lam P_{j-1} lead_{j-2}``, ``A = Q_{j-1} Q_{j-2}
    + lam R_{j-2} Q_{j-1}``, ``B = Q_{j-1} Q_{j-2}``."""
    lead, q, r, p = _quadratic_parts(spec)
    qq, beta = _shifted_product(q, -1, q, -2), _shifted_product(p, -1, lead, -2)
    return (_ZERO, beta), (qq, _shifted_product(r, -2, q, -1)), (qq, _ZERO)


def u_space(quadratics: tuple) -> tuple:
    """:func:`formal_tail` ``parts``, taken at coupling 0, of ``lead_k u_{k+1}
    = A_k u_k - B_k u_{k-1}`` in binary64 from
    :func:`fixedpoint.exact_quadratics`."""
    return tuple(([complex(c) for c in reversed(poly)] + [0, 0], _ZERO) for poly in quadratics)


class Orders(tuple):
    """The coefficients of one term of a λ-jet series, as :func:`sum_tail`
    adds and sizes them: elementwise, and by the largest magnitude."""

    def __add__(self, other):
        return Orders(map(add, self, other))

    def __radd__(self, other):  # the 0 that a sum starts from
        return self

    def __abs__(self):
        return max(map(abs, self))


def series_log(f: Sequence) -> list:
    """Series logarithm of coefficients with ``f_0 = 1``:
    ``l_m = f_m - (1/m) sum_{j<m} j l_j f_{m-j}``."""
    out = [0.0]
    for m in range(1, len(f)):
        out.append(f[m] - sum(j * out[j] * f[m - j] for j in range(1, m)) / m)
    return out


def summed_tail(
    spec: EquationSpec, space: Callable, k: int, what: str, N: int = 0
) -> tuple[Any, float]:
    """:func:`sum_tail` of the formal series ``S(k)`` of ``space(spec)``
    (:func:`a_space` or :func:`d_space`), with ``1/k`` in the spec's number
    type (:func:`inverse_depth`), to the spec's unit roundoff: at ``N = 0``
    the value at the spec's coupling, else its orders ``0 .. N`` in the
    coupling at 0, as :class:`Orders`.  The stop rule follows ``N``: relative
    to the size of the sum at ``N = 0``, absolute for the orders.  Returns
    ``(sum, omitted)``."""
    inv_k = inverse_depth(spec, k)
    if N:
        terms = map(Orders, formal_tail(space(spec), 0, 0, inv_k, N))
    else:
        terms = formal_tail(space(spec), spec.lam, 0, inv_k)
    return sum_tail(terms, unit_roundoff(is_mp_spec(spec)), not N, what)
