"""Exact arithmetic of the large-order (``ss``) route.

Its recurrence ``lead_k u_{k+1} = A_k u_k - B_k u_{k-1}`` has coefficients
quadratic in ``k``.  Every binary64 and mpmath number is a dyadic rational,
so those coefficients are formed exactly (:class:`Dyadic`), rounded once to
a fixed-point scale ``2^bits``, and the sweep runs on Python integers.  The
gamma function, ``K^rho`` and the family prefactor of the amplitude take
their precision as an argument of :mod:`mpmath.libmp`: nothing here reads or
sets an mpmath context.
"""

from __future__ import annotations

import cmath
import math
from types import SimpleNamespace
from typing import Any, Iterator

import mpmath as mp

from .equations import EquationSpec, _check_resonance, _quadratic_parts
from .errors import DomainError
from .precision import is_mp

_PREC = 80  # bits of the gamma function, K^rho and the prefactor


class Dyadic:
    """An exact complex dyadic rational ``(re + i im) 2^-exp``, ``exp >= 0``.

    Every binary64 and mpmath number is one, and so are their sums and
    products, which these numbers form without rounding."""

    __slots__ = ("re", "im", "exp")

    def __init__(self, re: int, im: int, exp: int):
        self.re, self.im, self.exp = re, im, exp

    @classmethod
    def of(cls, x: Any) -> "Dyadic":
        """``x`` (an int, binary64 or mpmath number, or a ``Dyadic``) exactly."""
        if type(x) is cls:
            return x
        if isinstance(x, int):
            return cls(x, 0, 0)
        if isinstance(x, float) and math.isfinite(x):
            n, d = x.as_integer_ratio()
            return cls(n, 0, d.bit_length() - 1)
        if is_mp(x):
            parts = x._mpc_ if isinstance(x, mp.mpc) else (x._mpf_, mp.libmp.fzero)
            if any(not man and exp for _, man, exp, _ in parts):  # inf or nan
                raise DomainError(f"parameter {x!r} is not finite")
            # (sign, man, exp, bc) of each part: an mpf's man_exp drops the sign.
            ratios = [
                ((-man if sign else man) << max(exp, 0), 1 << max(-exp, 0))
                for sign, man, exp, _ in parts
            ]
        else:
            z = complex(x)
            if not cmath.isfinite(z):
                raise DomainError(f"parameter {x!r} is not finite")
            ratios = [z.real.as_integer_ratio(), z.imag.as_integer_ratio()]
        (re, d_re), (im, d_im) = ratios  # denominators are powers of two
        d = max(d_re, d_im)
        return cls(re * (d // d_re), im * (d // d_im), d.bit_length() - 1)

    def __add__(self, other: Any) -> "Dyadic":
        o = Dyadic.of(other)
        e = max(self.exp, o.exp)
        s, t = e - self.exp, e - o.exp
        return Dyadic((self.re << s) + (o.re << t), (self.im << s) + (o.im << t), e)

    __radd__ = __add__

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.re, -self.im, self.exp)

    def __sub__(self, other: Any) -> "Dyadic":
        return self + -Dyadic.of(other)

    def __rsub__(self, other: Any) -> "Dyadic":
        return -self + other

    def __mul__(self, other: Any) -> "Dyadic":
        o = Dyadic.of(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        return Dyadic(a * c - b * d, a * d + b * c, self.exp + o.exp)

    __rmul__ = __mul__

    def __complex__(self) -> complex:
        scale = 1 << self.exp  # int / int rounds once
        return complex(self.re / scale, self.im / scale)

    def mpc(self) -> tuple:
        """The exact value as an :mod:`mpmath.libmp` complex ``(re, im)``."""
        return mp.libmp.from_man_exp(self.re, -self.exp), mp.libmp.from_man_exp(self.im, -self.exp)

    def scaled(self, bits: int) -> list:
        """``[re, im]`` of the Gaussian integer nearest to ``self * 2^bits``."""
        shift = self.exp - bits
        if shift <= 0:
            return [self.re << -shift, self.im << -shift]
        half = 1 << (shift - 1)
        return [(self.re + half) >> shift, (self.im + half) >> shift]


def exact_quadratics(spec: EquationSpec, k_max: int) -> tuple[tuple, SimpleNamespace]:
    """Coefficients ``(c0, c1, c2)`` of ``c0 + c1 k + c2 k^2`` for ``lead_k``,
    ``A_k = Q_k + lam R_k`` and ``B_k = lam P_k`` (:func:`_quadratic_parts`)
    in the recurrence ``lead_k u_{k+1} = A_k u_k - B_k u_{k-1}`` of
    :func:`canonical_recurrence_step`, exact, and a plain record of the
    spec's fields with each number a :class:`Dyadic`.  First raises
    :class:`AccessoryResonance` where ``Q_k`` vanishes for a ``k < k_max``,
    with the coefficient table's gate (HYP has none).  ``lead_k`` has no root
    near an integer, as every spec keeps ``2 theta0`` 1e-10 from them."""
    if spec.family != "HYP":
        _check_resonance(spec, 0, k_max)
    exact = SimpleNamespace(**{
        k: v if isinstance(v, (str, type(None))) else Dyadic.of(v) for k, v in vars(spec).items()
    })
    lead, q, r, p = _quadratic_parts(exact)
    lam = exact.lam
    return (lead, tuple(qi + lam * ri for qi, ri in zip(q, r)), tuple(lam * pi for pi in p)), exact


def fixed_iterates(quadratics: tuple, bits: int) -> Iterator:
    """Iterates ``u_1, u_2, ...`` of ``lead_k u_{k+1} = A_k u_k - B_k u_{k-1}``
    from ``u_0 = 1, u_{-1} = 0`` as Gaussian integers ``(re, im)`` scaled by
    ``2^bits``.  The exact quadratic coefficients of :func:`exact_quadratics`
    are rounded once to that scale; ``lead_k, A_k, B_k`` then advance by exact
    integer finite differences.  Real coefficients keep the iterates real
    (:func:`_real_iterates`)."""
    state = []  # per quadratic: re, im of p(k), of p(k+1) - p(k), of 2 c2
    for c0, c1, c2 in quadratics:
        for v in (c0, c1 + c2, 2 * c2):
            state += Dyadic.of(v).scaled(bits)
    if any(state[1::2]):
        return _gaussian_iterates(state, bits)
    return _real_iterates(state[::2], bits)


def _gaussian_iterates(state: list, bits: int) -> Iterator:
    """The iterates of :func:`fixed_iterates` from its ``state``; the division
    goes through ``conj(lead)/|lead|^2``."""
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


def _real_iterates(state: list, bits: int) -> Iterator:
    """:func:`_gaussian_iterates` when every imaginary part of the ``state``
    is 0, from its real parts: the iterates stay real, and dividing by
    ``lead`` floors the same quotient as ``lead/lead^2``, so each is the same
    integer."""
    lr, dlr, ddlr, ar, dar, ddar, br, dbr, ddbr = state
    ur, vr = 1 << bits, 0
    while True:
        ur, vr = (((ar * ur - br * vr) >> bits) << bits) // lr, ur
        yield ur, 0
        lr, dlr = lr + dlr, dlr + ddlr
        ar, dar = ar + dar, dar + ddar
        br, dbr = br + dbr, dbr + ddbr


def amplitude(exact: SimpleNamespace, rho: Dyadic, u_K: tuple, bits: int, K: int) -> complex:
    """``Gamma(2 theta1) u_K / K^rho``, ``rho = 2 theta1 - 1``, times the
    family factor of ``connection._assembly_prefactor``, from the exact
    parameters (:class:`Dyadic`) and the fixed-point ``u_K``, rounded once to
    binary64.
    The gamma function, logarithms and exponential run at ``_PREC`` bits
    through :mod:`mpmath.libmp` calls that take their precision as an
    argument, so no mpmath context is read or set."""
    lib, prec, rnd = mp.libmp, _PREC, "n"
    # ln of the factors besides Gamma(2 theta1) u_K: -rho ln K + ln(prefactor)
    log_k = lib.mpf_log(lib.from_int(K), prec, rnd)
    log_rest = lib.mpc_mul_mpf((-rho).mpc(), log_k, prec, rnd)
    if exact.family == "CHE":
        log_rest = lib.mpc_add(log_rest, (exact.lam * 0.5).mpc(), prec, rnd)
    elif exact.family == "HE":
        log_base = lib.mpc_log((1 - exact.lam).mpc(), prec, rnd)
        log_pref = lib.mpc_mul((0.5 - exact.theta_t).mpc(), log_base, prec, rnd)
        log_rest = lib.mpc_add(log_rest, log_pref, prec, rnd)
    u = tuple(lib.from_man_exp(part, -bits, prec, rnd) for part in u_K)
    value = lib.mpc_mul(lib.mpc_gamma((2 * exact.theta1).mpc(), prec, rnd), u, prec, rnd)
    value = lib.mpc_mul(value, lib.mpc_exp(log_rest, prec, rnd), prec, rnd)
    return lib.mpc_to_complex(value, rnd=rnd)
