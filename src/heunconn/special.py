"""Gamma-family special functions on the complex plane, double and high precision.

The binary64 backend implements:

* ``gamma`` — a rational-kernel approximation (shifted-exponential form with an
  11/10-degree polynomial ratio whose coefficients are all positive, evaluated
  by Horner's rule to avoid the cancellation of the partial-fraction form),
  with the reflection formula for ``Re z < 1/2``.  Against a 40-digit
  reference on ``Re z in [0.5, 50]``, ``|Im z| <= 50`` the worst relative
  error is 3.7e-14 on the grid of ``tools/derive_lanczos.py``, which derives
  the coefficient tables and repeats that measurement, and 6.4e-14 on 3,000
  seeded points (at ``z = 49.58 - 46.33i``).
* ``log_gamma`` — principal branch on the plane cut along the nonpositive real
  axis.  For ``Re z >= 1/2`` it is the same kernel in log form, ``1/2 ln 2 pi
  + (x + 1/2) Log t - t + Log(N(x)/D(x))`` with ``x = z - 1``, ``t = x +
  9.5`` (``N/D`` in powers of ``1/x`` where ``|x| > 1``), less ``2 pi i``
  times its rounded distance in imaginary part to Stirling's leading term
  ``(z - 1/2) Log z - z + 1/2 ln 2 pi``, which is within ``1/(6|z|) <= 1/3``
  of log-gamma there.  For ``Re z < 1/2`` a log-reflection formula with
  explicit sine-log unwinding calls the kernel.  Real ``z < 0`` is treated
  as the limit from the upper half-plane.
* ``polygamma`` — orders ``0 <= n <= 16`` by upward recurrence to ``Re w >=
  18 + n`` (``10 + n`` on the real line) and the asymptotic series with
  even-index Bernoulli coefficients, for ``Re z >= -2^20``.
* ``pochhammer`` — rising factorial as a direct product, ``0j`` at once where
  a factor is exactly zero, and a :class:`DomainError` at the factor where
  the product leaves the binary64 range.

The complex polygamma tails stop at the first power outside the binary64
range (:func:`_finite_terms`); a complex value outside it raises
:class:`DomainError`.

A binary64 argument whose imaginary part is zero (a float, an int, or a
complex with imaginary part ``0.0`` or ``-0.0``) takes a real-line path:
``log_gamma`` is ``math.lgamma(x)`` with imaginary part ``-pi ceil(-x)`` for
``x < 0`` (the same upper-half-plane branch; :func:`_real_log_gamma` gives
the two parts as a float and an int), and ``polygamma`` is
:func:`_polygamma_real`: upward shifts to ``x >= 10 + n`` and the series of
:data:`_PG_REAL` in float arithmetic, its Bernoulli tail by Horner's rule in
``1/w^2``.  A float reaches either without conversion to ``complex``; the
complex polygamma shifts serve only ``Im z != 0``.  A real ``polygamma``
call takes about 1.1 us at order 0 and 1.6 us at order 1 on ``(0, 2)``
(1.8 and 2.6 us with the former shifts to ``18 + n``).  Measured against
mpmath at 30 to 40 digits on ``[-2, 3]``, 0.02 from the poles (Python 3.11,
x86-64):

* real line, 20,000 points: ``log_gamma`` 2.0e-15 absolute error,
  ``polygamma`` orders 0-3 at most 4.1e-15 times ``max(1, |value|)`` (order 2
  next to its zeros near ``-1/2`` and ``-3/2``, where shift terms cancel;
  orders 0, 1 and 3 at most 1.6e-15);
* complex plane, ``0 < |Im z| <= 2``: ``log_gamma`` 3.8e-15 absolute error
  on 40,000 points, ``polygamma`` orders 0-3 at most 1.6e-15 times ``max(1,
  |value|)`` on 2,000; ``log_gamma`` is 7.4e-15 off where the kernel's logs
  wind (``Re z in [0.5, 1.5]``, ``Im z in [3, 10]``).

Each function follows the type of its argument, like the helpers of
:mod:`heunconn.precision`: an mpmath scalar (``mpf``/``mpc``) is evaluated by
mpmath at the current working precision, anything else by the binary64
kernels above.  Both raise the same :class:`PoleError` near a pole.  An
argument that is not a number, or an int past the binary64 range, raises
:class:`DomainError` naming the function (:func:`_binary64`).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Any

import mpmath as mp

from .errors import DomainError, OrderError, PoleError
from .precision import is_mp

__all__ = ["gamma", "log_gamma", "polygamma", "pochhammer", "digamma"]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)

# Rational kernel for gamma: gamma(z) = sqrt(2*pi) * t**(x+1/2) * exp(-t)
#   * N(x)/D(x) with x = z - 1, t = x + 9.5.  Coefficients ascending in x;
# D(x) = (x+1)(x+2)...(x+10).  All coefficients positive, so Horner evaluation
# incurs no cancellation.
_SHIFT = 9.5
_NUM = (
    6274929837.128195,
    6575054783.53654,
    3100211421.260189,
    866220111.5352646,
    158826585.7147487,
    19968703.860089365,
    1743421.8010442036,
    104372.6104914159,
    4100.417534722223,
    95.45833333333333,
    1.0000000000000002,
)
_DEN = (
    3628800.0,
    10628640.0,
    12753576.0,
    8409500.0,
    3416930.0,
    902055.0,
    157773.0,
    18150.0,
    1320.0,
    55.0,
    1.0,
)

# Even-index Bernoulli numbers B_2 .. B_20 (exact rationals).
_BERNOULLI = (
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
)

_MAX_POLYGAMMA_ORDER = 16

# Asymptotic tail coefficients of polygamma order n:
#   B_2k * (2k + n - 1)! / (2k)!   for k = 1..10, n = 0..16.
_PG_TAIL = tuple(
    tuple(
        float(
            _BERNOULLI[k - 1]
            * Fraction(math.factorial(2 * k + n - 1), math.factorial(2 * k))
        )
        for k in range(1, 11)
    )
    for n in range(_MAX_POLYGAMMA_ORDER + 1)
)

# The real path's series of polygamma order n, signs included: with y = 1/w^2,
#   psi(w) = ln w + h/w + sum_k t_k y^k  and, for n >= 1,
#   psi^(n)(w) = (lead + h/w + sum_k t_k y^k) / w^n,
# a row (lead, h, t_1 .. t_10) per order: lead = (-1)^(n+1) (n-1)! (0 at
# n = 0), h = (-1)^(n+1) n!/2 and t_k = (-1)^(n+1) _PG_TAIL[n][k-1].
_PG_REAL = tuple(
    tuple(
        (-1.0) ** (n + 1) * c
        for c in (math.factorial(n - 1) if n else 0, math.factorial(n) / 2, *_PG_TAIL[n])
    )
    for n in range(_MAX_POLYGAMMA_ORDER + 1)
)

# The constant (-1)^n n! of polygamma's upward shifts, psi^(n)(w) =
# psi^(n)(w + 1) - (-1)^n n! / w^(n+1).
_PG_SHIFT = tuple(
    (1.0 if n % 2 == 0 else -1.0) * float(math.factorial(n))
    for n in range(_MAX_POLYGAMMA_ORDER + 1)
)

_POLE_TOL = 1e-12
_MAX_SHIFT = 2**20  # upward shifts of polygamma; past 2^53 a shift does not move z


def _horner(coeffs: tuple[float, ...], x: complex) -> complex:
    r: complex = 0.0
    for c in reversed(coeffs):
        r = r * x + c
    return r


def _near_nonpositive_integer(z: complex) -> bool:
    n = round(z.real)
    return n <= 0 and abs(z - n) < _POLE_TOL


def _binary64(z: Any, name: str) -> complex:
    """``complex(z)``; a non-number, or a number past the binary64 range such
    as ``10**400``, raises :class:`DomainError` naming the function."""
    try:
        return complex(z)
    except OverflowError:
        raise DomainError(
            f"{name} argument of type {type(z).__name__} is outside the binary64 range"
        ) from None
    except (TypeError, ValueError):
        raise DomainError(f"{name} argument {z!r} is not a number") from None


def _check_pole(z: complex, name: str) -> None:
    if not cmath.isfinite(z):
        raise DomainError(f"{name} argument {z!r} is not finite")
    if _near_nonpositive_integer(z):
        raise PoleError(f"{name} argument {z!r} is within {_POLE_TOL} of a pole")


def _check_real_pole(x: float, name: str) -> None:
    """:func:`_check_pole` of a float, without conversion to complex where it passes."""
    if not math.isfinite(x) or x < 0.5 and _near_nonpositive_integer(x):
        _check_pole(complex(x), name)  # raises, with its messages


def _sin_pi(z: complex) -> complex:
    """sin(pi*z) with exact integer reduction of the real part."""
    n = math.floor(z.real + 0.5)
    f = complex(z.real - n, z.imag)
    s = cmath.sin(math.pi * f)
    return -s if n & 1 else s


def _gamma_core(z: complex) -> complex:
    """Rational-kernel gamma for Re z >= 1/2."""
    x = z - 1.0
    t = x + _SHIFT
    kernel = _horner(_NUM, x) / _horner(_DEN, x)
    return _SQRT_2PI * cmath.exp((x + 0.5) * cmath.log(t) - t) * kernel


def _log_gamma_core(z: complex) -> complex:
    """Principal log-gamma for Re z >= 1/2: the kernel of :func:`_gamma_core`
    in log form, with ``N/D`` in powers of ``1/x`` where ``|x| > 1`` so that
    no power overflows.  The logs of ``t`` and ``N/D`` may leave the branch by
    a multiple of ``2 pi i``; Stirling's leading term is within ``1/(6|z|)
    <= 1/3`` of log-gamma here, so rounding the distance to it restores it."""
    x = z - 1.0
    t = x + _SHIFT
    if abs(x) > 1.0:
        y = 1.0 / x
        kernel = _horner(_NUM[::-1], y) / _horner(_DEN[::-1], y)
    else:
        kernel = _horner(_NUM, x) / _horner(_DEN, x)
    val = _LN_SQRT_2PI + (x + 0.5) * cmath.log(t) - t + cmath.log(kernel)
    lead = (z - 0.5) * cmath.log(z) - z + _LN_SQRT_2PI
    return val - 2j * math.pi * round((val.imag - lead.imag) / (2.0 * math.pi))


def gamma(z: Any) -> Any:
    """Gamma function; raises :class:`PoleError` within 1e-12 of a pole, and
    :class:`DomainError` where the binary64 kernel leaves its range."""
    zc = _binary64(z, "gamma")
    _check_pole(zc, "gamma")
    if is_mp(z):
        return mp.gamma(z)
    z = zc
    try:
        val = _gamma_core(z) if z.real >= 0.5 else math.pi / (_sin_pi(z) * _gamma_core(1.0 - z))
        if cmath.isfinite(val):
            return val
    except OverflowError:
        pass
    raise DomainError(f"gamma({z!r}) is outside the binary64 range")


def _finite_terms(p: complex, w2: complex) -> int:
    """How many powers ``p w2^k``, ``k < 10``, of a complex asymptotic tail are
    finite; the terms past them are below the rounding of the sum."""
    for k in range(10):
        if not cmath.isfinite(p):
            return k
        p *= w2
    return 10


def _log_sin_pi_upper(z: complex) -> complex:
    """Log of sin(pi*z), unwound so the log-reflection formula for log-gamma
    stays on the principal branch; valid for Im z >= 0.

    ``sin(pi z) = i e^(-i pi z) (1 - e^(2 pi i z)) / 2``.  The factor ``1 -
    e^(2 pi i f)``, ``f = z - round(Re z)``, is formed from ``expm1`` of ``-2
    pi Im f`` and the sine of ``pi Re f``, so it keeps its relative accuracy
    where ``z`` nears an integer (a pole of the gamma function)."""
    f = z - round(z.real)
    x, decay = math.pi * f.real, math.expm1(-2.0 * math.pi * f.imag)
    one_minus_w = complex(2.0 * math.sin(x) ** 2 - decay * math.cos(2.0 * x),
                          -(1.0 + decay) * math.sin(2.0 * x))
    return -math.log(2.0) + 0.5j * math.pi - 1j * math.pi * z + cmath.log(one_minus_w)


def _real_log_gamma(x: float) -> tuple[float, int]:
    """:func:`log_gamma` of a float ``x`` as ``(ln |Gamma(x)|, k)``, its
    value being ``ln |Gamma(x)| - pi k i`` (the limit from the upper
    half-plane, ``k = ceil(-x)`` for ``x < 0``, else 0), so ``Gamma(x)`` has
    the sign ``(-1)^k``.  It raises as :func:`log_gamma` does near a pole,
    and ``ln |Gamma(x)|`` is ``inf`` above the binary64 range."""
    _check_real_pole(x, "log_gamma")
    try:
        lg = math.lgamma(x)
    except OverflowError:  # log Gamma(x) above the binary64 range
        lg = math.inf
    return lg, math.ceil(-x) if x < 0.0 else 0


def _log_gamma_real(x: float) -> complex:
    """:func:`log_gamma` of a float ``x``, from :func:`_real_log_gamma`."""
    lg, k = _real_log_gamma(x)
    return complex(lg, -math.pi * k) if k else complex(lg)


def log_gamma(z: Any) -> Any:
    """Principal-branch log-gamma (cut along the nonpositive real axis).

    Real negative arguments are evaluated as limits from the upper half-plane,
    so the imaginary part decreases by pi across each pole interval.  A real
    argument whose log-gamma exceeds the binary64 range (about 2.5e305) gives
    ``inf``; a complex one raises :class:`DomainError`.
    """
    if isinstance(z, float):  # the real line without a round-trip through complex
        return _log_gamma_real(z)
    zc = _binary64(z, "log_gamma")
    _check_pole(zc, "log_gamma")
    if is_mp(z):
        return mp.loggamma(z)
    z = zc
    if z.imag == 0.0:
        return _log_gamma_real(z.real)
    if z.imag < 0.0:
        return log_gamma(z.conjugate()).conjugate()
    try:
        if z.real >= 0.5:
            val = _log_gamma_core(z)
        else:
            val = _LN_PI - _log_sin_pi_upper(z) - _log_gamma_core(1.0 - z)
        if cmath.isfinite(val):
            return val
    except (OverflowError, ValueError):  # the branch rounding of a non-finite value
        pass
    raise DomainError(f"log_gamma({z!r}) is outside the binary64 range")


def _polygamma_asymptotic(n: int, w: complex) -> complex:
    """Asymptotic polygamma series of a complex ``w``; accurate for Re w >=
    18 + n.  The tail stops at the binary64 range (:func:`_finite_terms`)."""
    if n == 0:
        s = cmath.log(w) - 0.5 / w
        w2 = w * w
        p = w2  # w^(2k)
        for k in range(_finite_terms(p, w2)):
            s -= _PG_TAIL[0][k] / p
            p *= w2
        return s
    sign = 1.0 if n % 2 == 1 else -1.0
    try:
        wn = w**n
    except OverflowError:  # |w|^n beyond binary64: the leading term alone
        return sign * math.factorial(n - 1) * (1 / w) ** n
    s = math.factorial(n - 1) / wn + math.factorial(n) / (2.0 * wn * w)
    w2 = w * w
    p = wn * w2  # w^(2k+n)
    for k in range(_finite_terms(p, w2)):
        s += _PG_TAIL[n][k] / p
        p *= w2
    return sign * s


def _polygamma_real(n: int, x: float) -> complex:
    """:func:`polygamma` of a finite real ``x`` off the poles, in float
    arithmetic: the upward shifts to ``10 + n`` and the series of
    :data:`_PG_REAL`, its tail by Horner's rule in ``1/w^2``."""
    threshold = 10.0 + n
    if threshold - x > _MAX_SHIFT:
        raise DomainError(
            f"polygamma({n}, {complex(x)!r}) would take more than {_MAX_SHIFT} shifts"
        )
    w, acc = x, 0.0
    if n == 0:
        while w < threshold:
            acc += 1.0 / w
            w += 1.0
    else:
        c = _PG_SHIFT[n]
        while w < threshold:
            acc += c / w ** (n + 1)
            w += 1.0
    lead, h, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10 = _PG_REAL[n]
    y = 1.0 / (w * w)
    s = lead + h / w + y * (t1 + y * (t2 + y * (t3 + y * (t4 + y * (
        t5 + y * (t6 + y * (t7 + y * (t8 + y * (t9 + y * t10)))))))))
    if n == 0:
        val = math.log(w) + s - acc
    else:
        try:
            val = s / w**n - acc
        except OverflowError:  # |w|^n beyond binary64: the leading term alone
            val = lead * (1.0 / w) ** n - acc
    if math.isfinite(val):
        return complex(val)
    raise DomainError(f"polygamma({n}, {complex(x)!r}) is outside the binary64 range")


def polygamma(n: int, z: Any) -> Any:
    """n-th derivative of log-gamma, orders 0..16.

    A float, an int, or a complex with imaginary part ``0.0`` or ``-0.0`` is
    evaluated by :func:`_polygamma_real`.

    Raises :class:`OrderError` outside the supported order range,
    :class:`PoleError` within 1e-12 of a nonpositive integer, and
    :class:`DomainError` where the argument would take more than 2^20 upward
    shifts or a complex value leaves the binary64 range.
    """
    if not isinstance(n, int) or n < 0 or n > _MAX_POLYGAMMA_ORDER:
        raise OrderError(
            f"polygamma order must be an integer in [0, {_MAX_POLYGAMMA_ORDER}], got {n!r}"
        )
    if isinstance(z, float):
        _check_real_pole(z, "polygamma")
        return _polygamma_real(n, z)
    zc = _binary64(z, "polygamma")
    _check_pole(zc, "polygamma")
    if is_mp(z):
        return mp.polygamma(n, z)
    z = zc
    if z.imag == 0.0:
        return _polygamma_real(n, z.real)
    if z.imag < 0.0:
        return polygamma(n, z.conjugate()).conjugate()
    threshold = 18.0 + n
    if threshold - z.real > _MAX_SHIFT:
        raise DomainError(f"polygamma({n}, {z!r}) would take more than {_MAX_SHIFT} shifts")
    c = _PG_SHIFT[n]
    w, acc = z, 0.0
    try:
        while w.real < threshold:
            acc += c / w ** (n + 1)
            w += 1.0
        val = _polygamma_asymptotic(n, w) - acc
        if cmath.isfinite(val):
            return val
    except OverflowError:  # the power of a complex shift
        pass
    raise DomainError(f"polygamma({n}, {z!r}) is outside the binary64 range")


def digamma(z: Any) -> Any:
    """Logarithmic derivative of gamma (polygamma of order zero)."""
    return polygamma(0, z)


def pochhammer(x: Any, k: int) -> Any:
    """Rising factorial ``x (x+1) ... (x+k-1)``; ``k = 0`` gives 1.

    A binary64 product with a factor that is exactly zero is ``0j`` at once;
    a non-finite argument (binary64 or mpmath), or a product that leaves the
    binary64 range, raises :class:`DomainError` at the factor where it does."""
    if not isinstance(k, int) or k < 0:
        raise DomainError(f"pochhammer index must be a nonnegative integer, got {k!r}")
    if is_mp(x):
        if not mp.isfinite(x):
            raise DomainError(f"pochhammer argument {x!r} is not finite")
        out = x * 0 + 1
        for j in range(k):
            out = out * (x + j)
        return out
    xv = _binary64(x, "pochhammer")
    if not cmath.isfinite(xv):
        raise DomainError(f"pochhammer argument {xv!r} is not finite")
    if xv.imag == 0.0 and xv.real.is_integer() and -k < xv.real <= 0.0:
        return 0j  # the factor x + j is zero at j = -x
    out = 1 + 0j
    for j in range(k):
        out = out * (xv + j)
        if not cmath.isfinite(out):
            raise DomainError(f"pochhammer({xv!r}, {k}) is outside the binary64 range")
    return out
