"""Working precision: the number type of a spec is the only switch.

Two backends are supported:

* ``"double"`` — plain Python ``complex``/``float`` arithmetic (binary64);
* ``"high"``   — ``mpmath`` arbitrary-precision arithmetic.

:func:`spec_to_precision` coerces a spec's scalars to one backend; every
kernel then runs in the type it is given.  The elementary-function helpers
here (and the special functions) dispatch on the *type* of their argument,
so numeric kernels are written once and run under either backend.  The
``HEUN_PRECISION`` environment variable (``double`` or ``high``) is only the
command line's default for ``--precision``; the library never reads it.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import os
from typing import Any

import mpmath as mp

from .errors import DomainError

__all__ = [
    "DOUBLE",
    "HIGH",
    "default_precision",
    "is_mp",
    "spec_to_precision",
    "p_log",
    "p_log1p",
    "p_exp",
    "p_power",
]

DOUBLE = "double"
HIGH = "high"

_VALID = (DOUBLE, HIGH)


def default_precision() -> str:
    """Backend selected by the ``HEUN_PRECISION`` environment variable.

    Unset or empty means ``"double"``; any other value than the two supported
    backend names raises :class:`DomainError`.
    """
    val = os.environ.get("HEUN_PRECISION", "").strip().lower()
    if not val:
        return DOUBLE
    if val not in _VALID:
        raise DomainError(
            f"HEUN_PRECISION must be one of {_VALID}, got {val!r}"
        )
    return val


def is_mp(x: Any) -> bool:
    """True when ``x`` is an mpmath scalar (mpf or mpc)."""
    return isinstance(x, (mp.mpf, mp.mpc))


def spec_to_precision(spec: Any, precision: str) -> Any:
    """Return a copy of a frozen parameter dataclass with scalars coerced.

    String fields are preserved; ``None`` fields stay ``None``; every numeric
    field becomes a binary64 ``complex``, or for ``"high"`` an mpmath scalar
    (``mpf`` when real).  Conversion from binary64 to mpmath is exact (the
    double value is taken as the exact rational it represents).  Any other
    ``precision`` raises :class:`DomainError`.
    """
    if precision not in _VALID:
        raise DomainError(f"precision must be one of {_VALID}, got {precision!r}")
    updates = {}
    for f in dataclasses.fields(spec):
        v = getattr(spec, f.name)
        if v is None or isinstance(v, str):
            continue
        if precision != HIGH:
            updates[f.name] = complex(v)
        elif not is_mp(v):
            v = complex(v)
            updates[f.name] = mp.mpc(v.real, v.imag) if v.imag else mp.mpf(v.real)
    return dataclasses.replace(spec, **updates)


def p_log(x: Any) -> Any:
    """Principal logarithm under either backend."""
    if is_mp(x):
        return mp.log(x)
    return cmath.log(x)


def p_log1p(x: Any) -> Any:
    """Principal ``ln(1 + x)`` under either backend, without rounding ``1 + x``."""
    if is_mp(x):
        return mp.log1p(x)
    re, im = complex(x).real, complex(x).imag  # |1 + x|^2 - 1 = re (2 + re) + im^2
    return complex(0.5 * math.log1p(re * (2 + re) + im * im), math.atan2(im, 1 + re))


def p_exp(x: Any) -> Any:
    """Exponential under either backend."""
    if is_mp(x):
        return mp.exp(x)
    return cmath.exp(x)


def p_power(base: Any, expo: Any) -> Any:
    """Principal power ``base**expo`` via exp(expo * log(base))."""
    if is_mp(base) or is_mp(expo):
        return mp.exp(expo * mp.log(base))
    return cmath.exp(expo * cmath.log(base))
