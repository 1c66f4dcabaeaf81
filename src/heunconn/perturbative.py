"""Coupling-series coefficients of ``ln a_inf`` via truncated-jet arithmetic.

A :class:`Jet` is a truncated power series in the coupling ``lam`` (degree-N
polynomial with the O(lam^{N+1}) tail dropped).  Running the backward
continued-fraction sweep with jets instead of numbers — the coupling itself
being the jet ``(0, 1, 0, ...)`` — produces the factors ``eta_k`` as jets,
and summing their logarithms gives the series

``ln a_inf = sum_{n>=1} c_n lam^n``

to any order in one sweep.  Because each backward level multiplies the seed
error by one more power of ``lam``, a seed buffer of ``N+2`` levels above the
deepest retained index makes the jets exact there; the remaining truncation
error of the k-sum is algebraic in 1/K and is removed per coefficient by
extrapolation over the library's one ladder shape (``richardson.NODES`` nodes
up to ``K = richardson.FIXED_DEPTH``).

Closed forms for the leading coefficients (``c_1, c_2`` for RCHE, ``c_1`` for
HE through the composite-exponent slope ``sigma_1``) are implemented from
digamma/trigamma expressions and serve as independent references.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Sequence

from .equations import EquationSpec, coefficient_table, validate
from .errors import (
    DomainError,
    FamilyFieldError,
    JetDivByZero,
    ParameterResonance,
    SizeError,
    SlowConvergence,
)
from .richardson import FIXED_DEPTH, NODES, extrapolate, ladder_values
from .special import polygamma

__all__ = [
    "Jet",
    "jet_from_scalar",
    "jet_variable",
    "jet_add",
    "jet_sub",
    "jet_scale",
    "jet_mul",
    "jet_div",
    "jet_log",
    "jet_exp",
    "c_coefficients",
    "c1_closed_rche",
    "c2_closed_rche",
    "sigma1_closed",
    "f1_closed_he",
    "c1_closed_he",
]

_MAX_ORDER = 8
_RESONANCE_TOL = 1e-10
_TOL = 1e-9  # largest ladder correction accepted, relative to max(1, |c_n|)


@dataclass(frozen=True)
class Jet:
    """Truncated power series: ``coeffs[j]`` multiplies ``lam**j``."""

    order: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise DomainError(
                f"jet of order {self.order} needs {self.order + 1} coefficients, "
                f"got {len(self.coeffs)}"
            )


def jet_from_scalar(c: Any, order: int) -> Jet:
    """Constant jet."""
    return Jet(order, (c,) + (0.0,) * order)


def jet_variable(order: int) -> Jet:
    """The coupling itself as a jet: ``(0, 1, 0, ..., 0)``."""
    if order < 1:
        raise DomainError("jet order must be at least 1 for the coupling variable")
    return Jet(order, (0.0, 1.0) + (0.0,) * (order - 1))


def _match(a: Jet, b: Jet) -> int:
    if a.order != b.order:
        raise DomainError(f"jet order mismatch: {a.order} vs {b.order}")
    return a.order


def jet_add(a: Jet, b: Jet) -> Jet:
    n = _match(a, b)
    return Jet(n, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def jet_sub(a: Jet, b: Jet) -> Jet:
    n = _match(a, b)
    return Jet(n, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))


def jet_scale(a: Jet, s: Any) -> Jet:
    return Jet(a.order, tuple(s * x for x in a.coeffs))


def jet_mul(a: Jet, b: Jet) -> Jet:
    n = _match(a, b)
    out = [0.0] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if x == 0.0:
            continue
        for j in range(0, n + 1 - i):
            out[i + j] = out[i + j] + x * b.coeffs[j]
    return Jet(n, tuple(out))


def jet_div(a: Jet, b: Jet) -> Jet:
    """Series quotient; :class:`JetDivByZero` when ``b`` has zero constant term."""
    n = _match(a, b)
    b0 = b.coeffs[0]
    if abs(b0) < 1e-280:
        raise JetDivByZero("division by a jet with vanishing constant term")
    out = [0.0] * (n + 1)
    for k in range(n + 1):
        s = a.coeffs[k]
        for j in range(1, k + 1):
            s = s - b.coeffs[j] * out[k - j]
        out[k] = s / b0
    return Jet(n, tuple(out))


def jet_log(f: Jet) -> Jet:
    """Series logarithm of a jet with unit constant term:
    ``l_n = f_n - (1/n) sum_{j=1}^{n-1} j l_j f_{n-j}``."""
    if abs(f.coeffs[0] - 1.0) > 1e-9:
        raise DomainError(
            f"jet_log requires a unit constant term, got {f.coeffs[0]!r}"
        )
    n = f.order
    out = [0.0] * (n + 1)
    for m in range(1, n + 1):
        s = f.coeffs[m]
        for j in range(1, m):
            s = s - (j / m) * out[j] * f.coeffs[m - j]
        out[m] = s
    return Jet(n, tuple(out))


def jet_exp(a: Jet) -> Jet:
    """Series exponential of a jet with vanishing constant term:
    ``e_n = (1/n) sum_{j=1}^{n} j a_j e_{n-j}``."""
    if abs(a.coeffs[0]) > 1e-9:
        raise DomainError(
            f"jet_exp requires a vanishing constant term, got {a.coeffs[0]!r}"
        )
    n = a.order
    out = [0.0] * (n + 1)
    out[0] = 1.0
    for m in range(1, n + 1):
        s = 0.0
        for j in range(1, m + 1):
            s = s + (j / m) * a.coeffs[j] * out[m - j]
        out[m] = s
    return Jet(n, tuple(out))


def c_coefficients(spec: EquationSpec, N: int) -> list[complex]:
    """Coefficients ``c_1 .. c_N`` of ``ln a_inf`` in powers of the coupling.

    The spec's own ``lam`` value is ignored — only the family structure and
    the non-coupling parameters enter.  ``N`` above 8 raises
    :class:`SizeError`; a ladder that fails to contract below
    ``1e-9 max(1, |c_n|)`` for some coefficient raises
    :class:`SlowConvergence`.  For HYP all coefficients vanish.
    """
    validate(spec)
    if not isinstance(N, int) or N < 1 or N > _MAX_ORDER:
        raise SizeError(f"series order must be an integer in [1, {_MAX_ORDER}], got {N!r}")
    if spec.family == "HYP":
        return [0j] * N
    buffer = N + 2
    one = jet_from_scalar(1.0, N)
    lam = jet_variable(N)
    eta = one
    # Backward sweep: eta_k = 1 - lam alpha_{k-1} - lam beta_k / eta_{k+1}.
    log_jets: list[tuple] = [()] * FIXED_DEPTH
    alphas, betas = coefficient_table(spec, 0, FIXED_DEPTH + buffer + 1)
    for k in range(FIXED_DEPTH + buffer, 0, -1):
        lam_be = Jet(N, tuple(0.0 if j != 1 else betas[k] for j in range(N + 1)))
        lam_al = Jet(N, tuple(0.0 if j != 1 else alphas[k - 1] for j in range(N + 1)))
        eta = jet_sub(jet_sub(one, lam_al), jet_div(lam_be, eta))
        if k <= FIXED_DEPTH:
            log_jets[k - 1] = jet_log(eta).coeffs
    sums = accumulate(log_jets, lambda acc, lj: [a + b for a, b in zip(acc, lj)])
    inv_nodes, sums = ladder_values(sums, FIXED_DEPTH, NODES)
    out = []
    for n in range(1, N + 1):
        cn, err = extrapolate(inv_nodes, [s[n] for s in sums], require_contraction=True)
        if err > _TOL * max(1.0, abs(cn)):
            raise SlowConvergence(
                f"c_{n} ladder correction {err:.3e} above {_TOL:.1e}"
            )
        out.append(complex(cn))
    if spec.family == "HE":
        # exact shift from the -ln(1-lam) factor: + lam^n / n
        out = [c + 1.0 / n for n, c in zip(range(1, N + 1), out)]
    return out


def _psi_diff(a: Any, w: Any) -> Any:
    """psi(a + w) - psi(a - w)."""
    return polygamma(0, a + w) - polygamma(0, a - w)


def _require_family(spec: EquationSpec, family: str, what: str) -> None:
    if spec.family != family:
        raise FamilyFieldError(f"{what} applies to family {family}, got {spec.family}")


def _require_away(value: Any, bad: Sequence[float], what: str) -> None:
    for b in bad:
        if abs(value - b) < _RESONANCE_TOL:
            raise ParameterResonance(
                f"{what} has a vanishing denominator at omega = {b}; omega = {value!r}"
            )


def c1_closed_rche(spec: EquationSpec) -> complex:
    """Digamma closed form of the first series coefficient (RCHE)."""
    _require_family(spec, "RCHE", "c1 closed form")
    validate(spec)
    t0, t1, om = spec.theta0, spec.theta1, spec.omega
    _require_away(om, (0.0, 0.5, -0.5, 1.0, -1.0), "c1 closed form")
    a = 0.5 - t0 + t1
    m = 0.25 - t0 * t0 + t1 * t1 - om * om
    q = 0.25 - om * om
    val = -(m / (4 * om * q)) * _psi_diff(a, om) + (t0 + t1) / (2 * q)
    return complex(val)


def c2_closed_rche(spec: EquationSpec) -> complex:
    """Digamma/trigamma closed form of the second series coefficient (RCHE)."""
    _require_family(spec, "RCHE", "c2 closed form")
    validate(spec)
    t0, t1, om = spec.theta0, spec.theta1, spec.omega
    _require_away(om, (0.0, 0.5, -0.5, 1.0, -1.0), "c2 closed form")
    a = 0.5 - t0 + t1
    om2 = om * om
    q = 0.25 - om2
    r = 1.0 - om2
    m = 0.25 - t0 * t0 + t1 * t1 - om2
    d2 = t0 * t0 - t1 * t1
    s2 = t0 * t0 + t1 * t1
    psi_d = _psi_diff(a, om)
    psi1_s = polygamma(1, a + om) + polygamma(1, a - om)
    om4 = om2 * om2
    coeff_s = (
        (60 * om4 - 35 * om2 + 2) * d2 * d2 / (256 * om2 * om * q**3 * r)
        - 3 * s2 / (32 * om * r * q)
        - (1 - 12 * om2) * d2 / (64 * om2 * om * q * q)
        + (2 - 3 * om2) / (64 * om2 * om * r)
    )
    val = (
        -(m * m / (32 * om2 * q * q)) * psi1_s
        + coeff_s * psi_d
        + (t0 + t1) / (4 * q * q)
        - 3 * (t0 - t1) / (32 * q * r)
        - (25 - 52 * om2) * (t0 - t1) * (t0 + t1) ** 2 / (128 * q**3 * r)
    )
    return complex(val)


def sigma1_closed(spec: EquationSpec) -> complex:
    """Leading coupling-slope of the composite-monodromy exponent (HE):
    ``sigma = omega + sigma_1 lam + O(lam^2)``."""
    _require_family(spec, "HE", "sigma1 closed form")
    validate(spec)
    om = spec.omega
    _require_away(om, (0.0, 0.5, -0.5), "sigma1 closed form")
    t0, t1 = spec.theta0, spec.theta1
    tt, ti = spec.theta_t, spec.theta_inf
    q = 0.25 - om * om
    val = (q + t0 * t0 - t1 * t1) * (q + ti * ti - tt * tt) / (4 * om * q)
    return complex(val)


def f1_closed_he(spec: EquationSpec) -> complex:
    """Digamma closed form of the first coefficient of ``ln(F(lam)/F(0))``
    for the gamma-ratio factor with shifted exponent (HE)."""
    _require_family(spec, "HE", "f1 closed form")
    validate(spec)
    t0, t1, om = spec.theta0, spec.theta1, spec.omega
    tt, ti = spec.theta_t, spec.theta_inf
    _require_away(om, (0.0, 0.5, -0.5), "f1 closed form")
    q = 0.25 - om * om
    s1 = sigma1_closed(spec)
    a = 0.5 + t1 - t0
    val = -s1 * _psi_diff(a, om) - (t0 + t1) * (q + ti * ti - tt * tt) / (2 * q)
    return complex(val)


def c1_closed_he(spec: EquationSpec) -> complex:
    """First series coefficient of ``ln a_inf`` for HE:
    ``c_1 = 1/2 - theta_t + f_1``."""
    _require_family(spec, "HE", "c1 closed form")
    val = 0.5 - spec.theta_t + f1_closed_he(spec)
    return complex(val)
