"""Lattice-walk combinatorics behind the coupling series of ``ln a_inf``.

The infinite tridiagonal transition matrix ``A`` with ``A[k, k+1] = 1`` and
``A[k+1, k] = beta_k`` encodes the two-term structure of the rescaled
recurrence.  Powers of ``A`` count Dyck-like walks: ``Tr A^{2n}`` sums over
closed walks of ``2n`` steps, and grouping walks by the multiset of diagonals
on which their up-steps occur gives

``Tr A^{2n} = sum_k sum_mu N_mu beta_k^{mu_1} ... beta_{k+len-1}^{mu_len}``

where ``mu`` runs over compositions of ``n`` (the walk types) and ``N_mu``
counts walks of each type.  The series coefficients then follow from
``ln a_inf = -sum_n Tr A^{2n} lam^n / (2n)`` for the purely two-term
(RCHE-like) case.  The walk sums run to a depth ``K``; the rest comes from
the formal ``1/k`` tail of the tail determinants (:mod:`heunconn.tails`).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, mul
from typing import Iterator, Sequence

from .equations import EquationSpec, coefficient_table, validate
from .errors import DomainError, FamilyFieldError, SizeError
from .tails import d_space, root_depth, series_log, summed_tail

__all__ = [
    "compositions",
    "walk_type",
    "n_mu",
    "enumerate_walk_types",
    "trace_power",
    "log_a_series_from_traces",
]

_MAX_N = 16


def compositions(n: int) -> Iterator[tuple[int, ...]]:
    """All ``2**(n-1)`` compositions (ordered partitions) of ``n`` in
    lexicographic order: ``compositions(3)`` yields
    ``(1, 1, 1), (1, 2), (2, 1), (3,)``.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"compositions need a positive integer, got {n!r}")
    if n > _MAX_N:
        raise SizeError(f"composition order capped at {_MAX_N}, got {n}")

    def _gen(m: int) -> Iterator[tuple[int, ...]]:
        for first in range(1, m + 1):
            if first == m:
                yield (m,)
            else:
                for rest in _gen(m - first):
                    yield (first,) + rest

    return _gen(n)


def walk_type(steps: str) -> tuple[int, ...]:
    """Type of a staircase walk: how many vertical edges cross each occupied
    midpoint diagonal, in northwest (ascending ``y - x``) order.

    ``steps`` is a string over {"U", "R"} with equally many of each; a "U"
    taken after ``u`` ups and ``r`` rights crosses the diagonal through its
    midpoint, labelled ``d = u - r``.  For balanced walks the occupied
    diagonals are automatically consecutive; the type lists the crossing
    counts from the lowest occupied diagonal upward, so it depends only on
    the walk's shape, not its basepoint.  Unbalanced or malformed walks
    raise :class:`DomainError`.
    """
    if not isinstance(steps, str) or any(ch not in "UR" for ch in steps):
        raise DomainError("walk must be a string over {'U', 'R'}")
    counts: dict[int, int] = {}
    height = 0
    for ch in steps:
        if ch == "U":
            counts[height] = counts.get(height, 0) + 1
            height += 1
        else:
            height -= 1
    if height != 0:
        raise DomainError(
            f"walk is unbalanced: {steps.count('U')} ups vs {steps.count('R')} rights"
        )
    if not counts:
        raise DomainError("empty walk has no type")
    return tuple(counts[d] for d in sorted(counts))


def n_mu(mu: Sequence[int]) -> int:
    """Number of closed walks of type ``mu`` (a composition of ``n``):

    ``N_mu = (2n / mu_1) * prod_m binom(mu_m + mu_{m+1} - 1, mu_{m+1})``.

    Exact integer arithmetic throughout.
    """
    mu = tuple(mu)
    if not mu or any((not isinstance(p, int)) or p < 1 for p in mu):
        raise DomainError(f"walk type must be a nonempty tuple of positive integers, got {mu!r}")
    n = sum(mu)
    if n > _MAX_N:
        raise SizeError(f"walk-type weight capped at {_MAX_N}, got {n}")
    val = Fraction(2 * n, mu[0])
    for a, b in zip(mu, mu[1:]):
        val *= math.comb(a + b - 1, b)
    if val.denominator != 1:
        raise DomainError(f"walk count for {mu} is not an integer: {val}")
    return int(val)


def enumerate_walk_types(n: int) -> dict[tuple[int, ...], int]:
    """Brute-force census: walk counts by type over all balanced length-``2n``
    walks that stay nonnegative.  Exponential in ``n``; capped at ``n = 8``.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"census needs a positive integer, got {n!r}")
    if n > 8:
        raise SizeError(f"brute-force census capped at n = 8, got {n}")
    out: dict[tuple[int, ...], int] = {}
    for up_positions in itertools.combinations(range(2 * n), n):
        steps = ["R"] * (2 * n)
        for p in up_positions:
            steps[p] = "U"
        t = walk_type("".join(steps))
        out[t] = out.get(t, 0) + 1
    return out


def trace_power(spec: EquationSpec, n: int) -> complex:
    """``Tr A^{2n}`` for the two-term transition matrix built from the
    family's ``beta_k``, via the walk-type expansion: the weighted ``beta``
    products of every walk type summed directly for ``k <= K``
    (:func:`tails.root_depth`), plus the rest ``T_n(K)``.  The direct
    sums take a whole column of ``k`` at a time: each type's products over
    all ``k``, multiplied in the order of the per-``k`` product, added type
    by type into one column, which is then summed over ``k``.

    The rest is the same sum over the chain that starts at row ``K + 1``, whose
    tail determinant has ``ln D_{K+1} = -sum_n lam^n T_n(K) / (2n)`` (``D_inf =
    1`` as ``alpha = 0``).  So ``T_n(K) = -2n [lam^n] ln S_d(K+1)``, with
    ``S_d`` the ``cf`` route's formal ``1/k`` series of the tail determinants
    (:func:`tails.summed_tail` of :func:`tails.d_space`) as λ-jets to order
    ``n``, summed to working precision.  Only families with ``alpha == 0``
    (RCHE) expose the two-term structure; others raise
    :class:`FamilyFieldError`.
    """
    _check_two_term(spec)
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"trace power needs a positive integer, got {n!r}")
    if n > _MAX_N:
        raise SizeError(f"trace power capped at {_MAX_N}, got {n}")
    return _traces(spec, [n], n)[0]


def _check_two_term(spec: EquationSpec) -> None:
    validate(spec)
    if spec.family != "RCHE":
        raise FamilyFieldError(
            f"trace expansion requires the two-term family RCHE, got {spec.family}"
        )


@functools.cache  # at most _MAX_N orders
def _walk_weights(n: int) -> tuple:
    """Each walk type ``mu`` of order ``n`` with ``float(n_mu(mu))``."""
    return tuple((mu, float(n_mu(mu))) for mu in compositions(n))


def _traces(spec: EquationSpec, orders: list, N: int) -> list[complex]:
    """:func:`trace_power` of a valid RCHE spec at each of ``orders``, all
    ``<= N``, from one coefficient table and one tail to order ``N``.  The
    walk sums start from the float weights of :func:`_walk_weights` and run
    in ``beta``'s own arithmetic, so real ``beta`` stay real and complex ones
    promote each weight as ``(w + 0j) * beta`` would."""
    K = root_depth(spec)
    _, betas = coefficient_table(spec, 1, K + N)
    s_d, _ = summed_tail(spec, d_space, K + 1, "walk-trace tail", N)
    log_s = series_log(s_d)
    columns = [betas[off : off + K] for off in range(N)]  # beta_{k+off}, k = 1 .. K
    out = []
    for n in orders:
        total = [0.0] * K  # weighted beta products of all walk types at each k
        for mu, weight in _walk_weights(n):
            prods = itertools.repeat(weight)
            for column, power in zip(columns, mu):
                for _ in range(power):
                    prods = map(mul, prods, column)
            total = list(map(add, total, prods))
        # a complex sum as per k: from Python 3.12 a float sum is compensated
        out.append(complex(sum(total, 0j) - 2 * n * log_s[n]))
    return out


def log_a_series_from_traces(spec: EquationSpec, N: int) -> list[complex]:
    """Series coefficients ``c_1 .. c_N`` of ``ln a_inf`` from traces:
    ``c_n = -Tr A^{2n} / (2n)``, all from one table and one tail to order
    ``N``.  Two-term families only."""
    if not isinstance(N, int) or N < 1 or N > _MAX_N:
        raise SizeError(f"series order must be in [1, {_MAX_N}], got {N!r}")
    _check_two_term(spec)
    return [-t / (2 * n) for n, t in enumerate(_traces(spec, range(1, N + 1), N), 1)]
