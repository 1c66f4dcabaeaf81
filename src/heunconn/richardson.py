"""Polynomial extrapolation of sequences with integer-power tails.

A quantity that approaches its limit with an asymptotic expansion in pure
integer powers of a small step (1/N for a truncation size N) is recovered by
Neville polynomial extrapolation to step zero over a geometric ladder of
nodes: :func:`geometric_ladder` gives the nodes and :func:`extrapolate` the
extrapolated limit together with an error estimate (the magnitude of the
last Neville correction).  No route or check of the library calls them.
"""

from __future__ import annotations

from typing import Any, Sequence

from .errors import DomainError

__all__ = [
    "extrapolate",
    "geometric_ladder",
]


def geometric_ladder(k_max: int, levels: int, ratio: int = 2) -> list[int]:
    """Truncation sizes ``[k_max/ratio**(levels-1), ..., k_max/ratio, k_max]``.

    All entries are exact integer divisions; ``k_max`` must be divisible by
    ``ratio**(levels-1)``.
    """
    if levels < 1:
        raise DomainError("ladder needs at least one level")
    if k_max < 1:
        raise DomainError(f"k_max={k_max} must be positive")
    if ratio < 2:
        raise DomainError(f"ratio={ratio} must be at least 2")
    step = ratio ** (levels - 1)
    if k_max % step != 0:
        raise DomainError(
            f"k_max={k_max} not divisible by ratio**(levels-1)={step}"
        )
    return [k_max // ratio**j for j in range(levels - 1, -1, -1)]


def extrapolate(
    steps: Sequence[Any],
    values: Sequence[Any],
) -> tuple[Any, float]:
    """Neville extrapolation of ``values[j] = f(steps[j])`` to step zero.

    Builds the Neville table for the polynomial through the points
    ``(steps[j], values[j])`` and evaluates it at 0.  Returns ``(limit, err)``
    where ``err`` is the magnitude of the final correction (difference between
    the last two table stages) — a standard a-posteriori error estimate for a
    convergent ladder.
    """
    n = len(steps)
    if n != len(values) or n == 0:
        raise DomainError("steps and values must be equal-length, non-empty")
    if n == 1:
        return values[0], float("inf")
    h = list(steps)
    stage = list(values)
    prev_last = stage[-1]
    for m in range(1, n):
        nxt = []
        for i in range(n - m):
            # Value at 0 of the polynomial through nodes i .. i+m.
            num = h[i] * stage[i + 1] - h[i + m] * stage[i]
            nxt.append(num / (h[i] - h[i + m]))
        prev_last = stage[-1]
        stage = nxt
    limit = stage[0]
    err = abs(limit - prev_last)
    return limit, err
