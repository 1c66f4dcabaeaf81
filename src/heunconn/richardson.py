"""Polynomial extrapolation of sequences with integer-power tails.

Several quantities in this library approach their limits with an asymptotic
expansion in pure integer powers of a small step (typically 1/K for a
truncation size K): partial sums of continued-fraction logarithms, rescaled
recurrence iterates, large-order coefficient ladders, truncated determinants
and truncated trace sums.  For all of them the limit is recovered by Neville
polynomial extrapolation to step zero over a geometric ladder of nodes.

:func:`extrapolate` takes the nodes and values and returns the extrapolated
limit together with an error estimate (the magnitude of the last Neville
correction).  Two functions are the one place that iterates a sequence to
its ladder nodes: :func:`ladder_values` reads the nodes' values for it, and
:func:`double_until_stable` doubles the top node until two limits agree.

Every ladder of the library has the same shape: ``NODES`` nodes, the top one
doubled from ``DOUBLING_START`` where a route iterates to a tolerance, or
fixed at ``FIXED_DEPTH`` where it sums to a set depth.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterable, Optional, Sequence

from .errors import DomainError, NonConvergence, SlowConvergence

__all__ = [
    "extrapolate",
    "geometric_ladder",
    "ladder_values",
    "double_until_stable",
    "noise_gain",
]

NODES = 7  # nodes of every truncation ladder
DOUBLING_START = 512  # first top node of a ladder doubled until stable
FIXED_DEPTH = 2048  # top node of a ladder summed to a set depth


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
    *,
    require_contraction: bool = False,
) -> tuple[Any, float]:
    """Neville extrapolation of ``values[j] = f(steps[j])`` to step zero.

    Builds the Neville table for the polynomial through the points
    ``(steps[j], values[j])`` and evaluates it at 0.  Returns ``(limit, err)``
    where ``err`` is the magnitude of the final correction (difference between
    the last two table stages) — a standard a-posteriori error estimate for a
    convergent ladder.

    With ``require_contraction=True`` a :class:`SlowConvergence` error is
    raised when the final correction is not smaller than the first-column
    spread, i.e. when the table shows no gain over the raw sequence.
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
    if require_contraction:
        raw_spread = abs(values[-1] - values[0])
        if raw_spread > 0 and not (err < raw_spread):
            raise SlowConvergence(
                f"extrapolation ladder not contracting: final correction {err:.3e} "
                f"vs raw spread {raw_spread:.3e}"
            )
    return limit, err


def noise_gain(levels: int) -> float:
    """Sum of the magnitudes of the weights with which :func:`extrapolate`
    combines the values of a ``levels``-node ladder (8.0 for 7 nodes): the
    most it amplifies an error carried by every value.  The weights depend
    only on the ratios of the steps, so any ratio-2 ladder gives the same sum."""
    steps = [1.0 / k for k in geometric_ladder(2 ** (levels - 1), levels)]
    return sum(
        abs(extrapolate(steps, [float(i == j) for i in range(levels)])[0])
        for j in range(levels)
    )


def ladder_values(
    items: Iterable,
    k_max: int,
    levels: int,
    at_node: Optional[Callable[[int, Any], Any]] = None,
    unit: Any = 1.0,
    seen: Optional[dict] = None,
) -> tuple[list, list]:
    """Steps ``unit/k`` and values ``f(k)`` at ``geometric_ladder(k_max, levels)``
    for :func:`extrapolate`, read from ``items`` whose k-th item (k = 1, 2, ...)
    is ``f(k)``; ``at_node(k, f(k))`` replaces a value as it is read.  A ``seen``
    dict keeps node values, so a longer ladder can resume the same iterator."""
    nodes = geometric_ladder(k_max, levels)
    seen = {} if seen is None else seen
    it, pos = iter(items), max(seen, default=0)
    for k in nodes:
        if k not in seen:
            value = next(islice(it, k - pos - 1, None))
            seen[k], pos = value if at_node is None else at_node(k, value), k
    return [unit / k for k in nodes], [seen[k] for k in nodes]


def double_until_stable(
    limit_at: Callable, k_start: int, tol: float, max_depth: int, what: str
) -> tuple[Any, int, Any]:
    """Double ``k`` from ``k_start`` until two successive ``limit_at(k) = (value,
    err)`` agree within ``tol`` with ``err < 10 tol``; returns ``(value, k, err)``.
    Raises :class:`NonConvergence` (naming ``what``) past ``max_depth``, before
    any ``limit_at`` call when two rounds cannot fit below it, or when the
    change between rounds has not beaten its best earlier value for two rounds
    in a row: the ladder is then at its rounding floor."""
    k, prev, changes, stale = k_start, None, [], 0
    while prev is not None or 2 * k <= max_depth:  # the first two rounds must fit
        val, err = limit_at(k)
        if prev is not None:
            change = abs(val - prev)
            if change < tol and err < 10 * tol:
                return val, k, err
            stale = 0 if not changes or change < min(changes) else stale + 1
            changes.append(float(change))
            if stale == 2:
                raise NonConvergence(
                    f"{what} stalled before reaching {tol:.1e} at depth {k}; change per "
                    "round: " + ", ".join(f"{c:.1e}" for c in changes)
                )
        if 2 * k > max_depth:
            break
        prev = val
        k *= 2
    raise NonConvergence(f"{what} did not stabilise to {tol:.1e} within depth {max_depth}")
