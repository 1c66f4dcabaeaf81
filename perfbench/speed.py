"""How fast this machine runs Python right now.

On a shared host, the load of neighbouring machines changes the speed of the
same Python code by up to a factor of two within seconds, and process CPU
time moves with it.  A :class:`SpeedProbe` thread measures the CPU time of a
fixed pure-Python kernel every ``PERIOD`` seconds while a workload runs.  The
mean kernel time within ``WINDOW`` of an op, divided by ``REFERENCE_S``, is
that op's slowdown factor, and the op's timings divided by it read as on a
machine where the kernel takes ``REFERENCE_S``.  The factor is taken per op
because the load changes within a run.

The kernel is frozen benchmark code in the style of the library's hot paths
(a frozen parameter object, coefficient functions returning tuples, a
backward three-term sweep in complex arithmetic, a dict accumulator, list
comprehensions, a Neville ladder, ``cmath`` calls, and a few three-term steps
in mpmath at 32 digits as in the ss route).  Kernels without the mpmath part,
or with a narrower interpreter footprint, tracked the library's slowdowns
less closely.  No change to the library changes the kernel.
"""

from __future__ import annotations

import bisect
import cmath
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter, thread_time

import mpmath

PERIOD = 0.1  # seconds between kernel samples; the kernel costs about 1.5%
WINDOW = 0.15  # samples this close to an op's span describe that op
# The kernel's best time on the machine the baseline was taken on (2.1 GHz
# Xeon, Python 3.11), so normalised timings read as that machine when idle.
REFERENCE_S = 1.1e-3
_SWEEP = 256
_MP_STEPS = 12


@dataclass(frozen=True)
class _Params:
    theta0: float
    theta1: float
    omega: float
    lam: float


_PARAMS = _Params(0.1234 + 0.01j, 0.2345, 0.3, 0.1)


def _coefficients(p: _Params, k: int) -> tuple:
    if k < 0:
        raise ValueError(k)
    base = k - p.theta0 + p.theta1
    q = (base + 0.5) ** 2 - p.omega * p.omega
    qp = (base - 0.5) ** 2 - p.omega * p.omega
    if abs(q) < 1e-12:
        raise ZeroDivisionError(k)
    return (k + 0.5 - p.theta0) / q, (k * (k - 2 * p.theta0) / (q * qp) if k > 0 else 0.0)


def _step(p: _Params, k: int, eta: complex, table: dict) -> complex:
    if not isinstance(k, int) or k < 0:
        raise ValueError(k)
    alpha, _ = _coefficients(p, k - 1)
    _, beta = _coefficients(p, k)
    eta = 1 - p.lam * alpha - p.lam * beta / eta
    key = k & 63
    table[key] = table.get(key, 0j) + eta
    return eta


def _ladder(values: list) -> complex:
    h = [1.0 / (n + 1) for n in range(len(values))]
    stage = list(values)
    for m in range(1, len(values)):
        stage = [(h[i] * stage[i + 1] - h[i + m] * stage[i]) / (h[i] - h[i + m])
                 for i in range(len(values) - m)]
    return stage[0]


def kernel() -> complex:
    p = _PARAMS
    eta = 1.0 + 0j
    table = {}
    out = []
    for k in range(_SWEEP, 0, -1):
        eta = _step(p, k, eta, table)
        out.append((k, eta))
    logs = [cmath.log(e) for _, e in out]
    parts = [sum(logs[:n]) for n in (32, 64, 128, 256)]
    jet = tuple(e * e for e in logs[:8])
    return (_ladder(parts) + sum(jet) + sum(table.values()) + cmath.exp(logs[0])
            + _multiprecision_steps())


def _multiprecision_steps() -> complex:
    with mpmath.workdps(32):
        c = mpmath.mpc("0.1234", "0.01")
        u, v = mpmath.mpf(1), mpmath.mpf(0)
        for k in range(_MP_STEPS):
            u, v = ((k + 0.5 - c) ** 2 * u - c * v) / ((k + 1) * (k + 1 - 2 * c)), u
        return complex(u)


class SpeedProbe:
    """Samples the kernel's CPU time: from a thread while used as a context
    manager, or by calling :meth:`sample` between other work."""

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # perf_counter at the end of each sample
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def sample(self) -> None:
        c0 = thread_time()
        kernel()
        self.samples.append(thread_time() - c0)
        self.times.append(perf_counter())

    def _run(self) -> None:
        while not self._stop.wait(PERIOD):
            self.sample()

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.sample()

    def slowdown(self) -> float:
        """Mean kernel time over all samples relative to the reference machine."""
        return statistics.fmean(self.samples) / REFERENCE_S

    def slowdown_between(self, t0: float, t1: float) -> float:
        """Mean kernel time within WINDOW of ``[t0, t1]`` relative to the
        reference machine; the overall slowdown if no sample is that close."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW)
        hi = bisect.bisect_right(self.times, t1 + WINDOW)
        if lo == hi:
            return self.slowdown()
        return statistics.fmean(self.samples[lo:hi]) / REFERENCE_S
