#!/usr/bin/env python3
"""Measure the roundings per row of the binary64 ``cf`` and ``recurrence`` sweeps.

For each coupled family it draws seeded specs of the validated domain and
runs the three sweeps the routes and ``tail_determinant_limit`` run: the
forward sweep from row 0 to ``K``, the forward sweep of rows ``K .. 2K`` and
the eta sweep from the ``cf`` route's binary64 seed, with ``K`` the routes'
depth.  Each is compared with the same sweep in mpmath at 40 digits on the
same binary64 parameters, relative to ``max(|reference|, 1)`` as the routes
scale their iterates.  The deviation less the second-solution bound, times
``|1 - lam|`` for HE, over ``K`` units of roundoff is the number of
roundings per row that ``connection._sweep_floor`` would have to count
(``_SWEEP_ROUNDINGS``).

Two sets per family:

* ``bulk``: ``--count`` specs, every other one with complex parameters
  (imaginary parts up to 0.2) and a complex coupling, every gamma argument
  at least 0.02 from the integers (seed 11; ``tests/test_connection.py``
  draws its sweep specs from :func:`bulk_specs` and :func:`near_root_specs`);
* ``near-root``: ``--near`` real or complex specs of the same domain where a
  root ``k = -(a +- x)`` of ``Q_k`` at ``k >= 0`` lies within 0.02 to 0.036
  of an integer (``random.Random(3)``), where ``Q_k`` cancels.

Run:  python3 tools/sweep_roundings.py [--count 200] [--near 150]

It prints, per family and set, the worst roundings per row, the sweep that
reached it and its spec.
"""

from __future__ import annotations

import argparse
import cmath
import math
import os
import random
import sys

import mpmath as mp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from heunconn import che_spec, he_spec, rche_spec  # noqa: E402
from heunconn.connection import _eta_sweep, _forward_sweep  # noqa: E402
from heunconn.precision import HIGH, is_mp, spec_to_precision  # noqa: E402
from heunconn.tails import d_space, log_second_mode, summed_tail, tail_depth  # noqa: E402

EPS = 2.0**-53
FAMILIES = ("RCHE", "CHE", "HE")
SWEEPS = ("forward 0..K", "forward K..2K", "eta")
_SIGNS = [(s0, s1, sx) for s0 in (1, -1) for s1 in (1, -1) for sx in (1, -1)]


def _draw(rng: random.Random, family: str, cplx: bool):
    """One spec of the validated domain, or ``None`` where a gamma argument is
    within 0.02 of an integer; returns ``(spec, a, omega)``."""
    reals = [rng.uniform(-0.45, 0.45) for _ in range(4)]
    reals.append(rng.choice((1, -1)) * rng.uniform(0.08, 0.42))
    t0, t1, t2, t3, omega = (complex(x, rng.uniform(-0.2, 0.2)) if cplx else x for x in reals)
    phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi)) if cplx else rng.choice((1, -1))
    lam = rng.uniform(0.02, 0.9) * phase
    args = [2 * t0, 2 * t1] + [0.5 + s0 * t0 + s1 * t1 + sx * omega for s0, s1, sx in _SIGNS]
    if min(abs(z - round(z.real)) for z in args) < 0.02:
        return None
    if family == "RCHE":
        spec = rche_spec(t0, t1, omega, lam)
    elif family == "CHE":
        spec = che_spec(t0, t1, omega, t2, lam)
    else:
        spec = he_spec(t0, t1, t2, t3, omega, lam)
    return spec, 0.5 - t0 + t1, omega


def bulk_specs(family: str, count: int) -> list:
    rng, specs = random.Random(11), []
    while len(specs) < count:
        drawn = _draw(rng, family, len(specs) % 2 == 1)
        if drawn:
            specs.append(drawn[0])
    return specs


def near_root_specs(family: str, count: int) -> list:
    rng, specs, draws = random.Random(3), [], 0
    while len(specs) < count:
        drawn = _draw(rng, family, draws % 2 == 1)
        draws += 1
        if not drawn:
            continue
        spec, a, omega = drawn
        near = [abs(z - round(z.real)) for z in (a - omega, a + omega) if round(z.real) <= 0]
        if near and 0.02 <= min(near) <= 0.036:
            specs.append(spec)
    return specs


def _seed(spec, K: int) -> complex:
    """The cf route's seed ``S(K+1) / S(K+2)`` of the tail determinants."""
    tails = [summed_tail(spec, d_space, k, "seed")[0] for k in (K + 1, K + 2)]
    return tails[0] / tails[1]


def _sweeps(spec, K: int, seed) -> list:
    log = mp.log if is_mp(spec.lam) else cmath.log
    etas = sum(map(log, _eta_sweep(spec, K, seed)))
    return [_forward_sweep(spec, 0, K), _forward_sweep(spec, K, 2 * K + 1), etas]


def roundings(spec) -> list:
    """Roundings per row of the three sweeps of ``spec``."""
    K = tail_depth(spec, EPS, 2**20, "sweep")
    seed = _seed(spec, K)
    with mp.workdps(40):
        refs = _sweeps(spec_to_precision(spec, HIGH), K, seed)
        refs[2] = complex(mp.exp(refs[2]))
        refs[:2] = map(complex, refs[:2])
    got = _sweeps(spec, K, seed)
    got[2] = cmath.exp(got[2])
    scale = abs(1 - complex(spec.lam)) if spec.family == "HE" else 1.0
    second = math.exp(log_second_mode(spec, K))
    return [
        (abs(g - r) / max(abs(r), 1.0) - second) * scale / (K * EPS) for g, r in zip(got, refs)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=200, help="bulk specs per family")
    parser.add_argument("--near", type=int, default=150, help="near-root specs per family")
    args = parser.parse_args()
    for family in FAMILIES:
        for name, specs in (
            ("bulk", bulk_specs(family, args.count)),
            ("near-root", near_root_specs(family, args.near)),
        ):
            worst, where = -math.inf, None
            for spec in specs:
                for sweep, r in zip(SWEEPS, roundings(spec)):
                    if r > worst:
                        worst, where = r, (sweep, spec)
            print(f"{family:4} {name:9} {len(specs):4} specs: worst {worst:5.2f} per row "
                  f"({where[0]}) at {where[1]}")


if __name__ == "__main__":
    main()
