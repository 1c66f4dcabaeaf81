"""Seeded inputs shared by every workload.

One generator draws all specs, so the workloads differ only in what they do
with them.  The domain margins are those of the random-spec generators in
``tests/test_acceptance.py``:

* ``theta0``, ``theta1`` (and ``theta_t``, ``theta_inf``, ``theta_star``) are
  uniform in ``[-0.45, 0.45]`` with ``2 theta0`` and ``2 theta1`` at least
  0.02 from an integer;
* the third exponent ``x`` (``omega``, or ``theta_inf`` for HYP) is uniform in
  ``[0.08, 0.42]``, every gamma argument ``1/2 + s0 theta0 + s1 theta1 + sx x``
  of the fusion formula stays at least 0.02 from zero, and the digamma
  arguments ``1/2 - theta0 + theta1 - omega`` of the closed forms stay above
  0.05;
* the coupling has ``|lam|`` uniform in ``[0.02, 0.3]`` with a random sign.

The worked examples of ``tests/conftest.py`` (frozen in ``tests/oracles.py``)
always come first, so every run checks them against the oracle values.
"""

from __future__ import annotations

import random

import heunconn as hc
import oracles

FAMILIES = ("HYP", "RCHE", "CHE", "HE")
COUPLED = ("RCHE", "CHE", "HE")

_THETA = 0.45
_INT_MARGIN = 0.02
_OMEGA = (0.08, 0.42)
_DIGAMMA_MARGIN = 0.05
_LAM = (0.02, 0.3)


def _f(s: str) -> float:
    return float(s)


def example(family: str) -> hc.EquationSpec:
    """The frozen worked example of one family (as built in conftest.py)."""
    d = getattr(oracles, "RUN_" + family)
    t0, t1 = _f(d["theta0"]), _f(d["theta1"])
    if family == "HYP":
        return hc.hyp_spec(t0, t1, _f(d["theta_inf_hyp"]))
    if family == "RCHE":
        return hc.rche_spec(t0, t1, _f(d["omega"]), _f(d["lam"]))
    if family == "CHE":
        return hc.che_spec(t0, t1, _f(d["omega"]), _f(d["theta_star"]), _f(d["lam"]))
    return hc.he_spec(
        t0, t1, _f(d["theta_t"]), _f(d["theta_inf"]), _f(d["omega"]), _f(d["lam"])
    )


def oracle_matrix(family: str) -> dict:
    """Frozen 50-digit connection matrix of a family's worked example."""
    run = getattr(oracles, "RUN_" + family)
    return {k: oracles.cplx(v) for k, v in run["matrix"].items()}


def _away_from_int(x: float, margin: float) -> bool:
    return abs(x - round(x)) >= margin


class SpecGenerator:
    """Draws specs of any family from one seeded stream."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _theta(self) -> float:
        while True:
            t = self.rng.uniform(-_THETA, _THETA)
            if _away_from_int(2 * t, _INT_MARGIN):
                return t

    def _core(self, coupled: bool) -> tuple[float, float, float]:
        while True:
            t0, t1 = self._theta(), self._theta()
            x = self.rng.uniform(*_OMEGA)
            if not all(
                abs(0.5 + s0 * t0 + s1 * t1 + sx * x) >= _INT_MARGIN
                for s0 in (1, -1)
                for s1 in (1, -1)
                for sx in (1, -1)
            ):
                continue
            if coupled and (0.5 - t0 + t1) - x < _DIGAMMA_MARGIN:
                continue
            return t0, t1, x

    def lam(self) -> float:
        return self.rng.choice((1.0, -1.0)) * self.rng.uniform(*_LAM)

    def spec(self, family: str) -> hc.EquationSpec:
        if family == "HYP":
            return hc.hyp_spec(*self._core(coupled=False))
        t0, t1, om = self._core(coupled=True)
        if family == "RCHE":
            return hc.rche_spec(t0, t1, om, self.lam())
        if family == "CHE":
            return hc.che_spec(t0, t1, om, self.rng.uniform(-_THETA, _THETA), self.lam())
        return hc.he_spec(
            t0, t1, self.rng.uniform(-_THETA, _THETA), self.rng.uniform(-_THETA, _THETA),
            om, self.lam(),
        )

    def specs(self, families, count: int) -> list:
        """``count`` rounds over ``families``, the worked examples first."""
        out = [example(f) for f in families]
        for _ in range(count - 1):
            out.extend(self.spec(f) for f in families)
        return out

    def resonant_spec(self) -> tuple[hc.EquationSpec, tuple]:
        """A spec whose matrix must fail with a named error.

        Either ``Q_k`` of the ``(-theta0, -theta1)`` entry vanishes at a drawn
        ``k`` (a gamma pole of that entry's fusion factor), so the other three
        entries are swept first; or an RCHE/CHE coupling lies beyond the
        ``|lam| <= 0.9`` series gate.
        """
        family = self.rng.choice(COUPLED)
        t0, t1, om = self._core(coupled=True)
        if family != "HE" and self.rng.random() < 0.25:
            lam = self.rng.choice((1.0, -1.0)) * self.rng.uniform(0.91, 0.99)
            expected = (hc.DomainError,)
        else:
            om = self.rng.randint(1, 3) + 0.5 + t0 - t1
            lam = self.lam()
            expected = (hc.PoleError, hc.AccessoryResonance)
        if family == "RCHE":
            spec = hc.rche_spec(t0, t1, om, lam)
        elif family == "CHE":
            spec = hc.che_spec(t0, t1, om, self.rng.uniform(-_THETA, _THETA), lam)
        else:
            spec = hc.he_spec(
                t0, t1, self.rng.uniform(-_THETA, _THETA),
                self.rng.uniform(-_THETA, _THETA), om, lam,
            )
        return spec, expected
