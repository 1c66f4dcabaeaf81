"""Shared fixtures: the four worked examples and small comparison helpers."""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import math
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import assume
from hypothesis import strategies as st

import oracles
from heunconn import che_spec, he_spec, hyp_spec, rche_spec


def _f(s: str) -> float:
    return float(s)


@pytest.fixture(scope="session")
def hyp_example():
    d = oracles.RUN_HYP
    return hyp_spec(_f(d["theta0"]), _f(d["theta1"]), _f(d["theta_inf_hyp"]))


@pytest.fixture(scope="session")
def rche_example():
    d = oracles.RUN_RCHE
    return rche_spec(_f(d["theta0"]), _f(d["theta1"]), _f(d["omega"]), _f(d["lam"]))


@pytest.fixture(scope="session")
def che_example():
    d = oracles.RUN_CHE
    return che_spec(
        _f(d["theta0"]),
        _f(d["theta1"]),
        _f(d["omega"]),
        _f(d["theta_star"]),
        _f(d["lam"]),
    )


@pytest.fixture(scope="session")
def he_example():
    d = oracles.RUN_HE
    return he_spec(
        _f(d["theta0"]),
        _f(d["theta1"]),
        _f(d["theta_t"]),
        _f(d["theta_inf"]),
        _f(d["omega"]),
        _f(d["lam"]),
    )


_THETA = 0.45
_INT_MARGIN = 0.02  # of 2 theta0, 2 theta1 from an integer, of gamma arguments from 0


def _away_from_int(x: float) -> bool:
    return abs(x - round(x)) >= _INT_MARGIN


@st.composite
def coupled_specs(draw, lam_max: dict):
    """RCHE, CHE and HE specs of the validated domain, with ``|lam|`` from
    0.02 up to ``lam_max[family]``."""
    family = draw(st.sampled_from(("RCHE", "CHE", "HE")))
    theta = st.floats(-_THETA, _THETA)
    t0, t1 = draw(theta), draw(theta)
    omega = draw(st.floats(0.08, 0.42))
    assume(_away_from_int(2 * t0) and _away_from_int(2 * t1))
    # Gamma arguments of the fusion factor of every sign-flipped entry.
    assume(all(
        abs(0.5 + s0 * t0 + s1 * t1 + sx * omega) >= _INT_MARGIN
        for s0 in (1, -1) for s1 in (1, -1) for sx in (1, -1)
    ))
    lam = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.02, lam_max[family]))
    if family == "RCHE":
        return rche_spec(t0, t1, omega, lam)
    if family == "CHE":
        return che_spec(t0, t1, omega, draw(theta), lam)
    return he_spec(t0, t1, draw(theta), draw(theta), omega, lam)


def resonant_spec(family: str):
    """A coupled spec with omega = 5 + 1/2 - theta0 + theta1, so that the
    recurrence denominators Q_5 and Q'_6 vanish."""
    t0, t1 = 0.13, 0.27
    om = 5 + 0.5 - t0 + t1
    if family == "RCHE":
        return rche_spec(t0, t1, om, 0.4)
    if family == "CHE":
        return che_spec(t0, t1, om, 0.19, 0.4)
    return he_spec(t0, t1, 0.33, 0.41, om, 0.4)


def oracle_matrix(run: dict) -> dict:
    """Decode the frozen ``matrix`` block of a RUN_* table to complex values."""
    return {k: oracles.cplx(v) for k, v in run["matrix"].items()}


def rel_diff(a: complex, b: complex) -> float:
    """Relative difference scaled by the larger magnitude (floor 1e-300)."""
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def matrix_rel_diff(m: dict, ref: dict) -> float:
    """Worst entrywise relative difference between two keyed 2x2 matrices."""
    return max(rel_diff(m[k], ref[k]) for k in ("++", "+-", "-+", "--"))


@functools.cache
def _oracle_solver():
    """``tools/make_oracles.py`` as a module; its import sets ``mp.dps = 50``,
    which is put back."""
    path = Path(__file__).resolve().parents[1] / "tools" / "make_oracles.py"
    spec = importlib.util.spec_from_file_location("make_oracles", path)
    module = importlib.util.module_from_spec(spec)
    dps = mp.mp.dps
    try:
        spec.loader.exec_module(module)
    finally:
        mp.mp.dps = dps
    return module


@functools.cache
def solver_matrix(spec) -> dict:
    """Connection matrix of any spec from the independent 50-digit
    series/Wronskian solver of ``tools/make_oracles.py`` (the one that froze
    ``tests/oracles.py``), matched at z = 1/2.  The series about 1 converges
    there only if the HE singularity ``1/lam`` is more than 1/2 away from 1;
    both series are summed until their terms at z = 1/2 fall below 1e-48."""
    reach = min(1.0, abs(1 / complex(spec.lam) - 1)) if spec.family == "HE" else 1.0
    if reach <= 0.5:
        raise ValueError(f"the series about 1 diverges at z = 1/2 for lam = {spec.lam}")
    K = math.ceil(48 / math.log10(2 * reach)) + 30
    prm = {
        f.name: mp.mpmathify(v)
        for f in dataclasses.fields(spec)
        if (v := getattr(spec, f.name)) is not None and not isinstance(v, str)
    }
    with mp.workdps(50):
        matrix = _oracle_solver().connection_matrix(spec.family, prm, K)
    return {k: complex(v) for k, v in matrix.items()}
