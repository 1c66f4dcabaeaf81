"""The ``cf`` and ``recurrence`` error estimates bound the true error across
the validated domain, checked against the independent 50-digit solver of
``tools/make_oracles.py`` on specs that hypothesis draws."""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import solver_matrix
from heunconn import BranchAmbiguity, che_spec, connection_matrix, he_spec, rche_spec

_THETA = 0.45
_INT_MARGIN = 0.02  # of 2 theta0, 2 theta1 from an integer, of gamma arguments from 0
_LAM_MAX = {"RCHE": 0.88, "CHE": 0.88, "HE": 0.6}  # HE: where the solver reaches
_BRANCH_WATCH = 0.3  # |lam| above which cf may raise BranchAmbiguity


def _away_from_int(x: float) -> bool:
    return abs(x - round(x)) >= _INT_MARGIN


@st.composite
def coupled_specs(draw):
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
    lam = draw(st.sampled_from((1.0, -1.0))) * draw(st.floats(0.02, _LAM_MAX[family]))
    if family == "RCHE":
        return rche_spec(t0, t1, omega, lam)
    if family == "CHE":
        return che_spec(t0, t1, omega, draw(theta), lam)
    return he_spec(t0, t1, draw(theta), draw(theta), omega, lam)


# About 0.13 s of solver time per spec.
@settings(
    derandomize=True, database=None, max_examples=24, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(coupled_specs())
def test_err_estimate_bounds_solver_error(spec):
    ref = solver_matrix(spec)
    for method in ("cf", "recurrence"):
        try:
            mat = connection_matrix(spec, method)
        except BranchAmbiguity:
            if method == "cf" and abs(spec.lam) > _BRANCH_WATCH:
                continue
            raise
        assert max(abs(mat[k] - ref[k]) for k in ref) <= mat.err_estimate, method
