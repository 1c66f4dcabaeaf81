"""The ``cf``, ``recurrence`` and ``ss`` error estimates bound the true error
across the validated domain, checked against the independent 50-digit solver
of ``tools/make_oracles.py`` on specs that hypothesis draws."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings

from conftest import coupled_specs, solver_matrix
from heunconn import connection_matrix

_LAM_MAX = {"RCHE": 0.88, "CHE": 0.88, "HE": 0.6}  # HE: where the solver reaches


# About 0.13 s of solver time per spec.
@settings(
    derandomize=True, database=None, max_examples=24, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(coupled_specs(_LAM_MAX))
def test_err_estimate_bounds_solver_error(spec):
    ref = solver_matrix(spec)
    for method in ("cf", "recurrence", "ss"):
        mat = connection_matrix(spec, method)
        assert max(abs(mat[k] - ref[k]) for k in ref) <= mat.err_estimate, method
