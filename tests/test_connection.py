"""Connection amplitudes and matrices: four routes, guards, and invariants."""

from __future__ import annotations

import time
from itertools import islice

import mpmath as mp
import pytest

import oracles
from conftest import matrix_rel_diff, oracle_matrix, rel_diff
from heunconn import (
    METHODS,
    AccessoryResonance,
    BranchAmbiguity,
    DomainError,
    NonConvergence,
    canonical_recurrence_step,
    che_spec,
    connection_matrix,
    connection_scalar,
    det_residual,
    extract_sigma,
    extrapolate,
    fusion_cl,
    geometric_ladder,
    he_spec,
    log_a_infinity_cf,
    rche_spec,
    rescaled_a,
    schafke_schmidt_connection,
    tail_determinant_limit,
)
from heunconn.connection import _eta_sweep, _fixed_iterates, _flip_spec, _ss_precision
from heunconn.equations import recurrence_quadratics
from heunconn.precision import HIGH, spec_to_precision

RUNS = {
    "HYP": oracles.RUN_HYP,
    "RCHE": oracles.RUN_RCHE,
    "CHE": oracles.RUN_CHE,
    "HE": oracles.RUN_HE,
}
EXAMPLE_FIXTURES = {
    "HYP": "hyp_example",
    "RCHE": "rche_example",
    "CHE": "che_example",
    "HE": "he_example",
}
# Frozen-value agreement observed well below these bounds; the bounds leave
# an order of magnitude of slack for platform-dependent rounding.
METHOD_TOL = {"cf": 1e-11, "recurrence": 1e-11, "wronskian": 1e-11, "ss": 1e-12}


class TestFusionFormula:
    @pytest.mark.parametrize("key", sorted(oracles.FCL_SPOTS))
    def test_spot(self, key):
        t0, t1, ti = (float(p) for p in key.split("|"))
        want = oracles.cplx(oracles.FCL_SPOTS[key])
        assert rel_diff(fusion_cl(t0, t1, ti), want) <= 1e-13

    def test_complex_arguments(self):
        v = fusion_cl(0.1 + 0.02j, 0.2 - 0.01j, 0.3)
        assert v == v  # finite, no NaN


class TestMatrixRoutes:
    def test_method_names(self):
        assert METHODS == ("cf", "recurrence", "ss", "wronskian")

    @pytest.mark.parametrize("family", ["HYP", "RCHE", "CHE", "HE"])
    @pytest.mark.parametrize("method", ["cf", "recurrence", "ss", "wronskian"])
    def test_matrix_matches_frozen(self, request, family, method):
        spec = request.getfixturevalue(EXAMPLE_FIXTURES[family])
        mat = connection_matrix(spec, method=method)
        ref = oracle_matrix(RUNS[family])
        assert matrix_rel_diff(mat.entries, ref) <= METHOD_TOL[method]
        assert mat.method == method
        assert det_residual(mat) <= 1e-10

    def test_scalar_is_plus_plus_entry(self, rche_example):
        val, err = connection_scalar(rche_example)
        mat = connection_matrix(rche_example)
        assert rel_diff(val, mat["++"]) <= 1e-13
        assert err < 1e-8

    def test_determinant_value(self, he_example):
        mat = connection_matrix(he_example)
        want = -he_example.theta0 / he_example.theta1
        assert rel_diff(mat.det(), want) <= 1e-10

    def test_recurrence_truncation_tail_is_first_order(self, che_example):
        # The raw truncated value carries an O(1/K) tail: doubling K should
        # roughly halve the distance to the extrapolated limit.
        ks = geometric_ladder(8192, 4)
        a = rescaled_a(che_example, ks[-1])
        vals = [a[k] for k in ks]
        limit, _ = extrapolate([1.0 / k for k in ks], vals)
        d_small, d_big = abs(vals[0] - limit), abs(vals[-1] - limit)
        assert 6.0 <= d_small / d_big <= 10.0  # 2^3 = 8 up to higher orders

    def test_ss_standalone_matches_cf(self, rche_example):
        ss = schafke_schmidt_connection(rche_example)
        val, _ = connection_scalar(rche_example, method="cf")
        assert rel_diff(ss, val) <= 1e-10


def _assert_fixed_point_iterates_match(spec, K=2048):
    """The first K fixed-point iterates of the ss route equal mpmath
    canonical_recurrence_step iterates at the route's working dps."""
    dps, bits = _ss_precision(complex(spec.theta1), 16384)
    with mp.workdps(dps):
        msp = spec_to_precision(spec, HIGH)
        with mp.workprec(bits):
            quadratics = recurrence_quadratics(msp, K)
        u_km1, u_k = mp.mpf(0), mp.mpf(1)
        for k, (re, im) in enumerate(islice(_fixed_iterates(quadratics, bits), K)):
            u_k, u_km1 = canonical_recurrence_step(msp, k, u_k, u_km1), u_k
            fixed = mp.mpc(mp.ldexp(re, -bits), mp.ldexp(im, -bits))
            assert abs(fixed - u_k) <= 1e-25 * abs(u_k), k


class TestLargeOrder:
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("family", ["HYP", "RCHE", "CHE", "HE"])
    def test_fixed_point_iterates_match_canonical_step(self, request, family, signs):
        spec = request.getfixturevalue(EXAMPLE_FIXTURES[family])
        _assert_fixed_point_iterates_match(_flip_spec(spec, *signs))

    @pytest.mark.parametrize(
        "spec",
        [
            che_spec(0.12 - 0.04j, -0.23 + 0.02j, 0.31 + 0.01j, 0.2 + 0.1j, -0.25 + 0.05j),
            he_spec(
                0.11 + 0.05j, 0.27 - 0.03j, 0.33 + 0.01j, 0.41 - 0.02j, 0.37 + 0.02j, 0.3 + 0.1j
            ),
        ],
        ids=["CHE", "HE"],
    )
    def test_fixed_point_iterates_complex_parameters(self, spec):
        _assert_fixed_point_iterates_match(spec, K=512)

    def test_accessory_resonance_gate(self):
        # omega = 1/2 - theta0 + theta1 + 3 makes Q_3 vanish.
        t0, t1 = 0.1, 0.2
        with pytest.raises(AccessoryResonance):
            schafke_schmidt_connection(rche_spec(t0, t1, 3.5 - t0 + t1, 0.1))

    def test_matrix_is_fast(self, he_example):
        start = time.perf_counter()
        connection_matrix(he_example, method="ss")
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("family", ["HYP", "RCHE", "CHE", "HE"])
    def test_err_estimate_bounds_oracle_error(self, request, family):
        mat = connection_matrix(request.getfixturevalue(EXAMPLE_FIXTURES[family]), "ss")
        ref = oracle_matrix(RUNS[family])
        assert max(abs(mat[k] - ref[k]) for k in ref) <= mat.err_estimate
        assert mat.depth_or_K == 16384


class TestContinuedFraction:
    def test_log_amplitude_exponentiates(self, rche_example):
        import cmath

        log_a, depth, err = log_a_infinity_cf(rche_example)
        ks = geometric_ladder(16384, 4)
        a = rescaled_a(rche_example, ks[-1])
        vals = [a[k] for k in ks]
        a_inf, _ = extrapolate([1.0 / k for k in ks], vals)
        assert rel_diff(cmath.exp(log_a), a_inf) <= 1e-10
        assert depth >= 16
        assert err < 1e-10

    def test_eta_tail_approaches_one(self, rche_example):
        # eta_k from a unit seed 8 levels deeper, far out in the tail.
        etas = _eta_sweep(rche_example, 2**16, 8)
        assert abs(etas[-1] - 1.0) <= 1e-6

    def test_hyp_log_amplitude_is_zero(self, hyp_example):
        log_a, _, _ = log_a_infinity_cf(hyp_example)
        assert abs(log_a) <= 1e-14


class TestSigma:
    @pytest.mark.parametrize("lam_key", sorted(oracles.SIGMA_HE))
    def test_extract_sigma_matches_frozen(self, lam_key):
        d = oracles.RUN_HE
        spec = he_spec(
            float(d["theta0"]),
            float(d["theta1"]),
            float(d["theta_t"]),
            float(d["theta_inf"]),
            float(d["omega"]),
            float(lam_key),
        )
        sigma = extract_sigma(connection_matrix(spec))
        want = oracles.cplx(oracles.SIGMA_HE[lam_key])
        assert rel_diff(sigma, want) <= 1e-11


class TestGuardsAndLimits:
    def test_coupling_gate(self):
        with pytest.raises(DomainError):
            connection_scalar(rche_spec(0.1, 0.2, 0.3, 0.95))

    def test_branch_guard_near_amplitude_zero(self):
        # For these parameters the amplitude crosses zero below lam = 0.95,
        # so even with the gate overridden the log-branch guard must fire.
        with pytest.raises(BranchAmbiguity):
            connection_scalar(
                rche_spec(0.1, 0.2, 0.3, 0.95), allow_large_coupling=True
            )

    def test_coupling_override_when_branch_is_safe(self):
        spec = he_spec(0.11, 0.27, 0.33, 0.41, 0.37, 0.92)
        val, err = connection_scalar(spec, allow_large_coupling=True)
        assert err < 1e-8 and abs(val) > 0.01

    def test_nonconvergence_at_tiny_depth(self, rche_example):
        with pytest.raises(NonConvergence):
            connection_scalar(rche_example, max_depth=64)

    @pytest.mark.parametrize("method", ["cf", "recurrence"])
    def test_unreachable_tolerance_stalls_fast(self, rche_example, method):
        # 1e-16 is below the rounding floor of the ladder: the doubling rounds
        # stop improving and the route must give up long before max_depth.
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match="stalled"):
            connection_matrix(rche_example, method=method, tol=1e-16)
        assert time.perf_counter() - start < 5.0

    def test_ss_theta1_gate(self):
        with pytest.raises(DomainError):
            schafke_schmidt_connection(he_spec(0.11, 2.1, 0.33, 0.41, 0.37, 0.1))

    def test_tail_determinant_he(self, he_example):
        D, err = tail_determinant_limit(he_example, N=10000)
        assert rel_diff(D, 1.0 / (1.0 - he_example.lam)) <= 1e-8

    def test_tail_determinant_rche_is_one(self, rche_example):
        D, _ = tail_determinant_limit(rche_example, N=10000)
        assert rel_diff(D, 1.0) <= 1e-8
