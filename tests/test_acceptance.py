"""Acceptance gate: one test per release criterion, at the pinned tolerance.

Run with ``pytest -v`` to get exactly one pass/fail line per criterion.
Criteria 1-3 stash every connection matrix they produce in a module-level
cache; criterion 4 checks the determinant of each cached matrix (with a
reduced rebuild when run in isolation).
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest
import scipy.sparse as sp_sparse

import oracles
from conftest import matrix_rel_diff, rel_diff, solver_matrix
from heunconn import (
    AccessoryResonance,
    DomainError,
    FamilyFieldError,
    JetDivByZero,
    MonodromyInconsistent,
    NonConvergence,
    ParameterResonance,
    PoleError,
    RadiusError,
    ReflectionMismatch,
    ResonantExponents,
    SizeError,
    TailError,
    alpha_beta,
    c1_closed_he,
    c1_closed_rche,
    c2_closed_rche,
    c_coefficients,
    che_spec,
    compositions,
    connection_matrix,
    connection_scalar,
    det_residual,
    enumerate_walk_types,
    evaluate,
    extract_sigma,
    extrapolate,
    frobenius_series,
    fusion_cl,
    gamma,
    geometric_ladder,
    he_spec,
    hyp_spec,
    jet_div,
    jet_variable,
    log_a_series_from_traces,
    n_mu,
    rche_spec,
    sigma1_closed,
    tail_determinant_limit,
    trace_power,
    validate,
    verify_che_as_he_limit,
    verify_connection_identity,
    verify_reflection,
    wronskian,
)

# Matrices produced while running criteria 1-3, consumed by criterion 4.
_MATRICES: list = []


def _away_from_int(x: float, margin: float) -> bool:
    return abs(x - round(x)) >= margin


def _random_hyp_specs(count: int, seed: int = 20260823):
    """Random hypergeometric specs with |theta| <= 0.45, kept a safe margin
    away from exponent resonances and from poles of the closed formula."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t0, t1, ti = (rng.uniform(-0.45, 0.45) for _ in range(3))
        if not (_away_from_int(2 * t0, 0.02) and _away_from_int(2 * t1, 0.02)):
            continue
        if not all(
            abs(0.5 + s0 * t0 + s1 * t1 + si * ti) >= 0.02
            for s0 in (1, -1)
            for s1 in (1, -1)
            for si in (1, -1)
        ):
            continue
        out.append(hyp_spec(t0, t1, ti))
    return out


def _random_coupled_specs(family: str, count: int, seed: int):
    """Random RCHE/HE specs whose closed-form references are well away from
    their coupling resonances and digamma poles."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t0, t1 = rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)
        om = rng.uniform(0.08, 0.42)
        if not (_away_from_int(2 * t0, 0.02) and _away_from_int(2 * t1, 0.02)):
            continue
        # psi arguments 1/2 - theta0 + theta1 +- omega must stay positive.
        if (0.5 - t0 + t1) - om < 0.05:
            continue
        if family == "RCHE":
            out.append(rche_spec(t0, t1, om, 0.1))
        else:
            tt, ti = rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)
            out.append(he_spec(t0, t1, tt, ti, om, 0.1))
    return out


def _fcl_matrix(spec) -> dict:
    """Closed-form connection matrix from the fusion formula with the four
    sign choices of (theta0, theta1)."""
    return {
        key0 + key1: fusion_cl(
            s0 * spec.theta0, s1 * spec.theta1, spec.theta_inf_hyp
        )
        for s0, key0 in ((1, "+"), (-1, "-"))
        for s1, key1 in ((1, "+"), (-1, "-"))
    }


def _example_specs(request) -> dict:
    return {
        "RCHE": request.getfixturevalue("rche_example"),
        "CHE": request.getfixturevalue("che_example"),
        "HE": request.getfixturevalue("he_example"),
    }


def test_criterion_01_hypergeometric_exactness():
    """Zero-coupling matrices equal the closed fusion formula entrywise."""
    specs = _random_hyp_specs(50)
    start = time.perf_counter()
    worst = 0.0
    for spec in specs:
        mat = connection_matrix(spec, method="wronskian")
        _MATRICES.append(mat)
        worst = max(worst, matrix_rel_diff(mat.entries, _fcl_matrix(spec)))
    elapsed = time.perf_counter() - start
    print(f"criterion 1: worst entrywise rel diff {worst:.3e}, {elapsed:.2f}s")
    assert worst <= 1e-11
    assert elapsed < 5.0


def test_criterion_02_four_method_agreement(request):
    """cf/recurrence/wronskian agree pairwise to 1e-8; the large-order
    route agrees with them to 1e-6; all three coupled examples."""
    start = time.perf_counter()
    worst_core, worst_ss = 0.0, 0.0
    for family, spec in _example_specs(request).items():
        mats = {
            m: connection_matrix(spec, method=m)
            for m in ("cf", "recurrence", "wronskian", "ss")
        }
        _MATRICES.extend(mats.values())
        core = ("cf", "recurrence", "wronskian")
        for i, m1 in enumerate(core):
            for m2 in core[i + 1 :]:
                worst_core = max(
                    worst_core,
                    matrix_rel_diff(mats[m1].entries, mats[m2].entries),
                )
        for m in core:
            worst_ss = max(
                worst_ss, matrix_rel_diff(mats["ss"].entries, mats[m].entries)
            )
    elapsed = time.perf_counter() - start
    print(
        f"criterion 2: core pairwise {worst_core:.3e}, large-order "
        f"{worst_ss:.3e}, {elapsed:.1f}s"
    )
    assert worst_core <= 1e-8
    assert worst_ss <= 1e-6
    assert elapsed < 60.0


def test_criterion_03_connection_identity(request):
    """Series rebuilt through the matrix reproduce the z=0 series at
    z in {0.3, 0.5, 0.7} to 1e-9, truncation K=400."""
    worst = 0.0
    for family, spec in _example_specs(request).items():
        mat = connection_matrix(spec)
        _MATRICES.append(mat)
        r = verify_connection_identity(
            spec, z_list=(0.3, 0.5, 0.7), K=400, tol=1e-9, matrix=mat
        )
        assert r.passed, f"{family}: {r.detail}"
        worst = max(worst, r.residual)
    print(f"criterion 3: worst identity residual {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_04_determinant(request):
    """det C = -theta0/theta1 to 1e-10 for every matrix from criteria 1-3."""
    if not _MATRICES:  # standalone run: rebuild a reduced matrix set
        for spec in _random_hyp_specs(5):
            _MATRICES.append(connection_matrix(spec, method="wronskian"))
        for spec in _example_specs(request).values():
            _MATRICES.extend(
                connection_matrix(spec, method=m)
                for m in ("cf", "recurrence", "wronskian", "ss")
            )
    worst = max(det_residual(mat) for mat in _MATRICES)
    print(f"criterion 4: {len(_MATRICES)} matrices, worst det residual {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_05_monodromy(request):
    """Both monodromy product relations hold to 1e-8 on every coupled
    example, and the slope (sigma(lam) - omega)/lam extrapolated to zero
    coupling matches the closed first-order coefficient to 1e-3."""
    for family, spec in _example_specs(request).items():
        sigma = extract_sigma(connection_matrix(spec), tol=1e-8)
        assert sigma == sigma, family  # finite
    he = _example_specs(request)["HE"]
    lams = (0.02, 0.04, 0.08)
    slopes = []
    for lam in lams:
        spec = he_spec(
            he.theta0, he.theta1, he.theta_t, he.theta_inf, he.omega, lam
        )
        sigma = extract_sigma(connection_matrix(spec), tol=1e-8)
        slopes.append((sigma - he.omega) / lam)
    limit, _ = extrapolate(lams, slopes)
    want = sigma1_closed(he)
    resid = rel_diff(limit, want)
    print(f"criterion 5: slope {limit:.8g} vs closed {want:.8g}, rel {resid:.3e}")
    assert resid <= 1e-3


def test_criterion_06_closed_forms_random_specs():
    """First/second series coefficients match their closed forms on ten
    random specs per family (c1 to 1e-8, c2 to 1e-6)."""
    worst_c1 = worst_c2 = 0.0
    for spec in _random_coupled_specs("RCHE", 10, seed=61_2026):
        c = c_coefficients(spec, 2)
        worst_c1 = max(
            worst_c1, abs(c[0] - c1_closed_rche(spec)) / max(1.0, abs(c[0]))
        )
        worst_c2 = max(
            worst_c2, abs(c[1] - c2_closed_rche(spec)) / max(1.0, abs(c[1]))
        )
    worst_he = 0.0
    for spec in _random_coupled_specs("HE", 10, seed=62_2026):
        c = c_coefficients(spec, 1)
        worst_he = max(
            worst_he, abs(c[0] - c1_closed_he(spec)) / max(1.0, abs(c[0]))
        )
    print(
        f"criterion 6: RCHE c1 {worst_c1:.3e}, c2 {worst_c2:.3e}; "
        f"HE c1 {worst_he:.3e}"
    )
    assert worst_c1 <= 1e-8
    assert worst_c2 <= 1e-6
    assert worst_he <= 1e-8


def _truncated_trace(spec, n: int, K: int) -> float:
    """Trace of the 2n-th power of the K-truncated two-band walk matrix."""
    betas = np.array([alpha_beta(spec, k)[1] for k in range(1, K)])
    A = sp_sparse.diags([np.ones(K - 1), betas], [1, -1], format="csr")
    M = sp_sparse.identity(K, format="csr")
    for _ in range(2 * n):
        M = M @ A
    return float(M.diagonal().sum().real)


def test_criterion_07_walk_combinatorics(rche_example):
    """Walk-type census equals the multiplicity formula (n <= 8), the
    multiplicities sum to the central binomial (n <= 12), and the trace
    formula matches truncated-matrix traces (1e-8) and the series
    coefficients (1e-7) for n <= 3."""
    start = time.perf_counter()
    for n in range(1, 9):
        census = enumerate_walk_types(n)
        formula = {mu: n_mu(mu) for mu in compositions(n)}
        assert census == formula, f"census mismatch at n={n}"
    for n in range(1, 13):
        total = sum(n_mu(mu) for mu in compositions(n))
        assert total == math.comb(2 * n, n), f"sum rule fails at n={n}"
    worst_tr, worst_cn = 0.0, 0.0
    cs = c_coefficients(rche_example, 3)
    for n in (1, 2, 3):
        tp = trace_power(rche_example, n)
        ks = geometric_ladder(8192, 3)
        vals = [_truncated_trace(rche_example, n, K) for K in ks]
        mat_trace, _ = extrapolate([1.0 / k for k in ks], vals)
        worst_tr = max(worst_tr, rel_diff(tp, mat_trace))
        worst_cn = max(worst_cn, rel_diff(-tp / (2 * n), cs[n - 1]))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 7: trace-vs-matrix {worst_tr:.3e}, "
        f"-Tr/2n-vs-c_n {worst_cn:.3e}, {elapsed:.1f}s"
    )
    assert worst_tr <= 1e-8
    assert worst_cn <= 1e-7
    assert elapsed < 120.0


def test_criterion_08_tail_determinant(he_example):
    """The truncated tail determinant converges to 1/(1 - lam)."""
    D, _ = tail_determinant_limit(he_example)
    want = 1.0 / (1.0 - he_example.lam)
    resid = rel_diff(D, want)
    print(f"criterion 8: D_inf {D:.12g} vs {want:.12g}, rel {resid:.3e}")
    assert resid <= 1e-8


def test_criterion_09_large_parameter_limit(che_example):
    """The CHE matrix agrees with the rescaled HE matrix to 1e-3 at
    Lambda = 1e4, and the disagreement falls off like 1/Lambda."""
    lams, resids = [], []
    for expo in (3.0, 3.5, 4.0):
        r = verify_che_as_he_limit(che_example, Lambda=10.0**expo)
        lams.append(10.0**expo)
        resids.append(r.residual)
    assert resids[-1] <= 1e-3
    slope = float(np.polyfit(np.log10(lams), np.log10(resids), 1)[0])
    print(f"criterion 9: residual at 1e4 = {resids[-1]:.3e}, exponent {slope:.3f}")
    assert -1.1 <= slope <= -0.9


def test_criterion_10_negative_controls(request, rche_example, he_example):
    """A 1% single-entry perturbation defeats every check, and resonant or
    degenerate inputs raise the named errors instead of crashing."""
    import dataclasses

    spec = rche_example
    mat = connection_matrix(spec)
    bad = dataclasses.replace(
        mat, entries={**mat.entries, "++": mat.entries["++"] * 1.01}
    )

    # -- every check fails under the perturbation --
    assert not verify_connection_identity(spec, matrix=bad).passed
    assert det_residual(bad) > 1e-10
    assert matrix_rel_diff(bad.entries, mat.entries) > 1e-8  # method agreement
    with pytest.raises(MonodromyInconsistent):
        extract_sigma(bad, tol=1e-8)
    c1 = c1_closed_rche(spec)
    assert abs(1.01 * c1 - c1) / max(1.0, abs(c1)) > 1e-8  # series vs closed
    D, _ = tail_determinant_limit(he_example)
    want = 1.0 / (1.0 - he_example.lam)
    assert rel_diff(1.01 * D, want) > 1e-8  # tail determinant
    s1 = sigma1_closed(he_example)
    assert rel_diff(1.01 * s1, s1) > 1e-3  # monodromy slope
    r_lim = verify_che_as_he_limit(request.getfixturevalue("che_example"))
    assert 1.01 * (1.0 + r_lim.residual) - 1.0 > 1e-3  # large-parameter limit
    with pytest.raises(ReflectionMismatch):  # reflection certificate
        verify_reflection(spec, tol=1e-18, strict=True)

    # -- resonant and degenerate inputs raise the named errors --
    with pytest.raises(ResonantExponents):
        rche_spec(0.5, 0.2, 0.3, 0.1)
    with pytest.raises(FamilyFieldError):
        validate(dataclasses.replace(hyp_spec(0.1, 0.2, 0.3), lam=0.1))
    with pytest.raises(DomainError):
        he_spec(0.11, 0.27, 0.33, 0.41, 0.37, 1.0)
    with pytest.raises(ParameterResonance):
        c1_closed_rche(rche_spec(0.1, 0.2, 0.5 - 1e-13, 0.1))
    with pytest.raises(AccessoryResonance):
        alpha_beta(rche_spec(0.1, 0.2, 0.6, 0.1), 1)
    with pytest.raises(SizeError):
        c_coefficients(spec, 9)
    with pytest.raises(SizeError):
        list(compositions(17))
    beyond_gate = rche_spec(0.1, 0.2, 0.3, 0.95)
    with pytest.raises(DomainError):
        connection_scalar(beyond_gate)
    # With the gate overridden the cf route serves it, although some eta_k
    # leaves the right half-plane: the scalar uses only their product.
    val, err = connection_scalar(beyond_gate, allow_large_coupling=True)
    assert abs(val - solver_matrix(beyond_gate)["++"]) <= err
    with pytest.raises(NonConvergence):
        connection_scalar(spec, max_depth=32)
    with pytest.raises(DomainError):
        geometric_ladder(100, 4)
    with pytest.raises(JetDivByZero):
        jet_div(jet_variable(3), jet_variable(3))
    with pytest.raises(RadiusError):
        evaluate(frobenius_series(spec, 0, +1, 50), 1.3)
    with pytest.raises(TailError):
        evaluate(frobenius_series(spec, 0, +1, 8), 0.97, tol=1e-14)
    with pytest.raises(PoleError):
        gamma(0.0)
    print("criterion 10: all perturbation and degeneracy controls behave")
