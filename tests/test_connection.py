"""Connection amplitudes and matrices: four routes, guards, and invariants."""

from __future__ import annotations

import cmath
import math
import random
import threading
import time
from dataclasses import replace
from itertools import count, islice

import mpmath as mp
import pytest
from hypothesis import HealthCheck, given, settings

import oracles
from conftest import (
    coupled_specs,
    matrix_rel_diff,
    oracle_matrix,
    rel_diff,
    resonant_spec,
    solver_matrix,
)
from heunconn import (
    METHODS,
    AccessoryResonance,
    CFBreakdown,
    DetCheckFailed,
    DomainError,
    HeunConnError,
    NonConvergence,
    PoleError,
    c_coefficients,
    canonical_recurrence_step,
    che_spec,
    connection_matrix,
    connection_scalar,
    det_residual,
    extract_sigma,
    extrapolate,
    fusion_cl,
    geometric_ladder,
    evaluate,
    evaluate_deriv,
    frobenius_series,
    full_report,
    he_spec,
    hyp_spec,
    log_a_infinity_cf,
    log_a_series_from_traces,
    rche_spec,
    rescaled_a,
    schafke_schmidt_connection,
    tail_determinant_limit,
    wronskian_connection,
)
from heunconn.connection import (
    _KEYS,
    _PREF_ERR,
    _det_gate,
    _eta_sweep,
    _flip_spec,
    _forward_sweep,
    _gamma_factors,
    _recurrence_limit,
    _ss_precision,
    _sweep_floor,
    _third_parameter,
)
from heunconn.equations import EquationSpec, coefficient_table
from heunconn.fixedpoint import (
    Dyadic,
    _gaussian_iterates,
    _real_iterates,
    exact_quadratics,
    fixed_iterates,
)
from heunconn.precision import DOUBLE, HIGH, is_mp, p_exp, p_log1p, spec_to_precision
from heunconn.special import log_gamma
from heunconn.tails import (
    EPS64, a_space, d_space, formal_tail, sum_tail, tail_depth, u_space, unit_roundoff,
)
from sweep_roundings import bulk_specs, near_root_specs

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
# err_estimate of the examples' matrices by cf, ss and wronskian, frozen as
# float.hex.
GOLDEN_ESTIMATES = {
    "HYP": {"cf": "0x1.117c2ccd6b3f5p-43", "ss": "0x1.a9eb3f6896cbfp-50",
            "wronskian": "0x1.7249b86a12b9bp-47"},
    "RCHE": {"cf": "0x1.aca56072647f6p-43", "ss": "0x1.783b6b3f41612p-50",
             "wronskian": "0x1.7049b86a12b9bp-47"},
    "CHE": {"cf": "0x1.c228b532c4b13p-43", "ss": "0x1.b8e698d891591p-50",
            "wronskian": "0x1.7249b86a12b9bp-47"},
    "HE": {"cf": "0x1.59b3cdae5b24ap-43", "ss": "0x1.65c3411f3a3e4p-50",
           "wronskian": "0x1.6a49b86a12b9bp-47"},
}


class TestFusionFormula:
    @pytest.mark.parametrize("key", sorted(oracles.FCL_SPOTS))
    def test_spot(self, key):
        t0, t1, ti = (float(p) for p in key.split("|"))
        want = oracles.cplx(oracles.FCL_SPOTS[key])
        assert rel_diff(fusion_cl(t0, t1, ti), want) <= 1e-13

    def test_complex_arguments(self):
        v = fusion_cl(0.1 + 0.02j, 0.2 - 0.01j, 0.3)
        assert v == v  # finite, no NaN

    def test_err_estimate_grows_near_a_gamma_pole(self):
        # 2 theta1 = -0.99984 lies 1.6e-4 from the pole at -1, which magnifies
        # the rounding of the gamma argument about 6e3-fold.
        spec = hyp_spec(-0.4523, -0.49992, -0.2249)
        mat = connection_matrix(spec)
        with mp.workdps(30):
            high = connection_matrix(spec_to_precision(spec, HIGH))
        assert max(abs(mat[k] - high[k]) for k in high.entries) <= mat.err_estimate


def _per_flip_factors(spec) -> list:
    """Reference for :func:`_gamma_factors`: the factor of each sign flip,
    row by row, as one ``fusion_cl`` call forms it from four log-gammas, and
    its error bound, ``_PREF_ERR`` in binary64 units plus ``|z| / dist(z,
    poles)`` for each gamma argument ``z`` with ``Re z < 1/2``."""
    x, out = _third_parameter(spec), []
    for s0 in (1, -1):
        for s1 in (1, -1):
            t0, t1 = s0 * spec.theta0, s1 * spec.theta1
            a = 0.5 + t1 - t0
            args = (1 - 2 * t0, 2 * t1, a + x, a - x)
            lg = [log_gamma(z) for z in args]
            val = p_exp(lg[0] + lg[1] - lg[2] - lg[3])
            ulps = _PREF_ERR / EPS64
            for z in args:
                ulps += abs(z) / abs(z - round(z.real)) if z.real < 0.5 else 1.0
            out.append((val, float(unit_roundoff(is_mp(val)) * ulps)))
    return out


def _expected_factors(spec) -> list:
    """:func:`_per_flip_factors`, with a float triple's factors real: its
    log-gammas are real, and the real parts are the same to the bit."""
    want = _per_flip_factors(spec)
    if all(isinstance(v, float) for v in (spec.theta0, spec.theta1, _third_parameter(spec))):
        return [(complex(v.real), e) for v, e in want]
    return want


def _factor_specs(seed: int) -> list:
    """Seeded specs of the four families: real, complex and 30-digit mpmath,
    the coupled ones also at lam = 0."""
    rng = random.Random(seed)

    def theta():
        while True:
            t = rng.uniform(-0.45, 0.45)
            if abs(2 * t - round(2 * t)) >= 0.02:
                return t

    specs = []
    for _ in range(6):
        t0, t1, x, lam = theta(), theta(), rng.uniform(0.08, 0.42), rng.uniform(-0.3, 0.3)
        for lam_ in (lam, 0.0):
            specs += [
                rche_spec(t0, t1, x, lam_),
                che_spec(t0, t1, x, theta(), lam_),
                he_spec(t0, t1, theta(), theta(), x, lam_),
            ]
        specs.append(hyp_spec(t0, t1, x))
    specs += [
        replace(s, theta0=s.theta0 + 0.03j, theta1=s.theta1 - 0.02j) for s in specs[:13]
    ]
    with mp.workdps(30):
        specs += [spec_to_precision(s, HIGH) for s in specs[::3]]
    return specs


class TestGammaFactors:
    """The four gamma-ratio factors of a matrix come from one pass."""

    @pytest.mark.parametrize("seed", [3, 29])
    def test_factors_equal_one_fusion_cl_per_flip(self, seed):
        with mp.workdps(30):
            for spec in _factor_specs(seed):
                x = _third_parameter(spec)
                want = _expected_factors(spec)
                got = list(_gamma_factors(spec.theta0, spec.theta1, x))
                # repr tells signed zeros and mpmath precisions apart, and
                # shows a float triple's imaginary parts to be exactly 0.0
                assert repr(got) == repr(want), spec
                assert repr(fusion_cl(spec.theta0, spec.theta1, x)) == repr(want[0][0])

    @pytest.mark.parametrize("seed", [3, 29])
    def test_zero_coupling_entries_are_the_factors(self, seed):
        for spec in _factor_specs(seed):
            if spec.lam != 0 or is_mp(spec.theta0):
                continue
            want = _expected_factors(spec)
            for method in ("cf", "recurrence"):
                mat = connection_matrix(spec, method)
                assert [mat[k] for k in ("++", "+-", "-+", "--")] == [complex(v) for v, _ in want]
                assert mat.err_estimate == max((e + EPS64) * abs(v) for v, e in want)
                assert mat.depth_or_K == 0

    # A gamma argument a - x of the flip (-, +), and of the last flip (-, -),
    # lies on a pole.
    POLE_SPECS = [
        hyp_spec(0.1, 0.2, 1.8),
        rche_spec(0.1, 0.2, 1.8, 0.1),
        rche_spec(-0.27767687930210716, 0.0416785359397942, 3.180644584758099, 0.1),
    ]

    @pytest.mark.parametrize("spec", POLE_SPECS, ids=["hyp", "rche", "rche_last_flip"])
    @pytest.mark.parametrize("method", ["cf", "recurrence"])
    def test_a_flip_at_a_gamma_pole_raises_as_fusion_cl_does(self, spec, method):
        with pytest.raises(PoleError) as want:
            _per_flip_factors(spec)
        with pytest.raises(PoleError) as got:
            connection_matrix(spec, method)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("method", ["cf", "recurrence"])
    def test_an_earlier_flip_raises_first(self, method):
        # The factors are formed flip by flip, each before its sweep: the
        # sweep of the flip (+, +) fails the tolerance before the last flip's
        # pole is reached.
        with pytest.raises(NonConvergence):
            connection_matrix(self.POLE_SPECS[2], method, tol=1e-30)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: fusion_cl(0.1, 1000 + 0.3j, 0.3),
            lambda: fusion_cl(0.1, 1e5 + 0.37, 0.3),
            lambda: connection_matrix(hyp_spec(0.1, 1e5 + 0.37, 0.3)),
            lambda: connection_matrix(rche_spec(0.1, 1000 + 0.3j, 0.3, 0.1), "recurrence"),
            lambda: connection_scalar(rche_spec(0.1, 1000 + 0.3j, 0.3, 0.1)),
        ],
        ids=["fusion_cl-complex", "fusion_cl-real", "hyp", "rche-recurrence", "rche-scalar"],
    )
    def test_a_ratio_past_the_binary64_range_is_named(self, call):
        # Gamma(2 theta1) / Gamma(1/2 + theta1 - theta0 +- x)^2 grows like 4^theta1.
        with pytest.raises(DomainError, match=r"^fusion_cl\(.*\) is outside the binary64 range$"):
            call()

    def test_a_report_on_an_overflowing_ratio_fails(self):
        report = full_report(rche_spec(0.1, 1000 + 0.3j, 0.3, 0.1))
        assert not report.passed
        assert any("fusion_cl(" in check.detail for check in report.checks)

    def test_real_parameters_give_a_real_sigma(self):
        # The factors of a float triple have no rounding noise in their
        # imaginary parts, so neither has the monodromy exponent.
        sigma = extract_sigma(connection_matrix(hyp_spec(0.1, 0.2, 0.3)))
        assert sigma.imag == 0.0 and abs(sigma - 0.3) <= 1e-15

    @pytest.mark.parametrize("method", ["cf", "recurrence"])
    def test_zero_coupling_matrix_takes_twelve_log_gammas_and_no_flipped_spec(
        self, monkeypatch, method
    ):
        import heunconn

        specs = [
            hyp_spec(0.1, 0.2, 0.3),
            rche_spec(0.1, 0.2, 0.3, 0.0),
            he_spec(0.1, -0.2, 0.3, 0.15, 0.3, 0.0),
            hyp_spec(0.1 + 0.01j, 0.2, 0.3),
        ]
        calls, built = [], []
        real_init = EquationSpec.__init__

        def counting(fn):
            def counted(z):
                calls.append(z)
                return fn(z)

            return counted

        def counting_init(self, *args, **kwargs):
            built.append(args)
            real_init(self, *args, **kwargs)

        # Real parameters take the real-line log-gamma, complex ones log_gamma.
        for name in ("log_gamma", "_real_log_gamma"):
            monkeypatch.setattr(heunconn.connection, name, counting(getattr(heunconn.connection, name)))
        monkeypatch.setattr(EquationSpec, "__init__", counting_init)
        for spec in specs:
            calls.clear()
            connection_matrix(spec, method)
            assert len(calls) == 12, spec
        assert built == []


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

    @pytest.mark.parametrize("family", ["HYP", "RCHE", "CHE", "HE"])
    def test_wronskian_entries_are_the_wronskians_at_the_probe(self, request, family):
        # Bit for bit the W(a, b) = a b' - a' b of evaluate and evaluate_deriv
        # on frobenius_series at the route's K.
        spec = request.getfixturevalue(EXAMPLE_FIXTURES[family])
        mat = wronskian_connection(spec)
        assert mat.depth_or_K == 64
        p0p, p0m, p1p, p1m = (
            frobenius_series(spec, pt, sg, 64) for pt in (0, 1) for sg in (1, -1)
        )

        def w(a, b):
            return evaluate(a, 0.5) * evaluate_deriv(b, 0.5) - evaluate_deriv(a, 0.5) * evaluate(
                b, 0.5
            )

        for row, p0 in (("+", p0p), ("-", p0m)):
            assert mat[row + "+"] == complex(-w(p0, p1m) / (2 * spec.theta1))
            assert mat[row + "-"] == complex(w(p0, p1p) / (2 * spec.theta1))
        err = abs(w(p0p, p0m) - 2 * spec.theta0) + abs(w(p1p, p1m) + 2 * spec.theta1) + 1e-14
        assert mat.err_estimate == err

    @pytest.mark.parametrize("method", METHODS)
    def test_err_estimate_is_float_for_mpmath_spec(self, rche_example, method):
        mat = connection_matrix(spec_to_precision(rche_example, HIGH), method)
        assert type(mat.err_estimate) is float

    @pytest.mark.parametrize("method", METHODS)
    def test_precision_names_the_arithmetic(self, rche_example, method):
        # ss runs in mpmath at every spec; an mpmath spec, wronskian included,
        # runs every route in mpmath.
        assert connection_matrix(spec_to_precision(rche_example, HIGH), method).precision == HIGH
        want = HIGH if method == "ss" else DOUBLE
        assert connection_matrix(rche_example, method).precision == want

    def test_wronskian_connection_names_the_arithmetic(self, rche_example):
        # The matrix gets its precision when it is built, also outside
        # connection_matrix.
        assert wronskian_connection(spec_to_precision(rche_example, HIGH)).precision == HIGH
        assert wronskian_connection(rche_example).precision == DOUBLE


COMPLEX_SPECS = [
    che_spec(0.12 - 0.04j, -0.23 + 0.02j, 0.31 + 0.01j, 0.2 + 0.1j, -0.25 + 0.05j),
    he_spec(0.11 + 0.05j, 0.27 - 0.03j, 0.33 + 0.01j, 0.41 - 0.02j, 0.37 + 0.02j, 0.3 + 0.1j),
]


def _assert_fixed_point_iterates_match(spec, K=2048):
    """The first K fixed-point iterates of the ss route, at the precision the
    route would use for depth K, equal mpmath canonical_recurrence_step
    iterates at the route's working dps."""
    dps, bits = _ss_precision(complex(spec.theta1), K)
    quadratics, _ = exact_quadratics(spec, K)
    with mp.workdps(dps):
        msp = spec_to_precision(spec, HIGH)
        u_km1, u_k = mp.mpf(0), mp.mpf(1)
        for k, (re, im) in enumerate(islice(fixed_iterates(quadratics, bits), K)):
            u_k, u_km1 = canonical_recurrence_step(msp, k, u_k, u_km1), u_k
            fixed = mp.mpc(mp.ldexp(re, -bits), mp.ldexp(im, -bits))
            assert abs(fixed - u_k) <= 1e-25 * abs(u_k), k


def _large_theta1_specs(count: int, seed: int) -> list:
    """Seeded specs of the three coupled families in turn with 4 <= |Re 2
    theta1| <= 12, the second half with complex theta1, kept 0.02 from
    exponent resonances and gamma poles, and |lam| <= 0.3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        family = ("RCHE", "CHE", "HE")[len(out) % 3]
        t0 = rng.uniform(-0.45, 0.45)
        t1 = rng.choice((1.0, -1.0)) * rng.uniform(2.0, 6.0)
        if len(out) >= count // 2:
            t1 = complex(t1, rng.uniform(-0.5, 0.5))
        om = rng.uniform(0.08, 0.42)
        lam = rng.choice((1.0, -1.0)) * rng.uniform(0.02, 0.3)
        if min(abs(x - round(x)) for x in (2 * t0, 2 * t1.real)) < 0.02 or any(
            abs(z - round(z.real)) < 0.02
            for z in (0.5 + s0 * t0 + s1 * t1 + sx * om
                      for s0 in (1, -1) for s1 in (1, -1) for sx in (1, -1))
        ):
            continue
        if family == "RCHE":
            out.append(rche_spec(t0, t1, om, lam))
        elif family == "CHE":
            out.append(che_spec(t0, t1, om, rng.uniform(-0.45, 0.45), lam))
        else:
            tt, ti = rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)
            out.append(he_spec(t0, t1, tt, ti, om, lam))
    return out


class TestLargeOrder:
    @pytest.mark.parametrize("omega", [30.0, 60.0, 100.0])
    @pytest.mark.parametrize(
        "make",
        [
            lambda om: rche_spec(0.1, 0.2, om, 0.5),
            lambda om: che_spec(0.1, 0.2, om, 0.25, 0.5),
            lambda om: he_spec(0.11, 0.27, 0.33, 0.41, om, 0.3),
        ],
        ids=["RCHE", "CHE", "HE"],
    )
    def test_large_omega_is_served(self, make, omega):
        # The 1/k tail first grows like (omega^2 / 2K)^n / n!: a depth of at
        # least omega^2 / 2 keeps it summable (about 13 ms per matrix at omega = 100).
        spec = make(omega)
        mat = connection_matrix(spec, "ss")
        assert mat.depth_or_K == math.ceil(omega**2 / 2)
        with mp.workdps(50):
            ref = connection_matrix(spec_to_precision(spec, HIGH), "cf", tol=1e-45)
        assert max(abs(mat[k] - complex(ref[k])) for k in _KEYS) <= mat.err_estimate

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    @pytest.mark.parametrize("family", ["HYP", "RCHE", "CHE", "HE"])
    def test_fixed_point_iterates_match_canonical_step(self, request, family, signs):
        spec = request.getfixturevalue(EXAMPLE_FIXTURES[family])
        _assert_fixed_point_iterates_match(_flip_spec(spec, *signs))

    @pytest.mark.parametrize("spec", COMPLEX_SPECS, ids=["CHE", "HE"])
    def test_fixed_point_iterates_complex_parameters(self, spec):
        _assert_fixed_point_iterates_match(spec, K=512)

    @pytest.mark.parametrize(
        "x",
        [3, 0.1, -0.25, 1e20, -2.5 + 0.75j, 1e-300j, mp.mpf(-0.25), mp.mpf(4096),
         mp.mpc(-0.1, 3.5), mp.mpf(1) / 3],
        ids=repr,
    )
    def test_dyadic_numbers_are_exact(self, x):
        # mpf(-0.25).man_exp is (1, -2): the sign comes from the mpf tuple.
        d = Dyadic.of(x)
        with mp.workprec(4000):
            assert mp.mpc(mp.ldexp(d.re, -d.exp), mp.ldexp(d.im, -d.exp)) == mp.mpc(x)
        assert complex(d) == complex(x)

    @pytest.mark.parametrize("x", [math.inf, complex(0, math.nan), mp.mpf("nan"), mp.mpc(1, "inf")])
    def test_dyadic_numbers_are_finite(self, x):
        with pytest.raises(DomainError, match="not finite"):
            Dyadic.of(x)

    @pytest.mark.parametrize("family", ["HYP", "RCHE", "CHE", "HE"])
    def test_real_sweep_is_the_gaussian_sweep(self, request, family):
        spec = _flip_spec(request.getfixturevalue(EXAMPLE_FIXTURES[family]), -1, 1)
        _, bits = _ss_precision(complex(spec.theta1), 512)
        quadratics, _ = exact_quadratics(spec, 512)
        state = [
            part
            for c0, c1, c2 in quadratics
            for v in (c0, c1 + c2, 2 * c2)
            for part in Dyadic.of(v).scaled(bits)
        ]
        assert not any(state[1::2])
        real = islice(_real_iterates(state[::2], bits), 512)
        assert list(real) == list(islice(_gaussian_iterates(state, bits), 512))

    def test_accessory_resonance_gate(self):
        # omega = 1/2 - theta0 + theta1 + 3 makes Q_3 vanish; the gate is the
        # coefficient table's, so the message is that of cf and recurrence.
        t0, t1 = 0.1, 0.2
        with pytest.raises(AccessoryResonance, match=r"vanishes at k = 3 \(Q = "):
            schafke_schmidt_connection(rche_spec(t0, t1, 3.5 - t0 + t1, 0.1))

    def test_every_theta1_within_err_estimate(self):
        # Nothing in the route depends on |Re 2 theta1| < 4: the depth is 64
        # on each of these specs, and the guard bits follow theta1.
        for spec in _large_theta1_specs(12, 24):
            mat = connection_matrix(spec, "ss")
            ref = solver_matrix(spec)
            assert max(abs(mat[k] - ref[k]) for k in ref) <= mat.err_estimate, spec

    def test_matrix_is_fast(self, he_example):
        start = time.perf_counter()
        connection_matrix(he_example, method="ss")
        assert time.perf_counter() - start < 2.0

    # The ss cases are named by family alone, the others family-method.
    @pytest.mark.parametrize(
        "method, family",
        [
            pytest.param(method, family, id=family if method == "ss" else f"{family}-{method}")
            for method in ("ss", "cf", "recurrence")
            for family in ("HYP", "RCHE", "CHE", "HE")
        ],
    )
    def test_err_estimate_bounds_oracle_error(self, request, method, family):
        mat = connection_matrix(request.getfixturevalue(EXAMPLE_FIXTURES[family]), method)
        ref = oracle_matrix(RUNS[family])
        assert max(abs(mat[k] - ref[k]) for k in ref) <= mat.err_estimate
        if method == "ss":
            assert mat.depth_or_K == 64  # tail_depth's minimum on every example

    # At large coupling the HE amplitude grows like 1/(1-lam) and the
    # recurrence's second root lam magnifies rounding by 1/(1-lam).  In the
    # last HE spec the second solution decays like |lam|^k k^1.71: at the
    # K = 78 of |lam|^k alone the recurrence's 1/k tail stalled at 1.2e-16.
    @pytest.mark.parametrize(
        "method, spec",
        [
            pytest.param(method, spec, id=f"{spec.family}-{spec.lam}-{method}")
            for spec, methods in [
                (
                    he_spec(-0.3037, -0.4366, 0.1266, 0.3688, 0.2675, 0.5747),
                    ("cf", "recurrence", "ss"),
                ),
                (he_spec(-0.1416, -0.2117, -0.3047, -0.4292, 0.3618, 0.6114), ("recurrence", "ss")),
                (rche_spec(-0.0136, 0.1110, 0.1090, -0.7548), ("cf", "recurrence", "ss")),
                (che_spec(-0.2172, 0.4095, 0.4183, -0.3019, 0.8661), ("cf", "recurrence", "ss")),
                (he_spec(-0.4226, -0.4243, -0.4322, -0.1351, 0.1668, 0.5861), ("recurrence", "ss")),
            ]
            for method in methods
        ],
    )
    def test_err_estimate_bounds_solver_error_at_large_coupling(self, method, spec):
        mat = connection_matrix(spec, method)
        ref = solver_matrix(spec)
        assert max(abs(mat[k] - ref[k]) for k in ref) <= mat.err_estimate

    @pytest.mark.parametrize("family", sorted(GOLDEN_ESTIMATES))
    def test_estimates_are_frozen(self, request, family):
        spec = request.getfixturevalue(EXAMPLE_FIXTURES[family])
        got = {m: connection_matrix(spec, m).err_estimate.hex() for m in GOLDEN_ESTIMATES[family]}
        assert got == GOLDEN_ESTIMATES[family]

    def test_recurrence_floors_its_estimate_once(self):
        # Amplitudes above 1: the recurrence route's relative estimate is
        # floored at its O(1) iterates once, in the entry, as cf's is.
        spec = rche_spec(0.13, 0.27, 0.31, -3.0)
        cf = connection_matrix(spec, "cf", allow_large_coupling=True)
        rec = connection_matrix(spec, "recurrence", allow_large_coupling=True)
        ref = solver_matrix(spec)
        assert max(abs(rec[k] - ref[k]) for k in ref) <= rec.err_estimate
        assert rec.err_estimate <= 1.01 * cf.err_estimate

    @pytest.mark.parametrize("method", ["cf", "recurrence", "ss"])
    def test_tol_bounds_each_routes_relative_estimate(self, method):
        spec = rche_spec(0.13, 0.27, 0.31, -3.0)
        connection_matrix(spec, method, tol=1e-13, allow_large_coupling=True)

    @pytest.mark.parametrize(
        "spec",
        [
            he_spec(0.11, 0.27, 0.33, 0.41, 0.37, 0.92),
            he_spec(0.11, 0.27, 0.33, 0.41, 0.37, -0.92),
            rche_spec(0.1, 0.2, 0.3, 0.9),
            che_spec(0.1, 0.2, 0.3, 0.15, -0.9),
        ],
        ids=lambda spec: f"{spec.family}-{spec.lam}",
    )
    def test_ss_at_the_coupling_gate(self, spec):
        # Named errors would be allowed here; these specs converge, to the
        # recurrence route within the two estimates.
        start = time.perf_counter()
        try:
            mat = connection_matrix(spec, "ss")
        except HeunConnError:
            mat = None
        assert time.perf_counter() - start < 2.0
        if mat is not None:
            ref = connection_matrix(spec, "recurrence", allow_large_coupling=True)
            assert max(abs(mat[k] - ref[k]) for k in ref.entries) <= (
                mat.err_estimate + ref.err_estimate
            )

    def test_ss_second_solution_power_law(self):
        # The second solution decays like |lam|^k k^1.41 here; without the
        # power law the ss sweep stopped at K = 159, 3e-14 off.
        spec = he_spec(0.2401, -0.3190, -0.3864, -0.1786, 0.1990, -0.7664)
        mat = connection_matrix(spec, "ss")
        with mp.workdps(34):
            ref = connection_matrix(spec_to_precision(spec, HIGH), "recurrence", tol=1e-25)
            worst = max(abs(mat[k] - ref[k]) for k in ref.entries)
        assert worst <= mat.err_estimate < 1e-14

    @pytest.mark.parametrize(
        "spec",
        [
            hyp_spec(0.13, -0.27, 0.31),
            rche_spec(-0.13, 0.27, 0.31, -0.4),
            he_spec(0.2401, -0.3190, -0.3864, -0.1786, 0.1990, -0.7664),
            *COMPLEX_SPECS,
        ],
        ids=["HYP", "RCHE", "HE", "CHE-complex", "HE-complex"],
    )
    def test_ss_depends_on_the_values_not_the_number_type(self, spec):
        # The recurrence's coefficients are formed exactly from the binary
        # mantissas and exponents, so mpmath numbers of the same values give
        # the same bits.
        mat = connection_matrix(spec, "ss")
        high = connection_matrix(spec_to_precision(spec, HIGH), "ss")
        assert high.entries == mat.entries
        assert high.depth_or_K == mat.depth_or_K

    def test_ss_of_a_fifty_digit_spec(self):
        with mp.workdps(50):
            spec = he_spec(*map(mp.mpf, ("0.11", "-0.27", "0.33", "0.41", "0.37", "0.61")))
        mat = connection_matrix(spec, "ss")
        with mp.workdps(34):
            ref = connection_matrix(spec, "recurrence", tol=1e-25)
            worst = max(abs(mat[k] - ref[k]) for k in ref.entries)
        assert worst <= mat.err_estimate

    @pytest.mark.parametrize("method", ["cf", "recurrence"])
    def test_mpmath_estimate_is_below_binary64(self, rche_example, method):
        # At 30 digits the estimate is about the final rounding to binary64,
        # far below the binary64 sweep's; the oracle is read at 30 digits too.
        with mp.workdps(30):
            mat = connection_matrix(spec_to_precision(rche_example, HIGH), method)
            ref = {k: mp.mpc(*v) for k, v in RUNS["RCHE"]["matrix"].items()}
            worst = max(abs(mat[k] - ref[k]) for k in ref)
        assert mat.err_estimate < 0.01 * connection_matrix(rche_example, method).err_estimate
        assert worst <= mat.err_estimate

    @pytest.mark.parametrize("method", ["cf", "recurrence"])
    def test_large_omega_matches_solver(self, method):
        # The roots of Q_k near k = 13 set the sweep depth, not |lam|.
        spec = rche_spec(0.13, 0.27, 12.3, 0.2)
        mat = connection_matrix(spec, method)
        assert matrix_rel_diff(mat.entries, solver_matrix(spec)) <= 1e-12

    def test_ss_ignores_other_threads_mpmath_precision(self):
        rng = random.Random(11)
        specs = [
            he_spec(*(rng.uniform(-0.4, 0.4) for _ in range(4)), rng.uniform(0.1, 0.4),
                    rng.uniform(-0.5, 0.5))
            for _ in range(10)
        ]
        want = [connection_matrix(spec, "ss").entries for spec in specs]
        dps, stop = mp.mp.dps, threading.Event()

        def meddle():  # holds mpmath's shared precision at 15 digits most of the time
            while not stop.is_set():
                with mp.workdps(15):
                    time.sleep(1e-4)

        thread = threading.Thread(target=meddle)
        thread.start()
        try:
            got = [connection_matrix(spec, "ss").entries for spec in specs]
        finally:
            stop.set()
            thread.join()
        assert got == want
        assert mp.mp.dps == dps


def _count_sweeps(monkeypatch) -> list:
    """Names of the sweeps the connection routes run from here on."""
    import heunconn.connection as connection

    calls = []
    for name in ("_eta_sweep", "_forward_sweep"):
        real = getattr(connection, name)

        def counting(*args, real=real, name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(connection, name, counting)
    return calls


def _reference_etas(spec, k_top: int, seed) -> list:
    """The eta sweep over the rows of ``coefficient_table``."""
    alphas, betas = coefficient_table(spec, 0, k_top + 1)
    out, eta = [seed] * k_top, seed
    for k in range(k_top, 0, -1):
        eta = out[k - 1] = 1 - spec.lam * alphas[k - 1] - spec.lam * betas[k] / eta
    return out


def _reference_forward(spec, start: int, stop: int):
    """The forward sweep over the rows of ``coefficient_table``."""
    a_km1, a_k = 0.0, 1.0 + 0 * spec.theta0
    for al, be in zip(*coefficient_table(spec, start, stop)):
        a_k, a_km1 = a_k - spec.lam * (al * a_k + be * a_km1), a_k
    return a_k


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
        # eta_k from a unit seed at k = 2^16 + 1, far out in the tail.
        etas = _eta_sweep(rche_example, 2**16, 1.0)
        assert abs(etas[-1] - 1.0) <= 1e-6

    def test_sweeps_form_their_own_rows(self, he_example, monkeypatch):
        import heunconn.connection as connection
        import heunconn.equations as equations

        def refuse(*args):
            raise AssertionError("a sweep read the coefficient table")

        monkeypatch.setattr(equations, "coefficient_table", refuse)
        assert not hasattr(connection, "coefficient_table")
        _eta_sweep(he_example, 300, 1.0)
        _forward_sweep(he_example, 0, 300)
        _forward_sweep(he_example, 300, 601)

    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE", "HYP", "lam0", "mpmath"])
    def test_sweeps_match_the_coefficient_table(self, family, che_example):
        # Both sweeps against the same sweeps over coefficient_table rows, on
        # the seeded specs of each family, an mpmath spec, HYP and lam = 0.
        eps = 2.0**-53
        if family == "HYP":
            specs = [hyp_spec(0.1, 0.2, 0.3)]
        elif family == "lam0":
            specs = [rche_spec(0.1, 0.2, 0.3, 0.0), he_spec(0.1, 0.2, 0.3, 0.4, 0.25, 0.0)]
        elif family != "mpmath":
            specs = bulk_specs(family, 16)
        with mp.workdps(30):
            if family == "mpmath":
                specs, eps = [spec_to_precision(che_example, HIGH)], 2.0**-mp.mp.prec
            for spec in specs:
                K = tail_depth(spec, eps, 2**20, "sweep")
                floor = _sweep_floor(spec, K, eps)
                pairs = [
                    (_forward_sweep(spec, 0, K), _reference_forward(spec, 0, K)),
                    (_forward_sweep(spec, K, 2 * K + 1), _reference_forward(spec, K, 2 * K + 1)),
                ]
                pairs += zip(_eta_sweep(spec, K, 1.0), _reference_etas(spec, K, 1.0))
                for got, ref in pairs:
                    assert abs(got - ref) <= floor * max(abs(ref), 1.0), spec

    def test_vanishing_seed_is_a_breakdown(self, rche_example):
        with pytest.raises(CFBreakdown, match="denominator vanished at k = 11"):
            _eta_sweep(rche_example, 10, 0.0)

    @pytest.mark.parametrize("method", ["cf", "recurrence"])
    def test_no_per_index_alpha_beta_calls(self, he_example, method, monkeypatch):
        import heunconn

        calls = []
        real = heunconn.equations.alpha_beta

        def counting(spec, k):
            calls.append(k)
            return real(spec, k)

        for module in (heunconn, heunconn.equations, heunconn.connection):
            if hasattr(module, "alpha_beta"):
                monkeypatch.setattr(module, "alpha_beta", counting)
        connection_matrix(he_example, method=method)
        assert calls == []

    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_resonance_raised_by_both_sweeps(self, family):
        spec = resonant_spec(family)
        # The backward sweep checks all its rows before it starts, so it
        # names the first resonant row; row by row it met k = 6 first.
        with pytest.raises(AccessoryResonance, match=r"vanishes at k = [56] \(Q = "):
            _eta_sweep(spec, 300, 1.0)
        with pytest.raises(AccessoryResonance, match=r"vanishes at k = 5 \(Q = 0\.0, "):
            _recurrence_limit(spec, 1e-10)

    def test_one_small_tail_term_does_not_stop_the_sum(self):
        # A lone cancellation (tau_2 is 7e-22 on an entry of the RCHE
        # example) must not cut the series before its 1e-6 term.
        terms = [1.0, 1e-3, 1e-25, 1e-6, 1e-9, 1e-12, 1e-15, 1e-18, 1e-21, 1e-24]
        total, omitted = sum_tail(iter(terms), 2.0**-53, True, "test")
        assert abs(total - sum(terms[:9])) <= 1e-15  # summed to the pair 1e-18, 1e-21
        assert omitted == 1e-18

    def test_growing_tail_terms_raise_and_are_listed(self):
        terms = (math.factorial(n) / 4.0**n for n in count())
        with pytest.raises(NonConvergence, match=r"stopped decreasing.*terms 1\.0e\+00, 2\.5e-01"):
            sum_tail(terms, 2.0**-53, True, "test")

    @pytest.mark.parametrize("x", [1e-3 + 2e-4j, -3.7e-5 + 0j, 2.5e-8 - 1e-9j, 0.3 - 0.2j])
    def test_log1p_is_accurate_relative_to_x(self, x):
        # The cf route adds ln(1 + x) for x = S(K+1) - 1, which is small.
        with mp.workdps(40):
            want = mp.log1p(mp.mpc(x))
            assert abs(p_log1p(mp.mpc(x)) - want) <= mp.mpf(10) ** -38 * abs(x)
        assert abs(p_log1p(x) - complex(want)) <= 4 * 2.0**-53 * abs(x)

    def test_hyp_log_amplitude_is_zero(self, hyp_example):
        log_a, _, _ = log_a_infinity_cf(hyp_example)
        assert abs(log_a) <= 1e-14

    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_sweep_rounding_is_within_the_floor(self, family):
        # The forward sweep from row 0 and from row K, and the eta sweep
        # from the cf route's binary64 seed, against the same sweeps in
        # mpmath at 40 digits, relative to the O(1) iterates as the routes
        # scale them.  The CHE specs include some where Q_0 or Q_1 nearly
        # cancels: formed as (a - x)(a + x), not a^2 - x^2, its rounding
        # stays per row (tools/sweep_roundings.py).
        eps = 2.0**-53
        specs = bulk_specs(family, 16)
        if family == "CHE":
            specs += near_root_specs(family, 8)
        if family == "HE":  # far from the margin, 5.4 per row with Q_k as a^2 - x^2
            specs.append(he_spec(
                -0.13963452397957893, -0.31104492881472634, -0.43787434459337793,
                -0.2059984647166381, -0.18175120914901655, -0.868808763342742,
            ))
        for spec in specs:
            K = tail_depth(spec, eps, 2**20, "sweep")
            seed = _d_tail(spec, K + 1) / _d_tail(spec, K + 2)
            with mp.workdps(40):
                high = spec_to_precision(spec, HIGH)
                refs = [_forward_sweep(high, 0, K), _forward_sweep(high, K, 2 * K + 1)]
                refs.append(mp.exp(sum(map(mp.log, _eta_sweep(high, K, seed)))))
            etas = cmath.exp(sum(map(cmath.log, _eta_sweep(spec, K, seed))))
            got = [_forward_sweep(spec, 0, K), _forward_sweep(spec, K, 2 * K + 1), etas]
            floor = _sweep_floor(spec, K, eps)
            for g, r in zip(got, map(complex, refs)):
                assert abs(g - r) <= floor * max(abs(r), 1.0), spec


def _tail_sum(terms) -> complex:
    return sum_tail(terms, 2.0**-53, True, "tail")[0]


def _d_tail(spec, k: int) -> complex:
    """The formal series S(k) of the tail determinants, D_k / D_inf."""
    return _tail_sum(formal_tail(d_space(spec), spec.lam, 0, 1 / k))


def _eta_tail(spec, K: int) -> complex:
    """The cf route's T(K) = sum_{k>K} ln eta_k = ln S(K+1) of the tail
    determinants."""
    return cmath.log(_d_tail(spec, K + 1))


def _a_limit(spec, K: int) -> complex:
    """The recurrence route's a_K / S(K)."""
    tail = _tail_sum(formal_tail(a_space(spec), spec.lam, 0, 1 / K))
    return _reference_forward(spec, 0, K) / tail


# Dropping one coefficient of the recurrence from the tail moved these
# identities by 5e-8 or more on the examples; the sweeps' roundings leave 4e-15.
_K_TOL = 1e-13


def _assert_tails_do_not_depend_on_K(spec):
    eps = 2.0**-53
    K = tail_depth(spec, eps, 2**20, "tail")
    # A unit seed K rows above 2K, not the route's seed from the tail: the
    # seed's error falls like the second solution, which the depth rule puts
    # below the unit roundoff within K rows.
    etas = _eta_sweep(spec, 3 * K, 1.0)[: 2 * K]
    summed = sum(map(cmath.log, etas[K:]))
    assert abs(summed + _eta_tail(spec, 2 * K) - _eta_tail(spec, K)) <= _K_TOL
    assert rel_diff(_a_limit(spec, K), _a_limit(spec, 2 * K)) <= _K_TOL
    # ss: u_K / (K^rho S(K)), rho = 2 theta1 - 1, from the fixed-point sweep
    K = tail_depth(spec, eps, 2**20, "tail", abs(2 * complex(spec.theta0) - 1))
    _, bits = _ss_precision(complex(spec.theta1), 2 * K)
    quadratics, _ = exact_quadratics(spec, 2 * K)
    u = [complex(*z) / 2.0**bits for z in islice(fixed_iterates(quadratics, bits), 2 * K)]
    rho = 2 * complex(spec.theta1) - 1
    parts = u_space(quadratics)
    ss = [u[k - 1] / (k**rho * _tail_sum(formal_tail(parts, 0, rho, 1 / k))) for k in (K, 2 * K)]
    assert rel_diff(*ss) <= _K_TOL


class TestFormalTail:
    """Each route's formal tail continues its sweep: moving the depth from K
    to 2K changes nothing."""

    @pytest.mark.parametrize("family", ["HYP", "RCHE", "CHE", "HE"])
    def test_tails_do_not_depend_on_the_depth(self, request, family):
        _assert_tails_do_not_depend_on_K(request.getfixturevalue(EXAMPLE_FIXTURES[family]))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(coupled_specs({"RCHE": 0.6, "CHE": 0.6, "HE": 0.6}))
    def test_tails_of_seeded_specs_do_not_depend_on_the_depth(self, spec):
        _assert_tails_do_not_depend_on_K(spec)


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

    @pytest.mark.parametrize("noise", [1e-17j, -1e-17j])
    @pytest.mark.parametrize("fixture", ["hyp_example", "rche_example"])
    def test_rounding_noise_leaves_a_real_sigma_unchanged(self, request, fixture, noise):
        # A real sigma is its representative in [0, 1/2], with imaginary part
        # +0.0, whatever the sign of the noise in the entries.
        mat = connection_matrix(request.getfixturevalue(fixture))
        sigma = extract_sigma(mat)
        assert 0.0 <= sigma.real <= 0.5 and repr(sigma.imag) == "0.0"
        noisy = replace(mat, entries={k: v + noise for k, v in mat.entries.items()})
        assert repr(extract_sigma(noisy)) == repr(sigma)

    def test_a_complex_omega_keeps_its_complex_sigma(self):
        mat = connection_matrix(rche_spec(0.1, 0.2, 0.3 + 0.05j, 0.1))
        sigma = extract_sigma(mat)
        assert 0.0 <= sigma.real < 1.0 and sigma.imag > 1e-3
        noisy = replace(mat, entries={k: v + 1e-17j for k, v in mat.entries.items()})
        assert abs(extract_sigma(noisy) - sigma) <= 1e-15


def _large_coupling_specs(count: int, seed: int) -> list:
    """Seeded RCHE and CHE specs with 0.4 <= |lam| <= 0.88 and HE specs with
    0.4 <= |lam| <= 0.8, kept 0.02 from exponent resonances and gamma poles."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        family = rng.choice(("RCHE", "CHE", "HE"))
        t0, t1 = rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)
        om = rng.uniform(0.08, 0.42)
        lam = rng.choice((1.0, -1.0)) * rng.uniform(0.4, 0.8 if family == "HE" else 0.88)
        if min(abs(x - round(x)) for x in (2 * t0, 2 * t1)) < 0.02 or any(
            abs(0.5 + s0 * t0 + s1 * t1 + sx * om) < 0.02
            for s0 in (1, -1) for s1 in (1, -1) for sx in (1, -1)
        ):
            continue
        if family == "RCHE":
            out.append(rche_spec(t0, t1, om, lam))
        elif family == "CHE":
            out.append(che_spec(t0, t1, om, rng.uniform(-0.45, 0.45), lam))
        else:
            tt, ti = rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)
            out.append(he_spec(t0, t1, tt, ti, om, lam))
    return out


class TestGuardsAndLimits:
    def test_coupling_gate(self):
        with pytest.raises(DomainError):
            connection_scalar(rche_spec(0.1, 0.2, 0.3, 0.95))

    def test_ss_and_wronskian_take_no_coupling_gate(self):
        spec = rche_spec(0.1, 0.2, 0.3, 0.95)
        ref = solver_matrix(spec)
        for method in ("ss", "wronskian"):
            mat = connection_matrix(spec, method)
            assert max(abs(mat[k] - ref[k]) for k in ref) <= mat.err_estimate, method

    def test_coupling_gate_comes_before_the_entries(self):
        # omega puts the first entry's fusion factor on a gamma pole; the
        # gate is checked once, before that factor is formed.
        t0, t1 = 0.1, 0.2
        spec = rche_spec(t0, t1, 2.5 - t0 + t1, 0.95)
        for method in ("cf", "recurrence"):
            with pytest.raises(DomainError, match="allow_large_coupling=True"):
                connection_matrix(spec, method)
            with pytest.raises(DomainError, match="allow_large_coupling=True"):
                connection_scalar(spec, method)
            with pytest.raises(PoleError):
                connection_matrix(spec, method, allow_large_coupling=True)

    def test_cf_past_an_amplitude_zero(self):
        # The amplitude crosses zero below lam = 0.95 and some eta_k leave the
        # right half-plane; the scalar needs only their product.
        spec = rche_spec(0.1, 0.2, 0.3, 0.95)
        val, err = connection_scalar(spec, allow_large_coupling=True)
        assert abs(val - solver_matrix(spec)["++"]) <= err

    def test_cf_serves_every_large_coupling_spec(self):
        # Some eta_k leave the right half-plane on about half of these specs.
        for spec in _large_coupling_specs(90, 7):
            cf = connection_matrix(spec, "cf")
            ref = connection_matrix(spec, "recurrence")
            worst = max(abs(cf[k] - ref[k]) for k in ref.entries)
            assert worst <= cf.err_estimate + ref.err_estimate, spec

    def test_cf_follows_he_coupling_to_minus_one(self):
        # K = 9184 here, and each row passes on 0.995 of an error: a unit
        # seed 4000 rows above K left 0.995^4000 = 2.0e-9, above the default
        # tol.  The seed from the formal tail leaves a deviation of 1.9e-13.
        spec = he_spec(0.11, 0.27, 0.33, 0.41, 0.37, -0.995)
        cf, ss = connection_matrix(spec, "cf"), connection_matrix(spec, "ss")
        worst = max(abs(cf[k] - ss[k]) for k in ss.entries)
        assert worst <= cf.err_estimate + ss.err_estimate <= 1e-11

    def test_coupling_override_when_branch_is_safe(self):
        spec = he_spec(0.11, 0.27, 0.33, 0.41, 0.37, 0.92)
        val, err = connection_scalar(spec, allow_large_coupling=True)
        assert err < 1e-8 and abs(val) > 0.01

    def test_resonance_beyond_the_minimum_depth(self):
        # Q_100 vanishes: the table must reach past k = 100, although |lam|
        # alone would stop the sweep at K = 64.
        t0, t1 = 0.13, 0.27
        spec = rche_spec(t0, t1, 100.5 - t0 + t1, 0.2)
        with pytest.raises(AccessoryResonance, match="vanishes at k = 100 "):
            log_a_infinity_cf(spec)
        with pytest.raises(AccessoryResonance, match="vanishes at k = 100 "):
            _recurrence_limit(spec, 1e-10)

    def test_missed_tol_on_mpmath_spec_is_named(self):
        spec = rche_spec(mp.mpf("0.1"), mp.mpf("0.2"), mp.mpf("0.3"), mp.mpf("0.1"))
        with pytest.raises(NonConvergence, match="is above tol"):
            connection_matrix(spec, method="cf", tol=1e-30)

    def test_cf_estimate_is_float_on_mpmath_spec(self, rche_example):
        with mp.workdps(30):
            _, _, err = log_a_infinity_cf(spec_to_precision(rche_example, HIGH))
        assert type(err) is float

    def test_cf_reaches_fifty_digits(self):
        # The seed and the 1/K of the tail follow the working precision.
        with mp.workdps(50):
            spec = spec_to_precision(che_spec(0.1, 0.2, 7.7, 0.15, 0.004), HIGH)
            log_a, _, err = log_a_infinity_cf(spec, tol=1e-45)
            a_inf, _, _ = _recurrence_limit(spec, 1e-45)
            assert err < 1e-45
            assert abs(log_a - mp.log(a_inf)) < 1e-45

    def test_cf_beyond_unit_coupling(self):
        # RCHE and CHE rows pass on about |lam|/k of an error, so cf
        # converges at |lam| >= 1 and matches the recurrence route.
        spec = rche_spec(0.13, 0.27, 0.31, -1.2)
        val, err = connection_scalar(spec, method="cf", allow_large_coupling=True)
        ref, _ = connection_scalar(spec, method="recurrence", allow_large_coupling=True)
        assert abs(ref - 2.5036296622198524) <= 1e-14
        assert abs(val - ref) <= err

    @pytest.mark.parametrize("method", ["cf", "recurrence", "ss"])
    def test_max_depth_caps_every_sweeping_route(self, method):
        # Every route needs K = 60,854 for this spec at binary64.
        spec = he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 0.999)
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match="above max_depth = 4096"):
            connection_matrix(spec, method, max_depth=4096)
        assert time.perf_counter() - start < 0.5

    def test_depth_search_bisects(self, rche_example, monkeypatch):
        # The target is met 13,233 steps above the first K here.
        import heunconn.tails as tails

        real, calls = tails.log_second_mode, []
        monkeypatch.setattr(
            tails, "log_second_mode", lambda spec, K: calls.append(K) or real(spec, K)
        )
        spec = he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 0.999)
        K = tail_depth(spec, 2.0**-53, 2**20, "sweep")
        assert K == 60_854 and len(calls) <= 64
        target = math.log(2.0**-53) - tails._MODE_MARGIN
        assert real(spec, K - 1) > target >= real(spec, K)
        calls.clear()
        assert tail_depth(rche_example, 2.0**-53, 2**20, "sweep") == 64
        assert len(calls) == 1  # the first K meets the target

    @pytest.mark.parametrize(
        "spec", [rche_spec(0.1, 1e308, 0.3, 0.1), rche_spec(0.1, 0.2, 1e308, 0.1)],
        ids=["theta1", "omega"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: connection_matrix(spec, "ss"),
            schafke_schmidt_connection,
            lambda spec: c_coefficients(spec, 2),
            lambda spec: log_a_series_from_traces(spec, 2),
        ],
        ids=["matrix-ss", "schafke_schmidt", "c_coefficients", "traces"],
    )
    def test_an_overflowing_depth_is_named(self, spec, call):
        # Eight times the reach of the roots of Q_k is no binary64 number.
        with pytest.raises(NonConvergence, match="no finite depth"):
            call(spec)
        assert not full_report(spec).passed

    def test_nonconvergence_at_tiny_depth(self, rche_example):
        with pytest.raises(NonConvergence):
            connection_scalar(rche_example, max_depth=32)

    @pytest.mark.parametrize("method", ["cf", "recurrence"])
    def test_tiny_depth_gives_up_before_sweeping(self, rche_example, method, monkeypatch):
        # The example needs K = 64.
        sweeps = _count_sweeps(monkeypatch)
        with pytest.raises(NonConvergence, match="above max_depth = 32"):
            connection_scalar(rche_example, method=method, max_depth=32)
        assert sweeps == []

    @pytest.mark.parametrize("method", ["cf", "recurrence", "ss"])
    def test_unreachable_tolerance_stalls_fast(self, rche_example, method):
        # 1e-16 is below the rounding floor of K steps: the route must give up
        # at once instead of sweeping deeper.
        start = time.perf_counter()
        with pytest.raises(NonConvergence, match="is above tol"):
            connection_matrix(rche_example, method=method, tol=1e-16)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("field", ["theta1", "omega", "lam"])
    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_parameter_is_a_domain_error(self, method, field):
        # The record refuses it when it is built, so no route sees it.
        spec = EquationSpec("RCHE", 0.1, 0.2, lam=0.1, omega=0.3)
        with pytest.raises(DomainError, match=f"{field} = nan is not finite"):
            connection_matrix(replace(spec, **{field: math.nan}), method=method)

    @pytest.mark.parametrize(
        "route", [log_a_infinity_cf, schafke_schmidt_connection, connection_scalar]
    )
    def test_non_finite_parameter_on_the_scalar_routes(self, route):
        with pytest.raises(DomainError, match="theta_star = inf is not finite"):
            route(EquationSpec("CHE", 0.1, 0.2, lam=0.1, omega=0.3, theta_star=math.inf))

    @pytest.mark.parametrize("tol", [math.nan, "1e-10", None, 1j])
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec, tol: connection_matrix(spec, "cf", tol=tol),
            lambda spec, tol: connection_matrix(spec, "wronskian", tol=tol),
            lambda spec, tol: connection_scalar(spec, tol=tol),
            lambda spec, tol: log_a_infinity_cf(spec, tol=tol),
            lambda spec, tol: extract_sigma(connection_matrix(spec), tol=tol),
        ],
        ids=["cf", "wronskian", "scalar", "log_a", "sigma"],
    )
    def test_bad_tol_is_a_domain_error(self, rche_example, call, tol):
        # A nan tol would pass every estimate and determinant check.
        with pytest.raises(DomainError, match="tol must be a real number"):
            call(rche_example, tol)

    @pytest.mark.parametrize("method", ["ss", "wronskian"])
    def test_scalar_route_names_its_methods(self, rche_example, method):
        with pytest.raises(DomainError, match="supports methods 'cf' and 'recurrence'"):
            connection_scalar(rche_example, method)

    @pytest.mark.parametrize("method", ["ss", "bogus"])
    @pytest.mark.parametrize(
        "spec", [hyp_spec(0.1, 0.2, 0.3), rche_spec(0.1, 0.2, 0.3, 0.0)], ids=["HYP", "lam0"]
    )
    def test_scalar_route_names_its_methods_without_coupling(self, spec, method):
        # Where the coupling vanishes the value is the gamma ratio alone,
        # which must not hide a method the route does not have.
        with pytest.raises(DomainError, match="supports methods 'cf' and 'recurrence'"):
            connection_scalar(spec, method)

    def test_unknown_method_is_a_domain_error(self, rche_example):
        with pytest.raises(DomainError, match="method must be one of"):
            connection_matrix(rche_example, "foo")

    def test_corrupted_entry_fails_the_determinant_gate(self, rche_example):
        matrix = connection_matrix(rche_example)
        bad = replace(matrix, entries={**matrix.entries, "+-": matrix["+-"] * (1 + 1e-6)})
        assert _det_gate(matrix, 1e-10) is matrix
        with pytest.raises(DetCheckFailed, match=r"\|det C \+ theta0/theta1\| = "):
            _det_gate(bad, 1e-10)

    @pytest.mark.parametrize("method", [None, 5, b"cf"])
    def test_non_string_method_is_a_domain_error(self, rche_example, method):
        with pytest.raises(DomainError, match="method must be a string"):
            connection_matrix(rche_example, method)
        with pytest.raises(DomainError, match="method must be a string"):
            connection_scalar(rche_example, method)

    def test_tail_determinant_he(self, he_example):
        D, err = tail_determinant_limit(he_example)
        assert rel_diff(D, 1.0 / (1.0 - he_example.lam)) <= 1e-8

    def test_tail_determinant_rche_is_one(self, rche_example):
        D, _ = tail_determinant_limit(rche_example)
        assert rel_diff(D, 1.0) <= 1e-8

    def test_tail_determinant_keeps_an_mpmath_specs_precision(self):
        with mp.workdps(30):
            spec = he_spec(*map(mp.mpf, ("0.11", "-0.27", "0.33", "0.41", "0.37", "0.61")))
            D, err = tail_determinant_limit(spec)
            miss = abs(D * (1 - spec.lam) - 1)
        assert miss <= 1e-28 and err <= 1e-26
