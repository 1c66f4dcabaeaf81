"""Truncated power-series (jet) arithmetic, series coefficients c_n, and
their closed-form references."""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import mpmath as mp
import pytest
from hypothesis import HealthCheck, assume, given, settings

import oracles
from conftest import coupled_specs, rel_diff, resonant_spec
from heunconn import (
    AccessoryResonance,
    CheckConfig,
    DomainError,
    EquationSpec,
    FamilyFieldError,
    Jet,
    JetDivByZero,
    ParameterResonance,
    ResonantExponents,
    SizeError,
    c1_closed_he,
    c1_closed_rche,
    c2_closed_rche,
    c_coefficients,
    che_spec,
    f1_closed_he,
    full_report,
    he_spec,
    jet_add,
    jet_div,
    jet_exp,
    jet_from_scalar,
    jet_log,
    jet_mul,
    jet_scale,
    jet_sub,
    jet_variable,
    log_a_infinity_cf,
    log_a_series_from_traces,
    rche_spec,
    sigma1_closed,
)
from heunconn.equations import coefficient_table
from heunconn.precision import HIGH, spec_to_precision
from heunconn.perturbative import _forward_jet
from heunconn.tails import Orders, a_space, d_space, formal_tail, root_depth, series_log, sum_tail


def _jet(*coeffs: complex) -> Jet:
    return Jet(order=len(coeffs) - 1, coeffs=tuple(complex(c) for c in coeffs))


class TestJetAlgebra:
    def test_variable_and_scalar(self):
        assert jet_variable(3).coeffs == (0.0, 1.0, 0.0, 0.0)
        assert jet_from_scalar(2.5, 2).coeffs == (2.5, 0.0, 0.0)

    def test_mul_is_cauchy_product(self):
        a = _jet(1.0, 2.0, 3.0)
        b = _jet(4.0, 5.0, 6.0)
        assert jet_mul(a, b).coeffs == (4.0, 13.0, 28.0)

    def test_add_sub_scale(self):
        a = _jet(1.0, 2.0)
        b = _jet(0.5, -1.0)
        assert jet_add(a, b).coeffs == (1.5, 1.0)
        assert jet_sub(a, b).coeffs == (0.5, 3.0)
        assert jet_scale(a, 2.0).coeffs == (2.0, 4.0)

    def test_div_inverts_mul(self):
        a = _jet(1.3, -0.7, 0.2, 0.9)
        b = _jet(0.8, 0.1, -0.4, 0.05)
        back = jet_mul(jet_div(a, b), b)
        for x, y in zip(back.coeffs, a.coeffs):
            assert abs(x - y) <= 1e-14

    def test_log_inverts_exp(self):
        a = _jet(0.0, 0.3, -0.1, 0.07, 0.2)
        back = jet_log(jet_exp(a))
        for x, y in zip(back.coeffs, a.coeffs):
            assert abs(x - y) <= 1e-14

    def test_log_of_geometric_series(self):
        # log(1/(1-x)) = x + x^2/2 + x^3/3 + ...
        order = 6
        one = jet_from_scalar(1.0, order)
        geom = jet_div(one, jet_sub(one, jet_variable(order)))
        got = jet_log(geom).coeffs
        for n in range(1, order + 1):
            assert abs(got[n] - 1.0 / n) <= 1e-14

    def test_malformed_jets(self):
        with pytest.raises(DomainError):
            Jet(2, (1.0,))
        with pytest.raises(DomainError):
            jet_variable(0)

    def test_order_mismatch(self):
        with pytest.raises(DomainError):
            jet_mul(jet_from_scalar(1.0, 3), jet_from_scalar(1.0, 4))

    def test_div_by_zero_constant(self):
        with pytest.raises(JetDivByZero):
            jet_div(jet_variable(3), jet_variable(3))

    def test_log_requires_unit_constant(self):
        with pytest.raises(DomainError):
            jet_log(jet_from_scalar(2.0, 3))

    def test_exp_requires_zero_constant(self):
        with pytest.raises(DomainError):
            jet_exp(jet_from_scalar(1.0, 3))


class TestSeriesCoefficients:
    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_matches_frozen_series(self, request, family):
        spec = request.getfixturevalue(f"{family.lower()}_example")
        want = [oracles.cplx(t) for t in oracles.C_SERIES[family]]
        got = c_coefficients(spec, len(want))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert rel_diff(g, w) <= 1e-9

    def test_hyp_series_vanishes(self, hyp_example):
        assert c_coefficients(hyp_example, 4) == [0j] * 4

    def test_order_cap(self, rche_example):
        with pytest.raises(SizeError):
            c_coefficients(rche_example, 9)
        with pytest.raises(SizeError):
            c_coefficients(rche_example, 0)


def _log_a_jets(spec, K: int) -> list:
    """c_1 .. c_6 as ln a_K - ln S(K) at depth K."""
    a_K = _forward_jet(*coefficient_table(spec, 0, K), 6)
    tail = map(Orders, formal_tail(a_space(spec), 0, 0, 1 / K, 6))
    s_K, _ = sum_tail(tail, 2.0**-53, False, "jets")
    return [x - y for x, y in zip(series_log(a_K)[1:], series_log(s_K)[1:])]


def _assert_jets_do_not_depend_on_K(spec):
    # Dropping a coupling-linear coefficient from the tail moved the c_n of
    # the CHE and HE examples by 2e-5 or more; the sweep's roundings leave
    # 1.2e-14.
    K = root_depth(spec)
    for at_K, at_2K in zip(_log_a_jets(spec, K), _log_a_jets(spec, 2 * K)):
        assert abs(at_K - at_2K) <= 1e-13 * max(1.0, abs(at_K))


class TestJetTail:
    """The forward λ-jet sweep to K plus its formal 1/K tail."""

    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_matches_frozen_series_to_working_precision(self, request, family):
        spec = request.getfixturevalue(f"{family.lower()}_example")
        want = [oracles.cplx(t) for t in oracles.C_SERIES[family]]
        for g, w in zip(c_coefficients(spec, len(want)), want):
            assert abs(g - w) <= 1e-12

    @pytest.mark.parametrize("lam", [1e-3, -1e-3])
    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_orders_sum_to_the_recurrence_routes_tail(self, request, family, lam):
        # One recursion serves both callers: its orders 0..6 at coupling 0,
        # summed in powers of lam, give its order-0 sum at coupling lam.
        spec = request.getfixturevalue(f"{family.lower()}_example")
        K, eps = root_depth(spec), 2.0**-53
        parts = a_space(spec)
        jets, _ = sum_tail(map(Orders, formal_tail(parts, 0, 0, 1 / K, 6)), eps, False, "jets")
        direct, _ = sum_tail(formal_tail(parts, lam, 0, 1 / K), eps, False, "at lam")
        assert abs(sum(c * lam**m for m, c in enumerate(jets)) - direct) <= 1e-15

    @pytest.mark.parametrize("space", [a_space, d_space])
    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_orders_away_from_zero_coupling(self, request, family, space):
        # Only coupling 0 lets the jets skip order 0; at lam = 0.05 it is the
        # scalar tail bit for bit, and the orders summed at delta = 1e-3 give
        # the scalar tail at lam + delta.
        spec = request.getfixturevalue(f"{family.lower()}_example")
        K, eps, lam, delta = root_depth(spec), 2.0**-53, 0.05, 1e-3
        parts = space(spec)
        scalar = formal_tail(parts, lam, 0, 1 / K)
        for term, value in zip(formal_tail(parts, lam, 0, 1 / K, 6), islice(scalar, 40)):
            assert term[0] == value
        jets, _ = sum_tail(map(Orders, formal_tail(parts, lam, 0, 1 / K, 6)), eps, False, "jets")
        direct, _ = sum_tail(formal_tail(parts, lam + delta, 0, 1 / K), eps, False, "at lam")
        assert abs(sum(c * delta**m for m, c in enumerate(jets)) - direct) <= 1e-15

    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_tail_does_not_depend_on_the_depth(self, request, family):
        _assert_jets_do_not_depend_on_K(request.getfixturevalue(f"{family.lower()}_example"))

    @settings(derandomize=True, database=None, max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(coupled_specs({"RCHE": 0.3, "CHE": 0.3, "HE": 0.3}))
    def test_tail_of_seeded_specs_does_not_depend_on_the_depth(self, spec):
        _assert_jets_do_not_depend_on_K(spec)

    def test_wide_spec_takes_a_deeper_sweep(self):
        d = oracles.WIDE_CHE
        spec = che_spec(*(float(d[k]) for k in ("theta0", "theta1", "omega", "theta_star")), 0.0)
        assert root_depth(spec) > 64
        want = [oracles.cplx(t) for t in oracles.C_SERIES_WIDE]
        for g, w in zip(c_coefficients(spec, len(want)), want):
            assert abs(g - w) <= 1e-11 * max(1.0, abs(w))

    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_resonance_is_raised(self, family):
        with pytest.raises(AccessoryResonance):
            c_coefficients(resonant_spec(family), 6)

    @pytest.mark.parametrize("field", ["theta0", "omega", "lam"])
    def test_non_finite_parameter_is_a_domain_error(self, he_example, field):
        with pytest.raises(DomainError, match=f"{field} = nan is not finite"):
            c_coefficients(replace(he_example, **{field: float("nan")}), 6)


_SMALL_LAM = 1e-3
# Near a root of Q_0 the c_n grow like |1/2 - theta0 + theta1 - omega|^-n, and
# eight of them no longer sum to working precision at _SMALL_LAM (the sum is
# 9e-9 off at a distance of 0.045); the closed forms need the same margin.
_DIGAMMA_MARGIN = 0.05


# About 5 ms per spec.
@settings(
    derandomize=True, database=None, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(coupled_specs({"RCHE": 0.3, "CHE": 0.3, "HE": 0.3}))
def test_series_sums_to_the_cf_route_and_matches_the_traces(spec):
    assume(0.5 - spec.theta0 + spec.theta1 - spec.omega >= _DIGAMMA_MARGIN)
    cs = c_coefficients(spec, 8)
    small = replace(spec, lam=_SMALL_LAM)
    log_a, _, _ = log_a_infinity_cf(small)
    series = sum(c * _SMALL_LAM ** n for n, c in enumerate(cs, 1))
    assert abs(series - log_a) <= 1e-12
    if spec.family == "RCHE":
        for c, t in zip(cs, log_a_series_from_traces(spec, 3)):
            assert abs(c - t) <= 1e-11 * max(1.0, abs(c))


class TestClosedForms:
    def test_frozen_values(self, rche_example, he_example):
        table = {
            "c1_rche": c1_closed_rche(rche_example),
            "c2_rche": c2_closed_rche(rche_example),
            "sigma1_he": sigma1_closed(he_example),
            "f1_he": f1_closed_he(he_example),
            "c1_he": c1_closed_he(he_example),
        }
        for key, got in table.items():
            want = oracles.cplx(oracles.CLOSED_FORMS[key])
            assert rel_diff(got, want) <= 1e-12, key

    def test_c1_he_assembly(self, he_example):
        # c_1 = 1/2 - theta_t + f_1 by construction.
        want = 0.5 - he_example.theta_t + f1_closed_he(he_example)
        assert rel_diff(c1_closed_he(he_example), want) <= 1e-15

    def test_family_guards(self, rche_example, he_example):
        with pytest.raises(FamilyFieldError):
            c1_closed_rche(he_example)
        with pytest.raises(FamilyFieldError):
            sigma1_closed(rche_example)

    @pytest.mark.parametrize("omega", [0.5, -0.5, 1.0, -1.0, 0.0])
    def test_rche_resonant_omega(self, omega):
        # The trigamma/rational structure degenerates at these couplings.
        # c1 divides only by 4 omega q and 2 q, q = 1/4 - omega^2, so its
        # gate leaves out omega = +-1, where c2 divides by 1 - omega^2.
        spec = replace(rche_spec(0.1, 0.2, 0.3, 0.1), omega=omega)
        with pytest.raises(ParameterResonance):
            c2_closed_rche(spec)
        if abs(omega) != 1.0:
            with pytest.raises(ParameterResonance):
                c1_closed_rche(spec)

    @pytest.mark.parametrize("omega", [1.0, -1.0])
    def test_c1_is_defined_at_unit_omega(self, omega):
        spec = rche_spec(0.1, 0.2, omega, 0.1)
        assert abs(c1_closed_rche(spec) - c_coefficients(spec, 1)[0]) <= 1e-15

    def test_he_resonant_omega(self):
        spec = he_spec(0.11, 0.27, 0.33, 0.41, 0.5, 0.1)
        with pytest.raises(ParameterResonance):
            sigma1_closed(spec)

    @pytest.mark.parametrize(
        "form, family, name, pole_name",
        [
            (c1_closed_rche, "RCHE", "c1", "c1"),
            (c2_closed_rche, "RCHE", "c2", "c2"),
            (sigma1_closed, "HE", "sigma1", "sigma1"),
            (f1_closed_he, "HE", "f1", "f1"),
            (c1_closed_he, "HE", "c1", "f1"),  # its resonance is that of f_1
        ],
    )
    def test_gate_order(self, form, family, name, pole_name):
        # The record refuses 2 theta0 = 1 when it is built; a form gates a
        # valid record by its family, then by the poles in omega.  omega =
        # 0.5 is a pole of every form.
        fields = {"RCHE": {}, "HE": {"theta_t": 0.33, "theta_inf": 0.41}}
        other = "HE" if family == "RCHE" else "RCHE"

        def spec(fam, theta0):
            return EquationSpec(fam, theta0, 0.27, 0.1, omega=0.5, **fields[fam])

        with pytest.raises(
            FamilyFieldError, match=f"^{name} closed form applies to family {family}, got {other}$"
        ):
            form(spec(other, 0.11))
        with pytest.raises(ResonantExponents, match=r"^2\*theta0 = 1\.0 is within"):
            form(spec(family, 0.5))
        with pytest.raises(
            ParameterResonance,
            match=rf"^{pole_name} closed form has a vanishing denominator at omega = 0\.5; "
            r"omega = 0\.5$",
        ):
            form(spec(family, 0.11))

    @pytest.mark.parametrize(
        "form, spec",
        [
            (c1_closed_rche, rche_spec(0.1, 0.3 + 1e170j, 0.3, 0.1)),
            (c2_closed_rche, rche_spec(0.1, 0.3 + 1e120j, 0.3, 0.1)),
            (sigma1_closed, he_spec(0.1, 0.2, 0.3, 1e200, 0.3, 0.1)),
            (f1_closed_he, he_spec(0.1, 0.2, 1e200, 0.4, 0.3, 0.1)),
            (c1_closed_he, he_spec(0.1, 0.2, 1e200, 0.4, 0.3, 0.1)),
        ],
        ids=["c1_rche", "c2_rche", "sigma1", "f1", "c1_he"],
    )
    def test_a_value_past_the_binary64_range_is_a_domain_error(self, form, spec):
        # Valid specs whose forms overflow to nan or inf in binary64.
        with pytest.raises(DomainError, match="closed form = .* is outside the binary64 range"):
            form(spec)


class TestDigammaPairMemo:
    """c2 reuses the psi(a + omega) - psi(a - omega) that c1 has just formed."""

    @staticmethod
    def _count_polygamma(monkeypatch) -> list:
        import heunconn

        calls, real = [], heunconn.perturbative.polygamma

        def counting(n, z):
            calls.append(n)
            return real(n, z)

        monkeypatch.setattr(heunconn.perturbative, "polygamma", counting)
        return calls

    def test_c2_after_c1_takes_two_polygammas_and_the_cold_value(self, monkeypatch):
        import heunconn

        spec = rche_spec(0.13, 0.27, 0.31, 0.1)
        monkeypatch.setattr(heunconn.perturbative, "_PSI_DIFF_MEMO", (None, None))
        calls = self._count_polygamma(monkeypatch)
        cold = c2_closed_rche(spec)
        assert calls == [0, 0, 1, 1]
        monkeypatch.setattr(heunconn.perturbative, "_PSI_DIFF_MEMO", (None, None))
        c1_closed_rche(spec)
        calls.clear()
        warm = c2_closed_rche(spec)
        assert calls == [1, 1]
        assert repr(warm) == repr(cold)
        # A spec with other parameters forms its own pair.
        calls.clear()
        c2_closed_rche(rche_spec(0.13, 0.27, 0.32, 0.1))
        assert calls == [0, 0, 1, 1]

    def test_a_value_of_another_type_is_not_served(self, monkeypatch):
        calls = self._count_polygamma(monkeypatch)
        c1_closed_rche(rche_spec(0.13, 0.27, 0.31, 0.1))
        calls.clear()
        c1_closed_rche(rche_spec(0.13, 0.27, complex(0.31), 0.1))  # 0.31 == 0.31 + 0j
        assert calls == [0, 0]

    def test_an_mpmath_spec_is_not_served_from_the_memo(self, monkeypatch):
        spec = spec_to_precision(rche_spec(0.13, 0.27, 0.31, 0.1), HIGH)
        calls = self._count_polygamma(monkeypatch)
        for dps in (15, 30):  # an mpmath value depends on the working precision
            with mp.workdps(dps):
                c1_closed_rche(spec)
                calls.clear()
                c2_closed_rche(spec)
                assert calls == [0, 0, 1, 1]


class TestSeriesVsClosedForms:
    def test_rche(self, rche_example):
        c = c_coefficients(rche_example, 2)
        assert rel_diff(c[0], c1_closed_rche(rche_example)) <= 1e-10
        assert rel_diff(c[1], c2_closed_rche(rche_example)) <= 1e-9

    def test_he(self, he_example):
        c = c_coefficients(he_example, 1)
        assert rel_diff(c[0], c1_closed_he(he_example)) <= 1e-9

    @pytest.mark.parametrize("omega", [0.501, -0.501, 0.5001, -0.5001, 0.4999])
    def test_rche_c2_near_a_half_keeps_its_digits(self, omega):
        # Its terms cancel as omega nears +-1/2, where c_2 is finite: the
        # binary64 form alone is 6.6e-10 (0.501) to 5.6e-7 (0.4999) off.
        spec = rche_spec(0.13, 0.27, omega, 0.1)
        with mp.workdps(50):
            ref = c2_closed_rche(spec_to_precision(spec, HIGH))
        with mp.workdps(20):
            got = c2_closed_rche(spec)
            assert mp.mp.dps == 20  # the caller's context, as found
        assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref))
        assert rel_diff(c_coefficients(spec, 2)[1], got) <= 1e-13

    @pytest.mark.parametrize("d", [1e-6, 1e-8, 5e-10])
    def test_rche_c1_near_a_half_keeps_its_digits(self, d):
        # As for c_2: the binary64 form alone is 2.7e-11 (d = 1e-6) to 5.5e-8
        # (d = 5e-10) off, relative to max(1, |c_1|).
        spec = rche_spec(0.13, 0.27, 0.5 + d, 0.1)
        with mp.workdps(60):
            ref = c1_closed_rche(spec_to_precision(spec, HIGH))
        with mp.workdps(20):
            got = c1_closed_rche(spec)
            assert mp.mp.dps == 20  # the caller's context, as found
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        assert rel_diff(c_coefficients(spec, 1)[0], got) <= 1e-13

    def test_fast_report_passes_near_omega_a_half(self):
        for omega in (0.501, -0.501, 0.5001, -0.5001, 0.4999, 0.5 + 5e-10):
            report = full_report(rche_spec(0.13, 0.27, omega, 0.1), CheckConfig(include_slow=False))
            assert report.passed, report.summary()

    @pytest.mark.parametrize("omega", [1e-3, -1e-4, 1e-6, 1e-9, 1e-3 + 1e-3j])
    def test_rche_forms_near_omega_zero_keep_their_digits(self, omega):
        # Their terms cancel as omega nears 0: the binary64 c_2 form alone is
        # 4.2e-8 off at 1e-3 and 35 at 1e-6, c_1 1.9e-10 at 1e-6.
        spec = rche_spec(0.13, 0.27, omega, 0.1)
        c = c_coefficients(spec, 2)
        for n, form in enumerate((c1_closed_rche, c2_closed_rche)):
            with mp.workdps(60):
                ref = form(spec_to_precision(spec, HIGH))
            with mp.workdps(20):
                got = form(spec)
                assert mp.mp.dps == 20  # the caller's context, as found
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
            assert rel_diff(c[n], got) <= 1e-13

    def test_fast_report_passes_near_omega_zero(self):
        for omega in (1e-3, -1e-3, 1e-4):
            report = full_report(rche_spec(0.13, 0.27, omega, 0.1), CheckConfig(include_slow=False))
            assert report.passed, report.summary()
