"""Local power-series solutions at z = 0 and z = 1 and their Wronskians."""

from __future__ import annotations

import pytest

import oracles
from conftest import rel_diff
from heunconn import (
    DomainError,
    RadiusError,
    TailError,
    che_spec,
    convergence_radius,
    evaluate,
    evaluate_deriv,
    frobenius_series,
    he_spec,
    hyp_spec,
    local_basis,
    ode_residual,
    potential,
    rche_spec,
    wronskian,
)
from heunconn.frobenius import _local_solutions, truncated_basis
from heunconn.precision import p_power

EXAMPLES = ("hyp_example", "rche_example", "che_example", "he_example")


class TestCoefficients:
    def test_point0_plus_matches_frozen(self, rche_example):
        sol = frobenius_series(rche_example, 0, +1, 12)
        want = [oracles.cplx(t) for t in oracles.FROBENIUS_RCHE_POINT0_PLUS]
        for k, w in enumerate(want, start=1):
            assert rel_diff(sol.coeffs[k], w) <= 1e-13

    def test_point1_plus_matches_frozen(self, rche_example):
        sol = frobenius_series(rche_example, 1, +1, 12)
        want = [oracles.cplx(t) for t in oracles.FROBENIUS_RCHE_POINT1_PLUS]
        for k, w in enumerate(want, start=1):
            assert rel_diff(sol.coeffs[k], w) <= 1e-13

    def test_unit_leading_coefficient(self, he_example):
        for point in (0, 1):
            for sign in (+1, -1):
                sol = frobenius_series(he_example, point, sign, 6)
                assert sol.coeffs[0] == 1.0

    def test_exponents(self, rche_example):
        # rho = 1/2 -+ theta at each endpoint, sign +1 taking the - branch.
        assert frobenius_series(rche_example, 0, +1, 2).exponent == pytest.approx(0.4)
        assert frobenius_series(rche_example, 0, -1, 2).exponent == pytest.approx(0.6)
        assert frobenius_series(rche_example, 1, +1, 2).exponent == pytest.approx(0.3)
        assert frobenius_series(rche_example, 1, -1, 2).exponent == pytest.approx(0.7)


class TestSolutionQuality:
    @pytest.mark.parametrize("point", [0, 1])
    @pytest.mark.parametrize("sign", [+1, -1])
    def test_ode_residual_all_families(
        self, hyp_example, rche_example, che_example, he_example, point, sign
    ):
        for spec in (hyp_example, rche_example, che_example, he_example):
            sol = frobenius_series(spec, point, sign, 260)
            for z in (0.25, 0.5, 0.75):
                assert abs(ode_residual(spec, sol, z)) <= 1e-10

    def test_self_wronskian_constants(self, che_example):
        # W(psi0+, psi0-) = 2 theta0 and W(psi1+, psi1-) = -2 theta1,
        # independent of the evaluation point.
        p0p = frobenius_series(che_example, 0, +1, 300)
        p0m = frobenius_series(che_example, 0, -1, 300)
        p1p = frobenius_series(che_example, 1, +1, 300)
        p1m = frobenius_series(che_example, 1, -1, 300)
        for z in (0.2, 0.45, 0.6):
            assert rel_diff(wronskian(p0p, p0m, z), 2 * che_example.theta0) <= 1e-12
            assert rel_diff(wronskian(p1p, p1m, z), -2 * che_example.theta1) <= 1e-12

    def test_cross_wronskian_z_independent(self, he_example):
        a = frobenius_series(he_example, 0, +1, 300)
        b = frobenius_series(he_example, 1, -1, 300)
        w_vals = [wronskian(a, b, z) for z in (0.35, 0.5, 0.65)]
        assert rel_diff(w_vals[0], w_vals[1]) <= 1e-11
        assert rel_diff(w_vals[1], w_vals[2]) <= 1e-11

    def test_evaluate_deriv_matches_difference_quotient(self, rche_example):
        sol = frobenius_series(rche_example, 0, +1, 260)
        h = 1e-6
        num = (evaluate(sol, 0.4 + h) - evaluate(sol, 0.4 - h)) / (2 * h)
        assert abs(evaluate_deriv(sol, 0.4) - num) <= 1e-8


class TestDomainsAndErrors:
    def test_convergence_radius(self, rche_example, he_example):
        for spec in (rche_example, he_example):
            assert convergence_radius(spec, 0) == 1.0
            assert convergence_radius(spec, 1) == 1.0

    def test_expansion_point_and_sign(self, rche_example):
        with pytest.raises(DomainError, match="expansion point"):
            frobenius_series(rche_example, 2, 1, 8)
        with pytest.raises(DomainError, match="sign"):
            frobenius_series(rche_example, 0, 0, 8)
        with pytest.raises(DomainError, match="expansion point"):
            convergence_radius(rche_example, 2)

    def test_radius_error(self, rche_example):
        sol = frobenius_series(rche_example, 0, +1, 50)
        with pytest.raises(RadiusError):
            evaluate(sol, 1.3)
        sol1 = frobenius_series(rche_example, 1, +1, 50)
        with pytest.raises(RadiusError):
            evaluate(sol1, -0.5)

    def test_tail_error_when_truncation_too_short(self, rche_example):
        sol = frobenius_series(rche_example, 0, +1, 8)
        with pytest.raises(TailError):
            evaluate(sol, 0.97, tol=1e-14)

    def test_potential_is_real_for_real_parameters(self, he_example):
        v = potential(he_example, 0.37)
        assert abs(complex(v).imag) <= 1e-14


# potential(spec, z) at z in (0.3, 0.7, 0.45 + 0.2i), frozen from the
# per-family partial fractions: float.hex of a float, of each part of a complex.
# The real specs are the examples.
GOLDEN_POTENTIAL = {
    "HYP": (
        "0x1.1e79e79e79e7ap+2",
        "0x1.0d0fac687d633p+2",
        ("0x1.1187c96c59dd0p+1", "-0x1.a4762e864bce3p-2"),
    ),
    "RCHE": (
        "0x1.279e79e79e79ep+2",
        "0x1.226501bdd2b88p+2",
        ("0x1.2615cd2914b98p+1", "-0x1.68aa80be5ac12p-2"),
    ),
    "CHE": (
        "0x1.18fb9c8695362p+2",
        "0x1.0a9d9213a4e27p+2",
        ("0x1.0b45b3ad2b4efp+1", "-0x1.8f59269b68d62p-2"),
    ),
    "HE": (
        "0x1.2032a13f8cf1bp+2",
        "0x1.f5a1f81976864p+1",
        ("0x1.11286883c42c8p+1", "-0x1.ee7158b7a7600p-2"),
    ),
    "HYP_COMPLEX": (
        ("0x1.23c11ed018e44p+2", "-0x1.27bab62f0b2b8p-6"),
        ("0x1.025150f7cda8bp+2", "0x1.f973b47d1beecp-3"),
        ("0x1.10baab76bc2eap+1", "-0x1.987f98af9b03fp-2"),
    ),
    "RCHE_COMPLEX": (
        ("0x1.43c11ed018e44p+2", "0x1.ff35e4bd61c74p-4"),
        ("0x1.4cfbfba278536p+2", "0x1.290797c9f1a65p-1"),
        ("0x1.513242d24c10cp+1", "-0x1.1634d46fc3918p-5"),
    ),
    "CHE_COMPLEX": (
        ("0x1.12ea1492a8406p+2", "-0x1.abc20c95d0addp-5"),
        ("0x1.f424d3ac50b65p+1", "0x1.c6fbc0310a60ep-3"),
        ("0x1.f7b6285f60818p+0", "-0x1.7861317101195p-2"),
    ),
    "HE_COMPLEX": (
        ("0x1.2bad1a00d6b72p+2", "0x1.af4c4828f78eap-4"),
        ("0x1.01369a524fb62p+2", "0x1.209240ed81badp-2"),
        ("0x1.1a4cd83eb45a7p+1", "-0x1.8cd3073a585c5p-2"),
    ),
}

_COMPLEX_SPECS = {
    "HYP_COMPLEX": lambda: hyp_spec(0.13 + 0.05j, 0.27 - 0.03j, 0.41 + 0.02j),
    "RCHE_COMPLEX": lambda: rche_spec(0.13 + 0.05j, 0.27 - 0.03j, 0.41 + 0.02j, 0.35 + 0.1j),
    "CHE_COMPLEX": lambda: che_spec(
        0.13 + 0.05j, 0.27 - 0.03j, 0.41 + 0.02j, 0.19 - 0.04j, 0.35 + 0.1j
    ),
    "HE_COMPLEX": lambda: he_spec(
        0.11 + 0.03j, 0.27 - 0.02j, 0.33 + 0.01j, 0.41 - 0.05j, 0.37 + 0.04j, 0.3 + 0.1j
    ),
}


def _hex(v):
    return v.hex() if isinstance(v, float) else (v.real.hex(), v.imag.hex())


@pytest.mark.parametrize("name", sorted(GOLDEN_POTENTIAL))
def test_potential_is_frozen(request, name):
    if name in _COMPLEX_SPECS:
        spec = _COMPLEX_SPECS[name]()
    else:
        spec = request.getfixturevalue(name.lower() + "_example")
    got = tuple(_hex(potential(spec, z)) for z in (0.3, 0.7, 0.45 + 0.2j))
    assert got == GOLDEN_POTENTIAL[name]


class TestLocalBasis:
    @pytest.mark.parametrize("fixture", EXAMPLES)
    @pytest.mark.parametrize("reach, K", [(0.35, 64), (0.5, 64), (0.7, 128)])
    def test_coefficients_are_frobenius_series_at_the_chosen_k(
        self, request, fixture, reach, K
    ):
        # At reach 0.7 the K = 64 lists are extended to 128, not rebuilt.
        spec = request.getfixturevalue(fixture)
        basis = local_basis(spec, reach)
        pairs = [(0, +1), (0, -1), (1, +1), (1, -1)]
        assert [(s.point, s.sign, s.K) for s in basis] == [(p, g, K) for p, g in pairs]
        for sol, (point, sign) in zip(basis, pairs):
            fresh = frobenius_series(spec, point, sign, K)
            assert sol.exponent == fresh.exponent
            assert sol.coeffs == fresh.coeffs

    @pytest.mark.parametrize("lam, K", [(0.58, 1024), (0.585, 2048)])
    def test_truncation_is_the_first_doubling_below_the_tail_bound(self, lam, K):
        # HE with the singular point 1/lam just beyond 0.7 from z = 1.
        spec = he_spec(0.11, -0.27, -0.33, 0.41, 0.37, lam)
        basis = local_basis(spec, 0.7)
        assert all(s.K == K for s in basis)
        assert max(abs(s.coeffs[K]) * 0.7**K for s in basis) < 1e-15
        assert max(abs(s.coeffs[K // 2]) * 0.7 ** (K // 2) for s in basis) >= 1e-15
        assert basis[3].coeffs == frobenius_series(spec, 1, -1, K).coeffs

    @pytest.mark.parametrize(
        "spec",
        [
            he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 0.3),
            he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 0.58),
            he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 0.585),
        ],
        ids=lambda spec: f"HE-{spec.lam}",
    )
    @pytest.mark.parametrize("reach", [0.35, 0.5, 0.7])
    def test_truncated_basis_is_the_basis_of_the_smaller_reach(self, spec, reach):
        basis = truncated_basis(local_basis(spec, 0.7), reach)
        assert basis == local_basis(spec, reach)

    @pytest.mark.parametrize("fixture", EXAMPLES)
    def test_two_members_of_the_basis_are_built_alone(self, request, fixture):
        # The reflection check reads psi0_+ and psi1_- only; where the rule
        # picks the basis's K for them, they are the basis's own.
        spec = request.getfixturevalue(fixture)
        basis = local_basis(spec, 0.35)
        assert _local_solutions(spec, 0.35, ((0, (1,)), (1, (-1,)))) == [basis[0], basis[3]]

    @pytest.mark.parametrize("reach", [0.0, 1.0, 1.5, 1e300])
    def test_reach_outside_the_unit_interval(self, rche_example, reach):
        with pytest.raises(DomainError):
            local_basis(rche_example, reach)

    @pytest.mark.parametrize("K", [2.5, 3.0, "3", None])
    def test_non_integer_order_is_a_domain_error(self, rche_example, K):
        with pytest.raises(DomainError, match="K must be an integer"):
            frobenius_series(rche_example, 0, 1, K)

    def test_reach_beyond_the_radius(self):
        # The radius at z = 1 is 1/0.7 - 1 = 0.43: named error, no sweep.
        with pytest.raises(RadiusError):
            local_basis(he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 0.7), 0.5)

    def test_overflowing_series_reach_the_cap(self):
        # The radius at z = 1 is 0.7001: the point-1 coefficients overflow to
        # inf/nan before their tail at 0.7 falls, which must not pass the rule.
        with pytest.raises(TailError, match="tail inf"):
            local_basis(he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 1 / 1.7001), 0.7)

    @pytest.mark.parametrize("fixture", EXAMPLES)
    def test_value_and_derivative_chains_match_the_full_horner(self, request, fixture):
        spec = request.getfixturevalue(fixture)
        for sol in local_basis(spec, 0.7):
            for z in (0.3, 0.5, 0.7):
                # evaluate_deriv of the three-chain Horner sums, written out.
                w = z - sol.point
                s0 = t1 = 0.0 * w
                for k in range(sol.K, -1, -1):
                    s0 = s0 * w + sol.coeffs[k]
                    t1 = t1 * w + k * sol.coeffs[k]
                b = z if sol.point == 0 else 1.0 - z
                pref = p_power(b, sol.exponent - 1)
                inner = sol.exponent * s0 + t1
                assert evaluate(sol, z) == p_power(b, sol.exponent) * s0
                assert evaluate_deriv(sol, z) == (pref if sol.point == 0 else -pref) * inner
