"""Self-check layer: identity/reflection/limit checks and the full report."""

from __future__ import annotations

import cmath
import dataclasses
import gc
import math
import random
import weakref

import mpmath as mp
import pytest

from heunconn import (
    CheckConfig,
    DomainError,
    EquationSpec,
    FamilyFieldError,
    ReflectionMismatch,
    ResonantExponents,
    che_spec,
    connection_matrix,
    full_report,
    he_spec,
    rche_spec,
    tail_determinant_limit,
    verify_che_as_he_limit,
    verify_connection_identity,
    verify_reflection,
)
from heunconn.precision import HIGH, spec_to_precision
from heunconn.validation import che_to_he_spec, reflected_spec

FAST = CheckConfig(include_slow=False)
EXAMPLES = ["hyp_example", "rche_example", "che_example", "he_example"]
_ALWAYS = [
    "connection_identity",
    "determinant",
    "method_agreement_recurrence",
    "method_agreement_wronskian",
    "method_agreement_ss",
    "monodromy_products",
]
# The checks of a fast and of a slow report, by family.
ROSTERS = {
    "HYP": (_ALWAYS, _ALWAYS),
    "RCHE": (
        _ALWAYS + ["series_vs_closed_forms", "reflection"],
        _ALWAYS + ["series_vs_closed_forms", "reflection", "tail_determinant"],
    ),
    "CHE": (
        _ALWAYS + ["reflection"],
        _ALWAYS + ["che_as_he_limit", "reflection", "tail_determinant"],
    ),
    "HE": (
        _ALWAYS + ["series_vs_closed_forms"],
        _ALWAYS + ["sigma_slope_vs_closed", "series_vs_closed_forms", "tail_determinant"],
    ),
}


class TestConnectionIdentity:
    def test_passes_on_example(self, rche_example):
        r = verify_connection_identity(rche_example)
        assert r.passed and r.residual <= 1e-9

    def test_default_truncation_follows_the_probe_points(self):
        # Near the HE radius a fixed K = 400 leaves 1.2e-6 of truncation error;
        # the default truncates as local_basis does, here at K = 2048.
        spec = he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 0.585)
        r = verify_connection_identity(spec)
        assert r.passed and r.residual <= 1e-13
        assert r.detail.endswith("K=2048")

    def test_fails_on_corrupted_matrix(self, rche_example):
        mat = connection_matrix(rche_example)
        bad = dataclasses.replace(
            mat, entries={**mat.entries, "++": mat.entries["++"] * 1.01}
        )
        r = verify_connection_identity(rche_example, matrix=bad)
        assert not r.passed and r.residual > 1e-4

    def test_points_outside_radius_fail_cleanly(self, rche_example):
        r = verify_connection_identity(rche_example, z_list=(0.5, 1.5))
        assert not r.passed
        assert r.detail == "DomainError: probe point 1.5 is not in (0, 1)"

    @pytest.mark.parametrize("K", [None, 64])
    @pytest.mark.parametrize("z_list", [(), (0.3 + 0.1j,), ("a",), (0.5, 0.3j)])
    def test_probe_list_of_no_reals_raises(self, z_list, K):
        spec = rche_spec(0.1, 0.2, 0.3, 0.25)
        with pytest.raises(DomainError, match="nonempty list of reals"):
            verify_connection_identity(spec, z_list=z_list, K=K)

    @pytest.mark.parametrize("K", [None, 64])
    def test_nan_probe_point_fails_cleanly(self, rche_example, K):
        r = verify_connection_identity(rche_example, z_list=(0.5, math.nan), K=K)
        assert not r.passed
        assert r.detail == "DomainError: probe point nan is not in (0, 1)"


class TestReflection:
    def test_rche_parameter_map(self, rche_example):
        ref = reflected_spec(rche_example)
        assert ref.theta0 == rche_example.theta1
        assert ref.theta1 == rche_example.theta0
        assert ref.lam == -rche_example.lam
        want = rche_example.omega**2 + rche_example.lam
        assert abs(ref.omega**2 - want) <= 1e-14

    def test_che_parameter_map(self, che_example):
        ref = reflected_spec(che_example)
        assert ref.theta_star == che_example.theta_star
        want = che_example.omega**2 - che_example.lam * che_example.theta_star
        assert abs(ref.omega**2 - want) <= 1e-14

    @pytest.mark.parametrize("fixture", ["rche_example", "che_example"])
    def test_reflection_check_passes(self, request, fixture):
        spec = request.getfixturevalue(fixture)
        r = verify_reflection(spec)
        assert r.passed and r.residual <= 1e-8

    def test_strict_mode_raises_at_impossible_tolerance(self, rche_example):
        with pytest.raises(ReflectionMismatch):
            verify_reflection(rche_example, tol=1e-18, strict=True)

    def test_reflected_omega_keeps_the_spec_numbers(self):
        # omega**2 = 0.34: a float root of a float spec, an mpmath root of an
        # mpmath spec at the working precision.
        spec = rche_spec(0.1, 0.2, 0.3, 0.25)
        ref = reflected_spec(spec)
        assert type(ref.omega) is float and ref.omega == math.sqrt(0.3**2 + 0.25)
        with mp.workdps(30):
            high = spec_to_precision(spec, HIGH)
            ref = reflected_spec(high)
            assert isinstance(ref.omega, mp.mpf)
            assert ref.omega == mp.sqrt(high.omega**2 + high.lam)
            che = spec_to_precision(che_spec(0.1, 0.2, 0.3 + 0.02j, 0.15, 0.25), HIGH)
            ref = reflected_spec(che)
            assert isinstance(ref.omega, mp.mpc)
            assert ref.omega == mp.sqrt(che.omega**2 - che.lam * che.theta_star)

    def test_negative_omega_squared_takes_the_complex_root(self):
        ref = reflected_spec(rche_spec(0.1, 0.2, 0.3, -0.25))
        assert ref.omega == cmath.sqrt(0.3**2 - 0.25)
        assert ref.omega.imag > 0
        assert verify_reflection(rche_spec(0.1, 0.2, 0.3, -0.25)).passed

    def test_unsupported_family(self, he_example):
        with pytest.raises(FamilyFieldError):
            reflected_spec(he_example)


class TestLargeParameterLimit:
    def test_che_matches_rescaled_he(self, che_example):
        r = verify_che_as_he_limit(che_example, Lambda=1e4)
        assert r.passed and r.residual <= 1e-3

    def test_lambda_gate(self, che_example):
        with pytest.raises(DomainError):
            che_to_he_spec(che_example, 100.0)

    def test_family_gate(self, rche_example):
        with pytest.raises(FamilyFieldError):
            che_to_he_spec(rche_example, 1e4)

    def test_induced_coupling_gate(self):
        spec = che_spec(0.1, 0.2, 0.3, 0.25, 2000.0)
        with pytest.raises(DomainError, match=r"\|lam/Lambda\| < 1"):
            che_to_he_spec(spec, 1e3)

    def test_mapped_spec_parameters(self, che_example):
        Lam = 1e4
        he = che_to_he_spec(che_example, Lam)
        assert he.family == "HE"
        assert abs(he.theta_t - (Lam + che_example.theta_star) / 2) <= 1e-12
        assert abs(he.theta_inf - (Lam - che_example.theta_star) / 2) <= 1e-12
        assert abs(he.lam - che_example.lam / Lam) <= 1e-18


class TestFullReport:
    @pytest.mark.parametrize(
        "fixture", ["hyp_example", "rche_example", "che_example", "he_example"]
    )
    def test_all_pass_fast(self, request, fixture):
        spec = request.getfixturevalue(fixture)
        rep = full_report(spec, FAST)
        assert rep.passed, rep.summary()

    @pytest.mark.parametrize(
        "fixture", ["hyp_example", "rche_example", "che_example", "he_example"]
    )
    def test_identity_residual_is_that_of_k400(self, request, fixture):
        # The report truncates at K = 128 for the probe points 0.3, 0.5, 0.7.
        spec = request.getfixturevalue(fixture)
        got = {c.name: c for c in full_report(spec, FAST).checks}["connection_identity"]
        ref = verify_connection_identity(spec, K=400)
        assert got.residual == ref.residual
        assert got.detail.endswith("K=128") and ref.detail.endswith("K=400")

    def test_check_roster_rche(self, rche_example):
        rep = full_report(rche_example, FAST)
        names = [c.name for c in rep.checks]
        assert names == [
            "connection_identity",
            "determinant",
            "method_agreement_recurrence",
            "method_agreement_wronskian",
            "method_agreement_ss",
            "monodromy_products",
            "series_vs_closed_forms",
            "reflection",
        ]

    @pytest.mark.parametrize("slow", [False, True], ids=["fast", "slow"])
    @pytest.mark.parametrize("fixture", EXAMPLES)
    def test_check_roster_of_each_family(self, request, fixture, slow):
        spec = request.getfixturevalue(fixture)
        rep = full_report(spec, CheckConfig(include_slow=slow))
        assert [c.name for c in rep.checks] == ROSTERS[spec.family][slow]

    @pytest.mark.parametrize("fixture", EXAMPLES)
    def test_verify_helpers_match_the_report(self, request, fixture):
        # Each helper gives its report check's residual, detail and tol; a
        # spec of a family the check does not cover gives a failed result.
        spec = request.getfixturevalue(fixture)
        checks = {c.name: c for c in full_report(spec).checks}
        helpers = {
            "connection_identity": verify_connection_identity,
            "reflection": verify_reflection,
            "che_as_he_limit": verify_che_as_he_limit,
        }
        for name, helper in helpers.items():
            got = helper(spec)
            assert got.name == name
            if name in checks:
                want = checks[name]
                assert (got.residual, got.detail, got.tol) == (
                    want.residual,
                    want.detail,
                    want.tol,
                )
            else:
                assert not got.passed and got.detail.startswith("FamilyFieldError: ")

    def test_invalid_spec_raises_in_every_entry(self):
        entries = [
            full_report,
            verify_connection_identity,
            verify_reflection,
            verify_che_as_he_limit,
        ]
        for entry in entries:
            with pytest.raises(ResonantExponents):
                entry(EquationSpec("RCHE", 0.5, 0.2, 0.1, omega=0.3))  # 2 theta0 = 1

    @pytest.mark.parametrize("tol", [math.nan, "x", 1j])
    def test_a_tol_that_is_not_a_real_number_raises(self, rche_example, che_example, tol):
        # Before any check runs: a failed check would be a result, not an error.
        entries = [
            lambda: full_report(rche_example, CheckConfig(tol=tol)),
            lambda: verify_connection_identity(rche_example, tol=tol),
            lambda: verify_reflection(rche_example, tol=tol),
            lambda: verify_che_as_he_limit(che_example, tol=tol),
        ]
        for entry in entries:
            with pytest.raises(DomainError, match="^tol must be a real number other than nan"):
                entry()

    @pytest.mark.parametrize("fixture", EXAMPLES)
    def test_report_matrices_are_freed_without_the_cyclic_collector(
        self, request, fixture, monkeypatch
    ):
        # A reference cycle through the report's shared state would keep its
        # matrices alive until the next cyclic collection.
        import heunconn.validation as validation

        spec = request.getfixturevalue(fixture)
        refs = []
        real = validation.connection_matrix

        def recording(*args, **kwargs):
            mat = real(*args, **kwargs)
            refs.append(weakref.ref(mat))
            return mat

        monkeypatch.setattr(validation, "connection_matrix", recording)
        gc.collect()
        gc.disable()
        try:
            full_report(spec, FAST)
            alive = sum(ref() is not None for ref in refs)
        finally:
            gc.enable()
        assert len(refs) >= 3 and alive == 0

    def test_a_report_whose_cf_matrix_raises_leaves_no_cyclic_garbage(
        self, rche_example, monkeypatch
    ):
        # The shared getter keeps the error that every check re-raises; its
        # traceback's frames must not tie it into a cycle with the state.
        import heunconn.validation as validation

        monkeypatch.setattr(validation, "_MATRIX_TOL", 1e-16)
        full_report(rche_example, FAST)
        gc.collect()
        gc.disable()
        try:
            rep = full_report(rche_example, FAST)
            assert rep.checks[0].detail.startswith("NonConvergence: ")
            del rep
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0

    @pytest.mark.parametrize(
        "spec",
        [
            he_spec(0.11, -2.27, 0.33, 0.41, 0.37, 0.1),
            che_spec(0.1, 3.2 + 0.1j, 0.3, 0.15, 0.1),
        ],
        ids=["HE", "CHE-complex"],
    )
    def test_ss_check_at_large_theta1(self, spec):
        # |Re 2 theta1| >= 4: the roster is the one at a small theta1.
        small = full_report(dataclasses.replace(spec, theta1=0.27), FAST)
        checks = {c.name: c for c in full_report(spec, FAST).checks}
        assert list(checks) == [c.name for c in small.checks]
        assert checks["method_agreement_ss"].passed, checks["method_agreement_ss"].line()

    def test_summary_and_dict(self, hyp_example):
        rep = full_report(hyp_example, FAST)
        text = rep.summary()
        assert "ALL PASS" in text.splitlines()[0]
        assert all("PASS" in line for line in text.splitlines()[1:])
        d = rep.as_dict()
        assert d["passed"] is True
        assert len(d["checks"]) == len(rep.checks)

    @pytest.mark.parametrize("omega", [1.0, -1.0])
    def test_unit_omega_compares_the_closed_form_that_is_defined(self, omega):
        # omega = +-1 is a pole of c2's closed form, not of c1's: the check
        # compares c1 alone, and the report of this correct spec passes.
        rep = full_report(rche_spec(0.1, 0.2, omega, 0.1), FAST)
        assert rep.passed, rep.summary()
        series = {c.name: c for c in rep.checks}["series_vs_closed_forms"]
        assert series.detail == "1 closed-form coefficient(s)"

    def test_degenerate_coupling_fails_cleanly(self):
        # omega at a closed-form resonance: the report must mark the
        # affected check failed (naming the error) without crashing.
        spec = rche_spec(0.1, 0.2, 0.5 - 1e-13, 0.1)
        rep = full_report(spec, FAST)
        assert not rep.passed
        bad = [c for c in rep.checks if not c.passed]
        assert bad
        assert any("ParameterResonance" in c.detail for c in bad)

    @pytest.mark.parametrize(
        "fixture", ["hyp_example", "rche_example", "che_example", "he_example"]
    )
    def test_one_frobenius_basis_per_report(self, request, fixture, monkeypatch):
        # The wronskian route cuts the identity check's basis (reach 0.7) to
        # its own truncation, and its matrix stays bit for bit the route's.
        import heunconn.frobenius as frobenius
        import heunconn.validation as validation

        spec = request.getfixturevalue(fixture)
        cf, wr = connection_matrix(spec), connection_matrix(spec, "wronskian")
        want = max(abs(cf[k] - wr[k]) / abs(cf[k]) for k in cf.entries)
        reaches = []
        real = validation.local_basis

        def counting(sp, reach):
            if sp == spec:
                reaches.append(reach)
            return real(sp, reach)

        monkeypatch.setattr(validation, "local_basis", counting)
        monkeypatch.setattr(frobenius, "local_basis", counting)  # the wronskian route's
        checks = {c.name: c for c in full_report(spec, FAST).checks}
        assert reaches == [0.7]
        assert checks["method_agreement_wronskian"].residual == want

    def test_wronskian_agreement_beyond_the_identity_checks_reach(self):
        # At lam = 0.6 the radius at z = 1 is 2/3: the identity check's reach
        # 0.7 lies outside it, the wronskian route's 0.5 inside.
        spec = he_spec(0.11, -0.27, -0.33, 0.41, 0.37, 0.6)
        checks = {c.name: c for c in full_report(spec, FAST).checks}
        assert checks["connection_identity"].detail == (
            "DomainError: probe point 0.3 lies outside the convergence radius "
            "0.666667 of the series at 1"
        )
        cf, wr = connection_matrix(spec), connection_matrix(spec, "wronskian")
        got = checks["method_agreement_wronskian"]
        assert got.passed
        assert got.residual == max(abs(cf[k] - wr[k]) / abs(cf[k]) for k in cf.entries)

    @pytest.mark.parametrize("fixture", ["rche_example", "he_example"])
    def test_ss_agreement_catches_a_1e7_error(self, request, fixture, monkeypatch):
        import heunconn.connection as connection

        real = connection._ss_scalar

        def off_by_1e7(spec, *args):
            # The value off by 1e-7 relative, with an estimate that says so,
            # so the matrix still passes its own determinant gate.
            val, rel, K = real(spec, *args)
            return val * (1 + 1e-7), rel + 1e-7, K

        monkeypatch.setattr(connection, "_ss_scalar", off_by_1e7)
        spec = request.getfixturevalue(fixture)
        ss = {c.name: c for c in full_report(spec, FAST).checks}["method_agreement_ss"]
        assert not ss.passed and 5e-8 < ss.residual < 2e-7, ss.line()

    def test_one_cf_matrix_per_report_and_its_error_in_each_check(
        self, rche_example, monkeypatch
    ):
        import heunconn.validation as validation

        calls = []
        real = validation.connection_matrix

        def counting(spec, method="cf", **kwargs):
            calls.append((spec, method))
            return real(spec, method=method, **kwargs)

        monkeypatch.setattr(validation, "connection_matrix", counting)
        monkeypatch.setattr(validation, "_MATRIX_TOL", 1e-16)
        # 1e-16 is below the cf ladder's rounding floor, so the shared matrix
        # raises; every check that needs it fails with that error, and the
        # report itself does not raise.
        rep = full_report(rche_example, FAST)
        assert calls.count((rche_example, "cf")) == 1
        failed = {c.name: c.detail for c in rep.checks if not c.passed}
        assert sorted(failed) == sorted(
            [
                "connection_identity",
                "determinant",
                "method_agreement_recurrence",
                "method_agreement_wronskian",
                "method_agreement_ss",
                "monodromy_products",
                "reflection",
            ]
        )
        assert len(set(failed.values())) == 1
        assert next(iter(failed.values())).startswith("NonConvergence: ")


def _seeded_specs(family: str, count: int, seed: int = 7) -> list:
    """Coupled specs with theta in +-0.45, omega in +-[0.08, 0.42] and |lam| up
    to 0.88 (RCHE, CHE) or 0.55 (HE), away from integer 2 theta and from the
    poles of every sign-flipped fusion factor."""
    lam_max = 0.55 if family == "HE" else 0.88
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        t0, t1, t2, t3 = (rng.uniform(-0.45, 0.45) for _ in range(4))
        omega = rng.choice((1, -1)) * rng.uniform(0.08, 0.42)
        lam = rng.choice((1, -1)) * rng.uniform(0.02, lam_max)
        gaps = [abs(2 * t - round(2 * t)) for t in (t0, t1)] + [
            abs(0.5 + s0 * t0 + s1 * t1 + sx * omega)
            for s0 in (1, -1) for s1 in (1, -1) for sx in (1, -1)
        ]
        if min(gaps) < 0.02:
            continue
        if family == "RCHE":
            specs.append(rche_spec(t0, t1, omega, lam))
        elif family == "CHE":
            specs.append(che_spec(t0, t1, omega, t2, lam))
        else:
            specs.append(he_spec(t0, t1, t2, t3, omega, lam))
    return specs


class TestSlowChecks:
    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_slow_report_on_seeded_specs(self, family):
        for spec in _seeded_specs(family, 30):
            checks = {c.name: c for c in full_report(spec).checks}
            assert checks["tail_determinant"].passed, checks["tail_determinant"].line()
            if family == "HE":
                slope = checks["sigma_slope_vs_closed"]
                assert slope.passed, slope.line()
            D, err = tail_determinant_limit(spec)
            target = 1 / (1 - spec.lam) if family == "HE" else 1.0
            assert abs(D - target) <= min(err, 1e-12 * abs(target)), spec

    def test_slope_check_catches_a_1e6_error_of_the_closed_form(self, he_example, monkeypatch):
        import heunconn.validation as validation

        real = validation.sigma1_closed
        monkeypatch.setattr(validation, "sigma1_closed", lambda spec: real(spec) * (1 + 1e-6))
        slope = {c.name: c for c in full_report(he_example).checks}["sigma_slope_vs_closed"]
        assert not slope.passed, slope.line()
