"""Family specs, field validation, and the three-term recurrence data."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import mpmath as mp
import pytest

from conftest import resonant_spec
from heunconn import (
    FAMILIES,
    AccessoryResonance,
    DomainError,
    EquationSpec,
    FamilyFieldError,
    ResonantExponents,
    alpha_beta,
    canonical_recurrence_step,
    che_spec,
    coefficient_table,
    he_spec,
    hyp_spec,
    rche_spec,
    rescaled_a,
    u_lambda0_sequence,
    validate,
)
import heunconn
from heunconn import (
    CLOSED_FORMS,
    CheckConfig,
    c1_closed_he,
    c_coefficients,
    connection_matrix,
    extract_sigma,
    full_report,
    log_a_series_from_traces,
    sigma1_closed,
)
from heunconn.equations import validate as _validate
from heunconn.frobenius import potential
from heunconn.precision import HIGH, spec_to_precision


class TestConstructorsAndValidate:
    def test_families_tuple(self):
        assert FAMILIES == ("HYP", "RCHE", "CHE", "HE")

    def test_constructors_validate(self, hyp_example, rche_example, che_example, he_example):
        for spec in (hyp_example, rche_example, che_example, he_example):
            assert validate(spec) is spec
        assert hyp_example.family == "HYP"
        assert rche_example.family == "RCHE"
        assert che_example.family == "CHE"
        assert he_example.family == "HE"

    @pytest.mark.parametrize("theta0", [0.5, 1.0, -0.5, 0.0])
    def test_resonant_theta0(self, theta0):
        with pytest.raises(ResonantExponents):
            rche_spec(theta0, 0.2, 0.3, 0.1)

    def test_resonant_theta1(self):
        with pytest.raises(ResonantExponents):
            rche_spec(0.1, 1.0, 0.3, 0.1)

    def test_he_coupling_bound(self):
        with pytest.raises(DomainError):
            he_spec(0.11, 0.27, 0.33, 0.41, 0.37, 1.0)
        # RCHE carries no such bound at construction time.
        rche_spec(0.1, 0.2, 0.3, 1.0)

    def test_missing_field(self, rche_example):
        with pytest.raises(FamilyFieldError):
            validate(replace(rche_example, omega=None))

    def test_extraneous_field(self, rche_example):
        with pytest.raises(FamilyFieldError):
            validate(replace(rche_example, theta_star=0.25))

    def test_hyp_has_no_coupling(self, hyp_example):
        with pytest.raises(FamilyFieldError):
            validate(replace(hyp_example, lam=0.1))

    def test_unknown_family(self, rche_example):
        with pytest.raises(FamilyFieldError):
            validate(replace(rche_example, family="XYZ"))

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, complex(0.3, math.nan), mp.mpf("nan"), mp.mpc(0.3, "inf")],
    )
    @pytest.mark.parametrize("field", ["theta0", "theta1", "omega", "lam"])
    def test_non_finite_field(self, rche_example, field, value):
        with pytest.raises(DomainError, match=f"{field} = .* is not finite"):
            validate(replace(rche_example, **{field: value}))

    @pytest.mark.parametrize("field, value", [("theta0", "0.1"), ("lam", None)])
    def test_non_number_field(self, rche_example, field, value):
        with pytest.raises(DomainError, match=f"{field} = .* is not a number"):
            validate(replace(rche_example, **{field: value}))

    def test_constructor_rejects_nan(self):
        with pytest.raises(DomainError, match="omega = nan is not finite"):
            rche_spec(0.1, 0.2, math.nan, 0.1)
        with pytest.raises(DomainError, match="theta_inf_hyp = inf is not finite"):
            hyp_spec(0.1, 0.2, math.inf)


# Each condition validate names, as (fields to set on a valid RCHE record or
# a whole new record, error class, message); the messages are pinned whole.
_INVALID = {
    "unknown-family": ({"family": "XYZ"}, FamilyFieldError,
                       "unknown family 'XYZ'; expected one of ('HYP', 'RCHE', 'CHE', 'HE')"),
    "missing-field": ({"omega": None}, FamilyFieldError, "family RCHE requires field 'omega'"),
    "extra-field": ({"theta_star": 0.25}, FamilyFieldError,
                    "family RCHE must not set field 'theta_star'"),
    "hyp-coupling": ({"family": "HYP", "omega": None, "theta_inf_hyp": 0.3},
                     FamilyFieldError, "family HYP must have lam = 0"),
    "non-number": ({"theta0": "0.1"}, DomainError, "theta0 = '0.1' is not a number"),
    "nan": ({"omega": math.nan}, DomainError, "omega = nan is not finite"),
    "inf": ({"lam": math.inf}, DomainError, "lam = inf is not finite"),
    "resonant": ({"theta1": 0.5 + 1e-12}, ResonantExponents,
                 "2*theta1 = 1.000000000002 is within 1e-10 of an integer"),
    "he-coupling": ({"family": "HE", "theta_t": 0.33, "theta_inf": 0.41, "lam": -1.0},
                    DomainError, "HE coupling must satisfy |lam| < 1, got |lam| = 1.0"),
}


class TestValidByConstruction:
    @pytest.mark.parametrize("fields, error, message", _INVALID.values(), ids=_INVALID)
    def test_every_condition_raises_when_a_record_is_built(self, fields, error, message):
        base = {"family": "RCHE", "theta0": 0.1, "theta1": 0.2, "lam": 0.1, "omega": 0.3}
        valid = EquationSpec(**base)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            EquationSpec(**{**base, **fields})
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            replace(valid, **fields)

    def test_validate_is_idempotent(self, he_example):
        assert validate(validate(he_example)) is he_example

    @pytest.mark.parametrize(
        "fixture, op",
        [
            ("he_example", lambda s: connection_matrix(s, "cf")),
            ("he_example", lambda s: connection_matrix(s, "recurrence")),
            ("he_example", lambda s: connection_matrix(s, "wronskian")),
            ("he_example", lambda s: connection_matrix(s, "ss")),
            ("che_example", lambda s: c_coefficients(s, 6)),
            ("rche_example", lambda s: log_a_series_from_traces(s, 6)),
            ("rche_example", lambda s: [form(s) for form in CLOSED_FORMS["RCHE"]]),
            ("he_example", lambda s: (sigma1_closed(s), c1_closed_he(s))),
            ("hyp_example", lambda s: extract_sigma(connection_matrix(s))),
            ("rche_example", lambda s: full_report(s, CheckConfig(include_slow=False))),
        ],
        ids=["cf", "recurrence", "wronskian", "ss", "c_coefficients", "traces",
             "closed-rche", "closed-he", "hyp-sigma", "full_report"],
    )
    def test_no_call_checks_its_spec_again(self, request, monkeypatch, fixture, op):
        # validate wrapped wherever the package holds it; records built inside
        # the call (the sign flips) are checked as they are built.
        spec = request.getfixturevalue(fixture)
        seen = []

        def counting(record):
            seen.append(record)
            return _validate(record)

        for module in (heunconn, *vars(heunconn).values()):
            if getattr(module, "validate", None) is _validate:
                monkeypatch.setattr(module, "validate", counting)
        op(spec)
        assert sum(s is spec for s in seen) == 0
        built = replace(spec)  # the wrapper sees each record that is built
        assert seen[-1] is built


class TestRecurrenceData:
    def test_u_sequence_anchor(self, rche_example):
        # u_1 = Q_0 / (1 - 2 theta0) with Q_0 = (1/2 - 0.1 + 0.2)^2 - 0.3^2
        #     = 0.27 / 0.8 = 0.3375 (hand computation).
        u = u_lambda0_sequence(rche_example, 4)
        assert u[0] == 1.0
        assert abs(u[1] - 0.3375) <= 1e-15

    def test_u_sequence_family_independent(self, rche_example, che_example):
        # The coupling-free canonical sequence depends only on theta0, theta1.
        u_r = u_lambda0_sequence(rche_example, 6)
        u_c = u_lambda0_sequence(che_example, 6)
        assert u_r == pytest.approx(u_c, rel=1e-14)

    def test_canonical_step_matches_sequence_at_zero_coupling(self, hyp_example):
        u = u_lambda0_sequence(hyp_example, 8)
        for k in range(1, 7):
            nxt = canonical_recurrence_step(hyp_example, k, u[k], u[k - 1])
            assert abs(nxt - u[k + 1]) <= 1e-13 * max(1.0, abs(u[k + 1]))

    def test_canonical_step_reproduces_rescaled_a(self, he_example):
        # Iterating the full recurrence from (u_0, u_{-1}) = (1, 0) and
        # dividing by the coupling-free sequence must give rescaled_a.
        K = 12
        u0 = u_lambda0_sequence(he_example, K)
        a_ref = rescaled_a(he_example, K)
        u_prev, u_cur = 0.0, 1.0
        for k in range(K):
            u_prev, u_cur = u_cur, canonical_recurrence_step(
                he_example, k, u_cur, u_prev
            )
            ratio = u_cur / u0[k + 1]
            assert abs(ratio - a_ref[k + 1]) <= 1e-12 * max(1.0, abs(ratio))

    def test_beta_anchor(self, rche_example):
        # beta_1 frozen from an independent hand evaluation of the
        # coefficient formula at (theta0, theta1, omega) = (0.1, 0.2, 0.3).
        alpha, beta = alpha_beta(rche_example, 1)
        assert alpha == 0.0
        assert abs(beta - 1.1995801469485672) <= 1e-15

    def test_rche_alpha_vanishes(self, rche_example):
        assert all(alpha_beta(rche_example, k)[0] == 0.0 for k in range(1, 12))

    def test_he_alpha_nonzero(self, he_example):
        assert abs(alpha_beta(he_example, 1)[0]) > 0.1

    def test_rescaled_a_anchor(self, rche_example):
        # a_2 = 1 - lam * beta_1 (alpha = 0 for this family; hand check).
        a = rescaled_a(rche_example, 4)
        assert a[0] == 1.0 and a[1] == 1.0
        assert abs(a[2] - (1.0 - 0.1 * 1.1995801469485672)) <= 1e-15

    def test_hyp_rescaled_a_is_constant(self, hyp_example):
        assert rescaled_a(hyp_example, 10) == [1.0] * 11

    def test_rescaled_a_converges(self, he_example):
        # The normalized coefficient ratio approaches a finite nonzero limit.
        a = rescaled_a(he_example, 400)
        assert abs(a[-1] - a[-2]) < abs(a[20] - a[19])
        assert 0.1 < abs(a[-1]) < 10.0

    def test_accessory_resonance(self):
        # (1/2 - theta0 + theta1)^2 = omega^2 kills the k = 1 denominator.
        spec = rche_spec(0.1, 0.2, 0.6, 0.1)
        with pytest.raises(AccessoryResonance):
            alpha_beta(spec, 1)

    def test_canonical_step_named_errors(self, rche_example):
        with pytest.raises(DomainError, match="nonnegative integer"):
            canonical_recurrence_step(rche_example, -1, 1.0, 1.0)
        # omega = 1/2 - theta0 + theta1 + 3 makes Q_3 vanish.
        spec = rche_spec(0.1, 0.2, 3.6, 0.1)
        with pytest.raises(AccessoryResonance, match="Q_3 vanishes"):
            canonical_recurrence_step(spec, 3, 1.0, 1.0)

    @pytest.mark.parametrize(
        "fields, error, message",
        [
            ({"theta0": 0.1}, FamilyFieldError, "requires field 'omega'"),
            ({"theta0": 0.1, "omega": "x"}, DomainError, "is not a number"),
            ({"theta0": 0.1, "omega": math.nan}, DomainError, "is not finite"),
            ({"theta0": 1.5, "omega": 0.3}, ResonantExponents, "theta0 = 3.0"),
        ],
        ids=["no-omega", "string-omega", "nan-omega", "resonant-theta0"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: coefficient_table(spec, 0, 3),
            lambda spec: alpha_beta(spec, 1),
            lambda spec: canonical_recurrence_step(spec, 2, 1.0, 1.0),
            lambda spec: u_lambda0_sequence(spec, 5),
            lambda spec: potential(spec, 0.3),
        ],
        ids=["coefficient_table", "alpha_beta", "canonical_recurrence_step",
             "u_lambda0_sequence", "potential"],
    )
    def test_raw_specs_are_validated(self, call, fields, error, message):
        # An invalid record cannot be built, so no call sees one: no bare
        # TypeError, no nan.
        with pytest.raises(error, match=message):
            call(EquationSpec("RCHE", theta1=0.2, lam=0.1, **fields))


@pytest.mark.parametrize("precision", ["quad", "", None])
def test_spec_to_precision_rejects_an_unknown_precision(rche_example, precision):
    with pytest.raises(DomainError, match="^precision must be one of"):
        spec_to_precision(rche_example, precision)


# alpha_beta(spec, k) at k in (0, 1, 2, 7, 512, 1075), frozen from the
# per-index evaluation before the coefficient table: float.hex of each
# binary64 part, repr at 30 digits for the mpmath spec.
GOLDEN_ROWS = {
    "HYP": {
        0: ("0x0.0p+0", "0x0.0p+0"),
        1: ("0x0.0p+0", "0x0.0p+0"),
        2: ("0x0.0p+0", "0x0.0p+0"),
        7: ("0x0.0p+0", "0x0.0p+0"),
        512: ("0x0.0p+0", "0x0.0p+0"),
        1075: ("0x0.0p+0", "0x0.0p+0"),
    },
    "RCHE": {
        0: ("0x0.0p+0", "0x0.0p+0"),
        1: ("0x0.0p+0", "0x1.3317af3c13314p+0"),
        2: ("0x0.0p+0", "0x1.bf8462c5508d1p-3"),
        7: ("0x0.0p+0", "0x1.371744e584944p-6"),
        512: ("0x0.0p+0", "0x1.ff66d45596641p-19"),
        1075: ("0x0.0p+0", "0x1.d0501e0876a5dp-21"),
    },
    "CHE": {
        0: ("0x1.1c71c71c71c72p-1", "0x0.0p+0"),
        1: ("0x1.dcc2d9a6ddcc0p-2", "-0x1.050754f310505p+0"),
        2: ("0x1.4a1330be5e6aap-2", "-0x1.9df40e901db5bp-2"),
        7: ("0x1.fbd3c97d0c4bdp-4", "-0x1.0a5f1fcaecb89p-3"),
        512: ("0x1.fef3b1b1bbecep-10", "-0x1.ff40796c0ff8dp-10"),
        1075: ("0x1.e73bdb71f8f2cp-11", "-0x1.e75eb21fdbd70p-11"),
    },
    "HE": {
        0: ("0x1.1032bcb8c7851p-3", "0x0.0p+0"),
        1: ("-0x1.a66f08b5d4a74p-2", "0x1.09e5cf2c4d1d5p-1"),
        2: ("-0x1.35efa4169fac0p-1", "0x1.3f132404c9310p-1"),
        7: ("-0x1.b39225c817aadp-1", "0x1.b456530b97028p-1"),
        512: ("-0x1.fecd6bea7f7b8p-1", "0x1.fecd75ea28618p-1"),
        1075: ("-0x1.ff6dd405a79a9p-1", "0x1.ff6dd64a9fcf6p-1"),
    },
    "CHE_COMPLEX": {
        0: (("0x1.40b1eceb5376ep-1", "0x1.1812a0fb56b56p-2"), "0x0.0p+0"),
        1: (
            ("0x1.daf770267e038p-2", "0x1.8491ac31b87c8p-5"),
            ("-0x1.f550d511135eep-1", "-0x1.a94faf35c436ep-2"),
        ),
        2: (
            ("0x1.473b8d8705218p-2", "0x1.39f8c2c5756aap-6"),
            ("-0x1.920bfe858f680p-2", "-0x1.38cc5234808e0p-5"),
        ),
        7: (
            ("0x1.f923a5f988472p-4", "0x1.419165bf27bbcp-9"),
            ("-0x1.069313b9dbb9ep-3", "-0x1.a8762f2e862a1p-9"),
        ),
        512: (
            ("0x1.fee6f91c81a98p-10", "0x1.3234b0e5781acp-21"),
            ("-0x1.ff21e059e788fp-10", "-0x1.6fdb455898af8p-21"),
        ),
        1075: (
            ("0x1.e73611310ddd0p-11", "0x1.16501acee4828p-23"),
            ("-0x1.e750c8f960ab9p-11", "-0x1.4e270bfe76a66p-23"),
        ),
    },
    "HE_COMPLEX": {
        0: (("0x1.6cc063b178a6ep-3", "-0x1.22080aa2684fdp-3"), "0x0.0p+0"),
        1: (
            ("-0x1.a4ea4909a3240p-2", "-0x1.7506ccdcf3eecp-6"),
            ("0x1.f47d0b79f3811p-2", "0x1.8dce9e4ece8a8p-4"),
        ),
        2: (
            ("-0x1.35bee6e44c05fp-1", "-0x1.708b0da268172p-7"),
            ("0x1.3e80b157dc4aep-1", "0x1.16e5359a50e95p-6"),
        ),
        7: (
            ("-0x1.b38ef405a3c5ap-1", "-0x1.8a1e9b7a9c921p-9"),
            ("0x1.b452ce7e8c650p-1", "0x1.9fa6460b4f98fp-9"),
        ),
        512: (
            ("-0x1.fecd6bccd691cp-1", "-0x1.47f2c6a8b8364p-15"),
            ("0x1.fecd75d96ce23p-1", "0x1.48057d43aa96bp-15"),
        ),
        1075: (
            ("-0x1.ff6dd3fef2552p-1", "-0x1.38418ff3250bfp-16"),
            ("0x1.ff6dd646debb4p-1", "0x1.3849e35cea432p-16"),
        ),
    },
    "RCHE_MP": {
        0: ("0x0.0p+0", "0x0.0p+0"),
        1: ("0x0.0p+0", "mpf('1.19958014694856791349868408819915')"),
        2: ("0x0.0p+0", "mpf('0.218514224669041992547537108339836')"),
        7: ("0x0.0p+0", "mpf('0.0189874813859856191207815031044669')"),
        512: ("0x0.0p+0", "mpf('0.00000381023941535272948876120501450215')"),
        1075: ("0x0.0p+0", "mpf('0.000000864850279443215740203719679093344')"),
    },
}

_COMPLEX_SPECS = {
    "CHE_COMPLEX": lambda: che_spec(
        0.13 + 0.05j, 0.27 - 0.03j, 0.41 + 0.02j, 0.19 - 0.04j, 0.35 + 0.1j
    ),
    "HE_COMPLEX": lambda: he_spec(
        0.11 + 0.03j, 0.27 - 0.02j, 0.33 + 0.01j, 0.41 - 0.05j, 0.37 + 0.04j, 0.3 + 0.1j
    ),
}


def _golden_spec(request, name):
    """The spec of a GOLDEN_ROWS entry; call under ``mp.workdps(30)``."""
    if name in _COMPLEX_SPECS:
        return _COMPLEX_SPECS[name]()
    if name == "RCHE_MP":
        return spec_to_precision(request.getfixturevalue("rche_example"), HIGH)
    return request.getfixturevalue(name.lower() + "_example")


def _hex(v):
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, complex):
        return (v.real.hex(), v.imag.hex())
    return repr(v)


# Messages of the per-index evaluation at the two resonant rows of resonant_spec.
RESONANCE_AT = {
    5: "recurrence denominator vanishes at k = 5 (Q = 0.0, Q' = -10.280000000000001)",
    6: "recurrence denominator vanishes at k = 6 (Q = 12.279999999999998, Q' = 0.0)",
}


class TestCoefficientTable:
    @pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
    def test_alpha_beta_rows_are_frozen(self, request, name):
        with mp.workdps(30):
            spec = _golden_spec(request, name)
            got = {k: tuple(map(_hex, alpha_beta(spec, k))) for k in GOLDEN_ROWS[name]}
        assert got == GOLDEN_ROWS[name]

    @pytest.mark.parametrize("start, stop", [(0, 8), (1, 3), (2, 513), (500, 1076), (1075, 1076)])
    @pytest.mark.parametrize("name", sorted(GOLDEN_ROWS))
    def test_table_rows_match_from_any_start(self, request, name, start, stop):
        with mp.workdps(30):
            spec = _golden_spec(request, name)
            alphas, betas = coefficient_table(spec, start, stop)
            got = {
                k: (_hex(alphas[k - start]), _hex(betas[k - start]))
                for k in GOLDEN_ROWS[name]
                if start <= k < stop
            }
        assert len(alphas) == len(betas) == stop - start
        assert got == {k: row for k, row in GOLDEN_ROWS[name].items() if start <= k < stop}

    def test_empty_range_and_bad_index(self, he_example):
        assert coefficient_table(he_example, 7, 7) == ([], [])
        with pytest.raises(DomainError):
            coefficient_table(he_example, -1, 3)
        with pytest.raises(DomainError):
            alpha_beta(he_example, 1.0)

    @pytest.mark.parametrize("K", [2.5, 3.0, "3", None])
    def test_non_integer_length_is_a_domain_error(self, he_example, K):
        with pytest.raises(DomainError, match="K must be"):
            u_lambda0_sequence(he_example, K)
        with pytest.raises(DomainError, match="K must be"):
            rescaled_a(he_example, K)

    @pytest.mark.parametrize("family", ["RCHE", "CHE", "HE"])
    def test_resonance_raised_for_ranges_holding_it(self, family):
        spec = resonant_spec(family)
        first_resonant_row = {(5, 6): 5, (6, 7): 6, (0, 6): 5, (6, 600): 6, (0, 2048): 5}
        for (start, stop), k in first_resonant_row.items():
            with pytest.raises(AccessoryResonance) as info:
                coefficient_table(spec, start, stop)
            assert str(info.value) == RESONANCE_AT[k]
        for start, stop in [(0, 5), (7, 2048), (5, 5)]:
            alphas, _ = coefficient_table(spec, start, stop)
            assert len(alphas) == stop - start
