"""Complex gamma-family helpers: frozen spot values and functional identities."""

from __future__ import annotations

import cmath
import importlib.util
import math
import random
import time
from pathlib import Path

import mpmath as mp
import pytest

import heunconn.special as special
import oracles
from heunconn import (
    DomainError,
    OrderError,
    PoleError,
    digamma,
    fusion_cl,
    gamma,
    log_gamma,
    pochhammer,
    polygamma,
)

SPOT_TOL = 1e-13


def _parse_z(s: str) -> complex:
    return complex(s.replace(" ", ""))


class TestFrozenSpots:
    @pytest.mark.parametrize("key", sorted(oracles.GAMMA_SPOTS))
    def test_gamma_spot(self, key):
        want = oracles.cplx(oracles.GAMMA_SPOTS[key])
        got = gamma(_parse_z(key))
        assert abs(got - want) <= SPOT_TOL * max(1.0, abs(want))

    @pytest.mark.parametrize("key", sorted(oracles.LOG_GAMMA_SPOTS))
    def test_log_gamma_spot(self, key):
        want = oracles.cplx(oracles.LOG_GAMMA_SPOTS[key])
        got = log_gamma(_parse_z(key))
        assert abs(got - want) <= SPOT_TOL * max(1.0, abs(want))

    @pytest.mark.parametrize("key", sorted(oracles.POLYGAMMA_SPOTS))
    def test_polygamma_spot(self, key):
        n_str, z_str = key.split("|")
        want = oracles.cplx(oracles.POLYGAMMA_SPOTS[key])
        got = polygamma(int(n_str), _parse_z(z_str))
        assert abs(got - want) <= SPOT_TOL * max(1.0, abs(want))

    @pytest.mark.parametrize("key", sorted(oracles.POCHHAMMER_SPOTS))
    def test_pochhammer_spot(self, key):
        z_str, n_str = key.split("|")
        want = oracles.cplx(oracles.POCHHAMMER_SPOTS[key])
        got = pochhammer(_parse_z(z_str), int(n_str))
        assert abs(got - want) <= SPOT_TOL * max(1.0, abs(want))


class TestIdentities:
    ZS = [0.3 + 0.7j, 1.25 - 0.4j, -0.35 + 0.2j, 2.6 + 0.0j, 0.17 - 1.3j]

    @pytest.mark.parametrize("z", ZS)
    def test_reflection(self, z):
        # Gamma(z) Gamma(1-z) = pi / sin(pi z)
        lhs = gamma(z) * gamma(1.0 - z)
        rhs = cmath.pi / cmath.sin(cmath.pi * z)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    @pytest.mark.parametrize("z", ZS)
    def test_recurrence(self, z):
        assert abs(gamma(z + 1) - z * gamma(z)) <= 1e-12 * abs(gamma(z + 1))

    @pytest.mark.parametrize("z", ZS)
    def test_log_gamma_exponentiates(self, z):
        assert abs(cmath.exp(log_gamma(z)) - gamma(z)) <= 1e-12 * abs(gamma(z))

    @pytest.mark.parametrize("z", ZS)
    def test_log_gamma_conjugate_symmetry(self, z):
        got = log_gamma(z.conjugate())
        assert abs(got - log_gamma(z).conjugate()) <= 1e-12 * max(1.0, abs(got))

    @pytest.mark.parametrize("z", [0.4 + 0.1j, 1.7 - 0.6j])
    def test_digamma_is_polygamma_zero(self, z):
        assert digamma(z) == polygamma(0, z)

    @pytest.mark.parametrize("z", [0.4 + 0.1j, 2.3 - 0.9j])
    def test_trigamma_recurrence(self, z):
        # psi_1(z+1) = psi_1(z) - 1/z^2
        lhs = polygamma(1, z + 1)
        rhs = polygamma(1, z) - 1.0 / (z * z)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))

    @pytest.mark.parametrize("z", [0.8 - 0.3j, 1.1 + 0.5j])
    def test_pochhammer_matches_gamma_ratio(self, z):
        want = gamma(z + 6) / gamma(z)
        assert abs(pochhammer(z, 6) - want) <= 1e-11 * abs(want)

    def test_pochhammer_zero_length(self):
        assert pochhammer(0.37 + 0.21j, 0) == 1.0


class TestNumberType:
    """An mpmath argument is evaluated by mpmath, whatever the environment."""

    Z = mp.mpc("0.37", "-1.21")

    def test_gamma_family_follows_mpmath_argument(self, monkeypatch):
        monkeypatch.delenv("HEUN_PRECISION", raising=False)
        with mp.workdps(30):
            assert gamma(self.Z) == mp.gamma(self.Z)
            assert log_gamma(self.Z) == mp.loggamma(self.Z)
            for n in (0, 1, 3):
                assert polygamma(n, self.Z) == mp.polygamma(n, self.Z)

    def test_binary64_argument_ignores_environment(self, monkeypatch):
        z = complex(self.Z)
        want = (gamma(z), log_gamma(z), polygamma(1, z))
        monkeypatch.setenv("HEUN_PRECISION", "high")
        assert (gamma(z), log_gamma(z), polygamma(1, z)) == want
        assert isinstance(want[0], complex)


class TestPoles:
    @pytest.mark.parametrize("z", [0.0, -1.0, -5.0, 0.0 + 0.0j])
    def test_gamma_pole(self, z):
        with pytest.raises(PoleError):
            gamma(z)

    # Real points within 1e-12 of a pole, given as floats and as complexes.
    REAL_POLES = [0.0, -3.0, 5e-13, -2.0 + 9e-13, complex(-1.0, -0.0)]

    @pytest.mark.parametrize("z", REAL_POLES)
    def test_log_gamma_pole(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    @pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
    def test_log_gamma_near_a_pole(self, delta):
        # 1 - e^(2 pi i z) of the reflection formula cancelled within delta of
        # an integer: 1.2e-5 absolute error at delta = 1e-10.
        rng = random.Random(7)
        with mp.workdps(30):
            for _ in range(40):
                z = rng.randint(-4, 0) + delta * cmath.exp(1j * rng.uniform(0.05, 3.09))
                for w in (z, z.conjugate()):
                    assert abs(log_gamma(w) - mp.loggamma(mp.mpc(w))) <= 5e-14, w

    @pytest.mark.parametrize("n", [17, -1, 1.0])
    def test_polygamma_order_outside_the_range(self, n):
        with pytest.raises(OrderError):
            polygamma(n, 0.3)

    @pytest.mark.parametrize("k", [-1, 2.5])
    def test_pochhammer_index_must_be_a_nonnegative_integer(self, k):
        with pytest.raises(DomainError, match="nonnegative integer"):
            pochhammer(0.3, k)

    def test_polygamma_pole(self):
        with pytest.raises(PoleError):
            polygamma(1, -2.0)

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("z", REAL_POLES)
    def test_polygamma_real_poles(self, z, n):
        with pytest.raises(PoleError):
            polygamma(n, z)


def test_kernel_tables_are_the_derivation():
    # tools/derive_lanczos.py solves the collocation system at 60 digits.
    path = Path(__file__).resolve().parents[1] / "tools" / "derive_lanczos.py"
    spec = importlib.util.spec_from_file_location("derive_lanczos", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    dps = mp.mp.dps
    assert tool.kernel_tables() == (special._SHIFT, special._NUM, special._DEN)
    assert mp.mp.dps == dps
    # The real polygamma series, from mpmath's Bernoulli numbers.
    with mp.workdps(40):
        series = tuple(
            tuple(
                float((-1) ** (n + 1) * c)
                for c in (
                    mp.factorial(n - 1) if n else 0,
                    mp.factorial(n) / 2,
                    *(
                        mp.bernoulli(2 * k) * mp.factorial(2 * k + n - 1) / mp.factorial(2 * k)
                        for k in range(1, 11)
                    ),
                )
            )
            for n in range(17)
        )
    assert special._PG_REAL == series


class TestOutOfRange:
    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(1.0, math.inf), mp.inf])
    @pytest.mark.parametrize(
        "f", [gamma, log_gamma, lambda z: polygamma(1, z)], ids=["gamma", "log_gamma", "polygamma"]
    )
    def test_non_finite_argument(self, f, z):
        with pytest.raises(DomainError, match="is not finite"):
            f(z)

    @pytest.mark.parametrize("z", [200.0, 200.0 + 1j, 171.7, 171.7 + 0.5j])
    def test_gamma_past_the_binary64_range(self, z):
        with pytest.raises(DomainError, match="outside the binary64 range"):
            gamma(z)

    @pytest.mark.parametrize("n, z", [(2, 1e160), (3, 1e160), (16, 1e160), (2, 1e160 + 1j)])
    def test_polygamma_where_the_power_overflows(self, n, z):
        # |z|^n is beyond binary64; the value is the leading term (n-1)!/z^n.
        with mp.workdps(30):
            want = complex(mp.polygamma(n, mp.mpmathify(z)))
        assert abs(polygamma(n, z) - want) <= 1e-323

    @pytest.mark.parametrize(
        "f, mp_f, z",
        [
            (log_gamma, mp.loggamma, 1e20 + 1j),
            (log_gamma, mp.loggamma, -1e20 + 1j),
            (lambda z: polygamma(0, z), mp.digamma, 1e20 + 1j),
            (lambda z: polygamma(1, z), lambda z: mp.polygamma(1, z), 1e200 + 1j),
            (lambda z: polygamma(2, z), lambda z: mp.polygamma(2, z), 1e15 + 1j),
            (lambda z: polygamma(16, z), lambda z: mp.polygamma(16, z), 0.7 + 1e15j),
        ],
        ids=["log_gamma", "log_gamma_reflected", "digamma", "trigamma", "order2", "order16"],
    )
    def test_complex_tail_where_its_power_overflows(self, f, mp_f, z):
        # The polygamma tails stop at the first power outside binary64; the
        # log_gamma kernel takes its ratio in powers of 1/(z - 1) there.
        with mp.workdps(30):
            want = mp_f(mp.mpc(z))
            assert abs(f(z) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("z", [-1e17 + 1j, -(2.0**50) + 0.5, -1e300 + 1e-3j])
    def test_polygamma_refuses_endless_shifts(self, z):
        # Past 2^53 an upward shift no longer moves the argument.
        start = time.perf_counter()
        with pytest.raises(DomainError, match="shifts"):
            polygamma(0, z)
        assert time.perf_counter() - start < 0.1

    def test_polygamma_of_a_power_past_the_range_is_a_domain_error(self):
        # psi^(16)(0.7 + 1e20 i) is about 15!/1e320, and the shift's power overflows.
        with pytest.raises(DomainError, match="outside the binary64 range"):
            polygamma(16, 0.7 + 1e20j)

    @pytest.mark.parametrize("x, k", [(2.0, 400), (1 + 1j, 200), (-200.5, 400)])
    def test_pochhammer_past_the_binary64_range(self, x, k):
        with pytest.raises(DomainError, match="outside the binary64 range"):
            pochhammer(x, k)

    @pytest.mark.parametrize(
        "x",
        [
            math.nan, math.inf, -math.inf, complex(0.5, math.inf),
            mp.mpf("inf"), mp.mpf("-inf"), mp.mpf("nan"), mp.mpc("inf", 0), mp.mpc(0.5, "nan"),
        ],
    )
    def test_pochhammer_non_finite_argument(self, x):
        with pytest.raises(DomainError, match="is not finite"):
            pochhammer(x, 3)

    @pytest.mark.parametrize("x, k", [(-3.0, 10**7), (-400.0, 1000), (0, 1), (-2 - 0j, 3)])
    def test_pochhammer_stops_at_a_zero_factor(self, x, k):
        # A zero factor past 170 others would follow an overflowed product.
        start = time.perf_counter()
        assert pochhammer(x, k) == 0
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize(
        "z, message",
        [("a", "is not a number"), (None, "is not a number"), (10**400, "outside the binary64 range")],
        ids=["str", "None", "big_int"],
    )
    @pytest.mark.parametrize(
        "name, f",
        [
            ("gamma", gamma),
            ("log_gamma", log_gamma),
            ("polygamma", lambda z: polygamma(1, z)),
            ("pochhammer", lambda z: pochhammer(z, 3)),
        ],
        ids=["gamma", "log_gamma", "polygamma", "pochhammer"],
    )
    def test_non_number_argument(self, name, f, z, message):
        with pytest.raises(DomainError, match=f"^{name} argument .*{message}"):
            f(z)


def _real_points(seed: int, count: int) -> list[float]:
    """Seeded ``x`` in [-2, 3], at least 0.02 from the poles of gamma."""
    rng = random.Random(seed)
    xs: list[float] = []
    while len(xs) < count:
        x = rng.uniform(-2.0, 3.0)
        if round(x) > 0 or abs(x - round(x)) >= 0.02:
            xs.append(x)
    return xs


def _fusion_triples(seed: int, count: int) -> list[tuple[float, float, float]]:
    """Seeded real ``(theta0, theta1, theta_inf)`` of the scan specs' domain:
    thetas in [-0.45, 0.45] with ``2 theta`` 0.02 from an integer, the third
    exponent in [0.08, 0.42], and every ``1/2 +- theta0 +- theta1 +-
    theta_inf`` at least 0.02 from zero."""
    rng = random.Random(seed)

    def theta() -> float:
        while True:
            t = rng.uniform(-0.45, 0.45)
            if abs(2 * t - round(2 * t)) >= 0.02:
                return t

    triples: list[tuple[float, float, float]] = []
    while len(triples) < count:
        t0, t1, x = theta(), theta(), rng.uniform(0.08, 0.42)
        if all(
            abs(0.5 + s0 * t0 + s1 * t1 + sx * x) >= 0.02
            for s0 in (1, -1)
            for s1 in (1, -1)
            for sx in (1, -1)
        ):
            triples.append((t0, t1, x))
    return triples


class TestRealLine:
    """A binary64 argument with zero imaginary part takes the real-line path."""

    XS = _real_points(18, 300)
    REAL_TOL = 4e-15

    def test_log_gamma_against_mpmath(self):
        with mp.workdps(30):
            for x in self.XS:
                got = log_gamma(x)
                assert abs(mp.mpc(got) - mp.loggamma(mp.mpf(x))) <= self.REAL_TOL, x
                assert got.imag == (-math.pi * math.ceil(-x) if x < 0 else 0.0), x

    @pytest.mark.parametrize("n", range(4))
    def test_polygamma_against_mpmath(self, n):
        with mp.workdps(30):
            for x in self.XS:
                want = mp.polygamma(n, mp.mpf(x))
                got = polygamma(n, x)
                assert abs(mp.mpc(got) - want) <= self.REAL_TOL * max(1, abs(want)), x
                assert got.imag == 0.0

    # Worst error, relative to max(1, |value|), of the former real path
    # (shifts to 18 + n, the tail term by term) on a seeded grid.
    FORMER_WORST = {0: 1.89e-15, 1: 7.04e-16, 2: 2.88e-15, 3: 7.48e-16}

    @pytest.mark.parametrize("n", range(4))
    def test_polygamma_no_worse_than_the_former_path(self, n):
        with mp.workdps(30):
            worst = 0.0
            for x in _real_points(37, 1000):
                want = mp.polygamma(n, mp.mpf(x))
                worst = max(worst, abs(mp.mpf(polygamma(n, x).real) - want) / max(1, abs(want)))
        assert worst <= self.FORMER_WORST[n]

    def test_zero_imaginary_part_of_either_sign_is_real(self):
        for x in self.XS:
            for f in (log_gamma, lambda z: polygamma(2, z)):
                assert f(x) == f(complex(x, 0.0)) == f(complex(x, -0.0)), x

    def test_just_outside_the_pole_tolerance(self):
        x = -2.0 + 2e-12
        with mp.workdps(30):
            want = mp.loggamma(mp.mpf(x))
            assert abs(mp.mpc(log_gamma(x)) - want) <= 1e-15 * abs(want)
            want = mp.polygamma(1, mp.mpf(x))
            assert abs(polygamma(1, x) - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("x", [1e200, 1e300])
    def test_huge_arguments(self, x):
        with mp.workdps(30):
            for got, want in (
                (log_gamma(x), mp.loggamma(mp.mpf(x))),
                (polygamma(0, x), mp.digamma(mp.mpf(x))),
            ):
                assert abs(mp.mpc(got) - want) <= 1e-15 * abs(want)

    def test_log_gamma_past_the_binary64_range_is_infinite(self):
        assert log_gamma(3e305) == complex(math.inf, 0.0)
        assert log_gamma(math.ldexp(1.0, 1023)) == complex(math.inf, 0.0)

    def test_float_argument_equals_its_complex(self):
        # A float skips the round-trip through complex; the value is the same
        # to the bit, over the range, between the poles and past the range.
        rng = random.Random(41)
        xs = [rng.uniform(-20.0, 200.0) for _ in range(2000)]
        xs += [-n + rng.uniform(0.0, 1.0) for n in range(1, 21) for _ in range(25)]
        xs += [-2.0 + 2e-12, -1e-12 - 1e-13, 0.5, 1.0, 2.0, 3e305, 1e308, math.ldexp(1.0, 1023)]
        for x in xs:
            got = log_gamma(x)
            assert repr(got) == repr(log_gamma(complex(x))), x
        assert log_gamma(1e308) == complex(math.inf, 0.0)

    @pytest.mark.parametrize(
        "x", [0.0, -0.0, -3.0, 5e-13, -2.0 + 9e-13, -20.0 - 5e-13, math.nan, math.inf, -math.inf]
    )
    def test_float_argument_raises_as_its_complex(self, x):
        errors = []
        for z in (x, complex(x)):
            with pytest.raises((PoleError, DomainError)) as got:
                log_gamma(z)
            errors.append((type(got.value), str(got.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 16])
    def test_polygamma_float_argument_equals_its_complex(self, n):
        # Every real argument takes the real-line function, a float without
        # conversion to complex; the value is the same to the bit.
        rng = random.Random(43)
        xs = [rng.uniform(-20.0, 200.0) for _ in range(500)]
        xs += [-k + rng.uniform(0.01, 0.99) for k in range(1, 21) for _ in range(5)]
        xs += [float(k) for k in range(1, 40)] + [-2.0 + 2e-12, 1e200, 1e300]
        for x in xs:
            got = repr(polygamma(n, x))
            assert got == repr(polygamma(n, complex(x, 0.0))), x
            assert got == repr(polygamma(n, complex(x, -0.0))), x
            if x.is_integer():
                assert got == repr(polygamma(n, int(x))), x

    def test_polygamma_real_arguments_take_the_real_line(self, monkeypatch):
        seen = []

        def real(n, x):
            seen.append(x)
            return 0j

        monkeypatch.setattr(special, "_polygamma_real", real)
        for z in (0.3, 2, complex(0.3, 0.0), complex(0.3, -0.0)):
            polygamma(1, z)
        assert seen == [0.3, 2.0, 0.3, 0.3]
        assert all(type(x) is float for x in seen)
        assert polygamma(1, complex(0.3, 1e-300)) != 0j

    @pytest.mark.parametrize(
        "x", [0.0, -3.0, -2.0 + 9e-13, math.nan, math.inf, -math.inf, -(2.0**50) + 0.5]
    )
    def test_polygamma_float_argument_raises_as_its_complex(self, x):
        errors = []
        for z in (x, complex(x)):
            with pytest.raises((PoleError, DomainError)) as got:
                polygamma(2, z)
            errors.append((type(got.value), str(got.value)))
        assert errors[0] == errors[1]

    def test_fusion_cl_on_real_triples(self):
        with mp.workdps(30):
            for t0, t1, x in _fusion_triples(18, 3000):
                T0, T1, X = mp.mpf(t0), mp.mpf(t1), mp.mpf(x)
                a = mp.mpf(0.5) + T1 - T0
                want = mp.gamma(1 - 2 * T0) * mp.gamma(2 * T1) / (mp.gamma(a + X) * mp.gamma(a - X))
                assert abs(fusion_cl(t0, t1, x) - want) <= 1e-14 * abs(want), (t0, t1, x)


def _complex_points(seed: int, count: int, re: tuple, im: tuple) -> list[complex]:
    """Seeded ``z`` uniform in the box ``re x im``."""
    rng = random.Random(seed)
    return [complex(rng.uniform(*re), rng.uniform(*im)) for _ in range(count)]


class TestComplexKernel:
    """Complex log-gamma is the rational kernel of gamma in log form."""

    def _worst_error(self, zs: list[complex]) -> float:
        with mp.workdps(40):
            return max(
                float(abs(mp.mpc(log_gamma(w)) - mp.loggamma(mp.mpc(w))))
                for z in zs
                for w in (z, z.conjugate())
            )

    def test_log_gamma_against_mpmath(self):
        # Shifting to Re w >= 18 and summing Stirling's series cancels to 2.9e-14 here.
        zs = _complex_points(28, 2000, (-2.0, 3.0), (0.0, 2.0))
        zs = [z for z in zs if z.imag > 0.0]
        assert self._worst_error(zs) <= 1e-14

    def test_log_gamma_where_the_kernel_winds(self):
        # arg N(x)/D(x) and arg t leave the principal branch here; without the
        # rounding to Stirling's leading term the value is 2 pi off.
        zs = _complex_points(29, 2000, (0.5, 1.5), (3.0, 10.0))
        assert self._worst_error(zs) <= 2e-14

    def test_fusion_cl_on_complex_triples(self):
        # Through a shift-and-Stirling log-gamma, 6.4e-14 on 3,000 such triples.
        rng = random.Random(30)
        with mp.workdps(30):
            for t0, t1, x in _fusion_triples(30, 2000):
                t0, t1, x = (v + 1j * rng.uniform(-0.2, 0.2) for v in (t0, t1, x))
                T0, T1, X = mp.mpc(t0), mp.mpc(t1), mp.mpc(x)
                a = mp.mpf(0.5) + T1 - T0
                want = mp.gamma(1 - 2 * T0) * mp.gamma(2 * T1) / (mp.gamma(a + X) * mp.gamma(a - X))
                assert abs(fusion_cl(t0, t1, x) - want) <= 2e-14 * abs(want), (t0, t1, x)
