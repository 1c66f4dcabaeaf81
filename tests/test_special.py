"""Complex gamma-family helpers: frozen spot values and functional identities."""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import pytest

import oracles
from heunconn import PoleError, digamma, gamma, log_gamma, pochhammer, polygamma

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

    @pytest.mark.parametrize("z", [0.0, -3.0])
    def test_log_gamma_pole(self, z):
        with pytest.raises(PoleError):
            log_gamma(z)

    def test_polygamma_pole(self):
        with pytest.raises(PoleError):
            polygamma(1, -2.0)
