"""Staircase-walk census, the closed multiplicity formula, and trace sums."""

from __future__ import annotations

import cmath
import itertools
import math
import random
from collections import Counter

import mpmath as mp
import pytest

import oracles
from conftest import rel_diff
from heunconn import (
    DomainError,
    FamilyFieldError,
    SizeError,
    c_coefficients,
    compositions,
    enumerate_walk_types,
    log_a_series_from_traces,
    n_mu,
    rche_spec,
    trace_power,
    walk_type,
)
from heunconn.combinatorics import _MAX_N, _walk_weights
from heunconn.equations import coefficient_table
from heunconn.precision import HIGH, spec_to_precision
from heunconn.tails import (
    Orders, d_space, formal_tail, inverse_depth, root_depth, series_log, sum_tail,
)


def brute_force_census(n: int) -> Counter:
    """Independent census: classify all arrangements of n U's and n R's."""
    out = Counter()
    for ups in itertools.combinations(range(2 * n), n):
        steps = ["R"] * (2 * n)
        for i in ups:
            steps[i] = "U"
        out[walk_type("".join(steps))] += 1
    return out


def per_k_traces(spec, orders, N: int) -> list:
    """``Tr A^{2n}`` at each of ``orders`` as the trace route sums it, with
    the walk sums taken one ``k`` at a time: the reference for its
    whole-column sums."""
    K = root_depth(spec)
    _, betas = coefficient_table(spec, 1, K + N)
    tail = map(Orders, formal_tail(d_space(spec), 0, 0, inverse_depth(spec, K + 1), N))
    s_d, _ = sum_tail(tail, 2.0**-53, False, "walk-trace tail")
    log_s = series_log(s_d)
    out = []
    for n in orders:
        terms = [(mu, n_mu(mu)) for mu in compositions(n)]

        def local(k: int) -> complex:  # weighted beta products of all walk types at k
            total = 0.0 + 0.0j
            for mu, cnt in terms:
                prod = float(cnt) + 0.0j
                for off, power in enumerate(mu):
                    b = betas[k - 1 + off]
                    for _ in range(power):
                        prod *= b
                total += prod
            return total

        out.append(complex(sum(map(local, range(1, K + 1))) - 2 * n * log_s[n]))
    return out


class TestCompositions:
    def test_lexicographic_order(self):
        assert list(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
        assert list(compositions(1)) == [(1,)]

    def test_count_is_power_of_two(self):
        for n in range(1, 9):
            assert len(list(compositions(n))) == 2 ** (n - 1)

    def test_parts_sum_to_n(self):
        for mu in compositions(6):
            assert sum(mu) == 6 and all(p >= 1 for p in mu)

    def test_size_cap(self):
        with pytest.raises(SizeError):
            list(compositions(17))

    def test_order_must_be_positive(self):
        with pytest.raises(DomainError):
            list(compositions(0))


class TestWalkType:
    def test_two_step_walks(self):
        assert walk_type("UR") == (1,)
        assert walk_type("RU") == (1,)

    def test_four_step_anchor(self):
        assert walk_type("UURR") == (1, 1)

    def test_twelve_step_anchor(self):
        assert walk_type("UURURUUURRRR") == (1, 3, 1, 1)

    def test_alternating_walk_single_diagonal(self):
        for n in (2, 4, 6):
            assert walk_type("UR" * n) == (n,)

    @pytest.mark.parametrize("bad", ["UUR", "URX", "", "RRUU "])
    def test_malformed(self, bad):
        with pytest.raises(DomainError):
            walk_type(bad)


class TestMultiplicityFormula:
    def test_spot_values(self):
        assert n_mu((1,)) == 2
        assert n_mu((1, 1)) == 4
        assert n_mu((2,)) == 2
        assert n_mu((1, 2)) == 6

    @pytest.mark.parametrize("n", range(1, 7))
    def test_census_equals_formula(self, n):
        census = brute_force_census(n)
        table = enumerate_walk_types(n)
        assert table == census
        for mu, count in table.items():
            assert n_mu(mu) == count

    @pytest.mark.parametrize("n", range(1, 13))
    def test_total_is_central_binomial(self, n):
        total = sum(n_mu(mu) for mu in compositions(n))
        assert total == math.comb(2 * n, n)

    def test_census_size_cap(self):
        with pytest.raises(SizeError):
            enumerate_walk_types(9)

    def test_walk_weights_are_the_walk_counts(self):
        # The trace route's cached weights: every composition, in order, with its n_mu.
        for n in range(1, _MAX_N + 1):
            weights = _walk_weights(n)
            assert [mu for mu, _ in weights] == list(compositions(n))
            assert all(type(w) is float and w == n_mu(mu) for mu, w in weights)

    def test_named_errors(self):
        with pytest.raises(DomainError):
            n_mu(())
        with pytest.raises(SizeError):
            n_mu((1,) * 17)
        with pytest.raises(DomainError):
            enumerate_walk_types(0)


class TestTraceRoute:
    def test_trace_formula_reproduces_series(self, rche_example):
        want = [oracles.cplx(t) for t in oracles.C_SERIES["RCHE"]]
        got = log_a_series_from_traces(rche_example, 6)
        for g, w in zip(got, want):
            assert rel_diff(g, w) <= 1e-12

    def test_mpmath_spec_reproduces_series(self, rche_example):
        # At 30 digits only the final rounding to binary64 is left (the
        # binary64 spec is up to 4.1e-15 off).
        want = [oracles.cplx(t) for t in oracles.C_SERIES["RCHE"]]
        with mp.workdps(30):
            got = log_a_series_from_traces(spec_to_precision(rche_example, HIGH), 6)
        for g, w in zip(got, want):
            assert rel_diff(g, w) <= 1e-15

    def test_agrees_with_jets_on_seeded_specs(self):
        # 100 specs, every other one with a complex omega; the worst seen is
        # 4.3e-11 of max(1, |c_n|).
        rng = random.Random(5)
        for i in range(100):
            t0, t1 = rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)
            r = rng.uniform(0.05, 2.0)
            omega = cmath.rect(r, rng.uniform(-3.1, 3.1)) if i % 2 else r
            spec = rche_spec(t0, t1, omega, 0.1)
            jets = c_coefficients(spec, 8)
            for c, t in zip(jets, log_a_series_from_traces(spec, 8)):
                assert abs(c - t) <= 1e-9 * max(1.0, abs(c)), spec

    def test_column_sums_match_the_per_k_walk_sums(self):
        # 16 seeded specs, the second eight with a complex omega, one per N, and
        # one real spec in complex numbers; repr also tells signed zeros apart.
        rng = random.Random(23)
        specs = []
        for i in range(16):
            t0, t1 = rng.uniform(-0.45, 0.45), rng.uniform(-0.45, 0.45)
            r = rng.uniform(0.05, 2.0)
            omega = cmath.rect(r, rng.uniform(-3.1, 3.1)) if i >= 8 else r
            specs.append(rche_spec(t0, t1, omega, 0.1))
        specs.append(spec_to_precision(specs[0], "double"))
        for i, spec in enumerate(specs):
            N = 1 + i % 8
            want = [-t / (2 * n) for n, t in enumerate(per_k_traces(spec, range(1, N + 1), N), 1)]
            assert repr(log_a_series_from_traces(spec, N)) == repr(want)
            assert repr(trace_power(spec, N)) == repr(per_k_traces(spec, [N], N)[0])

    def test_trace_sign_convention(self, rche_example):
        # c_n = -Tr A^{2n} / (2n) term by term.
        for n in (1, 2):
            t = trace_power(rche_example, n)
            c = log_a_series_from_traces(rche_example, n)[n - 1]
            assert rel_diff(c, -t / (2 * n)) <= 1e-13

    def test_agrees_with_jet_route(self, rche_example):
        jet = c_coefficients(rche_example, 3)
        tr = log_a_series_from_traces(rche_example, 3)
        for a, b in zip(jet, tr):
            assert rel_diff(a, b) <= 1e-9

    def test_trace_route_is_rche_only(self, che_example, he_example):
        for spec in (che_example, he_example):
            with pytest.raises(FamilyFieldError):
                trace_power(spec, 1)

    def test_order_cap(self, rche_example):
        with pytest.raises(SizeError):
            trace_power(rche_example, 17)
        with pytest.raises(SizeError):
            log_a_series_from_traces(rche_example, 17)
        with pytest.raises(DomainError):
            trace_power(rche_example, 0)
