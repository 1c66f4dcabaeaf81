"""Neville-ladder extrapolation: node generation and limit recovery."""

from __future__ import annotations

import math

import pytest

from heunconn import DomainError, extrapolate, geometric_ladder


class TestGeometricLadder:
    def test_doubling_nodes(self):
        assert geometric_ladder(16384, 4) == [2048, 4096, 8192, 16384]

    def test_single_level(self):
        assert geometric_ladder(100, 1) == [100]

    def test_custom_ratio(self):
        assert geometric_ladder(81, 3, ratio=3) == [9, 27, 81]

    def test_indivisible_raises(self):
        with pytest.raises(Exception):
            geometric_ladder(100, 4)  # 100 / 2^3 is not an integer

    def test_nonpositive_raises(self):
        with pytest.raises(Exception):
            geometric_ladder(0, 1)

    def test_levels_and_ratio(self):
        with pytest.raises(DomainError, match="level"):
            geometric_ladder(8, 0)
        with pytest.raises(DomainError, match="ratio"):
            geometric_ladder(8, 2, ratio=1)


class TestExtrapolate:
    def test_polynomial_in_inverse_step_is_exact(self):
        # f(K) = L + a/K + b/K^2 is resolved exactly by a 3-node table.
        L, a, b = 0.7, 2.0, -1.3
        ks = geometric_ladder(4096, 3)
        vals = [L + a / k + b / k**2 for k in ks]
        limit, err = extrapolate([1.0 / k for k in ks], vals)
        assert abs(limit - L) <= 1e-12
        # The a-posteriori estimate is the final-stage correction; it bounds
        # the true error from above for a resolved polynomial tail.
        assert abs(limit - L) <= err

    def test_complex_values(self):
        L = 0.3 - 0.4j
        ks = geometric_ladder(8192, 4)
        vals = [L + (1.5 + 0.5j) / k + 1.0j / k**2 for k in ks]
        limit, err = extrapolate([1.0 / k for k in ks], vals)
        assert abs(limit - L) <= 1e-11

    def test_accelerates_harmonic_tail(self):
        # Partial sums of sum 1/j^2 converge at O(1/K); the ladder should
        # beat the raw truncation error by several orders of magnitude.
        target = math.pi**2 / 6.0
        ks = geometric_ladder(16384, 5)
        vals = []
        s, j = 0.0, 0
        for k in ks:
            while j < k:
                j += 1
                s += 1.0 / (j * j)
            vals.append(s)
        limit, err = extrapolate([1.0 / k for k in ks], vals)
        raw_error = abs(vals[-1] - target)
        assert abs(limit - target) <= 1e-6 * raw_error
        assert abs(limit - target) <= 10.0 * max(err, 1e-16)

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            extrapolate([1.0, 0.5], [1.0])
