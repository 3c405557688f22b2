"""Tests for the combination-statistic oracles, thresholds and coverage bounds."""

import math
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossconf import (
    InvalidConfigurationError,
    NumericalError,
    RandomDraws,
    alpha_prime,
    conformal_rank,
    coverage_bounds,
)
from crossconf import combiners
from oracles import PValueVector, stat_emod, stat_eumod, stat_mod, stat_umod


def draws_with(u):
    return RandomDraws(tau=0.5, u=u)


class TestStatistics:
    def test_mod_hand_mean(self):
        assert stat_mod([0.5, 0.1, 0.3]) == pytest.approx(0.3)

    def test_mod_constant_vector(self):
        assert stat_mod([0.42] * 7) == pytest.approx(0.42)

    def test_mod_single_fold(self):
        assert stat_mod([0.77]) == 0.77

    def test_emod_hand_prefix_means(self):
        # prefix means are 0.5, 0.3, 0.3; the minimum is 0.3
        assert stat_emod([0.5, 0.1, 0.3]) == pytest.approx(0.3)

    def test_emod_nondecreasing_vector_takes_first(self):
        assert stat_emod([0.1, 0.2, 0.9]) == pytest.approx(0.1)

    def test_umod_hand_value(self):
        assert stat_umod([0.5, 0.1, 0.3], draws_with(0.5)) == pytest.approx(0.2)

    def test_umod_limit_at_zero_u(self):
        assert stat_umod([0.4, 0.2], draws_with(1e-12)) == pytest.approx(0.15, abs=1e-9)

    def test_eumod_hand_value(self):
        # min(0.5 / 1.5, 0.3) = 0.3
        assert stat_eumod([0.5, 0.1, 0.3], draws_with(0.5)) == pytest.approx(0.3)

    def test_eumod_single_fold_reduction(self):
        assert stat_eumod([0.6], draws_with(0.25)) == pytest.approx(0.6 / 1.75)

    def test_missing_draws_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            stat_umod([0.5], None)
        with pytest.raises(InvalidConfigurationError):
            stat_eumod([0.5], None)

    def test_accepts_pvalue_vector_objects(self):
        pv = PValueVector(np.array([0.5, 0.1, 0.3]), np.array([4, 4, 4]))
        assert stat_mod(pv) == pytest.approx(0.3)


class TestStatisticOrdering:
    def test_orderings_on_mass_random_draws(self):
        # drives the set containments: every inequality must hold exactly
        gen = np.random.default_rng(0)
        for _ in range(100_000):
            k = int(gen.integers(1, 9))
            p = gen.uniform(1e-9, 1.0, size=k)
            u = float(gen.uniform(1e-9, 1 - 1e-9))
            d = draws_with(u)
            mod, emod = stat_mod(p), stat_emod(p)
            assert emod <= mod
            assert stat_umod(p, d) <= mod
            assert stat_eumod(p, d) <= emod

    @given(
        values=st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_emod_matches_bruteforce_prefix_minimum(self, values):
        # pure-Python oracle; both sides accumulate left to right in IEEE
        # doubles, so equality is exact
        brute = min(sum(values[:l]) / l for l in range(1, len(values) + 1))
        assert stat_emod(np.array(values)) == brute


class TestAlphaPrime:
    def test_hand_value(self):
        # 0.1 + 0.9 * 4 / 105
        assert alpha_prime(0.1, 5, 100) == pytest.approx(0.13428571428571429, abs=1e-12)

    def test_single_fold_is_identity(self):
        assert alpha_prime(0.2, 1, 50) == 0.2

    def test_vanishing_correction_for_huge_n(self):
        assert abs(alpha_prime(0.1, 5, 10**9) - 0.1) < 1e-8

    def test_monotone_in_k_and_n(self):
        ks = [alpha_prime(0.1, k, 500) for k in range(1, 20)]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        ns = [alpha_prime(0.1, 5, n) for n in range(5, 500, 7)]
        assert all(a > b for a, b in zip(ns, ns[1:]))

    def test_is_the_exact_rational_rounded_once(self):
        # alpha is the decimal it prints as; the float formula is an ulp off in
        # about a quarter of these cases
        for alpha in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.45):
            a = Fraction(repr(alpha))
            for k in range(2, 21):
                for n in range(k, 400):
                    assert alpha_prime(alpha, k, n) == float(a + (1 - a) * Fraction(k - 1, k + n))

    def test_fold_thresholds_are_the_exact_ratios(self):
        # the fold kernel bounds its integer sums with these ratios, never a float
        for alpha in (1 / 3, 0.1, 0.09924242424242424, 0.7):
            a = Fraction(repr(alpha))
            for k, n in ((1, 1), (2, 4), (10, 101), (500, 500)):
                plain, inflated = combiners.fold_thresholds(alpha, k, n)
                assert Fraction(*plain) == a
                assert Fraction(*inflated) == a + (1 - a) * Fraction(k - 1, k + n)

    def test_preconditions(self):
        with pytest.raises(InvalidConfigurationError):
            alpha_prime(0.0, 5, 100)
        with pytest.raises(InvalidConfigurationError):
            alpha_prime(0.1, 5, 4)


# (alpha, n, rank): large-n cases where the float level (1 - alpha)(1 + 1/n)
# times n, read with a 1e-9 * (1 + level * n) window, gives rank - 1
WINDOW_MISSES = [
    (0.12610401406386584, 51742, 45219),
    (0.04465312053427284, 72200, 68978),
    (0.1719207884603282, 33782, 27976),
    (0.7120623682965863, 69778, 20093),
    (0.7938873325098745, 80324, 16557),
    (0.24564903340085975, 72684, 54831),
]


class TestConformalRank:
    def test_is_the_exact_ceiling(self):
        for alpha in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.45, 0.5, 0.9, 0.999):
            a = Fraction(repr(alpha))
            for n in range(1, 2000):
                assert conformal_rank(alpha, n) == math.ceil((1 - a) * (n + 1))

    @pytest.mark.parametrize("alpha,n,rank", WINDOW_MISSES)
    def test_large_n_where_a_tolerance_window_falls_short(self, alpha, n, rank):
        assert conformal_rank(alpha, n) == rank == math.ceil((1 - Fraction(repr(alpha))) * (n + 1))

    def test_preconditions(self):
        for alpha in (0.0, 1.0, -0.5, 1.5, float("nan")):
            with pytest.raises(InvalidConfigurationError):
                conformal_rank(alpha, 10)


class TestCoverageBounds:
    def test_hand_small_k_bound(self):
        b = coverage_bounds(0.1, 5, 100)
        assert b.bound_small_k == pytest.approx(0.7314285714285714, abs=1e-12)

    def test_k_equals_n_pins_large_k_bound(self):
        b = coverage_bounds(0.1, 100, 100)
        assert b.bound_large_k == pytest.approx(0.8, abs=1e-15)
        assert b.combined == pytest.approx(0.8, abs=1e-15)

    def test_combined_dominates_sqrt_floor(self):
        for alpha in (0.05, 0.1, 0.2):
            for n in range(10, 10_001, 37):
                for k in {2, 5, 10, int(round(np.sqrt(n))), n}:
                    if k < 1 or k > n:
                        continue
                    b = coverage_bounds(alpha, k, n)
                    floor = 1 - 2 * alpha - 2 / np.sqrt(n)
                    assert b.combined >= floor - 1e-12

    def test_floor_is_reported(self):
        b = coverage_bounds(0.1, 5, 100)
        assert b.floor == 1.0 - 2.0 * 0.1 - 2.0 / math.sqrt(100)
        assert b.combined >= b.floor

    def test_floor_violation_is_a_numerical_error(self, monkeypatch):
        # a floor of 1 - 2*alpha - 2e-9 lies above both bounds at K=5, n=100
        monkeypatch.setattr(combiners, "math", types.SimpleNamespace(sqrt=lambda x: 1e9))
        with pytest.raises(NumericalError, match="floor"):
            coverage_bounds(0.1, 5, 100)

    def test_preconditions(self):
        with pytest.raises(InvalidConfigurationError):
            coverage_bounds(0.1, 0, 10)
        with pytest.raises(InvalidConfigurationError):
            coverage_bounds(0.1, 11, 10)

