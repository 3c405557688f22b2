"""Tests for the fold p-value oracles: hand values, dominance, grids,
exchangeability."""

import numpy as np
import pytest
from scipy import stats

from conftest import make_pipeline
from crossconf import (
    CvScores,
    Dataset,
    FoldAssignment,
    InvalidConfigurationError,
    LinearModel,
    RandomDraws,
    RandomSource,
    ScoreFunctionSpec,
    assign_folds,
    compute_cv_scores,
    simulate_instance,
)
from oracles import all_fold_pvalues, fold_pvalue, fold_pvalue_randomized, hand_folds


class TestFoldPvalue:
    def test_hand_rank_count(self):
        # one of the two scores is >= 2.0, so (1 + 1) / 3
        assert fold_pvalue(2.0, [1.0, 3.0]) == pytest.approx(2.0 / 3.0)

    def test_floor_when_above_everything(self):
        assert fold_pvalue(9.0, [1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0 / 5.0)

    def test_ceiling_when_below_everything(self):
        assert fold_pvalue(0.5, [1.0, 2.0, 3.0]) == 1.0

    def test_empty_fold_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            fold_pvalue(1.0, [])


class TestFoldPvalueRandomized:
    def test_hand_value_with_tie(self):
        # (tau + tau * 1 + 1) / 4 with tau = 0.5
        assert fold_pvalue_randomized(2.0, [1.0, 2.0, 3.0], 0.5) == pytest.approx(0.5)

    def test_tau_near_one_recovers_deterministic_without_ties(self):
        scores = [0.3, 1.7, 2.9]
        det = fold_pvalue(1.0, scores)
        rnd = fold_pvalue_randomized(1.0, scores, 1.0 - 1e-12)
        assert rnd == pytest.approx(det, abs=1e-9)

    def test_dominated_by_deterministic(self):
        gen = np.random.default_rng(0)
        for _ in range(1000):
            scores = gen.exponential(size=int(gen.integers(1, 12)))
            s = gen.exponential()
            tau = float(gen.uniform(1e-6, 1 - 1e-6))
            assert fold_pvalue_randomized(s, scores, tau) <= fold_pvalue(s, scores)

    def test_bad_tau_rejected(self):
        for tau in [0.0, 1.0, -0.2, 1.2]:
            with pytest.raises(InvalidConfigurationError):
                fold_pvalue_randomized(1.0, [1.0], tau)


def hand_cv(models, scores, folds):
    return CvScores(np.asarray(scores, float), tuple(models), folds)


class TestAllFoldPvalues:
    def test_single_fold_reduces_to_fold_pvalue(self):
        # hand-built state: one fold holding every point, model predicting 2*x
        folds = hand_folds([np.arange(3)])
        cv = hand_cv([LinearModel(np.array([2.0]))], [0.5, 1.5, 2.5], folds)
        x, y = np.array([1.0]), 3.0  # test score |3 - 2| = 1
        pv = all_fold_pvalues(x, y, cv, folds)
        assert pv.n_folds == 1
        assert pv.values[0] == fold_pvalue(1.0, [0.5, 1.5, 2.5])

    def test_three_fold_hand_example(self):
        # fold scores (1,3), (5,7), (0,9) and test scores 2, 8, 10 give
        # rank counts 1, 0, 0, hence (2/3, 1/3, 1/3)
        folds = hand_folds([[0, 1], [2, 3], [4, 5]])
        models = [LinearModel(np.array([c])) for c in (2.0, 8.0, 10.0)]
        cv = hand_cv(models, [1.0, 3.0, 5.0, 7.0, 0.0, 9.0], folds)
        pv = all_fold_pvalues(np.array([1.0]), 0.0, cv, folds)
        assert np.allclose(pv.values, [2 / 3, 1 / 3, 1 / 3])
        assert not pv.randomized

    def test_shared_tau_across_folds(self):
        # identical folds with a tie at the test score: each p-value equals
        # (2 tau + 1) / 3, which pins the single shared tau
        folds = hand_folds([[0, 1], [2, 3]])
        models = [LinearModel(np.array([1.0])), LinearModel(np.array([1.0]))]
        cv = hand_cv(models, [2.0, 5.0, 2.0, 5.0], folds)
        draws = RandomDraws(tau=0.25, u=0.5)
        pv = all_fold_pvalues(np.array([1.0]), 3.0, cv, folds, draws)  # test score 2 ties
        assert pv.randomized and pv.tau == 0.25
        expected = (0.25 + 0.25 * 1 + 1) / 3
        assert np.allclose(pv.values, [expected, expected])

    def test_randomized_dominated_componentwise(self):
        for seed in range(20):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=30, p=4, k=3)
            gen = np.random.default_rng(seed)
            for _ in range(50):
                y = float(gen.normal(scale=5.0))
                det = all_fold_pvalues(tx, y, cv, folds)
                rnd = all_fold_pvalues(tx, y, cv, folds, draws)
                assert np.all(rnd.values <= det.values)

    def test_grid_membership_equal_sizes(self):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(3, n=40, p=5, k=4)
        m = folds.fold_sizes[0]
        grid = np.arange(1, m + 2) / (m + 1)
        gen = np.random.default_rng(4)
        for _ in range(50):
            pv = all_fold_pvalues(tx, float(gen.normal(scale=4.0)), cv, folds)
            for v in pv.values:
                assert np.min(np.abs(grid - v)) < 1e-12


def sample_first_last_pvalues(trials, seed, n, k, fixed_big_fold=False):
    """Marginal samples of the first and last fold p-value at the true test pair."""
    spec = ScoreFunctionSpec()
    first = np.empty(trials)
    last = np.empty(trials)
    for t in range(trials):
        src = RandomSource(seed, t)
        data, (tx, ty) = simulate_instance(n, 2, src)
        if fixed_big_fold:
            # deliberately broken placement: the larger fold is always fold 0
            perm = src.generator("folds").permutation(n)
            base = n // k
            sizes = [base + 1 if i < n % k else base for i in range(k)]
            folds = FoldAssignment(perm, np.concatenate(([0], np.cumsum(sizes))))
        else:
            folds = assign_folds(n, k, "equal", src)
        cv = compute_cv_scores(data, folds, spec)
        pv = all_fold_pvalues(tx, ty, cv, folds)
        first[t] = pv.values[0]
        last[t] = pv.values[-1]
    return first, last


class TestDistributionalProperties:
    def test_super_uniform_at_true_test_pair(self):
        trials = 5000
        first, _ = sample_first_last_pvalues(trials, seed=2024, n=20, k=2)
        for alpha in (0.05, 0.1, 0.2):
            rate = float(np.mean(first <= alpha))
            se = np.sqrt(alpha * (1 - alpha) / trials)
            assert rate <= alpha + 3 * se, (alpha, rate)

    def test_equal_folds_have_exchangeable_margins(self):
        first, last = sample_first_last_pvalues(5000, seed=77, n=10, k=2)
        assert stats.ks_2samp(first, last).pvalue > 0.01
        diff = first - last
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        assert abs(diff.mean()) <= 3 * se
