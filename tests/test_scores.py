"""Tests for cross-validation score computation against refit oracles."""

import re

import numpy as np
import pytest

from crossconf import (
    CvScores,
    Dataset,
    InvalidConfigurationError,
    LinearModel,
    RandomSource,
    RegressorSpec,
    ScoreFunctionSpec,
    assign_folds,
    compute_cv_scores,
    fit,
)
from crossconf.scores import fold_predictions
from oracles import discarded, hand_folds


def brute_force_scores(data, folds, spec):
    """Independent oracle: refit the complement model from scratch per point."""
    out = np.full(data.n, np.nan)
    for k, members in enumerate(folds.fold_members):
        model = fit(spec.regressor, data.subset(folds.complement(k)))
        for i in members:
            out[i] = abs(data.responses[i] - float(model.predict(data.features[i][None, :])[0]))
    return out


class TestComputeCvScores:
    def test_zero_model_gives_absolute_responses(self):
        # all-zero features force every OLS complement model to predict 0
        data = Dataset(np.zeros((3, 1)), np.array([1.0, -2.0, 3.0]))
        folds = hand_folds([[0], [1], [2]])
        cv = compute_cv_scores(data, folds, ScoreFunctionSpec())
        assert np.allclose(cv.scores, [1.0, 2.0, 3.0])

    def test_fold_with_zero_responses_trains_zero_model(self):
        # the model scoring fold 0 trains on fold 1, whose responses are all
        # zero, so it is the zero function and fold 0's scores are |Y_i|
        gen = np.random.default_rng(0)
        x = gen.standard_normal((4, 2))
        y = np.array([1.0, -2.0, 0.0, 0.0])
        folds = hand_folds([[0, 1], [2, 3]])
        cv = compute_cv_scores(Dataset(x, y), folds, ScoreFunctionSpec())
        assert np.allclose(cv.scores[[0, 1]], [1.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("kind", ["ols", "knn"])
    def test_matches_refit_oracle(self, kind):
        gen = np.random.default_rng(1)
        data = Dataset(gen.standard_normal((24, 3)), gen.standard_normal(24))
        folds = assign_folds(24, 4, "equal", RandomSource(5))
        spec = ScoreFunctionSpec(
            "residual", RegressorSpec(kind) if kind == "ols" else RegressorSpec("knn", knn_k=4)
        )
        cv = compute_cv_scores(data, folds, spec)
        assert np.allclose(cv.scores, brute_force_scores(data, folds, spec), atol=1e-10)

    def test_exactly_k_models_cached(self):
        data = Dataset(np.random.default_rng(2).standard_normal((20, 2)), np.zeros(20))
        folds = assign_folds(20, 5, "equal", RandomSource(6))
        cv = compute_cv_scores(data, folds, ScoreFunctionSpec())
        assert len(cv.fold_models) == 5

    def test_discarded_points_get_no_score_and_no_training_role(self):
        gen = np.random.default_rng(3)
        data = Dataset(gen.standard_normal((11, 2)), gen.standard_normal(11))
        folds = assign_folds(11, 5, "equal", RandomSource(7))
        spec = ScoreFunctionSpec()
        cv = compute_cv_scores(data, folds, spec)
        assert np.isnan(cv.scores[discarded(folds)]).all()
        # oracle trains only on the retained complement, so agreement proves
        # the discarded point was excluded from every training set
        oracle = brute_force_scores(data, folds, spec)
        used = np.setdiff1d(np.arange(11), discarded(folds))
        assert np.allclose(cv.scores[used], oracle[used], atol=1e-12)

    def test_single_fold_has_empty_complement(self):
        data = Dataset(np.eye(4), np.ones(4))
        folds = hand_folds([np.arange(4)])
        with pytest.raises(InvalidConfigurationError):
            compute_cv_scores(data, folds, ScoreFunctionSpec())

    def test_fold_count_mismatch_rejected(self):
        data = Dataset(np.eye(4), np.ones(4))
        folds = assign_folds(6, 2, "equal", RandomSource(1))
        with pytest.raises(InvalidConfigurationError):
            compute_cv_scores(data, folds, ScoreFunctionSpec())


class TestCvScoresFolds:
    """CV scores carry the folds they were scored on and sort each fold's
    scores once."""

    @staticmethod
    def two_folds():
        # fold 0 holds points 0 and 3, fold 1 points 1 and 2; point 4 is discarded
        folds = hand_folds([[0, 3], [1, 2]], [4])
        models = (LinearModel(np.array([1.0])), LinearModel(np.array([2.0])))
        return folds, models

    def test_model_count_or_score_length_that_does_not_fit_the_folds_rejected(self):
        folds, models = self.two_folds()
        scores = [4.0, 1.0, 3.0, 2.0, np.nan]
        assert CvScores(scores, models, folds).folds is folds
        for bad in (models[:1], models + models[:1]):
            with pytest.raises(InvalidConfigurationError, match=f"{len(bad)} fold models"):
                CvScores(scores, bad, folds)
        for bad in (scores[:4], scores + [5.0], [scores]):
            with pytest.raises(InvalidConfigurationError, match=re.escape(f"{np.shape(bad)}")):
                CvScores(bad, models, folds)

    def test_each_fold_is_sorted_once_into_one_read_only_array(self):
        folds, models = self.two_folds()
        cv = CvScores([4.0, 1.0, 3.0, 2.0, np.nan], models, folds)
        assert cv.sorted_scores.tolist() == [2.0, 4.0, 1.0, 3.0]
        assert [s.tolist() for s in cv.sorted_by_fold] == [[2.0, 4.0], [1.0, 3.0]]
        for arr in (cv.sorted_scores,) + cv.sorted_by_fold:
            assert np.shares_memory(arr, cv.sorted_scores)
            with pytest.raises(ValueError):
                arr[0] = 0.0


class TestFoldPredictions:
    def test_matches_refit_oracle_on_random_queries(self):
        gen = np.random.default_rng(4)
        data = Dataset(gen.standard_normal((18, 3)), gen.standard_normal(18))
        folds = assign_folds(18, 3, "equal", RandomSource(8))
        spec = ScoreFunctionSpec()
        cv = compute_cv_scores(data, folds, spec)
        refits = [fit(spec.regressor, data.subset(folds.complement(k))) for k in range(3)]
        gen = np.random.default_rng(5)
        for _ in range(100):
            x = gen.standard_normal(3)
            oracle = [float(m.predict(x[None, :])[0]) for m in refits]
            assert np.allclose(fold_predictions(cv, x)[0], oracle, rtol=0, atol=1e-10)
