"""Tests for the symmetric regressors and their permutation invariance."""

import dataclasses

import numpy as np
import pytest

from crossconf import (
    CvScores,
    Dataset,
    FoldAssignment,
    InvalidConfigurationError,
    KnnModel,
    LinearModel,
    RegressorSpec,
    SplitState,
    cv_plus_from_scores,
    fit,
    fit_knn,
    fit_min_norm_ols,
    fit_ridge,
    parse_regressor,
)
from crossconf.regression import _KNN_BLOCK_BYTES


def lexsort_knn_oracle(model, queries):
    """Reference kNN: one full lexsort per query on distance, then response,
    then the features from column 0 outward."""
    mat = np.atleast_2d(np.asarray(queries, dtype=float))
    feats = model.train_features
    resp = model.train_responses
    p = feats.shape[1]
    out = np.empty(mat.shape[0])
    for i, row in enumerate(mat):
        dist = np.sqrt(((feats - row) ** 2).sum(axis=1))
        keys = [feats[:, j] for j in range(p - 1, -1, -1)] + [resp, dist]
        order = np.lexsort(keys)
        out[i] = resp[order[: model.k]].mean()
    return out


class TestMinNormOls:
    def test_identity_design(self):
        model = fit_min_norm_ols(Dataset(np.eye(2), np.array([2.0, 3.0])))
        assert np.allclose(model.coef, [2.0, 3.0])

    def test_underdetermined_single_row(self):
        # pseudoinverse of [1, 1] by hand: X'/(X X') = (0.5, 0.5), so beta = (1, 1)
        model = fit_min_norm_ols(Dataset(np.array([[1.0, 1.0]]), np.array([2.0])))
        assert np.allclose(model.coef, [1.0, 1.0], atol=1e-12)

    def test_matches_normal_equations_when_full_rank(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((50, 5))
        y = gen.standard_normal(50)
        model = fit_min_norm_ols(Dataset(x, y))
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.linalg.norm(model.coef - oracle) / np.linalg.norm(oracle) < 1e-8

    def test_pseudoinverse_consistency(self):
        # X X^+ X = X on random shapes up to 100 x 150
        gen = np.random.default_rng(1)
        for n, p in [(10, 3), (3, 10), (40, 40), (100, 150), (150, 100)]:
            x = gen.standard_normal((n, p))
            pinv = np.linalg.pinv(x, rcond=1e-10)
            assert np.allclose(x @ pinv @ x, x, atol=1e-8)

    def test_prediction_shape(self):
        model = fit_min_norm_ols(Dataset(np.eye(3), np.ones(3)))
        assert model.predict(np.ones((4, 3))).shape == (4,)


class TestRidge:
    def test_zero_penalty_equals_min_norm(self):
        gen = np.random.default_rng(2)
        x = gen.standard_normal((30, 4))
        y = gen.standard_normal(30)
        a = fit_ridge(Dataset(x, y), 0.0)
        b = fit_min_norm_ols(Dataset(x, y))
        assert np.allclose(a.coef, b.coef, atol=1e-8)

    def test_zero_penalty_rank_deficient_falls_back(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = fit_ridge(Dataset(x, y), 0.0)
        # min-norm solution splits the coefficient evenly across the duplicated column
        assert np.allclose(model.coef, [0.5, 0.5], atol=1e-10)

    def test_huge_penalty_shrinks_to_zero(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((20, 3))
        y = gen.standard_normal(20)
        model = fit_ridge(Dataset(x, y), 1e12)
        assert np.all(np.abs(model.coef) < 1e-6)

    def test_identity_design_by_hand(self):
        # (I + I)^-1 (2, 3) = (1, 1.5)
        model = fit_ridge(Dataset(np.eye(2), np.array([2.0, 3.0])), 1.0)
        assert np.allclose(model.coef, [1.0, 1.5])

    def test_negative_penalty_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            fit_ridge(Dataset(np.eye(2), np.ones(2)), -0.1)


class TestKnn:
    def test_full_neighborhood_is_global_mean(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((12, 2))
        y = gen.standard_normal(12)
        model = fit_knn(Dataset(x, y), 12)
        preds = model.predict(gen.standard_normal((5, 2)))
        assert np.allclose(preds, y.mean())

    def test_exact_match_with_k1(self):
        x = np.array([[0.0], [5.0], [9.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = fit_knn(Dataset(x, y), 1)
        assert model.predict(np.array([[5.0]]))[0] == 2.0

    def test_two_nearest_mean_by_hand(self):
        # distances 1, 2, 3 from the query; mean of the two nearest is 15
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([10.0, 20.0, 30.0])
        model = fit_knn(Dataset(x, y), 2)
        assert model.predict(np.array([[0.0]]))[0] == 15.0

    def test_distance_ties_break_on_response(self):
        # both rows sit at distance 1; k=1 must pick the smaller response
        x = np.array([[1.0], [-1.0]])
        y = np.array([9.0, 5.0])
        model = fit_knn(Dataset(x, y), 1)
        assert model.predict(np.array([[0.0]]))[0] == 5.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            fit_knn(Dataset(np.eye(2), np.ones(2)), 3)


class TestKnnAgainstLexsortOracle:
    """The blocked kernel must reproduce the lexsort loop bit for bit."""

    @pytest.mark.parametrize("standardize", [False, True], ids=["raw", "z"])
    @pytest.mark.parametrize("k", [1, 3, "n"])
    @pytest.mark.parametrize("p", [1, 3, 12])
    def test_integer_grid_with_ties(self, p, k, standardize):
        # few grid values per column and responses rounded to one decimal, so
        # distance ties straddle the k-th neighbour and responses repeat
        gen = np.random.default_rng(100 + p)
        n = 150
        x = gen.integers(-2, 3, size=(n, p)).astype(float)
        y = np.round(gen.standard_normal(n), 1)
        kk = n if k == "n" else k
        step = max(1, _KNN_BLOCK_BYTES // x.nbytes)
        queries = gen.integers(-3, 4, size=(2 * step + 7, p)).astype(float)
        queries[::5] += 0.5
        if standardize:  # z-scored columns: non-integer features whose distances still tie
            shift, scale = x.mean(axis=0), x.std(axis=0)
            scale[scale == 0] = 1.0
            x, queries = (x - shift) / scale, (queries - shift) / scale
        model = fit_knn(Dataset(x, y), kk)
        assert np.array_equal(model.predict(queries), lexsort_knn_oracle(model, queries))

    def test_continuous_features(self):
        gen = np.random.default_rng(11)
        x = gen.standard_normal((300, 8))
        y = gen.standard_normal(300) * 1e3
        for k in (1, 7, 300):
            model = fit_knn(Dataset(x, y), k)
            queries = gen.standard_normal((40, 8))
            assert np.array_equal(model.predict(queries), lexsort_knn_oracle(model, queries))

    def test_nan_query_ranks_by_response(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([3.0, 1.0, 2.0])
        model = fit_knn(Dataset(x, y), 2)
        queries = np.array([[np.nan], [0.4]])
        assert np.array_equal(model.predict(queries), lexsort_knn_oracle(model, queries))


class TestPermutationSymmetry:
    @pytest.mark.parametrize(
        "spec",
        [
            RegressorSpec("ols"),
            RegressorSpec("ridge", ridge_lambda=0.3),
            RegressorSpec("knn", knn_k=5),
        ],
        ids=["ols", "ridge", "knn"],
    )
    def test_row_permutations_leave_predictions_unchanged(self, spec):
        gen = np.random.default_rng(6)
        x = gen.standard_normal((40, 8))
        y = x @ gen.standard_normal(8) + gen.standard_normal(40)
        queries = gen.standard_normal((100, 8))
        base = fit(spec, Dataset(x, y)).predict(queries)
        for _ in range(50):
            perm = gen.permutation(40)
            permuted = fit(spec, Dataset(x[perm], y[perm])).predict(queries)
            assert np.allclose(base, permuted, atol=1e-10)

    def test_knn_with_duplicated_points(self):
        # exact duplicates make every ordering criterion tie; predictions must
        # still be permutation-invariant because the tied rows are identical
        x = np.array([[0.0], [0.0], [2.0]])
        y = np.array([4.0, 4.0, 8.0])
        a = fit_knn(Dataset(x, y), 2).predict(np.array([[0.1]]))[0]
        b = fit_knn(Dataset(x[::-1], y[::-1]), 2).predict(np.array([[0.1]]))[0]
        assert a == b == 4.0


class TestFittedModelsAreReadOnly:
    @pytest.mark.parametrize("text", ["ols", "ridge:0.5", "knn:3"])
    def test_in_place_write_to_a_fitted_array_raises(self, text):
        # fold contexts are memoized per fit, so a fit must not change under them
        gen = np.random.default_rng(2)
        data = Dataset(gen.standard_normal((12, 3)), gen.standard_normal(12))
        model = fit(parse_regressor(text), data)
        arrays = [getattr(model, f.name) for f in dataclasses.fields(model)]
        arrays = [a for a in arrays if isinstance(a, np.ndarray)]
        assert arrays
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] += 1.0

    def test_hand_built_types_own_read_only_copies(self):
        coef, feats, resp, idx = np.array([1.0]), np.ones((3, 1)), np.arange(3.0), np.arange(2)
        built = [LinearModel(coef), KnnModel(feats, resp, 2),
                 SplitState(idx, idx, resp[:2], 2, LinearModel(coef))]
        for obj in built:
            for f in dataclasses.fields(obj):
                arr = getattr(obj, f.name)
                if isinstance(arr, np.ndarray):
                    assert not any(np.shares_memory(arr, a) for a in (coef, feats, resp, idx))
                    with pytest.raises(ValueError):
                        arr[...] = 0

    def test_a_memoized_fold_context_cannot_go_stale(self):
        models = [LinearModel(np.array([1.0])), LinearModel(np.array([2.0]))]
        cv = CvScores([0.5, 1.0, 1.5, 2.0], models)
        folds = FoldAssignment(4, (np.array([0, 1]), np.array([2, 3])), np.array([], int), "equal")
        before = cv_plus_from_scores(cv, folds, [1.0], 0.4)
        with pytest.raises(ValueError):
            models[0].coef[0] = 50.0
        assert cv_plus_from_scores(cv, folds, [1.0], 0.4) == before

    def test_read_only_arrays_are_not_copied(self):
        gen = np.random.default_rng(3)
        data = Dataset(gen.standard_normal((12, 3)), gen.standard_normal(12))
        knn = fit_knn(data, 3)
        assert np.shares_memory(knn.train_features, data.features)
        assert np.shares_memory(knn.train_responses, data.responses)
        ols = fit_min_norm_ols(data)
        assert np.shares_memory(LinearModel(ols.coef).coef, ols.coef)


class TestSpecParsing:
    def test_round_trips(self):
        assert parse_regressor("ols") == RegressorSpec("ols")
        assert parse_regressor("ridge:0.2") == RegressorSpec("ridge", ridge_lambda=0.2)
        assert parse_regressor("knn:25") == RegressorSpec("knn", knn_k=25)

    def test_bad_strings(self):
        for text in ["boost", "ridge:x", "knn:2.5", "ols:1"]:
            with pytest.raises(InvalidConfigurationError):
                parse_regressor(text)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidConfigurationError):
            RegressorSpec("ridge", ridge_lambda=-1.0)
        with pytest.raises(InvalidConfigurationError):
            RegressorSpec("knn", knn_k=0)
