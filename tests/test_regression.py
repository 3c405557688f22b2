"""Tests for the symmetric regressors and their permutation invariance."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossconf import (
    CvScores,
    Dataset,
    FoldAssignment,
    InvalidConfigurationError,
    KnnModel,
    LinearModel,
    RandomSource,
    RegressorSpec,
    ScoreFunctionSpec,
    SplitState,
    assign_folds,
    compute_cv_scores,
    cv_plus_from_scores,
    fit,
    fold_method_sets,
    parse_regressor,
    split_set_from_state,
)
from crossconf import regression
from crossconf.regression import _KNN_BLOCK_BYTES, RCOND
from oracles import discarded, hand_folds, lstsq_min_norm_oracle


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
        model = fit(RegressorSpec("ols"), Dataset(np.eye(2), np.array([2.0, 3.0])))
        assert np.allclose(model.coef, [2.0, 3.0])

    def test_underdetermined_single_row(self):
        # pseudoinverse of [1, 1] by hand: X'/(X X') = (0.5, 0.5), so beta = (1, 1)
        model = fit(RegressorSpec("ols"), Dataset(np.array([[1.0, 1.0]]), np.array([2.0])))
        assert np.allclose(model.coef, [1.0, 1.0], atol=1e-12)

    def test_matches_normal_equations_when_full_rank(self):
        gen = np.random.default_rng(0)
        x = gen.standard_normal((50, 5))
        y = gen.standard_normal(50)
        model = fit(RegressorSpec("ols"), Dataset(x, y))
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        assert np.linalg.norm(model.coef - oracle) / np.linalg.norm(oracle) < 1e-8

    def test_pseudoinverse_consistency(self):
        # the fit is the pseudoinverse solution X^+ y: it solves the normal
        # equations X'(X b - y) = 0 and has no part along the null space of X,
        # on random shapes up to 100 x 150
        gen = np.random.default_rng(1)
        for n, p in [(10, 3), (3, 10), (40, 40), (100, 150), (150, 100)]:
            x = gen.standard_normal((n, p))
            y = gen.standard_normal(n)
            coef = fit(RegressorSpec("ols"), Dataset(x, y)).coef
            assert np.allclose(x.T @ (x @ coef - y), 0.0, atol=1e-8)
            _, sing, vt = np.linalg.svd(x)
            null_space = vt[np.count_nonzero(sing > RCOND * sing[0]) :]
            assert np.allclose(null_space @ coef, 0.0, atol=1e-8)

    def test_prediction_shape(self):
        model = fit(RegressorSpec("ols"), Dataset(np.eye(3), np.ones(3)))
        assert model.predict(np.ones((4, 3))).shape == (4,)


# Designs for the lstsq oracle: Gaussian tall, wide and square ones;
# rank-deficient ones (a duplicated column with no more columns than rows, or a
# duplicated row with more columns than rows); features whose Gram overflows
# (x 1e160) or underflows (x 1e-160); and small features with tiny responses
# (x 1e-150, y x 1e-300), whose X'y underflows unless y is scaled first.
DESIGNS = ("tall", "wide", "square", "duplicated-column", "duplicated-row",
           "huge", "tiny", "tiny-responses")
RANK_DEFICIENT = ("duplicated-column", "duplicated-row")
# A Cholesky fit is kept only where cond_2(X) < _GRAM_COND_MAX = 1e4; there the
# Gram solve and lstsq each lose at most about cond^2 eps = 2.2e-8 times a small
# factor of the dimension, so they agree to 1e-6 relative to the largest
# coefficient. Over 30,000 Gaussian designs up to 40 x 60 the largest gap was 7e-10.
ORACLE_RTOL = 1e-6


@st.composite
def oracle_designs(draw):
    kind = draw(st.sampled_from(DESIGNS))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(2, 40))
    if kind == "tall":
        cols = draw(st.integers(1, rows - 1))
    elif kind == "duplicated-column":
        cols = draw(st.integers(2, rows))
    elif kind in ("wide", "duplicated-row"):
        cols = draw(st.integers(rows + 1, 60))
    elif kind == "square":
        cols = rows
    else:
        cols = draw(st.integers(2, 60))
    x = gen.standard_normal((rows, cols))
    y = gen.standard_normal(rows)
    if kind == "duplicated-column":
        x[:, -1] = x[:, 0]
    elif kind == "duplicated-row":
        x[-1] = x[0]
    elif kind == "huge":
        x *= 1e160
    elif kind == "tiny":
        x *= 1e-160
    elif kind == "tiny-responses":
        x *= 1e-150
        y *= 1e-300
    return kind, x, y


@pytest.fixture
def lstsq_calls(monkeypatch):
    """(design shape, rcond) of every lstsq call made through the name
    regression uses."""
    calls, real = [], np.linalg.lstsq

    def counting(a, b, rcond=None):
        calls.append((a.shape, rcond))
        return real(a, b, rcond=rcond)

    monkeypatch.setattr(regression.np.linalg, "lstsq", counting)
    return calls


class TestMinNormOlsAgainstLstsq:
    @given(design=oracle_designs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_lstsq_oracle(self, design):
        kind, x, y = design
        coef = fit(RegressorSpec("ols"), Dataset(x, y)).coef
        want = lstsq_min_norm_oracle(x, y)
        assert np.isfinite(coef).all()
        # max norms: the 2-norm of a 1e160-sized vector overflows
        assert np.abs(coef - want).max() <= ORACLE_RTOL * np.abs(want).max()
        if kind in RANK_DEFICIENT:
            # the Gram of a rank-deficient design fails the bound, so the fit
            # is the lstsq call itself
            assert coef.tobytes() == want.tobytes()

    # the paper's fold and split fits: n = 100, K = 5, p in {5, 50, 100, 150}
    @pytest.mark.parametrize("shape", [(80, 150), (80, 50), (80, 5), (80, 100), (50, 150)])
    def test_a_well_conditioned_fit_makes_no_lstsq_call(self, lstsq_calls, shape):
        gen = np.random.default_rng(40)
        data = Dataset(gen.standard_normal(shape), gen.standard_normal(shape[0]))
        fit(RegressorSpec("ols"), data)
        assert lstsq_calls == []

    @staticmethod
    def conditioned_design(c):
        """A tall 80 x 20 design U diag(c, 1, ..., 1) V', so cond_2(X) = c,
        tr(G) = c^2 + 19 and lambda_min(G) = 1, and a response."""
        gen = np.random.default_rng(46)
        u = np.linalg.qr(gen.standard_normal((80, 20)))[0]
        v = np.linalg.qr(gen.standard_normal((20, 20)))[0]
        sing = np.ones(20)
        sing[0] = c
        return (u * sing) @ v.T, gen.standard_normal(80)

    # c = 9e3: tr(G) = 8.1e7 + 19 < 1e8 lambda_min(G), certified, where the
    # former bound tr(G) tr(G^-1), about 19 c^2, sent the design to lstsq;
    # c = 1.1e4: tr(G) = 1.21e8 + 19 > 1e8 lambda_min(G), so lstsq
    @pytest.mark.parametrize("c, calls", [(9e3, []), (1.1e4, [((80, 20), RCOND)])])
    def test_the_certificate_keeps_a_design_below_its_bound(self, lstsq_calls, c, calls):
        x, y = self.conditioned_design(c)
        coef = fit(RegressorSpec("ols"), Dataset(x, y)).coef
        assert lstsq_calls == calls
        want = lstsq_min_norm_oracle(x, y)
        assert np.abs(coef - want).max() <= ORACLE_RTOL * np.abs(want).max()

    def test_a_duplicated_column_falls_back_to_lstsq_with_rcond(self, lstsq_calls):
        gen = np.random.default_rng(41)
        x = gen.standard_normal((80, 50))
        x[:, 1] = x[:, 0]
        model = fit(RegressorSpec("ols"), Dataset(x, gen.standard_normal(80)))
        assert lstsq_calls == [((80, 50), RCOND)]
        # the min-norm solution splits the weight evenly over the two copies
        assert model.coef[0] == pytest.approx(model.coef[1], rel=1e-9)


class TestRidge:
    def test_zero_penalty_equals_min_norm(self):
        gen = np.random.default_rng(2)
        x = gen.standard_normal((30, 4))
        y = gen.standard_normal(30)
        a = fit(RegressorSpec("ridge", ridge_lambda=0.0), Dataset(x, y))
        b = fit(RegressorSpec("ols"), Dataset(x, y))
        assert np.allclose(a.coef, b.coef, atol=1e-8)

    def test_zero_penalty_rank_deficient_falls_back(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = fit(RegressorSpec("ridge", ridge_lambda=0.0), Dataset(x, y))
        # min-norm solution splits the coefficient evenly across the duplicated column
        assert np.allclose(model.coef, [0.5, 0.5], atol=1e-10)

    def test_huge_penalty_shrinks_to_zero(self):
        gen = np.random.default_rng(3)
        x = gen.standard_normal((20, 3))
        y = gen.standard_normal(20)
        model = fit(RegressorSpec("ridge", ridge_lambda=1e12), Dataset(x, y))
        assert np.all(np.abs(model.coef) < 1e-6)

    def test_identity_design_by_hand(self):
        # (I + I)^-1 (2, 3) = (1, 1.5)
        model = fit(RegressorSpec("ridge", ridge_lambda=1.0), Dataset(np.eye(2), np.array([2.0, 3.0])))
        assert np.allclose(model.coef, [1.0, 1.5])

    def test_negative_penalty_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            fit(RegressorSpec("ridge", ridge_lambda=-0.1), Dataset(np.eye(2), np.ones(2)))

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 40.0])
    @pytest.mark.parametrize("shape", [(30, 4), (80, 50), (80, 150), (50, 100)])
    def test_matches_the_primal_solve(self, shape, lam):
        # the former formula (X'X + lambda I)^-1 X'y on p x p, to 1e-9 relative:
        # every system here has cond_2 below about 1e4
        gen = np.random.default_rng(43)
        x, y = gen.standard_normal(shape), gen.standard_normal(shape[0])
        want = np.linalg.solve(x.T @ x + lam * np.eye(shape[1]), x.T @ y)
        got = fit(RegressorSpec("ridge", ridge_lambda=lam), Dataset(x, y)).coef
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_an_overflowing_gram_falls_back_to_augmented_lstsq(self, lstsq_calls):
        # features near 1e160 overflow X'X, so the fit is lstsq on
        # [X; sqrt(lambda) I] and [y; 0]; lambda = 1 is negligible beside
        # X'X, so it gives the least squares fit
        gen = np.random.default_rng(44)
        x, y = 1e160 * gen.standard_normal((30, 6)), gen.standard_normal(30)
        got = fit(RegressorSpec("ridge", ridge_lambda=1.0), Dataset(x, y)).coef
        assert lstsq_calls == [((36, 6), RCOND)]
        want = lstsq_min_norm_oracle(x, y)
        assert np.abs(got - want).max() <= ORACLE_RTOL * np.abs(want).max()


class TestKnn:
    def test_full_neighborhood_is_global_mean(self):
        gen = np.random.default_rng(4)
        x = gen.standard_normal((12, 2))
        y = gen.standard_normal(12)
        model = fit(RegressorSpec("knn", knn_k=12), Dataset(x, y))
        preds = model.predict(gen.standard_normal((5, 2)))
        assert np.allclose(preds, y.mean())

    def test_exact_match_with_k1(self):
        x = np.array([[0.0], [5.0], [9.0]])
        y = np.array([1.0, 2.0, 3.0])
        model = fit(RegressorSpec("knn", knn_k=1), Dataset(x, y))
        assert model.predict(np.array([[5.0]]))[0] == 2.0

    def test_two_nearest_mean_by_hand(self):
        # distances 1, 2, 3 from the query; mean of the two nearest is 15
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([10.0, 20.0, 30.0])
        model = fit(RegressorSpec("knn", knn_k=2), Dataset(x, y))
        assert model.predict(np.array([[0.0]]))[0] == 15.0

    def test_distance_ties_break_on_response(self):
        # both rows sit at distance 1; k=1 must pick the smaller response
        x = np.array([[1.0], [-1.0]])
        y = np.array([9.0, 5.0])
        model = fit(RegressorSpec("knn", knn_k=1), Dataset(x, y))
        assert model.predict(np.array([[0.0]]))[0] == 5.0

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            fit(RegressorSpec("knn", knn_k=3), Dataset(np.eye(2), np.ones(2)))


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
        step = max(1, _KNN_BLOCK_BYTES // 16 // n)  # query rows per chunk
        queries = gen.integers(-3, 4, size=(2 * step + 7, p)).astype(float)
        queries[::5] += 0.5
        if standardize:  # z-scored columns: non-integer features whose distances still tie
            shift, scale = x.mean(axis=0), x.std(axis=0)
            scale[scale == 0] = 1.0
            x, queries = (x - shift) / scale, (queries - shift) / scale
        model = fit(RegressorSpec("knn", knn_k=kk), Dataset(x, y))
        assert np.array_equal(model.predict(queries), lexsort_knn_oracle(model, queries))

    def test_continuous_features(self):
        gen = np.random.default_rng(11)
        x = gen.standard_normal((300, 8))
        y = gen.standard_normal(300) * 1e3
        for k in (1, 7, 300):
            model = fit(RegressorSpec("knn", knn_k=k), Dataset(x, y))
            queries = gen.standard_normal((40, 8))
            assert np.array_equal(model.predict(queries), lexsort_knn_oracle(model, queries))

    def test_nan_query_ranks_by_response(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([3.0, 1.0, 2.0])
        model = fit(RegressorSpec("knn", knn_k=2), Dataset(x, y))
        queries = np.array([[np.nan], [0.4]])
        assert np.array_equal(model.predict(queries), lexsort_knn_oracle(model, queries))


class TestKnnFilterAgainstLexsortOracle:
    """The candidate filter must keep every neighbour the full ranking would
    pick, so each case is bit-equal to the lexsort oracle. Every case also runs
    with a 2 KiB chunk budget, which sends one query per chunk through the
    filter and the exact distances through many candidate slices."""

    @pytest.fixture(params=[None, 2048], ids=["budget", "tiny-budget"], autouse=True)
    def budget(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(regression, "_KNN_BLOCK_BYTES", request.param)

    @staticmethod
    def check(x, y, queries, ks=(1, 7, "n")):
        for k in ks:
            model = KnnModel(x, y, x.shape[0] if k == "n" else k)
            got = model.predict(queries)
            assert got.tobytes() == lexsort_knn_oracle(model, queries).tobytes(), k

    @pytest.mark.parametrize("p", [1, 7, 8, 9, 130])
    def test_pairwise_summation_boundaries(self, p):
        # numpy sums 8 lanes at a time and splits blocks above 128 terms
        gen = np.random.default_rng(200 + p)
        x = gen.standard_normal((120, p))
        self.check(x, gen.standard_normal(120), gen.standard_normal((25, p)))
        grid = gen.integers(-1, 2, size=(120, p)).astype(float)
        queries = gen.integers(-1, 2, size=(25, p)) + np.where(gen.random((25, p)) < 0.2, 0.5, 0.0)
        self.check(grid, np.round(gen.standard_normal(120), 1), queries)

    def test_duplicated_training_rows(self):
        gen = np.random.default_rng(21)
        base = gen.integers(-2, 3, size=(30, 3)).astype(float)
        x = np.repeat(base, 4, axis=0)
        y = np.round(gen.standard_normal(120), 0)
        queries = np.vstack([base[:10], gen.standard_normal((15, 3))])
        self.check(x, y, queries)

    def test_common_offset(self):
        gen = np.random.default_rng(22)
        x = 1e8 + gen.standard_normal((150, 8))
        queries = 1e8 + gen.standard_normal((30, 8))
        self.check(x, gen.standard_normal(150), queries)

    @pytest.mark.parametrize("centre", [1e150, 1e153, 3e153])
    def test_clusters_far_from_the_mean(self, centre):
        # two tight clusters at +-centre: a2 and b2 near (3e153: past) a
        # quarter of the float range while distances inside a cluster stay
        # ten orders of magnitude smaller
        gen = np.random.default_rng(23)
        side = np.where(np.arange(100) < 50, 1.0, -1.0)[:, None]
        x = side * centre * (1.0 + 1e-10 * gen.standard_normal((100, 4)))
        y = np.round(gen.standard_normal(100), 1)
        queries = np.vstack([x[::7] * (1.0 + 1e-10 * gen.standard_normal((15, 4))), x[::11]])
        self.check(x, y, queries)

    def test_squares_that_underflow(self):
        gen = np.random.default_rng(24)
        x = 1e-160 * gen.standard_normal((100, 5))
        y = np.round(gen.standard_normal(100), 1)
        self.check(x, y, 1e-160 * gen.standard_normal((20, 5)))
        grid = 1e-160 * gen.integers(-2, 3, size=(100, 5))
        self.check(grid, y, 1e-160 * gen.integers(-2, 3, size=(20, 5)))

    def test_nan_and_inf_queries(self):
        gen = np.random.default_rng(25)
        x = gen.integers(-2, 3, size=(60, 3)).astype(float)
        y = np.round(gen.standard_normal(60), 1)
        nan, inf = np.nan, np.inf
        queries = np.array([[nan, 0.0, 0.0], [inf, 0.0, 0.0], [-inf, 1.0, 0.0], [inf, -inf, 0.0],
                            [nan, inf, 0.0], [0.5, 0.0, -1.0]])
        self.check(x, y, queries)

    def test_queries_whose_squares_overflow(self):
        gen = np.random.default_rng(26)
        x = gen.standard_normal((50, 3))
        queries = np.array([[1e200, 0.0, 0.0], [-1e300, 1e300, 0.0], [0.1, 0.2, 0.3]])
        with np.errstate(over="ignore"):
            self.check(x, np.round(gen.standard_normal(50), 1), queries)

    @given(
        data=st.data(),
        n=st.integers(1, 25),
        p=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_grids_with_repeated_responses(self, data, n, p):
        ints = st.integers(-2, 2)
        x = np.array(data.draw(st.lists(st.lists(ints, min_size=p, max_size=p),
                                        min_size=n, max_size=n)), dtype=float)
        y = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                        min_size=n, max_size=n)))
        q = np.array(data.draw(st.lists(st.lists(ints, min_size=p, max_size=p),
                                        min_size=1, max_size=6)), dtype=float) / 2
        k = data.draw(st.integers(1, n))
        self.check(x, y, q, ks=(k,))


class TestKnnModelValidation:
    def test_features_and_responses_must_align(self):
        for feats, resp in [(np.zeros((3, 2)), np.zeros(4)), (np.zeros(3), np.zeros(3)),
                            (np.zeros((3, 2)), np.zeros((3, 1)))]:
            with pytest.raises(InvalidConfigurationError, match="one response per row"):
                KnnModel(feats, resp, 1)

    @pytest.mark.parametrize("k", [0, -1, 4])
    def test_k_outside_one_to_n(self, k):
        with pytest.raises(InvalidConfigurationError, match="between 1 and the training size 3"):
            KnnModel(np.zeros((3, 2)), np.zeros(3), k)
        with pytest.raises(InvalidConfigurationError):
            fit(RegressorSpec("knn", knn_k=k), Dataset(np.zeros((3, 2)), np.zeros(3)))
        assert KnnModel(np.zeros((3, 2)), np.zeros(3), 3).predict(np.ones(2)) == 0.0

    @pytest.mark.parametrize("k", [2.5, 2.0])
    def test_k_must_be_an_integer(self, k):
        # refused when built, not when a prediction reaches np.partition
        with pytest.raises(InvalidConfigurationError, match="must be an integer"):
            RegressorSpec("knn", knn_k=k)
        with pytest.raises(InvalidConfigurationError, match="must be an integer"):
            KnnModel(np.zeros((3, 2)), np.zeros(3), k)
        assert KnnModel(np.zeros((3, 2)), np.zeros(3), np.int64(2)).predict(np.ones(2)) == 0.0

    @pytest.mark.parametrize("text", ["ols", "knn:2"])
    def test_query_width_must_match_the_fit(self, text):
        gen = np.random.default_rng(27)
        data = Dataset(gen.standard_normal((20, 3)), gen.standard_normal(20))
        model = fit(parse_regressor(text), data)
        for bad in (np.zeros(4), np.zeros((2, 2)), 1.0, np.zeros((1, 1, 3))):
            with pytest.raises(InvalidConfigurationError, match="the model's 3 features"):
                model.predict(bad)
        with pytest.raises(InvalidConfigurationError, match="width 4 .* 3 features"):
            model.predict(np.zeros((5, 4)))
        folds = assign_folds(20, 4, "equal", RandomSource(8))
        cv = compute_cv_scores(data, folds, ScoreFunctionSpec("residual", parse_regressor(text)))
        with pytest.raises(InvalidConfigurationError, match="width 4 .* 3 features"):
            fold_method_sets(cv, folds, np.zeros(4), 0.2, ["mod"])


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
        a = fit(RegressorSpec("knn", knn_k=2), Dataset(x, y)).predict(np.array([[0.1]]))[0]
        b = fit(RegressorSpec("knn", knn_k=2), Dataset(x[::-1], y[::-1])).predict(np.array([[0.1]]))[0]
        assert a == b == 4.0


class TestRowWisePredictions:
    """A prediction depends only on the model and its row: a block of rows gives
    the bits of one call per row, and the order in which a fold's members are
    scored cannot move a CV score."""

    SPECS = ["ols", "ridge:0.5", "knn:4"]

    @staticmethod
    def dataset(text, n, gen, p=9):
        # integer features make many kNN distances tie
        if text.startswith("knn"):
            x = gen.integers(0, 3, (n, p)).astype(float)
        else:
            x = gen.standard_normal((n, p))
        return Dataset(x, x @ gen.standard_normal(p) + gen.standard_normal(n))

    @pytest.mark.parametrize("text", SPECS)
    def test_a_block_gives_the_bits_of_one_call_per_row(self, text, monkeypatch):
        gen = np.random.default_rng(11)
        model = fit(parse_regressor(text), self.dataset(text, 1000, gen))
        block = self.dataset(text, 40, gen).features
        # kNN query chunks of 8 rows over 1000 training rows: the block spans five
        monkeypatch.setattr(regression, "_KNN_BLOCK_BYTES", 16 * 1000 * 8)
        alone = np.array([model.predict(block[i : i + 1])[0] for i in range(block.shape[0])])
        assert model.predict(block).tobytes() == alone.tobytes()
        # the layout of the block does not matter either
        strided = np.repeat(block, 2, axis=1)[:, ::2]
        for layout, rows in ((strided, alone), (np.asfortranarray(block), alone),
                             (block[::-1], alone[::-1])):
            assert model.predict(layout).tobytes() == rows.tobytes()

    @pytest.mark.parametrize("text", SPECS)
    def test_cv_scores_do_not_depend_on_the_order_of_a_folds_members(self, text):
        gen = np.random.default_rng(12)
        data = self.dataset(text, 200, gen)
        folds = assign_folds(200, 4, "equal", RandomSource(5))
        spec = ScoreFunctionSpec("residual", parse_regressor(text))
        base = compute_cv_scores(data, folds, spec).scores
        for k, members in enumerate(folds.fold_members):
            for _ in range(3):
                shuffled = list(folds.fold_members)
                shuffled[k] = gen.permutation(members)
                relabelled = hand_folds(shuffled, discarded(folds))
                got = compute_cv_scores(data, relabelled, spec).scores
                # fold k's model trains on the same rows in the same order
                assert got[members].tobytes() == base[members].tobytes()


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
        coef, feats, resp = np.array([1.0]), np.ones((3, 1)), np.arange(3.0)
        built = [LinearModel(coef), KnnModel(feats, resp, 2),
                 SplitState(resp[:2], 2, LinearModel(coef))]
        for obj in built:
            for f in dataclasses.fields(obj):
                arr = getattr(obj, f.name)
                if isinstance(arr, np.ndarray):
                    assert not any(np.shares_memory(arr, a) for a in (coef, feats, resp))
                    with pytest.raises(ValueError):
                        arr[...] = 0

    def test_a_memoized_fold_context_cannot_go_stale(self):
        models = [LinearModel(np.array([1.0])), LinearModel(np.array([2.0]))]
        folds = hand_folds([[0, 1], [2, 3]])
        cv = CvScores([0.5, 1.0, 1.5, 2.0], models, folds)
        before = cv_plus_from_scores(cv, folds, [1.0], 0.4)
        with pytest.raises(ValueError):
            models[0].coef[0] = 50.0
        assert cv_plus_from_scores(cv, folds, [1.0], 0.4) == before

    def test_read_only_arrays_are_not_copied(self):
        # a subset's fresh arrays are frozen in place, so no fit on it, nor a
        # container rebuilt on them, copies them again
        gen = np.random.default_rng(3)
        data = Dataset(gen.standard_normal((12, 3)), gen.standard_normal(12))
        for train in (data, data.subset([4, 0, 7, 2, 9, 11])):
            knn = fit(RegressorSpec("knn", knn_k=3), train)
            assert knn.train_features is train.features
            assert knn.train_responses is train.responses
            again = Dataset(train.features, train.responses)
            assert again.features is train.features and again.responses is train.responses
            ols = fit(RegressorSpec("ols"), train)
            assert LinearModel(ols.coef).coef is ols.coef


def one_of_each_container(feats, resp, coef, order, offsets):
    """A Dataset, FoldAssignment, LinearModel, KnnModel, SplitState and CvScores
    built on these five arrays: a (3, 1) matrix, a 3-vector of scores and
    responses, a 1-vector coefficient, and a three-fold assignment of 3 points."""
    model = LinearModel(coef)
    folds = FoldAssignment(order, offsets)
    return [Dataset(feats, resp), folds, model, KnnModel(feats, resp, 2),
            SplitState(resp, 2, model), CvScores(resp, (model,) * 3, folds)]


def five_arrays():
    return (np.ones((3, 1)), np.arange(3.0), np.array([2.0]), np.arange(3), np.arange(4))


class TestContainerOwnership:
    def test_no_container_keeps_a_read_only_view_of_writable_memory(self):
        # the base's owner could still write through such a view, under a
        # memoized block or fold context
        bases = five_arrays()
        views = [base.view() for base in bases]
        for view in views:
            view.setflags(write=False)
        for obj in one_of_each_container(*views):
            arrays = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
            arrays = [(name, a) for name, a in arrays if isinstance(a, np.ndarray)]
            assert arrays
            for name, arr in arrays:
                where = f"{type(obj).__name__}.{name}"
                assert arr.flags.owndata and not arr.flags.writeable, where
                assert not any(np.shares_memory(arr, base) for base in bases), where

    def test_a_split_set_does_not_go_stale_when_the_base_of_its_model_is_written(self):
        base = np.array([2.0])
        view = base.view()
        view.setflags(write=False)
        # mu = 3 and the 9th of the scores 1..10 is 9
        state = SplitState(np.arange(1.0, 11.0), 9, LinearModel(view))
        assert split_set_from_state(state, [1.5]).intervals == ((-6.0, 12.0),)
        base[:] = 100.0
        assert state.model.predict([1.5]).tolist() == [3.0]
        assert split_set_from_state(state, [1.5]).intervals == ((-6.0, 12.0),)

    def test_equal_valued_containers_compare_by_identity_and_hash(self):
        # a generated == would compare the arrays and raise ValueError, and a
        # generated hash would raise TypeError
        for a, b in zip(one_of_each_container(*five_arrays()),
                        one_of_each_container(*five_arrays())):
            assert a == a and a != b, type(a).__name__
            assert len({a, b, a}) == 2


class TestSpecParsing:
    def test_round_trips(self):
        assert parse_regressor("ols") == RegressorSpec("ols")
        assert parse_regressor("ridge:0.2") == RegressorSpec("ridge", ridge_lambda=0.2)
        assert parse_regressor("knn:25") == RegressorSpec("knn", knn_k=25)
        assert parse_regressor("ridge") == parse_regressor("ridge:0") == RegressorSpec("ridge")
        assert parse_regressor("knn:1") == RegressorSpec("knn")

    def test_bad_strings(self):
        for text in ["boost", "ridge:x", "knn:2.5", "ols:1", "ridge:nan", "ridge:inf"]:
            with pytest.raises(InvalidConfigurationError):
                parse_regressor(text)

    def test_invalid_parameters(self):
        for lam in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidConfigurationError, match="finite and nonnegative"):
                RegressorSpec("ridge", ridge_lambda=lam)
        with pytest.raises(InvalidConfigurationError):
            RegressorSpec("knn", knn_k=0)

    @pytest.mark.parametrize("kind, params", [
        ("ols", {"ridge_lambda": 0.5}),
        ("ols", {"knn_k": 3}),
        ("ridge", {"ridge_lambda": 0.5, "knn_k": 2}),
        ("knn", {"knn_k": 3, "ridge_lambda": 0.1}),
    ])
    def test_a_parameter_the_kind_does_not_use_is_refused(self, kind, params):
        # an ignored parameter would fit another model than the one asked for
        with pytest.raises(InvalidConfigurationError, match=f"{kind} takes no"):
            RegressorSpec(kind, **params)
