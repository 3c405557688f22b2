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
    fit_knn,
    fit_min_norm_ols,
    fit_ridge,
    fold_method_sets,
    parse_regressor,
)
from crossconf import regression
from crossconf.regression import _KNN_BLOCK_BYTES, RCOND
from oracles import lstsq_min_norm_oracle


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
        # the fit is the pseudoinverse solution X^+ y: it solves the normal
        # equations X'(X b - y) = 0 and has no part along the null space of X,
        # on random shapes up to 100 x 150
        gen = np.random.default_rng(1)
        for n, p in [(10, 3), (3, 10), (40, 40), (100, 150), (150, 100)]:
            x = gen.standard_normal((n, p))
            y = gen.standard_normal(n)
            coef = fit_min_norm_ols(Dataset(x, y)).coef
            assert np.allclose(x.T @ (x @ coef - y), 0.0, atol=1e-8)
            _, sing, vt = np.linalg.svd(x)
            null_space = vt[np.count_nonzero(sing > RCOND * sing[0]) :]
            assert np.allclose(null_space @ coef, 0.0, atol=1e-8)

    def test_prediction_shape(self):
        model = fit_min_norm_ols(Dataset(np.eye(3), np.ones(3)))
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
        coef = fit_min_norm_ols(Dataset(x, y)).coef
        want = lstsq_min_norm_oracle(x, y)
        assert np.isfinite(coef).all()
        # max norms: the 2-norm of a 1e160-sized vector overflows
        assert np.abs(coef - want).max() <= ORACLE_RTOL * np.abs(want).max()
        if kind in RANK_DEFICIENT:
            # the Gram of a rank-deficient design fails the bound, so the fit
            # is the lstsq call itself
            assert coef.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(80, 150), (80, 50)])
    def test_a_well_conditioned_fit_makes_no_lstsq_call(self, lstsq_calls, shape):
        gen = np.random.default_rng(40)
        fit_min_norm_ols(Dataset(gen.standard_normal(shape), gen.standard_normal(shape[0])))
        assert lstsq_calls == []

    def test_a_duplicated_column_falls_back_to_lstsq_with_rcond(self, lstsq_calls):
        gen = np.random.default_rng(41)
        x = gen.standard_normal((80, 50))
        x[:, 1] = x[:, 0]
        model = fit_min_norm_ols(Dataset(x, gen.standard_normal(80)))
        assert lstsq_calls == [((80, 50), RCOND)]
        # the min-norm solution splits the weight evenly over the two copies
        assert model.coef[0] == pytest.approx(model.coef[1], rel=1e-9)


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

    @pytest.mark.parametrize("lam", [1e-3, 0.5, 40.0])
    @pytest.mark.parametrize("shape", [(30, 4), (80, 50), (80, 150), (50, 100)])
    def test_matches_the_primal_solve(self, shape, lam):
        # the former formula (X'X + lambda I)^-1 X'y on p x p, to 1e-9 relative:
        # every system here has cond_2 below about 1e4
        gen = np.random.default_rng(43)
        x, y = gen.standard_normal(shape), gen.standard_normal(shape[0])
        want = np.linalg.solve(x.T @ x + lam * np.eye(shape[1]), x.T @ y)
        got = fit_ridge(Dataset(x, y), lam).coef
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_an_overflowing_gram_falls_back_to_augmented_lstsq(self, lstsq_calls):
        # features near 1e160 overflow X'X, so the fit is lstsq on
        # [X; sqrt(lambda) I] and [y; 0]; lambda = 1 is negligible beside
        # X'X, so it gives the least squares fit
        gen = np.random.default_rng(44)
        x, y = 1e160 * gen.standard_normal((30, 6)), gen.standard_normal(30)
        got = fit_ridge(Dataset(x, y), 1.0).coef
        assert lstsq_calls == [((36, 6), RCOND)]
        want = lstsq_min_norm_oracle(x, y)
        assert np.abs(got - want).max() <= ORACLE_RTOL * np.abs(want).max()


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
        step = max(1, _KNN_BLOCK_BYTES // 16 // n)  # query rows per chunk
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
            fit_knn(Dataset(np.zeros((3, 2)), np.zeros(3)), k)
        assert KnnModel(np.zeros((3, 2)), np.zeros(3), 3).predict(np.ones(2)) == 0.0

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
        a = fit_knn(Dataset(x, y), 2).predict(np.array([[0.1]]))[0]
        b = fit_knn(Dataset(x[::-1], y[::-1]), 2).predict(np.array([[0.1]]))[0]
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
                relabelled = FoldAssignment(folds.n, tuple(shuffled), folds.discarded, folds.mode)
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
