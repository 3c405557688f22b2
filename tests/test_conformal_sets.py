"""Tests for prediction-set construction: quantiles, scans, duals, containments."""

import math
import warnings

import numpy as np
import pytest

from conftest import make_pipeline, random_grid
from crossconf import (
    CvScores,
    Dataset,
    FoldAssignment,
    InformativenessWarning,
    InvalidConfigurationError,
    LinearModel,
    PredictionSet,
    RandomSource,
    RegressorSpec,
    ScoreFunctionSpec,
    SplitState,
    assign_folds,
    compute_cv_scores,
    cross_membership,
    cv_plus_from_scores,
    empirical_quantile,
    fit_min_norm_ols,
    fold_method_sets,
    simulate_instance,
    split_conformal,
    split_set_from_state,
)
from crossconf.conformal_sets import _pieces, _runs
from oracles import (
    all_fold_pvalues,
    cross_membership_pvalue_form,
    cv_plus_set,
    is_subset,
    split_pvalue,
    stat_emod,
    stat_eumod,
    stat_mod,
    stat_umod,
)

INF = float("inf")


def scan_runs_oracle(los, his, mask):
    """Reference run extraction: walk the mask one piece at a time."""
    out = []
    i = 0
    total = mask.size
    while i < total:
        if mask[i]:
            j = i
            while j + 1 < total and mask[j + 1]:
                j += 1
            out.append((los[i], his[j]))
            i = j + 1
        else:
            i += 1
    return out


class TestEmpiricalQuantile:
    def test_rank_formula_with_exact_real_level(self):
        # gamma * 9 = 0.8 * 10 = 8 in real arithmetic; float rounding must not
        # push the rank to 9
        z = np.arange(1.0, 10.0)
        gamma = 0.8 * (1 + 1 / 9)
        assert empirical_quantile(z, gamma) == 8.0

    def test_tiny_level_returns_minimum(self):
        z = np.array([5.0, 1.0, 3.0])
        assert empirical_quantile(z, 1e-9) == 1.0
        assert empirical_quantile(z, 1 / 3) == 1.0

    def test_level_above_one_is_infinite(self):
        # alpha = 0.1 on four points gives gamma = 0.9 * 1.25 = 1.125
        assert empirical_quantile(np.ones(4), 1.125) == INF

    def test_level_exactly_one_returns_maximum(self):
        z = np.array([2.0, 9.0, 4.0])
        assert empirical_quantile(z, 1.0) == 9.0

    def test_matches_rank_oracle_on_random_inputs(self):
        gen = np.random.default_rng(0)
        for _ in range(300):
            n = int(gen.integers(1, 40))
            z = gen.standard_normal(n)
            gamma = float(gen.uniform(0.01, 1.0))
            k = min(max(int(math.ceil(gamma * n - 1e-9)), 1), n)
            assert empirical_quantile(z, gamma) == np.sort(z)[k - 1]


class TestPredictionSet:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidConfigurationError):
            PredictionSet(((1.0, 0.0),))
        with pytest.raises(InvalidConfigurationError):
            PredictionSet(((0.0, 2.0), (1.0, 3.0)))
        with pytest.raises(InvalidConfigurationError):
            PredictionSet(((0.0, 1.0), (1.0, 2.0)))  # touching runs are one run
        with pytest.raises(InvalidConfigurationError):
            PredictionSet(((0.0, 1.0), (2.0, 3.0)), hulled=True)

    def test_membership_width_components(self):
        s = PredictionSet(((0.0, 1.0), (4.0, 6.0)))
        assert s.contains(0.0) and s.contains(5.0) and not s.contains(2.0)
        assert s.width == 3.0 and s.n_components == 2

    def test_infinite_width(self):
        assert PredictionSet(((-INF, 0.0),)).width == INF
        assert PredictionSet(((-INF, INF),)).width == INF

    def test_hull_spans_and_is_idempotent(self):
        s = PredictionSet(((0.0, 1.0), (4.0, 6.0)))
        h = s.hull()
        assert h.intervals == ((0.0, 6.0),) and h.hulled
        assert h.hull() == h
        assert PredictionSet(()).hull().intervals == ()

    def test_json_sentinels(self):
        s = PredictionSet(((-INF, 1.5), (2.0, INF)))
        assert s.to_jsonable() == [["-inf", 1.5], [2.0, "inf"]]

    def test_subset_checks(self):
        outer = PredictionSet(((0.0, 10.0), (20.0, 30.0)))
        assert is_subset(PredictionSet(((1.0, 2.0), (21.0, 30.0))), outer)
        assert not is_subset(PredictionSet(((9.0, 11.0),)), outer)
        assert is_subset(PredictionSet(()), outer)


def scan(endpoints, membership):
    """The piece scan that ``fold_method_sets`` runs, applied to a vectorized
    predicate: evaluate it on every piece and take the runs of the closed mask."""
    bounds, ys = _pieces(np.unique(np.asarray(endpoints, dtype=float)))
    return PredictionSet(tuple(_runs(bounds, membership(ys))))


class TestEndpointScan:
    def test_simple_predicate(self):
        s = scan(np.array([-2.0, 2.0]), lambda ys: np.abs(ys) <= 2.0)
        assert s.intervals == ((-2.0, 2.0),)

    def test_two_component_predicate(self):
        cands = np.array([0.0, 1.0, 3.0, 4.0])
        s = scan(cands, lambda ys: ((ys >= 0) & (ys <= 1)) | ((ys >= 3) & (ys <= 4)))
        assert s.intervals == ((0.0, 1.0), (3.0, 4.0))

    def test_rays(self):
        s = scan(np.array([5.0]), lambda ys: ys >= 5.0)
        assert s.intervals == ((5.0, INF),)
        s = scan(np.array([5.0]), lambda ys: ys <= 5.0)
        assert s.intervals == ((-INF, 5.0),)

    def test_isolated_point(self):
        s = scan(np.array([2.0]), lambda ys: ys == 2.0)
        assert s.intervals == ((2.0, 2.0),)
        assert s.width == 0.0

    def test_excluded_breakpoint_between_included_gaps_is_closed_over(self):
        # the two closed runs touch at 0 and merge: the scan returns the closure
        s = scan(np.array([0.0]), lambda ys: ys != 0.0)
        assert s.intervals == ((-INF, INF),) and s.contains(0.0)

    def test_open_ray_is_closed_at_its_breakpoint(self):
        s = scan(np.array([0.0]), lambda ys: ys < 0.0)
        assert s.intervals == ((-INF, 0.0),)

    def test_rays_beyond_unit_resolution(self):
        # at 1e17 a unit step rounds back onto the endpoint itself
        assert scan([1e17], lambda ys: ys > 1e17).intervals == ((1e17, INF),)
        assert scan([1e17], lambda ys: ys >= 1e17).intervals == ((1e17, INF),)
        assert scan([-1e17], lambda ys: ys < -1e17).intervals == ((-INF, -1e17),)

    def test_endpoints_near_float_max(self):
        big = 1.7e308
        assert scan([big], lambda ys: ys > big).intervals == ((big, INF),)
        assert scan([-big], lambda ys: ys < -big).intervals == ((-INF, -big),)
        # gap midpoints between huge endpoints must not overflow to infinity
        inside = lambda ys: (ys > big) & (ys < 1.75e308)
        assert scan([big, 1.75e308], inside).intervals == ((big, 1.75e308),)
        outside = lambda ys: (ys <= -big) | (ys >= big)
        assert scan([-big, big], outside).intervals == ((-INF, -big), (big, INF))

    def test_endpoint_at_float_max_probes_infinity(self):
        top = float(np.finfo(float).max)
        assert scan([top], lambda ys: ys <= top).intervals == ((-INF, top),)
        assert scan([-top], lambda ys: ys >= -top).intervals == ((-top, INF),)


def piece_bounds(bounds):
    """Per-piece (lo, hi) of the pieces between ``bounds``: the left ray, each
    breakpoint alternating with the gap after it, then the right ray."""
    m = bounds.size - 2
    los = np.empty(2 * m + 1)
    his = np.empty(2 * m + 1)
    los[0] = bounds[0]
    los[1::2] = bounds[1:-1]
    los[2::2] = bounds[1:-1]
    his[-1] = bounds[-1]
    his[1::2] = bounds[1:-1]
    his[0:-1:2] = bounds[1:-1]
    return los, his


def close_over_breakpoints(mask):
    """Reference closure: a false breakpoint (odd piece) between two true
    pieces becomes true."""
    closed = mask.copy()
    for i in range(1, mask.size - 1, 2):
        if mask[i - 1] and mask[i + 1]:
            closed[i] = True
    return closed


class TestRunsAgainstScanOracle:
    """Run extraction must match the piece-by-piece walk of the closed mask."""

    @staticmethod
    def check(mask):
        # built from bounds, not _pieces, so that a one-piece mask (no breakpoint) is covered
        mask = np.asarray(mask, dtype=bool)
        bounds = np.arange(mask.size // 2 + 2) * 2.0 - 0.5
        los, his = piece_bounds(bounds)
        assert _runs(bounds, mask) == scan_runs_oracle(los, his, close_over_breakpoints(mask))

    def test_random_masks(self):
        gen = np.random.default_rng(21)
        for _ in range(300):
            size = int(gen.integers(1, 80))
            self.check(gen.random(size) < gen.random())

    @pytest.mark.parametrize(
        "mask",
        [[True] * 9, [False] * 9, [True], [False], [True, False] * 5, [False, True] * 5],
        ids=["all-true", "all-false", "one-true", "one-false", "alt-true", "alt-false"],
    )
    def test_edge_masks(self, mask):
        self.check(mask)


def single_fold_state(scores, coef=0.0):
    """One fold holding len(scores) points, model predicting coef * x."""
    n = len(scores)
    folds = FoldAssignment(n, (np.arange(n),), np.array([], dtype=int), "equal")
    cv = CvScores(np.asarray(scores, float), (LinearModel(np.array([coef])),))
    return cv, folds


class TestVariantSets:
    def test_single_fold_rank_threshold_by_hand(self):
        # p-value (1 + #{|y| <= S}) / 4 exceeds 0.6 only with count >= 2,
        # which happens exactly on [-2, 2]
        cv, folds = single_fold_state([1.0, 2.0, 3.0])
        sets = fold_method_sets(cv, folds, np.array([0.0]), 0.6, ["mod"])
        assert sets["mod"].intervals == ((-2.0, 2.0),)

    def test_matches_direct_statistic_evaluation(self):
        # scan exactness: agreement with the scalar path at 10^4 random y
        data, folds, spec, cv, draws, tx, ty = make_pipeline(11, n=40, p=6, k=4)
        alpha = 0.12
        sets = fold_method_sets(
            cv, folds, tx, alpha, ["mod", "e-mod", "u-mod", "eu-mod"], draws=draws
        )
        gen = np.random.default_rng(1)
        ys = random_grid(gen, data, points=10_000)
        for y in ys:
            pv = all_fold_pvalues(tx, float(y), cv, folds)
            assert sets["mod"].contains(y) == (stat_mod(pv) > alpha)
            assert sets["e-mod"].contains(y) == (stat_emod(pv) > alpha)
            assert sets["u-mod"].contains(y) == (stat_umod(pv, draws) > alpha)
            assert sets["eu-mod"].contains(y) == (stat_eumod(pv, draws) > alpha)

    def test_containment_chains(self):
        for seed in range(30):
            for smoothed in (False, True):
                data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=60, p=10, k=5)
                sets = fold_method_sets(
                    cv, folds, tx, 0.1,
                    ["mod", "e-mod", "u-mod", "eu-mod", "cross",
                     "e-cross", "u-cross", "eu-cross"],
                    draws=draws, smoothed=smoothed,
                )
                assert is_subset(sets["eu-mod"], sets["e-mod"])
                assert is_subset(sets["e-mod"], sets["mod"])
                assert is_subset(sets["u-mod"], sets["mod"])
                assert is_subset(sets["e-cross"], sets["cross"])
                assert is_subset(sets["u-cross"], sets["cross"])
                assert is_subset(sets["eu-cross"], sets["e-cross"])

    @pytest.mark.filterwarnings("ignore::crossconf.InformativenessWarning")
    def test_monotone_in_alpha(self):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(5, n=50, p=8, k=5)
        for method in ["mod", "e-mod", "u-mod", "eu-mod", "cross"]:
            previous = None
            for alpha in (0.05, 0.1, 0.2, 0.3):
                s = fold_method_sets(cv, folds, tx, alpha, [method], draws=draws)[method]
                if previous is not None:
                    assert is_subset(s, previous), (method, alpha)
                previous = s

    def test_uninformative_threshold_warns_and_spans_line(self):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(9, n=20, p=3, k=5)
        # m = 4 so the smallest achievable p-value is 1/5 > 0.1
        with pytest.warns(InformativenessWarning):
            s = fold_method_sets(cv, folds, tx, 0.1, ["mod"])["mod"]
        assert s.intervals == ((-INF, INF),)

    def test_repeated_method_gives_one_set_and_one_warning(self):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(9, n=20, p=3, k=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sets = fold_method_sets(cv, folds, tx, 0.1, ["mod", "mod", "e-mod"])
        assert list(sets) == ["mod", "e-mod"]
        assert [w.category for w in caught] == [InformativenessWarning]
        named = str(caught[0].message).split(" for ")[-1].split(";")[0]
        assert named.split(", ") == ["mod", "e-mod"]
        # the warning points at the caller of fold_method_sets
        assert caught[0].filename == __file__

    def test_varying_sizes_refuse_exchangeable_cross_forms(self):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(3, n=101, p=5, k=5, mode="varying")
        with pytest.raises(InvalidConfigurationError):
            fold_method_sets(cv, folds, tx, 0.1, ["e-cross"], draws=draws)
        # u-cross stays available
        fold_method_sets(cv, folds, tx, 0.1, ["u-cross"], draws=draws)

    def test_missing_draws_rejected(self):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(4, n=30, p=4, k=3)
        with pytest.raises(InvalidConfigurationError):
            fold_method_sets(cv, folds, tx, 0.1, ["u-mod"])
        with pytest.raises(InvalidConfigurationError):
            fold_method_sets(cv, folds, tx, 0.1, ["mod"], smoothed=True)


class TestCrossSet:
    def test_single_fold_reduces_to_split_form(self):
        # with one fold the pooled rank count is a split conformal set whose
        # calibration part is that fold
        gen = np.random.default_rng(2)
        n_train, n_cal = 15, 15
        x = gen.standard_normal((n_train + n_cal, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + gen.standard_normal(n_train + n_cal)
        model = fit_min_norm_ols(Dataset(x[:n_train], y[:n_train]))
        cal_x, cal_y = x[n_train:], y[n_train:]
        cal_scores = np.abs(cal_y - model.predict(cal_x))
        folds = FoldAssignment(n_cal, (np.arange(n_cal),), np.array([], dtype=int), "equal")
        cv = CvScores(cal_scores, (model,))
        alpha = 0.2
        test_x = gen.standard_normal(3)
        cross = fold_method_sets(cv, folds, test_x, alpha, ["cross"])["cross"]
        state = SplitState(
            np.arange(n_train), np.arange(n_cal), cal_scores,
            (1 - alpha) * (1 + 1 / n_cal), model,
        )
        split = split_set_from_state(state, test_x)
        assert cross.intervals == split.intervals

    @pytest.mark.parametrize("mode,n", [("equal", 60), ("varying", 101)])
    def test_dual_formulation_equality(self, mode, n):
        # pooled rank membership must equal the weighted p-value membership at
        # every scan evaluation point and at random points
        for seed in range(10):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=n, p=6, k=5, mode=mode)
            gen = np.random.default_rng(seed)
            ys = np.concatenate([random_grid(gen, data, 300)])
            direct = cross_membership(cv, folds, tx, 0.1, ys)
            dual = cross_membership_pvalue_form(cv, folds, tx, 0.1, ys)
            assert np.array_equal(direct, dual)

    def test_nested_in_alpha(self):
        for seed in range(100):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=30, p=4, k=3)
            small = fold_method_sets(cv, folds, tx, 0.05, ["cross"])["cross"]
            large = fold_method_sets(cv, folds, tx, 0.2, ["cross"])["cross"]
            assert is_subset(large, small)


class TestSplitConformal:
    def test_hand_calibration_example(self):
        # zero model, calibration scores 1..10, alpha = 0.2: gamma = 0.88,
        # ceil(8.8) = 9, q = 9, so the set is [-9, 9]
        state = SplitState(
            np.arange(10), np.arange(10), np.arange(1.0, 11.0),
            (1 - 0.2) * (1 + 1 / 10), LinearModel(np.zeros(1)),
        )
        s = split_set_from_state(state, np.array([0.0]))
        assert s.intervals == ((-9.0, 9.0),)

    def test_level_above_one_gives_whole_line_with_warning(self):
        state = SplitState(
            np.arange(4), np.arange(4), np.arange(1.0, 5.0),
            (1 - 0.1) * (1 + 1 / 4), LinearModel(np.zeros(1)),
        )
        with pytest.warns(InformativenessWarning):
            s = split_set_from_state(state, np.array([0.0]))
        assert s.intervals == ((-INF, INF),)

    def test_membership_agrees_with_pvalue_form(self):
        src = RandomSource(6)
        data, (tx, ty) = simulate_instance(80, 6, src)
        state = split_conformal(data, 0.1, ScoreFunctionSpec(), src)
        s = split_set_from_state(state, tx)
        gen = np.random.default_rng(7)
        for y in random_grid(gen, data, 200):
            assert s.contains(y) == (split_pvalue(state, tx, float(y)) > 0.1)

    def test_split_halves_are_disjoint_and_exhaustive(self):
        src = RandomSource(8)
        data, _ = simulate_instance(31, 3, src)
        state = split_conformal(data, 0.1, ScoreFunctionSpec(), src)
        merged = np.sort(np.concatenate([state.train_idx, state.cal_idx]))
        assert np.array_equal(merged, np.arange(31))
        assert state.train_idx.size == 16  # odd n: extra point trains


class TestCvPlus:
    def test_zero_model_collapse(self):
        # all-zero features force every fold model to the zero function, so the
        # interval is +/- the gamma-quantile of |y|
        gen = np.random.default_rng(3)
        y = gen.standard_normal(8)
        data = Dataset(np.zeros((8, 1)), y)
        folds = assign_folds(8, 4, "equal", RandomSource(4))
        alpha = 0.25
        s = cv_plus_set(data, folds, np.array([0.0]), alpha, RegressorSpec("ols"))
        gamma = (1 - alpha) * (1 + 1 / 8)
        k = math.ceil(gamma * 8 - 1e-9)
        q = np.sort(np.abs(y))[k - 1]
        assert s.intervals == ((-q, q),)

    def test_contains_cross_set(self):
        for seed in range(60):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=40, p=6, k=4)
            cross = fold_method_sets(cv, folds, tx, 0.1, ["cross"])["cross"]
            plus = cv_plus_from_scores(cv, folds, tx, 0.1)
            assert is_subset(cross, plus), seed

    def test_jackknife_plus_against_bruteforce(self):
        # K = n folds reproduce leave-one-out; oracle refits n models by hand
        alpha = 0.3
        for seed in range(5):
            src = RandomSource(100 + seed)
            data, (tx, ty) = simulate_instance(10, 2, src)
            folds = assign_folds(10, 10, "equal", src)
            s = cv_plus_set(data, folds, tx, alpha, RegressorSpec("ols"))
            lows, highs = [], []
            for i in range(10):
                rest = np.delete(np.arange(10), i)
                model = fit_min_norm_ols(data.subset(rest))
                mu = float(model.predict(tx[None, :])[0])
                res = abs(data.responses[i] - float(model.predict(data.features[i][None, :])[0]))
                lows.append(mu - res)
                highs.append(mu + res)
            k = math.ceil((1 - alpha) * (1 + 1 / 10) * 10 - 1e-9)
            lo = np.sort(lows)[10 - k]
            hi = np.sort(highs)[k - 1]
            assert s.intervals[0][0] == pytest.approx(lo, abs=1e-10)
            assert s.intervals[0][1] == pytest.approx(hi, abs=1e-10)

    def test_always_single_interval(self):
        for seed in range(20):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=30, p=40, k=5)
            assert cv_plus_from_scores(cv, folds, tx, 0.1).n_components <= 1

    def test_fold_count_mismatch_rejected(self):
        # 5 fold models with 3 folds, and 3 fold models with 5 folds
        _, folds3, _, cv3, _, tx, _ = make_pipeline(0, n=30, p=3, k=3)
        _, folds5, _, cv5, _, _, _ = make_pipeline(0, n=30, p=3, k=5)
        for cv, folds in ((cv5, folds3), (cv3, folds5)):
            with pytest.raises(InvalidConfigurationError, match="fold models"):
                cv_plus_from_scores(cv, folds, tx, 0.1)

    def test_extreme_alpha_never_inverts(self):
        # quantile levels below one half can cross; the set must stay valid
        for seed in range(20):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=20, p=3, k=4)
            s = cv_plus_from_scores(cv, folds, tx, 0.95)
            assert s.n_components <= 1 and s.width >= 0.0
