"""Tests for prediction-set construction: quantiles, scans, duals, containments."""

import itertools
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_pipeline, random_grid
from crossconf import (
    FOLD_METHODS,
    CvScores,
    Dataset,
    FoldAssignment,
    InformativenessWarning,
    InvalidConfigurationError,
    LinearModel,
    MethodConfig,
    PredictionSet,
    RandomDraws,
    RandomSource,
    RegressorSpec,
    ScoreFunctionSpec,
    SplitState,
    assign_folds,
    candidate_endpoints,
    compute_cv_scores,
    conformal_rank,
    cross_membership,
    cv_plus_from_scores,
    fit,
    fit_state,
    fold_method_sets,
    parse_regressor,
    query_sets,
    simulate_instance,
    split_conformal,
    split_set_from_state,
)
from crossconf.conformal_sets import _fold_masks, _fold_mu, _pieces, _runs
from oracles import (
    all_fold_pvalues,
    cross_membership_pvalue_form,
    cv_plus_set,
    discarded,
    exact_fold_method_masks,
    hand_folds,
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
    """Split and CV+ take the conformal_rank-th order statistic of their scores,
    ceil((1 - alpha)(n + 1)) computed in integers; past the end, the whole line."""

    @staticmethod
    def split_q(scores, alpha):
        """Half-width of the split set of a zero model on these calibration scores."""
        z = np.asarray(scores, dtype=float)
        state = SplitState(z, conformal_rank(alpha, z.size), LinearModel(np.zeros(1)))
        return split_set_from_state(state, np.array([0.0])).intervals[0][1]

    @staticmethod
    def cv_plus_q(scores, alpha):
        """Half-width of the CV+ set of one zero-model fold holding these scores."""
        z = np.asarray(scores, dtype=float)
        folds = hand_folds([np.arange(z.size)])
        cv = CvScores(z, (LinearModel(np.zeros(1)),), folds)
        return cv_plus_from_scores(cv, folds, np.array([0.0]), alpha).intervals[0][1]

    def test_rank_formula_with_exact_real_level(self):
        # (1 - 0.2) * 25 = 20 in real arithmetic, but the float level
        # 0.8 * (1 + 1/24) times 24 is 20.000000000000004, one rank too far
        z = np.arange(1.0, 25.0)
        assert conformal_rank(0.2, 24) == 20
        assert self.split_q(z, 0.2) == self.cv_plus_q(z, 0.2) == 20.0

    def test_tiny_level_returns_minimum(self):
        z = np.array([5.0, 1.0, 3.0])
        for alpha in (0.99, 0.75):  # (1 - alpha) * 4 is 0.04 and exactly 1
            assert conformal_rank(alpha, 3) == 1
            assert self.split_q(z, alpha) == self.cv_plus_q(z, alpha) == 1.0

    def test_level_above_one_is_infinite(self):
        # alpha = 0.1 on four points: (1 - alpha) * 5 = 4.5, rank 5, past the end
        assert conformal_rank(0.1, 4) == 5
        with pytest.warns(InformativenessWarning, match="split set is the whole line"):
            assert self.split_q(np.ones(4), 0.1) == INF
        with pytest.warns(InformativenessWarning, match=r"CV\+ set is the whole line"):
            assert self.cv_plus_q(np.ones(4), 0.1) == INF

    def test_level_exactly_one_returns_maximum(self):
        # (1 - 0.25) * 4 = 3 = n
        z = np.array([2.0, 9.0, 4.0])
        assert conformal_rank(0.25, 3) == 3
        assert self.split_q(z, 0.25) == self.cv_plus_q(z, 0.25) == 9.0

    @pytest.mark.filterwarnings("ignore::crossconf.InformativenessWarning")
    def test_matches_rank_oracle_on_random_inputs(self):
        gen = np.random.default_rng(0)
        for _ in range(300):
            n = int(gen.integers(1, 40))
            z = np.abs(gen.standard_normal(n))
            alpha = float(gen.uniform(0.01, 1.0))
            k = math.ceil((1 - Fraction(repr(alpha))) * (n + 1))
            expected = np.sort(z)[k - 1] if k <= n else INF
            assert conformal_rank(alpha, n) == k
            assert self.split_q(z, alpha) == self.cv_plus_q(z, alpha) == expected

class TestSplitIsOneModelCvPlus:
    """Split conformal is the CV+ set of its one model: both builders take the
    rank-th order statistics of mu -/+ S_i through one function."""

    @staticmethod
    def both(scores, mu, alpha):
        """(interval bytes, warning categories) of the split set and of the CV+
        set of one fold, both with the model x -> mu x at x = 1."""
        s = np.asarray(scores, dtype=float)
        model = LinearModel(np.array([mu]))
        state = SplitState(s, conformal_rank(alpha, s.size), model)
        cv = CvScores(s, (model,), FoldAssignment(np.arange(s.size), [0, s.size]))
        out = []
        for build in (lambda: split_set_from_state(state, [1.0]),
                      lambda: cv_plus_from_scores(cv, cv.folds, [1.0], alpha)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                pset = build()
            out.append((np.array(pset.intervals).tobytes(), [w.category for w in caught]))
        return out

    @given(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 1e6),
                 min_size=1, max_size=30),
        st.floats(-1e6, 1e6),
        st.booleans(),
        st.sampled_from([0.001, 0.01, 0.05, 0.1, 0.5, 0.9]) | st.floats(0.001, 0.999),
    )
    @example([1.0, 2.0], 1.0, True, 0.01)  # rank 3 is past the end: the whole line
    @example([3.0, 2.0, 3.0], 2.0, True, 0.5)  # a tie, and lo = 2 - 2 = +0.0
    @example([0.0], -0.0, True, 0.5)
    @settings(max_examples=300, deadline=None)
    def test_split_is_the_cv_plus_set_of_its_one_model(self, scores, mu, hit, alpha):
        mu += 0.0  # the model's prediction: x -> mu x gives +0.0 at mu = -0.0
        if hit:
            scores[0] = abs(mu)  # one end of this score's interval is exactly 0.0
        split, cv_plus = self.both(scores, mu, alpha)
        assert split == cv_plus
        rank = conformal_rank(alpha, len(scores))
        if rank > len(scores):
            assert split == (np.array([(-INF, INF)]).tobytes(), [InformativenessWarning])
        else:  # mu -/+ the rank-th smallest score, signed zeros included
            q = sorted(scores)[rank - 1]
            assert split == (np.array([(mu - q, mu + q)]).tobytes(), [])

    @pytest.mark.parametrize("mu, interval", [(1e308, (0.0, INF)), (-1e308, (-INF, 0.0))])
    def test_one_end_past_the_largest_double_is_a_ray(self, mu, interval):
        # mu + S (or mu - S) overflows while the other end is finite: a ray with
        # no warning, where CV+ once gave the whole line with a warning
        split, cv_plus = self.both([1e308], mu, 0.5)
        assert split == cv_plus == (np.array([interval]).tobytes(), [])


class TestPredictionSet:
    def test_invariants_enforced(self):
        with pytest.raises(InvalidConfigurationError):
            PredictionSet(((1.0, 0.0),))
        with pytest.raises(InvalidConfigurationError):
            PredictionSet(((0.0, 2.0), (1.0, 3.0)))
        with pytest.raises(InvalidConfigurationError):
            PredictionSet(((0.0, 1.0), (1.0, 2.0)))  # touching runs are one run

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
        assert h.intervals == ((0.0, 6.0),)
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
    return PredictionSet(tuple(_runs(bounds, membership(ys)[None])[0]))


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


MASK_KINDS = ("random", "empty", "whole", "lone", "rays", "closed-over")


@st.composite
def mask_matrices(draw):
    """A (sets, pieces) mask matrix over 2M + 1 pieces, M >= 1: each row is
    random, empty, the whole line, one true breakpoint, true rays, or a false
    breakpoint between two true gaps."""
    m = draw(st.integers(1, 20))
    width = 2 * m + 1
    rows = []
    for kind in draw(st.lists(st.sampled_from(MASK_KINDS), min_size=1, max_size=8)):
        if kind == "random":
            row = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        elif kind in ("empty", "whole"):
            row = [kind == "whole"] * width
        elif kind == "lone":
            row = [False] * width
            row[2 * draw(st.integers(0, m - 1)) + 1] = True
        elif kind == "rays":
            left = draw(st.integers(0, width - 1))
            right = draw(st.integers(left, width - 1))
            row = [j <= left or j >= right for j in range(width)]
        else:
            row = draw(st.lists(st.booleans(), min_size=width, max_size=width))
            i = 2 * draw(st.integers(0, m - 1)) + 1
            row[i - 1: i + 2] = [True, False, True]
        rows.append(row)
    return np.array(rows, dtype=bool)


class TestRunsAgainstScanOracle:
    """Run extraction must match the piece-by-piece walk of each closed mask row."""

    @staticmethod
    def check(masks, bounds=None):
        # by default built from bounds, not _pieces, so that a one-piece mask
        # (no breakpoint) and even widths are covered
        masks = np.asarray(masks, dtype=bool)
        if bounds is None:
            bounds = np.arange(masks.shape[1] // 2 + 2) * 2.0 - 0.5
        los, his = piece_bounds(bounds)
        expected = [scan_runs_oracle(los, his, close_over_breakpoints(row)) for row in masks]
        assert _runs(bounds, masks) == expected

    def test_random_masks(self):
        gen = np.random.default_rng(21)
        for _ in range(300):
            size = int(gen.integers(1, 80))
            rows = int(gen.integers(1, 6))
            self.check(gen.random((rows, size)) < gen.random((rows, 1)))

    @pytest.mark.parametrize(
        "mask",
        [[True] * 9, [False] * 9, [True], [False], [True, False] * 5, [False, True] * 5],
        ids=["all-true", "all-false", "one-true", "one-false", "alt-true", "alt-false"],
    )
    def test_edge_masks(self, mask):
        self.check([mask])

    @given(masks=mask_matrices())
    @settings(max_examples=300, deadline=None)
    def test_every_row_of_a_matrix_matches_the_oracle(self, masks):
        bounds, _ = _pieces(np.arange(masks.shape[1] // 2, dtype=float))
        self.check(masks, bounds)


class TestKernelMasks:
    """The kernel's integer verdicts of every fold method equal the exact rational
    ones on every piece of the scan."""

    @pytest.mark.parametrize("mode,n", [("equal", 62), ("varying", 61)])
    @pytest.mark.parametrize("k", [2, 3, 5, 10, "n"])
    def test_every_method_matches_the_exact_oracle(self, k, mode, n):
        self.check(k, mode, n, RegressorSpec("ols"))

    @pytest.mark.parametrize("mode,n", [("equal", 62), ("varying", 61)])
    @pytest.mark.parametrize("k", [2, 3, 5, 10, "n"])
    def test_knn_folds_sharing_a_prediction_match_the_exact_oracle(self, k, mode, n):
        # a 3-NN fold model whose held-out fold misses the query's neighbours
        # predicts what the full fit would, so from K = 5 on folds share a mu_k
        shared = self.check(k, mode, n, parse_regressor("knn:3"))
        assert shared or k in (2, 3)

    def check(self, k, mode, n, regressor):
        """Whether some seed's query had two folds with one prediction."""
        shared = False
        for seed in range(4):
            _, folds, _, cv, draws, tx, _ = make_pipeline(
                seed, n=n, p=5, k=n if k == "n" else k, mode=mode, regressor=regressor
            )
            mu = _fold_mu(cv, folds, tx)
            _, ys = _pieces(candidate_endpoints(cv, folds, tx))
            for alpha in (0.1, 1 / 3):
                got = _fold_masks(cv, mu, ys, alpha, FOLD_METHODS, draws)
                want = exact_fold_method_masks(cv, folds, tx, alpha, ys, draws)
                for method, mask in zip(FOLD_METHODS, got):
                    assert np.array_equal(mask, want[method]), (seed, alpha, method)
            shared |= np.unique(mu).size < mu.size
        return shared


def single_fold_state(scores, coef=0.0):
    """One fold holding len(scores) points, model predicting coef * x."""
    n = len(scores)
    folds = hand_folds([np.arange(n)])
    cv = CvScores(np.asarray(scores, float), (LinearModel(np.array([coef])),), folds)
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
        # the last three configurations have threshold ties (see TIE_GRID)
        for n, k, alpha in [(60, 5, 0.1), (100, 3, 0.1), (100, 10, 0.1), (60, 5, 0.2)]:
            for seed in range(30):
                data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=n, p=10, k=k)
                sets = fold_method_sets(
                    cv, folds, tx, alpha,
                    ["mod", "e-mod", "u-mod", "eu-mod", "cross",
                     "e-cross", "u-cross", "eu-cross"],
                    draws=draws,
                )
                assert is_subset(sets["eu-mod"], sets["e-mod"])
                assert is_subset(sets["e-mod"], sets["mod"])
                assert is_subset(sets["u-mod"], sets["mod"])
                assert is_subset(sets["e-cross"], sets["cross"]), (n, k, alpha, seed)
                assert is_subset(sets["u-cross"], sets["cross"])
                assert is_subset(sets["eu-cross"], sets["e-cross"])

    @pytest.mark.filterwarnings("ignore::crossconf.InformativenessWarning")
    def test_monotone_in_alpha(self):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(5, n=50, p=8, k=5)
        builders = {
            m: lambda alpha, m=m: fold_method_sets(cv, folds, tx, alpha, [m], draws=draws)[m]
            for m in FOLD_METHODS
        }
        builders["cv+"] = lambda alpha: cv_plus_from_scores(cv, folds, tx, alpha)
        # one split for every alpha: the same seed, with the rank of each alpha
        builders["split"] = lambda alpha: split_set_from_state(
            split_conformal(data, alpha, spec, RandomSource(6)), tx)
        for method, build in builders.items():
            previous = None
            for alpha in (0.05, 0.1, 0.2, 0.3):
                s = build(alpha)
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

    def test_threshold_equal_to_the_least_statistic_keeps_sets_bounded(self):
        # folds of 4 at alpha = 0.2: mod's least value 1/5 equals alpha and does
        # not pass it, so the rays are excluded and nothing warns
        data, folds, spec, cv, draws, tx, ty = make_pipeline(2, n=20, k=5)
        methods = ["mod", "e-mod", "u-mod", "eu-mod"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sets = fold_method_sets(cv, folds, tx, 0.2, methods, draws=draws)
        assert caught == []
        for method in methods:
            assert np.isfinite(sets[method].intervals).all(), method

    def test_warning_names_exactly_the_whole_line_sets(self):
        for (n, k), alpha in itertools.product(
            [(20, 5), (30, 10), (12, 4)], (0.05, 0.1, 0.2, 0.25, 0.3)
        ):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(n + k, n=n, p=2, k=k)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                sets = fold_method_sets(cv, folds, tx, alpha, FOLD_METHODS, draws=draws)
            whole = [m for m, s in sets.items() if s.intervals == ((-INF, INF),)]
            named = [str(w.message).split(" for ")[-1].split(";")[0].split(", ") for w in caught]
            assert named == ([whole] if whole else []), (n, k, alpha)

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


# (n, K, alpha) with threshold ties: alpha * (n_used + 1) = 10 at n=100/K=3, and
# K * (m + 1) * alpha = 11, 13, 11, 11 for the next four. The paper's setup,
# n=100/K=5/alpha=0.1, has none: there K * (m + 1) * alpha = 10.5.
TIE_GRID = [(100, 3, 0.1), (100, 10, 0.1), (60, 5, 0.2), (50, 5, 0.2), (40, 4, 0.25), (100, 5, 0.1)]


def relabelled(cv, folds, order):
    """The same fit with its folds listed in ``order``."""
    models = tuple(cv.fold_models[j] for j in order)
    members = tuple(folds.fold_members[j] for j in order)
    reordered = hand_folds(members, discarded(folds))
    return CvScores(cv.scores, models, reordered), reordered


class TestExactVerdicts:
    """Deterministic fold statistics are rationals; the scan must decide their
    comparisons with the threshold exactly, ties included."""

    @staticmethod
    def check_against_oracle(seeds, n, k, alpha, mode, methods):
        for seed in seeds:
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=n, p=5, k=k, mode=mode)
            bounds, ys = _pieces(candidate_endpoints(cv, folds, tx))
            sets = fold_method_sets(cv, folds, tx, alpha, methods, draws=draws)
            exact = exact_fold_method_masks(cv, folds, tx, alpha, ys, draws)
            runs = _runs(bounds, np.array([exact[method] for method in methods]))
            for method, expected in zip(methods, runs):
                assert sets[method].intervals == tuple(expected), (seed, method)

    @pytest.mark.parametrize("n,k,alpha", TIE_GRID)
    def test_equal_folds_match_exact_oracle_on_every_piece(self, n, k, alpha):
        self.check_against_oracle(range(24), n, k, alpha, "equal", FOLD_METHODS)

    @pytest.mark.parametrize("n,k,alpha", TIE_GRID)
    def test_varying_folds_match_exact_oracle_on_every_piece(self, n, k, alpha):
        # n + 1 points, so that the folds differ in size
        methods = ["mod", "u-mod", "cross", "u-cross"]
        self.check_against_oracle(range(6), n + 1, k, alpha, "varying", methods)

    def test_varying_folds_with_a_long_alpha_match_exact_oracle_on_every_piece(self):
        # folds of 10 and 11 points at K=10, so L = 132. alpha is the repr of the float
        # nearest 131/1320, a mod statistic every seed reaches, and lies just below it:
        # the statistic passes, though its float equals the float of alpha
        alpha = 0.09924242424242424
        assert Fraction(repr(alpha)) < Fraction(131, 1320) and float(Fraction(131, 1320)) == alpha
        self.check_against_oracle(range(3), 101, 10, alpha, "varying",
                                  ["mod", "u-mod", "cross", "u-cross"])

    def test_a_third_on_the_rays_is_above_the_decimal_it_prints_as(self):
        # two folds of 2 points: on the rays every p-value is 1/3, above
        # 0.3333333333333333 though it has the same float, so mod and e-mod hold everywhere
        data = Dataset(np.column_stack([np.ones(4), np.arange(4.0)]), np.array([0.3, 1.1, 2.4, 2.9]))
        folds = assign_folds(4, 2, "equal", RandomSource(0))
        cv = compute_cv_scores(data, folds, ScoreFunctionSpec("residual", RegressorSpec("ols")))
        tx, draws = np.array([1.0, 0.2]), RandomDraws(0.5, 0.5)
        with pytest.warns(InformativenessWarning, match="for mod, e-mod;"):
            sets = fold_method_sets(cv, folds, tx, 1 / 3, ["mod", "e-mod", "u-mod"], draws=draws)
        assert sets["mod"].intervals == sets["e-mod"].intervals == ((-INF, INF),)
        bounds, ys = _pieces(candidate_endpoints(cv, folds, tx))
        exact = exact_fold_method_masks(cv, folds, tx, 1 / 3, ys, draws)
        assert sets["u-mod"].intervals == tuple(_runs(bounds, exact["u-mod"][None])[0])

    def test_exchangeable_cross_inside_cross_at_a_tie(self):
        # on the extra piece the counts are (5, 3, 1) over folds of 33 points:
        # cross (1 + 9)/100 and e-cross 2/17 both equal their thresholds
        src = RandomSource(5, 5000)
        data, (test_x, _) = simulate_instance(100, 5, src)
        cfg = MethodConfig(alpha=0.1, k=3, regressor=RegressorSpec("ols"), methods=FOLD_METHODS)
        cv, split_state = fit_state(cfg, data, src)
        sets = next(query_sets(cfg, cv, split_state, [test_x], src))
        assert is_subset(sets["e-cross"], sets["cross"])
        assert is_subset(sets["eu-cross"], sets["e-cross"])

    def test_fold_order_leaves_order_free_methods_unchanged(self):
        methods = ["mod", "cross", "u-mod", "u-cross"]
        for seed in range(10):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=100, p=5, k=10)
            sets = fold_method_sets(cv, folds, tx, 0.1, methods, draws=draws)
            rcv, rfolds = relabelled(cv, folds, range(folds.n_folds - 1, -1, -1))
            assert fold_method_sets(rcv, rfolds, tx, 0.1, methods, draws=draws) == sets, seed


class TestCrossSet:
    def test_single_fold_reduces_to_split_form(self):
        # with one fold the pooled rank count is a split conformal set whose
        # calibration part is that fold
        gen = np.random.default_rng(2)
        n_train, n_cal = 15, 15
        x = gen.standard_normal((n_train + n_cal, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + gen.standard_normal(n_train + n_cal)
        model = fit(RegressorSpec("ols"), Dataset(x[:n_train], y[:n_train]))
        cal_x, cal_y = x[n_train:], y[n_train:]
        cal_scores = np.abs(cal_y - model.predict(cal_x))
        folds = hand_folds([np.arange(n_cal)])
        cv = CvScores(cal_scores, (model,), folds)
        alpha = 0.2
        test_x = gen.standard_normal(3)
        cross = fold_method_sets(cv, folds, test_x, alpha, ["cross"])["cross"]
        state = SplitState(cal_scores, conformal_rank(alpha, n_cal), model)
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
        # zero model, calibration scores 1..10, alpha = 0.2: rank
        # ceil(0.8 * 11) = ceil(8.8) = 9, q = 9, so the set is [-9, 9]
        state = SplitState(np.arange(1.0, 11.0), 9, LinearModel(np.zeros(1)))
        s = split_set_from_state(state, np.array([0.0]))
        assert s.intervals == ((-9.0, 9.0),)

    def test_level_above_one_gives_whole_line_with_warning(self):
        # alpha = 0.1: rank ceil(0.9 * 5) = 5, past the four scores
        state = SplitState(np.arange(1.0, 5.0), 5, LinearModel(np.zeros(1)))
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
        # the model is fitted on the first 16 points of the "split" stream's
        # permutation (odd n: the extra point trains) and scores the other 15
        src = RandomSource(8)
        data, _ = simulate_instance(31, 3, src)
        state = split_conformal(data, 0.1, ScoreFunctionSpec(), src)
        perm = RandomSource(8).generator("split").permutation(31)
        model = fit(RegressorSpec("ols"), data.subset(perm[:16]))
        cal = perm[16:]
        scores = np.abs(data.responses[cal] - model.predict(data.features[cal]))
        assert state.model.coef.tobytes() == model.coef.tobytes()
        assert state.cal_scores.tobytes() == scores.tobytes()


class TestCvPlus:
    def test_zero_model_collapse(self):
        # all-zero features force every fold model to the zero function, so the
        # interval is +/- the rank-k order statistic of |y|
        gen = np.random.default_rng(3)
        y = gen.standard_normal(8)
        data = Dataset(np.zeros((8, 1)), y)
        folds = assign_folds(8, 4, "equal", RandomSource(4))
        alpha = 0.25
        s = cv_plus_set(data, folds, np.array([0.0]), alpha, RegressorSpec("ols"))
        k = math.ceil((1 - Fraction(repr(alpha))) * 9)
        q = np.sort(np.abs(y))[k - 1]
        assert s.intervals == ((-q, q),)

    def test_alpha_outside_the_unit_interval_rejected(self):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(1, n=30, p=4, k=3)
        for alpha in (0.0, 1.0, 1.5, -0.5):
            with pytest.raises(InvalidConfigurationError, match="alpha"):
                cv_plus_from_scores(cv, folds, tx, alpha)

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
                model = fit(RegressorSpec("ols"), data.subset(rest))
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
        # 5 fold models with 3 folds, and 3 fold models with 5 folds: the scores
        # cannot be paired with those folds, nor the builder given them
        _, folds3, _, cv3, _, tx, _ = make_pipeline(0, n=30, p=3, k=3)
        _, folds5, _, cv5, _, _, _ = make_pipeline(0, n=30, p=3, k=5)
        for cv, folds in ((cv5, folds3), (cv3, folds5)):
            with pytest.raises(InvalidConfigurationError, match="fold models"):
                CvScores(cv.scores, cv.fold_models, folds)
            with pytest.raises(InvalidConfigurationError, match="cv.folds"):
                cv_plus_from_scores(cv, folds, tx, 0.1)

    def test_extreme_alpha_never_inverts(self):
        # quantile levels below one half can cross; the set must stay valid
        for seed in range(20):
            data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=20, p=3, k=4)
            s = cv_plus_from_scores(cv, folds, tx, 0.95)
            assert s.n_components <= 1 and s.width >= 0.0


# (regressor, features) of the instances the scale property draws: OLS with more
# training points than features and with fewer, ridge and kNN
SCALE_REGRESSORS = {
    "ols-tall": (RegressorSpec("ols"), 3),
    "ols-wide": (RegressorSpec("ols"), 30),
    "ridge": (RegressorSpec("ridge", ridge_lambda=0.5), 5),
    "knn": (RegressorSpec("knn", knn_k=3), 4),
}


class TestScaleEquivariance:
    @staticmethod
    def all_sets(data, folds, spec, tx, draws, seed):
        cv = compute_cv_scores(data, folds, spec)
        sets = fold_method_sets(cv, folds, tx, 0.2, FOLD_METHODS, draws=draws)
        sets["cv+"] = cv_plus_from_scores(cv, folds, tx, 0.2)
        state = split_conformal(data, 0.2, spec, RandomSource(seed))
        sets["split"] = split_set_from_state(state, tx)
        return sets

    @given(kind=st.sampled_from(sorted(SCALE_REGRESSORS)), seed=st.integers(0, 2**32 - 1),
           j=st.integers(-60, 60))
    @settings(max_examples=400, deadline=None)
    @pytest.mark.filterwarnings("ignore::crossconf.InformativenessWarning")
    def test_responses_scaled_by_a_power_of_two_scale_every_endpoint_exactly(self, kind, seed, j):
        # every step is linear in the responses or compares them, and a power of
        # two scales each rounding exactly, so the sets scale bit for bit
        regressor, p = SCALE_REGRESSORS[kind]
        spec = ScoreFunctionSpec("residual", regressor)
        src = RandomSource(seed)
        data, (tx, _) = simulate_instance(24, p, src)
        folds = assign_folds(data.n, 4, "equal", src)
        draws = RandomDraws(0.5, float(src.generator("u").uniform(0.01, 0.99)))
        scale = 2.0**j
        scaled = Dataset(data.features, data.responses * scale)
        base = self.all_sets(data, folds, spec, tx, draws, seed)
        got = self.all_sets(scaled, folds, spec, tx, draws, seed)
        assert list(got) == list(FOLD_METHODS) + ["cv+", "split"]
        for method, s in base.items():
            want = PredictionSet(tuple((lo * scale, hi * scale) for lo, hi in s.intervals))
            assert repr(got[method]) == repr(want), (method, s)


class TestForeignFolds:
    def test_every_fold_builder_rejects_other_folds_with_the_same_k(self):
        # the same K over other members would silently regroup the scores
        _, folds, _, cv, draws, tx, _ = make_pipeline(0, n=30, p=3, k=3)
        other = assign_folds(30, 3, "equal", RandomSource(1))
        assert other.n_folds == folds.n_folds
        assert not all(np.array_equal(a, b) for a, b in zip(other.fold_members, folds.fold_members))
        builders = [
            lambda f: fold_method_sets(cv, f, tx, 0.2, FOLD_METHODS, draws=draws),
            lambda f: cv_plus_from_scores(cv, f, tx, 0.2),
            lambda f: cross_membership(cv, f, tx, 0.2, [0.0, 1.0]),
            lambda f: candidate_endpoints(cv, f, tx),
        ]
        for build in builders:
            with pytest.raises(InvalidConfigurationError, match="cv.folds"):
                build(other)
            build(folds)


class TestOneTestRow:
    def test_every_builder_rejects_anything_but_one_row(self):
        data, folds, spec, cv, draws, tx, _ = make_pipeline(0, n=30, p=3, k=3)
        state = split_conformal(data, 0.2, spec, RandomSource(1))
        builders = [
            lambda x: fold_method_sets(cv, folds, x, 0.2, ["mod"]),
            lambda x: cv_plus_from_scores(cv, folds, x, 0.2),
            lambda x: split_set_from_state(state, x),
            lambda x: candidate_endpoints(cv, folds, x),
            lambda x: cross_membership(cv, folds, x, 0.2, [0.0, 1.0]),
        ]
        two = np.stack([tx, tx + 5.0])
        for build in builders:
            # a block used to give the set of its first row
            for bad in (two, [tx, tx + 5.0], two[None], np.float64(tx[0])):
                shape = np.shape(bad)
                with pytest.raises(InvalidConfigurationError, match=re.escape(f"shape {shape}")):
                    build(bad)
            assert repr(build(tx[None])) == repr(build(tx)) == repr(build(list(tx)))
