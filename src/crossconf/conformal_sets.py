"""Explicit prediction sets on the response line.

With the residual score every membership statistic is a step function of the
candidate response y: each fold indicator flips only where |y - mu_k| crosses
one of that fold's scores, i.e. at y = mu_k +/- S_i. ``fold_method_sets``
evaluates the statistics once per piece (every breakpoint, every gap
midpoint, and the two unbounded rays) and recovers each set exactly as a
finite union of closed intervals. No grid approximation is involved. The rays
are evaluated at -inf and +inf, where every fold count is 0 because the
scores are finite.

Membership uses a strict inequality against the threshold while the rank
counts use weak inequalities, so breakpoints themselves can belong to a set;
they are evaluated directly and intervals are closed. ``_runs`` also counts a
breakpoint between two included gaps as included, so a set is the closure of
its membership set. That is the exact set for deterministic fold p-values,
whose weak counts keep every breakpoint at least as included as its
neighbouring gaps. A tau-smoothed fold p-value at its own breakpoint lies
between its two gap values, which keeps the set exact unless breakpoints of
two folds coincide.
"""

from __future__ import annotations

import contextlib
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .combiners import alpha_prime
from .data_model import Dataset, FoldAssignment, RandomDraws, RandomSource
from .errors import InvalidConfigurationError
from .regression import FittedModel, fit
from .scores import CvScores, ScoreFunctionSpec, fold_predictions

__all__ = [
    "FOLD_METHODS",
    "ALL_METHODS",
    "InformativenessWarning",
    "PredictionSet",
    "SplitState",
    "empirical_quantile",
    "split_conformal",
    "split_set_from_state",
    "candidate_endpoints",
    "cross_membership",
    "fold_method_sets",
    "cv_plus_from_scores",
]

INF = float("inf")

# Methods built from fold p-values; the -cross forms use the inflated
# threshold alpha' and shrink the plain cross-validation conformal set.
FOLD_METHODS = ("mod", "e-mod", "u-mod", "eu-mod", "cross", "e-cross", "u-cross", "eu-cross")
ALL_METHODS = FOLD_METHODS + ("split", "cv+")

_DRAW_METHODS = frozenset({"u-mod", "eu-mod", "u-cross", "eu-cross"})
_EXCHANGEABLE_CROSS = frozenset({"e-cross", "eu-cross"})


class InformativenessWarning(UserWarning):
    """The threshold cannot exclude any response value; sets may span the line."""


@dataclass(frozen=True)
class PredictionSet:
    """Finite union of disjoint closed intervals, sorted by lower endpoint.

    Endpoints may be -inf/+inf. ``hulled`` marks a set that was collapsed to
    its convex hull, in which case it holds exactly one interval.
    """

    intervals: tuple[tuple[float, float], ...]
    hulled: bool = False

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        prev_hi = -INF
        first = True
        for lo, hi in ivs:
            if math.isnan(lo) or math.isnan(hi) or lo > hi:
                raise InvalidConfigurationError(f"bad interval [{lo}, {hi}]")
            if not first and lo <= prev_hi:
                raise InvalidConfigurationError("intervals must be sorted and disjoint")
            prev_hi = hi
            first = False
        if self.hulled and len(ivs) != 1:
            raise InvalidConfigurationError("a hulled set holds exactly one interval")

    @property
    def n_components(self) -> int:
        return len(self.intervals)

    @property
    def width(self) -> float:
        """Total Lebesgue measure; +inf if any interval is unbounded."""
        total = 0.0
        for lo, hi in self.intervals:
            total += hi - lo
        return total

    def contains(self, y: float) -> bool:
        return any(lo <= y <= hi for lo, hi in self.intervals)

    def hull(self) -> "PredictionSet":
        """Single interval spanning the extreme endpoints."""
        if not self.intervals:
            return self
        return PredictionSet(((self.intervals[0][0], self.intervals[-1][1]),), hulled=True)

    def to_jsonable(self) -> list:
        out = []
        for lo, hi in self.intervals:
            out.append([
                "-inf" if lo == -INF else lo,
                "inf" if hi == INF else hi,
            ])
        return out


def empirical_quantile(z, gamma: float) -> float:
    """inf{a : (1/n) * #{z_i <= a} >= gamma}, i.e. the ceil(gamma*n)-th order
    statistic; +inf when gamma exceeds one, -inf when gamma is nonpositive.

    A small tolerance absorbs float rounding in gamma*n so that levels which
    are exact in real arithmetic (like 0.8 * (1 + 1/9) on nine points) select
    the intended order statistic.
    """
    arr = np.asarray(z, dtype=float)
    if arr.size == 0:
        raise InvalidConfigurationError("quantile of an empty vector")
    n = arr.size
    target = gamma * n
    tol = 1e-9 * (1.0 + abs(target))
    if target > n + tol:
        return INF
    if gamma <= 0.0:
        return -INF
    k = int(np.ceil(target - tol))
    k = min(max(k, 1), n)
    return float(np.partition(arr, k - 1)[k - 1])


# ---------------------------------------------------------------------------
# Split conformal prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitState:
    """Frozen result of one train/calibration split.

    Reusable across any number of test points. ``gamma`` is the calibration
    quantile level (1 - alpha) * (1 + 1/n_cal).
    """

    train_idx: np.ndarray
    cal_idx: np.ndarray
    cal_scores: np.ndarray
    gamma: float
    model: FittedModel


def split_conformal(
    data: Dataset, alpha: float, spec: ScoreFunctionSpec, rng: RandomSource
) -> SplitState:
    """Random 50/50 split; fit on one half, score residuals on the other.

    With an odd number of points the extra one goes to the training half.
    """
    if data.n < 2:
        raise InvalidConfigurationError("split conformal needs at least two points")
    if not 0.0 < alpha < 1.0:
        raise InvalidConfigurationError("alpha must lie strictly inside (0, 1)")
    perm = rng.generator("split").permutation(data.n)
    n_train = (data.n + 1) // 2
    train_idx, cal_idx = perm[:n_train], perm[n_train:]
    model = fit(spec.regressor, data.subset(train_idx))
    preds = model.predict(data.features[cal_idx])
    cal_scores = np.abs(data.responses[cal_idx] - preds)
    gamma = (1.0 - alpha) * (1.0 + 1.0 / cal_idx.size)
    return SplitState(train_idx, cal_idx, cal_scores, gamma, model)


def split_set_from_state(state: SplitState, test_x) -> PredictionSet:
    """Residual-score split interval mu(test_x) +/- calibration quantile."""
    q = empirical_quantile(state.cal_scores, state.gamma)
    mu = float(state.model.predict(np.atleast_2d(np.asarray(test_x, float)))[0])
    if math.isinf(q):
        warnings.warn(
            f"calibration level {state.gamma:.6g} exceeds one; the split set is the whole line",
            InformativenessWarning,
            stacklevel=2,
        )
        return PredictionSet(((-INF, INF),))
    return PredictionSet(((mu - q, mu + q),))


# ---------------------------------------------------------------------------
# Scan pieces
# ---------------------------------------------------------------------------

def _pieces(endpoints: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval bounds and evaluation points of the 2M+1 constant pieces of
    M >= 1 sorted breakpoints: the left ray, each breakpoint alternating with
    the open gap after it, then the right ray. ``bounds`` pads the breakpoints
    with -inf and +inf. An even piece is evaluated at 0.5*a + 0.5*b of its
    bounds: the gap midpoint, which cannot overflow, or -inf/+inf on a ray.
    An odd piece is evaluated at its breakpoint.
    """
    bounds = np.concatenate(([-INF], endpoints, [INF]))
    ys = np.empty(2 * endpoints.size + 1)
    ys[0::2] = 0.5 * bounds[:-1] + 0.5 * bounds[1:]
    ys[1::2] = endpoints
    return bounds, ys


def _runs(bounds: np.ndarray, mask: np.ndarray) -> list[tuple[float, float]]:
    """(lo, hi) of every maximal run of true pieces of the closed mask, in
    order: a false breakpoint between two true gaps is closed over, so the
    runs come out sorted, disjoint and non-touching. Piece j spans
    ``bounds[(j + 1) // 2]`` to ``bounds[j // 2 + 1]``."""
    closed = mask.copy()
    closed[1:-1:2] |= mask[:-2:2] & mask[2::2]
    edges = np.diff(np.concatenate(([0], closed.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return list(zip(bounds[(starts + 1) // 2].tolist(), bounds[ends // 2 + 1].tolist()))


# ---------------------------------------------------------------------------
# Fold-based membership machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FoldContext:
    mu: np.ndarray
    sorted_scores: tuple[np.ndarray, ...]
    sizes: np.ndarray
    n_used: int


_shared = threading.local()


@contextlib.contextmanager
def _shared_fold_predictions():
    """Inside the block, the set builders called on this thread build the
    fold context of a (cv, folds, test row) triple once and share it: the
    fold predictions mu_k(test_x) and the sorted fold scores.

    A scope rather than a parameter keeps the public builders' signatures,
    and the builders stay the calls that a caller makes.
    """
    outer = getattr(_shared, "memo", None)
    _shared.memo = []
    try:
        yield
    finally:
        _shared.memo = outer


def _fold_context(cv: CvScores, folds: FoldAssignment, test_x) -> _FoldContext:
    memo = getattr(_shared, "memo", None)
    if memo and memo[0] is cv and memo[1] is folds and memo[2] is test_x:
        return memo[3]
    if cv.n_folds != folds.n_folds:
        raise InvalidConfigurationError(
            f"cv scores carry {cv.n_folds} fold models but the assignment has {folds.n_folds}"
        )
    mu = fold_predictions(cv, test_x)
    sorted_scores = tuple(np.sort(cv.scores[m]) for m in folds.fold_members)
    ctx = _FoldContext(mu, sorted_scores, folds.fold_sizes, folds.n_used)
    if memo is not None:
        memo[:] = (cv, folds, test_x, ctx)
    return ctx


def _candidates(ctx: _FoldContext) -> np.ndarray:
    parts = []
    for k, s in enumerate(ctx.sorted_scores):
        parts.append(ctx.mu[k] - s)
        parts.append(ctx.mu[k] + s)
    return np.unique(np.concatenate(parts))


def candidate_endpoints(cv: CvScores, folds: FoldAssignment, test_x) -> np.ndarray:
    """All breakpoints mu_k +/- S_i of the membership statistics, deduplicated."""
    return _candidates(_fold_context(cv, folds, test_x))


@dataclass(frozen=True)
class _FoldStats:
    """Every membership statistic at a vector of candidate responses."""

    le: np.ndarray
    P: np.ndarray
    mean: np.ndarray
    emod: np.ndarray
    weights: np.ndarray
    n_used: int


def _fold_weights(sizes: np.ndarray) -> np.ndarray:
    """Weights (m_k + 1) / (n + K) of the dual form; they sum to one, and
    equal sizes give exactly 1/K each."""
    return (sizes + 1) / (int(sizes.sum()) + sizes.size)


def _fold_stats(ctx: _FoldContext, ys, tau: float | None = None) -> _FoldStats:
    """Every statistic at each candidate y: per fold, the weak count
    le = #{s(y) <= S_i} and, only when ``tau`` is given, the strict count
    lt = #{s(y) < S_i}; from them the fold p-values (tau-smoothed when
    ``tau`` is given), their mean and their prefix-min mean. Mean and
    prefix-min mean come from one shared accumulation, so that the prefix
    minimum can never exceed the mean by rounding."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    le = np.empty((ys.size, len(ctx.sorted_scores)), dtype=np.int64)
    lt = None if tau is None else np.empty_like(le)
    for k, s in enumerate(ctx.sorted_scores):
        t = np.abs(ys - ctx.mu[k])
        le[:, k] = s.size - np.searchsorted(s, t, side="left")
        if lt is not None:
            lt[:, k] = s.size - np.searchsorted(s, t, side="right")
    denom = ctx.sizes + 1.0
    P = (1.0 + le) / denom if tau is None else (tau + tau * (le - lt) + lt) / denom
    cummean = np.cumsum(P, axis=1) / np.arange(1, P.shape[1] + 1)
    weights = _fold_weights(ctx.sizes)
    return _FoldStats(le, P, cummean[:, -1], cummean.min(axis=1), weights, ctx.n_used)


def _method_mask(
    method: str, threshold: float, st: _FoldStats, draws: RandomDraws | None
) -> np.ndarray:
    if method == "cross":
        return (1.0 + st.le.sum(axis=1)) / (st.n_used + 1.0) > threshold
    if method == "mod":
        return st.mean > threshold
    if method in ("e-mod", "e-cross"):
        return st.emod > threshold
    if method == "u-mod":
        return st.mean / (2.0 - draws.u) > threshold
    if method == "u-cross":
        return (st.P @ st.weights) / (2.0 - draws.u) > threshold
    if method in ("eu-mod", "eu-cross"):
        return np.minimum(st.P[:, 0] / (2.0 - draws.u), st.emod) > threshold
    raise InvalidConfigurationError(f"unknown method {method!r}")


def fold_method_sets(
    cv: CvScores,
    folds: FoldAssignment,
    test_x,
    alpha: float,
    methods,
    draws: RandomDraws | None = None,
    smoothed: bool = False,
) -> dict[str, PredictionSet]:
    """Prediction sets of several fold-based methods from one shared scan.

    All requested methods see the same fold models, scores, tau and U, so
    per-candidate containment relations between them hold exactly. ``smoothed``
    switches the fold p-values to their tau-randomized form (requires
    ``draws``); the plain ``cross`` method always uses the pooled rank count.
    A repeated method gives one set. Warns once, naming each method whose
    threshold is too small for the point count behind its statistic to
    exclude any response value.
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in FOLD_METHODS]
    if unknown:
        raise InvalidConfigurationError(f"unknown fold methods: {unknown}")
    if not 0.0 < alpha < 1.0:
        raise InvalidConfigurationError("alpha must lie strictly inside (0, 1)")
    if draws is None and (smoothed or any(m in _DRAW_METHODS for m in methods)):
        raise InvalidConfigurationError(
            "randomized methods and smoothed p-values require a (tau, U) draw"
        )
    sizes = folds.fold_sizes
    if sizes.min() != sizes.max() and any(m in _EXCHANGEABLE_CROSS for m in methods):
        raise InvalidConfigurationError(
            "e-cross and eu-cross need equal fold sizes; with varying sizes only "
            "u-cross keeps its guarantee"
        )
    ctx = _fold_context(cv, folds, test_x)
    ap = alpha_prime(alpha, folds.n_folds, ctx.n_used)
    bounds, ys = _pieces(_candidates(ctx))
    st = _fold_stats(ctx, ys, draws.tau if smoothed else None)
    out: dict[str, PredictionSet] = {}
    uninformative: list[str] = []
    for method in dict.fromkeys(methods):
        threshold = ap if method.endswith("-cross") else alpha
        m = ctx.n_used if method == "cross" else sizes
        if np.any(1.0 >= threshold * (m + 1)):
            uninformative.append(method)
        mask = _method_mask(method, threshold, st, draws)
        out[method] = PredictionSet(tuple(_runs(bounds, mask)))
    if uninformative:
        warnings.warn(
            "threshold too small for the fold sizes (1 >= threshold * (m + 1)) for "
            + ", ".join(uninformative)
            + "; prediction sets may span the whole line",
            InformativenessWarning,
            stacklevel=2,
        )
    return out


def cross_membership(cv: CvScores, folds: FoldAssignment, test_x, alpha: float, ys) -> np.ndarray:
    """Pooled rank-count membership of each y: (1 + total count) / (n + 1) > alpha."""
    st = _fold_stats(_fold_context(cv, folds, test_x), ys)
    return _method_mask("cross", alpha, st, None)


# ---------------------------------------------------------------------------
# CV+ (jackknife+ when K = n)
# ---------------------------------------------------------------------------

def cv_plus_from_scores(
    cv: CvScores, folds: FoldAssignment, test_x, alpha: float
) -> PredictionSet:
    """Interval between the empirical quantiles of mu_k(i)(x) -/+ S_i.

    Always a single interval (possibly empty or the whole line); contains the
    plain cross-validation conformal set under the residual score.
    """
    ctx = _fold_context(cv, folds, test_x)
    mu_i = np.repeat(ctx.mu, ctx.sizes)
    s_i = np.concatenate(ctx.sorted_scores)
    gamma = (1.0 - alpha) * (1.0 + 1.0 / folds.n_used)
    hi = empirical_quantile(mu_i + s_i, gamma)
    lo = -empirical_quantile(-(mu_i - s_i), gamma)
    if math.isinf(hi) or math.isinf(lo):
        warnings.warn(
            f"quantile level {gamma:.6g} exceeds one; the CV+ set is the whole line",
            InformativenessWarning,
            stacklevel=2,
        )
        return PredictionSet(((-INF, INF),))
    if lo > hi:  # inverted quantiles can only happen at levels below one half
        return PredictionSet(())
    return PredictionSet(((lo, hi),))
