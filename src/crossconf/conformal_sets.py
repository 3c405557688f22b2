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

import math
import threading
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .combiners import alpha_prime, conformal_rank
from .data_model import Dataset, FoldAssignment, RandomDraws, RandomSource, freeze_arrays
from .errors import InvalidConfigurationError
from .regression import FittedModel, fit
from .scores import CvScores, ScoreFunctionSpec, fold_predictions

__all__ = [
    "FOLD_METHODS",
    "ALL_METHODS",
    "InformativenessWarning",
    "PredictionSet",
    "SplitState",
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
    """Raised by a set builder exactly when the set it returns is the whole line."""


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


def _kth(z: np.ndarray, k: int) -> float:
    """The k-th smallest of z, counting from 1; +inf for k = z.size + 1."""
    return INF if k > z.size else float(np.partition(z, k - 1)[k - 1])


# ---------------------------------------------------------------------------
# Split conformal prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitState:
    """Frozen result of one train/calibration split.

    Reusable across any number of test points, with read-only arrays.
    ``rank`` is ``conformal_rank(alpha, n_cal)``, the calibration order statistic
    the set takes; n_cal + 1 makes the set the whole line.
    """

    train_idx: np.ndarray
    cal_idx: np.ndarray
    cal_scores: np.ndarray
    rank: int
    model: FittedModel
    __post_init__ = freeze_arrays


def split_conformal(
    data: Dataset, alpha: float, spec: ScoreFunctionSpec, rng: RandomSource
) -> SplitState:
    """Random 50/50 split; fit on one half, score residuals on the other.

    With an odd number of points the extra one goes to the training half.
    """
    if data.n < 2:
        raise InvalidConfigurationError("split conformal needs at least two points")
    rank = conformal_rank(alpha, data.n // 2)
    perm = rng.generator("split").permutation(data.n)
    n_train = (data.n + 1) // 2
    train_idx, cal_idx = perm[:n_train], perm[n_train:]
    model = fit(spec.regressor, data.subset(train_idx))
    preds = model.predict(data.features[cal_idx])
    cal_scores = np.abs(data.responses[cal_idx] - preds)
    return SplitState(train_idx, cal_idx, cal_scores, rank, model)


def split_set_from_state(state: SplitState, test_x) -> PredictionSet:
    """Residual-score split interval mu(test_x) +/- calibration quantile."""
    q = _kth(state.cal_scores, state.rank)
    mu = float(state.model.predict(np.atleast_2d(np.asarray(test_x, float)))[0])
    if math.isinf(q):
        warnings.warn(
            f"rank {state.rank} is past the {state.cal_scores.size} calibration scores; "
            "the split set is the whole line",
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


_last = threading.local()


def _fold_context(cv: CvScores, folds: FoldAssignment, test_x) -> _FoldContext:
    """The fold predictions mu_k(test_x) and the sorted fold scores. Each thread
    keeps the context it built last, so the builders called in turn on one row
    predict the K fold models once. The fit is matched by weak references, so
    the memo keeps no fit alive and a new fit at a freed address is not taken
    for it; the row is matched by its bytes, so a buffer changed in place is a
    new row. Fits are read-only, so a matched fit still has the same models."""
    row = np.asarray(test_x, dtype=float).tobytes()
    memo = getattr(_last, "memo", None)
    if memo and memo[0]() is cv and memo[1]() is folds and memo[2] == row:
        return memo[3]
    if cv.n_folds != folds.n_folds:
        raise InvalidConfigurationError(
            f"cv scores carry {cv.n_folds} fold models but the assignment has {folds.n_folds}"
        )
    mu = fold_predictions(cv, test_x)
    sorted_scores = tuple(np.sort(cv.scores[m]) for m in folds.fold_members)
    ctx = _FoldContext(mu, sorted_scores, folds.fold_sizes, folds.n_used)
    _last.memo = (weakref.ref(cv), weakref.ref(folds), row, ctx)
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
    pooled: np.ndarray
    first: np.ndarray
    mean: np.ndarray
    emod: np.ndarray
    n_used: int


def _fold_stats(ctx: _FoldContext, ys, tau: float | None = None) -> _FoldStats:
    """Every statistic at each candidate y, from per-fold weak counts le = #{s(y) <= S_i}
    and, when ``tau`` is given, strict counts lt. Fold k's p-value is a numerator over
    m_k + 1: the integer 1 + le, or tau + tau * (le - lt) + lt. Times the integer
    L / (m_k + 1), L = lcm(m_k + 1), each running mean is one division of a prefix sum by
    l * L, and u-cross divides the pooled numerator sum once by n_used + K. A deterministic
    statistic and its threshold are then correctly rounded rationals in [0, 1] with
    denominators at most K * L and 10^d * (n_used + K), d = decimals of alpha; while that
    product is below 2^52, their gap (at least its reciprocal) exceeds both roundings and
    ``>`` decides exactly. u-* rounds once more (by 2 - U); smoothed numerators are floats."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    le = np.empty((ys.size, len(ctx.sorted_scores)), dtype=np.int64)
    lt = None if tau is None else np.empty_like(le)
    for k, s in enumerate(ctx.sorted_scores):
        t = np.abs(ys - ctx.mu[k])
        le[:, k] = s.size - np.searchsorted(s, t, side="left")
        if lt is not None:
            lt[:, k] = s.size - np.searchsorted(s, t, side="right")
    num = 1 + le if tau is None else tau + tau * (le - lt) + lt
    pooled, first = num.sum(axis=1) / (ctx.n_used + le.shape[1]), num[:, 0] / (ctx.sizes[0] + 1)
    L = np.lcm.reduce(ctx.sizes + 1)
    num *= L // (ctx.sizes + 1)
    cummean = np.cumsum(num, axis=1, out=num) / (L * np.arange(1, le.shape[1] + 1))
    return _FoldStats(le, pooled, first, cummean[:, -1], cummean.min(axis=1), ctx.n_used)


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
        return st.pooled / (2.0 - draws.u) > threshold
    if method in ("eu-mod", "eu-cross"):
        return np.minimum(st.first / (2.0 - draws.u), st.emod) > threshold
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
    A repeated method gives one set. Warns once, naming each method whose set
    is the whole line: its statistic passes the threshold at count 0, its least
    value, taken on the left ray.
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in FOLD_METHODS]
    if unknown:
        raise InvalidConfigurationError(f"unknown fold methods: {unknown}")
    ap = alpha_prime(alpha, folds.n_folds, folds.n_used)
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
    bounds, ys = _pieces(_candidates(ctx))
    st = _fold_stats(ctx, ys, draws.tau if smoothed else None)
    out: dict[str, PredictionSet] = {}
    uninformative: list[str] = []
    for method in dict.fromkeys(methods):
        threshold = ap if method.endswith("-cross") else alpha
        mask = _method_mask(method, threshold, st, draws)
        if mask[0]:
            uninformative.append(method)
        out[method] = PredictionSet(tuple(_runs(bounds, mask)))
    if uninformative:
        warnings.warn(
            "threshold too small to exclude any response for "
            + ", ".join(uninformative)
            + "; their sets are the whole line",
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
    """Interval between the ``conformal_rank``-th order statistics of mu_k(i)(x) -/+ S_i.

    Always a single interval (possibly empty or the whole line); contains the
    plain cross-validation conformal set under the residual score.
    """
    rank = conformal_rank(alpha, folds.n_used)
    ctx = _fold_context(cv, folds, test_x)
    mu_i = np.repeat(ctx.mu, ctx.sizes)
    s_i = np.concatenate(ctx.sorted_scores)
    hi = _kth(mu_i + s_i, rank)
    lo = -_kth(-(mu_i - s_i), rank)
    if math.isinf(hi) or math.isinf(lo):
        warnings.warn(
            f"rank {rank} is past the {folds.n_used} scores; the CV+ set is the whole line",
            InformativenessWarning,
            stacklevel=2,
        )
        return PredictionSet(((-INF, INF),))
    if lo > hi:  # inverted quantiles can only happen at levels below one half
        return PredictionSet(())
    return PredictionSet(((lo, hi),))
