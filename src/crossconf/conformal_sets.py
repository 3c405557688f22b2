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
they are evaluated directly and intervals are closed. Every verdict compares
an integer count sum with an integer bound computed once per call from the
exact ratios of alpha, alpha' and U, so no rounding enters a set. ``_runs``
takes the masks of all requested methods as one (methods, pieces) matrix and
finds every run in one pass over it. It also counts a breakpoint between two
included gaps as included, so a set is the closure of its membership set.
That is the exact set, because the weak counts keep every breakpoint at least
as included as its neighbouring gaps.
"""

from __future__ import annotations

import math
import threading
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .combiners import conformal_rank, fold_thresholds
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
    "predict_block",
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
    row = _one_row(test_x)
    q = _kth(state.cal_scores, state.rank)
    block = getattr(_last, "block", None)
    i = block.index.get(row.tobytes()) if block and block.split() is state else None
    mu = float(state.model.predict(row)[0] if i is None else block.split_mu[i])
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


def _runs(bounds: np.ndarray, masks: np.ndarray) -> list[list[tuple[float, float]]]:
    """Per row of the (sets, pieces) boolean ``masks``, the (lo, hi) of every
    maximal run of true pieces of the closed row, in order: a false breakpoint
    between two true gaps is closed over, so the runs come out sorted, disjoint
    and non-touching. Piece j spans ``bounds[(j + 1) // 2]`` to
    ``bounds[j // 2 + 1]``. One pass serves all rows: pad with false columns,
    close over, diff along the pieces, and one flat ``nonzero`` each for the run
    starts and ends, whose flat positions also give the row cuts. An alternating
    row picks the breakpoints, as strided slices and the 2-D ``nonzero`` are
    several times slower on a few rows of thousands of pieces."""
    rows, width = masks.shape[0], masks.shape[1] + 1
    padded = np.zeros((rows, width + 1), dtype=bool)
    padded[:, 1:-1] = masks
    odd = np.zeros(max(width - 3, 0), dtype=bool)
    odd[::2] = True
    padded[:, 2:-2] |= masks[:, :-2] & masks[:, 2:] & odd
    edges = np.diff(padded.view(np.int8), axis=1).ravel()
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    pairs = list(zip(bounds[(starts % width + 1) // 2].tolist(),
                     bounds[(ends % width + 1) // 2].tolist()))
    cuts = np.searchsorted(starts, np.arange(rows + 1) * width).tolist()
    return [pairs[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


# ---------------------------------------------------------------------------
# Fold-based membership machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FoldContext:
    mu: np.ndarray
    sorted_scores: tuple[np.ndarray, ...]
    sizes: np.ndarray
    n_used: int


@dataclass(frozen=True)
class _QueryBlock:
    """The predictions of a block of rows, found by each row's bytes in
    ``index``: the fold predictions ``mu`` (rows, K) of ``cv`` with the sorted
    fold scores of the fit, and the predictions ``split_mu`` of the split model
    of ``split``. A model left out of the block has a reference to None."""

    index: dict[bytes, int]
    cv: weakref.ref
    folds: weakref.ref
    mu: np.ndarray | None
    sorted_scores: tuple[np.ndarray, ...]
    split: weakref.ref
    split_mu: np.ndarray | None


# Per thread: ``block``, the _QueryBlock built last.
_last = threading.local()


def _ref(obj):
    """A weak reference to obj; for None, a callable that returns None."""
    return (lambda: None) if obj is None else weakref.ref(obj)


def _one_row(test_x) -> np.ndarray:
    """test_x as one feature row: a vector, or a matrix holding one row."""
    row = np.asarray(test_x, dtype=float)
    if row.ndim != 1 and not (row.ndim == 2 and row.shape[0] == 1):
        raise InvalidConfigurationError(
            f"test_x must be one feature row, not an array of shape {row.shape}"
        )
    return row.reshape(-1)


def predict_block(
    cv: CvScores | None, folds: FoldAssignment, split_state: SplitState | None, rows
) -> _QueryBlock:
    """Predict a matrix of query rows with one call per fitted model: the K fold
    models of ``cv`` and the split model of ``split_state``, either of which may
    be None. The calling thread keeps the block for the per-row builders that
    follow on these rows. Predictions are row-wise, so a row's sets are the same
    as when it is predicted alone. This is the block path of
    ``experiments.query_sets``; the package does not export it."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InvalidConfigurationError(f"rows must be a matrix, not an array of shape {rows.shape}")
    mu, sorted_scores, split_mu = None, (), None
    if cv is not None:
        if cv.n_folds != folds.n_folds:
            raise InvalidConfigurationError(
                f"cv scores carry {cv.n_folds} fold models but the assignment has {folds.n_folds}"
            )
        mu = fold_predictions(cv, rows)
        sorted_scores = tuple(np.sort(cv.scores[m]) for m in folds.fold_members)
    if split_state is not None:
        split_mu = split_state.model.predict(rows)
    _last.block = _QueryBlock({row.tobytes(): i for i, row in enumerate(rows)},
                              _ref(cv), _ref(folds), mu, sorted_scores,
                              _ref(split_state), split_mu)
    return _last.block


def _fold_context(cv: CvScores, folds: FoldAssignment, test_x) -> _FoldContext:
    """The fold predictions mu_k(test_x) and the sorted fold scores. Each thread
    keeps the last block of rows it predicted: the rows of ``predict_block``,
    or the one row of a miss. So the rows of a block are predicted together,
    and the builders called in turn on one row predict the K fold models once.
    The fit is matched by weak references, so the memo keeps no fit alive and a
    new fit at a freed address is not taken for it; a row is matched by its
    bytes, so a buffer changed in place is a new row. Fits are read-only, so a
    matched fit still has the same models."""
    row = _one_row(test_x)
    key = row.tobytes()
    block = getattr(_last, "block", None)
    if not (block and block.cv() is cv and block.folds() is folds and key in block.index):
        block = predict_block(cv, folds, None, row[None])
    return _FoldContext(block.mu[block.index[key]], block.sorted_scores, folds.fold_sizes,
                        folds.n_used)


def _candidates(ctx: _FoldContext) -> np.ndarray:
    parts = []
    for k, s in enumerate(ctx.sorted_scores):
        parts.append(ctx.mu[k] - s)
        parts.append(ctx.mu[k] + s)
    return np.unique(np.concatenate(parts))


def candidate_endpoints(cv: CvScores, folds: FoldAssignment, test_x) -> np.ndarray:
    """All breakpoints mu_k +/- S_i of the membership statistics, deduplicated."""
    return _candidates(_fold_context(cv, folds, test_x))


def _fold_masks(ctx: _FoldContext, ys, alpha: float, methods, draws: RandomDraws | None) -> np.ndarray:
    """The (methods, len(ys)) verdicts of the fold ``methods`` at each candidate y, each an
    integer comparison. Fold k's p-value is (1 + le_k) / (m_k + 1), le_k the weak count
    #{S_i >= |y - mu_k|}. With the integer weights L / (m_k + 1), L = lcm(m_k + 1), the
    prefix sums P_l of the first l p-values times L are integers, added one fold row at a
    time. With c = sum_k le_k, n = n_used, a and a' the ratios of ``fold_thresholds`` and
    U its binary value, a statistic exceeds its threshold t (a for the -mod forms, a' for
    the -cross forms) exactly when

        mod      P_K > floor(K L a)        u-mod     P_K > floor(K L a (2 - U))
        cross    1 + c > floor((n + 1) a)  u-cross   c + K > floor((n + K) a' (2 - U))
        e-*      P_l > floor(l L t) for every l
        eu-*     P_1 > floor(L t (2 - U)) and the e-* verdict

    Each bound is below twice the largest sum it is compared with, so int64 holds it."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    k, n = len(ctx.sorted_scores), ctx.n_used
    plain = fold_thresholds(alpha, k, n)  # indexed by whether a method is a -cross form
    if draws is not None:
        u_num, u_den = float(draws.u).as_integer_ratio()
        scaled = tuple((num * (2 * u_den - u_num), den * u_den) for num, den in plain)
    le = np.empty((k, ys.size), dtype=np.int64)
    for j, s in enumerate(ctx.sorted_scores):
        le[j] = s.size - np.searchsorted(s, np.abs(ys - ctx.mu[j]), side="left")
    count = le.sum(axis=0)
    L = int(np.lcm.reduce(ctx.sizes + 1))
    le += 1  # in place, as the counts are not read again
    prefix = np.multiply(le, (L // (ctx.sizes + 1))[:, None], out=le)
    for j in range(1, k):
        np.add(prefix[j - 1], prefix[j], out=prefix[j])

    def floor(ratio: tuple[int, int], m: int) -> int:
        return m * ratio[0] // ratio[1]

    exchangeable = {}
    for cross in {m.endswith("-cross") for m in methods if m[0] == "e"}:
        bounds = np.array([floor(plain[cross], l * L) for l in range(1, k + 1)])
        exchangeable[cross] = (prefix > bounds[:, None]).all(axis=0)
    masks = np.empty((len(methods), ys.size), dtype=bool)
    for i, m in enumerate(methods):
        cross = m.endswith("-cross")
        t = (scaled if "u" in m else plain)[cross]
        if m in ("mod", "u-mod"):
            masks[i] = prefix[-1] > floor(t, k * L)
        elif m == "cross":
            masks[i] = count > floor(t, n + 1) - 1
        elif m == "u-cross":
            masks[i] = count > floor(t, n + k) - k
        elif m in ("e-mod", "e-cross"):
            masks[i] = exchangeable[cross]
        else:
            np.logical_and(prefix[0] > floor(t, L), exchangeable[cross], out=masks[i])
    return masks


def fold_method_sets(
    cv: CvScores,
    folds: FoldAssignment,
    test_x,
    alpha: float,
    methods,
    draws: RandomDraws | None = None,
) -> dict[str, PredictionSet]:
    """Prediction sets of several fold-based methods from one shared scan.

    All requested methods see the same fold models, scores and U, so
    per-candidate containment relations between them hold exactly. Every fold
    p-value is the rank p-value (1 + le) / (m_k + 1); the plain ``cross``
    method uses the pooled rank count. A repeated method gives one set. Warns once, naming each method whose set
    is the whole line: its statistic passes the threshold at count 0, its least
    value, taken on the left ray.
    """
    methods = list(dict.fromkeys(methods))
    unknown = [m for m in methods if m not in FOLD_METHODS]
    if unknown:
        raise InvalidConfigurationError(f"unknown fold methods: {unknown}")
    if draws is None and any(m in _DRAW_METHODS for m in methods):
        raise InvalidConfigurationError("randomized methods require a (tau, U) draw")
    sizes = folds.fold_sizes
    if sizes.min() != sizes.max() and any(m in _EXCHANGEABLE_CROSS for m in methods):
        raise InvalidConfigurationError(
            "e-cross and eu-cross need equal fold sizes; with varying sizes only "
            "u-cross keeps its guarantee"
        )
    ctx = _fold_context(cv, folds, test_x)
    bounds, ys = _pieces(_candidates(ctx))
    masks = _fold_masks(ctx, ys, alpha, methods, draws)
    out = {m: PredictionSet(tuple(runs)) for m, runs in zip(methods, _runs(bounds, masks))}
    uninformative = [m for m, whole in zip(methods, masks[:, 0].tolist()) if whole]
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
    return _fold_masks(_fold_context(cv, folds, test_x), ys, alpha, ["cross"], None)[0]


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
