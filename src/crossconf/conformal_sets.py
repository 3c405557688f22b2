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
import warnings
from dataclasses import dataclass, field

import numpy as np

from .combiners import conformal_rank, fold_thresholds
from .data_model import (
    Dataset, FoldAssignment, RandomDraws, RandomSource, freeze_arrays, json_number,
)
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

    Endpoints may be -inf/+inf.
    """

    intervals: tuple[tuple[float, float], ...]

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
        return PredictionSet(((self.intervals[0][0], self.intervals[-1][1]),))

    def to_jsonable(self) -> list:
        return [[json_number(lo), json_number(hi)] for lo, hi in self.intervals]


def _kth(z: np.ndarray, k: int) -> float:
    """The k-th smallest of z, counting from 1; +inf for k = z.size + 1."""
    return INF if k > z.size else float(np.partition(z, k - 1)[k - 1])


def _rank_set(mu, scores: np.ndarray, rank: int, noun: str, method: str) -> PredictionSet:
    """The interval from the ``rank``-th largest of mu - S_i to the ``rank``-th smallest
    of mu + S_i, for split conformal (one model) and CV+ alike. Empty when the ends cross;
    the whole line, with a warning for the builder's caller, exactly when both ends are
    infinite. The lower end negates twice, so a +0.0 end keeps its sign."""
    with np.errstate(over="ignore"):  # an end past the largest double is unbounded
        lo = -_kth(-(mu - scores), rank)
        hi = _kth(mu + scores, rank)
    if lo == -INF and hi == INF:
        warnings.warn(
            f"rank {rank} is past the {scores.size} {noun}; the {method} set is the whole line",
            InformativenessWarning,
            stacklevel=3,
        )
    return PredictionSet(() if lo > hi else ((lo, hi),))


# ---------------------------------------------------------------------------
# Split conformal prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SplitState:
    """Frozen result of one train/calibration split.

    Reusable across any number of test points, with read-only arrays.
    ``rank`` is ``conformal_rank(alpha, n_cal)``, the calibration order statistic
    the set takes; n_cal + 1 makes the set the whole line. ``last_block`` is the
    block of query rows that ``predict_block`` predicted last, replaced whole:
    (row index by bytes, predictions).
    """

    cal_scores: np.ndarray
    rank: int
    model: FittedModel
    last_block: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        freeze_arrays(self, cal_scores=float)


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
    return SplitState(cal_scores, rank, model)


def split_set_from_state(state: SplitState, test_x) -> PredictionSet:
    """Residual-score split interval mu(test_x) +/- calibration quantile: the CV+ set
    of the one split model, with mu(test_x) read through the state's last block."""
    mu = float(_predicted(state, test_x))
    return _rank_set(mu, state.cal_scores, state.rank, "calibration scores", "split")


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

def _one_row(test_x) -> np.ndarray:
    """test_x as one feature row: a vector, or a matrix holding one row."""
    row = np.asarray(test_x, dtype=float)
    if row.ndim != 1 and not (row.ndim == 2 and row.shape[0] == 1):
        raise InvalidConfigurationError(
            f"test_x must be one feature row, not an array of shape {row.shape}"
        )
    return row.reshape(-1)


def predict_block(cv: CvScores | None, split_state: SplitState | None, rows) -> None:
    """Predict a matrix of query rows with one call per fitted model: the K fold
    models of ``cv`` and the split model of ``split_state``, either of which may
    be None. Each fit keeps the block in its ``last_block``, replacing the one
    before, for the per-row builders that follow on these rows. Predictions are
    row-wise, so a row's sets are the same as when it is predicted alone. The
    block path of ``experiments.query_sets``; the package does not export it."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise InvalidConfigurationError(f"rows must be a matrix, not an array of shape {rows.shape}")
    index = {row.tobytes(): i for i, row in enumerate(rows)}
    for fit in (cv, split_state):
        if fit is not None:
            _keep_block(fit, index, rows)


def _keep_block(fit: CvScores | SplitState, index: dict, rows: np.ndarray) -> tuple:
    """Store and return the fit's block of ``rows``: (``index``, predictions)."""
    preds = fold_predictions(fit, rows) if isinstance(fit, CvScores) else fit.model.predict(rows)
    block = (index, preds)
    object.__setattr__(fit, "last_block", block)
    return block


def _predicted(fit: CvScores | SplitState, test_x) -> np.ndarray:
    """mu_k(test_x) of a ``CvScores``, or mu(test_x) of a ``SplitState``, from the
    fit's last block if it holds the row, else from a new block of this row: builders
    called in turn on one row predict each model once. A row is matched by its bytes,
    so a buffer changed in place is a new row; fits are read-only, so a block stays
    true to its fit. The slot is read once: a thread sharing the fit may replace it."""
    row = _one_row(test_x)
    key = row.tobytes()
    block = fit.last_block
    if not (block and key in block[0]):
        block = _keep_block(fit, {key: 0}, row[None])
    return block[1][block[0][key]]


def _fold_mu(cv: CvScores, folds: FoldAssignment, test_x) -> np.ndarray:
    """mu_k(test_x); ``folds`` must be ``cv.folds``, as another assignment regroups the scores."""
    if folds is not cv.folds:
        raise InvalidConfigurationError("folds must be cv.folds, the assignment cv was scored on")
    return _predicted(cv, test_x)


def _candidates(cv: CvScores, mu: np.ndarray) -> np.ndarray:
    """All breakpoints mu_k +/- S_i, deduplicated and sorted."""
    mu_i = np.repeat(mu, cv.folds.fold_sizes)
    return np.unique(np.concatenate((mu_i - cv.sorted_scores, mu_i + cv.sorted_scores)))


def candidate_endpoints(cv: CvScores, folds: FoldAssignment, test_x) -> np.ndarray:
    """All breakpoints mu_k +/- S_i of the membership statistics, deduplicated."""
    return _candidates(cv, _fold_mu(cv, folds, test_x))


def _fold_masks(cv: CvScores, mu, ys, alpha: float, methods, draws: RandomDraws | None) -> np.ndarray:
    """The (methods, len(ys)) verdicts of the fold ``methods`` at each candidate y of a query
    with fold predictions ``mu``, each an integer comparison. Fold k's p-value is
    (1 + le_k) / (m_k + 1), le_k the weak count #{S_i >= |y - mu_k|}. With the integer
    weights L / (m_k + 1), L = lcm(m_k + 1), the prefix sums P_l of the first l p-values
    times L are integers, added one fold row at a time. With c = sum_k le_k, n = n_used, a
    and a' the ratios of ``fold_thresholds`` and U its binary value, a statistic exceeds its
    threshold t (a for the -mod forms, a' for the -cross forms) exactly when

        mod      P_K > floor(K L a)        u-mod     P_K > floor(K L a (2 - U))
        cross    1 + c > floor((n + 1) a)  u-cross   c + K > floor((n + K) a' (2 - U))
        e-*      P_l > floor(l L t) for every l
        eu-*     P_1 > floor(L t (2 - U)) and the e-* verdict

    Each bound is below twice the largest sum it is compared with, so int64 holds it."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    k, n, sizes = cv.n_folds, cv.folds.n_used, cv.folds.fold_sizes
    plain = fold_thresholds(alpha, k, n)  # indexed by whether a method is a -cross form
    if draws is not None:
        u_num, u_den = float(draws.u).as_integer_ratio()
        scaled = tuple((num * (2 * u_den - u_num), den * u_den) for num, den in plain)
    le = np.empty((k, ys.size), dtype=np.int64)
    for j, s in enumerate(cv.sorted_by_fold):
        le[j] = s.size - np.searchsorted(s, np.abs(ys - mu[j]), side="left")
    count = le.sum(axis=0)
    L = int(np.lcm.reduce(sizes + 1))
    le += 1  # in place, as the counts are not read again
    prefix = np.multiply(le, (L // (sizes + 1))[:, None], out=le)
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
    mu = _fold_mu(cv, folds, test_x)
    sizes = folds.fold_sizes
    if sizes.min() != sizes.max() and any(m in _EXCHANGEABLE_CROSS for m in methods):
        raise InvalidConfigurationError(
            "e-cross and eu-cross need equal fold sizes; with varying sizes only "
            "u-cross keeps its guarantee"
        )
    bounds, ys = _pieces(_candidates(cv, mu))
    masks = _fold_masks(cv, mu, ys, alpha, methods, draws)
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
    return _fold_masks(cv, _fold_mu(cv, folds, test_x), ys, alpha, ["cross"], None)[0]


# ---------------------------------------------------------------------------
# CV+ (jackknife+ when K = n)
# ---------------------------------------------------------------------------

def cv_plus_from_scores(
    cv: CvScores, folds: FoldAssignment, test_x, alpha: float
) -> PredictionSet:
    """Interval between the ``conformal_rank``-th order statistics of mu_k(i)(x) -/+ S_i.

    Always a single interval (possibly empty or the whole line); contains the
    plain cross-validation conformal set under the residual score. Split
    conformal is this set of one model.
    """
    rank = conformal_rank(alpha, folds.n_used)
    mu_i = np.repeat(_fold_mu(cv, folds, test_x), folds.fold_sizes)
    return _rank_set(mu_i, cv.sorted_scores, rank, "scores", "CV+")
