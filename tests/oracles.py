"""Scalar reference implementations the tests compare the package against.

The package evaluates every membership rule in one vectorized kernel over
all candidate responses. The functions here restate the definitions one
candidate at a time: the fold p-values (deterministic and tau-randomized),
the four combination statistics, the weighted-mean dual form of the plain
cross set, the exact verdict of every fold method, the split p-value,
the CV+ set from raw data and the minimum-norm least squares fit through
LAPACK lstsq, plus two test helpers (set containment and the
Monte-Carlo standard error). They use only the public API of ``crossconf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from crossconf import (
    CvScores,
    Dataset,
    FoldAssignment,
    InvalidConfigurationError,
    PredictionSet,
    RandomDraws,
    RegressorSpec,
    ScoreFunctionSpec,
    SplitState,
    compute_cv_scores,
    cv_plus_from_scores,
)
from crossconf.regression import RCOND
from crossconf.scores import fold_predictions


@dataclass(frozen=True)
class PValueVector:
    """Ordered fold p-values for one candidate response.

    The order is the fold-index order of the assignment that produced them,
    which is already randomized; order matters to the asymmetric combination
    rules downstream.
    """

    values: np.ndarray
    fold_sizes: np.ndarray
    randomized: bool = False
    tau: float | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        sizes = np.array(self.fold_sizes, dtype=int)
        values.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "fold_sizes", sizes)
        if values.ndim != 1 or sizes.shape != values.shape:
            raise InvalidConfigurationError("values and fold_sizes must be 1-D and aligned")
        if values.size < 1:
            raise InvalidConfigurationError("need at least one fold p-value")
        if np.any(values <= 0.0) or np.any(values > 1.0):
            raise InvalidConfigurationError("p-values must lie in (0, 1]")
        if self.randomized and self.tau is None:
            raise InvalidConfigurationError("randomized p-values record their tau")

    @property
    def n_folds(self) -> int:
        return self.values.size


def fold_pvalue(test_s: float, fold_scores) -> float:
    """Rank-based p-value (1 + #{i : test_s <= S_i}) / (m + 1)."""
    scores = np.asarray(fold_scores, dtype=float)
    if scores.size == 0:
        raise InvalidConfigurationError("fold has no scores")
    if not np.isfinite(scores).all():
        raise InvalidConfigurationError("fold scores must be finite")
    count = int(np.count_nonzero(test_s <= scores))
    return (1 + count) / (scores.size + 1)


def fold_pvalue_randomized(test_s: float, fold_scores, tau: float) -> float:
    """Randomized p-value (tau + tau * #ties + #{test_s < S_i}) / (m + 1).

    Ties are detected by exact floating-point equality: with continuous scores
    they have measure zero, and an approximate-equality window would silently
    inflate the tau-weighted mass.
    """
    if not 0.0 < tau < 1.0:
        raise InvalidConfigurationError("tau must lie strictly inside (0, 1)")
    scores = np.asarray(fold_scores, dtype=float)
    if scores.size == 0:
        raise InvalidConfigurationError("fold has no scores")
    if not np.isfinite(scores).all():
        raise InvalidConfigurationError("fold scores must be finite")
    ties = int(np.count_nonzero(scores == test_s))
    strict = int(np.count_nonzero(test_s < scores))
    return (tau + tau * ties + strict) / (scores.size + 1)


def all_fold_pvalues(
    x,
    y: float,
    cv: CvScores,
    folds: FoldAssignment,
    draws: RandomDraws | None = None,
) -> PValueVector:
    """All K fold p-values of the candidate pair (x, y), in fold-index order.

    Passing ``draws`` switches to randomized p-values with ``draws.tau``
    shared by every fold.
    """
    return fold_pvalues_at(fold_predictions(cv, x)[0], y, cv, folds, draws)


def fold_pvalues_at(
    mu,
    y: float,
    cv: CvScores,
    folds: FoldAssignment,
    draws: RandomDraws | None = None,
) -> PValueVector:
    """``all_fold_pvalues`` at a query whose K fold predictions ``mu`` the
    caller has already computed."""
    if cv.n_folds != folds.n_folds:
        raise InvalidConfigurationError(
            f"cv scores carry {cv.n_folds} fold models but the assignment has {folds.n_folds}"
        )
    values = np.empty(folds.n_folds)
    for k, members in enumerate(folds.fold_members):
        test_s = abs(float(y) - mu[k])
        scores_k = cv.scores[members]
        if draws is None:
            values[k] = fold_pvalue(test_s, scores_k)
        else:
            values[k] = fold_pvalue_randomized(test_s, scores_k, draws.tau)
    return PValueVector(
        values,
        folds.fold_sizes,
        randomized=draws is not None,
        tau=None if draws is None else draws.tau,
    )


def _values(p) -> np.ndarray:
    values = np.asarray(getattr(p, "values", p), dtype=float)
    if values.ndim != 1 or values.size < 1:
        raise InvalidConfigurationError("need a nonempty 1-D p-value vector")
    return values


def _prefix_means(values: np.ndarray) -> np.ndarray:
    return np.cumsum(values) / np.arange(1, values.size + 1)


def stat_mod(p) -> float:
    """Arithmetic mean of the fold p-values."""
    return float(_prefix_means(_values(p))[-1])


def stat_emod(p) -> float:
    """Minimum over l of the mean of the first l p-values, in vector order."""
    return float(_prefix_means(_values(p)).min())


def stat_umod(p, draws: RandomDraws) -> float:
    """Mean p-value scaled by 1/(2 - U)."""
    if draws is None:
        raise InvalidConfigurationError("u-mod requires a U draw")
    return stat_mod(p) / (2.0 - draws.u)


def stat_eumod(p, draws: RandomDraws) -> float:
    """min(P_1 / (2 - U), running-minimum prefix mean)."""
    if draws is None:
        raise InvalidConfigurationError("eu-mod requires a U draw")
    values = _values(p)
    return min(float(values[0]) / (2.0 - draws.u), stat_emod(values))


def cross_membership_pvalue_form(
    cv: CvScores, folds: FoldAssignment, test_x, alpha: float, ys
) -> np.ndarray:
    """Dual membership of each y: the mean of the fold p-values, weighted by
    (m_k + 1)/(n + K), above the inflated threshold
    alpha + (1 - alpha)(K - 1)/(n + K). Equal fold sizes reduce the weights to
    exactly 1/K. Each count #{S_i >= |y - mu_k|} comes from comparing every y
    with every score of the fold."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    mu = fold_predictions(cv, test_x)[0]
    sizes = folds.fold_sizes
    P = np.empty((ys.size, folds.n_folds))
    for k, members in enumerate(folds.fold_members):
        scores = cv.scores[members]
        count = np.count_nonzero(np.abs(ys - mu[k])[:, None] <= scores[None, :], axis=1)
        P[:, k] = (1.0 + count) / (scores.size + 1.0)
    weights = (sizes + 1) / (folds.n_used + folds.n_folds)
    threshold = alpha + (1.0 - alpha) * (folds.n_folds - 1) / (folds.n_used + folds.n_folds)
    return P @ weights > threshold


def exact_fold_method_masks(
    cv: CvScores, folds: FoldAssignment, test_x, alpha: float, ys, draws: RandomDraws | None = None
) -> dict[str, np.ndarray]:
    """Every fold method's verdict at each y in exact rational arithmetic, with
    deterministic fold p-values. Each count #{S_i >= |y - mu_k|} comes from
    comparing y with every score of the fold. alpha is the decimal
    ``repr(alpha)`` and U its exact binary value; the methods that read U are
    left out when ``draws`` is None. u-cross is the dual form's weighted mean
    with weights (m_k + 1)/(n + K)."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    mu = fold_predictions(cv, test_x)[0]
    k, n = folds.n_folds, folds.n_used
    sizes = [int(m) for m in folds.fold_sizes]
    counts = np.column_stack([
        np.count_nonzero(np.abs(ys - mu[j])[:, None] <= cv.scores[members][None, :], axis=1)
        for j, members in enumerate(folds.fold_members)
    ])
    a = Fraction(repr(float(alpha)))
    a_prime = a + (1 - a) * Fraction(k - 1, k + n)
    scale = None if draws is None else 2 - Fraction(draws.u)
    out: dict[str, list[bool]] = {}
    for row in counts.tolist():
        p = [Fraction(1 + c, m + 1) for c, m in zip(row, sizes)]
        prefix = list(accumulate(p))
        mean = prefix[-1] / k
        emod = min(total / (l + 1) for l, total in enumerate(prefix))
        verdicts = {
            "mod": mean > a,
            "e-mod": emod > a,
            "cross": Fraction(1 + sum(row), n + 1) > a,
            "e-cross": emod > a_prime,
        }
        if scale is not None:
            weighted = sum(pk * Fraction(m + 1, n + k) for pk, m in zip(p, sizes))
            eu = min(p[0] / scale, emod)
            verdicts.update({
                "u-mod": mean / scale > a,
                "eu-mod": eu > a,
                "u-cross": weighted / scale > a_prime,
                "eu-cross": eu > a_prime,
            })
        for method, verdict in verdicts.items():
            out.setdefault(method, []).append(verdict)
    return {method: np.array(v, dtype=bool) for method, v in out.items()}


def split_pvalue(state: SplitState, test_x, y: float) -> float:
    """Rank p-value of the candidate against the calibration scores."""
    mu = float(state.model.predict(np.atleast_2d(np.asarray(test_x, float)))[0])
    s = abs(float(y) - mu)
    count = int(np.count_nonzero(s <= state.cal_scores))
    return (1 + count) / (state.cal_scores.size + 1)


def cv_plus_set(
    data: Dataset,
    folds: FoldAssignment,
    test_x,
    alpha: float,
    regressor: RegressorSpec,
) -> PredictionSet:
    """The CV+ set from raw data: fit the fold models, then build the set."""
    cv = compute_cv_scores(data, folds, ScoreFunctionSpec("residual", regressor))
    return cv_plus_from_scores(cv, folds, test_x, alpha)


def lstsq_min_norm_oracle(features, responses) -> np.ndarray:
    """Minimum-norm least squares coefficients by LAPACK's SVD solve (gelsd),
    singular values below RCOND * sigma_max treated as zero."""
    return np.linalg.lstsq(np.asarray(features, float), np.asarray(responses, float),
                           rcond=RCOND)[0]


def is_subset(inner: PredictionSet, outer: PredictionSet) -> bool:
    """Exact containment check between two normalized interval unions."""
    for lo, hi in inner.intervals:
        if not any(olo <= lo and hi <= ohi for olo, ohi in outer.intervals):
            return False
    return True


def mc_standard_error(rate: float, reps: int) -> float:
    """Standard error of a Monte-Carlo proportion, sqrt(c(1-c)/reps)."""
    return math.sqrt(rate * (1.0 - rate) / reps)
