"""Nonconformity scores computed over cross-validation folds.

The residual score of a candidate pair (x, y) against a training set is
|y - mu(x)| where mu is the regression function fitted on that training set.
Each fold's points are scored by the model trained on the union of the other
folds, so exactly K model fits are needed in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, FoldAssignment, freeze_arrays
from .errors import InvalidConfigurationError
from .regression import FittedModel, RegressorSpec, fit

__all__ = [
    "ScoreFunctionSpec",
    "CvScores",
    "compute_cv_scores",
    "fold_predictions",
]

SCORE_KINDS = ("residual",)


@dataclass(frozen=True)
class ScoreFunctionSpec:
    """Score function choice; currently only the absolute residual ships."""

    kind: str = "residual"
    regressor: RegressorSpec = field(default_factory=lambda: RegressorSpec("ols"))

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise InvalidConfigurationError(
                f"unknown score kind {self.kind!r}; choose from {SCORE_KINDS}"
            )


@dataclass(frozen=True, eq=False)
class CvScores:
    """Per-point cross-validation scores, the K fold models and the folds they were scored on.

    ``scores`` has one entry per original data point; discarded points hold
    NaN and take no part in training or scoring. ``sorted_scores`` holds each
    fold's scores sorted once, fold after fold, and ``sorted_by_fold`` is its
    per-fold views; both are read-only. ``last_block`` is the block of query
    rows that ``conformal_sets.predict_block`` predicted last, replaced whole:
    (row index by bytes, fold predictions).
    """

    scores: np.ndarray
    fold_models: tuple[FittedModel, ...]
    folds: FoldAssignment
    sorted_scores: np.ndarray = field(init=False, repr=False)
    sorted_by_fold: tuple[np.ndarray, ...] = field(init=False, repr=False)
    last_block: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        freeze_arrays(self, scores=float)
        object.__setattr__(self, "fold_models", tuple(self.fold_models))
        if self.n_folds != self.folds.n_folds or self.scores.shape != (self.folds.n,):
            raise InvalidConfigurationError(
                f"{self.n_folds} fold models and scores of shape {self.scores.shape} do not fit "
                f"an assignment of {self.folds.n_folds} folds over {self.folds.n} points"
            )
        flat = np.concatenate([np.sort(self.scores[m]) for m in self.folds.fold_members])
        flat.setflags(write=False)
        object.__setattr__(self, "sorted_scores", flat)
        views = np.split(flat, self.folds.offsets[1:-1])
        object.__setattr__(self, "sorted_by_fold", tuple(views))

    @property
    def n_folds(self) -> int:
        return len(self.fold_models)


def compute_cv_scores(
    data: Dataset, folds: FoldAssignment, spec: ScoreFunctionSpec
) -> CvScores:
    """Fit one model per fold complement and score that fold's points with it."""
    if folds.n != data.n:
        raise InvalidConfigurationError(
            f"fold assignment covers {folds.n} points but the dataset has {data.n}"
        )
    scores = np.full(data.n, np.nan)
    models = []
    for k, members in enumerate(folds.fold_members):
        complement = folds.complement(k)
        if complement.size == 0:
            raise InvalidConfigurationError(
                f"fold {k} has an empty training complement; use at least two folds"
            )
        model = fit(spec.regressor, data.subset(complement))
        models.append(model)
        preds = model.predict(data.features[members])
        scores[members] = np.abs(data.responses[members] - preds)
    return CvScores(scores, tuple(models), folds)


def fold_predictions(cv: CvScores, x) -> np.ndarray:
    """Prediction of every fold model at each feature row of ``x``, as a
    (rows, K) array; a vector is one row. One ``predict`` call per model."""
    return np.column_stack([m.predict(x) for m in cv.fold_models])
