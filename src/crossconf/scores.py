"""Nonconformity scores computed over cross-validation folds.

The residual score of a candidate pair (x, y) against a training set is
|y - mu(x)| where mu is the regression function fitted on that training set.
Each fold's points are scored by the model trained on the union of the other
folds, so exactly K model fits are needed in total.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import Dataset, FoldAssignment
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


@dataclass(frozen=True)
class CvScores:
    """Per-point cross-validation scores plus the K cached fold models.

    ``scores`` has one entry per original data point; discarded points hold
    NaN and take no part in training or scoring.
    """

    scores: np.ndarray
    fold_models: tuple[FittedModel, ...]

    def __post_init__(self):
        scores = np.array(self.scores, dtype=float)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "fold_models", tuple(self.fold_models))

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
    return CvScores(scores, tuple(models))


def fold_predictions(cv: CvScores, x) -> np.ndarray:
    """Prediction of every fold model at each feature row of ``x``, as a
    (rows, K) array; a vector is one row. One ``predict`` call per model."""
    return np.column_stack([m.predict(x) for m in cv.fold_models])
