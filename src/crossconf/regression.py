"""Symmetric regression algorithms used inside the score functions.

Every regressor here is invariant to permutations of its training rows.
The coverage guarantees of all downstream prediction sets rest on that
symmetry, so tie handling must never fall back to row order. Predictions are
row-wise: a row's prediction depends only on the model and the row, never on
the rows predicted with it, so a block of rows gives the bits of one call per
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .data_model import Dataset, freeze_arrays
from .errors import InvalidConfigurationError

__all__ = [
    "RegressorSpec",
    "LinearModel",
    "KnnModel",
    "FittedModel",
    "parse_regressor",
    "fit",
    "fit_min_norm_ols",
    "fit_ridge",
    "fit_knn",
]

REGRESSOR_KINDS = ("ols", "ridge", "knn")

# Singular values below RCOND * sigma_max are treated as zero, which keeps the
# pseudoinverse stable in the underdetermined regime (p >= training size).
RCOND = 1e-10

# Size of one query block's (rows, n, p) distance temporary in KnnModel.predict.
_KNN_BLOCK_BYTES = 512 * 1024


@dataclass(frozen=True)
class RegressorSpec:
    """Which symmetric algorithm to fit, with its parameters. Features are
    used as given; no column scaling is applied."""

    kind: str
    ridge_lambda: float = 0.0
    knn_k: int = 1

    def __post_init__(self):
        if self.kind not in REGRESSOR_KINDS:
            raise InvalidConfigurationError(
                f"unknown regressor {self.kind!r}; choose from {REGRESSOR_KINDS}"
            )
        if self.kind == "ridge" and self.ridge_lambda < 0:
            raise InvalidConfigurationError("ridge penalty must be nonnegative")
        if self.kind == "knn" and self.knn_k < 1:
            raise InvalidConfigurationError("knn neighbor count must be at least 1")


def parse_regressor(text: str) -> RegressorSpec:
    """Parse a CLI regressor string: ``ols``, ``ridge:0.2`` or ``knn:25``."""
    name, _, arg = text.strip().partition(":")
    name = name.strip().lower()
    if name == "ols":
        if arg:
            raise InvalidConfigurationError("ols takes no parameter")
        return RegressorSpec("ols")
    if name == "ridge":
        try:
            lam = float(arg) if arg else 0.0
        except ValueError:
            raise InvalidConfigurationError(f"bad ridge penalty {arg!r}") from None
        return RegressorSpec("ridge", ridge_lambda=lam)
    if name == "knn":
        try:
            k = int(arg)
        except ValueError:
            raise InvalidConfigurationError(f"bad knn neighbor count {arg!r}") from None
        return RegressorSpec("knn", knn_k=k)
    raise InvalidConfigurationError(f"unknown regressor {text!r}")


def _as_matrix(x) -> np.ndarray:
    """x as a C-contiguous float matrix; a vector is one row. A row's dot
    product then runs over the same contiguous layout wherever it sits."""
    arr = np.ascontiguousarray(x, dtype=float)
    return arr[None, :] if arr.ndim == 1 else arr


@dataclass(frozen=True)
class LinearModel:
    """Linear predictor x -> x @ coef (no intercept term); ``coef`` is read-only.

    Each row is one dot product, so its prediction does not depend on the rows
    predicted with it; a matrix product would round a row differently by the
    rows around it."""

    coef: np.ndarray
    __post_init__ = freeze_arrays

    def predict(self, x) -> np.ndarray:
        return np.vecdot(_as_matrix(x), self.coef)


@dataclass(frozen=True)
class KnnModel:
    """Mean response of the k nearest training rows by Euclidean distance.

    Neighbours are ranked by distance, and distance ties break on the smaller
    response. Rows that tie on both add the same value at the same position of
    the summed sequence, so no further key (feature values, row order) can
    change the mean or its bits. Row indices are never consulted, so
    predictions are invariant to permutations of the training set.

    Queries are processed in blocks whose distance temporary stays near
    ``_KNN_BLOCK_BYTES``, so memory does not grow with the number of queries.
    """

    train_features: np.ndarray
    train_responses: np.ndarray
    k: int
    __post_init__ = freeze_arrays

    def predict(self, x) -> np.ndarray:
        mat = _as_matrix(x)
        feats = self.train_features
        out = np.empty(mat.shape[0])
        step = max(1, _KNN_BLOCK_BYTES // feats.nbytes)
        for start in range(0, mat.shape[0], step):
            rows = mat[start : start + step]
            dist = np.sqrt(((feats[None] - rows[:, None]) ** 2).sum(axis=2))
            out[start : start + rows.shape[0]] = self._neighbour_means(dist)
        return out

    def _neighbour_means(self, dist: np.ndarray) -> np.ndarray:
        """Mean response of each row's k nearest, ordered by (distance, response)."""
        resp = self.train_responses
        k = self.k
        chosen = np.argpartition(dist, k - 1, axis=1)[:, :k]
        near = np.take_along_axis(dist, chosen, axis=1)
        kth = near[:, -1]
        near_resp = resp[chosen]
        order = np.lexsort((near_resp, near), axis=1)
        means = np.take_along_axis(near_resp, order, axis=1).mean(axis=1)
        # Where more than k rows lie at or below the k-th distance, argpartition
        # chose among the ties arbitrarily; rank those candidates by response.
        # A row with NaN distances has fewer than k such rows and ranks them all.
        n_le = np.count_nonzero(dist <= kth[:, None], axis=1)
        for i in np.flatnonzero(n_le != k):
            cand = np.flatnonzero(dist[i] <= kth[i]) if n_le[i] > k else np.arange(resp.size)
            ranked = np.lexsort((resp[cand], dist[i, cand]))[:k]
            means[i] = resp[cand[ranked]].mean()
        return means


FittedModel = Union[LinearModel, KnnModel]


def fit_min_norm_ols(train: Dataset) -> LinearModel:
    """Least squares via the Moore-Penrose pseudoinverse.

    For full-column-rank features this is ordinary least squares; otherwise it
    returns the minimum-l2-norm solution of the underdetermined system.
    """
    coef, *_ = np.linalg.lstsq(train.features, train.responses, rcond=RCOND)
    return LinearModel(coef)


def fit_ridge(train: Dataset, ridge_lambda: float) -> LinearModel:
    """Ridge regression coef = (X'X + lambda I)^-1 X'y.

    At lambda = 0 this falls back to the minimum-norm least squares solution,
    which coincides with the normal-equation solve whenever X has full column
    rank.
    """
    if ridge_lambda < 0:
        raise InvalidConfigurationError("ridge penalty must be nonnegative")
    if ridge_lambda == 0.0:
        return fit_min_norm_ols(train)
    feats = train.features
    gram = feats.T @ feats + ridge_lambda * np.eye(train.p)
    coef = np.linalg.solve(gram, feats.T @ train.responses)
    return LinearModel(coef)


def fit_knn(train: Dataset, k: int) -> KnnModel:
    """k-nearest-neighbor mean with data-valued tie-breaking."""
    if k < 1:
        raise InvalidConfigurationError("knn neighbor count must be at least 1")
    if k > train.n:
        raise InvalidConfigurationError(
            f"knn neighbor count {k} exceeds the training size {train.n}"
        )
    return KnnModel(train.features, train.responses, k)


def fit(spec: RegressorSpec, train: Dataset) -> FittedModel:
    """Fit the regressor described by ``spec`` on ``train``."""
    if spec.kind == "ols":
        return fit_min_norm_ols(train)
    if spec.kind == "ridge":
        return fit_ridge(train, spec.ridge_lambda)
    return fit_knn(train, spec.knn_k)
