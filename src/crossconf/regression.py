"""Symmetric regression algorithms used inside the score functions.

Every regressor here is invariant to permutations of its training rows.
The coverage guarantees of all downstream prediction sets rest on that
symmetry, so tie handling must never fall back to row order. Predictions are
row-wise: a row's prediction depends only on the model and the row, never on
the rows predicted with it, so a block of rows gives the bits of one call per
row.
"""

from __future__ import annotations

import math
import numbers
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
]

REGRESSOR_KINDS = ("ols", "ridge", "knn")

# Where a linear fit falls back to LAPACK lstsq, singular values below
# RCOND * sigma_max are treated as zero, which keeps the pseudoinverse stable in
# the underdetermined regime (p >= training size).
RCOND = 1e-10

# Linear fits solve the smaller Gram matrix G (X'X or XX', lambda on its
# diagonal; order m) only where a floating-point Cholesky of G - s I completes,
# for s = tr(G) (_GRAM_COND_MAX^-2 + 4 (m + 2) eps) a normal float. By Rump
# ("Verification of positive definiteness", BIT 46, 2006) that proves
# lambda_min(G) > s - r, where r, the rounding of forming G - s I and of the
# factorisation, is under (m + 1) eps tr(G) plus an underflow term of order
# m^2 eta <= m^2 eps s. With the rounding of s itself,
#   lambda_max(G) <= tr(G) < _GRAM_COND_MAX^2 lambda_min(G),
# so cond_2(X)^2 < 1e8 at lambda = 0: the solve loses about 1e8 eps, and lstsq
# would truncate nothing there (its cut sits at cond_2(X) = 1 / RCOND). As
# lambda_min(G) > s / 2 >= 2^-1023, the products of X that underflow in G
# (eta/2 each) move it by under rows * cols * 2.2e-16 of lambda_min(G).
_GRAM_COND_MAX = 1e4

# Budget for the float temporaries of one query chunk in KnnModel.predict.
_KNN_BLOCK_BYTES = 512 * 1024

# The kNN filter keeps a training row unless its approximate squared distance
# A = a2 + b2 - 2 y.x exceeds the query's k-th smallest A by more than
# _KNN_MARGIN (p + 8) (eps M + eta), where x and y are the training row and the
# query centred on the training mean, a2 = |y|^2, b2 = |x|^2, M = a2 + max b2,
# eps = 2^-52 and eta the smallest subnormal (the most a product loses to
# underflow). Sums may run in any order, with or without FMA (the product goes
# through BLAS). With B = a2 + b2 <= M and r the exact squared distance of the
# raw rows, to first order in eps:
#   1. centring rounds each coordinate once, so |y - x|^2 is within 5 eps B of r;
#   2. a2 + b2 and 2 y.x are each within p eps B + p eta, and the two additions
#      add 3 eps B, so A is within E = (2p + 9) eps B + 2p eta of r (with 1);
#   3. the reference sum rounds each difference and square once and adds p
#      terms, so its square S is within (p + 3) eps r + p eta of r <= 2B;
#   4. sqrt is monotone but can round squares 4 eps S apart to one float.
# The k rows of smallest A have S <= (A_k + E)(1 + (p + 3) eps) + p eta, which
# bounds the k-th reference distance. A row at or below it has, by 4, 3 and 2,
# A <= A_k + (8p + 39) eps M + 6p eta < 8 (p + 8) (eps M + eta); the factor 32
# leaves 4 for rounding M, the margin and the threshold. This needs finite
# arithmetic: where 4M overflows or is NaN, every training row is a candidate.
_KNN_MARGIN = 32
_EPS = np.finfo(float).eps
_ETA = np.finfo(float).smallest_subnormal
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class RegressorSpec:
    """Which symmetric algorithm to fit, with its parameters. Features are
    used as given; no column scaling is applied. A parameter the kind does
    not use must keep its default."""

    kind: str
    ridge_lambda: float = 0.0
    knn_k: int = 1

    def __post_init__(self):
        if self.kind not in REGRESSOR_KINDS:
            raise InvalidConfigurationError(
                f"unknown regressor {self.kind!r}; choose from {REGRESSOR_KINDS}"
            )
        if self.ridge_lambda != 0 and self.kind != "ridge":
            raise InvalidConfigurationError(f"{self.kind} takes no ridge penalty")
        if self.knn_k != 1 and self.kind != "knn":
            raise InvalidConfigurationError(f"{self.kind} takes no neighbor count")
        if not 0 <= self.ridge_lambda < math.inf:
            raise InvalidConfigurationError("ridge penalty must be finite and nonnegative")
        if not isinstance(self.knn_k, numbers.Integral) or self.knn_k < 1:
            raise InvalidConfigurationError(
                f"knn neighbor count must be an integer of at least 1, got {self.knn_k}"
            )


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


def _as_matrix(x, width: int) -> np.ndarray:
    """x as a C-contiguous float matrix of ``width`` columns; a vector is one
    row. A row's dot product then runs over the same contiguous layout wherever
    it sits."""
    arr = np.ascontiguousarray(x, dtype=float)
    arr = arr[None, :] if arr.ndim == 1 else arr
    if arr.ndim != 2 or arr.shape[1] != width:
        got = f"width {arr.shape[1]}" if arr.ndim == 2 else f"shape {arr.shape}"
        raise InvalidConfigurationError(
            f"query rows of {got} do not match the model's {width} features"
        )
    return arr


@dataclass(frozen=True)
class LinearModel:
    """Linear predictor x -> x @ coef (no intercept term); ``coef`` is read-only.

    Each row is one dot product, so its prediction does not depend on the rows
    predicted with it; a matrix product would round a row differently by the
    rows around it."""

    coef: np.ndarray
    __post_init__ = freeze_arrays

    def predict(self, x) -> np.ndarray:
        return np.vecdot(_as_matrix(x, self.coef.shape[0]), self.coef)


@dataclass(frozen=True)
class KnnModel:
    """Mean response of the k nearest training rows by Euclidean distance.

    Neighbours are ranked by distance, and distance ties break on the smaller
    response. Rows that tie on both add the same value at the same position of
    the summed sequence, so no further key (feature values, row order) can
    change the mean or its bits. Row indices are never consulted, so
    predictions are invariant to permutations of the training set.

    Distances are exact only where they can matter: a cheap filter keeps, per
    query, the training rows whose approximate squared distance lies within a
    proven margin of the k-th smallest (see ``_KNN_MARGIN``). Every row at or
    below the k-th reference distance ``sqrt(((F - q) ** 2).sum())`` is kept,
    so ranking the kept rows alone gives the bits of a full ranking. Query
    chunks keep each temporary near half of ``_KNN_BLOCK_BYTES``, so memory
    does not grow with the number of queries.
    """

    train_features: np.ndarray
    train_responses: np.ndarray
    k: int

    def __post_init__(self):
        freeze_arrays(self)
        shape, n = np.shape(self.train_features), np.shape(self.train_responses)
        if len(shape) != 2 or n != shape[:1]:
            raise InvalidConfigurationError(
                f"kNN needs a feature matrix and one response per row, got {shape} and {n}"
            )
        if not isinstance(self.k, numbers.Integral) or not 1 <= self.k <= shape[0]:
            raise InvalidConfigurationError(
                f"knn neighbor count {self.k} must be an integer between 1 and the training"
                f" size {shape[0]}"
            )

    def _centred(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The training mean, the centred features transposed to (p, n) and
        their squared norms b2."""
        with np.errstate(all="ignore"):
            centred = self.train_features.T.copy()
            centre = centred.mean(axis=1)
            centred -= centre[:, None]
            return centre, centred, np.einsum("ij,ij->j", centred, centred)

    def _candidates(self, rows: np.ndarray, centre, centred, b2) -> tuple[np.ndarray, np.ndarray]:
        """(query, training row) index pairs of the candidates, in query order."""
        # overflow or NaN here only widens the candidate set
        with np.errstate(all="ignore"):
            q = rows - centre
            a2 = np.einsum("ij,ij->i", q, q)
            approx = q @ centred
            approx *= -2.0
            approx += a2[:, None]
            approx += b2
            m = a2 + b2.max()
            margin = _KNN_MARGIN * (q.shape[1] + 8) * (_EPS * m + _ETA)
            limit = np.partition(approx, self.k - 1, axis=1)[:, self.k - 1] + margin
            limit[~np.isfinite(4.0 * m)] = np.inf
            return np.divmod(np.flatnonzero(~(approx > limit[:, None])), b2.size)

    def predict(self, x) -> np.ndarray:
        feats, resp = self.train_features, self.train_responses
        mat = _as_matrix(x, feats.shape[1])
        out = np.empty(mat.shape[0])
        train = self._centred()
        floats = _KNN_BLOCK_BYTES // 16
        step, cand_step = max(1, floats // resp.size), max(1, floats // feats.shape[1])
        for start in range(0, mat.shape[0], step):
            rows = mat[start : start + step]
            row, col = self._candidates(rows, *train)
            dist = np.empty(row.size)
            for c in range(0, row.size, cand_step):
                j, r = col[c : c + cand_step], row[c : c + cand_step]
                dist[c : c + cand_step] = np.sqrt(((feats[j] - rows[r]) ** 2).sum(axis=1))
            ranked = col[np.lexsort((resp[col], dist, row))]
            counts = np.bincount(row, minlength=rows.shape[0])
            nearest = ranked[(np.cumsum(counts) - counts)[:, None] + np.arange(self.k)]
            out[start : start + rows.shape[0]] = resp[nearest].mean(axis=1)
        return out


FittedModel = Union[LinearModel, KnnModel]


def _gram_solve(x: np.ndarray, y: np.ndarray, ridge_lambda: float) -> np.ndarray:
    """The least-norm minimiser of ||X b - y||^2 + lambda ||b||^2.

    With more rows than columns this is b = G^-1 X'y for G = X'X + lambda I,
    otherwise b = X'G^-1 y for G = XX' + lambda I, solved by LU where the
    Cholesky certificate of ``_GRAM_COND_MAX`` holds and every coefficient is
    finite. Any other design goes to lstsq with ``RCOND``, on [X; sqrt(lambda) I]
    and [y; 0] when lambda > 0. y is scaled by a power of two to a largest
    magnitude in [1/2, 1), which changes no bit in the normal range and keeps
    X'y from underflowing when X and y are both tiny.
    """
    rows, cols = x.shape
    wide = rows <= cols
    exponent = math.frexp(np.abs(y).max(initial=0.0))[1]
    with np.errstate(all="ignore"):
        gram = x @ x.T if wide else x.T @ x
        m = gram.shape[0]
        if ridge_lambda:
            gram.flat[:: m + 1] += ridge_lambda
        shift = gram.trace() * (_GRAM_COND_MAX**-2 + 4 * (m + 2) * _EPS)
        if _TINY <= shift < np.inf:
            shifted = gram.copy()
            shifted.flat[:: m + 1] -= shift
            try:
                np.linalg.cholesky(shifted)
                scaled = np.ldexp(y, -exponent)
                z = np.linalg.solve(gram, scaled if wide else x.T @ scaled)
                coef = np.ldexp(x.T @ z if wide else z, exponent)
                if np.isfinite(coef).all():
                    return coef
            except np.linalg.LinAlgError:
                pass
    if ridge_lambda:
        x = np.vstack([x, np.sqrt(ridge_lambda) * np.eye(cols)])
        y = np.concatenate([y, np.zeros(cols)])
    return np.linalg.lstsq(x, y, rcond=RCOND)[0]


def fit(spec: RegressorSpec, train: Dataset) -> FittedModel:
    """Fit ``spec`` on ``train``: the k-nearest-neighbor mean for ``knn``,
    otherwise the least-norm ridge solution of ``_gram_solve`` (at lambda = 0,
    ``ols``: least squares, the Moore-Penrose solution for rank-deficient X)."""
    if spec.kind == "knn":
        return KnnModel(train.features, train.responses, spec.knn_k)
    return LinearModel(_gram_solve(train.features, train.responses, spec.ridge_lambda))
