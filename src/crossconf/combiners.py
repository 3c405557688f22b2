"""Thresholds and coverage bounds of the prediction-set variants.

A candidate response belongs to a variant's set when the combined statistic of
its fold p-values exceeds the variant's threshold. The combining rules are:

* ``mod``: plain mean of the K p-values.
* ``e-mod``: minimum over l of the mean of the first l p-values; valid for
  exchangeable p-values and never larger than the plain mean.
* ``u-mod``: mean scaled by the randomization factor 1/(2 - U).
* ``eu-mod``: minimum of the randomized first p-value P_1/(2 - U) and the
  e-mod statistic.

All four guarantee marginal coverage of at least 1 - 2*alpha at threshold
alpha. Replacing the threshold by alpha' = alpha + (1 - alpha)(K - 1)/(K + n)
turns them into shrunken versions of the plain cross-validation conformal set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal

from .errors import InvalidConfigurationError, NumericalError

__all__ = [
    "CoverageBounds",
    "alpha_prime",
    "coverage_bounds",
]


@dataclass(frozen=True)
class CoverageBounds:
    """Marginal coverage lower bounds for the plain cross-validation set, and
    the 1 - 2*alpha - 2/sqrt(n) floor that ``combined`` always reaches."""

    bound_small_k: float
    bound_large_k: float
    combined: float
    floor: float


def alpha_prime(alpha: float, k: int, n: int) -> float:
    """Inflated threshold alpha + (1 - alpha)(K - 1)/(K + n), at which the mean-p-value
    set coincides with the plain cross-validation conformal set at level alpha. It is
    the exact rational rounded once, with alpha read as ``repr(alpha)``, the decimal the
    user typed and the report echoes; for d decimals its denominator is at most
    10^d (K + n), which bounds where the fold-method comparisons are exact."""
    if not 0.0 < alpha < 1.0:
        raise InvalidConfigurationError("alpha must lie strictly inside (0, 1)")
    if k < 1:
        raise InvalidConfigurationError("fold count must be at least 1")
    if n < k:
        raise InvalidConfigurationError("need at least as many points as folds")
    num, den = Decimal(repr(float(alpha))).as_integer_ratio()
    return (num * (k + n) + (den - num) * (k - 1)) / (den * (k + n))  # int / int rounds once


def coverage_bounds(alpha: float, k: int, n: int) -> CoverageBounds:
    """Both coverage lower bounds for the plain cross set, and their maximum.

    The first bound is tight for small K, the second for K close to n; the
    maximum always dominates 1 - 2*alpha - 2/sqrt(n).
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidConfigurationError("alpha must lie strictly inside (0, 1)")
    if k < 1 or k > n:
        raise InvalidConfigurationError("need 1 <= K <= n")
    small = 1.0 - 2.0 * alpha - 2.0 * (1.0 - alpha) * (1.0 - 1.0 / k) / (n / k + 1.0)
    large = 1.0 - 2.0 * alpha - 2.0 * (1.0 - alpha) * (1.0 - k / n) / (k + 1.0)
    combined = max(small, large)
    floor = 1.0 - 2.0 * alpha - 2.0 / math.sqrt(n)
    if combined < floor - 1e-12:
        raise NumericalError(
            f"combined bound {combined} fell below the 1 - 2a - 2/sqrt(n) floor {floor}"
        )
    return CoverageBounds(small, large, combined, floor)

