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
    "conformal_rank",
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


def _ratio(alpha: float) -> tuple[int, int]:
    """alpha as the integer ratio of its decimal ``repr``, the value the user typed and
    the report echoes, once checked to lie strictly inside (0, 1). Every exact reading
    of alpha, for the fold thresholds and for the split and CV+ ranks, goes through it."""
    if not 0.0 < alpha < 1.0:
        raise InvalidConfigurationError("alpha must lie strictly inside (0, 1)")
    return Decimal(repr(float(alpha))).as_integer_ratio()


def fold_thresholds(alpha: float, k: int, n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The fold methods' thresholds as exact (numerator, denominator) pairs: alpha, read as
    ``repr(alpha)``, the decimal the user typed and the report echoes, and the inflated
    alpha' = alpha + (1 - alpha)(K - 1)/(K + n) of the -cross forms. K and n are those
    of a fold assignment, which has 1 <= K <= n."""
    num, den = _ratio(alpha)
    return (num, den), (num * (k + n) + (den - num) * (k - 1), den * (k + n))


def conformal_rank(alpha: float, n: int) -> int:
    """ceil((1 - alpha)(n + 1)) in integers, with alpha read as ``repr(alpha)``: the
    order statistic of n scores that split conformal and CV+ take. It lies in 1..n + 1,
    and n + 1, past the largest score, makes their set the whole line."""
    num, den = _ratio(alpha)
    return -(-(den - num) * (n + 1) // den)


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

