"""Output checks and result digests, independent of the program's own helpers."""

from __future__ import annotations

import hashlib
import math

# Containment chains of acceptance criterion 1: (inner, outer).
CHAINS = (
    ("eu-mod", "e-mod"), ("e-mod", "mod"), ("u-mod", "mod"),
    ("e-cross", "cross"), ("u-cross", "cross"), ("eu-cross", "e-cross"),
    ("cross", "cv+"),
)


def is_nested(inner, outer) -> bool:
    """True when every closed interval of ``inner`` lies inside one of ``outer``."""
    return all(
        any(olo <= lo and hi <= ohi for olo, ohi in outer) for lo, hi in inner
    )


def chain_violations(sets: dict) -> list[str]:
    """Chains of CHAINS that ``sets`` (method -> interval tuples) breaks."""
    return [
        f"{inner} not inside {outer}"
        for inner, outer in CHAINS
        if inner in sets and outer in sets and not is_nested(sets[inner], sets[outer])
    ]


def contains(intervals, y: float) -> bool:
    return any(lo <= y <= hi for lo, hi in intervals)


def alpha_prime(alpha: float, k: int, n: int) -> float:
    """Inflated threshold alpha + (1 - alpha)(K - 1)/(K + n) of the -cross forms."""
    return alpha + (1.0 - alpha) * (k - 1) / (k + n)


def coverage_floors(alpha: float, k: int, n: int) -> dict[str, float]:
    """Coverage floor of every method, as stated in the README's method table."""
    two_alpha = 1.0 - 2.0 * alpha
    inflated = 1.0 - 2.0 * alpha_prime(alpha, k, n)
    return {
        "mod": two_alpha, "e-mod": two_alpha, "u-mod": two_alpha, "eu-mod": two_alpha,
        "cross": two_alpha - 2.0 / math.sqrt(n),
        "e-cross": inflated, "u-cross": inflated, "eu-cross": inflated,
        "split": 1.0 - alpha, "cv+": two_alpha,
    }


def coverage_shortfalls(covered: dict, total: dict, floors: dict) -> list[str]:
    """Methods whose pooled coverage lies below floor - 3 Monte-Carlo standard errors."""
    out = []
    for method, floor in floors.items():
        reps = total.get(method, 0)
        if reps == 0:
            out.append(f"{method}: no trials")
            continue
        rate = covered[method] / reps
        limit = floor - 3.0 * math.sqrt(floor * (1.0 - floor) / reps)
        if rate < limit:
            out.append(f"{method}: coverage {rate:.4f} < {limit:.4f} over {reps} trials")
    return out


def report_rows(csv_text: str) -> list[str]:
    """Report lines without the ``# config:`` header, which records ``threads``."""
    return [line for line in csv_text.splitlines() if not line.startswith("# config:")]


def interval_text(intervals) -> str:
    return ";".join(f"{lo!r},{hi!r}" for lo, hi in intervals)


class Digest:
    """sha256 over the first ``limit`` outputs of a run, so that it does not
    depend on how many requests fitted into the run's seconds."""

    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0
        self._hash = hashlib.sha256()

    def add(self, text: str) -> None:
        if self.count < self.limit:
            self._hash.update(text.encode())
            self._hash.update(b"\n")
            self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
