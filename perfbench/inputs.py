"""Seeded input generation.

Only numpy is used here, never crossconf, so a change to the program cannot
change the inputs it is measured on: the same seed gives byte-identical files.
"""

from __future__ import annotations

import math
import zlib
from pathlib import Path

import numpy as np


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(purpose.encode())])


def derived_seed(seed: int, purpose: str, index: int = 0) -> int:
    """Nonnegative program seed for the ``index``-th request of a workload."""
    return int(rng_for(seed, f"{purpose}/{index}").integers(0, 2**31 - 1))


def write_csv(path: Path, header: list[str], values: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, values, fmt="%.17g", delimiter=",")


def feature_names(p: int) -> list[str]:
    return [f"x{j}" for j in range(p)]


def gaussian_linear(seed: int, n: int, p: int, n_query: int, out_dir: Path) -> tuple[Path, Path]:
    """Training CSV and query CSV from the law of ``simulate_instance``:
    X ~ N(0, I_p), Y | X ~ N(X'beta, 1), beta = sqrt(10) * (random unit vector)."""
    gen = rng_for(seed, f"gaussian-linear/{n}/{p}")
    direction = gen.standard_normal(p)
    beta = math.sqrt(10.0) * direction / np.linalg.norm(direction)
    x = gen.standard_normal((n, p))
    y = x @ beta + gen.standard_normal(n)
    queries = gen.standard_normal((n_query, p))
    names = feature_names(p)
    train_csv, query_csv = out_dir / "train.csv", out_dir / "query.csv"
    write_csv(train_csv, names + ["y"], np.column_stack([x, y]))
    write_csv(query_csv, names, queries)
    return train_csv, query_csv


def nonlinear(seed: int, n: int, p: int, out_dir: Path) -> Path:
    """Dataset CSV with a nonlinear response, for the kNN regressor."""
    gen = rng_for(seed, f"nonlinear/{n}/{p}")
    x = gen.standard_normal((n, p))
    y = (
        np.sin(2.0 * x[:, 0]) + x[:, 1] ** 2 - x[:, 2] * x[:, 3]
        + 0.5 * x[:, 4] + 0.3 * gen.standard_normal(n)
    )
    data_csv = out_dir / "data.csv"
    write_csv(data_csv, feature_names(p) + ["y"], np.column_stack([x, y]))
    return data_csv
