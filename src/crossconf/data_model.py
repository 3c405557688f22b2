"""Core containers, fold assignment and reproducible randomness.

Everything downstream (scores, p-values, prediction sets, experiments)
consumes these types. All containers are immutable after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

import csv
import hashlib
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError, InvalidDataError

__all__ = [
    "Dataset",
    "FoldAssignment",
    "RandomSource",
    "RandomDraws",
    "assign_folds",
    "randomization_stream",
    "load_csv",
    "load_query_csv",
]

FOLD_MODES = ("equal", "varying")


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def freeze_arrays(obj) -> None:
    """Make each array field of a frozen dataclass read-only, copying only a writable one."""
    for name, arr in vars(obj).items():
        if isinstance(arr, np.ndarray) and arr.flags.writeable:
            object.__setattr__(obj, name, arr.copy())
            getattr(obj, name).setflags(write=False)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n rows, p columns) plus a response vector of length n.

    All entries must be finite; row i of ``features`` pairs with
    ``responses[i]``. Arrays are copied and marked read-only.
    """

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        features = _frozen_array(self.features)
        responses = _frozen_array(self.responses)
        if features.ndim != 2:
            raise InvalidDataError("features must be a 2-D array")
        if responses.ndim != 1:
            raise InvalidDataError("responses must be a 1-D vector")
        if features.shape[0] != responses.shape[0]:
            raise InvalidDataError(
                f"features have {features.shape[0]} rows but responses have "
                f"length {responses.shape[0]}"
            )
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise InvalidDataError("need at least one row and one feature column")
        if not np.isfinite(features).all() or not np.isfinite(responses).all():
            raise InvalidDataError("all feature and response entries must be finite")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "responses", responses)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.responses[idx])


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of the point indices {0..n-1} into K folds.

    Equal-size mode keeps K folds of exactly floor(n/K) points each and
    discards the n mod K leftover points (chosen uniformly at random so the
    retained sample stays exchangeable). Varying-size mode keeps every point;
    fold sizes differ by at most one and the larger folds sit at uniformly
    random fold indices, which keeps the fold positions exchangeable.
    """

    n: int
    fold_members: tuple[np.ndarray, ...]
    discarded: np.ndarray
    mode: str

    def __post_init__(self):
        members = tuple(_frozen_array(m, dtype=int) for m in self.fold_members)
        discarded = _frozen_array(self.discarded, dtype=int)
        object.__setattr__(self, "fold_members", members)
        object.__setattr__(self, "discarded", discarded)
        if self.mode not in FOLD_MODES:
            raise InvalidConfigurationError(f"unknown fold mode: {self.mode!r}")
        if len(members) == 0:
            raise InvalidConfigurationError("need at least one fold")
        order = np.concatenate(members + (discarded,))
        flat = np.sort(order)
        if flat.size != self.n or not np.array_equal(flat, np.arange(self.n)):
            raise InvalidConfigurationError(
                "folds plus discarded points must partition the indices 0..n-1"
            )
        sizes = np.array([m.size for m in members])
        if sizes.min() < 1:
            raise InvalidConfigurationError("every fold needs at least one point")
        if self.mode == "equal":
            if sizes.min() != sizes.max():
                raise InvalidConfigurationError(
                    "equal-size mode requires identical fold sizes"
                )
            if discarded.size >= len(members):
                raise InvalidConfigurationError(
                    "equal-size mode discards fewer than K points"
                )
        else:
            if discarded.size != 0:
                raise InvalidConfigurationError("varying-size mode keeps every point")
            if sizes.max() - sizes.min() > 1:
                raise InvalidConfigurationError(
                    "varying-size fold sizes may differ by at most one"
                )
        # The members in fold order, fold k at _offsets[k]:_offsets[k + 1].
        offsets = _frozen_array(np.concatenate(([0], np.cumsum(sizes))), dtype=int)
        object.__setattr__(self, "_members", _frozen_array(order[: offsets[-1]], dtype=int))
        object.__setattr__(self, "_offsets", offsets)

    @property
    def n_folds(self) -> int:
        return len(self.fold_members)

    @property
    def fold_sizes(self) -> np.ndarray:
        return np.diff(self._offsets)

    @property
    def n_used(self) -> int:
        """Number of points that belong to a fold (n minus discarded)."""
        return self.n - self.discarded.size

    def complement(self, fold: int) -> np.ndarray:
        """Indices of the points used to train fold ``fold``'s model.

        Discarded points take no part in training or scoring.
        """
        return np.concatenate((self._members[: self._offsets[fold]],
                               self._members[self._offsets[fold + 1]:]))


@dataclass(frozen=True)
class RandomSource:
    """Deterministic randomness keyed by (seed, stream_id, purpose name).

    Identical keys reproduce identical draw sequences on any machine and any
    thread schedule. Purposes are independent named substreams, so adding a
    new consumer never perturbs the draws seen by an existing one. Concurrent
    trials use distinct ``stream_id`` values and never share a stream.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidConfigurationError("seed must be a nonnegative integer")
        if self.stream_id < 0:
            raise InvalidConfigurationError("stream_id must be nonnegative")

    def generator(self, purpose: str) -> np.random.Generator:
        tag = int.from_bytes(
            hashlib.blake2s(purpose.encode("utf8"), digest_size=4).digest(), "big"
        )
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, tag))
        return np.random.default_rng(seq)


@dataclass(frozen=True)
class RandomDraws:
    """One shared tau and one U per prediction task, both uniform on (0, 1).

    tau smooths the fold p-values and must be common across all folds of a
    task; U feeds the randomized combination rules. The two draws are mutually
    independent and independent of the data streams.
    """

    tau: float
    u: float

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise InvalidConfigurationError("tau must lie strictly inside (0, 1)")
        if not 0.0 < self.u < 1.0:
            raise InvalidConfigurationError("u must lie strictly inside (0, 1)")


def assign_folds(n: int, k: int, mode: str, rng: RandomSource) -> FoldAssignment:
    """Uniformly random partition of n points into k folds.

    Equal-size mode discards a uniformly random subset of size n mod k so that
    every fold has exactly floor(n/k) members. Varying-size mode keeps all
    points and places the larger folds at uniformly random fold indices.
    """
    if k < 1:
        raise InvalidConfigurationError("fold count must be at least 1")
    if k > n:
        raise InvalidConfigurationError(f"fold count {k} exceeds the number of points {n}")
    if mode not in FOLD_MODES:
        raise InvalidConfigurationError(f"unknown fold mode: {mode!r}")
    gen = rng.generator("folds")
    perm = gen.permutation(n)
    if mode == "equal":
        m = n // k
        members = tuple(perm[i * m : (i + 1) * m] for i in range(k))
        discarded = perm[k * m :]
        return FoldAssignment(n, members, discarded, "equal")
    base, extra = divmod(n, k)
    sizes = np.full(k, base, dtype=int)
    if extra:
        big = gen.choice(k, size=extra, replace=False)
        sizes[big] += 1
    stops = np.cumsum(sizes)
    starts = stops - sizes
    members = tuple(perm[a:b] for a, b in zip(starts, stops))
    return FoldAssignment(n, members, np.empty(0, dtype=int), "varying")


def _open_unit(gen: np.random.Generator) -> float:
    x = gen.random()
    while x == 0.0:  # keep the draw strictly inside (0, 1)
        x = gen.random()
    return float(x)


def randomization_stream(rng: RandomSource):
    """Yield the (tau, U) pair of each prediction task in turn: the j-th pair
    holds the j-th draw of each of the named ``"tau"`` and ``"u"`` substreams.

    The two substreams are independent of each other and of the fold / data
    streams of the same source.
    """
    gen_tau = rng.generator("tau")
    gen_u = rng.generator("u")
    while True:
        yield RandomDraws(tau=_open_unit(gen_tau), u=_open_unit(gen_u))


@contextmanager
def _open_table(path):
    """The stripped header of a headered CSV file and an iterator over its
    non-blank rows, each with the file line it ends on. Rows are read one at a
    time, so a file is never held in memory as strings."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise InvalidDataError(f"{path}: empty CSV file") from None
        if len(set(header)) < len(header):
            name = next(h for i, h in enumerate(header) if h in header[i + 1:])
            raise InvalidDataError(f"{path}: column {name!r} appears more than once in the header")
        yield header, ((reader.line_num, row) for row in reader if row)


def _matrix(values: array, width: int, path) -> np.ndarray:
    """The floats read from a table, ``width`` to a row, as a matrix."""
    if not values:
        raise InvalidDataError(f"{path}: CSV has a header but no data rows")
    return np.frombuffer(values).reshape(-1, width)


def _cell(value: str, column: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise InvalidDataError(
            f"non-numeric value {value.strip()!r} in column {column!r}"
        ) from None


def _floats(cells: list[str], columns: list[str]) -> list[float]:
    """One row's cells as floats; only a row that fails is read again cell by
    cell, so that the error names the column."""
    try:
        return list(map(float, cells))
    except ValueError:
        return [_cell(cell, column) for cell, column in zip(cells, columns)]


def load_csv(path, target: str) -> tuple[Dataset, list[str]]:
    """Read a numeric dataset from a headered CSV file.

    The column named ``target`` becomes the response; every other column must
    be numeric and becomes a feature. Returns the dataset together with the
    feature column names (in file order).
    """
    values = array("d")
    with _open_table(path) as (header, rows):
        if target not in header:
            raise InvalidDataError(f"target column {target!r} not found in CSV header")
        width = len(header)
        for line, row in rows:
            if len(row) != width:
                raise InvalidDataError(f"row {line} has {len(row)} cells, expected {width}")
            values.extend(_floats(row, header))
    values = _matrix(values, width, path)
    t_col = header.index(target)
    feature_names = [h for i, h in enumerate(header) if i != t_col]
    responses = values[:, t_col]
    features = np.delete(values, t_col, axis=1)
    return Dataset(features, responses), feature_names


def load_query_csv(path, feature_names: list[str]) -> np.ndarray:
    """Read query feature rows from a headered CSV, aligned to ``feature_names``.

    Columns may appear in any order; missing or non-numeric feature columns
    raise an error naming the offending column. Extra columns are ignored.
    """
    out = array("d")
    with _open_table(path) as (header, rows):
        missing = [name for name in feature_names if name not in header]
        if missing:
            raise InvalidDataError(
                f"query is missing feature column {missing[0]!r} "
                f"(train data has {len(feature_names)} features)"
            )
        cols = [header.index(name) for name in feature_names]
        last = max(cols)
        for line, row in rows:
            if last >= len(row):
                c = next(c for c in cols if c >= len(row))
                raise InvalidDataError(f"row {line} is missing column {header[c]!r}")
            out.extend(_floats([row[c] for c in cols], feature_names))
    out = _matrix(out, len(cols), path)
    if not np.isfinite(out).all():
        raise InvalidDataError("query rows must be finite")
    return out
