"""Core containers, fold assignment and reproducible randomness.

Everything downstream (scores, p-values, prediction sets, experiments)
consumes these types. All containers are immutable after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
from array import array
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


def json_number(value):
    """``value`` as strict JSON holds it: NaN as null, an infinity as "inf" or
    "-inf", anything else unchanged. Every report spells non-finite numbers so."""
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
    return value


def freeze_arrays(obj, **dtypes) -> None:
    """Make each field of a frozen dataclass named in ``dtypes`` a read-only array of that
    dtype which owns its memory: such an array is kept, any other value converted or
    copied once, so no container shares memory with a writable array."""
    for name, dtype in dtypes.items():
        value = getattr(obj, name)
        if not (isinstance(value, np.ndarray) and value.flags.owndata
                and not value.flags.writeable and value.dtype == dtype):
            value = np.array(value, dtype=dtype)
            value.setflags(write=False)
            object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Feature matrix (n rows, p columns) plus a response vector of length n.

    All entries must be finite; row i of ``features`` pairs with
    ``responses[i]``. Arrays are frozen by ``freeze_arrays``.
    """

    features: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, features=float, responses=float)
        _check_shapes(self.features, self.responses)
        if not np.isfinite(self.features).all() or not np.isfinite(self.responses).all():
            raise InvalidDataError("all feature and response entries must be finite")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``, in that order. Fancy indexing gives fresh
        arrays and the rows of a checked Dataset are finite, so the arrays are
        frozen in place, not copied and checked again."""
        idx = np.asarray(indices, dtype=int)
        return Dataset._frozen_in_place(self.features[idx], self.responses[idx])

    @staticmethod
    def _frozen_in_place(features: np.ndarray, responses: np.ndarray) -> "Dataset":
        """A Dataset of fresh arrays whose entries are known to be finite: the
        shapes are checked and the arrays frozen, not copied."""
        _check_shapes(features, responses)
        out = object.__new__(Dataset)
        for name, arr in (("features", features), ("responses", responses)):
            arr.setflags(write=False)
            object.__setattr__(out, name, arr)
        return out


def _check_shapes(features: np.ndarray, responses: np.ndarray) -> None:
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


@dataclass(frozen=True, eq=False)
class FoldAssignment:
    """Partition of the point indices {0..n-1} into K folds and a few discarded points.

    ``order`` is a permutation of 0..n-1 listing fold 0, fold 1, ..., then the
    discarded points; fold k is ``order[offsets[k]:offsets[k + 1]]``. Both are
    read-only int arrays. Folds are nonempty and their sizes differ by at most
    one; points may be discarded only when every fold has the same size, and
    then fewer than K of them. ``assign_folds`` draws the folds of each mode.
    """

    order: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, order=int, offsets=int)
        order, offsets = self.order, self.offsets
        if order.ndim != 1 or not np.array_equal(np.sort(order), np.arange(order.size)):
            raise InvalidConfigurationError("order must be a permutation of 0..n-1")
        if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 or offsets[-1] > order.size:
            raise InvalidConfigurationError(
                "offsets must start at 0, end at most at n and cut at least one fold"
            )
        sizes = np.diff(offsets)
        if sizes.min() < 1:
            raise InvalidConfigurationError("every fold needs at least one point")
        if sizes.max() - sizes.min() > 1:
            raise InvalidConfigurationError("fold sizes may differ by at most one")
        discarded = order.size - offsets[-1]
        if discarded and (sizes.min() != sizes.max() or discarded >= sizes.size):
            raise InvalidConfigurationError(
                "points may be discarded only from equal folds, fewer than K of them"
            )

    @property
    def n(self) -> int:
        return self.order.size

    @property
    def n_folds(self) -> int:
        return self.offsets.size - 1

    @property
    def fold_sizes(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def n_used(self) -> int:
        """Number of points that belong to a fold (n minus discarded)."""
        return int(self.offsets[-1])

    @property
    def fold_members(self) -> tuple[np.ndarray, ...]:
        """Each fold's points, as read-only views of ``order``."""
        cuts = self.offsets.tolist()
        return tuple(self.order[a:b] for a, b in zip(cuts[:-1], cuts[1:]))

    def complement(self, fold: int) -> np.ndarray:
        """Indices of the points used to train fold ``fold``'s model.

        Discarded points take no part in training or scoring.
        """
        return np.concatenate((self.order[: self.offsets[fold]],
                               self.order[self.offsets[fold + 1] : self.n_used]))


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
    """One tau and one U per prediction task, both uniform on (0, 1), mutually
    independent and independent of the data streams. U feeds the randomized
    combination rules. No set builder reads tau; it stays so that each task
    keeps the pair of draws it has always taken from its stream.
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
    points, and the n mod k folds one point larger sit at uniformly random
    fold indices, which keeps the fold positions exchangeable.
    """
    if k < 1:
        raise InvalidConfigurationError("fold count must be at least 1")
    if k > n:
        raise InvalidConfigurationError(f"fold count {k} exceeds the number of points {n}")
    if mode not in FOLD_MODES:
        raise InvalidConfigurationError(f"unknown fold mode: {mode!r}")
    gen = rng.generator("folds")
    perm = gen.permutation(n)
    sizes = np.full(k, n // k)
    if mode == "varying" and n % k:
        sizes[gen.choice(k, size=n % k, replace=False)] += 1
    return FoldAssignment(perm, np.concatenate(([0], np.cumsum(sizes))))


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


_BLANK_LINES = ("\n", "\r\n", "\r")


def _open_table(path):
    """The CSV file at ``path``, opened for ``csv``: UTF-8 with or without a
    byte order mark, whatever the locale."""
    return open(path, newline="", encoding="utf-8-sig")


def _header(reader, path) -> list[str]:
    """The stripped names in a table's first row; each may appear only once."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise InvalidDataError(f"{path}: empty CSV file") from None
    except csv.Error as exc:  # such as a field past csv's size limit
        raise InvalidDataError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(set(header)) < len(header):
        name = next(h for i, h in enumerate(header) if h in header[i + 1:])
        raise InvalidDataError(f"{path}: column {name!r} appears more than once in the header")
    return header


def _parsed(fh, usecols: list[int] | None, width: int) -> np.ndarray | None:
    """The data rows left in ``fh`` as a (rows, width) matrix, parsed by
    numpy's C reader; None when that reader refuses the text or finds rows of
    another width, so that the row reader decides. Blank lines before the
    first row are skipped here: a table without data rows never reaches
    numpy, which would warn about it."""
    for line in fh:
        if line not in _BLANK_LINES:
            break
    else:
        return np.empty((0, width))
    try:
        out = np.loadtxt(itertools.chain((line,), fh), delimiter=",", quotechar='"',
                         comments=None, ndmin=2, dtype=float, usecols=usecols)
    except ValueError:
        return None
    return out if out.shape[1] == width else None


def _cell(value: str, column: str, path) -> float:
    try:
        return float(value)
    except ValueError:
        raise InvalidDataError(
            f"{path}: non-numeric value {value.strip()!r} in column {column!r}"
        ) from None


def _floats(cells: list[str], columns: list[str], path) -> list[float]:
    """One row's cells as floats; only a row that fails is read again cell by
    cell, so that the error names the file and the column."""
    try:
        return list(map(float, cells))
    except ValueError:
        return [_cell(cell, column, path) for cell, column in zip(cells, columns)]


def _read_rows(path, cols: list[int] | None) -> np.ndarray:
    """The row reader: the table's non-blank data rows, parsed one at a time
    by ``csv`` and ``float()``, as a matrix of the columns ``cols`` (None:
    every column, and each row as wide as the header). The first row or cell
    it refuses is named by its file line or its column. The loaders call it
    only on a table that numpy's reader refuses, and it alone judges it."""
    values = array("d")
    with _open_table(path) as fh:
        reader = csv.reader(fh)
        header = _header(reader, path)
        names = header if cols is None else [header[c] for c in cols]
        last = -1 if cols is None else max(cols)
        try:
            for row in reader:
                if not row:
                    continue
                if cols is None:
                    if len(row) != len(header):
                        raise InvalidDataError(f"{path}: row {reader.line_num} has "
                                               f"{len(row)} cells, expected {len(header)}")
                    cells = row
                elif last >= len(row):
                    c = next(c for c in cols if c >= len(row))
                    raise InvalidDataError(f"{path}: row {reader.line_num} is missing "
                                           f"column {header[c]!r}")
                else:
                    cells = [row[c] for c in cols]
                values.extend(_floats(cells, names, path))
        except csv.Error as exc:
            raise InvalidDataError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.frombuffer(values).reshape(-1, len(names))


def _matrix(values: np.ndarray, columns: list[str], path) -> np.ndarray:
    """The parsed rows of a table, checked: at least one, and all finite. The
    first cell that is inf or nan is named by its column."""
    if values.shape[0] == 0:
        raise InvalidDataError(f"{path}: CSV has a header but no data rows")
    finite = np.isfinite(values)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), len(columns))
        raise InvalidDataError(
            f"{path}: non-finite value {values[row, col]} in column {columns[col]!r}"
        )
    return values


def load_csv(path, target: str) -> tuple[Dataset, list[str]]:
    """Read a numeric dataset from a headered CSV file.

    The column named ``target`` becomes the response; every other column must
    be numeric and becomes a feature. Returns the dataset together with the
    feature column names (in file order).
    """
    with _open_table(path) as fh:
        header = _header(csv.reader(fh), path)
        if target not in header:
            raise InvalidDataError(f"{path}: target column {target!r} not found in CSV header")
        values = _parsed(fh, None, len(header))
    if values is None:
        values = _read_rows(path, None)
    values = _matrix(values, header, path)
    t_col = header.index(target)
    feature_names = [h for i, h in enumerate(header) if i != t_col]
    # one copy of each column, checked above, so the arrays are frozen in place
    data = Dataset._frozen_in_place(np.delete(values, t_col, axis=1), values[:, t_col].copy())
    return data, feature_names


def load_query_csv(path, feature_names: list[str]) -> np.ndarray:
    """Read query feature rows from a headered CSV, aligned to ``feature_names``.

    Columns may appear in any order; missing or non-numeric feature columns
    raise an error naming the offending column. Extra columns are ignored.
    """
    with _open_table(path) as fh:
        header = _header(csv.reader(fh), path)
        missing = [name for name in feature_names if name not in header]
        if missing:
            raise InvalidDataError(
                f"{path}: query is missing feature column {missing[0]!r} "
                f"(train data has {len(feature_names)} features)"
            )
        cols = [header.index(name) for name in feature_names]
        values = _parsed(fh, cols, len(cols))
    if values is None:
        values = _read_rows(path, cols)
    return _matrix(values, feature_names, path)
