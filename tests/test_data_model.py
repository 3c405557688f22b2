"""Tests for containers, fold assignment, randomness and CSV ingestion."""

import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from crossconf import data_model
from crossconf import (
    Dataset,
    FoldAssignment,
    InvalidConfigurationError,
    InvalidDataError,
    RandomDraws,
    RandomSource,
    assign_folds,
    load_csv,
    load_query_csv,
    randomization_stream,
)
from oracles import discarded, folds_by_mode, hand_folds, load_csv_by_rows, load_query_csv_by_rows


class TestDataset:
    def test_shape_and_accessors(self):
        d = Dataset(np.eye(3), np.arange(3.0))
        assert d.n == 3 and d.p == 3
        sub = d.subset([2, 0])
        assert np.array_equal(sub.responses, [2.0, 0.0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidDataError):
            Dataset(np.ones((3, 2)), np.ones(4))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidDataError):
            Dataset(np.array([[1.0], [np.nan]]), np.ones(2))
        with pytest.raises(InvalidDataError):
            Dataset(np.ones((2, 1)), np.array([1.0, np.inf]))

    def test_arrays_are_read_only(self):
        d = Dataset(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            d.features[0, 0] = 5.0

    def test_subset_is_a_read_only_copy_of_its_rows(self):
        d = Dataset(np.arange(12.0).reshape(4, 3), np.arange(4.0) - 1.5)
        sub = d.subset([3, 1, 3])
        assert isinstance(sub, Dataset) and (sub.n, sub.p) == (3, 3)
        assert np.array_equal(sub.features, d.features[[3, 1, 3]])
        assert np.array_equal(sub.responses, [1.5, -0.5, 1.5])
        for mine, parent in ((sub.features, d.features), (sub.responses, d.responses)):
            assert not mine.flags.writeable and not np.shares_memory(mine, parent)
            with pytest.raises(ValueError):
                mine[0] = 0.0
        with pytest.raises(InvalidDataError, match="at least one row"):
            d.subset([])


class TestAssignFolds:
    def test_divisible_case_has_no_discards(self):
        folds = assign_folds(10, 5, "equal", RandomSource(1))
        assert all(m.size == 2 for m in folds.fold_members)
        assert discarded(folds).size == 0
        assert folds.n_used == 10

    def test_remainder_is_discarded_in_equal_mode(self):
        folds = assign_folds(11, 5, "equal", RandomSource(1))
        assert all(m.size == 2 for m in folds.fold_members)
        assert discarded(folds).size == 1
        assert folds.n_used == 10

    def test_varying_mode_keeps_every_point(self):
        folds = assign_folds(101, 5, "varying", RandomSource(3))
        sizes = sorted(folds.fold_sizes, reverse=True)
        assert sizes == [21, 20, 20, 20, 20]
        assert discarded(folds).size == 0

    def test_partition_property_exhaustive(self):
        # folds plus discarded recover 0..n-1 exactly, for all n <= 30, K <= n
        for n in range(1, 31):
            for k in range(1, n + 1):
                for mode in ("equal", "varying"):
                    folds = assign_folds(n, k, mode, RandomSource(99, n * 100 + k))
                    pieces = [m for m in folds.fold_members] + [discarded(folds)]
                    flat = np.sort(np.concatenate(pieces))
                    assert np.array_equal(flat, np.arange(n)), (n, k, mode)

    def test_equal_mode_never_mixes_sizes(self):
        gen = np.random.default_rng(5)
        for _ in range(200):
            n = int(gen.integers(2, 200))
            k = int(gen.integers(1, n + 1))
            folds = assign_folds(n, k, "equal", RandomSource(int(gen.integers(1 << 30))))
            assert folds.fold_sizes.min() == folds.fold_sizes.max()

    def test_big_fold_index_is_uniform_across_seeds(self):
        # DERIVED oracle: the index of the size-21 fold over 5000 seeded runs
        # should be uniform over the 5 positions (chi-square, p > 0.01).
        counts = np.zeros(5)
        for seed in range(5000):
            folds = assign_folds(101, 5, "varying", RandomSource(seed))
            counts[int(np.argmax(folds.fold_sizes))] += 1
        assert stats.chisquare(counts).pvalue > 0.01

    def test_seed_determinism(self):
        a = assign_folds(37, 4, "equal", RandomSource(123, 9))
        b = assign_folds(37, 4, "equal", RandomSource(123, 9))
        assert all(np.array_equal(x, y) for x, y in zip(a.fold_members, b.fold_members))
        assert np.array_equal(discarded(a), discarded(b))
        c = assign_folds(37, 4, "equal", RandomSource(123, 10))
        assert any(
            not np.array_equal(x, y) for x, y in zip(a.fold_members, c.fold_members)
        )

    def test_invalid_configurations(self):
        with pytest.raises(InvalidConfigurationError):
            assign_folds(5, 0, "equal", RandomSource(1))
        with pytest.raises(InvalidConfigurationError):
            assign_folds(5, 6, "equal", RandomSource(1))
        with pytest.raises(InvalidConfigurationError):
            assign_folds(5, 2, "bogus", RandomSource(1))

    def test_manual_assignment_validation(self):
        with pytest.raises(InvalidConfigurationError):
            hand_folds([[0, 1], [1, 2]], [3])
        with pytest.raises(InvalidConfigurationError):
            hand_folds([[0, 1, 2], [3]])

    @pytest.mark.parametrize(
        "order,offsets,match",
        [
            ([0, 1, 1, 3], [0, 2, 4], "permutation"),
            ([0, 2, 3, 4], [0, 2, 4], "permutation"),
            ([0, 1, 2, 3], [1, 2, 4], "start at 0"),
            ([0, 1, 2, 3], [0, 2, 5], "at most at n"),
            ([0, 1, 2], [0], "at least one fold"),
            ([0, 1, 2, 3], [0, 2, 2, 4], "at least one point"),
            ([0, 1, 2, 3, 4, 5, 6], [0, 1, 4, 7], "differ by at most one"),
            ([0, 1, 2, 3, 4, 5], [0, 3, 5], "discarded only from equal folds"),
            ([0, 1, 2, 3, 4], [0, 1, 2], "fewer than K"),
        ],
        ids=["repeated-index", "index-past-n", "offsets-not-from-0", "offsets-past-n",
             "no-fold", "empty-fold", "sizes-differ-by-2", "discard-with-unequal-folds",
             "k-or-more-discarded"],
    )
    def test_hand_built_assignment_refusals(self, order, offsets, match):
        with pytest.raises(InvalidConfigurationError, match=match):
            FoldAssignment(order, offsets)

    def test_hand_built_assignment_accepts_both_modes(self):
        # equal folds with fewer than K discarded, and unequal folds keeping every point
        equal = hand_folds([[3, 0], [4, 1]], [2])
        assert equal.n_used == 4 and discarded(equal).tolist() == [2]
        assert hand_folds([[3, 0], [4], [1, 2]]).fold_sizes.tolist() == [2, 1, 2]
        assert not equal.order.flags.writeable and not equal.offsets.flags.writeable
        assert all(not m.flags.writeable for m in equal.fold_members)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(5, 60), k=st.sampled_from(["1", "5", "n"]),
           mode=st.sampled_from(["equal", "varying"]), seed=st.integers(0, 2**32 - 1))
    def test_assign_folds_slices_the_stream_as_each_mode_did(self, n, k, mode, seed):
        # one permutation cut at K + 1 offsets gives the members, discarded
        # points and complements of slicing the "folds" stream one way per mode
        k = {"1": 1, "5": 5, "n": n}[k]
        folds = assign_folds(n, k, mode, RandomSource(seed, 3))
        members, rest = folds_by_mode(n, k, mode, RandomSource(seed, 3))
        assert folds.n_folds == len(members) == k
        for got, want in zip(folds.fold_members, members):
            assert got.tobytes() == want.tobytes()
        assert discarded(folds).tobytes() == rest.tobytes()
        for j in range(k):
            others = [m for i, m in enumerate(members) if i != j]
            want = np.concatenate(others) if others else np.empty(0, dtype=int)
            assert folds.complement(j).tobytes() == want.tobytes()


    @pytest.mark.parametrize(
        "n,k,mode",
        [(40, 5, "equal"), (43, 5, "equal"), (43, 5, "varying"), (17, 17, "equal"), (1, 1, "equal")],
        ids=["equal", "discarded", "varying", "k-equals-n", "one-fold"],
    )
    def test_complement_is_the_other_folds_in_fold_order(self, n, k, mode):
        for seed in range(3):
            folds = assign_folds(n, k, mode, RandomSource(seed))
            sizes = [m.size for m in folds.fold_members]
            assert folds.fold_sizes.tolist() == sizes
            for j in range(k):
                others = [m for i, m in enumerate(folds.fold_members) if i != j]
                expected = np.concatenate(others) if others else np.empty(0, dtype=int)
                got = folds.complement(j)
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected), (seed, j)

def draw(seed, stream_id):
    """The (tau, U) pair of the first prediction task on a stream."""
    return next(randomization_stream(RandomSource(seed, stream_id)))


class TestRandomization:
    def test_same_seed_reproduces_draws(self):
        d1 = draw(42, 3)
        d2 = draw(42, 3)
        assert d1.tau == d2.tau and d1.u == d2.u

    def test_tau_mean_matches_uniform(self):
        taus = np.array([draw(11, s).tau for s in range(10000)])
        assert abs(taus.mean() - 0.5) < 0.015

    def test_tau_u_uncorrelated(self):
        draws = [draw(13, s) for s in range(10000)]
        taus = np.array([d.tau for d in draws])
        us = np.array([d.u for d in draws])
        assert abs(np.corrcoef(taus, us)[0, 1]) < 0.03

    def test_draws_strictly_inside_unit_interval(self):
        for s in range(500):
            d = draw(3, s)
            assert 0.0 < d.tau < 1.0 and 0.0 < d.u < 1.0

    def test_bad_draw_values_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            RandomDraws(0.0, 0.5)
        with pytest.raises(InvalidConfigurationError):
            RandomDraws(0.5, 1.0)

    def test_purpose_streams_are_independent(self):
        src = RandomSource(21)
        a = src.generator("folds").random(5)
        b = src.generator("data").random(5)
        assert not np.allclose(a, b)
        again = src.generator("folds").random(5)
        assert np.array_equal(a, again)


class TestCsvIngestion:
    def _write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,6\n")
        data, names = load_csv(path, "y")
        assert names == ["a", "b"]
        assert np.array_equal(data.features, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(data.responses, [3.0, 6.0])

    def test_target_column_in_middle(self, tmp_path):
        path = self._write(tmp_path, "a,y,b\n1,3,2\n")
        data, names = load_csv(path, "y")
        assert names == ["a", "b"]
        assert np.array_equal(data.features, [[1.0, 2.0]])

    def test_missing_target_is_named(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(InvalidDataError, match="'z'"):
            load_csv(path, "z")

    def test_non_numeric_column_is_named(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,red,3\n")
        with pytest.raises(InvalidDataError, match="'b'"):
            load_csv(path, "y")

    def test_repeated_training_column_is_named(self, tmp_path):
        # the second "a" must not be read as the first one's data
        path = self._write(tmp_path, "a,a,y\n1,2,3\n")
        with pytest.raises(InvalidDataError, match="column 'a' appears more than once"):
            load_csv(path, "y")
        # nor may a second target column turn into a feature
        path = self._write(tmp_path, "x,y,y\n1,2,3\n")
        with pytest.raises(InvalidDataError, match="column 'y' appears more than once"):
            load_csv(path, "y")

    def test_repeated_query_column_is_named(self, tmp_path):
        path = self._write(tmp_path, " b,a,b\n5,1,50\n", "q.csv")
        with pytest.raises(InvalidDataError, match="column 'b' appears more than once"):
            load_query_csv(path, ["a", "b"])

    def test_query_alignment_by_name(self, tmp_path):
        path = self._write(tmp_path, "b,a\n5,1\n6,2\n", "q.csv")
        q = load_query_csv(path, ["a", "b"])
        assert np.array_equal(q, [[1.0, 5.0], [2.0, 6.0]])

    def test_query_missing_feature_errors(self, tmp_path):
        path = self._write(tmp_path, "a\n1\n", "q.csv")
        with pytest.raises(InvalidDataError, match="'b'"):
            load_query_csv(path, ["a", "b"])

    @pytest.mark.parametrize("load", [lambda p: load_csv(p, "y"),
                                      lambda p: load_query_csv(p, ["y"])])
    def test_empty_and_header_only_files(self, tmp_path, load):
        with pytest.raises(InvalidDataError, match="empty CSV file"):
            load(self._write(tmp_path, ""))
        with pytest.raises(InvalidDataError, match="header but no data rows"):
            load(self._write(tmp_path, "a,y\n"))

    def test_ragged_training_row_is_numbered(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,5\n")
        with pytest.raises(InvalidDataError, match="row 3 has 2 cells, expected 3"):
            load_csv(path, "y")

    def test_ragged_row_after_blank_lines_names_its_file_line(self, tmp_path):
        path = self._write(tmp_path, "a,b,y\n\n1,2,3\n\n4,5\n")
        with pytest.raises(InvalidDataError, match="row 5 has 2 cells, expected 3"):
            load_csv(path, "y")

    def test_query_row_missing_a_column(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n3\n", "q.csv")
        with pytest.raises(InvalidDataError, match="row 3 is missing column 'b'"):
            load_query_csv(path, ["a", "b"])

    def test_query_row_after_blank_lines_names_its_file_line(self, tmp_path):
        path = self._write(tmp_path, "a,b\n\n1,2\n\n3\n", "q.csv")
        with pytest.raises(InvalidDataError, match="row 5 is missing column 'b'"):
            load_query_csv(path, ["a", "b"])

    def test_non_numeric_query_cell_is_named(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1, red \n", "q.csv")
        with pytest.raises(InvalidDataError, match="non-numeric value 'red' in column 'b'"):
            load_query_csv(path, ["a", "b"])

    def test_float_spellings_and_the_first_bad_cell(self, tmp_path):
        # a row is read by float() as a whole; a failing row names its first bad cell
        text = "a,b,y\n 2 ,1_000,-.5\n1e3,+4, 7\n"
        data, _ = load_csv(self._write(tmp_path, text), "y")
        assert np.array_equal(data.features, [[2.0, 1000.0], [1000.0, 4.0]])
        assert np.array_equal(data.responses, [-0.5, 7.0])
        q = load_query_csv(self._write(tmp_path, "note,b,a\nred, 2 ,1_0\n", "q.csv"), ["a", "b"])
        assert np.array_equal(q, [[10.0, 2.0]])
        path = self._write(tmp_path, text + "1,2,3\n4,x,y\n")
        with pytest.raises(InvalidDataError, match="non-numeric value 'x' in column 'b'"):
            load_csv(path, "y")
        path = self._write(tmp_path, "a,b\n1,2\n1 2,x\n", "q.csv")
        with pytest.raises(InvalidDataError, match="non-numeric value '1 2' in column 'a'"):
            load_query_csv(path, ["a", "b"])

    def test_non_finite_query_cell(self, tmp_path):
        path = self._write(tmp_path, "a,b\n1,2\n1,inf\n", "q.csv")
        with pytest.raises(InvalidDataError, match=r"q\.csv: non-finite value inf in column 'b'"):
            load_query_csv(path, ["a", "b"])

    @pytest.mark.parametrize("text, message", [
        ("a,b,y\n1,2,3\n4,x,6\n", "non-numeric value 'x' in column 'b'"),
        ("a,b,y\n1,2,3\n4,5\n", "row 3 has 2 cells, expected 3"),
        ("a,b\n1,2\n", "target column 'y' not found in CSV header"),
    ])
    def test_training_errors_name_the_file(self, tmp_path, text, message):
        path = self._write(tmp_path, text)
        with pytest.raises(InvalidDataError) as info:
            load_csv(path, "y")
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3, x\n", "non-numeric value 'x' in column 'b'"),
        ("a,b\n1,2\n3\n", "row 3 is missing column 'b'"),
        ("a\n1\n", "query is missing feature column 'b' (train data has 2 features)"),
    ])
    def test_query_errors_name_the_file(self, tmp_path, text, message):
        path = self._write(tmp_path, text, "q.csv")
        with pytest.raises(InvalidDataError) as info:
            load_query_csv(path, ["a", "b"])
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, line", [
        ("a,y\n" + "0" * 200_000 + "1,2\n3,x\n", 2),
        ("a," + "y" * 200_000 + "\n1,2\n", 1),
    ], ids=["data-row", "header"])
    def test_a_field_past_the_csv_size_limit_names_its_line(self, tmp_path, text, line):
        # csv refuses fields over 131,072 characters; numpy's reader refuses
        # these tables too, so the row reader or the header meets that limit
        path = self._write(tmp_path, text)
        want = f"^{re.escape(str(path))}: line {line}: field larger than field limit"
        for load, arg in ((load_csv, "y"), (load_query_csv, ["a", "y"])):
            with pytest.raises(InvalidDataError, match=want):
                load(path, arg)

    def test_first_non_finite_training_cell_is_named(self, tmp_path):
        # the first bad cell in file order; the target column is named as well
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,5,nan\n-inf,6,7\n")
        with pytest.raises(InvalidDataError, match=r"data\.csv: non-finite value nan in column 'y'"):
            load_csv(path, "y")
        path = self._write(tmp_path, "a,b,y\n1,2,3\n4,-inf,nan\n")
        with pytest.raises(InvalidDataError, match="non-finite value -inf in column 'b'"):
            load_csv(path, "y")

    @pytest.mark.parametrize("header", ["y,a", "a,y"])
    def test_a_byte_order_mark_is_not_part_of_the_first_name(self, tmp_path, header):
        # Excel's "CSV UTF-8" export starts with one
        path = tmp_path / "data.csv"
        path.write_bytes(("\ufeff" + header + "\n1,2\n").encode("utf-8"))
        data, names = load_csv(path, "y")
        assert names == ["a"]
        assert data.responses.tolist() == [1.0 if header == "y,a" else 2.0]
        query = tmp_path / "q.csv"
        for text in ("a,b\n3,4\n", "\ufeffa,b\n3,4\n", "\ufeffb,a\n4,3\n"):
            query.write_bytes(text.encode("utf-8"))
            assert load_query_csv(query, names).tolist() == [[3.0]]

    @pytest.mark.parametrize("load", [lambda p: load_csv(p, "y"),
                                      lambda p: load_query_csv(p, ["y"])])
    @pytest.mark.parametrize("text", ["a,y\n", "a,y\n\n\r\n\r", "a,y"])
    def test_a_table_without_rows_warns_of_nothing(self, tmp_path, load, text):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDataError, match="header but no data rows"):
                load(path)


# Cells the loaders must read as float() does, or refuse as the row reader
# does: numpy's parser refuses 1_000 and non-ASCII digits, which float() takes.
SPECIAL_CELLS = ["+.5", "5.", "1_000", " 2 ", "\t3", '"1.5"', '"1,5"', "", "nan",
                 "-Infinity", "1e400", "4.9e-324", "#", "x", "\u0662"]
NUMERIC_CELLS = ["+.5", "5.", " 2 ", "\t3", '"1.5"', "4.9e-324", "-0"]
_floats = st.floats(allow_nan=False, allow_infinity=False)
_written = st.one_of(_floats.map(repr), _floats.map(lambda v: "%.17g" % v))
ANY_CELL = st.one_of(_written, _written, st.sampled_from(SPECIAL_CELLS))
NUMERIC_CELL = st.one_of(_written, _written, st.sampled_from(NUMERIC_CELLS))


@st.composite
def csv_texts(draw, header: list[str]):
    """A CSV file with ``header``: numeric rows (all cells numeric in about
    half the files, and all one cell too wide or too narrow in some) among
    blank, whitespace-only and ragged lines, with one kind of line end, and a
    byte order mark in some files."""
    cell = NUMERIC_CELL if draw(st.booleans()) else ANY_CELL
    shift = draw(st.sampled_from([0] * 8 + [-1, 1]))
    text_cell = st.sampled_from(["red", "x y", '"a,b"', ""])
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 8 + ["blank", "space", "ragged"]))
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            width = len(header) + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else shift)
            lines.append(",".join(draw(text_cell if header[j % len(header)] == "note" else cell)
                                  for j in range(width)))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return ("\ufeff" if draw(st.integers(0, 4)) == 0 else "") + text


def outcome(load, path, *args):
    """What a loader gives: ("ok", its values as bytes, shapes and names) or
    ("error", the message)."""
    try:
        out = load(path, *args)
    except InvalidDataError as err:
        return "error", str(err)
    if isinstance(out, np.ndarray):
        return "ok", out.dtype, out.shape, out.tobytes()
    data, names = out
    return ("ok", names, data.features.shape, data.features.tobytes(),
            data.responses.shape, data.responses.tobytes())


class TestLoadersMatchTheRowReader:
    """Both loaders return the values of a reader that parses one row at a
    time with ``csv`` and ``float()``, bit for bit, or raise its message."""

    @given(data=st.data(), width=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_training_files(self, data, width):
        header = [f"c{j}" for j in range(width)]
        target = data.draw(st.sampled_from(header))
        text = data.draw(csv_texts(header))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "data.csv"
            path.write_bytes(text.encode("utf-8"))
            assert outcome(load_csv, path, target) == outcome(load_csv_by_rows, path, target)

    @given(data=st.data(), width=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_query_files_with_extra_and_reordered_columns(self, data, width):
        names = [f"c{j}" for j in range(width)]
        extra = data.draw(st.lists(st.sampled_from(["note", "id"]), unique=True))
        header = data.draw(st.permutations(names + extra))
        if len(header) > 1 and data.draw(st.integers(0, 9)) == 0:
            header = header[1:]  # a missing feature, or a missing extra column
        text = data.draw(csv_texts(header))
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "q.csv"
            path.write_bytes(text.encode("utf-8"))
            assert (outcome(load_query_csv, path, names)
                    == outcome(load_query_csv_by_rows, path, names))


def write_table(path: Path, header: list[str], values: np.ndarray) -> Path:
    """A CSV file as perfbench writes one: ``%.17g`` cells, LF line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, values, fmt="%.17g", delimiter=",")
    return path


class TestFastPath:
    """Tables numpy's parser takes never reach the row reader."""

    @pytest.fixture
    def row_reads(self, monkeypatch):
        calls = []
        read = data_model._read_rows

        def counted(*args):
            calls.append(args)
            return read(*args)

        monkeypatch.setattr(data_model, "_read_rows", counted)
        return calls

    def test_common_files_are_parsed_without_the_row_reader(self, tmp_path, row_reads):
        values = np.random.default_rng(0).standard_normal((300, 9))
        header = [f"x{j}" for j in range(8)] + ["y"]
        path = write_table(tmp_path / "data.csv", header, values)
        data, names = load_csv(path, "y")
        assert names == header[:8]
        assert np.array_equal(data.features, values[:, :8])
        assert np.array_equal(data.responses, values[:, 8])
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(b"a,y\r\n1,2\r\n3,4\r\n")
        assert load_csv(crlf, "y")[0].features.tolist() == [[1.0], [3.0]]
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(b'a,y\n\n"1.5",2\n\n\n3," 4"\n\n')
        assert load_csv(quoted, "y")[0].responses.tolist() == [2.0, 4.0]
        query = tmp_path / "q.csv"
        query.write_bytes(b"note,b,a\nred,2,1\nblue green,4,3\n")
        assert load_query_csv(query, ["a", "b"]).tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert row_reads == []

    def test_a_cell_numpy_refuses_takes_one_row_read(self, tmp_path, row_reads):
        path = tmp_path / "data.csv"
        path.write_bytes(b"a,y\n1,2\n1_000,3\n")
        assert load_csv(path, "y")[0].features.tolist() == [[1.0], [1000.0]]
        assert len(row_reads) == 1


def test_load_csv_peak_memory_stays_near_its_values(tmp_path):
    # the values once as parsed, then once as features and responses
    values = np.random.default_rng(1).standard_normal((100_000, 9))
    path = write_table(tmp_path / "big.csv", [f"x{j}" for j in range(8)] + ["y"], values)
    tracemalloc.start()
    try:
        data, _ = load_csv(path, "y")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(data.features, values[:, :8])
    assert peak <= 2.2 * values.nbytes
