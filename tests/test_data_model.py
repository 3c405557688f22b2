"""Tests for containers, fold assignment, randomness and CSV ingestion."""

import numpy as np
import pytest
from scipy import stats

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


class TestAssignFolds:
    def test_divisible_case_has_no_discards(self):
        folds = assign_folds(10, 5, "equal", RandomSource(1))
        assert all(m.size == 2 for m in folds.fold_members)
        assert folds.discarded.size == 0
        assert folds.n_used == 10

    def test_remainder_is_discarded_in_equal_mode(self):
        folds = assign_folds(11, 5, "equal", RandomSource(1))
        assert all(m.size == 2 for m in folds.fold_members)
        assert folds.discarded.size == 1
        assert folds.n_used == 10

    def test_varying_mode_keeps_every_point(self):
        folds = assign_folds(101, 5, "varying", RandomSource(3))
        sizes = sorted(folds.fold_sizes, reverse=True)
        assert sizes == [21, 20, 20, 20, 20]
        assert folds.discarded.size == 0

    def test_partition_property_exhaustive(self):
        # folds plus discarded recover 0..n-1 exactly, for all n <= 30, K <= n
        for n in range(1, 31):
            for k in range(1, n + 1):
                for mode in ("equal", "varying"):
                    folds = assign_folds(n, k, mode, RandomSource(99, n * 100 + k))
                    pieces = [m for m in folds.fold_members] + [folds.discarded]
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
        assert np.array_equal(a.discarded, b.discarded)
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
            FoldAssignment(4, (np.array([0, 1]), np.array([1, 2])), np.array([3]), "equal")
        with pytest.raises(InvalidConfigurationError):
            FoldAssignment(4, (np.array([0, 1, 2]), np.array([3])), np.array([]), "equal")


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
        path = self._write(tmp_path, "a,b\n1,inf\n", "q.csv")
        with pytest.raises(InvalidDataError, match="query rows must be finite"):
            load_query_csv(path, ["a", "b"])
