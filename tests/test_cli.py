"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import stat
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import crossconf
from crossconf import (
    FOLD_METHODS,
    MethodConfig,
    RandomSource,
    ScoreFunctionSpec,
    assign_folds,
    compute_cv_scores,
    cv_plus_from_scores,
    fit_state,
    fold_method_sets,
    load_csv,
    parse_regressor,
    randomization_stream,
    simulate_instance,
    split_set_from_state,
)
from crossconf import _blas
from crossconf.experiments import _QUERY_BLOCK
from crossconf.cli import main
from crossconf.data_model import _open_unit
from crossconf.data_model import RandomDraws


def write_dataset_csv(path, n=40, p=3, seed=0):
    data, _ = simulate_instance(n, p, RandomSource(seed))
    header = ",".join([f"x{j}" for j in range(p)] + ["y"])
    rows = [
        ",".join([repr(float(v)) for v in data.features[i]] + [repr(float(data.responses[i]))])
        for i in range(n)
    ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return data


class TestSimulateCommand:
    def test_writes_reports_and_is_reproducible(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = [
            "simulate", "--n", "30", "--p", "2,4", "--alpha", "0.2", "--k", "3",
            "--reps", "3", "--methods", "mod,cross", "--seed", "7",
            "--threads", "1",
        ]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.json").exists()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("# config: ") and '"seed": 7' in lines[0]
        assert len(lines) == 2 + 2 * 2  # header, columns, methods x p values

    def test_single_rep_gives_single_row_per_cell(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["simulate", "--n", "20", "--p", "2", "--reps", "1", "--k", "2",
             "--methods", "mod", "--seed", "1", "--out", str(out), "--threads", "1"]
        )
        assert code == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 1 and rows[0].split(",")[2] == "1"

    def test_range_flag_expands_inclusively(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["simulate", "--n", "20", "--p", "2:6:2", "--reps", "1", "--k", "2",
             "--methods", "mod", "--seed", "1", "--out", str(out), "--threads", "1"]
        )
        assert code == 0
        ps = [line.split(",")[1] for line in out.read_text().splitlines()[2:]]
        assert ps == ["2", "4", "6"]

    def test_seed_required_without_entropy(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("CROSSCONF_SEED", raising=False)
        code = main(["simulate", "--n", "20", "--p", "2", "--reps", "1",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSSCONF_SEED", "55")
        out = tmp_path / "r.csv"
        code = main(["simulate", "--n", "20", "--p", "2", "--reps", "1", "--k", "2",
                     "--methods", "mod", "--out", str(out), "--threads", "1"])
        assert code == 0
        assert '"seed": 55' in out.read_text().splitlines()[0]

    def test_entropy_draws_and_records_a_seed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CROSSCONF_SEED", raising=False)
        out = tmp_path / "r.csv"
        code = main(["simulate", "--n", "20", "--p", "2", "--reps", "1", "--k", "2",
                     "--methods", "mod", "--entropy", "--out", str(out), "--threads", "1"])
        assert code == 0
        config = json.loads(out.read_text().splitlines()[0][len("# config: "):])
        assert isinstance(config["seed"], int)

    def test_split_only_run_accepts_a_single_fold(self, tmp_path):
        # no fold model is fitted, so one fold with no training complement is fine
        out = tmp_path / "r.csv"
        code = main(["simulate", "--n", "20", "--p", "2", "--reps", "2", "--k", "1",
                     "--methods", "split", "--seed", "1", "--out", str(out), "--threads", "1"])
        assert code == 0
        assert [line.split(",")[0] for line in out.read_text().splitlines()[2:]] == ["split"]

    def test_each_warning_prints_once_with_its_count(self, tmp_path, capsys):
        # folds of 4 at alpha = 0.1: mod's set is the whole line in every trial,
        # and the warnings of every worker process reach one counter; 7 trials
        # on 3 workers are shares of 3, 2 and 2
        for workers, reps in (2, 3), (3, 7):
            argv = ["simulate", "--n", "20", "--p", "2", "--reps", str(reps), "--k", "5",
                    "--alpha", "0.1", "--methods", "mod", "--seed", "1",
                    "--threads", str(workers), "--out", str(tmp_path / "s.csv")]
            assert main(argv) == 0
            assert capsys.readouterr().err.splitlines() == [
                "warning: threshold too small to exclude any response for mod; "
                f"their sets are the whole line ({reps} times)"
            ]

    def test_usage_error_exit_code(self):
        assert main(["simulate", "--n", "20"]) == 2  # --p missing
        assert main(["simulate", "--n", "20", "--p", "2", "--methods", "bogus",
                     "--seed", "1"]) == 2

    def test_repeated_p_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["simulate", "--n", "20", "--p", "3,3", "--reps", "1", "--seed", "1",
                     "--out", str(out)])
        assert code == 2
        assert "listed only once" in capsys.readouterr().err
        assert not out.exists()


    def test_repeated_method_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["simulate", "--n", "20", "--p", "3", "--reps", "2", "--k", "2",
                     "--methods", "mod,mod", "--seed", "1", "--out", str(out)])
        assert code == 2
        assert "each method may be listed only once" in capsys.readouterr().err
        assert not out.exists()

class TestPredictCommand:
    def test_sets_match_library_computation(self, tmp_path, capsys):
        data = write_dataset_csv(tmp_path / "train.csv", n=40, p=3, seed=3)
        (tmp_path / "q.csv").write_text(
            "x0,x1,x2\n" + ",".join(repr(float(v)) for v in data.features[5]) + "\n"
        )
        argv = [
            "predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
            "--query", str(tmp_path / "q.csv"), "--alpha", "0.45", "--k", "4",
            "--methods", "mod,eu-mod", "--seed", "21",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        got = payload["predictions"][0]["sets"]

        # independent recomputation with the same seed and parameters
        loaded, _ = load_csv(tmp_path / "train.csv", "y")
        src = RandomSource(21)
        folds = assign_folds(40, 4, "equal", src)
        cv = compute_cv_scores(loaded, folds, ScoreFunctionSpec())
        draws = RandomDraws(_open_unit(src.generator("tau")), _open_unit(src.generator("u")))
        expected = fold_method_sets(cv, folds, data.features[5], 0.45,
                                    ["mod", "eu-mod"], draws=draws)
        for method in ("mod", "eu-mod"):
            assert got[method]["intervals"] == [
                list(pair) for pair in expected[method].intervals
            ]
        # a huge alpha keeps the set narrow around the fitted value
        from crossconf import RegressorSpec, fit

        fitted = float(fit(RegressorSpec("ols"), loaded).predict(data.features[5][None, :])[0])
        assert expected["mod"].contains(fitted)
        widths = [iv[1] - iv[0] for iv in got["mod"]["intervals"]]
        assert sum(widths) < np.ptp(data.responses)

    @pytest.mark.parametrize("regressor", ["ols", "knn:3"])
    def test_each_row_matches_one_library_call(self, tmp_path, regressor):
        # the command predicts its rows in blocks; a row's sets must not depend on that
        write_dataset_csv(tmp_path / "train.csv", n=60, p=3, seed=5)
        queries, _ = simulate_instance(_QUERY_BLOCK + 6, 3, RandomSource(6))
        lines = ["x0,x1,x2"] + [",".join(repr(float(v)) for v in row) for row in queries.features]
        (tmp_path / "q.csv").write_text("\n".join(lines) + "\n")
        argv = ["predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
                "--query", str(tmp_path / "q.csv"), "--alpha", "0.2", "--k", "4",
                "--regressor", regressor, "--methods", ALL_METHODS_ARG, "--seed", "23",
                "--out", str(tmp_path / "p.json")]
        assert main(argv) == 0
        predictions = json.loads((tmp_path / "p.json").read_text())["predictions"]

        loaded, _ = load_csv(tmp_path / "train.csv", "y")
        cfg = MethodConfig(alpha=0.2, k=4, regressor=parse_regressor(regressor),
                           methods=tuple(ALL_METHODS_ARG.split(",")))
        src = RandomSource(23)
        cv, split_state = fit_state(cfg, loaded, src)
        assert len(predictions) == len(queries.features)
        for row, x, draws in zip(predictions, queries.features, randomization_stream(src)):
            sets = fold_method_sets(cv, cv.folds, x, 0.2, FOLD_METHODS, draws=draws)
            sets["cv+"] = cv_plus_from_scores(cv, cv.folds, x, 0.2)
            sets["split"] = split_set_from_state(split_state, x)
            expected = {m: json.loads(json.dumps(s.to_jsonable())) for m, s in sets.items()}
            assert {m: s["intervals"] for m, s in row["sets"].items()} == expected

    def test_uninformative_alpha_warns_and_spans_line(self, tmp_path, capsys):
        write_dataset_csv(tmp_path / "train.csv", n=20, p=2, seed=4)
        (tmp_path / "q.csv").write_text("x0,x1\n0.0,0.0\n")
        argv = [
            "predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
            "--query", str(tmp_path / "q.csv"), "--alpha", "0.1", "--k", "5",
            "--methods", "mod", "--seed", "2",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "warning:" in captured.err
        payload = json.loads(captured.out)
        assert payload["predictions"][0]["sets"]["mod"]["intervals"] == [["-inf", "inf"]]
        assert payload["predictions"][0]["sets"]["mod"]["width"] == "inf"

    def test_warnings_print_in_first_seen_order(self, tmp_path):
        # two distinct warnings; their order must not follow string hashing
        write_dataset_csv(tmp_path / "train.csv", n=10, p=2, seed=4)
        (tmp_path / "q.csv").write_text("x0,x1\n0.0,0.0\n")
        argv = [
            sys.executable, "-m", "crossconf.cli", "predict",
            "--data", str(tmp_path / "train.csv"), "--target", "y",
            "--query", str(tmp_path / "q.csv"), "--alpha", "0.1", "--k", "5",
            "--methods", "mod,split,cv+", "--seed", "1",
        ]
        src = str(Path(crossconf.__file__).resolve().parents[1])
        errs = []
        for hash_seed in ("0", "3"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
            errs.append(proc.stderr)
        lines = errs[0].splitlines()
        assert len(lines) == 2
        assert "threshold too small" in lines[0] and "split set" in lines[1]
        assert errs[1] == errs[0]

    def test_hull_flag_yields_single_intervals(self, tmp_path, capsys):
        write_dataset_csv(tmp_path / "train.csv", n=40, p=2, seed=5)
        (tmp_path / "q.csv").write_text("x0,x1\n0.1,0.2\n")
        argv = [
            "predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
            "--query", str(tmp_path / "q.csv"), "--alpha", "0.2", "--k", "4",
            "--methods", "mod,e-mod,cross", "--seed", "9", "--hull",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        for blob in payload["predictions"][0]["sets"].values():
            assert blob["n_components"] == 1 and blob["hulled"]

    def test_query_dimension_mismatch_is_data_error(self, tmp_path):
        write_dataset_csv(tmp_path / "train.csv", n=20, p=3, seed=6)
        (tmp_path / "q.csv").write_text("x0,x1\n0.0,0.0\n")  # missing x2
        code = main(
            ["predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
             "--query", str(tmp_path / "q.csv"), "--seed", "1"]
        )
        assert code == 3

    def test_repeated_header_name_is_data_error(self, tmp_path, capsys):
        # with "a,a,y" the query row "5,50" would otherwise be read as [5, 5]
        (tmp_path / "train.csv").write_text(
            "a,a,y\n" + "".join(f"{i},{10 * i},{i % 3}\n" for i in range(20)))
        (tmp_path / "q.csv").write_text("a,a\n5,50\n")
        code = main(
            ["predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
             "--query", str(tmp_path / "q.csv"), "--seed", "1"]
        )
        assert code == 3
        assert "column 'a' appears more than once" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(
            ["predict", "--data", str(tmp_path / "nope.csv"), "--target", "y",
             "--query", str(tmp_path / "nope.csv"), "--seed", "1"]
        )
        assert code == 3

    def test_threads_is_a_usage_error(self, tmp_path):
        # predict has no trials to spread over workers, so it takes no --threads
        write_dataset_csv(tmp_path / "train.csv", n=20, p=2, seed=6)
        (tmp_path / "q.csv").write_text("x0,x1\n0.0,0.0\n")
        code = main(
            ["predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
             "--query", str(tmp_path / "q.csv"), "--seed", "1", "--threads", "2"]
        )
        assert code == 2


class TestRunCommand:
    def test_real_data_report(self, tmp_path):
        write_dataset_csv(tmp_path / "d.csv", n=60, p=3, seed=8)
        out = tmp_path / "r.csv"
        code = main(
            ["run", "--data", str(tmp_path / "d.csv"), "--target", "y",
             "--train-size", "40", "--test-size", "10", "--trials", "2",
             "--methods", "mod,split", "--k", "4", "--seed", "3",
             "--out", str(out), "--threads", "1"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # config, columns, two method rows
        assert lines[2].split(",")[2] == "2"

    def test_warnings_print_without_source_lines(self, tmp_path, capsys):
        write_dataset_csv(tmp_path / "d.csv", n=30, p=2, seed=9)
        argv = ["run", "--data", str(tmp_path / "d.csv"), "--target", "y",
                "--train-size", "20", "--test-size", "3", "--trials", "2", "--k", "5",
                "--alpha", "0.1", "--methods", "mod,cross", "--seed", "1",
                "--out", str(tmp_path / "r.csv")]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: threshold too small to exclude any response for mod; "
            "their sets are the whole line (6 times)"
        ]

    def test_missing_target_column_is_named(self, tmp_path, capsys):
        write_dataset_csv(tmp_path / "d.csv", n=30, p=2, seed=9)
        code = main(
            ["run", "--data", str(tmp_path / "d.csv"), "--target", "price",
             "--train-size", "20", "--test-size", "5", "--seed", "1"]
        )
        assert code == 3
        assert "price" in capsys.readouterr().err

    def test_non_numeric_cell_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1,2,3\n4,x,6\n")
        code = main(["run", "--data", str(path), "--target", "y", "--train-size", "1",
                     "--test-size", "1", "--seed", "1"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {path}: non-numeric value 'x' in column 'b'\n"


    def test_a_field_past_the_csv_size_limit_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n" + "0" * 200_000 + "1,2\n3,x\n")
        code = main(["run", "--data", str(path), "--target", "y", "--train-size", "1",
                     "--test-size", "1", "--seed", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 2: field larger") and "Traceback" not in err

def write_grid_csv(path, n=90, p=3, seed=11):
    """Integer-grid features and one-decimal responses: many kNN ties."""
    gen = np.random.default_rng(seed)
    x = gen.integers(-2, 3, size=(n, p))
    y = np.round(x.sum(axis=1) + gen.standard_normal(n), 1)
    lines = [",".join([f"x{j}" for j in range(p)] + ["y"])]
    lines += [",".join([str(int(v)) for v in x[i]] + [repr(float(y[i]))]) for i in range(n)]
    path.write_text("\n".join(lines) + "\n")


# Report rows of the golden run below, captured from the lexsort kNN and the
# piece-by-piece run extraction; the vectorized kernels must reproduce them.
GOLDEN_KNN_ROWS = """\
method,p,reps,coverage,mean_width,sd_width,median_width,min_width,max_width,n_infinite
mod,3,2,0.86,4.1716,0.3671298407920556,4.1716,3.9119999999999995,4.4312,0
e-mod,3,2,0.66,3.178,0.4451944294350506,3.178,2.8632,3.4928000000000003,0
u-mod,3,2,0.68,3.2192,0.3133897254218779,3.2192,2.9976,3.4408,0
eu-mod,3,2,0.46,2.2060000000000004,0.6861764204634263,2.2060000000000004,1.7207999999999999,2.6912000000000007,0
cross,3,2,0.8,3.6832,0.24211336187827484,3.6832,3.511999999999999,3.8544000000000005,0
e-cross,3,2,0.56,2.8091999999999997,0.14424978336205582,2.8091999999999997,2.7072,2.9112,0
u-cross,3,2,0.54,2.6727999999999996,0.19798989873223316,2.6727999999999996,2.5328,2.8127999999999997,0
eu-cross,3,2,0.30000000000000004,1.8144000000000002,0.5690795374989339,1.8144000000000002,1.412,2.2168000000000005,0
split,3,2,0.6000000000000001,3.4399999999999995,0.1131370849898477,3.4399999999999995,3.3599999999999994,3.5199999999999996,0
cv+,3,2,0.8,3.6832,0.24211336187827484,3.6832,3.511999999999999,3.8544000000000005,0
"""


class TestReportBytes:
    def test_knn_run_matches_golden_rows(self, tmp_path):
        write_grid_csv(tmp_path / "d.csv")
        out = tmp_path / "r.csv"
        code = main(
            ["run", "--data", str(tmp_path / "d.csv"), "--target", "y",
             "--regressor", "knn:5", "--train-size", "60", "--test-size", "25",
             "--trials", "2", "--k", "5", "--alpha", "0.2",
             "--methods", "mod,e-mod,u-mod,eu-mod,cross,e-cross,u-cross,eu-cross,split,cv+",
             "--seed", "13", "--out", str(out), "--threads", "1"]
        )
        assert code == 0
        lines = out.read_text().splitlines(keepends=True)
        assert lines[0].startswith("# config: ")
        assert "".join(lines[1:]) == GOLDEN_KNN_ROWS

    def test_run_report_config_keys_order_and_values(self, tmp_path):
        # no golden file holds a run report's config line, so pin it here
        write_dataset_csv(tmp_path / "d.csv", n=50, p=3, seed=8)
        out = tmp_path / "r.csv"
        assert main(["run", "--data", str(tmp_path / "d.csv"), "--target", "y",
                     "--regressor", "ridge:0.5", "--train-size", "30", "--test-size", "7",
                     "--trials", "2", "--alpha", "0.2", "--k", "3", "--fold-mode", "varying",
                     "--methods", "cross,split", "--seed", "9", "--threads", "2",
                     "--out", str(out)]) == 0
        expected = [
            ("command", "run"), ("train_size", 30), ("test_size", 7), ("trials", 2),
            ("n", 30), ("p_list", [3]), ("alpha", 0.2), ("k", 3), ("reps", 2),
            ("regressor", {"kind": "ridge", "ridge_lambda": 0.5, "knn_k": 1}),
            ("methods", ["cross", "split"]), ("seed", 9), ("fold_mode", "varying"),
        ]
        config = json.loads((tmp_path / "r.json").read_text())["config"]
        assert list(config.items()) == expected
        header = out.read_text().splitlines()[0]
        assert header == "# config: " + json.dumps(dict(expected), sort_keys=True)

    @pytest.mark.parametrize("command", ["simulate", "run"])
    def test_files_identical_across_thread_counts(self, tmp_path, command):
        if command == "simulate":
            argv = ["simulate", "--n", "30", "--p", "2,4", "--alpha", "0.2", "--k", "3",
                    "--reps", "4", "--methods", "mod,cross,split,cv+", "--seed", "7"]
        else:
            write_dataset_csv(tmp_path / "d.csv", n=60, p=3, seed=8)
            argv = ["run", "--data", str(tmp_path / "d.csv"), "--target", "y",
                    "--regressor", "knn:3", "--train-size", "40", "--test-size", "10",
                    "--trials", "5", "--methods", "mod,e-mod,cross,split", "--k", "4",
                    "--seed", "3"]
        # 8 simulate and 5 run trials give uneven shares on 2 and 3 workers
        for threads in ("1", "2", "3"):
            assert main(argv + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
        for suffix in (".csv", ".json"):
            one = (tmp_path / ("1" + suffix)).read_bytes()
            assert one == (tmp_path / ("2" + suffix)).read_bytes()
            assert one == (tmp_path / ("3" + suffix)).read_bytes()


@pytest.fixture
def blas_count():
    """The OpenBLAS thread-count setter, with the count raised to 2 for the test
    and restored after it. Skips where no OpenBLAS is loaded or the count cannot
    be raised to 2."""
    api = _blas._openblas()
    if not api:
        pytest.skip("no OpenBLAS loaded")
    get, put = api
    before = get()
    put(2)
    try:
        if get() != 2:
            pytest.skip("the OpenBLAS thread count cannot be raised to 2")
        yield put
    finally:
        put(before)


class TestOneBlasPolicy:
    """Every command holds BLAS to one thread, so its bytes depend neither on
    --threads nor on the BLAS thread count it starts with. The shapes are large
    enough that OpenBLAS splits a product over two threads when it may."""

    def test_simulate_bytes_do_not_depend_on_threads(self, tmp_path, blas_count):
        argv = ["simulate", "--n", "200", "--p", "180", "--reps", "2", "--alpha", "0.1",
                "--k", "5", "--methods", "mod,cross,split,cv+", "--seed", "7"]
        for threads in ("1", "2"):
            assert main(argv + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
        for suffix in (".csv", ".json"):
            assert (tmp_path / f"1{suffix}").read_bytes() == (tmp_path / f"2{suffix}").read_bytes()

    def test_predict_bytes_do_not_depend_on_the_blas_count(self, tmp_path, blas_count):
        write_dataset_csv(tmp_path / "train.csv", n=200, p=180, seed=4)
        queries, _ = simulate_instance(8, 180, RandomSource(5))
        lines = [",".join(f"x{j}" for j in range(180))]
        lines += [",".join(repr(float(v)) for v in row) for row in queries.features]
        (tmp_path / "q.csv").write_text("\n".join(lines) + "\n")
        argv = ["predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
                "--query", str(tmp_path / "q.csv"), "--alpha", "0.1", "--k", "5",
                "--methods", ALL_METHODS_ARG, "--seed", "11"]
        for count in (2, 1):
            blas_count(count)
            assert main(argv + ["--out", str(tmp_path / f"{count}.json")]) == 0
        assert (tmp_path / "1.json").read_bytes() == (tmp_path / "2.json").read_bytes()


class TestExitCodes:
    def test_numerical_failure_maps_to_exit_4(self, tmp_path, monkeypatch):
        import crossconf.cli as cli

        def boom(cfg, **campaign):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "run_simulation", boom)
        code = main(["simulate", "--n", "20", "--p", "2", "--reps", "1",
                     "--seed", "1", "--out", str(tmp_path / "r.csv")])
        assert code == 4

    def test_bound_below_floor_maps_to_exit_4(self, monkeypatch, capsys):
        import crossconf.combiners as combiners

        monkeypatch.setattr(combiners, "math", types.SimpleNamespace(sqrt=lambda x: 1e9))
        assert main(["bounds", "--alpha", "0.1", "--k-list", "5", "--n", "100"]) == 4
        assert "floor" in capsys.readouterr().err


class TestBoundsCommand:
    def test_values_and_floor(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["bounds", "--alpha", "0.1", "--k-list", "5,100",
                     "--n", "100", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "k,n,bound_small_k,bound_large_k,combined,sqrt_floor"
        by_k = {line.split(",")[0]: line.split(",") for line in lines[2:]}
        assert float(by_k["5"][2]) == pytest.approx(0.7314285714285714, abs=1e-12)
        assert float(by_k["100"][3]) == pytest.approx(0.8, abs=1e-15)

    def test_sweep_respects_floor(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bounds", "--alpha", "0.1", "--k-list", "2,5,10",
                     "--n", "10:2000:10", "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[2:]:
            parts = line.split(",")
            assert float(parts[4]) >= float(parts[5]) - 1e-12

    def test_stdout_output(self, capsys):
        assert main(["bounds", "--alpha", "0.1", "--k-list", "2", "--n", "50"]) == 0
        assert "bound_small_k" in capsys.readouterr().out

    def test_out_file_has_the_mode_of_a_plainly_opened_file(self, tmp_path):
        umask = os.umask(0o022)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            assert main(["bounds", "--k-list", "2", "--n", "50",
                         "--out", str(tmp_path / "b.csv")]) == 0
        finally:
            os.umask(umask)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain.txt", "b.csv")]
        assert modes == [0o644, 0o644]


GOLDEN_DIR = Path(__file__).parent / "golden"
ALL_METHODS_ARG = "mod,e-mod,u-mod,eu-mod,cross,e-cross,u-cross,eu-cross,split,cv+"


def golden_predict_argv(tmp_path, hull):
    """Six out-of-sample query rows, all ten methods, kNN fits at a level
    where some sets have two components and some are empty."""
    write_dataset_csv(tmp_path / "train.csv", n=40, p=3, seed=31)
    queries, _ = simulate_instance(6, 3, RandomSource(32))
    lines = ["x0,x1,x2"] + [",".join(repr(float(v)) for v in row) for row in queries.features]
    (tmp_path / "q.csv").write_text("\n".join(lines) + "\n")
    argv = ["predict", "--data", str(tmp_path / "train.csv"), "--target", "y",
            "--query", str(tmp_path / "q.csv"), "--alpha", "0.45", "--k", "4",
            "--regressor", "knn:3", "--methods", ALL_METHODS_ARG, "--seed", "17",
            "--out", str(tmp_path / "predict.json")]
    return argv + ["--hull"] if hull else argv


def golden_simulate_argv(tmp_path):
    return ["simulate", "--n", "30", "--p", "2,4", "--alpha", "0.2", "--k", "3",
            "--reps", "3", "--methods", ALL_METHODS_ARG, "--seed", "19",
            "--threads", "1", "--out", str(tmp_path / "sim.csv")]


class TestGoldenOutputs:
    """Output bytes captured before the per-query draw loops were merged: the
    (tau, U) pair of every query row, and so every set, must stay the same."""

    @pytest.mark.parametrize("hull", [False, True], ids=["sets", "hull"])
    def test_predict_rows_match_golden(self, tmp_path, hull):
        assert main(golden_predict_argv(tmp_path, hull)) == 0
        name = "predict_hull.json" if hull else "predict.json"
        assert (tmp_path / "predict.json").read_text() == (GOLDEN_DIR / name).read_text()

    def test_simulate_reports_match_golden(self, tmp_path):
        assert main(golden_simulate_argv(tmp_path)) == 0
        for suffix in (".csv", ".json"):
            got = (tmp_path / ("sim" + suffix)).read_text()
            assert got == (GOLDEN_DIR / ("simulate" + suffix)).read_text()


@pytest.mark.parametrize("command", ["predict", "bounds"])
def test_stdout_and_out_file_hold_the_same_bytes(tmp_path, capsys, command):
    if command == "predict":
        argv = golden_predict_argv(tmp_path, hull=False)[:-2]  # without --out
    else:
        argv = ["bounds", "--alpha", "0.1", "--k-list", "2,5", "--n", "10:50:10"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_bytes() == printed.encode()
