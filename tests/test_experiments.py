"""Tests for the simulation harness, real-data runner and aggregation."""

import gc
import json
import math
import os
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from crossconf import (
    CvScores,
    InvalidConfigurationError,
    KnnModel,
    LinearModel,
    RandomSource,
    RegressorSpec,
    MethodConfig,
    parse_regressor,
    randomization_stream,
    run_real_data,
    run_simulation,
    simulate_instance,
)
from crossconf import _blas
from crossconf import conformal_sets as cs
from crossconf import experiments as ex
from crossconf.data_model import RandomDraws, _open_unit
from crossconf.cli import _write_report
from crossconf.experiments import _simulation_trial
from conftest import make_pipeline
from oracles import mc_standard_error, report_row

needs_openblas = pytest.mark.skipif(not _blas._openblas(), reason="no OpenBLAS loaded")


def base_config(**overrides):
    defaults = dict(
        alpha=0.1, k=4, regressor=RegressorSpec("ols"),
        methods=("mod", "e-mod", "u-mod", "eu-mod", "cross"),
    )
    defaults.update(overrides)
    return MethodConfig(**defaults)


def simulate(cfg=None, **campaign):
    """``run_simulation`` of ``cfg`` (default ``base_config()``) with the
    campaign arguments given, the rest from a 5-trial n=40, p=4 campaign."""
    defaults = dict(n=40, p_list=(4,), reps=5, seed=1234)
    defaults.update(campaign)
    return run_simulation(cfg or base_config(), **defaults)


def run_real(data, cfg=None, **campaign):
    """``run_real_data`` of ``cfg`` (default ``base_config()``) with the
    campaign arguments given, the rest from 5 trials of 40 train rows."""
    defaults = dict(train_size=40, test_size=5, trials=5, seed=1234)
    defaults.update(campaign)
    return run_real_data(data, cfg or base_config(), **defaults)


class TestSimulateInstance:
    def test_coefficients_have_fixed_norm(self):
        # ||beta||^2 = 10 for every p shows as Var(Y) = 10 + 1 = 11; p = 1 is
        # in test_response_variance_decomposition
        for p in (3, 17):
            data, _ = simulate_instance(100_000, p, RandomSource(0, p))
            se = math.sqrt(2.0 / data.n) * 11.0  # normal approximation for s^2
            assert abs(data.responses.var(ddof=1) - 11.0) < 3 * se, p

    def test_seed_determinism(self):
        a, (ax, ay) = simulate_instance(20, 4, RandomSource(7, 3))
        b, (bx, by) = simulate_instance(20, 4, RandomSource(7, 3))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.responses, b.responses)
        assert np.array_equal(ax, bx) and ay == by

    def test_response_variance_decomposition(self):
        # Var(Y) = ||beta||^2 + 1 = 11 regardless of the drawn direction
        data, _ = simulate_instance(100_000, 1, RandomSource(5))
        var = data.responses.var(ddof=1)
        se = math.sqrt(2.0 / data.n) * 11.0  # normal approximation for s^2
        assert abs(var - 11.0) < 3 * se

    def test_shapes(self):
        data, (tx, ty) = simulate_instance(12, 7, RandomSource(1))
        assert data.features.shape == (12, 7) and tx.shape == (7,)
        assert isinstance(ty, float)

    def test_preconditions(self):
        with pytest.raises(InvalidConfigurationError):
            simulate_instance(0, 3, RandomSource(1))


class TestRunSimulation:
    def test_report_structure(self):
        report = simulate()
        assert len(report.rows) == 5  # one row per method at the single p
        for row in report.rows:
            assert row.reps == 5
            assert 0.0 <= row.coverage <= 1.0
            assert row.n_infinite >= 0
        assert report.config["seed"] == 1234

    def test_rerun_is_identical(self):
        a = simulate()
        b = simulate()
        assert a.rows == b.rows

    def test_thread_count_does_not_change_results(self):
        a = simulate(reps=8, threads=1)
        b = simulate(reps=8, threads=4)
        assert a.rows == b.rows

    def test_paired_trials_order_widths(self):
        # within one trial every method shares data, folds, tau and U, so the
        # set containments show up as deterministic width orderings
        cfg = base_config(k=5)

        def width(outcome):
            # one test row: the mean finite width is NaN when the set is infinite
            _, mean_width, n_infinite = outcome
            return math.inf if n_infinite else mean_width

        for trial in range(25):
            widths = {m: width(o) for m, o in _simulation_trial(cfg, 60, 1234, 10, trial).items()}
            assert widths["eu-mod"] <= widths["e-mod"] <= widths["mod"]
            assert widths["u-mod"] <= widths["mod"]

    def test_vacuous_coverage_floor_at_half(self):
        # at alpha = 0.5 the 1 - 2*alpha guarantee is vacuous; the harness
        # still runs and reports a proper fraction
        cfg = base_config(alpha=0.5, k=2, methods=("mod",))
        row = report_row(simulate(cfg, n=40, p_list=(2,), reps=2000), "mod", 2)
        assert 0.0 <= row.coverage <= 1.0

    def test_csv_and_json_outputs(self, tmp_path):
        report = simulate(reps=2)
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        _write_report(report, str(csv_path))
        text = csv_path.read_text()
        header, columns = text.splitlines()[:2]
        assert header.startswith("# config: ") and '"seed": 1234' in header
        assert columns == (
            "method,p,reps,coverage,mean_width,sd_width,median_width,"
            "min_width,max_width,n_infinite"
        )
        payload = json.loads(json_path.read_text())
        assert payload["config"]["seed"] == 1234
        assert {r["method"] for r in payload["rows"]} == set(report.config["methods"])

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfigurationError):
            base_config(methods=("mod", "bogus"))

    def test_repeated_covariate_count_rejected(self):
        # a report row is found by (method, p), so each p gets one row
        with pytest.raises(InvalidConfigurationError, match="listed only once"):
            simulate(p_list=(3, 5, 3))

    def test_repeated_method_rejected(self):
        # a report row is found by (method, p), so each method gets one row
        with pytest.raises(InvalidConfigurationError, match="each method may be listed only once"):
            base_config(methods=("mod", "split", "mod"))

    def test_empty_covariate_list_rejected(self):
        # a campaign with nothing to run; checked after the earlier checks
        with pytest.raises(InvalidConfigurationError, match="at least one covariate count"):
            simulate(p_list=())
        with pytest.raises(InvalidConfigurationError, match="replication"):
            simulate(p_list=(), reps=0)


class TestFailedTrials:
    def failing_on(self, monkeypatch, stream_id):
        real = ex._simulation_trial

        def trial(cfg, n, seed, p, stream):
            if stream == stream_id:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(cfg, n, seed, p, stream)

        monkeypatch.setattr(ex, "_simulation_trial", trial)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_cause_is_kept_out_of_the_report_text(self, monkeypatch, threads):
        self.failing_on(monkeypatch, 2)
        report = simulate(reps=4, threads=threads)
        assert report.n_failed == 1
        assert report.failures == (ex.TrialFailure(2, "LinAlgError", "SVD did not converge"),)
        assert all(row.reps == 3 for row in report.rows)
        text = report.to_csv_text() + report.to_json_text()
        assert "SVD" not in text and "LinAlgError" not in text

    def test_cli_prints_one_line_per_cause(self, monkeypatch, tmp_path, capsys):
        from crossconf.cli import main

        self.failing_on(monkeypatch, 1)
        assert main(["simulate", "--n", "30", "--p", "3", "--k", "3", "--reps", "3",
                     "--methods", "mod", "--seed", "5", "--out", str(tmp_path / "r")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == ["skipped trial 1: LinAlgError: SVD did not converge"]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_counts_the_trials_that_finished(self, monkeypatch, threads):
        real = ex._real_data_trial

        def trial(cfg, data, train_size, test_size, seed, t):
            if t == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return real(cfg, data, train_size, test_size, seed, t)

        monkeypatch.setattr(ex, "_real_data_trial", trial)
        data, _ = simulate_instance(60, 4, RandomSource(0))
        report = run_real(data, trials=4, threads=threads)
        assert report.failures == (ex.TrialFailure(2, "LinAlgError", "SVD did not converge"),)
        assert len(report.rows) == 5 and all(row.reps == 3 for row in report.rows)


class TestBlasPin:
    @needs_openblas
    def test_workers_run_single_threaded_blas_and_count_is_restored(self, monkeypatch):
        get, put = _blas._openblas()
        before = get()
        put(2)
        try:
            seen = []
            real = ex._simulation_trial

            def trial(cfg, n, seed, p, stream):
                seen.append(get())
                return real(cfg, n, seed, p, stream)

            monkeypatch.setattr(ex, "_simulation_trial", trial)
            simulate(threads=2)
            assert seen and set(seen) == {1}
            assert get() == 2
            simulate(reps=1)
            assert seen[-1] == 1
            assert get() == 2
        finally:
            put(before)

    @pytest.fixture
    def count(self, monkeypatch):
        """A stand-in OpenBLAS thread count, 2 to begin with."""
        count = [2]

        def put(n):
            count[0] = n

        monkeypatch.setattr(_blas, "_openblas", lambda: (lambda: count[0], put))
        return count

    def test_overlapping_blocks_in_two_threads_share_one_count(self, count):
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = []

        def first():
            with _blas.single_threaded_blas():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def second():
            a_in.wait(10)
            with _blas.single_threaded_blas():
                b_in.set()
                a_out.wait(10)
                seen.append(count[0])  # the first block has ended; this one still runs

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20)
        assert not any(t.is_alive() for t in threads)
        assert a_out.is_set() and seen == [1]
        assert count[0] == 2

    def test_many_threads_entering_and_leaving_keep_one_inside(self, count):
        seen = set()

        def loop():
            for _ in range(2000):
                with _blas.single_threaded_blas():
                    time.sleep(0)  # let another thread enter or leave
                    seen.add(count[0])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=loop) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert seen == {1} and count[0] == 2

    @needs_openblas
    def test_count_is_restored_after_an_unguarded_error(self):
        get, put = _blas._openblas()
        before = get()
        put(2)
        try:
            def worker(job):
                raise KeyError(job)

            with pytest.raises(KeyError):
                ex._run_jobs(range(4), worker, 2)
            assert get() == 2
        finally:
            put(before)

    @needs_openblas
    def test_every_trial_in_every_worker_sees_one_blas_thread(self, monkeypatch, tmp_path):
        get, put = _blas._openblas()
        before = get()
        put(2)
        try:
            real = ex._simulation_trial

            def trial(cfg, n, seed, p, stream):
                (tmp_path / f"{stream}-{os.getpid()}").write_text(str(get()))
                return real(cfg, n, seed, p, stream)

            monkeypatch.setattr(ex, "_simulation_trial", trial)
            simulate(reps=7, threads=3)
            files = sorted(tmp_path.iterdir(), key=lambda f: int(f.name.split("-")[0]))
            assert [f.name.split("-")[0] for f in files] == [str(i) for i in range(7)]
            assert len({f.name.split("-")[1] for f in files}) == 3
            assert {f.read_text() for f in files} == {"1"}
            assert get() == 2
        finally:
            put(before)

    def test_results_do_not_depend_on_finding_blas(self, monkeypatch):
        jobs = [(4, stream) for stream in range(6)]
        cfg = base_config()

        def run():
            return ex._run_jobs(jobs, lambda job: _simulation_trial(cfg, 40, 1234, *job), 2)

        # compared by repr: outcomes may hold NaN, which == finds unequal to itself
        pinned = repr(run())
        monkeypatch.setattr(_blas, "_openblas", lambda: ())
        assert repr(run()) == pinned


def assert_no_child_remains():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """Trials run on this process (worker 0) and forked copies of it."""

    def failing_in(self, monkeypatch, stream_id, fail):
        real = ex._simulation_trial

        def trial(cfg, n, seed, p, stream):
            if stream == stream_id:
                fail()
            return real(cfg, n, seed, p, stream)

        monkeypatch.setattr(ex, "_simulation_trial", trial)

    def test_an_exception_in_a_worker_reaches_the_caller(self, monkeypatch):
        def fail():
            raise RuntimeError(f"trial 3 failed in process {os.getpid()}")

        self.failing_in(monkeypatch, 3, fail)
        with pytest.raises(RuntimeError, match="^trial 3 failed in process ") as info:
            simulate(reps=5, threads=2)
        assert not str(info.value).endswith(str(os.getpid()))
        assert info.value.__notes__ == ["raised in the worker process for trials 1, 3"]
        assert_no_child_remains()

    @pytest.mark.parametrize("die, how", [
        (lambda: os._exit(7), "exit status 7"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["exit", "kill"])
    def test_a_worker_that_dies_without_a_result(self, monkeypatch, die, how):
        self.failing_in(monkeypatch, 3, die)
        with pytest.raises(RuntimeError) as info:
            simulate(reps=5, threads=2)
        assert str(info.value) == (
            f"the worker process for trials 1, 3 ended without a readable result ({how})"
        )
        assert_no_child_remains()

    def test_a_result_that_cannot_be_pickled(self):
        with pytest.raises(Exception, match="pickle") as info:
            ex._run_jobs(range(15), lambda job: lambda: job, 3)
        assert info.value.__notes__ == ["raised in the worker process for trials 1, 4, 7, ..., 13"]
        assert_no_child_remains()

    @pytest.mark.parametrize("exc", [KeyError, KeyboardInterrupt])
    def test_an_exception_in_this_process_kills_the_workers(self, exc):
        parent = os.getpid()

        def worker(job):
            if os.getpid() == parent:
                raise exc(job)
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(exc):
            ex._run_jobs(range(4), worker, 2)
        assert time.perf_counter() - start < 30
        assert_no_child_remains()

    def test_without_fork_every_share_runs_here(self, monkeypatch):
        monkeypatch.setattr(ex, "_FORK", False)
        parent = os.getpid()
        outcomes, failures = ex._run_jobs(range(5), lambda job: (job, os.getpid()), 3)
        assert outcomes == [(job, parent) for job in range(5)] and failures == ()


class TestSharedFoldPredictions:
    """Each fit keeps the block of rows it predicted last: the set builders
    called in turn on one row predict the K fold models once."""

    @staticmethod
    def fitted():
        cfg = base_config(methods=("mod", "cross", "cv+"))
        src = RandomSource(3)
        data, (test_x, _) = simulate_instance(40, 4, src)
        cv, split_state = ex.fit_state(cfg, data, src)
        return cfg, cv, split_state, test_x, next(randomization_stream(src))

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = cs.fold_predictions

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cs, "fold_predictions", counted)
        return calls

    def test_fold_scan_and_cv_plus_predict_once_per_query(self, calls):
        cfg, cv, split_state, test_x, draws = self.fitted()
        expected = ex._point_sets(cfg, cv, split_state, test_x, draws)
        cs.fold_method_sets(cv, cv.folds, np.zeros(4), cfg.alpha, ["mod"])  # another row
        calls.clear()
        assert ex._point_sets(cfg, cv, split_state, test_x, draws) == expected
        assert len(calls) == 1
        # standalone builders on an equal row, not the same object, share it too
        cs.cv_plus_from_scores(cv, cv.folds, test_x.copy(), cfg.alpha)
        cs.cross_membership(cv, cv.folds, list(test_x), cfg.alpha, [0.0, 1.0])
        assert len(calls) == 1

    def test_a_buffer_changed_in_place_is_predicted_again(self, calls):
        cfg, cv, _, test_x, _ = self.fitted()
        folds = cv.folds
        row = test_x.copy()
        before = cs.cv_plus_from_scores(cv, folds, row, cfg.alpha)
        row[0] += 1.0
        after = cs.cv_plus_from_scores(cv, folds, row, cfg.alpha)
        assert len(calls) == 2 and after != before

    def test_a_thread_shares_the_fit_and_another_fit_builds_its_own(self, calls):
        cfg, cv, _, test_x, _ = self.fitted()
        folds = cv.folds
        here = cs.cv_plus_from_scores(cv, folds, test_x, cfg.alpha)
        there = []
        worker = threading.Thread(
            target=lambda: there.append(cs.cv_plus_from_scores(cv, folds, test_x, cfg.alpha))
        )
        worker.start()
        worker.join()
        assert there == [here] and len(calls) == 1
        refit = CvScores(cv.scores, cv.fold_models, folds)
        assert cs.cv_plus_from_scores(refit, folds, test_x, cfg.alpha) == here
        assert len(calls) == 2
        cs.cv_plus_from_scores(cv, folds, test_x, cfg.alpha)  # the first fit still holds it
        assert len(calls) == 2

    def test_threads_that_share_a_fit_get_the_sets_of_their_rows(self):
        # each thread replaces the fit's block with its own rows while the
        # others read theirs; a builder that read the slot twice could see two
        # different blocks
        cfg = base_config(methods=("mod", "cross", "cv+", "split"))
        src = RandomSource(3)
        data, _ = simulate_instance(40, 4, src)
        cv, split_state = ex.fit_state(cfg, data, src)
        blocks = np.random.default_rng(6).standard_normal((4, 8, 4))
        expected = [[ex._point_sets(cfg, cv, split_state, x, None) for x in rows]
                    for rows in blocks]
        wrong, errors = [], []

        def work(t):
            try:
                for r in range(800):
                    cs.predict_block(cv, split_state, blocks[t])
                    x, sets = blocks[t][r % 8], expected[t][r % 8]
                    if ex._point_sets(cfg, cv, split_state, x, None) != sets:
                        wrong.append(t)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and wrong == []

    def test_the_memo_keeps_no_fit_alive(self):
        cfg, cv, split_state, test_x, draws = self.fitted()
        ex._point_sets(cfg, cv, split_state, test_x, draws)
        refs = [weakref.ref(cv), weakref.ref(cv.folds)]
        del cv, split_state
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


class TestQuerySets:
    def test_row_j_uses_the_jth_draw_pair(self):
        cfg = base_config(methods=cs.ALL_METHODS)
        src = RandomSource(8)
        data, _ = simulate_instance(40, 4, src)
        queries, _ = simulate_instance(6, 4, RandomSource(9))
        cv, split_state = ex.fit_state(cfg, data, src)
        gen_tau, gen_u = src.generator("tau"), src.generator("u")
        expected = []
        for x in queries.features:
            draws = RandomDraws(_open_unit(gen_tau), _open_unit(gen_u))
            expected.append(ex._point_sets(cfg, cv, split_state, x, draws))
        got = list(ex.query_sets(cfg, cv, split_state, queries.features, src))
        assert got == expected


class TestBlockQueries:
    """query_sets predicts each block of rows with one call per model, and a
    row's sets are bitwise those of the per-row builders on that row alone."""

    @pytest.fixture
    def predict_calls(self, monkeypatch):
        calls = []
        for model_type in (LinearModel, KnnModel):
            real = model_type.predict

            def counted(model, x, real=real):
                calls.append(np.atleast_2d(x).shape[0])
                return real(model, x)

            monkeypatch.setattr(model_type, "predict", counted)
        return calls

    @pytest.mark.parametrize("text", ["ols", "knn:3"])
    def test_query_sets_match_the_per_row_builders(self, text, predict_calls):
        cfg = base_config(methods=cs.ALL_METHODS, regressor=parse_regressor(text))
        src = RandomSource(8)
        data, _ = simulate_instance(60, 4, src)
        queries, _ = simulate_instance(ex._QUERY_BLOCK + 6, 4, RandomSource(9))
        cv, split_state = ex.fit_state(cfg, data, src)
        predict_calls.clear()
        alone = [
            ex._point_sets(cfg, cv, split_state, x, draws)
            for x, draws in zip(queries.features, randomization_stream(src))
        ]
        assert set(predict_calls) == {1}  # each row above was predicted alone
        predict_calls.clear()
        got = list(ex.query_sets(cfg, cv, split_state, queries.features, src))
        assert repr(got) == repr(alone)
        # two blocks, each one call per fold model and one for the split model
        assert predict_calls == [ex._QUERY_BLOCK] * (cfg.k + 1) + [6] * (cfg.k + 1)

    @pytest.mark.parametrize("text", ["ols", "knn:3"])
    def test_sets_of_a_predicted_block_match_the_row_alone(self, text, predict_calls):
        _, folds, _, cv, draws, _, _ = make_pipeline(4, n=60, p=4, k=4,
                                                     regressor=parse_regressor(text))
        rows = np.random.default_rng(5).standard_normal((20, 4))

        def sets(x):
            return cs.fold_method_sets(cv, folds, x, 0.2, cs.FOLD_METHODS, draws=draws)

        alone = [sets(x) for x in rows]
        predict_calls.clear()
        cs.predict_block(cv, None, rows)
        assert repr([sets(x) for x in rows]) == repr(alone)
        assert predict_calls == [20] * folds.n_folds

    def test_a_block_must_be_a_matrix(self):
        _, _, _, cv, _, test_x, _ = make_pipeline(4, n=30, p=4, k=3)
        with pytest.raises(InvalidConfigurationError, match=r"shape \(4,\)"):
            cs.predict_block(cv, None, test_x)


class TestFitState:
    def test_split_only_run_fits_no_fold_models(self, monkeypatch):
        calls = []
        real = ex.compute_cv_scores

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(ex, "compute_cv_scores", counted)
        report = simulate(base_config(methods=("split",)), reps=10)
        assert calls == [] and report_row(report, "split", 4).reps == 10

    def test_split_rows_do_not_depend_on_the_fold_models(self):
        alone = simulate(base_config(methods=("split",)))
        shared = simulate(base_config(methods=("mod", "split")))
        assert alone.rows == tuple(r for r in shared.rows if r.method == "split")

    def test_states_follow_the_requested_methods(self):
        src = RandomSource(3)
        data, _ = simulate_instance(40, 4, src)
        cv, split_state = ex.fit_state(base_config(methods=("split",)), data, src)
        assert cv is None and split_state is not None
        cv, split_state = ex.fit_state(base_config(methods=("cv+",)), data, src)
        assert cv.folds.n_folds == 4 and split_state is None
        cv, split_state = ex.fit_state(base_config(methods=("mod", "split")), data, src)
        assert cv.folds.n_folds == 4 and split_state is not None
        # a split-only fit still draws the folds, so K is checked against n
        with pytest.raises(InvalidConfigurationError, match="fold count 41 exceeds"):
            ex.fit_state(base_config(methods=("split",), k=41), data, src)

class TestRunRealData:
    def synthetic(self, n, p, seed=0):
        data, _ = simulate_instance(n, p, RandomSource(seed))
        return data

    def test_degenerate_single_trial_single_point(self):
        data = self.synthetic(50, 3)
        cfg = base_config(methods=("mod",), k=3)
        report = run_real(data, cfg, train_size=30, test_size=1, trials=1, seed=5)
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row.reps == 1 and row.coverage in (0.0, 1.0) and row.p == 3

    def test_split_at_doubled_alpha_covers_eighty_percent(self):
        # synthetic stand-in for the published real-data row: split conformal
        # trained at 2 * 0.1 should cover about 0.80
        data = self.synthetic(20_000, 10, seed=42)
        cfg = base_config(alpha=0.2, k=5, methods=("split",))
        report = run_real(data, cfg, train_size=15_000, test_size=5000, trials=1, seed=99)
        assert report.rows[0].coverage == pytest.approx(0.80, abs=0.02)

    def test_mod_and_cross_agree_for_large_training_sets(self):
        data = self.synthetic(2600, 5, seed=3)
        cfg = base_config(alpha=0.1, k=5, methods=("mod", "cross"))
        report = run_real(data, cfg, train_size=2000, test_size=500, trials=1, seed=11)
        mod = report_row(report, "mod", 5)
        cross = report_row(report, "cross", 5)
        assert abs(mod.coverage - cross.coverage) <= 0.01

    def test_size_preconditions(self):
        data = self.synthetic(30, 3)
        cfg = base_config(methods=("mod",))
        with pytest.raises(InvalidConfigurationError):
            run_real(data, cfg, train_size=25, test_size=10, trials=1)

    def test_train_size_trials_and_p_come_from_the_config(self):
        # the report config and the rows must describe the same run
        data = self.synthetic(60, 3)
        cfg = base_config(k=3, methods=("mod",))
        report = run_real(data, cfg, train_size=30, test_size=5, trials=2)
        c = report.config
        assert (c["train_size"], c["test_size"], c["trials"]) == (30, 5, 2)
        assert (c["n"], c["reps"], c["p_list"]) == (30, 2, [3])
        assert [(row.p, row.reps) for row in report.rows] == [(3, 2)]


class TestHelpers:
    def test_mc_standard_error(self):
        assert mc_standard_error(0.8, 5000) == pytest.approx(math.sqrt(0.8 * 0.2 / 5000))
        assert mc_standard_error(0.0, 10) == 0.0
