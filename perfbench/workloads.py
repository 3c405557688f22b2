"""The four workloads, their output checks and their metrics.

Every workload is a closed loop with one client: the next request is sent
when the previous one has returned. Requests are timed from outside, around
calls into crossconf's public functions. Checks run outside the timed calls.

* ``sim-paper``: repeated ``crossconf simulate`` commands on the paper's
  Monte-Carlo setup (n=100, p in {5,50,100,150}, K=5, OLS, all 10 methods,
  default ``--threads``). Many tiny trials put the work in model fits and
  trial dispatch; the endpoint scan stays small (at most 401 pieces).
* ``predict-wide``: the ``crossconf predict`` sequence through the library,
  n=5000, p=20, K=10. Each query scans 20001 pieces, so the scan and the
  interval extraction dominate and fits are cheap.
* ``predict-jackknife``: the same loop with n=500 and K=n, cross-conformal
  prediction in its jackknife form. The (4n+1) x K count matrices dominate a
  query, memory grows as O(n K) and setup pays n fits.
* ``run-knn``: repeated ``crossconf run`` commands with the kNN regressor on
  a 3000 x 8 CSV with a nonlinear response. The only workload where kNN
  prediction, ``load_csv`` and the real-data per-query loop do the work.

``BENCHMARK.json`` lists sim-paper and run-knn only. Both keep every worker
of the default ``--threads`` busy, and their figures held within about 12%
(quartile spread over ten runs) on a 2-vCPU virtual machine whose host load
varied. The two predict workloads run one single-threaded client; on the same
machine the spread of their median query time reached 36%, above the largest
bound a gated metric may have, so they are run by hand (``--workload
predict-wide`` or ``all``) for before-and-after comparisons.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from crossconf import cli, regression
from crossconf import conformal_sets as cs
from crossconf import data_model as dm
from crossconf import experiments as ex
from crossconf import scores as sc

from . import checks, inputs
from .tracing import Tracer, self_times

ALL_METHODS = ("mod", "e-mod", "u-mod", "eu-mod", "cross", "e-cross", "u-cross",
               "eu-cross", "split", "cv+")
FOLD_METHODS = ALL_METHODS[:8]
METHODS_ARG = ",".join(ALL_METHODS)
ALPHA = 0.1
# Set-up runs SETUP_REPEATS times before the loop and again between requests
# while set-up has taken less than SETUP_SHARE of the loop's time, so that
# its median spans the whole run and not one moment of a noisy machine.
SETUP_REPEATS, SETUP_SHARE = 5, 0.05
# A loop stops after its seconds once it has this many requests; the cap keeps
# a run inside its time limit on a slow machine.
LOOP_CAP_S = 60.0
MiB = 1024.0 * 1024.0

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "data_model.assign_folds_s": "s",
    "regression.fit_s": "s",
    "regression.fit_calls": "count",
    "regression.predict_s": "s",
    "regression.predict_calls": "count",
    "regression.predict_rows": "count",
    "scores.cv_scores_s": "s",
    "scores.fold_predictions_s": "s",
    "scores.fold_predictions_calls": "count",
    "conformal_sets.fold_method_sets_s": "s",
    "conformal_sets.fold_method_sets_self_s": "s",
    "conformal_sets.breakpoints_per_query": "count",
    "conformal_sets.components_per_set": "count",
    "conformal_sets.query_peak_mib": "MiB",
    "conformal_sets.cv_plus_s": "s",
    "conformal_sets.split_s": "s",
    "experiments.self_s": "s",
    "experiments.busy_frac": "ratio",
    "experiments.write_report_s": "s",
    "experiments.report_bytes": "B",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}

# Layer metrics that only one of the gated workloads exercises. They are
# printed but left out of the result, so that every metric in the result is
# measured on every gated workload.
PARTIAL_LAYER_UNITS = {
    "data_model.load_csv_s": "s",
    "experiments.simulate_instance_s": "s",
}


@dataclass
class Phase:
    """Requests of one part of a run, timed from outside."""

    latencies_s: list = field(default_factory=list)
    items: int = 0

    def record(self, seconds: float, items: int) -> None:
        self.latencies_s.append(seconds)
        self.items += items

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_s)


@dataclass
class Run:
    """State of one benchmark run: inputs, checks, counts and human lines."""

    seed: int
    seconds: float
    work: Path
    digest: checks.Digest
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    next_request: int = 0

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def drive(wl, run: Run, phase: Phase, seconds: float, min_requests: int,
          sample_setup: bool = True) -> None:
    """Closed loop: send requests until ``seconds`` are up and at least
    ``min_requests`` were sent, with set-up samples in between."""
    start = time.perf_counter()
    sent = 0
    setup_spent = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and sent >= min_requests) or elapsed >= LOOP_CAP_S:
            break
        wl.request(run, phase, run.next_request)
        run.next_request += 1
        sent += 1
        if sample_setup and setup_spent < SETUP_SHARE * (time.perf_counter() - start):
            run.setup_s.append(wl.setup_once(run))
            setup_spent += run.setup_s[-1]


def quiet_cli(argv) -> tuple[int, str]:
    """Run ``cli.main`` with its stdout and stderr kept out of the report."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, sink.getvalue()


def median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Commands: sim-paper and run-knn
# ---------------------------------------------------------------------------

class SimPaper:
    name = "sim-paper"
    item_plural = "trials"
    throughput_alias = "sim_trials_per_s"
    latency_alias = "simulate_command_ms"
    N, K, P_LIST = 100, 5, (5, 50, 100, 150)
    # Trials per p in one command: 20 trials per command keeps the per-command
    # overhead small while giving dozens of latency samples per run.
    REPS = 5
    DIGEST_COMMANDS = 20

    def __init__(self):
        self.covered = Counter()
        self.total = Counter()
        self.min_requests = self.digest_limit = self.DIGEST_COMMANDS

    def prepare(self, run: Run) -> None:
        pass

    def setup_once(self, run: Run) -> float:
        """A fresh interpreter importing the CLI: the set-up every
        ``crossconf simulate`` pays before its first trial."""
        env = dict(os.environ)
        src = str(Path(cli.__file__).parent.parent)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import crossconf.cli"], env=env,
                              cwd=run.work, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        run.check(proc.returncode == 0, f"importing crossconf.cli failed: {proc.stderr[-300:]}")
        return elapsed

    def warm(self, run: Run) -> None:
        self._command(run.work / "warm.csv", 1, 0)

    def _command(self, out: Path, reps: int, seed: int) -> tuple[int, str, float]:
        argv = ["simulate", "--n", str(self.N), "--p", ",".join(map(str, self.P_LIST)),
                "--k", str(self.K), "--alpha", str(ALPHA), "--regressor", "ols",
                "--methods", METHODS_ARG, "--reps", str(reps), "--seed", str(seed),
                "--out", str(out)]
        start = time.perf_counter()
        rc, text = quiet_cli(argv)
        return rc, text, time.perf_counter() - start

    def request(self, run: Run, phase: Phase, index: int) -> None:
        out = run.work / f"sim-{index}.csv"
        trials = self.REPS * len(self.P_LIST)
        seed = inputs.derived_seed(run.seed, self.name, index)
        rc, text, elapsed = self._command(out, self.REPS, seed)
        phase.record(elapsed, trials)
        run.attempted += trials
        if not run.check(rc == 0, f"simulate command {index} exited {rc}: {text[-300:]}"):
            run.fail(f"simulate command {index}: all trials lost", trials)
            return
        csv_text = out.read_text()
        report = json.loads(out.with_suffix(".json").read_text())
        out.unlink()
        out.with_suffix(".json").unlink()
        rows = checks.report_rows(csv_text)
        run.digest.add("\n".join(rows))
        if report["n_failed"]:
            run.fail(f"simulate command {index}: {report['n_failed']} failed trials",
                     report["n_failed"])
        cells = {(r["method"], r["p"]): r for r in report["rows"]}
        expected = {(m, p) for m in ALL_METHODS for p in self.P_LIST}
        run.check(set(cells) == expected, f"simulate command {index}: rows {sorted(cells)}")
        for (method, _), row in cells.items():
            self.covered[method] += round(row["coverage"] * row["reps"])
            self.total[method] += row["reps"]

    def finish(self, run: Run, tracer) -> None:
        floors = checks.coverage_floors(ALPHA, self.K, self.N)
        shortfalls = checks.coverage_shortfalls(self.covered, self.total, floors)
        for method in floors:
            bad = [s for s in shortfalls if s.startswith(method + ":")]
            run.check(not bad, "; ".join(bad))
        run.lines.append(
            "coverage (pooled over p): "
            + " ".join(f"{m}={self.covered[m] / max(self.total[m], 1):.3f}" for m in floors)
            + f" over {self.total['mod']} trials per method"
        )


class RunKnn:
    name = "run-knn"
    item_plural = "test points"
    throughput_alias = "run_queries_per_s"
    latency_alias = "run_command_ms"
    ROWS, FEATURES = 3000, 8
    TRAIN, TEST, K = 1000, 50, 5
    # Two trials per command keep both workers of a two-core machine busy.
    TRIALS = 2
    DIGEST_COMMANDS = 2

    def __init__(self):
        self.min_requests = self.digest_limit = self.DIGEST_COMMANDS

    def prepare(self, run: Run) -> None:
        self.data_csv = inputs.nonlinear(run.seed, self.ROWS, self.FEATURES, run.work)

    def setup_once(self, run: Run) -> float:
        """``load_csv`` of the dataset: the work ``crossconf run`` does before
        its first trial."""
        start = time.perf_counter()
        data, _ = dm.load_csv(self.data_csv, "y")
        elapsed = time.perf_counter() - start
        run.check(data.n == self.ROWS and data.p == self.FEATURES, f"load_csv gave {data.n} x {data.p}")
        return elapsed

    def warm(self, run: Run) -> None:
        pass

    def request(self, run: Run, phase: Phase, index: int) -> None:
        out = run.work / f"run-{index}.csv"
        argv = ["run", "--data", str(self.data_csv), "--target", "y", "--regressor", "knn:10",
                "--train-size", str(self.TRAIN), "--test-size", str(self.TEST),
                "--k", str(self.K), "--alpha", str(ALPHA), "--methods", METHODS_ARG,
                "--trials", str(self.TRIALS),
                "--seed", str(inputs.derived_seed(run.seed, self.name, index)), "--out", str(out)]
        points = self.TRIALS * self.TEST
        start = time.perf_counter()
        rc, text = quiet_cli(argv)
        phase.record(time.perf_counter() - start, points)
        run.attempted += points
        if not run.check(rc == 0, f"run command {index} exited {rc}: {text[-300:]}"):
            run.fail(f"run command {index}: all test points lost", points)
            return
        csv_text = out.read_text()
        report = json.loads(out.with_suffix(".json").read_text())
        out.unlink()
        out.with_suffix(".json").unlink()
        run.digest.add("\n".join(checks.report_rows(csv_text)))
        if report["n_failed"]:
            run.fail(f"run command {index}: {report['n_failed']} failed trials",
                     report["n_failed"] * self.TEST)
        rows = report["rows"]
        ok = [r["method"] for r in rows] == list(ALL_METHODS) and all(
            r["reps"] == self.TRIALS - report["n_failed"] and 0.0 <= r["coverage"] <= 1.0
            for r in rows
        )
        run.check(ok, f"run command {index}: malformed report rows")

    def finish(self, run: Run, tracer) -> None:
        pass


# ---------------------------------------------------------------------------
# Library loop: predict-wide and predict-jackknife
# ---------------------------------------------------------------------------

def open_unit(gen: np.random.Generator) -> float:
    """A uniform draw strictly inside (0, 1), as ``crossconf predict`` makes it."""
    x = gen.random()
    while x == 0.0:
        x = gen.random()
    return float(x)


class Predict:
    item_plural = "queries"
    throughput_alias = "predict_queries_per_s"
    latency_alias = "query_ms"
    # At least 200 queries, so that ten lie beyond the 95th percentile.
    MIN_QUERIES = 200
    QUERY_POOL = 2000
    DIGEST_QUERIES = 100
    CLI_ROWS = 10
    PROBES = 3

    def __init__(self, name: str, n: int, p: int, k: int):
        self.name, self.n, self.p, self.k = name, n, p, k
        self.min_requests = self.MIN_QUERIES
        self.digest_limit = self.DIGEST_QUERIES
        self.first_sets: list[dict] = []
        self.tracer: Tracer | None = None

    def prepare(self, run: Run) -> None:
        self.train_csv, self.query_csv = inputs.gaussian_linear(
            run.seed, self.n, self.p, self.QUERY_POOL, run.work)
        self.program_seed = inputs.derived_seed(run.seed, self.name)
        self.probe_gen = inputs.rng_for(run.seed, "probes")

    def setup_once(self, run: Run) -> float:
        """What ``crossconf predict`` does before its first query."""
        start = time.perf_counter()
        data, names = dm.load_csv(self.train_csv, "y")
        src = dm.RandomSource(self.program_seed)
        folds = dm.assign_folds(data.n, self.k, "equal", src)
        spec = sc.ScoreFunctionSpec("residual", regression.RegressorSpec("ols"))
        cv = sc.compute_cv_scores(data, folds, spec)
        split_state = cs.split_conformal(data, ALPHA, spec, src)
        elapsed = time.perf_counter() - start
        self.names, self.folds, self.cv, self.split_state = names, folds, cv, split_state
        if not hasattr(self, "gen_tau"):
            self.queries = dm.load_query_csv(self.query_csv, names)
            self.gen_tau = src.generator("tau")
            self.gen_u = src.generator("u")
        return elapsed

    def _sets(self, x, draws) -> dict:
        sets = cs.fold_method_sets(self.cv, self.folds, x, ALPHA, FOLD_METHODS, draws=draws)
        sets["cv+"] = cs.cv_plus_from_scores(self.cv, self.folds, x, ALPHA)
        sets["split"] = cs.split_set_from_state(self.split_state, x)
        return sets

    def warm(self, run: Run) -> None:
        for j in range(3):
            self._sets(self.queries[j], dm.RandomDraws(0.5, 0.5))

    def request(self, run: Run, phase: Phase, index: int) -> None:
        x = self.queries[index % len(self.queries)]
        draws = dm.RandomDraws(open_unit(self.gen_tau), open_unit(self.gen_u))
        if self.tracer is not None:
            self.tracer.set_item(index)
        run.attempted += 1
        start = time.perf_counter()
        try:
            sets = self._sets(x, draws)
        except Exception as exc:  # a query that raises is a failed operation
            run.fail(f"query {index} raised {type(exc).__name__}: {exc}")
            return
        phase.record(time.perf_counter() - start, 1)
        intervals = {m: s.intervals for m, s in sets.items()}
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            self._check(run, index, x, intervals)
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    def _check(self, run: Run, index: int, x, intervals: dict) -> None:
        bad = checks.chain_violations(intervals)
        run.check(not bad, f"query {index}: {', '.join(bad)}")
        cross = intervals["cross"]
        ends = [v for iv in intervals["cv+"] + cross for v in iv if np.isfinite(v)]
        lo, hi = (min(ends), max(ends)) if ends else (-10.0, 10.0)
        pad = max(hi - lo, 1.0)
        ys = list(self.probe_gen.uniform(lo - pad, hi + pad, self.PROBES))
        ys += [0.5 * (a + b) for a, b in cross if np.isfinite(a) and np.isfinite(b) and b > a]
        member = cs.cross_membership(self.cv, self.folds, x, ALPHA, ys)
        expected = [checks.contains(cross, y) for y in ys]
        run.check(list(member) == expected, f"query {index}: cross set disagrees with "
                                            f"cross_membership at {ys}")
        text = " ".join(f"{m}:{checks.interval_text(intervals[m])}" for m in ALL_METHODS)
        run.digest.add(text)
        if len(self.first_sets) < self.CLI_ROWS and index == len(self.first_sets):
            self.first_sets.append(intervals)

    def finish(self, run: Run, tracer: Tracer | None) -> None:
        """The ``predict`` command on the first queries gives the same sets."""
        rows = len(self.first_sets)
        query = run.work / "cli-query.csv"
        out = run.work / "cli-out.json"
        inputs.write_csv(query, self.names, self.queries[:rows])
        argv = ["predict", "--data", str(self.train_csv), "--target", "y", "--query", str(query),
                "--alpha", str(ALPHA), "--k", str(self.k), "--methods", METHODS_ARG,
                "--seed", str(self.program_seed), "--out", str(out)]
        if tracer is not None:
            tracer.phase = "cli"
        rc, text = quiet_cli(argv)
        if not run.check(rc == 0, f"predict command exited {rc}: {text[-300:]}"):
            return
        predictions = json.loads(out.read_text())["predictions"]
        for j, expected in enumerate(self.first_sets):
            got = {m: tuple((float(a), float(b)) for a, b in s["intervals"])
                   for m, s in predictions[j]["sets"].items()}
            run.check(got == expected, f"predict command row {j} differs from the library loop")


WORKLOADS = {
    "sim-paper": SimPaper,
    "predict-wide": lambda: Predict("predict-wide", 5000, 20, 10),
    "predict-jackknife": lambda: Predict("predict-jackknife", 500, 20, 500),
    "run-knn": RunKnn,
}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

def _stream_item(position: int):
    """Hook tagging the thread's spans with the stream id of the call's
    RandomSource argument, which is the trial index."""

    def hook(state, args, kwargs):
        rng = args[position] if len(args) > position else kwargs.get("rng")
        if rng is not None:
            state.item = rng.stream_id

    return hook


def install(tracer: Tracer, captured: list) -> None:
    """Rebind each public function at the places the program looks it up."""

    def rows(state, args, kwargs):
        tracer.count(f"{tracer.phase}:predict_rows", np.atleast_2d(args[1]).shape[0])

    def report_bytes(state, args, kwargs):
        tracer.count("report_bytes", len(args[1].encode()))

    def sets_result(args, kwargs, result):
        tracer.count("sets", len(result))
        tracer.count("components", sum(s.n_components for s in result.values()))
        if len(captured) < 20:
            captured.append((args, kwargs))

    plan = [
        ((cli,), "main", "cli.main", None, None),
        ((cli, dm), "load_csv", "data_model.load_csv", None, None),
        ((cli, ex, dm), "assign_folds", "data_model.assign_folds", _stream_item(3), None),
        ((sc, cs), "fit", "regression.fit", None, None),
        ((regression.LinearModel, regression.KnnModel), "predict", "regression.predict", rows, None),
        ((cli, ex, sc), "compute_cv_scores", "scores.cv_scores", None, None),
        ((cs,), "fold_predictions", "scores.fold_predictions", None, None),
        ((ex, cs), "fold_method_sets", "conformal_sets.fold_method_sets", None, sets_result),
        ((ex, cs), "cv_plus_from_scores", "conformal_sets.cv_plus", None, None),
        ((ex, cs), "split_set_from_state", "conformal_sets.split", None, None),
        ((cli, ex, cs), "split_conformal", "conformal_sets.split_conformal", None, None),
        ((ex,), "simulate_instance", "experiments.simulate_instance", _stream_item(2), None),
        ((cli,), "run_simulation", "experiments.run_simulation", None, None),
        ((cli,), "run_real_data", "experiments.run_real_data", None, None),
        ((cli, ex), "atomic_write_text", "experiments.write_report", report_bytes, None),
    ]
    for owners, attr, name, on_call, on_result in plan:
        for owner in owners:
            tracer.patch(owner, attr, name, on_call, on_result)


def layer_metrics(tracer: Tracer, items: int, overhead: float, captured: list) -> dict:
    """Per-layer metrics from the spans, None where the workload does not
    reach the layer. ``_s`` values are mean seconds per call (``self_s``:
    minus the time child spans cover), ``_calls`` and ``_rows`` are per work
    item of the traced loop, except ``fit_calls``, which is per model build
    (one ``compute_cv_scores`` with its ``split_conformal``). ``busy_frac``
    is the time of the spans the harness dispatches over its wall time times
    the default thread count."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def mean_s(name):
        group = by_name[name]
        return sum(s.duration for s in group) / len(group) if group else None

    def mean_self(*names):
        group = [s for n in names for s in by_name[n]]
        return sum(selfs[s.id] for s in group) / len(group) if group else None

    def per_item(name):
        return sum(1 for s in by_name[name] if s.phase == "items") / items

    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        breakpoints = [cs.candidate_endpoints(*args[:3]).size for args, _ in captured]
        tracemalloc.start()
        peaks = []
        for args, kwargs in captured[:3]:
            tracemalloc.reset_peak()
            cs.fold_method_sets(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()

    builds = len(by_name["scores.cv_scores"])
    harness = by_name["experiments.run_simulation"] + by_name["experiments.run_real_data"]
    harness_ids = {s.id for s in harness}
    dispatched = sum(s.duration for s in spans if s.parent in harness_ids)
    threads = os.cpu_count() or 1
    return {
        "data_model.assign_folds_s": mean_s("data_model.assign_folds"),
        "regression.fit_s": mean_s("regression.fit"),
        "regression.fit_calls": len(by_name["regression.fit"]) / max(builds, 1),
        "regression.predict_s": mean_s("regression.predict"),
        "regression.predict_calls": per_item("regression.predict"),
        "regression.predict_rows": tracer.counts["items:predict_rows"] / items,
        "scores.cv_scores_s": mean_s("scores.cv_scores"),
        "scores.fold_predictions_s": mean_s("scores.fold_predictions"),
        "scores.fold_predictions_calls": per_item("scores.fold_predictions"),
        "conformal_sets.fold_method_sets_s": mean_s("conformal_sets.fold_method_sets"),
        "conformal_sets.fold_method_sets_self_s": mean_self("conformal_sets.fold_method_sets"),
        "conformal_sets.breakpoints_per_query": sum(breakpoints) / len(breakpoints) if breakpoints else None,
        "conformal_sets.components_per_set": tracer.counts["components"] / tracer.counts["sets"]
        if tracer.counts["sets"] else None,
        "conformal_sets.query_peak_mib": median(peaks) / MiB if peaks else None,
        "conformal_sets.cv_plus_s": mean_s("conformal_sets.cv_plus"),
        "conformal_sets.split_s": mean_s("conformal_sets.split"),
        "experiments.self_s": mean_self("experiments.run_simulation", "experiments.run_real_data"),
        "experiments.busy_frac": dispatched / sum(s.duration * threads for s in harness)
        if harness else None,
        "experiments.write_report_s": mean_s("experiments.write_report"),
        "experiments.report_bytes": tracer.counts["report_bytes"] / len(by_name["experiments.write_report"])
        if by_name["experiments.write_report"] else None,
        "cli.self_s": mean_self("cli.main"),
        "trace.overhead_frac": overhead,
        "data_model.load_csv_s": mean_s("data_model.load_csv"),
        "experiments.simulate_instance_s": mean_s("experiments.simulate_instance"),
    }


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 spans_path: Path | None) -> tuple[Run, dict]:
    """Run one workload; return the run record and its metrics
    (name -> (value, unit))."""
    wl = WORKLOADS[name]()
    run = Run(seed=seed, seconds=seconds, work=work, digest=checks.Digest(wl.digest_limit))
    wl.prepare(run)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run.setup_s = [wl.setup_once(run) for _ in range(SETUP_REPEATS)]
        wl.warm(run)
        caught.clear()
        metrics = (traced if trace else untraced)(wl, run, spans_path)
        warning_counts = Counter(type(w.message).__name__ for w in caught)
    run.lines.append(
        "warnings: " + (", ".join(f"{k}={v}" for k, v in sorted(warning_counts.items())) or "none")
    )
    run.lines.append(
        f"output sha256 (first {run.digest.count} {'queries' if isinstance(wl, Predict) else 'commands'}): "
        f"{run.digest.hexdigest()}"
    )
    return run, metrics


def untraced(wl, run: Run, spans_path) -> dict:
    phase = Phase()
    drive(wl, run, phase, run.seconds, wl.min_requests)
    wl.finish(run, None)
    lat_ms = [1000.0 * s for s in phase.latencies_s]
    values = {
        "throughput_per_s": phase.items / phase.busy_s,
        "latency_ms_p50": percentile(lat_ms, 50),
        "latency_ms_p95": percentile(lat_ms, 95),
        "setup_s": median(run.setup_s),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n = len(lat_ms)
    run.lines += [
        f"{wl.throughput_alias} = {values['throughput_per_s']:.4f} 1/s "
        f"({phase.items} {wl.item_plural} in {phase.busy_s:.3f} s of timed requests)",
        f"{wl.latency_alias}_p50 = {values['latency_ms_p50']:.4f} ms, "
        f"{wl.latency_alias}_p95 = {values['latency_ms_p95']:.4f} ms "
        f"({n} requests, {sum(1 for v in lat_ms if v > values['latency_ms_p95'])} beyond p95)",
        f"setup_s = {values['setup_s']:.6f} s (median of {len(run.setup_s)})",
        f"peak_rss_mib = {values['peak_rss_mib']:.2f} MiB",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def traced(wl, run: Run, spans_path) -> dict:
    """Half the seconds untraced, then half traced; the ratio of the two
    per-item wall times gives the tracing overhead."""
    plain, spanned = Phase(), Phase()
    drive(wl, run, plain, run.seconds / 2, wl.digest_limit)
    tracer = Tracer()
    captured: list = []
    install(tracer, captured)
    wl.tracer = tracer
    try:
        if isinstance(wl, Predict):
            tracer.phase = "setup"
            wl.setup_once(run)
            tracer.phase = "items"
        drive(wl, run, spanned, run.seconds / 2, 1, sample_setup=False)
        wl.finish(run, tracer)
    finally:
        tracer.restore()
        wl.tracer = None
    if spans_path is not None:
        tracer.write_jsonl(spans_path)
    overhead = (spanned.busy_s / spanned.items) / (plain.busy_s / plain.items) - 1.0
    metrics = layer_metrics(tracer, spanned.items, overhead, captured)
    run.lines.append(f"traced {spanned.items} {wl.item_plural} after {plain.items} untraced; "
                     f"{len(tracer.spans)} spans")
    units = {**PER_LAYER_UNITS, **PARTIAL_LAYER_UNITS}
    for key, value in metrics.items():
        if value is None or key in PARTIAL_LAYER_UNITS:
            shown = "n/a (not reached by this workload)" if value is None else f"{value!r}"
            run.lines.append(f"{key} = {shown} {units[key]}")
    return {k: (metrics[k], u) for k, u in PER_LAYER_UNITS.items() if metrics[k] is not None}
