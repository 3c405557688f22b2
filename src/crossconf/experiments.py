"""Monte-Carlo simulation harness, real-data trial runner, and aggregation.

A trial draws fresh data, folds, tau and U, then evaluates every requested
method on the same shared state, so width and containment comparisons between
methods are paired. A simulated trial is a real-data trial with one test row:
both fit on their training part and reduce each method's sets over the test
rows to (coverage, mean finite width, infinite count). Trials run on
independent random streams and may execute concurrently; aggregation is a
deterministic reduction in trial order, so results do not depend on the worker
count.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._blas import single_threaded_blas
from .conformal_sets import (
    ALL_METHODS,
    FOLD_METHODS,
    PredictionSet,
    cv_plus_from_scores,
    fold_method_sets,
    predict_block,
    split_conformal,
    split_set_from_state,
)
from .data_model import (
    Dataset,
    RandomDraws,
    RandomSource,
    assign_folds,
    json_number,
    randomization_stream,
)
from .errors import InvalidConfigurationError, NumericalError
from .regression import RegressorSpec
from .scores import ScoreFunctionSpec, compute_cv_scores

__all__ = [
    "REPORT_COLUMNS",
    "MethodConfig",
    "TrialFailure",
    "AggregateRow",
    "AggregateReport",
    "simulate_instance",
    "fit_state",
    "query_sets",
    "run_simulation",
    "run_real_data",
    "atomic_write_text",
]


@dataclass(frozen=True)
class MethodConfig:
    """The model that defines the prediction sets: miscoverage rate, fold
    count, regressor, methods and fold mode. The sizes and seed of a campaign
    are arguments of the function that runs it."""

    alpha: float
    k: int
    regressor: RegressorSpec
    methods: tuple[str, ...]
    fold_mode: str = "equal"

    def __post_init__(self):
        object.__setattr__(self, "methods", tuple(self.methods))
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfigurationError("alpha must lie strictly inside (0, 1)")
        if not self.methods:
            raise InvalidConfigurationError("need at least one method")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise InvalidConfigurationError(
                f"unknown methods {unknown}; choose from {list(ALL_METHODS)}"
            )
        if len(set(self.methods)) < len(self.methods):
            raise InvalidConfigurationError("each method may be listed only once")


@dataclass(frozen=True)
class AggregateRow:
    method: str
    p: int
    reps: int
    coverage: float
    mean_width: float
    sd_width: float
    median_width: float
    min_width: float
    max_width: float
    n_infinite: int


REPORT_COLUMNS = tuple(f.name for f in fields(AggregateRow))


@dataclass(frozen=True)
class TrialFailure:
    """Why one trial was skipped: its index in the job list (the trial's
    random stream), the exception type and its message."""

    trial: int
    kind: str
    message: str


@dataclass(frozen=True)
class AggregateReport:
    """Per (method, p) aggregates plus the fully resolved run configuration.

    Width statistics cover the finite-width trials only; the number of
    infinite-width trials is disclosed in ``n_infinite``. ``failures`` holds
    the cause of each trial skipped after a numerical failure (never silently
    dropped). The reports give only their number, ``n_failed``, so that the
    CSV and JSON bytes depend only on the configuration and the seed.
    """

    rows: tuple[AggregateRow, ...]
    config: dict
    failures: tuple[TrialFailure, ...] = ()

    @property
    def n_failed(self) -> int:
        return len(self.failures)

    def to_csv_text(self) -> str:
        lines = ["# config: " + json.dumps(self.config, sort_keys=True)]
        if self.n_failed:
            lines.append(f"# skipped {self.n_failed} trial(s) after numerical failure")
        lines.append(",".join(REPORT_COLUMNS))
        for row in self.rows:
            cells = (getattr(row, col) for col in REPORT_COLUMNS)
            lines.append(",".join(c if isinstance(c, str) else repr(c) for c in cells))
        return "\n".join(lines) + "\n"

    def to_json_text(self) -> str:
        rows = [
            {col: json_number(getattr(row, col)) for col in REPORT_COLUMNS} for row in self.rows
        ]
        payload = {"config": self.config, "n_failed": self.n_failed, "rows": rows}
        return json.dumps(payload, indent=2) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory, then rename. The file gets
    the mode that ``open(path, "w")`` gives a new file, not mkstemp's 0600."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)  # reading the umask means setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def simulate_instance(n: int, p: int, rng: RandomSource):
    """Gaussian linear instance: X ~ N(0, I_p), Y | X ~ N(X'beta, 1).

    beta = sqrt(10) * u for a uniformly random unit vector u, redrawn on every
    call, so the signal strength ||beta||^2 = 10 regardless of p. Returns the
    n-point training dataset plus one extra test pair from the same law.
    """
    if n < 1 or p < 1:
        raise InvalidConfigurationError("need n >= 1 and p >= 1")
    gen = rng.generator("data")
    direction = gen.standard_normal(p)
    beta = math.sqrt(10.0) * direction / np.linalg.norm(direction)
    x_all = gen.standard_normal((n + 1, p))
    y_all = x_all @ beta + gen.standard_normal(n + 1)
    data = Dataset(x_all[:n], y_all[:n])
    return data, (x_all[n], float(y_all[n]))


def fit_state(cfg: MethodConfig, data: Dataset, src: RandomSource):
    """Fit what the requested methods need from the training data.

    Returns ``(cv, split_state)``: the K fold models with their scores and
    folds (None unless a fold method or cv+ is requested) and the split state
    (None unless split is requested). Every query of ``query_sets`` reuses
    them. Folds are drawn on every fit, so K is checked against n for split too.
    """
    folds = assign_folds(data.n, cfg.k, cfg.fold_mode, src)
    spec = ScoreFunctionSpec("residual", cfg.regressor)
    needs_cv = any(m in FOLD_METHODS or m == "cv+" for m in cfg.methods)
    cv = compute_cv_scores(data, folds, spec) if needs_cv else None
    split_state = (
        split_conformal(data, cfg.alpha, spec, src) if "split" in cfg.methods else None
    )
    return cv, split_state


def _point_sets(
    cfg: MethodConfig, cv, split_state, test_x, draws: RandomDraws
) -> dict[str, PredictionSet]:
    sets: dict[str, PredictionSet] = {}
    fold_ms = [m for m in cfg.methods if m in FOLD_METHODS]
    if fold_ms:
        sets.update(fold_method_sets(cv, cv.folds, test_x, cfg.alpha, fold_ms, draws=draws))
    if "cv+" in cfg.methods:
        sets["cv+"] = cv_plus_from_scores(cv, cv.folds, test_x, cfg.alpha)
    if "split" in cfg.methods:
        sets["split"] = split_set_from_state(split_state, test_x)
    return sets


# Query rows predicted per block: a block costs one predict call per model and
# keeps K + 1 predictions per row. Per-row prediction cost over 512
# rows (2 vCPU): ols at n=5000, p=20, K=10 takes 106 us alone, 2.5 us in blocks
# of 64 and 1.0 us in blocks of 512; knn:5 at n=3000, p=8, K=5 takes 1.29 ms
# alone, 0.93 ms at 64 and 0.91 ms at 512. Building a row's sets takes
# milliseconds, so larger blocks gain nothing. A block of 64 holds a whole
# trial of the benchmark's run-knn workload (50 test rows).
_QUERY_BLOCK = 64


def query_sets(cfg: MethodConfig, cv, split_state, queries, src: RandomSource):
    """Yield the prediction sets of every requested method for each query row in
    turn, from the fits of ``fit_state``; the fold methods and cv+ use the folds
    ``cv`` was scored on. The rows are predicted in blocks of ``_QUERY_BLOCK``,
    one call per fitted model, and predictions are row-wise. Row j uses the j-th
    (tau, U) pair of ``randomization_stream(src)``, so the sets of a row do not
    depend on how many rows follow it or on the rows predicted with it."""
    queries = np.asarray(queries, dtype=float)
    draws = randomization_stream(src)
    for start in range(0, len(queries), _QUERY_BLOCK):
        block = queries[start : start + _QUERY_BLOCK]
        predict_block(cv, split_state, block)
        for test_x, row_draws in zip(block, draws):
            yield _point_sets(cfg, cv, split_state, test_x, row_draws)


Outcome = dict[str, tuple[float, float, int]]


def _trial(cfg: MethodConfig, train: Dataset, test_x, test_y, src: RandomSource) -> Outcome:
    """Fit on ``train``, then build every method's sets at the test rows.
    Returns per-method (coverage, mean finite width, infinite count) over the
    test rows; the mean width is NaN when no set is finite."""
    cv, split_state = fit_state(cfg, train, src)
    covered: dict[str, list[bool]] = {m: [] for m in cfg.methods}
    widths: dict[str, list[float]] = {m: [] for m in cfg.methods}
    for sets, y in zip(query_sets(cfg, cv, split_state, test_x, src), test_y):
        for m, s in sets.items():
            covered[m].append(s.contains(y))
            widths[m].append(s.width)
    out = {}
    for m in cfg.methods:
        w = np.array(widths[m])
        finite = w[np.isfinite(w)]
        mean_w = float(finite.mean()) if finite.size else float("nan")
        out[m] = (float(np.mean(covered[m])), mean_w, int(w.size - finite.size))
    return out


def _simulation_trial(cfg: MethodConfig, n: int, seed: int, p: int, stream_id: int) -> Outcome:
    """One Monte-Carlo trial: a fresh Gaussian instance and its one test row."""
    src = RandomSource(seed, stream_id)
    data, (test_x, test_y) = simulate_instance(n, p, src)
    return _trial(cfg, data, [test_x], [test_y], src)


def _real_data_trial(
    cfg: MethodConfig, data: Dataset, train_size: int, test_size: int, seed: int, trial: int
) -> Outcome:
    """One subsample trial: ``train_size`` train rows and ``test_size``
    disjoint test rows drawn from ``data``."""
    src = RandomSource(seed, trial)
    idx = src.generator("subsample").choice(data.n, train_size + test_size, replace=False)
    test = data.subset(idx[train_size:])
    return _trial(cfg, data.subset(idx[:train_size]), test.features, test.responses, src)


def _share(worker, jobs, first: int, step: int) -> list:
    """``(index, outcome, failure)`` for jobs ``first``, ``first + step``, ... A
    job that fails numerically has outcome None and its cause as ``failure``."""
    out = []
    for index in range(first, len(jobs), step):
        try:
            out.append((index, worker(jobs[index]), None))
        except (np.linalg.LinAlgError, NumericalError, FloatingPointError) as exc:
            out.append((index, None, TrialFailure(index, type(exc).__name__, str(exc))))
    return out


def _trials(first: int, step: int, total: int) -> str:
    shown = [str(i) for i in range(first, total, step)]
    if len(shown) > 4:
        shown[3:-1] = ["..."]
    return "trials " + ", ".join(shown)


def _child(worker, jobs, first: int, step: int, fd: int):
    """Run one share in a forked worker and send its results and warning counts,
    or its exception, to the parent as one pickle. Never returns: ``os._exit``
    skips the caller's code and the inherited stdio buffers."""
    code = 1
    try:
        counts: dict[tuple, int] = {}

        def count(message, category, filename, lineno, *_):
            key = (category, str(message), filename, lineno)
            counts[key] = counts.get(key, 0) + 1

        try:
            with warnings.catch_warnings():
                warnings.showwarning = count
                payload = pickle.dumps((_share(worker, jobs, first, step), counts))
        except BaseException as exc:
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        code = 0
    finally:
        os._exit(code)


def _result(data: bytes, status: int, trials: str):
    """The results of a worker process from the bytes it sent; or raise its
    exception, or say that it ended without a readable result."""
    try:
        payload = pickle.loads(data)
    except Exception:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise RuntimeError(
            f"the worker process for {trials} ended without a readable result ({how})"
        ) from None
    if isinstance(payload, BaseException):
        payload.add_note(f"raised in the worker process for {trials}")
        raise payload
    results, counts = payload
    for (category, message, filename, lineno), times in counts.items():
        for _ in range(times):
            warnings.showwarning(category(message), category, filename, lineno)
    return results


def _forked(worker, jobs, workers: int) -> list:
    """The ``(index, outcome, failure)`` triples of every job, job i run by worker
    i mod ``workers``: worker 0 is this process, the others forked copies of it.
    Every child is killed if need be and reaped on every way out."""
    children: dict[int, tuple] = {}  # pid -> (read end, first job)
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                os.close(read_end)
                for fh, _ in children.values():
                    fh.close()
                _child(worker, jobs, first, workers, write_end)
            os.close(write_end)
            children[pid] = (open(read_end, "rb"), first)
        results = _share(worker, jobs, 0, workers)
        for pid, (fh, first) in list(children.items()):
            data = fh.read()  # before waitpid: a child blocks until its pipe is read
            fh.close()
            _, status = os.waitpid(pid, 0)
            del children[pid]
            results += _result(data, status, _trials(first, workers, len(jobs)))
        return results
    finally:
        for pid, (fh, _) in children.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


# Windows has no fork, and macOS's system libraries are not safe to use in a
# forked child; outside Linux every share runs here, one after another.
_FORK = sys.platform.startswith("linux")


def _run_jobs(jobs, worker, workers: int) -> tuple[list, tuple[TrialFailure, ...]]:
    """Run jobs, returning their outcomes in job order. A job that fails
    numerically yields None, and its cause is returned alongside the outcomes,
    in job order.

    Job i runs on worker i mod N, N the worker count clamped to the job count.
    Worker 0 is this process and workers 1..N-1 are forked copies of it, each
    returning its results and warning counts over a pipe; a worker's
    non-numerical exception is raised here. One worker, or a platform without
    a safe fork, runs every job here and forks nothing. BLAS is held to one
    thread in every process for any worker count, so a job's bits do not
    depend on N.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs)) if _FORK else 1
    with single_threaded_blas():
        triples = sorted(_forked(worker, jobs, workers), key=lambda t: t[0])
    return [o for _, o, _ in triples], tuple(f for _, _, f in triples if f is not None)


def _width_stats(widths: np.ndarray) -> tuple[float, float, float, float, float]:
    finite = widths[np.isfinite(widths)]
    if finite.size == 0:
        return (float("nan"),) * 5
    return (
        float(np.mean(finite)),
        float(np.std(finite, ddof=1)) if finite.size > 1 else 0.0,
        float(np.median(finite)),
        float(np.min(finite)),
        float(np.max(finite)),
    )


def _rows(methods, groups) -> tuple[AggregateRow, ...]:
    """One row per method and group, method-major. A group is a ``(p,
    outcomes)`` pair, with None for a failed trial. Coverage is the mean of
    the trials' coverages, the width statistics cover the trials' finite mean
    widths and ``n_infinite`` sums their infinite counts."""
    rows = []
    for method in methods:
        for p, outcomes in groups:
            per_trial = [o[method] for o in outcomes if o is not None]
            if not per_trial:
                continue
            coverages, mean_widths, n_infinite = zip(*per_trial)
            rows.append(
                AggregateRow(
                    method, p, len(per_trial), float(np.mean(coverages)),
                    *_width_stats(np.array(mean_widths)), int(sum(n_infinite)),
                )
            )
    return tuple(rows)


def _check_campaign(reps: int, threads: int) -> None:
    if reps < 1:
        raise InvalidConfigurationError("need at least one replication")
    if threads < 1:
        raise InvalidConfigurationError("threads must be at least 1")


def _report_config(cfg: MethodConfig, n: int, p_list, reps: int, seed: int) -> dict:
    """The report's configuration keys, in their published order. The worker
    count is left out: it cannot change the results, and reports must be
    byte-identical across worker counts."""
    return {
        "n": n, "p_list": list(p_list), "alpha": cfg.alpha, "k": cfg.k, "reps": reps,
        "regressor": asdict(cfg.regressor), "methods": list(cfg.methods), "seed": seed,
        "fold_mode": cfg.fold_mode,
    }


def run_simulation(
    cfg: MethodConfig, *, n: int, p_list, reps: int, seed: int, threads: int = 1
) -> AggregateReport:
    """Run ``reps`` independent trials of ``n`` training points per covariate
    count in ``p_list`` and aggregate, on ``threads`` workers.

    Every trial draws a fresh coefficient vector, dataset, fold assignment,
    tau and U on its own random stream keyed by (seed, trial index).
    """
    p_list = tuple(int(p) for p in p_list)
    _check_campaign(reps, threads)
    if len(set(p_list)) < len(p_list):
        raise InvalidConfigurationError("each covariate count may be listed only once")
    if not p_list:
        raise InvalidConfigurationError("need at least one covariate count")
    jobs = [(p, p_idx * reps + rep) for p_idx, p in enumerate(p_list) for rep in range(reps)]
    outcomes, failures = _run_jobs(
        jobs, lambda job: _simulation_trial(cfg, n, seed, *job), threads
    )
    groups = [
        (p, outcomes[p_idx * reps : (p_idx + 1) * reps]) for p_idx, p in enumerate(p_list)
    ]
    config = {"command": "simulate", **_report_config(cfg, n, p_list, reps, seed)}
    return AggregateReport(_rows(cfg.methods, groups), config, failures)


def run_real_data(
    data: Dataset, cfg: MethodConfig, *, train_size: int, test_size: int, trials: int,
    seed: int, threads: int = 1,
) -> AggregateReport:
    """Repeated subsampling protocol on a fixed dataset, on ``threads`` workers.

    Each of the ``trials`` trials samples ``train_size`` train rows and
    ``test_size`` disjoint test rows without replacement, builds every method
    once on the training part, and evaluates coverage and width over the
    whole test part. Rows aggregate the per-trial means across trials, with
    p the data's covariate count and ``reps`` the number of trials.
    """
    _check_campaign(trials, threads)
    if train_size < 2 or test_size < 1:
        raise InvalidConfigurationError("need train_size >= 2 and test_size >= 1")
    if train_size + test_size > data.n:
        raise InvalidConfigurationError(
            f"train_size + test_size = {train_size + test_size} exceeds n = {data.n}"
        )
    outcomes, failures = _run_jobs(
        range(trials),
        lambda t: _real_data_trial(cfg, data, train_size, test_size, seed, t),
        threads,
    )
    config = {
        "command": "run", "train_size": train_size, "test_size": test_size, "trials": trials,
        **_report_config(cfg, train_size, [data.p], trials, seed),
    }
    return AggregateReport(_rows(cfg.methods, [(data.p, outcomes)]), config, failures)
