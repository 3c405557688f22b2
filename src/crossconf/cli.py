"""Command-line front end: simulate, run, predict, bounds.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
Every report embeds the fully resolved configuration, including the seed, so
runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import warnings
from contextlib import contextmanager

import numpy as np

from ._blas import single_threaded_blas
from .combiners import coverage_bounds
# assign_folds, compute_cv_scores, split_conformal are unused; perfbench rebinds them here.
from .conformal_sets import ALL_METHODS, split_conformal
from .data_model import RandomSource, assign_folds, load_csv, load_query_csv
from .errors import InvalidConfigurationError, InvalidDataError, NumericalError
from .experiments import (
    MethodConfig,
    atomic_write_text,
    fit_state,
    query_sets,
    run_real_data,
    run_simulation,
)
from .regression import parse_regressor
from .scores import compute_cv_scores

SEED_ENV = "CROSSCONF_SEED"


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Accept '7', '40,80,120' or inclusive ranges 'start:stop:step'."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            parts.append("1")
        if len(parts) != 3:
            raise InvalidConfigurationError(f"bad range {text!r}; use start:stop:step")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError:
            raise InvalidConfigurationError(f"bad range {text!r}") from None
        if step < 1 or stop < start:
            raise InvalidConfigurationError(f"bad range {text!r}")
        return tuple(range(start, stop + 1, step))
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise InvalidConfigurationError(f"bad integer list {text!r}") from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidConfigurationError(f"bad {SEED_ENV} value {env!r}") from None
    if getattr(args, "entropy", False):
        return secrets.randbits(63)
    raise InvalidConfigurationError(
        f"randomized methods need --seed (or {SEED_ENV}, or --entropy to draw "
        "a fresh seed that is then recorded in the output)"
    )


def _out_paths(out: str) -> tuple[str, str]:
    base, ext = os.path.splitext(out)
    if ext.lower() == ".csv":
        return out, base + ".json"
    if ext.lower() == ".json":
        return base + ".csv", out
    return out + ".csv", out + ".json"


def _write_report(report, out: str) -> int:
    """Write the CSV and JSON reports; the cause of each skipped trial goes to stderr."""
    for failure in report.failures:
        message = " ".join(failure.message.split())
        print(f"skipped trial {failure.trial}: {failure.kind}: {message}", file=sys.stderr)
    csv_path, json_path = _out_paths(out)
    atomic_write_text(csv_path, report.to_csv_text())
    atomic_write_text(json_path, report.to_json_text())
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _emit(text: str, out: str | None) -> int:
    """Write a command's text to ``out`` and say so, or print it when ``out`` is unset."""
    if out:
        atomic_write_text(out, text)
        print(f"wrote {out}")
    else:
        print(text, end="")
    return 0


def _config(args) -> MethodConfig:
    """The model from the flags every command shares."""
    return MethodConfig(
        alpha=args.alpha,
        k=args.k,
        regressor=parse_regressor(args.regressor),
        methods=tuple(m.strip() for m in args.methods.split(",") if m.strip()),
        fold_mode=args.fold_mode,
    )


def cmd_simulate(args) -> int:
    report = run_simulation(
        _config(args), n=args.n, p_list=_parse_int_list(args.p), reps=args.reps,
        seed=_resolve_seed(args), threads=args.threads,
    )
    return _write_report(report, args.out)


def cmd_run(args) -> int:
    seed = _resolve_seed(args)
    data, _ = load_csv(args.data, args.target)
    report = run_real_data(
        data, _config(args), train_size=args.train_size, test_size=args.test_size,
        trials=args.trials, seed=seed, threads=args.threads,
    )
    return _write_report(report, args.out)


def _jsonable_set(pset) -> dict:
    width = pset.width
    return {
        "intervals": pset.to_jsonable(),
        "hulled": pset.hulled,
        "width": "inf" if math.isinf(width) else width,
        "n_components": pset.n_components,
    }


def cmd_predict(args) -> int:
    seed = _resolve_seed(args)
    data, feature_names = load_csv(args.data, args.target)
    query = load_query_csv(args.query, feature_names)
    cfg = _config(args)
    src = RandomSource(seed)
    cv, split_state = fit_state(cfg, data, src)
    predictions = []
    for j, sets in enumerate(query_sets(cfg, cv, split_state, query, src)):
        if args.hull:
            sets = {m: s.hull() for m, s in sets.items()}
        predictions.append({"row": j, "sets": {m: _jsonable_set(s) for m, s in sets.items()}})
    payload = {
        "config": {"command": "predict", "alpha": args.alpha, "k": args.k,
                   "methods": list(cfg.methods), "seed": seed, "fold_mode": args.fold_mode,
                   "regressor": args.regressor, "hull": bool(args.hull)},
        "predictions": predictions,
    }
    return _emit(json.dumps(payload, indent=2) + "\n", args.out)


def cmd_bounds(args) -> int:
    k_list = _parse_int_list(args.k_list)
    n_list = _parse_int_list(args.n)
    alpha = args.alpha
    lines = [
        "# config: " + json.dumps(
            {"command": "bounds", "alpha": alpha, "k": list(k_list), "n": list(n_list)},
            sort_keys=True,
        ),
        "k,n,bound_small_k,bound_large_k,combined,sqrt_floor",
    ]
    for k in k_list:
        for n in n_list:
            if k > n:
                continue
            b = coverage_bounds(alpha, k, n)
            lines.append(
                f"{k},{n},{b.bound_small_k!r},{b.bound_large_k!r},{b.combined!r},{b.floor!r}"
            )
    return _emit("\n".join(lines) + "\n", args.out)


def _add_seed_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="master seed (nonnegative)")
    parser.add_argument(
        "--entropy", action="store_true",
        help="allow running without --seed by drawing a fresh recorded seed",
    )


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.1, help="miscoverage rate")
    parser.add_argument("--k", type=int, default=5, help="number of folds")
    parser.add_argument(
        "--fold-mode", choices=["equal", "varying"], default="equal", dest="fold_mode"
    )
    parser.add_argument(
        "--regressor", default="ols", help="ols | ridge:LAMBDA | knn:K"
    )
    parser.add_argument(
        "--methods", default="mod,e-mod,u-mod,eu-mod,cross",
        help="comma-separated subset of " + ",".join(ALL_METHODS),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossconf",
        description="Distribution-free prediction sets from cross-validation "
        "conformal methods and their exchangeable/randomized variants.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo simulation campaign")
    p_sim.add_argument("--n", type=int, default=100, help="training points per trial")
    p_sim.add_argument("--p", required=True, help="covariate counts: list or start:stop:step")
    p_sim.add_argument("--reps", type=int, default=1000, help="replications per p")
    p_sim.add_argument("--out", default="simulation.csv")
    _add_model_flags(p_sim)
    p_sim.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="workers: this process and N-1 forked copies")
    _add_seed_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_run = sub.add_parser("run", help="repeated-subsampling evaluation on a CSV dataset")
    p_run.add_argument("--data", required=True, help="training CSV with header row")
    p_run.add_argument("--target", required=True, help="response column name")
    p_run.add_argument("--train-size", type=int, required=True, dest="train_size")
    p_run.add_argument("--test-size", type=int, required=True, dest="test_size")
    p_run.add_argument("--trials", type=int, default=20)
    p_run.add_argument("--out", default="realdata.csv")
    _add_model_flags(p_run)
    p_run.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                       help="workers: this process and N-1 forked copies")
    _add_seed_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_pred = sub.add_parser("predict", help="prediction sets for query rows")
    p_pred.add_argument("--data", required=True, help="training CSV with header row")
    p_pred.add_argument("--target", required=True, help="response column name")
    p_pred.add_argument("--query", required=True, help="CSV of query feature rows")
    p_pred.add_argument("--hull", action="store_true", help="report convex hulls")
    p_pred.add_argument("--out", default=None, help="write JSON here instead of stdout")
    _add_model_flags(p_pred)
    _add_seed_flags(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_b = sub.add_parser("bounds", help="coverage lower bounds for the cross method")
    p_b.add_argument("--alpha", type=float, default=0.1)
    p_b.add_argument("--k-list", default="2,5,10", dest="k_list", help="fold counts")
    p_b.add_argument("--n", default="10:1000:10", help="point counts: list or range")
    p_b.add_argument("--out", default=None)
    p_b.set_defaults(func=cmd_bounds)
    return parser


@contextmanager
def _counted_warnings():
    """Print each distinct warning message raised in the block, and in its worker
    processes, to stderr once, in first-seen order, with how many times it fired.
    Warnings are counted, not kept, so memory does not grow with the trials."""
    counts: dict[str, int] = {}

    def count(message, *_):
        counts[str(message)] = counts.get(str(message), 0) + 1

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = count
            yield
    finally:
        for message, times in counts.items():
            print(f"warning: {message} ({times} time{'s' if times > 1 else ''})",
                  file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _counted_warnings(), single_threaded_blas():
            return args.func(args)
    except InvalidConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
