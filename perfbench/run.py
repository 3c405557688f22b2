"""crossconf benchmark: one workload per run, or all four in turn.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of sim-paper, predict-wide, predict-jackknife, run-knn, or
``all``; ``BENCHMARK.json`` gates sim-paper and run-knn (see the
``workloads`` module for why). The program is imported from ``src/`` of the
same checkout. Inputs
are generated from ``--seed`` into a scratch directory inside the checkout,
which is removed at the end.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``throughput_per_s``: work items per second of timed requests. The item is
  a trial for sim-paper (sim_trials_per_s), a test point for run-knn
  (run_queries_per_s), a query for predict-* (predict_queries_per_s).
* ``latency_ms_p50``, ``latency_ms_p95``: latency of one request: one query
  for predict-*, one whole ``simulate`` or ``run`` command for the others.
* ``setup_s``: median over several set-ups of the work before the first
  request: for predict-*, ``load_csv``, ``assign_folds``,
  ``compute_cv_scores`` and ``split_conformal``; for run-knn, ``load_csv``;
  for sim-paper, a fresh interpreter importing ``crossconf.cli``.
* ``peak_rss_mib``: peak resident memory of the process.

With ``--trace 1`` the run spends half its seconds untraced and half with a
span around each public function the workload reaches, and reports the
per-layer metrics (see ``workloads.layer_metrics``); the spans are written to
``.perfbench-out/``.

Every run checks its outputs outside the timed calls. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when an operation or a check
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("sim-paper", "predict-wide", "predict-jackknife", "run-knn")


def import_program():
    """Import crossconf from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "crossconf" / "__init__.py").is_file():
        raise SystemExit(f"error: no crossconf sources under {src}")
    sys.path.insert(0, str(src))
    import crossconf

    if Path(crossconf.__file__).resolve().parent != (src / "crossconf").resolve():
        raise SystemExit(f"error: crossconf was imported from {crossconf.__file__}, not {src}")
    return crossconf


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def machine_facts(crossconf) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "crossconf": crossconf.__version__,
        "commit": git_commit(),
    }


def run_one(args) -> int:
    crossconf = import_program()
    from perfbench import workloads

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    spans_path = None
    if args.trace:
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        run, metrics = workloads.run_workload(
            args.workload, args.seed, float(args.seconds), bool(args.trace), work, spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    facts = machine_facts(crossconf)
    print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for line in run.lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(f"checks: attempted={run.attempted} failed={run.failed} "
          f"failed_frac={run.failed / run.attempted:.6g}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})",
                  file=sys.stderr)
            return 2
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
