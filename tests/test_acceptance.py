"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Every statistical check runs on a frozen seed with the tolerance bands
built from 3 Monte-Carlo standard errors, so outcomes are deterministic.
"""

import math
import time

import numpy as np
from scipy import stats

from conftest import make_pipeline
from crossconf import (
    FoldAssignment,
    MethodConfig,
    RandomSource,
    RegressorSpec,
    ScoreFunctionSpec,
    assign_folds,
    candidate_endpoints,
    compute_cv_scores,
    coverage_bounds,
    cross_membership,
    cv_plus_from_scores,
    fit,
    fold_method_sets,
    run_simulation,
    simulate_instance,
)
from oracles import (
    all_fold_pvalues,
    cross_membership_pvalue_form,
    cv_plus_set,
    fold_pvalues_at,
    is_subset,
    mc_standard_error,
    report_row,
    stat_emod,
    stat_eumod,
    stat_mod,
    stat_umod,
)

VARIANTS = ("mod", "e-mod", "u-mod", "eu-mod", "cross", "e-cross", "u-cross", "eu-cross")


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def scan_points(cv, folds, test_x):
    """Breakpoints, gap midpoints and the two outer rays of the scan."""
    e = candidate_endpoints(cv, folds, test_x)
    mids = 0.5 * (e[:-1] + e[1:])
    return np.concatenate([[e[0] - 1.0], e, mids, [e[-1] + 1.0]])


def test_01_containment_chains():
    t0 = time.monotonic()
    checked = 0
    for seed in range(200):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=60, p=10, k=5)
        sets = fold_method_sets(cv, folds, tx, 0.1, list(VARIANTS), draws=draws)
        plus = cv_plus_from_scores(cv, folds, tx, 0.1)
        chains = [
            ("eu-mod", "e-mod"), ("e-mod", "mod"), ("u-mod", "mod"),
            ("e-cross", "cross"), ("u-cross", "cross"),
            ("eu-cross", "e-cross"),
        ]
        for inner, outer in chains:
            assert is_subset(sets[inner], sets[outer]), (seed, inner, outer)
        assert is_subset(sets["cross"], plus), (seed, "cross", "cv+")
        checked += 1
    elapsed = time.monotonic() - t0
    report(1, "containment chains", checked == 200 and elapsed < 60.0,
           f"{checked}/200 instances, 0 violations, {elapsed:.1f}s")


def test_02_dual_formulation_equality():
    t0 = time.monotonic()
    disagreements = 0
    points = 0
    for i in range(200):
        if i < 100:
            data, folds, spec, cv, draws, tx, ty = make_pipeline(i, n=60, p=8, k=5)
        else:
            data, folds, spec, cv, draws, tx, ty = make_pipeline(
                i, n=101, p=8, k=5, mode="varying"
            )
        ys = scan_points(cv, folds, tx)
        direct = cross_membership(cv, folds, tx, 0.1, ys)
        dual = cross_membership_pvalue_form(cv, folds, tx, 0.1, ys)
        disagreements += int(np.sum(direct != dual))
        points += ys.size
    elapsed = time.monotonic() - t0
    report(2, "dual formulation", disagreements == 0,
           f"{points} scan points over 200 instances, {disagreements} disagreements, {elapsed:.1f}s")


def test_03_endpoint_scan_vs_dense_grid():
    t0 = time.monotonic()
    disagreements = 0
    for seed in range(100):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=40, p=6, k=4)
        alpha = 0.12
        sets = fold_method_sets(cv, folds, tx, alpha,
                                ["mod", "e-mod", "u-mod", "eu-mod", "cross"], draws=draws)
        lo, hi = data.responses.min(), data.responses.max()
        pad = 3.0 * (hi - lo)
        grid = np.linspace(lo - pad, hi + pad, 4001)
        # independent oracle: scalar p-value path plus a from-scratch pooled count
        mu = np.array([float(m.predict(tx[None, :])[0]) for m in cv.fold_models])
        fold_scores = [cv.scores[m] for m in folds.fold_members]
        pooled_n = folds.n_used
        for y in grid:
            pv = fold_pvalues_at(mu, float(y), cv, folds)
            count = sum(
                int(np.count_nonzero(abs(float(y) - mu[k]) <= s))
                for k, s in enumerate(fold_scores)
            )
            pooled = (1 + count) / (pooled_n + 1)
            truth = {
                "mod": stat_mod(pv) > alpha,
                "e-mod": stat_emod(pv) > alpha,
                "u-mod": stat_umod(pv, draws) > alpha,
                "eu-mod": stat_eumod(pv, draws) > alpha,
                "cross": pooled > alpha,
            }
            for method, expect in truth.items():
                if sets[method].contains(float(y)) != expect:
                    disagreements += 1
    elapsed = time.monotonic() - t0
    report(3, "endpoint scan vs grid", disagreements == 0 and elapsed < 120.0,
           f"100 instances x 4001 grid points x 5 methods, "
           f"{disagreements} disagreements, {elapsed:.1f}s")


def test_04_coverage_suite():
    t0 = time.monotonic()
    reps = 5000
    cfg = MethodConfig(alpha=0.1, k=5, regressor=RegressorSpec("ols"), methods=VARIANTS)
    rep = run_simulation(cfg, n=100, p_list=(20,), reps=reps, seed=20250, threads=4)
    floor_all = 0.8 - 3 * mc_standard_error(0.8, reps)
    floor_tight = 0.9 - 3 * mc_standard_error(0.9, reps)
    cov = {m: report_row(rep, m, 20).coverage for m in VARIANTS}
    ok = all(c >= floor_all for c in cov.values())
    ok &= cov["mod"] >= floor_tight and cov["cross"] >= floor_tight
    ok &= all(cov[m] <= 0.93 for m in ("e-mod", "u-mod", "eu-mod"))
    elapsed = time.monotonic() - t0
    report(4, "coverage floors", ok and elapsed < 600.0,
           "coverages " + " ".join(f"{m}={cov[m]:.3f}" for m in VARIANTS)
           + f", floors {floor_all:.3f}/{floor_tight:.3f}, {elapsed:.0f}s")


def test_05_instability_spike():
    t0 = time.monotonic()
    cfg = MethodConfig(
        alpha=0.1, k=5, regressor=RegressorSpec("ols"),
        methods=("mod", "e-mod", "u-mod", "eu-mod", "cross"),
    )
    rep = run_simulation(cfg, n=100, p_list=(40, 80, 120), reps=500, seed=31337, threads=4)
    w = {(m, p): report_row(rep, m, p).mean_width for m in cfg.methods for p in (40, 80, 120)}
    spike = w[("mod", 80)] > w[("mod", 40)] and w[("mod", 80)] > w[("mod", 120)]
    ordering = (
        w[("eu-mod", 80)] < w[("e-mod", 80)] < w[("u-mod", 80)] < w[("mod", 80)]
    )
    elapsed = time.monotonic() - t0
    report(5, "instability spike", spike and ordering,
           f"mod widths p40/p80/p120 = {w[('mod',40)]:.1f}/{w[('mod',80)]:.1f}/"
           f"{w[('mod',120)]:.1f}; peak order eu={w[('eu-mod',80)]:.0f} < "
           f"e={w[('e-mod',80)]:.0f} < u={w[('u-mod',80)]:.0f} < mod={w[('mod',80)]:.0f}, "
           f"{elapsed:.0f}s")


def test_06_split_conformal_band():
    t0 = time.monotonic()
    reps = 2000
    n_cal = 1000
    results = {}
    for alpha in (0.1, 0.2):
        cfg = MethodConfig(alpha=alpha, k=5, regressor=RegressorSpec("ols"), methods=("split",))
        rep = run_simulation(cfg, n=2000, p_list=(10,), reps=reps, seed=4242, threads=4)
        results[alpha] = report_row(rep, "split", 10).coverage
    se1 = mc_standard_error(0.9, reps)
    lo1, hi1 = 0.9 - 3 * se1, 0.9 + 1 / (n_cal + 1) + 3 * se1
    in_band = lo1 <= results[0.1] <= hi1
    doubled = abs(results[0.2] - 0.80) <= 0.02
    elapsed = time.monotonic() - t0
    report(6, "split conformal band", in_band and doubled,
           f"cov(alpha=0.1)={results[0.1]:.4f} in [{lo1:.4f},{hi1:.4f}], "
           f"cov(alpha=0.2)={results[0.2]:.4f} in 0.80+/-0.02, {elapsed:.0f}s")


def test_07_randomized_dominance_and_strictness():
    t0 = time.monotonic()
    violations = 0
    strict = 0
    trials = 100
    for seed in range(trials):
        data, folds, spec, cv, draws, tx, ty = make_pipeline(seed, n=60, p=10, k=5)
        for y in scan_points(cv, folds, tx):
            det = all_fold_pvalues(tx, float(y), cv, folds)
            rnd = all_fold_pvalues(tx, float(y), cv, folds, draws)
            violations += int(np.sum(rnd.values > det.values))
        sets = fold_method_sets(cv, folds, tx, 0.1, ["mod", "u-mod"], draws=draws)
        if (
            is_subset(sets["u-mod"], sets["mod"])
            and sets["u-mod"].intervals != sets["mod"].intervals
        ):
            strict += 1
    fraction = strict / trials
    elapsed = time.monotonic() - t0
    report(7, "randomized dominance", violations == 0 and fraction > 0.5,
           f"{violations} dominance violations; strict-subset fraction "
           f"{fraction:.2f} > 0.5, {elapsed:.0f}s")


def _pvalue_margins(trials, seed, n, k, fixed_big):
    spec = ScoreFunctionSpec()
    first = np.empty(trials)
    last = np.empty(trials)
    for t in range(trials):
        src = RandomSource(seed, t)
        data, (tx, ty) = simulate_instance(n, 2, src)
        if fixed_big:
            # broken placement: the larger fold always sits at index 0
            perm = src.generator("folds").permutation(n)
            base = n // k
            sizes = [base + 1 if i < n % k else base for i in range(k)]
            folds = FoldAssignment(perm, np.concatenate(([0], np.cumsum(sizes))))
        else:
            folds = assign_folds(n, k, "equal", src)
        cv = compute_cv_scores(data, folds, spec)
        pv = all_fold_pvalues(tx, ty, cv, folds)
        first[t], last[t] = pv.values[0], pv.values[-1]
    return first, last


def test_08_exchangeability_and_its_failure_mode():
    t0 = time.monotonic()
    first, last = _pvalue_margins(5000, seed=909, n=10, k=2, fixed_big=False)
    p_equal = stats.ks_2samp(first, last).pvalue
    first_b, last_b = _pvalue_margins(5000, seed=909, n=11, k=2, fixed_big=True)
    p_broken = stats.ks_2samp(first_b, last_b).pvalue
    elapsed = time.monotonic() - t0
    report(8, "exchangeability", p_equal > 0.01 and p_broken < 0.01,
           f"equal-size KS p={p_equal:.3f} > 0.01; fixed-big-fold KS "
           f"p={p_broken:.2e} < 0.01, {elapsed:.0f}s")


def test_09_bounds_sweep():
    t0 = time.monotonic()
    alpha = 0.1
    worst_margin = math.inf
    exact_at_k_n = True
    for n in range(10, 10_001):
        for k in {2, 5, 10, int(round(math.sqrt(n))), n}:
            if k < 1 or k > n:
                continue
            b = coverage_bounds(alpha, k, n)
            worst_margin = min(worst_margin, b.combined - (1 - 2 * alpha - 2 / math.sqrt(n)))
            if k == n and b.bound_large_k != 1 - 2 * alpha:
                exact_at_k_n = False
    elapsed = time.monotonic() - t0
    report(9, "bounds sweep", worst_margin >= -1e-12 and exact_at_k_n and elapsed < 1.0,
           f"min margin over floor {worst_margin:.3e}; K=n exact; {elapsed:.2f}s")


def test_10_jackknife_plus_oracle():
    t0 = time.monotonic()
    worst = 0.0
    alpha = 0.3
    for seed in range(50):
        src = RandomSource(5000 + seed)
        data, (tx, ty) = simulate_instance(10, 2, src)
        folds = assign_folds(10, 10, "equal", src)
        got = cv_plus_set(data, folds, tx, alpha, RegressorSpec("ols"))
        lows, highs = [], []
        for i in range(10):
            rest = np.delete(np.arange(10), i)
            model = fit(RegressorSpec("ols"), data.subset(rest))
            mu = float(model.predict(tx[None, :])[0])
            res = abs(data.responses[i] - float(model.predict(data.features[i][None, :])[0]))
            lows.append(mu - res)
            highs.append(mu + res)
        k = math.ceil((1 - alpha) * (1 + 1 / 10) * 10 - 1e-9)
        lo = np.sort(lows)[10 - k]
        hi = np.sort(highs)[k - 1]
        worst = max(worst, abs(got.intervals[0][0] - lo), abs(got.intervals[0][1] - hi))
    elapsed = time.monotonic() - t0
    report(10, "jackknife+ oracle", worst <= 1e-10,
           f"50 leave-one-out instances, max endpoint error {worst:.2e}, {elapsed:.1f}s")
