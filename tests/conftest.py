"""Shared helpers for building seeded end-to-end instances."""

from crossconf import (
    RandomSource,
    RegressorSpec,
    ScoreFunctionSpec,
    assign_folds,
    compute_cv_scores,
    randomization_stream,
    simulate_instance,
)


def make_pipeline(seed, n=60, p=10, k=5, mode="equal", regressor=None):
    """Simulated dataset, folds, cv scores and (tau, U) draws on one stream."""
    src = RandomSource(seed)
    data, (test_x, test_y) = simulate_instance(n, p, src)
    folds = assign_folds(n, k, mode, src)
    spec = ScoreFunctionSpec("residual", regressor or RegressorSpec("ols"))
    cv = compute_cv_scores(data, folds, spec)
    draws = next(randomization_stream(src))
    return data, folds, spec, cv, draws, test_x, test_y


def random_grid(gen, data, points=200):
    """Uniform candidate responses over the response range widened threefold."""
    lo, hi = data.responses.min(), data.responses.max()
    pad = 3.0 * (hi - lo)
    return gen.uniform(lo - pad, hi + pad, size=points)
