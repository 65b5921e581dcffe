"""Dataset-level importance: aggregate per-instance explanations and
normalize competing methods onto a comparable scale."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    DegenerateRangeError,
    FeatureSpace,
    Instance,
    OutputUtility,
    Predictor,
    _check_output,
    _int_arg,
    as_rows,
    evaluate_rows,
    finite_number,
    sample_sd,
)
from .baselines import permutation_importance, shapley_mc
from .engine import _ciu, _ciu_intervals
from .sampling import as_rng, uniform_instances

GLOBAL_METHODS = ("ci", "pfi-mae", "pfi-ce", "shapley")


@dataclass(frozen=True)
class GlobalImportance:
    """Per-feature importance summary for one method.

    ``spread`` is the sample standard deviation of whatever was averaged:
    per-instance values for the single-pass aggregators, per-iteration
    means for ``run_global``. ``degenerate`` marks features whose sampled
    output interval collapsed for at least one instance.
    """

    method: str
    feature_names: tuple[str, ...]
    mean: tuple[float, ...]
    spread: tuple[float, ...]
    n_instances: int
    n_iterations: int
    normalized: bool
    degenerate: tuple[bool, ...]

    def to_json_dict(self) -> dict:
        features = []
        for k, name in enumerate(self.feature_names):
            features.append(
                {
                    "name": name,
                    "mean": float(self.mean[k]),
                    "spread": float(self.spread[k]),
                    "degenerate": bool(self.degenerate[k]),
                }
            )
        return {
            "method": self.method,
            "normalized": bool(self.normalized),
            "instances": int(self.n_instances),
            "iterations": int(self.n_iterations),
            "features": features,
        }


def normalize_importances(values: Sequence[float]) -> np.ndarray:
    """Scale importances to proportions that sum to one."""
    v = np.array([finite_number(x, "importance") for x in values])
    total = float(v.sum())
    if not np.isfinite(total):
        raise DegenerateRangeError("importances do not sum to a finite number")
    if total <= 0.0:
        raise DegenerateRangeError("importances sum to zero or less; nothing to normalize")
    return v / total


def _summary(
    method: str,
    space: FeatureSpace,
    scores: np.ndarray,
    degenerate: np.ndarray,
    n_instances: int,
    n_iterations: int = 1,
    normalized: bool = False,
) -> GlobalImportance:
    """Column means and sample standard deviations of a score matrix."""
    return GlobalImportance(
        method=method,
        feature_names=space.names,
        mean=tuple(float(v) for v in scores.mean(axis=0)),
        spread=tuple(float(v) for v in sample_sd(scores)),
        n_instances=n_instances,
        n_iterations=n_iterations,
        normalized=normalized,
        degenerate=tuple(bool(v) for v in degenerate),
    )


def global_ci(
    predictor: Predictor,
    utility: OutputUtility,
    space: FeatureSpace,
    instances: Sequence[Instance],
    n: int = 100,
    rng=None,
    output: int = 0,
) -> GlobalImportance:
    """Mean per-feature importance over an instance sample.

    Each instance contributes one importance value per feature (interval
    width over output range width), from the stream (seed, instance index)
    as ``explain_instance`` gets it; the summary is their mean and sample
    standard deviation.
    """
    _int_arg(len(instances), "len(instances)", 1)
    utility.range_width(output)  # fail fast when the range is unresolved
    streams = [as_rng(rng).spawn(r) for r in range(len(instances))]
    intervals = _ciu_intervals(predictor, as_rows(space, instances), streams, output, n)
    ci, _, _, degenerate, _ = _ciu(*intervals, utility.spec(output), phi0=0.5)
    return _summary("ci", space, ci, degenerate.any(axis=0), len(instances))


def global_mean_abs_shapley(
    predictor: Predictor,
    space: FeatureSpace,
    instances: Sequence[Instance],
    budget: int = 200,
    rng=None,
    output: int = 0,
) -> GlobalImportance:
    """Mean absolute sampled Shapley value over an instance sample.

    The instance sample is also the background.
    """
    _check_output(predictor, output)
    _int_arg(len(instances), "len(instances)", 1)
    sample = as_rows(space, instances)
    base = as_rng(rng)
    scores = np.empty((len(instances), len(space)))
    for r, x in enumerate(sample):
        att = shapley_mc(predictor, space, x, sample, budget, base.spawn(r), output)
        scores[r] = np.abs(att.phi)
    degenerate = np.zeros(len(space), dtype=bool)
    return _summary("shapley", space, scores, degenerate, len(instances))


def run_global(
    predictor: Predictor,
    utility: OutputUtility,
    space: FeatureSpace,
    method: str,
    iterations: int = 5,
    instances_per_iteration: int = 200,
    rng=None,
    rows: Sequence[Instance] | None = None,
    targets: Sequence | None = None,
    n: int = 100,
    budget: int = 200,
    output: int = 0,
) -> GlobalImportance:
    """Repeat a global importance method and summarize across iterations.

    Each iteration draws a fresh instance sample (uniform over the feature
    space, or a bootstrap of ``rows`` when a dataset is given), computes the
    method's per-feature importances, and normalizes them to proportions.
    The result reports the mean and sample standard deviation of those
    proportions across iterations, and the number of instances drawn per
    iteration: at most ``len(rows)`` for a bootstrap. An iteration whose
    importances sum to zero or less (a constant model, or permutation
    deltas that are negative by chance) raises DegenerateRangeError naming
    the method and the iteration.
    """
    if method not in GLOBAL_METHODS:
        raise ConfigError(f"unknown global method {method!r}; use one of {GLOBAL_METHODS}")
    _int_arg(iterations, "iterations", 1)
    count = _int_arg(instances_per_iteration, "instances_per_iteration", 1)
    if rows is not None:
        rows = as_rows(space, rows)
        count = min(count, _int_arg(len(rows), "len(rows)", 1))
        if targets is not None and len(targets) != len(rows):
            raise ConfigError("targets and rows must have equal length")
    base = as_rng(rng)
    per_iter = []
    degenerate = np.zeros(len(space), dtype=bool)
    for it in range(iterations):
        sub = base.spawn(it)
        if rows is None:
            sample = uniform_instances(space, count, sub.spawn(0))
            sample_targets = None
        else:
            take = sub.spawn(0).generator().integers(0, len(rows), size=count)
            sample = rows[take]
            sample_targets = None if targets is None else np.asarray(targets)[take]
        sub_rng = sub.spawn(1)
        if method == "ci":
            g = global_ci(predictor, utility, space, sample, n, sub_rng, output)
            raw = np.asarray(g.mean)
            degenerate |= g.degenerate
        elif method == "shapley":
            g = global_mean_abs_shapley(predictor, space, sample, budget, sub_rng, output)
            raw = np.asarray(g.mean)
        else:
            loss = "mae" if method == "pfi-mae" else "classification-error"
            if sample_targets is None:
                # Self-labels for analytic predictors: the model's own outputs.
                outs = evaluate_rows(predictor, sample)
                sample_targets = outs[:, output] if loss == "mae" else np.argmax(outs, axis=1)
            raw = permutation_importance(
                predictor, space, sample, sample_targets, loss, rng=sub_rng, output=output
            )
        try:
            per_iter.append(normalize_importances(raw))
        except (ConfigError, DegenerateRangeError) as e:  # ConfigError: a non-finite raw value
            raise DegenerateRangeError(f"{method}, iteration {it}: {e}") from None
    return _summary(
        method, space, np.vstack(per_iter), degenerate, count, iterations, normalized=True
    )
