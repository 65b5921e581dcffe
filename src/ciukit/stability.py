"""Benchmark harness: repeat explanation methods under fresh seeds and
summarize the spread of their attributions.

Every run is fixed by the seed and its run index, so a report is a value:
the same inputs give the same attributions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import ConfigError, FeatureSpace, Instance, OutputUtility, Predictor, as_rows, sample_sd
from .core import _check_output, _int_arg
from .baselines import ALL_METHODS, METHOD_INFLUENCE, METHOD_SHAPLEY, lime_surrogate, shapley_mc
from .engine import _ciu, _ciu_intervals, check_phi0
from .sampling import as_rng, uniform_instances


@dataclass(frozen=True)
class Budgets:
    """Per-method sample budgets, held fixed across a benchmark."""

    ciu_samples: int = 100
    shapley_budget: int = 200
    lime_samples: int = 1000


@dataclass(frozen=True)
class StabilityReport:
    """Every attribution vector from R seeded runs of one method.

    Run r uses the random stream derived from (seed, run index r), so any
    individual run can be reproduced without re-running the others.
    """

    method: str
    feature_names: tuple[str, ...]
    runs: tuple[tuple[float, ...], ...]
    seed: int
    budgets: Budgets
    phi0: float
    output_index: int

    def __post_init__(self) -> None:
        if not self.feature_names:
            raise ConfigError("stability report needs at least one feature")
        _int_arg(len(self.runs), "len(runs)", 2)

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    def matrix(self) -> np.ndarray:
        return np.asarray(self.runs)

    def mean(self) -> np.ndarray:
        return self.matrix().mean(axis=0)

    def sd(self) -> np.ndarray:
        return sample_sd(self.matrix())

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": int(self.seed),
            "runs": int(self.n_runs),
            "phi0": float(self.phi0),
            "output": int(self.output_index),
            "budgets": asdict(self.budgets),
            "feature_names": list(self.feature_names),
            "values": [[float(v) for v in run] for run in self.runs],
        }


def run_stability(
    predictor: Predictor,
    utility: OutputUtility,
    space: FeatureSpace,
    x: Instance,
    method: str,
    runs: int = 50,
    budgets: Budgets = Budgets(),
    seed: int = 42,
    phi0: float = 0.5,
    output: int = 0,
    background: Sequence[Instance] | None = None,
) -> StabilityReport:
    """Benchmark one method's explanation stability: R independent seeded runs.

    Every run sees the same instance, the same budgets, and its run-indexed
    random stream, so every method called with the same seed sees the same
    streams. Methods whose estimates have no sampling noise (the
    endpoint-anchored influence on monotone predictors) come back with zero
    spread; Monte-Carlo methods show their seed-to-seed variation.
    """
    _check_output(predictor, output)
    _int_arg(runs, "runs", 2)
    check_phi0(phi0)
    if method not in ALL_METHODS:
        raise ConfigError(f"unknown method {method!r}; use one of {ALL_METHODS}")
    base = as_rng(seed)
    streams = [base.spawn(r) for r in range(runs)]
    if method == METHOD_INFLUENCE:
        # Run r is explain_instance under stream r; all runs share one call.
        utility.range_width(output)  # fail fast when the range is unresolved
        rows = as_rows(space, [x])[[0] * runs]
        intervals = _ciu_intervals(predictor, rows, streams, output, budgets.ciu_samples)
        values = tuple(map(tuple, _ciu(*intervals, utility.spec(output), phi0)[2].tolist()))
    elif method == METHOD_SHAPLEY:
        if background is None:
            # The background is part of the problem setup, like a dataset, so
            # it is drawn once and shared by every run; per-run spread then
            # reflects only the estimator's own sampling noise. The spawn
            # index is far outside any realistic run count.
            background = uniform_instances(space, 1000, base.spawn(987654321))
        background = as_rows(space, background)  # checked and encoded once for every run
        values = tuple(
            shapley_mc(predictor, space, x, background, budgets.shapley_budget, s, output).phi
            for s in streams
        )
    else:
        values = tuple(
            lime_surrogate(predictor, space, x, budgets.lime_samples, rng=s, output=output).phi
            for s in streams
        )
    return StabilityReport(
        method=method,
        feature_names=space.names,
        runs=values,
        seed=base.seed,
        budgets=budgets,
        phi0=phi0,
        output_index=output,
    )


def summarize(report: StabilityReport) -> str:
    """Fixed-width text table: per-feature mean, spread, and extremes."""
    mean = report.mean()
    sd = report.sd()
    mat = report.matrix()
    lines = [
        f"method: {report.method}   runs: {report.n_runs}   seed: {report.seed}",
        f"{'feature':<16} {'mean':>10} {'sd':>10} {'min':>10} {'max':>10}",
    ]
    for i, name in enumerate(report.feature_names):
        lines.append(
            f"{name:<16} {mean[i]:>10.4f} {sd[i]:>10.4f}"
            f" {mat[:, i].min():>10.4f} {mat[:, i].max():>10.4f}"
        )
    return "\n".join(lines)


def stability_csv(report: StabilityReport) -> list[list]:
    """Long-format CSV rows: a header, then one row per (run, feature)
    attribution value."""
    rows = [["method", "run", "feature", "value"]]
    for r, run in enumerate(report.runs):
        for name, v in zip(report.feature_names, run):
            rows.append([report.method, r, name, repr(v)])
    return rows
