"""Attribution baselines: permutation importance, sampled Shapley values,
and a locally weighted linear surrogate.

All three treat the predictor as a black box and are deterministic given a
seed. They produce AttributionVector results so benchmark code can compare
them against contextual influence on equal footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    ConfigError,
    DataFormatError,
    FeatureSpace,
    Instance,
    Predictor,
    Rows,
    SingularSystemError,
    _check_output,
    _int_arg,
    as_rows,
    evaluate_rows,
    finite_number,
    sample_sd,
)
from .sampling import as_rng, uniform_instances

METHOD_INFLUENCE = "contextual-influence"
METHOD_SHAPLEY = "shapley-mc"
METHOD_LIME = "lime-surrogate"
ALL_METHODS = (METHOD_INFLUENCE, METHOD_SHAPLEY, METHOD_LIME)
# Column shuffles per feature in permutation importance.
_PFI_REPEATS = 5


@dataclass(frozen=True)
class AttributionVector:
    """Per-feature attribution scores from one explanation method.

    ``intercept`` is the method's reference level: the mean background
    prediction for sampled Shapley values, the local model constant for the
    surrogate, and the neutral utility phi0 for contextual influence.
    ``se`` carries Monte-Carlo standard errors when the method has them.
    """

    feature_names: tuple[str, ...]
    phi: tuple[float, ...]
    intercept: float
    method: str
    n_samples: int
    seed: int
    se: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.method not in ALL_METHODS:
            raise ConfigError(f"unknown attribution method {self.method!r}")
        object.__setattr__(self, "phi", tuple(finite_number(v, "phi") for v in self.phi))
        if len(self.phi) != len(self.feature_names):
            raise ConfigError("phi and feature_names must have equal length")
        if self.se is not None and len(self.se) != len(self.phi):
            raise ConfigError("se must have one entry per feature")

    def to_json_dict(self) -> dict:
        features = []
        for k, name in enumerate(self.feature_names):
            entry = {"name": name, "influence": float(self.phi[k])}
            if self.se is not None:
                entry["se"] = float(self.se[k])
            features.append(entry)
        return {
            "method": self.method,
            "intercept": float(self.intercept),
            "samples": int(self.n_samples),
            "seed": int(self.seed),
            "features": features,
        }


def _loss_value(loss: str, outputs: np.ndarray, targets: np.ndarray, output: int) -> float:
    if loss == "mae":
        try:
            t = np.asarray(targets, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("MAE loss needs numeric targets") from None
        return float(np.mean(np.abs(outputs[:, output] - t)))
    t = np.asarray(targets)
    if not np.issubdtype(t.dtype, np.integer):
        raise ConfigError("classification-error loss needs integer class-index targets")
    if outputs.shape[1] < 2:
        raise ConfigError("classification-error loss needs a multi-output predictor")
    predicted = np.argmax(outputs, axis=1)
    return float(np.mean(predicted != t))


def permutation_importance(
    predictor: Predictor,
    space: FeatureSpace,
    rows: Sequence[Instance],
    targets: Sequence,
    loss: str = "mae",
    rng=None,
    output: int = 0,
) -> np.ndarray:
    """Loss increase when one feature's column is shuffled across rows.

    For each feature, the column values are permuted five times
    (breaking the feature-target association while keeping the marginal
    distribution) and the mean loss delta against the unshuffled baseline
    is reported. A feature the model ignores scores exactly 0 because the
    predictions do not change. ``loss`` is ``"mae"`` or
    ``"classification-error"``.
    """
    _check_output(predictor, output)
    if loss not in ("mae", "classification-error"):
        raise ConfigError(f"unknown loss {loss!r}")
    _int_arg(len(rows), "len(rows)", 2)
    if len(targets) != len(rows):
        raise ConfigError("targets and rows must have equal length")
    base = as_rng(rng)
    batch = as_rows(space, rows)
    baseline = _loss_value(loss, evaluate_rows(predictor, batch), targets, output)
    deltas = np.zeros(len(space))
    for i in range(len(space)):
        # Row r draws exactly what the r-th gen.permutation(len(rows)) would.
        orders = base.spawn(i).generator().permuted(
            np.tile(np.arange(len(rows)), (_PFI_REPEATS, 1)), axis=1
        )
        total = 0.0
        for order in orders:
            shuffled = batch.matrix.copy()
            shuffled[:, i] = batch.matrix[order, i]
            total += _loss_value(
                loss, evaluate_rows(predictor, Rows(space, shuffled)), targets, output
            )
        deltas[i] = total / _PFI_REPEATS - baseline
    return deltas


def shapley_mc(
    predictor: Predictor,
    space: FeatureSpace,
    x: Instance,
    background: Sequence[Instance],
    budget: int = 200,
    rng=None,
    output: int = 0,
) -> AttributionVector:
    """Sampled Shapley values via random permutation walks.

    Each of ``budget`` walks draws a background row and switches features to
    the explained instance's values in a fresh random order; the output jump
    when feature i switches is one sample of its marginal contribution.
    Makes two predictor calls (more if a batch passes evaluate_rows' chunk
    size): one of budget * (n_features + 1) walk rows and one of the
    background rows, for the intercept. The per-feature
    estimates average those samples, and their sum telescopes to
    f(x) - mean f(background draws). Outputs too large to average raise
    DataFormatError.
    """
    _check_output(predictor, output)
    _int_arg(len(background), "len(background)", 1)
    _int_arg(budget, "budget", 1)
    x_row = as_rows(space, [x]).matrix[0]
    bg = as_rows(space, background)
    base = as_rng(rng)
    gen = base.generator()
    n = len(space)
    # Stream order: every walk's feature order, then every walk's background
    # row. Row t of the orders draws exactly what the t-th gen.permutation(n)
    # would.
    orders = gen.permuted(np.tile(np.arange(n), (budget, 1)), axis=1)
    picks = gen.integers(0, len(bg.matrix), size=budget)
    # rank[t, i] is feature i's place in walk t's order. Step s of walk t
    # takes x's value for every feature ranked below s.
    rank = np.empty_like(orders)
    rank[np.arange(budget)[:, None], orders] = np.arange(n)
    below = np.arange(n)[:, None] < np.arange(n + 1)  # [rank, step]
    z = bg.matrix[picks][:, None, :]
    walks = np.where(below.take(rank, axis=0).transpose(0, 2, 1), x_row, z)
    ys = evaluate_rows(predictor, Rows(space, walks.reshape(-1, n)))[:, output]
    bg_ys = evaluate_rows(predictor, bg)[:, output]
    with np.errstate(all="ignore"):  # an overflow is rejected below
        # Feature i's jump in walk t: the output after its step less the one before.
        at = rank + np.arange(0, len(ys), n + 1)[:, None]
        samples = ys[at + 1] - ys[at]
        phi = samples.mean(axis=0)
        se = sample_sd(samples) / math.sqrt(budget)
        intercept = float(np.mean(bg_ys))
    if not (np.isfinite(phi).all() and np.isfinite(se).all() and math.isfinite(intercept)):
        raise DataFormatError("shapley estimates overflow: predictor outputs too large to average")
    return AttributionVector(
        feature_names=space.names,
        phi=tuple(phi.tolist()),
        intercept=intercept,
        method=METHOD_SHAPLEY,
        n_samples=budget,
        seed=base.seed,
        se=tuple(se.tolist()),
    )


def _normalized_columns(rows: Rows, x_row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalized design matrix and the explained point's row.

    Numeric features map their interval to [0, 1]; categorical features
    become match-with-x indicators (so the explained point is always 1).
    """
    space = rows.space
    z = np.array(rows.matrix, order="F")  # contiguous columns: z.mean sums each pairwise
    xn = np.ones(len(space))
    for i, feat in enumerate(space):
        if feat.is_numeric:
            width = feat.max - feat.min
            z[:, i] = (z[:, i] - feat.min) / width
            xn[i] = (x_row[i] - feat.min) / width
        else:
            z[:, i] = z[:, i] == x_row[i]
    return z, xn


def lime_surrogate(
    predictor: Predictor,
    space: FeatureSpace,
    x: Instance,
    n_samples: int = 1000,
    rng=None,
    output: int = 0,
) -> AttributionVector:
    """Local attribution from a distance-weighted ridge regression.

    Perturbations are drawn uniformly over the feature space and weighted by
    a Gaussian kernel on their distance to x in min-max normalized space
    (categorical distance is 0/1). The surrogate's coefficient for feature i
    is turned into an attribution against the perturbation population:

        phi_i = coef_i * (normalized x_i - sample mean of normalized draws)

    so a feature sitting at the population average contributes about zero.
    The kernel width is 0.75 * sqrt(n_features), and the ridge penalty of
    1e-3 leaves the intercept unpenalized.
    """
    _check_output(predictor, output)
    n = len(space)
    _int_arg(n_samples, "n_samples", 2 * n)
    x_row = as_rows(space, [x]).matrix[0]
    base = as_rng(rng)
    rows = uniform_instances(space, n_samples, base)
    ys = evaluate_rows(predictor, rows)[:, output]
    with np.errstate(all="ignore"):  # an overflow is rejected below
        z, xn = _normalized_columns(rows, x_row)
        d2 = np.sum((z - xn) ** 2, axis=1)
        weights = np.exp(-d2 / (0.75 * math.sqrt(n)) ** 2)
        design = np.column_stack([np.ones(n_samples), z])
        wd = design * weights[:, None]
        gram = design.T @ wd
        gram[1:, 1:] += 1e-3 * np.eye(n)
        rhs = wd.T @ ys
        try:
            beta = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            raise SingularSystemError("surrogate system is singular") from None
        phi = beta[1:] * (xn - z.mean(axis=0))
    if not (np.isfinite(beta).all() and np.isfinite(phi).all()):
        raise SingularSystemError("surrogate solution is not finite")
    return AttributionVector(
        feature_names=space.names,
        phi=tuple(float(v) for v in phi),
        intercept=float(beta[0]),
        method=METHOD_LIME,
        n_samples=n_samples,
        seed=base.seed,
    )
