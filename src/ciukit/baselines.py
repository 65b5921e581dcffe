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
    FeatureSpace,
    Instance,
    Predictor,
    Rows,
    SingularSystemError,
    encode_rows,
    evaluate_rows,
    sample_sd,
)
from .sampling import as_rng, encode_instance, uniform_instances

METHOD_INFLUENCE = "contextual-influence"
METHOD_SHAPLEY = "shapley-mc"
METHOD_LIME = "lime-surrogate"
_METHODS = (METHOD_INFLUENCE, METHOD_SHAPLEY, METHOD_LIME)


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
        if self.method not in _METHODS:
            raise ConfigError(f"unknown attribution method {self.method!r}")
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


@dataclass(frozen=True)
class LossSpec:
    """Pointwise loss for permutation importance."""

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("mae", "classification-error"):
            raise ConfigError(f"unknown loss {self.kind!r}")


MAE = LossSpec("mae")
CLASSIFICATION_ERROR = LossSpec("classification-error")


def _loss_value(loss: LossSpec, outputs: np.ndarray, targets: np.ndarray, output: int) -> float:
    if loss.kind == "mae":
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
    loss: LossSpec = MAE,
    repeats: int = 5,
    rng=None,
    output: int = 0,
) -> np.ndarray:
    """Loss increase when one feature's column is shuffled across rows.

    For each feature, the column values are permuted ``repeats`` times
    (breaking the feature-target association while keeping the marginal
    distribution) and the mean loss delta against the unshuffled baseline
    is reported. A feature the model ignores scores exactly 0 because the
    predictions do not change.
    """
    if len(rows) < 2:
        raise ConfigError("permutation importance needs at least two rows")
    if len(targets) != len(rows):
        raise ConfigError("targets and rows must have equal length")
    if repeats < 1:
        raise ConfigError("repeats must be positive")
    base = as_rng(rng)
    batch = Rows(space, encode_rows(space, rows))
    baseline = _loss_value(loss, evaluate_rows(predictor, batch), targets, output)
    deltas = np.zeros(len(space))
    for i in range(len(space)):
        gen = base.spawn(i).generator()
        total = 0.0
        for _ in range(repeats):
            shuffled = batch.matrix.copy()
            shuffled[:, i] = batch.matrix[gen.permutation(len(rows)), i]
            total += _loss_value(
                loss, evaluate_rows(predictor, Rows(space, shuffled)), targets, output
            )
        deltas[i] = total / repeats - baseline
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
    Costs budget * (n_features + 1) predictor calls. The per-feature
    estimates average those samples, and their sum telescopes to
    f(x) - mean f(background draws).
    """
    if not background:
        raise ConfigError("shapley estimation needs a non-empty background set")
    if budget < 1:
        raise ConfigError("budget must be positive")
    base = as_rng(rng)
    gen = base.generator()
    n = len(space)
    bg = Rows(space, encode_rows(space, background))
    # Per walk: a feature order, then a background row, in that stream order.
    # Shuffling a row of arange(n) draws exactly what gen.permutation(n) does.
    orders = np.tile(np.arange(n), (budget, 1))
    picks = np.empty(budget, dtype=np.intp)
    for t in range(budget):
        gen.shuffle(orders[t])
        picks[t] = gen.integers(0, len(bg.matrix))
    # Step s of walk t takes x's value for every feature ranked below s.
    rank = np.argsort(orders, axis=1)
    step = np.arange(n + 1)[None, :, None]
    z = bg.matrix[picks][:, None, :]
    walks = np.where(rank[:, None, :] < step, encode_instance(space, x), z)
    ys = evaluate_rows(predictor, Rows(space, walks.reshape(-1, n)))[:, output]
    jumps = np.diff(ys.reshape(budget, n + 1), axis=1)
    samples = np.take_along_axis(jumps, rank, axis=1)  # feature i's jump in walk t
    phi = samples.mean(axis=0)
    se = sample_sd(samples) / math.sqrt(budget)
    intercept = float(np.mean(evaluate_rows(predictor, bg)[:, output]))
    return AttributionVector(
        feature_names=space.names,
        phi=tuple(float(v) for v in phi),
        intercept=intercept,
        method=METHOD_SHAPLEY,
        n_samples=budget,
        seed=base.seed,
        se=tuple(float(v) for v in se),
    )


def shapley_enumerate(
    predictor: Predictor,
    space: FeatureSpace,
    x: Instance,
    background: Sequence[Instance],
    output: int = 0,
) -> np.ndarray:
    """Exact Shapley values by full subset enumeration (reference oracle).

    Coalition value v(S) is the mean prediction over the background set with
    features in S taken from x. Cost grows as 2^n, so this is restricted to
    n <= 12 and meant for validating the sampled estimator.
    """
    n = len(space)
    if n > 12:
        raise ConfigError("exact enumeration is limited to 12 features")
    if not background:
        raise ConfigError("shapley enumeration needs a non-empty background set")
    x_enc, bg = encode_instance(space, x), encode_rows(space, background)
    bits = 1 << np.arange(n)
    values = {}
    for mask in range(1 << n):  # features in mask come from x, the rest from the background
        mixed = Rows(space, np.where(mask & bits, x_enc, bg))
        values[mask] = float(np.mean(evaluate_rows(predictor, mixed)[:, output]))
    fact = [math.factorial(k) for k in range(n + 1)]
    phi = np.zeros(n)
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                continue
            s = bin(mask).count("1")
            weight = fact[s] * fact[n - s - 1] / fact[n]
            phi[i] += weight * (values[mask | 1 << i] - values[mask])
    return phi


def _normalized_columns(
    space: FeatureSpace, rows: Sequence[Instance], x: Instance
) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalized design matrix and the explained point's row.

    Numeric features map their interval to [0, 1]; categorical features
    become match-with-x indicators (so the explained point is always 1).
    """
    z = encode_rows(space, rows)
    x_enc = encode_instance(space, x)
    xn = np.ones(len(space))
    for i, feat in enumerate(space):
        if feat.is_numeric:
            width = feat.max - feat.min
            z[:, i] = (z[:, i] - feat.min) / width
            xn[i] = (x_enc[i] - feat.min) / width
        else:
            z[:, i] = z[:, i] == x_enc[i]
    return z, xn


def lime_surrogate(
    predictor: Predictor,
    space: FeatureSpace,
    x: Instance,
    n_samples: int = 1000,
    kernel_width: float | None = None,
    ridge: float = 1e-3,
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
    The intercept is left unpenalized. Kernel width defaults to
    0.75 * sqrt(n_features).
    """
    n = len(space)
    if n_samples < 2 * n:
        raise ConfigError("surrogate needs at least 2 * n_features samples")
    if kernel_width is None:
        kernel_width = 0.75 * math.sqrt(n)
    if kernel_width <= 0:
        raise ConfigError("kernel width must be positive")
    if ridge < 0:
        raise ConfigError("ridge penalty must be non-negative")
    base = as_rng(rng)
    rows = uniform_instances(space, n_samples, base)
    z, xn = _normalized_columns(space, rows, x)
    d2 = np.sum((z - xn) ** 2, axis=1)
    weights = np.exp(-d2 / kernel_width**2)
    ys = evaluate_rows(predictor, rows)[:, output]
    design = np.column_stack([np.ones(n_samples), z])
    wd = design * weights[:, None]
    gram = design.T @ wd
    gram[1:, 1:] += ridge * np.eye(n)
    rhs = wd.T @ ys
    try:
        beta = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise SingularSystemError("surrogate system is singular") from None
    if not np.all(np.isfinite(beta)):
        raise SingularSystemError("surrogate solution is not finite")
    baseline = z.mean(axis=0)
    phi = beta[1:] * (xn - baseline)
    return AttributionVector(
        feature_names=space.names,
        phi=tuple(float(v) for v in phi),
        intercept=float(beta[0]),
        method=METHOD_LIME,
        n_samples=n_samples,
        seed=base.seed,
    )
