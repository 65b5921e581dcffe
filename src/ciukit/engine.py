"""Contextual importance, utility, and influence for black-box predictors.

For an instance x and feature i, the engine estimates the interval
[ymin_i, ymax_i] that the output can reach when feature i varies over its
declared range while every other feature stays fixed. From that interval:

    importance  ci = (ymax_i - ymin_i) / (out_max - out_min)
    utility     cu = |y - yumin| / (ymax_i - ymin_i)
    influence   phi = ci * (cu - phi0)

where yumin is the end of the interval with the lowest utility (ymin when
larger outputs are better, ymax otherwise). Influence is signed: features
pushing the output above the neutral utility phi0 get positive values, with
range [-phi0, 1 - phi0].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    FeatureSpace,
    Instance,
    OutputUtility,
    Predictor,
    evaluate_rows,
)
from .sampling import as_rng, build_sample_set, ceteris_paribus_grid

# Relative slack before an interval endpoint counts as leaving the declared
# output range. Protects against pure rounding noise at the boundaries;
# genuine out-of-distribution overshoot is far larger.
_OVERSHOOT_TOL = 1e-9

FLAG_DEGENERATE = "degenerate"
FLAG_INSTABILITY = "instability"
FLAG_ESTIMATED_RANGE = "estimated-range"


@dataclass(frozen=True)
class CiuValue:
    """Per-feature explanation values plus the interval they came from."""

    ci: float
    cu: float
    influence: float
    ymin: float
    ymax: float
    y: float
    degenerate: bool = False
    instability: bool = False

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.degenerate:
            out.append(FLAG_DEGENERATE)
        if self.instability:
            out.append(FLAG_INSTABILITY)
        return tuple(out)


@dataclass(frozen=True)
class Explanation:
    """Result of explaining one instance for one output."""

    feature_names: tuple[str, ...]
    feature_values: tuple
    values: tuple[CiuValue, ...]
    output_index: int
    output_name: str
    y: float
    phi0: float
    sample_count: int
    seed: int
    estimated_range: bool = False

    def ci_vector(self) -> np.ndarray:
        return np.array([v.ci for v in self.values])

    def cu_vector(self) -> np.ndarray:
        return np.array([v.cu for v in self.values])

    def influence_vector(self) -> np.ndarray:
        return np.array([v.influence for v in self.values])

    def sorted_indices_by_ci(self) -> list[int]:
        """Feature order for display: importance descending, ties stable."""
        return sorted(range(len(self.values)), key=lambda i: (-self.values[i].ci, i))

    def to_json_dict(self) -> dict:
        features = []
        for name, value, v in zip(self.feature_names, self.feature_values, self.values):
            features.append(
                {
                    "name": name,
                    "value": value,
                    "ci": float(v.ci),
                    "cu": float(v.cu),
                    "influence": float(v.influence),
                    "ymin": float(v.ymin),
                    "ymax": float(v.ymax),
                    "flags": list(v.flags),
                }
            )
        return {
            "method": "ciu",
            "output": int(self.output_index),
            "output_name": self.output_name,
            "phi0": float(self.phi0),
            "seed": int(self.seed),
            "samples": int(self.sample_count),
            "estimated_range": bool(self.estimated_range),
            "features": features,
            "y": float(self.y),
        }


def estimate_minmax(
    predictor: Predictor,
    space: FeatureSpace,
    x: Instance,
    feature: int,
    n: int = 100,
    rng=None,
    output: int = 0,
) -> tuple[float, float, float]:
    """(ymin, ymax, y) of the output as one feature varies, others fixed.

    Numeric features are probed at the source value, both endpoints, and n
    uniform draws; categorical features at every level. Exact for
    per-feature monotone predictors even with n = 0 because the endpoints
    are always in the sample.
    """
    instances, source = build_sample_set(space, x, feature, n, rng)
    ys = evaluate_rows(predictor, instances)[:, output]
    return float(ys.min()), float(ys.max()), float(ys[source])


def contextual_importance(ymin: float, ymax: float, utility: OutputUtility, output: int = 0) -> float:
    """Interval width as a fraction of the full output range.

    A feature whose variation cannot move the output at all gets 0. Values
    above 1 are possible when the predictor leaves its declared range; they
    are reported as-is, never clamped.
    """
    if ymax < ymin:
        raise ConfigError("ymax must not be below ymin")
    return (ymax - ymin) / utility.range_width(output)


def contextual_utility(y: float, ymin: float, ymax: float, a_sign: float = 1.0) -> float:
    """Position of y inside [ymin, ymax], measured from the worst end.

    The worst end is ymin when utility rises with the output (a_sign > 0)
    and ymax otherwise. Degenerate intervals (ymax == ymin) give 0.
    """
    if ymax < ymin:
        raise ConfigError("ymax must not be below ymin")
    if ymax == ymin:
        return 0.0
    yumin = ymin if a_sign > 0 else ymax
    return abs(y - yumin) / (ymax - ymin)


def contextual_influence(ci: float, cu: float, phi0: float = 0.5) -> float:
    """Signed attribution ci * (cu - phi0); zero importance gives zero."""
    return ci * (cu - phi0)


def _ciu_value(
    ymin: float,
    ymax: float,
    y: float,
    utility: OutputUtility,
    output: int,
    phi0: float,
) -> CiuValue:
    spec = utility.spec(output)
    width = utility.range_width(output)
    ci = contextual_importance(ymin, ymax, utility, output)
    degenerate = ymax == ymin
    cu = contextual_utility(y, ymin, ymax, spec.a)
    influence = contextual_influence(ci, cu, phi0)
    tol = _OVERSHOOT_TOL * max(1.0, abs(width))
    instability = ymin < spec.out_min - tol or ymax > spec.out_max + tol
    return CiuValue(ci, cu, influence, ymin, ymax, y, degenerate, instability)


def explain_instance(
    predictor: Predictor,
    utility: OutputUtility,
    space: FeatureSpace,
    x: Instance,
    output: int = 0,
    n: int = 100,
    phi0: float = 0.5,
    rng=None,
) -> Explanation:
    """Explain one instance: per-feature importance, utility, and influence.

    Every feature gets its own derived random stream (seed, feature index),
    so the explanation is independent of feature evaluation order and
    byte-stable for a fixed seed. The output range must be declared or
    resolved beforehand (see ``resolve_utility``).
    """
    if not 0.0 <= phi0 <= 1.0:
        raise ConfigError("phi0 must lie in [0, 1]")
    utility.range_width(output)  # fail fast when the range is unresolved
    base = as_rng(rng)
    values = []
    y_at_x = None
    for i in range(len(space)):
        ymin, ymax, y = estimate_minmax(
            predictor, space, x, i, n, base.spawn(i), output
        )
        y_at_x = y
        values.append(_ciu_value(ymin, ymax, y, utility, output, phi0))
    spec = utility.spec(output)
    return Explanation(
        feature_names=space.names,
        feature_values=tuple(x.values),
        values=tuple(values),
        output_index=output,
        output_name=spec.name,
        y=float(y_at_x),
        phi0=phi0,
        sample_count=n,
        seed=base.seed,
        estimated_range=spec.estimated,
    )


@dataclass(frozen=True)
class CpCurve:
    """Output trace as one numeric feature sweeps its range (what-if curve).

    ``y_u0`` marks where the neutral-utility output sits inside the curve's
    own [ymin, ymax] interval: ymin + phi0 * (ymax - ymin). It is a display
    annotation only and enters no importance computation.
    """

    feature_name: str
    feature_index: int
    xs: tuple[float, ...]
    ys: tuple[float, ...]
    x_value: float
    y_value: float
    ymin: float
    ymax: float
    y_u0: float
    phi0: float

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature_name,
            "xs": [float(v) for v in self.xs],
            "ys": [float(v) for v in self.ys],
            "x_value": float(self.x_value),
            "y_value": float(self.y_value),
            "ymin": float(self.ymin),
            "ymax": float(self.ymax),
            "y_u0": float(self.y_u0),
            "phi0": float(self.phi0),
        }


def ceteris_paribus_curve(
    predictor: Predictor,
    space: FeatureSpace,
    x: Instance,
    feature: int,
    grid_size: int = 101,
    output: int = 0,
    phi0: float = 0.5,
) -> CpCurve:
    """Trace the output over an evenly spaced sweep of one numeric feature."""
    grid = ceteris_paribus_grid(space, x, feature, grid_size)
    ys = evaluate_rows(predictor, grid)[:, output]
    y_value = float(evaluate_rows(predictor, [x])[0, output])
    ymin = min(float(ys.min()), y_value)
    ymax = max(float(ys.max()), y_value)
    return CpCurve(
        feature_name=space[feature].name,
        feature_index=feature,
        xs=tuple(float(inst.values[feature]) for inst in grid),
        ys=tuple(float(v) for v in ys),
        x_value=float(x.values[feature]),
        y_value=y_value,
        ymin=ymin,
        ymax=ymax,
        y_u0=ymin + phi0 * (ymax - ymin),
        phi0=phi0,
    )
