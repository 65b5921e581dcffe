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

``resolve_utility`` finds an undeclared output range with the same
single-feature variation, polishing the best uniform and corner probes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    ConfigError,
    DegenerateRangeError,
    FeatureSpace,
    Instance,
    OutputSpec,
    OutputUtility,
    Predictor,
    Rows,
    _CHUNK,
    evaluate_rows,
)
from .sampling import (
    as_rng, build_sample_set, ceteris_paribus_grid, corner_instances, uniform_instances,
)

# Relative slack before an interval endpoint counts as leaving the declared
# output range. Protects against pure rounding noise at the boundaries;
# genuine out-of-distribution overshoot is far larger.
_OVERSHOOT_TOL = 1e-9
# Evaluation points used per coordinate during range-refinement sweeps.
_SWEEP_GRID = 1025
_SWEEP_PASSES = 4

FLAG_DEGENERATE = "degenerate"
FLAG_INSTABILITY = "instability"


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


def _sweep(
    predictor: Predictor,
    space: FeatureSpace,
    start: Instance,
    output: int,
    want_max: bool,
) -> float:
    """Coordinate-wise grid refinement from a starting point.

    Repeatedly sweeps each coordinate over a dense grid (all levels for
    categorical features) and keeps the best value found. Exact for
    predictors that are separable or monotone per coordinate, and a cheap
    local polish otherwise.
    """
    sign = 1.0 if want_max else -1.0
    current = start
    best = sign * float(evaluate_rows(predictor, [current])[0, output])
    for _ in range(_SWEEP_PASSES):
        improved = False
        for i, feat in enumerate(space):
            if feat.is_numeric:
                candidates = ceteris_paribus_grid(space, current, i, _SWEEP_GRID)
            else:
                candidates = build_sample_set(space, current, i, 0)[0]
            ys = sign * evaluate_rows(predictor, candidates)[:, output]
            k = int(np.argmax(ys))
            if ys[k] > best:
                best = float(ys[k])
                current = candidates[k]
                improved = True
        if not improved:
            break
    return sign * best


def estimate_output_range(
    predictor: Predictor,
    space: FeatureSpace,
    output: int = 0,
    budget: int = 10000,
    rng=None,
) -> tuple[float, float]:
    """Estimate the attainable output interval of a black-box predictor.

    Combines uniform random probes, numeric-bound corner points, and
    coordinate-wise refinement sweeps started from the best probes. The
    result is an inner approximation: every reported value was actually
    produced by the predictor.
    """
    if budget <= 0:
        raise ConfigError("range estimation needs a positive sampling budget")
    probes = (uniform_instances(space, budget, rng), corner_instances(space))
    points = Rows(space, np.vstack([p.matrix for p in probes]))
    ys = evaluate_rows(predictor, points)[:, output]
    lo_start = points[int(np.argmin(ys))]
    hi_start = points[int(np.argmax(ys))]
    lo = _sweep(predictor, space, lo_start, output, want_max=False)
    hi = _sweep(predictor, space, hi_start, output, want_max=True)
    return lo, hi


def resolve_utility(
    predictor: Predictor,
    space: FeatureSpace,
    utility: OutputUtility,
    budget: int = 10000,
    rng=None,
) -> OutputUtility:
    """Fill in every undeclared output range by estimation.

    Estimated ranges are flagged so reports can distinguish them from
    declarations. A predictor whose observed outputs collapse to one value
    has no usable range and raises DegenerateRangeError.
    """
    if utility.n_outputs != predictor.n_outputs:
        raise ConfigError(
            f"{utility.n_outputs} outputs declared for a predictor with {predictor.n_outputs}"
        )
    outputs = []
    for j, spec in enumerate(utility.outputs):
        if not spec.declared:
            lo, hi = estimate_output_range(predictor, space, j, budget, rng)
            scale = max(abs(lo), abs(hi), 1.0)
            if not hi - lo > 1e-12 * scale:
                raise DegenerateRangeError(
                    f"output {spec.name!r}: degenerate output range (all sampled outputs equal)"
                )
            spec = replace(spec, out_min=lo, out_max=hi, estimated=True)
        outputs.append(spec)
    return OutputUtility(tuple(outputs))


def check_phi0(phi0: float) -> None:
    """Reject a neutral utility level outside [0, 1], NaN included."""
    if not 0.0 <= phi0 <= 1.0:
        raise ConfigError("phi0 must lie in [0, 1]")


def _ciu(ymin: np.ndarray, ymax: np.ndarray, y: np.ndarray, spec: OutputSpec, phi0: float):
    """(ci, cu, influence, degenerate, instability) arrays of intervals
    [ymin, ymax] around outputs y, elementwise and of any one shape.

    A degenerate interval (ymax == ymin) has cu = 0. ci above 1, where the
    predictor leaves its declared range, is reported as-is, never clamped.
    """
    width = spec.out_max - spec.out_min
    span = ymax - ymin
    ci = span / width
    degenerate = ymax == ymin
    worst = ymin if spec.a > 0 else ymax
    cu = np.divide(np.abs(y - worst), span, out=np.zeros(span.shape), where=~degenerate)
    tol = _OVERSHOOT_TOL * max(1.0, abs(width))
    instability = (ymin < spec.out_min - tol) | (ymax > spec.out_max + tol)
    return ci, cu, ci * (cu - phi0), degenerate, instability


def _ciu_intervals(
    predictor: Predictor, space: FeatureSpace, instances, streams, output: int, n: int
) -> np.ndarray:
    """(3, instances, features) array of each instance's per-feature ymin,
    ymax and y: the min, max and source row of feature i's
    ``build_sample_set`` from the stream ``streams[r].spawn(i)``. The set
    holds both numeric endpoints, so the interval is exact for per-feature
    monotone predictors even with n = 0. All instances' sets share one
    layout, so those of as many instances as fit in ``_CHUNK`` rows go to
    the predictor in one call."""
    sizes = [n + 3 if feat.is_numeric else len(feat.levels) for feat in space]
    width = sum(sizes)
    starts = np.cumsum(sizes) - sizes
    block = max(1, _CHUNK // max(1, width))  # a negative n fails in build_sample_set
    out = np.empty((3, len(instances), len(space)))
    for lo in range(0, len(instances), block):
        sets = [
            build_sample_set(space, x, i, n, stream.spawn(i))
            for x, stream in zip(instances[lo : lo + block], streams[lo : lo + block])
            for i in range(len(space))
        ]
        ys = evaluate_rows(predictor, Rows(space, np.vstack([s.matrix for s, _ in sets])))
        firsts = (np.arange(len(ys) // width)[:, None] * width + starts).ravel()
        ys, sources = ys[:, output], firsts + [source for _, source in sets]
        low, high = np.minimum.reduceat(ys, firsts), np.maximum.reduceat(ys, firsts)
        out[:, lo : lo + block] = np.reshape([low, high, ys[sources]], (3, -1, len(space)))
    return out


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
    so the explanation is byte-stable for a fixed seed (see
    ``_ciu_intervals``). The output range must be declared or resolved
    beforehand (see ``resolve_utility``).
    """
    check_phi0(phi0)
    utility.range_width(output)  # fail fast when the range is unresolved
    spec = utility.spec(output)
    base = as_rng(rng)
    ymin, ymax, y = _ciu_intervals(predictor, space, [x], [base], output, n)[:, 0]
    ci, cu, influence, degenerate, instability = _ciu(ymin, ymax, y, spec, phi0)
    columns = (ci, cu, influence, ymin, ymax, y, degenerate, instability)
    values = tuple(CiuValue(*v) for v in zip(*(c.tolist() for c in columns)))
    return Explanation(
        feature_names=space.names,
        feature_values=tuple(x.values),
        values=values,
        output_index=output,
        output_name=spec.name,
        y=y[-1].item(),
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
    check_phi0(phi0)
    grid = ceteris_paribus_grid(space, x, feature, grid_size)
    ys = evaluate_rows(predictor, grid)[:, output]
    y_value = float(evaluate_rows(predictor, [x])[0, output])
    ymin = min(float(ys.min()), y_value)
    ymax = max(float(ys.max()), y_value)
    return CpCurve(
        feature_name=space[feature].name,
        feature_index=feature,
        xs=tuple(grid.matrix[:, feature].tolist()),
        ys=tuple(float(v) for v in ys),
        x_value=float(x.values[feature]),
        y_value=y_value,
        ymin=ymin,
        ymax=ymax,
        y_u0=ymin + phi0 * (ymax - ymin),
        phi0=phi0,
    )
