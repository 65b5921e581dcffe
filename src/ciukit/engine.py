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

One builder, ``_slot_outputs``, makes every single-feature batch, and its
callers choose the points: ``_ciu_intervals`` each feature's sample set (the
source value, both endpoints and n uniform draws, or every level) for many
instances, ``resolve_utility``'s sweeps a dense grid from the best probes of
an undeclared output range, and ``ceteris_paribus_curve`` a what-if grid.
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
    _check_output,
    _int_arg,
    as_rows,
    evaluate_rows,
    finite_number,
)
from .sampling import _generators, as_rng, corner_instances, uniform_instances

# Relative slack before an interval endpoint counts as leaving the declared
# output range. Protects against pure rounding noise at the boundaries;
# genuine out-of-distribution overshoot is far larger.
_OVERSHOOT_TOL = 1e-9
# Evaluation points used per coordinate during range-refinement sweeps.
_SWEEP_GRID = 1025
_SWEEP_PASSES = 4


@dataclass(frozen=True)
class Explanation:
    """Result of explaining one instance for one output.

    Each per-feature quantity is a column: a tuple with one entry per
    feature, in feature order. ``ci``, ``cu`` and ``influence`` come from
    the interval [``ymin``, ``ymax``] that the output reaches as the feature
    varies; ``degenerate`` and ``instability`` are its flags. ``y`` is the
    explained instance's output.
    """

    feature_names: tuple[str, ...]
    feature_values: tuple
    ci: tuple[float, ...]
    cu: tuple[float, ...]
    influence: tuple[float, ...]
    ymin: tuple[float, ...]
    ymax: tuple[float, ...]
    degenerate: tuple[bool, ...]
    instability: tuple[bool, ...]
    output_index: int
    output_name: str
    y: float
    phi0: float
    sample_count: int
    seed: int
    estimated_range: bool = False

    def flags(self, i: int) -> tuple[str, ...]:
        """Feature i's flag names: degenerate, then instability, when set."""
        return ("degenerate",) * self.degenerate[i] + ("instability",) * self.instability[i]

    def sorted_indices_by_ci(self) -> list[int]:
        """Feature order for display: importance descending, ties stable."""
        return sorted(range(len(self.ci)), key=lambda i: (-self.ci[i], i))

    def to_json_dict(self) -> dict:
        keys = ("name", "value", "ci", "cu", "influence", "ymin", "ymax", "flags")
        columns = (
            self.feature_names, self.feature_values, self.ci, self.cu, self.influence,
            self.ymin, self.ymax, [list(self.flags(i)) for i in range(len(self.ci))],
        )
        return {
            "method": "ciu",
            "output": int(self.output_index),
            "output_name": self.output_name,
            "phi0": float(self.phi0),
            "seed": int(self.seed),
            "samples": int(self.sample_count),
            "estimated_range": bool(self.estimated_range),
            "features": [dict(zip(keys, row)) for row in zip(*columns)],
            "y": float(self.y),
        }


def _slot_outputs(predictor: Predictor, rows: Rows, sizes, points, output: int):
    """Output ``output`` of each row of ``rows`` with one feature (slot) at a
    time set to each of its points, and each (row, slot)'s offset into them.

    ``sizes`` (rows × slots, or one size per slot for every row) counts the
    points; size 0 leaves a slot alone. The sets of as many rows as fit in
    ``_CHUNK`` rows, and of at least one, go to the predictor in one call,
    and ``points(lo, hi)`` makes those of rows lo:hi just before it: row by
    row, each row's slots in order.
    """
    width = len(rows.space)
    sizes = np.zeros((len(rows), width), int) + sizes
    ends = np.cumsum(sizes).reshape(sizes.shape)
    offsets = ends - sizes
    ys = np.empty(sizes.sum())
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, int(np.searchsorted(ends[:, -1], offsets[lo, 0] + _CHUNK, "right")))
        block = sizes[lo:hi]
        matrix = np.repeat(rows.matrix[lo:hi], block.sum(axis=1), axis=0)
        column = np.repeat(np.arange(block.size) % width, block.ravel())
        # A new matrix is contiguous, so its flat view takes each point's write.
        matrix.reshape(-1)[np.arange(0, matrix.size, width) + column] = np.ravel(points(lo, hi))
        outputs = evaluate_rows(predictor, Rows(rows.space, matrix))
        ys[offsets[lo, 0] : ends[hi - 1, -1]] = outputs[:, output]
        lo = hi
    return ys, offsets


def _sweep(predictor: Predictor, probes: Rows, probe_ys, output: int, want_max: bool) -> float:
    """Coordinate-wise grid refinement from the best of the probes, given
    their outputs.

    Repeatedly sweeps each coordinate over a dense grid (all levels for
    categorical features) and keeps the best value found. Exact for
    predictors that are separable or monotone per coordinate, and a cheap
    local polish otherwise.
    """
    sign = 1.0 if want_max else -1.0
    k = int(np.argmax(sign * probe_ys))
    space, row, best = probes.space, probes.matrix[k], sign * float(probe_ys[k])
    for _ in range(_SWEEP_PASSES):
        before = best
        for i, feat in enumerate(space):
            if feat.is_numeric:
                column = np.linspace(feat.min, feat.max, _SWEEP_GRID)
            else:
                column = np.arange(len(feat.levels))
            sizes = len(column) * (np.arange(len(space)) == i)
            ys = sign * _slot_outputs(
                predictor, Rows(space, row[None]), sizes, lambda lo, hi: column, output
            )[0]
            k = int(np.argmax(ys))
            if ys[k] > best:
                best = float(ys[k])
                row = row.copy()
                row[i] = column[k]
        if best == before:
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
    _int_arg(budget, "range budget", 1)
    probes = (uniform_instances(space, budget, rng), corner_instances(space))
    points = Rows(space, np.vstack([p.matrix for p in probes]))
    ys = evaluate_rows(predictor, points)[:, output]
    return _sweep(predictor, points, ys, output, False), _sweep(predictor, points, ys, output, True)


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
    """Reject a neutral utility level that is no finite number in [0, 1]."""
    if not 0.0 <= finite_number(phi0, "phi0") <= 1.0:
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


def _ciu_intervals(predictor: Predictor, rows: Rows, streams, output: int, n: int) -> np.ndarray:
    """(3, rows, features) array of each row's per-feature ymin, ymax and y
    over its sample sets.

    Row r's set for feature i is x_r with slot i varied. A numeric slot
    holds x_r's own value, min, max, then n draws from the stream
    ``streams[r].spawn(i)``; the endpoints make the interval exact for
    per-feature monotone predictors even with n = 0. A categorical slot holds
    every level once, in declared order, so x_r's own row sits at its level
    code. A block's numeric streams are seeded in one pass."""
    _int_arg(n, "n", 0)
    space = rows.space
    sizes = np.array([n + 3 if feat.is_numeric else len(feat.levels) for feat in space])
    starts = np.cumsum(sizes) - sizes
    numeric = np.array([feat.is_numeric for feat in space])
    varied = [i for i, feat in enumerate(space) if feat.is_numeric]

    def points(lo: int, hi: int) -> np.ndarray:
        sets = np.repeat(rows.matrix[lo:hi], sizes, axis=1)  # x_r's own value first
        gens = _generators([(s.seed, s.path + (i,)) for i in varied for s in streams[lo:hi]])
        for i, (feat, start, size) in enumerate(zip(space, starts, sizes)):
            if feat.is_numeric:
                sets[:, start + 1 : start + 3] = feat.min, feat.max
                sets[:, start + 3 : start + size] = [
                    next(gens).uniform(feat.min, feat.max, n) for _ in range(hi - lo)
                ]
            else:
                sets[:, start : start + size] = np.arange(size)
        return sets

    ys, at = _slot_outputs(predictor, rows, sizes, points, output)
    sources = at + np.where(numeric, 0, rows.matrix).astype(int)
    ends = (np.minimum.reduceat(ys, at.ravel()), np.maximum.reduceat(ys, at.ravel()))
    return np.stack([*ends, ys[sources].ravel()]).reshape(3, *at.shape)


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
    ymin, ymax, y = _ciu_intervals(predictor, as_rows(space, [x]), [base], output, n)[:, 0]
    ci, cu, influence, degenerate, instability = _ciu(ymin, ymax, y, spec, phi0)
    columns = (ci, cu, influence, ymin, ymax, degenerate, instability)
    return Explanation(
        space.names,
        tuple(x.values),
        *(tuple(c.tolist()) for c in columns),
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
    """Trace the output over an evenly spaced sweep of one numeric feature,
    endpoints included."""
    _check_output(predictor, output)
    check_phi0(phi0)
    feat = space[_int_arg(feature, "feature index", 0, len(space))]
    if not feat.is_numeric:
        raise ConfigError(f"feature {feat.name!r} is categorical; grids need a numeric feature")
    _int_arg(grid_size, "grid_size", 2)
    row = as_rows(space, [x])
    grid = np.linspace(feat.min, feat.max, grid_size)
    points = np.append(grid, row.matrix[0, feature])  # the grid, then x's own value
    sizes = len(points) * (np.arange(len(space)) == feature)
    ys, _ = _slot_outputs(predictor, row, sizes, lambda lo, hi: points, output)
    ys, y_value = ys[:-1], float(ys[-1])
    ymin = min(float(ys.min()), y_value)
    ymax = max(float(ys.max()), y_value)
    return CpCurve(
        feature_name=feat.name,
        feature_index=feature,
        xs=tuple(grid.tolist()),
        ys=tuple(float(v) for v in ys),
        x_value=float(x.values[feature]),
        y_value=y_value,
        ymin=ymin,
        ymax=ymax,
        y_u0=ymin + phi0 * (ymax - ymin),
        phi0=phi0,
    )
