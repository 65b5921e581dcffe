"""Deterministic seeding and the shared row builders: uniform draws, box
corners, and single-feature perturbations."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, FeatureSpace, Instance

_CORNER_CAP_BITS = 12


@dataclass(frozen=True)
class SeededRng:
    """Deterministic random source: PCG64 keyed by (seed, spawn path).

    The same (seed, path) pair yields the same draw sequence on every
    platform. Derived streams are addressed positionally through
    ``spawn``, e.g. per-feature work uses ``rng.spawn(feature_index)``
    and benchmark runs use ``rng.spawn(run_index)``, so results never
    depend on evaluation order.
    """

    seed: int
    path: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def spawn(self, *indices: int) -> "SeededRng":
        return SeededRng(self.seed, self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def as_rng(value) -> SeededRng:
    """Coerce None (seed 0), an int seed, or a SeededRng."""
    if value is None:
        return SeededRng(0)
    if isinstance(value, SeededRng):
        return value
    if isinstance(value, (int, np.integer)):
        return SeededRng(int(value))
    raise ConfigError(f"expected an int seed or SeededRng, got {type(value).__name__}")


def build_sample_set(
    space: FeatureSpace,
    x: Instance,
    feature: int,
    n: int = 100,
    rng=None,
) -> tuple[tuple[Instance, ...], int]:
    """Vary one feature of ``x`` while holding the others fixed.

    Returns the perturbed instances and the position of the one that carries
    the source's own value; all of them agree with ``x`` elsewhere.

    Numeric features produce exactly n + 3 instances: the source value, both
    interval endpoints, and n uniform draws. The endpoints make min/max
    estimates exact for predictors that are monotone in the feature.
    Categorical features produce each declared level exactly once and ignore
    ``n``; the source's own level is the member it already has.
    """
    if not 0 <= feature < len(space):
        raise ConfigError(f"feature index {feature} out of range")
    if n < 0:
        raise ConfigError("sample count must be non-negative")
    feat = space[feature]
    if feat.is_numeric:
        gen = as_rng(rng).generator()
        instances = [x, x.replaced(feature, feat.min), x.replaced(feature, feat.max)]
        for v in gen.uniform(feat.min, feat.max, size=n):
            instances.append(x.replaced(feature, float(v)))
        return tuple(instances), 0
    if x.values[feature] not in feat.levels:
        raise ConfigError(
            f"feature {feat.name!r}: label {x.values[feature]!r} not in declared levels"
        )
    instances = [x.replaced(feature, lev) for lev in feat.levels]
    return tuple(instances), feat.levels.index(x.values[feature])


def ceteris_paribus_grid(
    space: FeatureSpace,
    x: Instance,
    feature: int,
    grid_size: int = 101,
) -> list[Instance]:
    """Evenly spaced sweep of one numeric feature, endpoints included."""
    if not 0 <= feature < len(space):
        raise ConfigError(f"feature index {feature} out of range")
    feat = space[feature]
    if not feat.is_numeric:
        raise ConfigError(
            f"feature {feat.name!r} is categorical; grids need a numeric feature"
        )
    if grid_size < 2:
        raise ConfigError("grid needs at least the two endpoints")
    grid = np.linspace(feat.min, feat.max, grid_size)
    return [x.replaced(feature, float(v)) for v in grid]


def uniform_instances(space: FeatureSpace, count: int, rng=None) -> list[Instance]:
    """Uniform draws over the feature space (uniform level choice for
    categorical features).

    One draw fills the numeric columns row by row, then one draw fills the
    categorical columns, so an all-numeric space gives the same stream as
    drawing each value in turn.
    """
    if count < 1:
        raise ConfigError("instance count must be positive")
    gen = as_rng(rng).generator()
    numeric = [f for f in space if f.is_numeric]
    categorical = [f for f in space if not f.is_numeric]
    draws = gen.uniform(
        [f.min for f in numeric], [f.max for f in numeric], size=(count, len(numeric))
    )
    codes = gen.integers(0, [len(f.levels) for f in categorical], size=(count, len(categorical)))
    # Columns of Python floats and level labels, put back in feature order.
    numeric_columns = iter(draws.T.tolist())
    level_columns = iter(
        [f.levels[k] for k in col] for f, col in zip(categorical, codes.T.tolist())
    )
    columns = [next(numeric_columns if f.is_numeric else level_columns) for f in space]
    return [Instance(values) for values in zip(*columns)]


def corner_instances(space: FeatureSpace) -> list[Instance]:
    """Every {min, max} choice over the numeric coordinates, capped at 2**12
    corners; categorical coordinates stay at the midpoint choice."""
    base = space.midpoint()
    numeric = [i for i, f in enumerate(space) if f.is_numeric]
    numeric = numeric[:_CORNER_CAP_BITS]
    corners = []
    for bits in itertools.product((0, 1), repeat=len(numeric)):
        inst = base
        for i, bit in zip(numeric, bits):
            feat = space[i]
            inst = inst.replaced(i, feat.max if bit else feat.min)
        corners.append(inst)
    return corners
