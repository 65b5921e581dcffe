"""Deterministic seeding and the shared row builders: uniform draws, box
corners, and single-feature perturbations, each built as one matrix-backed
``Rows`` batch."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, FeatureSpace, Instance, Rows, as_rows

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


def ceteris_paribus_grid(
    space: FeatureSpace,
    x: Instance,
    feature: int,
    grid_size: int = 101,
) -> Rows:
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
    matrix = np.repeat(as_rows(space, [x]).matrix, grid_size, axis=0)
    matrix[:, feature] = np.linspace(feat.min, feat.max, grid_size)
    return Rows(space, matrix)


def uniform_instances(space: FeatureSpace, count: int, rng=None) -> Rows:
    """Uniform draws over the feature space (uniform level choice for
    categorical features).

    One draw fills the numeric columns row by row, then one draw fills the
    categorical columns, so an all-numeric space gives the same stream as
    drawing each value in turn.
    """
    if count < 1:
        raise ConfigError("instance count must be positive")
    gen = as_rng(rng).generator()
    numeric = [i for i, f in enumerate(space) if f.is_numeric]
    categorical = [i for i, f in enumerate(space) if not f.is_numeric]
    matrix = np.empty((count, len(space)))
    matrix[:, numeric] = gen.uniform(
        [space[i].min for i in numeric], [space[i].max for i in numeric],
        size=(count, len(numeric)),
    )
    matrix[:, categorical] = gen.integers(
        0, [len(space[i].levels) for i in categorical], size=(count, len(categorical))
    )
    return Rows(space, matrix)


def corner_instances(space: FeatureSpace) -> Rows:
    """Every {min, max} choice over the numeric coordinates, capped at 2**12
    corners; categorical coordinates stay at the midpoint choice."""
    numeric = [i for i, f in enumerate(space) if f.is_numeric][:_CORNER_CAP_BITS]
    bits = np.array(list(itertools.product((0, 1), repeat=len(numeric))), dtype=bool)
    matrix = np.repeat(as_rows(space, [space.midpoint()]).matrix, len(bits), axis=0)
    for i, column in zip(numeric, bits.T):
        matrix[:, i] = np.where(column, space[i].max, space[i].min)
    return Rows(space, matrix)
