"""Deterministic seeding and the shared row builders: uniform draws and box
corners, each built as one matrix-backed ``Rows`` batch."""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import ConfigError, FeatureSpace, Rows, _int_arg, as_rows

_CORNER_CAP_BITS = 12
# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on its pool of 4
# uint32 words: the hashmix constants of the entropy and of generate_state,
# the mix multipliers and the xor-shift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_WORD = 1 << 32
# Fewer streams than this are seeded one by one: a batch's fixed cost is
# about that of two single streams.
_BATCH_MIN = 3


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
        if type(self.path) is not tuple:
            raise ConfigError(f"a spawn path must be a tuple, got {type(self.path).__name__}")
        for i in (self.seed, *self.path):  # a few ints, so spawn stays cheap; a bool is none
            if not (type(i) is int or isinstance(i, np.integer)) or i < 0:
                raise ConfigError(f"seed and spawn indices must be non-negative ints, got {i!r}")
        if type(self.seed) is not int:  # a numpy seed is kept as a Python int
            object.__setattr__(self, "seed", int(self.seed))

    def spawn(self, *indices: int) -> "SeededRng":
        return SeededRng(self.seed, self.path + indices)

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


@functools.cache
def _state_words() -> type:
    """An ``ISeedSequence`` whose ``generate_state`` hands PCG64 the 4 state
    words its SeedSequence would generate. Made on first use, so importing
    ciukit does not import numpy.random."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
            return self.words

    return StateWords


def _hashmix_consts(start: int, mult: int, count: int) -> np.ndarray:
    """The (2, count) uint32 xor and multiplier constants of ``count``
    successive hashmix steps from the hash constant ``start``."""
    consts = [start]
    for _ in range(count):
        consts.append(consts[-1] * mult % _WORD)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)


# Path words are mixed in after the pool's first 16 hashmix steps: its 4
# entropy words, then 12 cross-mixes.
_PATH_START = _INIT_A * pow(_MULT_A, _POOL * _POOL, _WORD) % _WORD
_STATE_CONSTS = _hashmix_consts(_INIT_B, _MULT_B, 2 * _POOL)


@functools.lru_cache(maxsize=16)
def _hash_start(seed: int, words: int) -> tuple[np.ndarray, np.ndarray]:
    """The pool of ``SeedSequence(seed, spawn_key=path)`` before its
    ``words`` path words are mixed in, which is ``SeedSequence(seed).pool``
    for a seed of at most 4 words, and the (words, 2, 4) xor and multiplier
    constants that mix each path word into the pool's 4 words."""
    consts = _hashmix_consts(_PATH_START, _MULT_A, _POOL * words)
    return np.random.SeedSequence(seed).pool, consts.reshape(2, words, _POOL).transpose(1, 0, 2)


def _generators(streams: Sequence[tuple[int, tuple[int, ...]]]) -> Iterator[np.random.Generator]:
    """``SeededRng(seed, path).generator()`` of each ``(seed, path)`` stream,
    with the same draws, built as they are taken, so a caller that takes one
    at a time holds one at a time.

    Streams under one seed below 2**128, with paths of one length and path
    words below 2**32, are seeded together: numpy's SeedSequence hash mixes
    their paths into a (streams, 4) uint32 pool at once, and each PCG64
    takes its row of the 4 uint64 state words. Any other batch, or one of
    fewer than ``_BATCH_MIN`` streams, is seeded stream by stream.
    """
    seeds = {seed for seed, _ in streams}
    lengths = {len(path) for _, path in streams}
    if len(streams) >= _BATCH_MIN and len(seeds) == len(lengths) == 1:
        (seed,) = seeds
        paths = np.array([path for _, path in streams])
        if (
            paths.dtype.kind in "iu"
            and 0 <= seed < _WORD**_POOL
            and paths.min() >= 0
            and paths.max() < _WORD
        ):
            # An int array has at least one path word, so the (4,) pool
            # broadcasts to (streams, 4) in the first mix.
            pool, consts = _hash_start(int(seed), paths.shape[1])
            for word, (xor, mult) in zip(paths.astype(np.uint32).T, consts):
                value = (word[:, None] ^ xor) * mult
                value ^= value >> _SHIFT
                value = _MIX_L * pool - _MIX_R * value
                pool = value ^ value >> _SHIFT
            xor, mult = _STATE_CONSTS  # generate_state cycles the pool twice
            state = (np.concatenate([pool, pool], axis=1) ^ xor) * mult
            state ^= state >> _SHIFT
            words = state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
            seq = _state_words()
            return (np.random.Generator(np.random.PCG64(seq(w))) for w in words)
    return (SeededRng(seed, path).generator() for seed, path in streams)


def as_rng(value) -> SeededRng:
    """Coerce None (seed 0), a seed, or a SeededRng; ``SeededRng`` checks the seed."""
    if isinstance(value, SeededRng):
        return value
    return SeededRng(0 if value is None else value)


def uniform_instances(space: FeatureSpace, count: int, rng=None) -> Rows:
    """Uniform draws over the feature space (uniform level choice for
    categorical features).

    One draw fills the numeric columns row by row, then one draw fills the
    categorical columns, so an all-numeric space gives the same stream as
    drawing each value in turn.
    """
    _int_arg(count, "count", 1)
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
