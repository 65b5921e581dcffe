import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ciukit as ck
from ciukit import engine
from ciukit.core import as_rows
from ciukit.engine import _ciu_intervals
from ciukit.sampling import _generators, corner_instances
from conftest import exact, mixed_space, replaced


class TestSeededRng:
    def test_same_key_same_stream(self):
        a = ck.SeededRng(42).generator().uniform(size=10)
        b = ck.SeededRng(42).generator().uniform(size=10)
        assert np.array_equal(a, b)

    def test_spawn_paths_are_distinct(self):
        base = ck.SeededRng(42)
        a = base.spawn(0).generator().uniform(size=10)
        b = base.spawn(1).generator().uniform(size=10)
        c = base.spawn(0, 1).generator().uniform(size=10)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spawn_is_reproducible(self):
        assert ck.SeededRng(7).spawn(3, 1) == ck.SeededRng(7).spawn(3).spawn(1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ck.ConfigError):
            ck.SeededRng(-1)

    @pytest.mark.parametrize(
        "seed, indices, bad",
        [
            (1.5, (), "1.5"),
            (True, (), "True"),
            (1, (-2,), "-2"),
            (1, (2.7,), "2.7"),
            (1, (0, False), "False"),
            (1, ("3",), "'3'"),
        ],
    )
    def test_bad_seed_or_index_is_rejected_when_made(self, seed, indices, bad):
        message = f"seed and spawn indices must be non-negative ints, got {bad}"
        with pytest.raises(ck.ConfigError, match=f"^{re.escape(message)}$"):
            ck.SeededRng(seed).spawn(*indices)

    def test_numpy_ints_pass(self):
        rng = ck.SeededRng(np.int64(7)).spawn(np.uint8(3))
        assert rng == ck.SeededRng(7, (3,))
        assert rng.generator().random() == ck.SeededRng(7).spawn(3).generator().random()

    def test_as_rng_coercions(self):
        assert ck.as_rng(5) == ck.SeededRng(5)
        assert ck.as_rng(None) == ck.SeededRng(0)
        r = ck.SeededRng(9, (1,))
        assert ck.as_rng(r) is r
        seeded = ck.as_rng(np.int64(3))
        assert seeded == ck.SeededRng(3) and type(seeded.seed) is int
        for bad in ("42", True, 2.5, -1):
            message = f"seed and spawn indices must be non-negative ints, got {bad!r}"
            with pytest.raises(ck.ConfigError, match=f"^{re.escape(message)}$"):
                ck.as_rng(bad)

    @pytest.mark.parametrize("path", [[2], 2, None], ids=["list", "int", "none"])
    def test_path_that_is_no_tuple_is_rejected_when_made(self, path):
        message = f"a spawn path must be a tuple, got {type(path).__name__}"
        with pytest.raises(ck.ConfigError, match=f"^{re.escape(message)}$"):
            ck.SeededRng(1, path)


def assert_same_streams(streams):
    """``_generators(streams)`` holds numpy's SeedSequence state words for
    each (seed, path) and draws what ``SeededRng(seed, path).generator()``
    draws. numpy's stream-compatibility policy keeps that hash fixed; a
    numpy release that moved it fails here."""
    gens = list(_generators(streams))
    assert len(gens) == len(streams)
    for (seed, path), gen in zip(streams, gens):
        words = np.random.SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)
        assert np.array_equal(gen.bit_generator.seed_seq.generate_state(4, np.uint64), words)
        want = ck.SeededRng(seed, path).generator()
        assert np.array_equal(gen.random(16), want.random(16))


# Seeds below 2**128 and path words below 2**32 are hashed in one pass,
# larger ones one by one.
seeds = st.integers(0, 2**32 - 1) | st.integers(0, 2**40 - 1) | st.integers(2**128, 2**130)
words = st.integers(0, 2**32 - 1) | st.integers(0, 2**33 - 1)


class TestGenerators:
    """Seeding many streams in one pass gives each stream's own draws."""

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, length=st.integers(0, 4), data=st.data())
    def test_one_seed_and_path_length(self, seed, length, data):
        paths = data.draw(st.lists(st.tuples(*[words] * length), min_size=1, max_size=12))
        assert_same_streams([(seed, path) for path in paths])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(seeds, st.lists(words, max_size=4).map(tuple)), max_size=8))
    def test_mixed_seeds_and_path_lengths(self, streams):
        assert_same_streams(streams)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds, path=st.lists(words, max_size=4).map(tuple))
    def test_one_stream(self, seed, path):
        assert_same_streams([(seed, path)])

    def test_a_kernel_call_is_seeded_in_one_pass(self):
        # the CLI's global ci streams: (method, iteration, 1, instance, feature)
        streams = [(7, (0, 0, 1, r, i)) for r in range(50) for i in range(4)]
        gens = list(_generators(streams))
        assert not any(isinstance(g.bit_generator.seed_seq, np.random.SeedSequence) for g in gens)
        assert_same_streams(streams)

    def test_global_ci_builds_no_generator_one_by_one(self, nonlinear_resolved, monkeypatch):
        pred, space, util = nonlinear_resolved
        sample = ck.uniform_instances(space, 50, 3)
        built = []
        real = ck.SeededRng.generator
        monkeypatch.setattr(ck.SeededRng, "generator", lambda s: built.append(s) or real(s))
        ck.global_ci(pred, util, space, sample, n=10, rng=ck.SeededRng(1, (0, 0)))
        assert built == []


def varied_values(instances, feature):
    return tuple(inst.values[feature] for inst in instances)


def sample_sets(space, instances, n, seed=0):
    """The CIU sample sets that ``_ciu_intervals`` sends to the predictor
    for ``instances`` (through ``as_rows``, as every caller of the kernel)
    under the streams (seed, r), one list of instances per (instance,
    feature) slot, with the kernel's intervals and its batch sizes.

    The recording predictor returns each row's position among all rows sent,
    so an interval reads (first row, last row, source row) of its set.
    """
    seen, batches = [], []

    class Recording(ck.Predictor):
        def evaluate(self, rows):
            rows = list(rows)
            batches.append(len(rows))
            seen.extend(rows)
            return np.arange(len(seen) - len(rows), len(seen), dtype=float)[:, None]

    streams = [ck.SeededRng(seed).spawn(r) for r in range(len(instances))]
    intervals = _ciu_intervals(Recording(), as_rows(space, instances), streams, 0, n)
    sizes = [n + 3 if f.is_numeric else len(f.levels) for f in space]
    sets, at = [], 0
    for _ in instances:
        sets.append([])
        for size in sizes:
            sets[-1].append(seen[at : at + size])
            at += size
    assert at == len(seen)
    return sets, intervals, batches


class TestSampleSets:
    """Each instance's sample sets, as the CIU kernel builds them."""

    def test_numeric_contains_source_and_endpoints(self, linear_bundle):
        _, space, _ = linear_bundle
        x = space.instance([0.5, 0.5, 0.5, 0.5])
        sets, intervals, _ = sample_sets(space, [x], n=2, seed=1)
        instances = sets[0][0]
        assert len(instances) == 5
        assert instances[0] == x
        assert intervals[:, 0, 0].tolist() == [0, 4, 0]  # y is the source row
        varied = varied_values(instances, 0)
        assert varied[0] == 0.5 and varied[1] == 0.0 and varied[2] == 1.0
        assert all(0.0 <= v <= 1.0 for v in varied)

    def test_numeric_n0_is_three_points(self, linear_bundle):
        _, space, _ = linear_bundle
        x = space.instance([0.2, 0.4, 0.6, 0.8])
        sets, _, batches = sample_sets(space, [x], n=0)
        assert batches == [4 * 3]
        assert varied_values(sets[0][2], 2) == (0.6, 0.0, 1.0)

    def test_only_varied_feature_changes(self, linear_bundle):
        _, space, _ = linear_bundle
        x = space.instance([0.1, 0.2, 0.3, 0.4])
        sets, _, _ = sample_sets(space, [x], n=50, seed=3)
        for i, instances in enumerate(sets[0]):
            for inst in instances:
                for j in range(4):
                    assert j == i or inst.values[j] == x.values[j]

    def test_categorical_levels_once_each(self):
        space = ck.FeatureSpace(
            (
                ck.FeatureSpec.categorical("c", ["a", "b", "d"]),
                ck.FeatureSpec.numeric("x", 0, 1),
            )
        )
        x = space.instance(["b", 0.3])
        sets, intervals, _ = sample_sets(space, [x], n=100, seed=1)
        instances = sets[0][0]
        assert len(instances) == 3
        assert varied_values(instances, 0) == ("a", "b", "d")
        assert intervals[:, 0, 0].tolist() == [0, 2, 1]  # y is the row of level "b"
        assert instances[1] == x

    def test_undeclared_level_names_the_feature(self):
        space = ck.FeatureSpace(
            (ck.FeatureSpec.categorical("c", ["a", "b"]), ck.FeatureSpec.numeric("x", 0, 1))
        )
        with pytest.raises(ck.ConfigError, match="'c'"):
            sample_sets(space, [ck.Instance(("z", 0.3))], n=5)

    def test_single_level_categorical(self):
        space = ck.FeatureSpace(
            (ck.FeatureSpec.categorical("c", ["only"]), ck.FeatureSpec.numeric("x", 0, 1))
        )
        sets, intervals, _ = sample_sets(space, [space.instance(["only", 0.2])], n=5)
        assert len(sets[0][0]) == 1
        assert intervals[:, 0, 0].tolist() == [0, 0, 0]

    def test_seeded_reproducibility(self, linear_bundle):
        _, space, _ = linear_bundle
        x = space.instance([0.5, 0.5, 0.5, 0.5])
        a = sample_sets(space, [x, x], n=20, seed=9)[0]
        b = sample_sets(space, [x, x], n=20, seed=9)[0]
        c = sample_sets(space, [x, x], n=20, seed=10)[0]
        assert a == b
        assert a != c
        assert a[0] != a[1]  # each instance has its own stream

    def test_bad_arguments(self, linear_bundle):
        _, space, _ = linear_bundle
        x = space.instance([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ck.ConfigError, match="^n must be an int >= 0, got -1$"):
            sample_sets(space, [x], n=-1)
        with pytest.raises(ck.ConfigError, match="expected 4 values, got 3"):
            sample_sets(space, [x, ck.Instance((0.5, 0.5, 0.5))], n=10)


class TestCeterisParibusGrid:
    """The what-if grid of ``ceteris_paribus_curve``: evenly spaced, with
    both endpoints."""

    def test_unit_interval_grid(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5, 0.5, 0.5, 0.5])
        assert ck.ceteris_paribus_curve(pred, space, x, 0, 3).xs == (0.0, 0.5, 1.0)
        assert ck.ceteris_paribus_curve(pred, space, x, 0, 2).xs == (0.0, 1.0)

    def test_asymmetric_interval(self):
        space = ck.FeatureSpace((ck.FeatureSpec.numeric("x", -1.0, 1.0),))
        pred = ck.FunctionPredictor(lambda m: m[:, 0])
        curve = ck.ceteris_paribus_curve(pred, space, space.instance([0.0]), 0, 5)
        assert curve.xs == (-1.0, -0.5, 0.0, 0.5, 1.0)

    def test_categorical_rejected(self):
        space = ck.FeatureSpace(
            (ck.FeatureSpec.categorical("c", ["a", "b"]), ck.FeatureSpec.numeric("x", 0, 1))
        )
        pred = ck.FunctionPredictor(lambda m: m[:, 1])
        with pytest.raises(ck.ConfigError, match="'c' is categorical"):
            ck.ceteris_paribus_curve(pred, space, space.instance(["a", 0.5]), 0, 10)

    def test_too_small_grid_rejected(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ck.ConfigError, match="^grid_size must be an int >= 2, got 1$"):
            ck.ceteris_paribus_curve(pred, space, x, 0, 1)


class TestUniformInstances:
    def test_numeric_space_matches_drawing_each_value_in_turn(self):
        space = ck.FeatureSpace(
            (
                ck.FeatureSpec.numeric("a", -2.0, 3.0),
                ck.FeatureSpec.numeric("b", 0.0, 1.0),
                ck.FeatureSpec.numeric("c", 10.0, 11.0),
            )
        )
        rows = ck.uniform_instances(space, 500, ck.SeededRng(4))
        gen = ck.SeededRng(4).generator()
        expected = [tuple(float(gen.uniform(f.min, f.max)) for f in space) for _ in range(500)]
        assert [r.values for r in rows] == expected

    def test_mixed_space_values_and_types(self):
        space = ck.FeatureSpace(
            (
                ck.FeatureSpec.categorical("c", ["a", "b", "d"]),
                ck.FeatureSpec.numeric("x", -1.0, 2.0),
                ck.FeatureSpec.categorical("e", ["only"]),
            )
        )
        rows = ck.uniform_instances(space, 300, 2)
        for row in rows:
            c, x, e = row.values
            assert type(c) is str and c in ("a", "b", "d")
            assert type(x) is float and -1.0 <= x <= 2.0
            assert e == "only"
        assert {row.values[0] for row in rows} == {"a", "b", "d"}
        assert rows == ck.uniform_instances(space, 300, 2)

    def test_count_must_be_positive(self, linear_bundle):
        _, space, _ = linear_bundle
        with pytest.raises(ck.ConfigError):
            ck.uniform_instances(space, 0)


# Per-row reference builders: one Instance per perturbed row, from the same
# streams as the library's matrix-backed builders and the CIU kernel.


def reference_sample_set(space, x, feature, n, rng):
    feat = space[feature]
    if feat.is_numeric:
        gen = ck.as_rng(rng).generator()
        rows = [x, replaced(x, feature, feat.min), replaced(x, feature, feat.max)]
        rows += [replaced(x, feature, float(v)) for v in gen.uniform(feat.min, feat.max, size=n)]
        return rows, 0
    return [replaced(x, feature, lev) for lev in feat.levels], feat.levels.index(x.values[feature])


def reference_grid(space, x, feature, grid_size):
    feat = space[feature]
    return [replaced(x, feature, float(v)) for v in np.linspace(feat.min, feat.max, grid_size)]


def reference_uniform(space, count, rng):
    gen = ck.as_rng(rng).generator()
    numeric = [f for f in space if f.is_numeric]
    categorical = [f for f in space if not f.is_numeric]
    draws = gen.uniform(
        [f.min for f in numeric], [f.max for f in numeric], size=(count, len(numeric))
    )
    codes = gen.integers(0, [len(f.levels) for f in categorical], size=(count, len(categorical)))
    rows = []
    for r in range(count):
        num, cat = iter(draws[r].tolist()), iter(codes[r].tolist())
        rows.append(ck.Instance(tuple(
            next(num) if f.is_numeric else f.levels[next(cat)] for f in space
        )))
    return rows


def reference_corners(space):
    numeric = [i for i, f in enumerate(space) if f.is_numeric][:12]
    rows = []
    for bits in itertools.product((0, 1), repeat=len(numeric)):
        inst = space.midpoint()
        for i, bit in zip(numeric, bits):
            inst = replaced(inst, i, space[i].max if bit else space[i].min)
        rows.append(inst)
    return rows


class TestMatchesPerRowReference:
    """The matrix-backed builders decode to exactly the rows, value types
    and order of a builder that makes one Instance per row."""

    @pytest.mark.parametrize("feature", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_build_sample_set(self, feature, seed):
        space = mixed_space()
        x = space.instance([1.25, "q", 0.3])
        sets, intervals, _ = sample_sets(space, [x], n=40, seed=seed)
        stream = ck.SeededRng(seed).spawn(0).spawn(feature)
        ref, ref_position = reference_sample_set(space, x, feature, 40, stream)
        assert exact(sets[0][feature]) == exact(ref)
        assert sets[0][feature] == ref
        first = int(intervals[0, 0, feature])
        assert intervals[1, 0, feature] == first + len(ref) - 1
        assert intervals[2, 0, feature] == first + ref_position

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_ciu_sample_sets(self, monkeypatch, seed):
        monkeypatch.setattr(engine, "_CHUNK", 300)  # 3 instances of 89 rows per batch
        space = mixed_space()
        xs = [
            space.instance(v)
            for v in ([1.25, "q", 0.3], [-3.0, "p", 0.5], [2, "r", 1], [0.0, "r", -0.25],
                      [-1.0, "p", 7.0], [0.5, "q", 0.0], [1.75, "p", 0.999])
        ]
        sets, intervals, batches = sample_sets(space, xs, n=40, seed=seed)
        assert batches == [3 * 89, 3 * 89, 89]
        at = 0
        for r, x in enumerate(xs):
            for i in range(len(space)):
                stream = ck.SeededRng(seed).spawn(r).spawn(i)
                ref, position = reference_sample_set(space, x, i, 40, stream)
                assert exact(sets[r][i]) == exact(ref)
                assert intervals[:, r, i].tolist() == [at, at + len(ref) - 1, at + position]
                at += len(ref)

    @pytest.mark.parametrize("feature,size", [(0, 101), (2, 1025), (2, 2)])
    def test_ceteris_paribus_grid(self, feature, size):
        """The what-if curve sends its grid's rows, then x's, in one call."""
        space = mixed_space()
        x = space.instance([-0.5, "r", 0.9])
        batches = []

        class Recording(ck.Predictor):
            def evaluate(self, rows):
                batches.append(list(rows))
                return np.zeros((len(rows), 1))

        curve = ck.ceteris_paribus_curve(Recording(), space, x, feature, size)
        want = reference_grid(space, x, feature, size) + [x]
        assert [exact(b) for b in batches] == [exact(want)]
        assert curve.xs == tuple(g.values[feature] for g in want[:-1])

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_uniform_instances(self, seed):
        for space in (mixed_space(), ck.reference_feature_space()):
            rows = ck.uniform_instances(space, 257, ck.SeededRng(seed))
            assert exact(rows) == exact(reference_uniform(space, 257, ck.SeededRng(seed)))

    def test_corner_instances(self):
        for space in (mixed_space(), ck.reference_feature_space()):
            assert exact(corner_instances(space)) == exact(reference_corners(space))
