import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ciukit as ck
from ciukit.core import evaluate_rows
from ciukit.engine import _ciu
from conftest import (
    exact_tree_interval,
    expected_nonlinear_ciu,
    term_extremes,
    write_classification_csv,
)


@pytest.fixture
def linear_mid(linear_bundle):
    _, space, _ = linear_bundle
    return space.instance([0.5, 0.5, 0.5, 0.5])


def _reference_ciu(ymin, ymax, y, spec, phi0):
    """The scalar CIU formulas, one interval at a time on Python floats:
    the reference the array kernel must match bit for bit."""
    width = spec.out_max - spec.out_min
    ci = (ymax - ymin) / width
    degenerate = ymax == ymin
    if degenerate:
        cu = 0.0
    else:
        yumin = ymin if spec.a > 0 else ymax
        cu = abs(y - yumin) / (ymax - ymin)
    tol = 1e-9 * max(1.0, abs(width))
    instability = ymin < spec.out_min - tol or ymax > spec.out_max + tol
    return ci, cu, ci * (cu - phi0), degenerate, instability


def kernel(ymin, ymax, y, out_min=0.0, out_max=1.0, a=1.0, phi0=0.5):
    """The kernel's five arrays as Python lists."""
    spec = ck.OutputSpec("y", a=a, out_min=out_min, out_max=out_max)
    arrays = [np.asarray(v, dtype=float) for v in (ymin, ymax, y)]
    return [c.tolist() for c in _ciu(*arrays, spec, phi0)]


@st.composite
def intervals(draw):
    """(ymin, ymax, y) with ymin <= y <= ymax, degenerate ones included."""
    finite = st.floats(-1e3, 1e3)
    if draw(st.booleans()):
        v = draw(finite)
        return v, v, v
    lo, mid, hi = sorted(draw(finite) for _ in range(3))
    return lo, hi, mid


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4)),  # (instances, d)
    a_sign=st.sampled_from([1.0, -1.0]),
    phi0=st.floats(0.0, 1.0),
    out_min=st.floats(-1e3, 1e3),
    width=st.floats(1e-3, 2e3),
)
def test_kernel_matches_scalar_formulas_bit_for_bit(data, shape, a_sign, phi0, out_min, width):
    spec = ck.OutputSpec("y", a=a_sign, out_min=out_min, out_max=out_min + width)
    size = shape[0] * shape[1]
    cells = data.draw(st.lists(intervals(), min_size=size, max_size=size))
    want = [_reference_ciu(*c, spec, phi0) for c in cells]
    for s in ((size,), shape):
        arrays = [np.array(col).reshape(s) for col in zip(*cells)]
        got = [c.ravel().tolist() for c in _ciu(*arrays, spec, phi0)]
        for k, ref in enumerate(want):
            row = tuple(col[k] for col in got)
            assert row == ref
            # == does not see the sign of a zero; the bytes do
            assert struct.pack("3d", *row[:3]) == struct.pack("3d", *ref[:3])


class TestEstimateMinmax:
    """The per-feature interval [ymin, ymax] and y that explain_instance finds."""

    def test_linear_first_feature_exact(self, linear_bundle, linear_mid):
        pred, space, util = linear_bundle
        exp = ck.explain_instance(pred, util, space, linear_mid, n=100, rng=1)
        assert exp.ymin[0] == pytest.approx(0.3, abs=1e-12)
        assert exp.ymax[0] == pytest.approx(0.7, abs=1e-12)
        assert exp.y == pytest.approx(0.5, abs=1e-12)

    def test_constant_predictor(self, linear_bundle, linear_mid):
        _, space, util = linear_bundle
        pred = ck.FunctionPredictor(lambda x: np.full(len(x), 2.5))
        exp = ck.explain_instance(pred, util, space, linear_mid, n=10, rng=1)
        assert exp.ymin[1] == exp.ymax[1] == exp.y == 2.5
        assert exp.degenerate[1] and exp.ci[1] == exp.cu[1] == 0.0

    def test_nonlinear_interior_extremum(self, nonlinear_resolved):
        # The fourth term has its minimum inside the interval, not at an
        # endpoint, so random draws must find it approximately.
        pred, space, util = nonlinear_resolved
        x = space.instance([0.63, 0.63, 0.59, 0.81])
        exp = ck.explain_instance(pred, util, space, x, n=1000, rng=5)
        lo, hi = term_extremes(3)
        assert (exp.ymax[3] - exp.ymin[3]) == pytest.approx(hi - lo, abs=0.01)
        assert (exp.ymax[3] - exp.ymin[3]) == pytest.approx(0.78125, abs=0.01)

    def test_monotone_exact_with_zero_draws(self, linear_bundle):
        pred, space, util = linear_bundle
        x = space.instance([0.9, 0.1, 0.7, 0.3])
        exp = ck.explain_instance(pred, util, space, x, n=0)
        got = evaluate_rows(pred, [x])[0, 0]
        assert exp.y == got
        assert exp.ymax[1] - exp.ymin[1] == pytest.approx(0.3, abs=1e-12)


class TestCiuFormulas:
    """The array kernel, on hand-picked intervals."""

    def test_importance_fraction(self):
        ci = kernel([0.3, 0.5], [0.7, 0.5], [0.5, 0.5])[0]
        assert ci[0] == pytest.approx(0.4, abs=1e-12)
        assert ci[1] == 0.0

    def test_importance_can_exceed_one(self):
        ci, _, _, _, instability = kernel([-0.1], [1.3], [0.5])
        assert ci[0] == pytest.approx(1.4, abs=1e-12)  # reported as-is, not clamped
        assert instability == [True]

    def test_importance_published_nonlinear_value(self):
        # interval of width 1 against the oscillatory benchmark's full range
        ci = kernel([0.0], [1.0], [0.5], out_min=-0.825, out_max=2.29)[0]
        assert ci[0] == pytest.approx(0.321, abs=1e-3)

    def test_importance_errors(self, linear_bundle, linear_mid):
        pred, space, _ = linear_bundle
        with pytest.raises(ck.ConfigError):  # no declared or resolved range
            ck.explain_instance(pred, ck.OutputUtility.single("y"), space, linear_mid)

    def test_instability_tolerance(self):
        # rounding slack of 1e-9 times the range width, but never below 1e-9
        assert kernel([-5e-10, -2e-9], [0.005] * 2, [0.0] * 2, out_max=0.01)[4] == [False, True]
        assert kernel([0.5] * 2, [100 + 5e-8, 100 + 2e-7], [1.0] * 2, out_max=100.0)[4] == [
            False, True,
        ]

    def test_utility_position(self):
        cu = kernel([0.3] * 3, [0.7] * 3, [0.5, 0.3, 0.7])[1]
        assert cu[0] == pytest.approx(0.5, abs=1e-12)
        assert cu[1:] == [0.0, 1.0]

    def test_utility_negative_slope_counts_from_top(self):
        cu = kernel([0.3] * 2, [0.7] * 2, [0.5, 0.3], a=-1.0)[1]
        assert cu[0] == pytest.approx(0.5)
        assert cu[1] == 1.0

    def test_utility_published_fourth_term_value(self):
        # contribution -0.1232 inside the fourth term's reachable interval
        lo, hi = term_extremes(3)
        assert lo == pytest.approx(-0.28125, abs=1e-9)
        assert kernel([lo], [0.5], [-0.1232])[1][0] == pytest.approx(0.202, abs=1e-3)

    def test_utility_degenerate_interval(self):
        ci, cu, influence, degenerate, _ = kernel([1.0], [1.0], [1.0], out_max=2.0)
        assert ci == cu == [0.0] and degenerate == [True]
        assert math.copysign(1.0, cu[0]) == 1.0  # +0.0 ...
        assert math.copysign(1.0, influence[0]) == -1.0  # ... so 0 * (0 - phi0) is -0.0

    def test_influence_identity(self):
        influence = kernel([0.25, 0.0], [0.75, 0.3], [0.5, 0.1248])[2]
        assert influence[0] == 0.0
        assert influence[1] == pytest.approx(-0.0252, abs=1e-12)
        assert influence[1] == pytest.approx(-0.025, abs=1e-3)
        gen = np.random.Generator(np.random.PCG64(8))
        ymin, span, pos, phi0 = gen.uniform(0, 0.5, (4, 100))
        ci, cu, influence, _, _ = kernel(ymin, ymin + span, ymin + pos * span, phi0=phi0)
        assert influence == (np.array(ci) * (np.array(cu) - phi0)).tolist()

    def test_influence_range(self):
        # extreme cases pin the attainable interval [-phi0, 1 - phi0]
        assert kernel([0.0, 0.0], [1.0, 1.0], [0.0, 1.0])[2] == [-0.5, 0.5]


class TestExplainInstance:
    def test_linear_exact_midpoint(self, linear_bundle, linear_mid):
        pred, space, util = linear_bundle
        exp = ck.explain_instance(pred, util, space, linear_mid, n=100, rng=42)
        assert np.allclose(exp.ci, [0.4, 0.3, 0.2, 0.1], atol=1e-9)
        assert np.allclose(exp.cu, [0.5, 0.5, 0.5, 0.5], atol=1e-9)
        assert np.allclose(exp.influence, 0.0, atol=1e-9)
        assert exp.y == pytest.approx(0.5, abs=1e-12)
        assert all(exp.flags(i) == () for i in range(4))

    def test_nonlinear_matches_term_oracle(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        x = space.instance([0.63, 0.63, 0.59, 0.81])
        exp = ck.explain_instance(pred, util, space, x, n=1000, rng=42)
        spec = util.spec(0)
        want = expected_nonlinear_ciu(x.values, (spec.out_min, spec.out_max))
        for got_ci, got_cu, (ci, cu) in zip(exp.ci, exp.cu, want):
            assert got_ci == pytest.approx(ci, abs=5e-3)
            assert got_cu == pytest.approx(cu, abs=5e-3)

    def test_nonlinear_published_values(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        x = space.instance([0.63, 0.63, 0.59, 0.81])
        exp = ck.explain_instance(pred, util, space, x, n=1000, rng=42)
        assert np.allclose(exp.ci, [0.300, 0.128, 0.321, 0.251], atol=0.01)
        assert np.allclose(exp.cu, [0.416, 0.416, 0.348, 0.202], atol=0.01)
        assert np.allclose(exp.influence, [-0.025, -0.011, -0.049, -0.075], atol=0.01)
        assert exp.estimated_range

    def test_influence_is_ci_times_cu_offset(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        gen = np.random.Generator(np.random.PCG64(12))
        for phi0 in (0.0, 0.25, 0.5, 1.0):
            x = space.instance(tuple(gen.uniform(0, 1, 4)))
            exp = ck.explain_instance(pred, util, space, x, n=50, phi0=phi0, rng=3)
            for phi, ci, cu in zip(exp.influence, exp.ci, exp.cu):
                assert phi == ci * (cu - phi0)

    def test_bounds_invariants(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        gen = np.random.Generator(np.random.PCG64(13))
        for seed in range(10):
            x = space.instance(tuple(gen.uniform(0, 1, 4)))
            exp = ck.explain_instance(pred, util, space, x, n=30, rng=seed)
            for ymin, ymax, ci, cu in zip(exp.ymin, exp.ymax, exp.ci, exp.cu):
                assert ymin <= exp.y <= ymax
                assert 0.0 <= cu <= 1.0
                assert ci >= 0.0

    def test_degenerate_ignored_feature(self):
        space = ck.reference_feature_space()
        pred = ck.FunctionPredictor(lambda x: x @ np.asarray([0.5, 0.3, 0.2, 0.0]))
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
        exp = ck.explain_instance(pred, util, space, space.instance([0.5] * 4), rng=1)
        assert exp.ci[3] == 0.0 and exp.cu[3] == 0.0 and exp.influence[3] == 0.0
        assert exp.degenerate[3] and "degenerate" in exp.flags(3)
        assert not exp.degenerate[0]

    def test_instability_flag_unclamped(self):
        # predictor leaves its declared [0, 1] range when x1 is pushed high
        space = ck.reference_feature_space()
        pred = ck.FunctionPredictor(lambda x: 1.2 * x[:, 0] + 0.05 * x[:, 1])
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
        exp = ck.explain_instance(pred, util, space, space.instance([0.5, 0.5, 0.5, 0.5]), rng=1)
        assert exp.instability[0] and "instability" in exp.flags(0)
        assert exp.ci[0] == pytest.approx(1.2, abs=1e-9)  # reported, not clamped
        assert exp.ymax[0] == pytest.approx(1.225, abs=1e-9)
        assert not exp.instability[1]

    def test_categorical_matches_exhaustive_enumeration(self):
        space = ck.FeatureSpace(
            (
                ck.FeatureSpec.categorical("c1", ["a", "b"]),
                ck.FeatureSpec.categorical("c2", ["u", "v", "w"]),
                ck.FeatureSpec.categorical("c3", ["x", "y"]),
            )
        )
        table = {"a": 0.1, "b": 0.5, "u": 0.0, "v": 0.2, "w": 0.35, "x": 0.0, "y": 0.15}

        class Lookup(ck.Predictor):
            def evaluate(self, instances):
                return np.asarray([[sum(table[v] for v in i.values)] for i in instances])

        pred = Lookup()
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
        x = space.instance(["b", "v", "x"])
        exp = ck.explain_instance(pred, util, space, x, n=100, rng=9)
        y = evaluate_rows(pred, [x])[0, 0]
        for i, feat in enumerate(space):
            variants = [x.values[:i] + (lev,) + x.values[i + 1 :] for lev in feat.levels]
            ys = [evaluate_rows(pred, [space.instance(v)])[0, 0] for v in variants]
            ci = (max(ys) - min(ys)) / 1.0
            cu = 0.0 if max(ys) == min(ys) else (y - min(ys)) / (max(ys) - min(ys))
            assert exp.ci[i] == ci
            assert exp.cu[i] == cu

    def test_seed_determinism(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        x = space.instance([0.2, 0.8, 0.4, 0.6])
        a = ck.explain_instance(pred, util, space, x, n=200, rng=5)
        b = ck.explain_instance(pred, util, space, x, n=200, rng=5)
        c = ck.explain_instance(pred, util, space, x, n=200, rng=6)
        assert a == b
        assert (a.ymin, a.ymax) != (c.ymin, c.ymax)  # interior extrema move with the draws

    def test_explanation_is_a_value(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        x = space.instance([0.2, 0.8, 0.4, 0.6])
        a, b, c = (ck.explain_instance(pred, util, space, x, n=50, rng=s) for s in (5, 5, 6))
        assert a == b and hash(a) == hash(b)
        assert a != c
        kinds = {"ci": float, "cu": float, "influence": float, "ymin": float, "ymax": float,
                 "degenerate": bool, "instability": bool}
        for name, kind in kinds.items():
            column = getattr(a, name)
            assert type(column) is tuple and len(column) == len(space)
            assert all(type(v) is kind for v in column), name
        assert type(a.y) is float

    def test_phi0_validation(self, linear_bundle, linear_mid):
        pred, space, util = linear_bundle
        with pytest.raises(ck.ConfigError):
            ck.explain_instance(pred, util, space, linear_mid, phi0=1.5)

    @pytest.mark.parametrize("n", [-1, -3])  # -3 leaves numeric sample sets no rows
    def test_negative_sample_count_rejected(self, linear_bundle, linear_mid, n):
        pred, space, util = linear_bundle
        with pytest.raises(ck.ConfigError, match=f"^n must be an int >= 0, got {n}$"):
            ck.explain_instance(pred, util, space, linear_mid, n=n)
        with pytest.raises(ck.ConfigError, match=f"^n must be an int >= 0, got {n}$"):
            ck.global_ci(pred, util, space, [linear_mid] * 3, n=n)

    def test_unresolved_range_rejected(self, nonlinear_bundle, linear_mid):
        pred, space, util = nonlinear_bundle
        with pytest.raises(ck.ConfigError):
            ck.explain_instance(pred, util, space, linear_mid)

    def test_json_schema_keys(self, linear_bundle, linear_mid):
        pred, space, util = linear_bundle
        doc = ck.explain_instance(pred, util, space, linear_mid, rng=3).to_json_dict()
        assert doc["output"] == 0 and doc["phi0"] == 0.5 and doc["seed"] == 3
        assert isinstance(doc["y"], float)
        for entry in doc["features"]:
            for key in ("name", "ci", "cu", "influence", "ymin", "ymax", "flags"):
                assert key in entry


class TestExactTreeIntervals:
    """Sampled CIU intervals of a tree ensemble against the exact ones."""

    def test_sampled_intervals_lie_inside_the_exact_ones(self, tmp_path):
        ds = ck.load_csv(write_classification_csv(tmp_path / "d.csv", n=200), "label")
        model = ck.train_ensemble(ds, ck.TreeParams(n_trees=10, max_depth=4), rng=1)
        util = ds.utility()
        shortfall = 0.0
        for r in range(20):
            x = ds.rows[r]
            exp = ck.explain_instance(model, util, ds.space, x, output=0, n=100, rng=42)
            for i, feat in enumerate(ds.space):
                lo, hi = exact_tree_interval(model, x, i, output=0)
                assert lo <= exp.ymin[i] and exp.ymax[i] <= hi
                if not feat.is_numeric:  # every level is sampled: exact
                    assert (exp.ymin[i], exp.ymax[i]) == (lo, hi)
                shortfall = max(shortfall, (hi - lo) - (exp.ymax[i] - exp.ymin[i]))
        # n = 100 uniform draws miss steps narrower than their gaps, by up to
        # this share of the probability range; exact tree intervals make it 0
        assert shortfall == pytest.approx(0.09, abs=1e-9)


class TestCeterisParibusCurve:
    def test_linear_two_point_sweep(self, linear_bundle, linear_mid):
        pred, space, _ = linear_bundle
        curve = ck.ceteris_paribus_curve(pred, space, linear_mid, 0, grid_size=2)
        assert curve.xs == (0.0, 1.0)
        assert curve.ys[0] == pytest.approx(0.3, abs=1e-12)
        assert curve.ys[1] == pytest.approx(0.7, abs=1e-12)
        assert curve.x_value == 0.5
        assert curve.y_value == pytest.approx(0.5, abs=1e-12)

    def test_neutral_level_annotation(self, linear_bundle, linear_mid):
        pred, space, _ = linear_bundle
        curve = ck.ceteris_paribus_curve(pred, space, linear_mid, 0, grid_size=11, phi0=0.5)
        assert curve.y_u0 == pytest.approx(curve.ymin + 0.5 * (curve.ymax - curve.ymin))

    def test_flat_curve(self, linear_bundle, linear_mid):
        _, space, _ = linear_bundle
        pred = ck.FunctionPredictor(lambda x: np.full(len(x), 1.0))
        curve = ck.ceteris_paribus_curve(pred, space, linear_mid, 0)
        assert curve.ymin == curve.ymax == curve.y_u0 == 1.0

    def test_curve_extremes_match_estimate(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        x = space.instance([0.63, 0.63, 0.59, 0.81])
        curve = ck.ceteris_paribus_curve(pred, space, x, 3, grid_size=101)
        exp = ck.explain_instance(pred, util, space, x, n=1000, rng=2)
        assert curve.ymin == pytest.approx(exp.ymin[3], abs=0.01)
        assert curve.ymax == pytest.approx(exp.ymax[3], abs=0.01)

    @pytest.mark.parametrize("model", ["nonlinear", "tree"])
    def test_grid_and_instance_go_in_one_call(self, tmp_path, model):
        if model == "nonlinear":
            inner, space, _ = ck.builtin_model("nonlinear")
            x = space.instance([0.63, 0.63, 0.59, 0.81])
        else:
            data = ck.load_csv(write_classification_csv(tmp_path / "d.csv", n=120), "label")
            inner = ck.train_ensemble(data, ck.TreeParams(5, 4), rng=3)
            space, x = data.space, data.rows[7]
        calls = []

        class Recording(ck.Predictor):
            n_outputs = inner.n_outputs

            def evaluate(self, instances):
                calls.append(len(instances))
                return inner.evaluate(instances)

        curve = ck.ceteris_paribus_curve(Recording(), space, x, 0, grid_size=11)
        assert calls == [12]  # 11 grid rows, then x
        grid = [space.instance((v, *x.values[1:])) for v in curve.xs]
        assert curve.ys == tuple(evaluate_rows(inner, grid)[:, 0].tolist())
        assert curve.y_value == evaluate_rows(inner, [x])[0, 0]

    def test_errors(self, linear_bundle, linear_mid):
        pred, space, _ = linear_bundle
        with pytest.raises(ck.ConfigError):
            ck.ceteris_paribus_curve(pred, space, linear_mid, 0, grid_size=1)
        cat_space = ck.FeatureSpace(
            (ck.FeatureSpec.categorical("c", ["a", "b"]), ck.FeatureSpec.numeric("x", 0, 1))
        )
        cat_pred = ck.FunctionPredictor(lambda x: x[:, 1])
        with pytest.raises(ck.ConfigError):
            ck.ceteris_paribus_curve(cat_pred, cat_space, cat_space.instance(["a", 0.5]), 0)
