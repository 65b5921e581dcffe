import ast
import dataclasses
import inspect
import json
import math
import re
import warnings
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ciukit as ck
from ciukit.core import config_from_json, evaluate_rows, sample_sd
from conftest import (
    LINEAR_WEIGHTS,
    MixedModel,
    exact,
    mixed_space,
    nonlinear_joint_range,
    nonlinear_value,
    replaced,
)


class TestReferencePredictors:
    def test_linear_known_points(self, linear_bundle):
        pred, space, _ = linear_bundle
        ys = evaluate_rows(pred, [space.instance([v] * 4) for v in (0.5, 0, 1)])[:, 0]
        assert ys == pytest.approx([0.5, 0.0, 1.0], abs=1e-12)

    def test_linear_matches_dot_oracle(self, linear_bundle):
        pred, space, _ = linear_bundle
        gen = np.random.Generator(np.random.PCG64(3))
        pts = gen.uniform(0, 1, size=(500, 4))
        got = pred.evaluate([ck.Instance(tuple(p)) for p in pts])[:, 0]
        want = pts @ np.asarray(LINEAR_WEIGHTS)
        assert np.allclose(got, want, atol=1e-12)

    def test_nonlinear_known_points(self, nonlinear_bundle):
        pred, space, _ = nonlinear_bundle
        x = space.instance([0.63, 0.63, 0.59, 0.81])
        y, zeros, ones = evaluate_rows(pred, [x, space.instance([0] * 4), space.instance([1] * 4)])
        assert y[0] == pytest.approx(0.235, abs=1e-3)
        assert zeros[0] == pytest.approx(0.0, abs=1e-12)
        assert ones[0] == pytest.approx(math.sin(10.0) + 1.5, abs=1e-12)

    def test_nonlinear_matches_term_oracle(self, nonlinear_bundle):
        pred, space, _ = nonlinear_bundle
        gen = np.random.Generator(np.random.PCG64(4))
        for _ in range(200):
            vals = tuple(gen.uniform(0, 1, 4))
            got = evaluate_rows(pred, [ck.Instance(vals)])[0, 0]
            assert got == pytest.approx(nonlinear_value(vals), abs=1e-12)

    def test_unknown_builtin(self):
        with pytest.raises(ck.ConfigError):
            ck.builtin_model("cubic")


class TestFeatureSpecs:
    def test_numeric_bounds_validation(self):
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpec.numeric("x", 1.0, 1.0)
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpec.numeric("x", 2.0, 1.0)
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpec.numeric("x", 0.0, math.inf)
        # finite bounds whose width (max - min) or sum (min + max) overflows
        for lo, hi in [(-1.7e308, 1.7e308), (1e308, 1.7e308)]:
            with pytest.raises(ck.ConfigError, match="width and midpoint"):
                ck.FeatureSpec.numeric("x", lo, hi)
        ck.FeatureSpec.numeric("x", -8e307, 8e307)

    def test_categorical_levels_validation(self):
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpec.categorical("c", [])
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpec.categorical("c", ["a", "a"])
        spec = ck.FeatureSpec.categorical("c", ["a", "b"])
        assert spec.levels == ("a", "b")
        assert not spec.is_numeric

    def test_unknown_kind_and_empty_name(self):
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpec("x", "ordinal")
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpec.numeric("", 0, 1)

    def test_space_uniqueness(self):
        f = ck.FeatureSpec.numeric("x", 0, 1)
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpace((f, f))
        with pytest.raises(ck.ConfigError):
            ck.FeatureSpace(())

    def test_space_index(self, linear_bundle):
        _, space, _ = linear_bundle
        assert space.index("x3") == 2
        with pytest.raises(ck.ConfigError):
            space.index("nope")


class TestInstances:
    def test_arity_check(self, linear_bundle):
        _, space, _ = linear_bundle
        with pytest.raises(ck.ConfigError):
            space.instance([0.5, 0.5])

    def test_out_of_range_accepted_not_rejected(self, linear_bundle):
        _, space, _ = linear_bundle
        assert space.instance([1.5, 0.5, -0.5, 0.5]) == ck.Instance((1.5, 0.5, -0.5, 0.5))

    def test_bad_categorical_label_rejected(self):
        space = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("x", 0, 1), ck.FeatureSpec.categorical("c", ["a", "b"]))
        )
        with pytest.raises(ck.ConfigError):
            space.instance([0.5, "z"])

    def test_non_numeric_value_rejected(self, linear_bundle):
        _, space, _ = linear_bundle
        with pytest.raises(ck.ConfigError):
            space.instance(["high", 0.5, 0.5, 0.5])
        with pytest.raises(ck.ConfigError):
            space.instance([math.nan, 0.5, 0.5, 0.5])

    def test_numbers_are_python_or_numpy_numbers(self, linear_bundle):
        _, space, _ = linear_bundle
        with pytest.raises(ck.ConfigError, match="'x1': value must be a finite number"):
            space.instance(["0.5", 0.5, 0.5, 0.5])
        with pytest.raises(ck.ConfigError, match="'x1': value must be a finite number"):
            space.instance([True, 0.5, 0.5, 0.5])
        inst = space.instance([np.float64(0.1), np.int64(3), 2, np.float32(0.25)])
        assert inst.values == (0.1, 3.0, 2.0, 0.25)
        assert all(type(v) is float for v in inst.values)

    def test_replaced(self, linear_bundle):
        # Instances are frozen: a changed copy leaves the original as it was.
        _, space, _ = linear_bundle
        inst = space.instance([0.1, 0.2, 0.3, 0.4])
        other = dataclasses.replace(inst, values=(0.1, 0.2, 0.9, 0.4))
        assert other.values == (0.1, 0.2, 0.9, 0.4)
        assert inst.values[2] == 0.3
        with pytest.raises(dataclasses.FrozenInstanceError):
            inst.values = other.values

    def test_midpoint(self):
        space = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("x", -2, 4), ck.FeatureSpec.categorical("c", ["a", "b"]))
        )
        assert space.midpoint().values == (1.0, "a")


class TestOutputUtility:
    def test_slope_must_be_nonzero(self):
        with pytest.raises(ck.ConfigError):
            ck.OutputSpec("y", a=0.0)

    def test_range_order(self):
        with pytest.raises(ck.ConfigError):
            ck.OutputSpec("y", out_min=1.0, out_max=1.0)

    @pytest.mark.parametrize("name", [5, "", None, ["y"]])
    def test_name_must_be_a_non_empty_string(self, name):
        message = f"output name {name!r} must be a non-empty string"
        with pytest.raises(ck.ConfigError, match=f"^{re.escape(message)}$"):
            ck.OutputSpec(name)

    def test_range_width(self):
        util = ck.OutputUtility.single("y", out_min=-1.0, out_max=3.0)
        assert util.range_width(0) == 4.0
        with pytest.raises(ck.ConfigError):
            util.range_width(1)

    def test_undeclared_width_errors(self):
        util = ck.OutputUtility.single("y")
        with pytest.raises(ck.ConfigError):
            util.range_width(0)

    def test_classification_convention(self):
        util = ck.OutputUtility.classification(["no", "yes"])
        assert util.n_outputs == 2
        spec = util.spec(1)
        assert (spec.a, spec.b, spec.out_min, spec.out_max) == (1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ck.ConfigError, match="^output index True out of range$"):
            util.spec(True)  # a bool is no index, though True == 1


class TestOutputRange:
    def test_declared_linear(self, linear_bundle):
        pred, space, util = linear_bundle
        est = ck.resolve_utility(pred, space, util).spec(0)
        assert (est.out_min, est.out_max, est.estimated) == (0.0, 1.0, False)

    def test_estimated_nonlinear_matches_oracle(self, nonlinear_bundle):
        pred, space, util = nonlinear_bundle
        est = ck.resolve_utility(pred, space, util, budget=10000, rng=7).spec(0)
        lo, hi = nonlinear_joint_range()
        assert est.estimated
        assert est.out_min == pytest.approx(lo, abs=5e-3)
        assert est.out_max == pytest.approx(hi, abs=5e-3)
        # the published summary of this interval
        assert est.out_min == pytest.approx(-0.825, abs=0.01)
        assert est.out_max == pytest.approx(2.29, abs=0.01)

    def test_estimate_is_inner_approximation(self, nonlinear_bundle):
        # every reported bound was actually produced by the predictor
        pred, space, util = nonlinear_bundle
        lo, hi = nonlinear_joint_range()
        est = ck.resolve_utility(pred, space, util, budget=2000, rng=11).spec(0)
        assert est.out_min >= lo - 1e-9
        assert est.out_max <= hi + 1e-9

    def test_constant_predictor_degenerate(self):
        space = ck.builtin_model("linear")[1]
        pred = ck.FunctionPredictor(lambda x: np.full(len(x), 3.0))
        util = ck.OutputUtility.single("y")
        with pytest.raises(ck.DegenerateRangeError):
            ck.resolve_utility(pred, space, util, budget=500, rng=1).spec(0)

    def test_zero_budget_errors(self, nonlinear_bundle):
        pred, space, util = nonlinear_bundle
        with pytest.raises(ck.ConfigError):
            ck.resolve_utility(pred, space, util, budget=0).spec(0)

    def test_estimation_deterministic(self, nonlinear_bundle):
        pred, space, util = nonlinear_bundle
        a = ck.resolve_utility(pred, space, util, budget=2000, rng=5).spec(0)
        b = ck.resolve_utility(pred, space, util, budget=2000, rng=5).spec(0)
        assert a == b

    def test_resolve_utility_marks_estimated(self, nonlinear_bundle):
        pred, space, util = nonlinear_bundle
        resolved = ck.resolve_utility(pred, space, util, budget=5000, rng=7)
        spec = resolved.spec(0)
        assert spec.estimated and spec.out_min is not None
        # declared ranges pass through untouched
        lin_pred, _, lin_util = ck.builtin_model("linear")
        same = ck.resolve_utility(lin_pred, space, lin_util)
        assert same.spec(0) == lin_util.spec(0)
        # the range budget is read only for an output it estimates
        assert ck.resolve_utility(lin_pred, space, lin_util, budget=0) == lin_util

    def test_categorical_space_estimation(self):
        space = ck.FeatureSpace(
            (
                ck.FeatureSpec.categorical("c", ["a", "b", "d"]),
                ck.FeatureSpec.numeric("x", 0.0, 1.0),
            )
        )

        class Peaky(ck.Predictor):
            def evaluate(self, instances):
                return np.asarray(
                    [[(2.0 if i.values[0] == "d" else 0.0) + i.values[1]] for i in instances]
                )

        est = ck.resolve_utility(Peaky(), space, ck.OutputUtility.single("y"), budget=200, rng=3)
        assert est.spec(0).out_min == pytest.approx(0.0, abs=1e-9)
        assert est.spec(0).out_max == pytest.approx(3.0, abs=1e-9)


class TestFunctionPredictor:
    def test_shape_mismatch_rejected(self):
        pred = ck.FunctionPredictor(lambda x: np.zeros((len(x), 3)), n_outputs=2)
        with pytest.raises(ck.DataFormatError):
            pred.evaluate([ck.Instance((0.5, 0.5))])

    def test_categorical_values_rejected(self):
        pred = ck.FunctionPredictor(lambda x: x[:, 0])
        with pytest.raises(ck.ConfigError):
            pred.evaluate([ck.Instance(("a", 0.5))])

    def test_multi_output(self):
        pred = ck.FunctionPredictor(
            lambda x: np.column_stack([x[:, 0], 1.0 - x[:, 0]]), n_outputs=2
        )
        out = pred.evaluate([ck.Instance((0.3, 0.9))])
        assert out.shape == (1, 2)
        assert out[0, 1] == pytest.approx(0.7)


def _unit_square():
    return ck.FeatureSpace(
        (ck.FeatureSpec.numeric("a", 0.0, 1.0), ck.FeatureSpec.numeric("b", 0.0, 1.0))
    )


def _through_explain(pred, space):
    util = ck.OutputUtility.single("y", out_min=-5.0, out_max=5.0)
    ck.explain_instance(pred, util, space, space.instance([0.5, 0.5]), n=10)


def _through_shapley(pred, space):
    bg = ck.uniform_instances(space, 5, ck.SeededRng(1))
    ck.shapley_mc(pred, space, space.instance([0.5, 0.5]), bg, budget=5)


def _through_range(pred, space):
    ck.resolve_utility(pred, space, ck.OutputUtility.single("y"), budget=50)


ENTRY_POINTS = {
    "explain_instance": _through_explain,
    "shapley_mc": _through_shapley,
    "resolve_utility": _through_range,
}


class TestEvaluatorContract:
    """Every library call to a predictor goes through one checked path."""

    def test_empty_batch_has_output_columns(self):
        for n_outputs in (1, 3):
            pred = ck.FunctionPredictor(lambda x: x[:, :1] @ np.ones((1, n_outputs)), n_outputs)
            assert pred.evaluate([]).shape == (0, n_outputs)

        class NeverEmpty(ck.Predictor):
            n_outputs = 2

            def evaluate(self, instances):
                assert len(instances) > 0, "called with an empty batch"
                return np.zeros((len(instances), 2))

        assert evaluate_rows(NeverEmpty(), []).shape == (0, 2)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_wrong_shape_is_a_data_error(self, entry):
        class Flat(ck.Predictor):
            def evaluate(self, instances):
                return np.zeros(len(instances))  # 1-D: no output axis

        with pytest.raises(ck.DataFormatError, match="shape"):
            ENTRY_POINTS[entry](Flat(), _unit_square())

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_finite_output_is_a_data_error(self, entry):
        pred = ck.FunctionPredictor(lambda x: np.where(x[:, 0] >= 0.5, np.nan, x[:, 1]))
        with pytest.raises(ck.DataFormatError, match="non-finite"):
            ENTRY_POINTS[entry](pred, _unit_square())

    def test_instance_list_is_checked(self):
        pred = ck.FunctionPredictor(lambda x: np.full(len(x), np.nan))
        with pytest.raises(ck.DataFormatError, match="non-finite"):
            evaluate_rows(pred, [ck.Instance((0.5, 0.5))])

    def test_outputs_must_match_the_predictor(self, nonlinear_bundle):
        pred, space, _ = nonlinear_bundle
        two = ck.OutputUtility((ck.OutputSpec("a"), ck.OutputSpec("b")))
        with pytest.raises(ck.ConfigError, match="2 outputs"):
            ck.resolve_utility(pred, space, two, budget=50)

    def test_large_batches_are_chunked(self):
        calls = []

        class Counting(ck.Predictor):
            def evaluate(self, instances):
                calls.append(len(instances))
                return np.ones((len(instances), 1))

        rows = [ck.Instance((0.0, 0.0))] * 70000
        assert evaluate_rows(Counting(), rows).shape == (70000, 1)
        assert calls == [65536, 70000 - 65536]


class TestRows:
    """The matrix-backed batch: a sized sequence of plain Instances."""

    def test_user_predictor_iterates_plain_instances(self):
        space = mixed_space()
        x = space.instance([0.5, "q", 0.25])
        pred = MixedModel()
        util = ck.OutputUtility.single("y", out_min=-2.0, out_max=2.0)
        ck.explain_instance(pred, util, space, x, n=6, rng=ck.SeededRng(3))
        # Every feature's sample set, in feature order, in one batch.
        assert len(pred.batches) == 1
        batch = pred.batches[0]
        assert all(type(r) is ck.Instance for r in batch)
        assert all((float, str, float) == tuple(type(v) for v in r.values) for r in batch)
        want = []
        for i, feat in enumerate(space):
            if feat.is_numeric:
                gen = ck.SeededRng(3).spawn(i).generator()
                varied = [x.values[i], feat.min, feat.max]
                varied += [float(v) for v in gen.uniform(feat.min, feat.max, size=6)]
            else:
                varied = list(feat.levels)
            want += [replaced(x, i, v) for v in varied]
        assert exact(batch) == exact(want)

    def test_decode_index_slice_and_equality(self):
        space = mixed_space()
        rows = ck.Rows(space, [[0.5, 2, 0.0], [-1.0, 0, 1.0], [3.0, 1, 0.5]])
        assert len(rows) == 3
        assert rows[1] == ck.Instance((-1.0, "p", 1.0))
        assert rows[-1] == ck.Instance((3.0, "q", 0.5))  # outside a's bounds: decoded as is
        assert isinstance(rows[1:], ck.Rows) and list(rows[1:]) == [rows[1], rows[2]]
        assert rows == ck.Rows(space, rows.matrix.copy())
        assert rows != ck.Rows(space, rows.matrix[::-1])
        with pytest.raises(IndexError):
            rows[3]
        with pytest.raises(ValueError):
            rows.matrix[0, 0] = 9.0  # read-only: a batch is a value

    def test_integer_index_decodes_any_other_index_gives_rows(self):
        space = mixed_space()
        rows = ck.Rows(space, [[0.5, 2, 0.0], [-1.0, 0, 1.0], [3.0, 1, 0.5]])
        for k in (1, -2, np.int64(1), np.intp(-2)):
            assert type(rows[k]) is ck.Instance and rows[k] == ck.Instance((-1.0, "p", 1.0))
        for index in (slice(0, 3, 2), [2, 0], np.array([2, 0]), np.array([0, 0, 2])):
            picked = rows[index]
            assert isinstance(picked, ck.Rows) and picked.space == space
            assert np.array_equal(picked.matrix, rows.matrix[index])
        assert list(rows[[2, 0]]) == [rows[2], rows[0]]
        assert len(rows[np.array([], dtype=int)]) == 0
        for k in (3, -4, np.int64(3)):
            with pytest.raises(IndexError):
                rows[k]

    @pytest.mark.parametrize("matrix", [[[0.5, 3, 0.5]], [[0.5, -1, 0.5]], [[0.5, 0.5, 0.5]],
                                        [[0.5, 1]]])
    def test_bad_matrix_rejected(self, matrix):
        with pytest.raises(ck.ConfigError):
            ck.Rows(mixed_space(), matrix)

    def test_undeclared_label_is_a_config_error(self):
        space = mixed_space()
        x = ck.Instance((0.5, "z", 0.5))  # built without the space's checks
        util = ck.OutputUtility.single("y", out_min=-2.0, out_max=2.0)
        with pytest.raises(ck.ConfigError, match="'c'"):
            ck.explain_instance(MixedModel(), util, space, x, n=3)
        with pytest.raises(ck.ConfigError, match="'c'"):
            ck.permutation_importance(MixedModel(), space, [x, x], [0.0, 0.0])
        with pytest.raises(ck.ConfigError, match="'c'"):
            ck.shapley_mc(MixedModel(), space, x, ck.uniform_instances(space, 5, 1), budget=3)
        with pytest.raises(ck.ConfigError, match="'c'"):
            ck.lime_surrogate(MixedModel(), space, x, rng=1)

    def test_large_batch_reaches_the_predictor_in_slices(self):
        seen = []

        class Recording(ck.Predictor):
            def evaluate(self, instances):
                seen.append(instances)
                return np.zeros((len(instances), 1))

        space = ck.builtin_model("linear")[1]
        rows = ck.uniform_instances(space, 65536 + 10, 1)
        assert evaluate_rows(Recording(), rows).shape == (65546, 1)
        assert [len(b) for b in seen] == [65536, 10]
        assert all(isinstance(b, ck.Rows) for b in seen)
        assert np.array_equal(np.vstack([b.matrix for b in seen]), rows.matrix)
        assert seen[1][0] == rows[65536]

    def test_as_rows_returns_a_rows_as_it_is(self):
        space = mixed_space()
        rows = ck.uniform_instances(space, 20, 5)
        assert ck.core.as_rows(space, rows) is rows  # no copy and no decode
        # the same encoding from the decoded instances
        assert ck.core.as_rows(space, list(rows)) == rows
        # a batch of another space is checked against this one
        other = ck.FeatureSpace((space[1], space[0], space[2]))
        with pytest.raises(ck.ConfigError, match="^feature 'c': label .* not in declared levels$"):
            ck.core.as_rows(other, rows)

    @pytest.mark.parametrize("seed", [0, 5, 91])
    def test_as_rows_round_trip(self, seed):
        space = mixed_space()
        rows = ck.uniform_instances(space, 50, seed)
        again = ck.core.as_rows(space, list(rows))
        assert again == rows and again is not rows
        assert ck.core.as_rows(space, []) == rows[:0]

    @pytest.mark.parametrize(
        "space",
        [
            ck.FeatureSpace(tuple(ck.FeatureSpec.numeric(f"x{k}", 0.0, 1.0) for k in (1, 2, 3))),
            ck.FeatureSpace(
                (
                    ck.FeatureSpec.categorical("c", ["p", "q"]),
                    ck.FeatureSpec.numeric("x1", 0.0, 1.0),
                    ck.FeatureSpec.numeric("x2", 0.0, 1.0),
                )
            ),
        ],
    )
    def test_first_bad_feature_is_named(self, space):
        x1, x2 = space.index("x1"), space.index("x2")
        matrix = np.zeros((4, 3))
        matrix[1, x2] = math.nan
        matrix[3, x1] = math.inf
        with pytest.raises(ck.ConfigError, match="^feature 'x1': value must be a finite number$"):
            ck.Rows(space, matrix)
        if "c" in space.names:
            matrix = np.zeros((4, 3))
            matrix[2, space.index("c")] = 2.0
            with pytest.raises(ck.ConfigError, match="^feature 'c': a label not in declared levels$"):
                ck.Rows(space, matrix)

    def test_non_finite_cell_rejected(self):
        space = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("a", 0.0, 1.0), ck.FeatureSpec.numeric("b", 0.0, 1.0))
        )
        for name, matrix in (("a", [[math.nan, 0.2], [math.inf, 0.3]]),
                             ("b", [[0.5, 0.2], [0.5, -math.inf]])):
            with pytest.raises(ck.ConfigError, match=f"^feature '{name}': value must be a finite"):
                ck.Rows(space, matrix)

    def test_categorical_batch_to_function_predictor(self):
        space = mixed_space()
        pred = ck.FunctionPredictor(lambda x: x[:, 0])
        rows = ck.uniform_instances(space, 5, 1)
        with pytest.raises(ck.ConfigError):
            pred.evaluate(rows)
        with pytest.raises(ck.ConfigError):
            ck.shapley_mc(pred, space, space.instance([0.0, "p", 0.5]), rows, budget=3)

    def test_function_gets_a_writable_c_ordered_copy(self):
        seen = []

        def fn(x):
            seen.append(x.flags.c_contiguous and x.flags.writeable)
            x[:] = 0.0  # allowed: it is the function's own copy
            return x[:, 0]

        space = ck.builtin_model("linear")[1]
        rows = ck.uniform_instances(space, 8, 2)
        before = rows.matrix.copy()
        ck.FunctionPredictor(fn).evaluate(rows)
        assert seen == [True] and np.array_equal(rows.matrix, before)

    def test_instance_level_evaluate_wrapper_sees_every_row(self, nonlinear_bundle):
        # A wrapper installed on the predictor object, as a tracer does, sees
        # each batch's length and every row's values.
        pred, space, _ = nonlinear_bundle
        pred = ck.FunctionPredictor(pred.fn)
        counts, values = [], []
        inner = pred.evaluate

        def wrapper(instances):
            counts.append(len(instances))
            values.extend(inst.values for inst in instances)
            return inner(instances)

        pred.evaluate = wrapper
        util = ck.OutputUtility.single("y", out_min=-2.0, out_max=2.0)
        x = space.instance([0.2, 0.4, 0.6, 0.8])
        background = ck.uniform_instances(space, 9, 4)
        ck.explain_instance(pred, util, space, x, n=10, rng=1)
        ck.shapley_mc(pred, space, x, background, budget=7, rng=2)
        assert counts == [13 * 4, 7 * 5, 9]  # the four sample sets share one call
        assert len(values) == sum(counts)
        assert all(type(v) is float for row in values for v in row)
        assert values[-9:] == [r.values for r in background]


# Rows that FeatureSpace.instance rejects, each in a batch of mixed_space
# behind one good row.
MALFORMED_ROWS = {
    "short": (0.5, "p"),
    "string-number": ("0.5", "p", 0.5),
    "bool-number": (True, "p", 0.5),
    "nan": (0.5, "q", math.nan),
    "undeclared-label": (0.5, "z", 0.5),
}


def _stump():
    split = {"feature": [0, -1, -1], "split": [0.5], "leaf": [1.0, 2.0]}  # x0 <= 0.5: 1.0, else 2.0
    return ck.TreeEnsemble(mixed_space(), [split], "regression")


_STUMP_UTILITY = ck.OutputUtility.single("y", 0.0, 3.0)


# Every entry point that takes a batch of instances, called on ``batch``.
BATCH_ENTRIES = {
    "shapley_mc-background": lambda space, x, batch: ck.shapley_mc(
        _stump(), space, x, batch, budget=3
    ),
    "permutation_importance": lambda space, x, batch: ck.permutation_importance(
        _stump(), space, batch, [0.0] * len(batch)
    ),
    "global_ci": lambda space, x, batch: ck.global_ci(
        _stump(), _STUMP_UTILITY, space, batch, n=3
    ),
    "global_mean_abs_shapley": lambda space, x, batch: ck.global_mean_abs_shapley(
        _stump(), space, batch, budget=3
    ),
    "run_global-rows": lambda space, x, batch: ck.run_global(
        _stump(), _STUMP_UTILITY, space, "ci", iterations=1,
        rows=batch, n=3,
    ),
    "run_stability-background": lambda space, x, batch: ck.run_stability(
        _stump(), _STUMP_UTILITY, space, x, "shapley-mc", runs=2,
        budgets=ck.Budgets(shapley_budget=3), background=batch,
    ),
    "TreeEnsemble.evaluate": lambda space, x, batch: _stump().evaluate(batch),
}


@pytest.mark.parametrize("row", MALFORMED_ROWS)
@pytest.mark.parametrize("entry", BATCH_ENTRIES)
def test_malformed_batch_is_a_config_error(entry, row):
    """Every batch argument is checked by FeatureSpace.instance, with its
    message: no IndexError, and no malformed row read as a number or a code."""
    space = mixed_space()
    x = space.instance([0.5, "q", 0.5])
    bad = ck.Instance(MALFORMED_ROWS[row])  # built without the space's checks
    with pytest.raises(ck.ConfigError) as want:
        space.instance(bad.values)
    with pytest.raises(ck.ConfigError) as got:
        BATCH_ENTRIES[entry](space, x, [x, bad])
    assert str(got.value) == str(want.value)
    # the same batch without the bad row is accepted
    BATCH_ENTRIES[entry](space, x, [x, space.instance([1.5, "r", 0.0])])


@pytest.mark.parametrize("entry", BATCH_ENTRIES)
def test_batch_item_that_is_not_an_instance_is_named(entry):
    space = mixed_space()
    x = space.instance([0.5, "q", 0.5])
    with pytest.raises(ck.ConfigError, match="^batch item 1: expected an Instance, got tuple$"):
        BATCH_ENTRIES[entry](space, x, [x, (0.5, "q", 0.5)])


# Every library entry point that takes an output index, called with ``output``.
OUTPUT_ENTRIES = {
    "shapley_mc": lambda pred, space, util, x, output: ck.shapley_mc(
        pred, space, x, [x], budget=2, output=output
    ),
    "lime_surrogate": lambda pred, space, util, x, output: ck.lime_surrogate(
        pred, space, x, 20, output=output
    ),
    "permutation_importance": lambda pred, space, util, x, output: ck.permutation_importance(
        pred, space, [x, x], [0.0, 0.0], output=output
    ),
    "ceteris_paribus_curve": lambda pred, space, util, x, output: ck.ceteris_paribus_curve(
        pred, space, x, 0, grid_size=3, output=output
    ),
    "global_mean_abs_shapley": lambda pred, space, util, x, output: ck.global_mean_abs_shapley(
        pred, space, [x, x], budget=2, output=output
    ),
    "run_stability": lambda pred, space, util, x, output: ck.run_stability(
        pred, util, space, x, "lime-surrogate", runs=2, budgets=ck.Budgets(lime_samples=20),
        output=output,
    ),
    "OutputUtility.spec": lambda pred, space, util, x, output: util.spec(output),
}


@pytest.mark.parametrize("output", [-1, 1, 1.5, True], ids=["negative", "n_outputs", "float", "bool"])
@pytest.mark.parametrize("entry", OUTPUT_ENTRIES)
def test_output_index_out_of_range(nonlinear_bundle, entry, output):
    pred, space, util = nonlinear_bundle  # one output
    x = space.instance([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ck.ConfigError, match=f"^output index {re.escape(str(output))} out of range$"):
        OUTPUT_ENTRIES[entry](pred, space, util, x, output)
    for good in (0, np.int64(0)):
        OUTPUT_ENTRIES[entry](pred, space, util, x, good)


FEATURE_ENTRIES = {
    "ceteris_paribus_curve": lambda pred, space, x, feature: ck.ceteris_paribus_curve(
        pred, space, x, feature, grid_size=3
    ),
}


@pytest.mark.parametrize("feature", [-1, 4, 1.5, True], ids=["negative", "n_features", "float", "bool"])
@pytest.mark.parametrize("entry", FEATURE_ENTRIES)
def test_feature_index_out_of_range(linear_bundle, entry, feature):
    pred, space, _ = linear_bundle  # four features
    x = space.instance([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ck.ConfigError, match=f"^feature index {re.escape(str(feature))} out of range$"):
        FEATURE_ENTRIES[entry](pred, space, x, feature)
    for good in (3, np.int64(3)):
        FEATURE_ENTRIES[entry](pred, space, x, good)


_PRED, _SPACE, _UTIL = ck.builtin_model("linear")
_MID = _SPACE.instance([0.5, 0.5, 0.5, 0.5])


# Every count argument of the library: (its name in the message, its least
# value, the call with the argument set to ``v``) on the linear builtin.
COUNT_ENTRIES = {
    "explain_instance-n": ("n", 0, lambda v: ck.explain_instance(
        _PRED, _UTIL, _SPACE, _MID, n=v
    )),
    "global_ci-n": ("n", 0, lambda v: ck.global_ci(_PRED, _UTIL, _SPACE, [_MID], n=v)),
    # The range estimate of an output after a declared one.
    "estimate_output_range-budget": ("range budget", 1, lambda v: ck.resolve_utility(
        ck.FunctionPredictor(lambda m: m[:, :2], 2), _SPACE,
        ck.OutputUtility((ck.OutputSpec("a", out_min=0, out_max=1), ck.OutputSpec("b"))),
        budget=v,
    )),
    "resolve_utility-budget": ("range budget", 1, lambda v: ck.resolve_utility(
        _PRED, _SPACE, ck.OutputUtility.single("y"), budget=v
    )),
    "uniform_instances-count": ("count", 1, lambda v: ck.uniform_instances(_SPACE, v)),
    "ceteris_paribus_curve-grid_size": ("grid_size", 2, lambda v: ck.ceteris_paribus_curve(
        _PRED, _SPACE, _MID, 0, v
    )),
    "shapley_mc-budget": ("budget", 1, lambda v: ck.shapley_mc(
        _PRED, _SPACE, _MID, [_MID], budget=v
    )),
    "global_mean_abs_shapley-budget": ("budget", 1, lambda v: ck.global_mean_abs_shapley(
        _PRED, _SPACE, [_MID], budget=v
    )),
    "lime_surrogate-n_samples": ("n_samples", 8, lambda v: ck.lime_surrogate(
        _PRED, _SPACE, _MID, n_samples=v
    )),
    "run_global-iterations": ("iterations", 1, lambda v: ck.run_global(
        _PRED, _UTIL, _SPACE, "ci", iterations=v, instances_per_iteration=2, n=2
    )),
    "run_global-instances_per_iteration": ("instances_per_iteration", 1, lambda v: ck.run_global(
        _PRED, _UTIL, _SPACE, "ci", iterations=1, instances_per_iteration=v, n=2
    )),
    "run_stability-runs": ("runs", 2, lambda v: ck.run_stability(
        _PRED, _UTIL, _SPACE, _MID, "contextual-influence", runs=v,
        budgets=ck.Budgets(ciu_samples=2),
    )),
    "TreeParams-n_trees": ("n_trees", 1, lambda v: ck.TreeParams(n_trees=v)),
    "TreeParams-max_depth": ("max_depth", 1, lambda v: ck.TreeParams(max_depth=v)),
    "TreeParams-min_leaf": ("min_leaf", 1, lambda v: ck.TreeParams(min_leaf=v)),
    "FunctionPredictor-n_outputs": ("n_outputs", 1, lambda v: ck.FunctionPredictor(
        lambda m: m[:, :1] @ np.ones((1, v)), v
    )),
}


@pytest.mark.parametrize("kind", ["below", "float", "bool"])
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_count_that_is_no_int_in_range(entry, kind):
    name, least, call = COUNT_ENTRIES[entry]
    value = {"below": least - 1, "float": 2.5, "bool": True}[kind]
    message = f"{name} must be an int >= {least}, got {value!r}"
    with pytest.raises(ck.ConfigError, match=f"^{re.escape(message)}$"):
        call(value)
    call(np.int64(least))


def test_counts_are_kept_as_python_ints():
    assert type(ck.TreeParams(n_trees=np.int64(3)).n_trees) is int
    assert type(ck.FunctionPredictor(lambda m: m[:, 0], np.int64(1)).n_outputs) is int


@pytest.mark.parametrize("entry", COUNT_ENTRIES)
@settings(max_examples=25, deadline=None)
@given(
    value=st.one_of(
        st.integers(-3, 12),  # larger counts only cost time and memory
        st.floats(),
        st.booleans(),
        st.integers(-3, 12).map(np.int64),
        st.integers(-3, 12).map(np.int32),
    )
)
def test_any_count_gives_a_result_or_a_config_error(entry, value):
    try:
        COUNT_ENTRIES[entry][2](value)
    except ck.ConfigError:
        pass


# Every number a public constructor or check_phi0 takes, given a value that
# is no finite number: (the call, the name its message gives).
NUMBER_ENTRIES = {
    "FeatureSpec.numeric-string": (lambda: ck.FeatureSpec.numeric("x", "a", 1), "feature 'x': min"),
    "FeatureSpec-strings": (lambda: ck.FeatureSpec("x", "numeric", "0", "1"), "feature 'x': min"),
    "FeatureSpec-bools": (lambda: ck.FeatureSpec("x", "numeric", False, True), "feature 'x': min"),
    "FeatureSpec-infinite": (lambda: ck.FeatureSpec.numeric("x", 0, math.inf), "feature 'x': max"),
    "OutputSpec-a-string": (lambda: ck.OutputSpec(a="x"), "output 'y': a"),
    "OutputSpec-b-bool": (lambda: ck.OutputSpec(b=True), "output 'y': b"),
    "OutputSpec-out_max-string": (lambda: ck.OutputSpec(out_min=0, out_max="1"), "output 'y': out_max"),
    "OutputSpec-out_max-infinite": (lambda: ck.OutputSpec(out_max=math.inf), "output 'y': out_max"),
    "explain_instance-phi0-bool": (lambda: ck.explain_instance(
        _PRED, _UTIL, _SPACE, _MID, phi0=True
    ), "phi0"),
    "explain_instance-phi0-string": (lambda: ck.explain_instance(
        _PRED, _UTIL, _SPACE, _MID, phi0="0.5"
    ), "phi0"),
}


@pytest.mark.parametrize("entry", NUMBER_ENTRIES)
def test_constructor_number_that_is_not_finite(entry):
    call, name = NUMBER_ENTRIES[entry]
    with pytest.raises(ck.ConfigError, match=f"^{re.escape(name)} must be a finite number$"):
        call()


def test_constructor_numbers_are_kept_as_floats():
    feat = ck.FeatureSpec.numeric("x", np.int64(0), 1)
    spec = ck.OutputSpec(a=np.int64(2), b=1, out_min=np.float32(0.5), out_max=2)
    assert all(type(v) is float for v in (feat.min, feat.max, spec.a, spec.b, spec.out_min, spec.out_max))
    assert (feat.min, feat.max, spec.a, spec.b, spec.out_min, spec.out_max) == (0, 1, 2, 1, 0.5, 2)


# Every length rule, each called with one item fewer than it needs.
LENGTH_ENTRIES = {
    "shapley_mc": ("background", 1, lambda: ck.shapley_mc(
        _PRED, _SPACE, _MID, []
    )),
    "permutation_importance": ("rows", 2, lambda: ck.permutation_importance(
        _PRED, _SPACE, [_MID], [0.5]
    )),
    "global_ci": ("instances", 1, lambda: ck.global_ci(_PRED, _UTIL, _SPACE, [])),
    "global_mean_abs_shapley": ("instances", 1, lambda: ck.global_mean_abs_shapley(
        _PRED, _SPACE, []
    )),
    "run_global": ("rows", 1, lambda: ck.run_global(_PRED, _UTIL, _SPACE, "ci", rows=[])),
    "train_ensemble": ("dataset", 2, lambda: ck.train_ensemble(
        ck.Dataset(_SPACE, ck.Rows(_SPACE, np.full((1, 4), 0.5)), (0.5,), "y", "regression")
    )),
    "StabilityReport": ("runs", 2, lambda: ck.StabilityReport(
        "shapley-mc", ("x1",), ((0.0,),), 0, ck.Budgets(), 0.5, 0
    )),
}


@pytest.mark.parametrize("entry", LENGTH_ENTRIES)
def test_too_short_a_sequence_is_named(entry):
    name, least, call = LENGTH_ENTRIES[entry]
    message = f"len({name}) must be an int >= {least}, got {least - 1}"
    with pytest.raises(ck.ConfigError, match=f"^{re.escape(message)}$"):
        call()


_X = {"name": "x", "type": "numeric", "min": 0, "max": 1}

BAD_CONFIGS = {
    "features-not-a-list": {"features": 5},
    "outputs-not-a-list": {"features": [_X], "outputs": 5},
    "outputs-entry-not-an-object": {"features": [_X], "outputs": ["y"]},
    "output-A-string": {"features": [_X], "outputs": [{"A": "up"}]},
    "output-b-list": {"features": [_X], "outputs": [{"b": [0.0]}]},
    "output-A-null": {"features": [_X], "outputs": [{"A": None}]},
    "output-min-string": {"features": [_X], "outputs": [{"min": "0", "max": 1}]},
    "output-max-infinite": {"features": [_X], "outputs": [{"min": 0, "max": float("inf")}]},
    "output-A-huge-integer": {"features": [_X], "outputs": [{"A": 10**400}]},
    "feature-min-string": {"features": [{**_X, "min": "zero"}]},
    "feature-bounds-bool": {"features": [{**_X, "min": False, "max": True}]},
    "feature-max-huge-integer": {"features": [{**_X, "max": 10**400}]},
    "levels-string": {"features": [{"name": "c", "type": "categorical", "levels": "abc"}]},
    "levels-numbers": {"features": [{"name": "c", "type": "categorical", "levels": [1, 2]}]},
    "name-number": {"features": [{**_X, "name": 7}]},
    "name-list": {"features": [{**_X, "name": ["x"]}]},
    "output-name-number": {"features": [_X], "outputs": [{"name": 5}]},
}


def test_imports_run_one_way():
    # Every import sits at module level, and core.py, the bottom layer,
    # imports no other ciukit module.
    package = Path(ck.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested = [
                    node.lineno for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
                assert not nested, f"{path.name}: import inside {fn.name} at {nested}"
    core = ast.parse((package / "core.py").read_text(encoding="utf-8"))
    for node in ast.walk(core):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"core.py:{node.lineno} relative import"
            names = [node.module]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any(n.split(".")[0] == "ciukit" for n in names), f"core.py:{node.lineno}"


PUBLIC_NAMES = [
    "ALL_METHODS", "AttributionVector", "Budgets", "ConfigError", "CpCurve",
    "DataFormatError", "Dataset", "DegenerateRangeError", "ExplainerError", "Explanation",
    "FeatureSpace", "FeatureSpec", "FunctionPredictor", "GlobalImportance", "Instance",
    "METHOD_INFLUENCE", "METHOD_LIME", "METHOD_SHAPLEY", "OutputSpec", "OutputUtility",
    "Predictor", "Rows", "SeededRng", "SingularSystemError", "StabilityReport",
    "TreeEnsemble", "TreeParams", "accuracy", "builtin_model", "ceteris_paribus_curve",
    "explain_instance", "global_ci", "global_mean_abs_shapley", "holdout_split",
    "lime_surrogate", "load_config", "load_csv", "load_model", "permutation_importance",
    "resolve_utility", "run_global", "run_stability", "save_model", "shapley_mc",
    "train_ensemble", "uniform_instances",
]


def test_package_exports_every_public_name_and_no_module():
    # The whole public surface: adding or removing a name must change this list.
    assert ck.__all__ == PUBLIC_NAMES
    assert len(ck.__all__) == 46
    assert not any(isinstance(getattr(ck, name), ModuleType) for name in ck.__all__)
    assert not any(name.startswith("_") for name in ck.__all__)


def _settable(f) -> int:
    """Parameters of a callable that a caller sets, self and cls aside."""
    try:
        params = inspect.signature(f).parameters
    except (TypeError, ValueError):  # a builtin, such as an exception's constructor
        return 0
    return sum(p.name not in ("self", "cls") for p in params.values())


def test_public_api_parameter_count():
    # Each parameter of an exported function, of an exported class's
    # constructor and of its public methods: the size of what a user can set.
    total = 0
    for obj in map(ck.__dict__.get, ck.__all__):
        if inspect.isclass(obj):
            own = [c for c in obj.__mro__ if c.__module__.startswith("ciukit")]
            names = {n for c in own for n in vars(c) if not n.startswith("_")}
            methods = [getattr(obj, n) for n in names]
            total += _settable(obj) + sum(_settable(m) for m in methods if callable(m))
        elif callable(obj):
            total += _settable(obj)
    assert total == 200


class TestConfigIO:
    def test_roundtrip(self, tmp_path):
        top = 0.1 + 0.2  # 0.30000000000000004: json writes it as repr, exactly
        space = ck.FeatureSpace(
            (
                ck.FeatureSpec.numeric("age", 0.0, 100.0),
                ck.FeatureSpec.categorical("sex", ["f", "m"]),
            )
        )
        util = ck.OutputUtility((ck.OutputSpec("risk", -1.0, 1.0, 0.0, top),))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "features": [
                {"name": "age", "type": "numeric", "min": 0.0, "max": 100.0},
                {"name": "sex", "type": "categorical", "levels": ["f", "m"]},
            ],
            "outputs": [{"name": "risk", "A": -1.0, "b": 1.0, "min": 0.0, "max": top}],
        }))
        space2, util2 = ck.load_config(path)
        assert space2 == space
        assert util2 == util

    def test_undeclared_range_roundtrips_as_null(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "features": [{"name": "x", "type": "numeric", "min": 0, "max": 1}],
            "outputs": [{"name": "y", "A": 1.0, "b": 0.0, "min": None, "max": None}],
        }))
        space, util = ck.load_config(path)
        assert not util.spec(0).declared
        assert util == ck.OutputUtility.single("y")
        assert space == ck.FeatureSpace((ck.FeatureSpec.numeric("x", 0, 1),))

    def test_bad_documents(self, tmp_path):
        with pytest.raises(ck.ConfigError):
            config_from_json({"outputs": []})
        with pytest.raises(ck.ConfigError):
            config_from_json({"features": [{"name": "x", "type": "numeric"}]})
        with pytest.raises(ck.ConfigError):
            config_from_json({"features": [{"name": "c", "type": "categorical"}]})
        with pytest.raises(ck.ConfigError):
            config_from_json({"features": [{"name": "x", "type": "weird"}]})
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ck.ConfigError):
            ck.load_config(bad)

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_values_are_config_errors(self, case):
        with pytest.raises(ck.ConfigError):
            config_from_json(BAD_CONFIGS[case])

    @pytest.mark.parametrize(
        "text",
        [
            b'{"features": [{"name": "\xff", "type": "numeric", "min": 0, "max": 1}]}',
            b"[" * 100000 + b"]" * 100000,
            b'{"features": [{"name": "x", "type": "numeric", "min": 1' + b"0" * 5000 + b', "max": 1}]}',
        ],
        ids=["not-utf8", "nested-too-deep", "integer-too-long"],
    )
    def test_unreadable_json_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "config.json"
        path.write_bytes(text)
        with pytest.raises(ck.ConfigError, match="invalid JSON"):
            ck.load_config(path)

    def test_infinite_bound_in_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            '{"features": [{"name": "x", "type": "numeric", "min": 0, "max": 1}],'
            ' "outputs": [{"name": "y", "min": 0, "max": 1e400}]}'
        )
        with pytest.raises(ck.ConfigError, match="max must be a finite number"):
            ck.load_config(path)


class TestSampleSd:
    def test_near_the_float_limit_scales_exactly(self):
        # The squares of values near 1e298 overflow; scaling by a power of
        # two is exact, so the sd scales bit for bit, with no warning.
        m = np.random.Generator(np.random.PCG64(3)).normal(size=(30, 4))
        m[:, 2] = 1.5  # a constant column stays exactly zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = sample_sd(m * 2.0**990)
        assert huge.tobytes() == (sample_sd(m) * 2.0**990).tobytes()
        assert huge[2] == 0.0 and np.isfinite(huge).all()
