import numpy as np
import pytest

import ciukit as ck
from ciukit.engine import _ciu_intervals
from conftest import LINEAR_WEIGHTS, MixedModel, mixed_space, nonlinear_joint_range, term_extremes


class TestNormalize:
    def test_proportions(self):
        assert np.allclose(ck.normalize_importances([2.0, 1.0, 1.0]), [0.5, 0.25, 0.25])

    def test_idempotent(self):
        once = ck.normalize_importances([3.0, 1.0])
        assert np.allclose(ck.normalize_importances(once), once)

    def test_zero_total_rejected(self):
        with pytest.raises(ck.DegenerateRangeError):
            ck.normalize_importances([0.0, 0.0])
        with pytest.raises(ck.DegenerateRangeError):
            ck.normalize_importances([1.0, -1.0])

    @pytest.mark.parametrize("values", [["a"], [1.0, None], [True, 1.0], [float("nan"), 1.0]])
    def test_non_numbers_rejected(self, values):
        with pytest.raises(ck.ConfigError, match="^importance must be a finite number$"):
            ck.normalize_importances(values)


class TestGlobalCi:
    def test_linear_weights_with_zero_spread(self, linear_bundle):
        pred, space, util = linear_bundle
        rows = ck.uniform_instances(space, 200, ck.SeededRng(3))
        imp = ck.global_ci(pred, util, space, rows, n=50, rng=42)
        assert np.allclose(imp.mean, LINEAR_WEIGHTS, atol=1e-9)
        # interval widths are instance-independent for an additive predictor,
        # so the only spread left is floating-point rounding
        assert max(imp.spread) <= 1e-12
        assert imp.n_instances == 200
        assert not imp.normalized

    def test_seed_independence_is_bitwise(self, linear_bundle):
        # endpoint probes pin the extrema; the draws never matter for a
        # monotone predictor, so different seeds give identical bytes
        pred, space, util = linear_bundle
        rows = ck.uniform_instances(space, 100, ck.SeededRng(3))
        a = ck.global_ci(pred, util, space, rows, n=50, rng=1)
        b = ck.global_ci(pred, util, space, rows, n=50, rng=2)
        assert a.mean == b.mean

    def test_nonlinear_matches_per_term_ranges(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        lo, hi = nonlinear_joint_range()
        want = [
            (term_extremes(i)[1] - term_extremes(i)[0]) / (hi - lo) for i in range(4)
        ]
        rows = ck.uniform_instances(space, 300, ck.SeededRng(5))
        imp = ck.global_ci(pred, util, space, rows, n=200, rng=6)
        assert np.allclose(imp.mean, want, atol=0.01)

    def test_ranking(self, nonlinear_resolved):
        pred, space, util = nonlinear_resolved
        rows = ck.uniform_instances(space, 100, ck.SeededRng(5))
        imp = ck.global_ci(pred, util, space, rows, n=200, rng=6)
        assert list(np.argsort(imp.mean)[::-1]) == [2, 0, 3, 1]

    def test_constant_predictor_flags_degenerate(self, linear_bundle):
        _, space, _ = linear_bundle
        pred = ck.FunctionPredictor(lambda m: np.full(len(m), 0.5))
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
        rows = ck.uniform_instances(space, 20, ck.SeededRng(1))
        imp = ck.global_ci(pred, util, space, rows, n=10, rng=2)
        assert all(v == 0.0 for v in imp.mean)
        assert all(imp.degenerate)
        with pytest.raises(ck.DegenerateRangeError):
            ck.normalize_importances(imp.mean)

    def test_empty_instances_rejected(self, linear_bundle):
        pred, space, util = linear_bundle
        with pytest.raises(ck.ConfigError):
            ck.global_ci(pred, util, space, [])


def _explain_each(pred, util, space, rows, n, seed):
    return [
        ck.explain_instance(pred, util, space, x, n=n, rng=ck.SeededRng(seed).spawn(r))
        for r, x in enumerate(rows)
    ]


def _summary_of(exps):
    """global_ci's summary rebuilt from one explanation per instance."""
    ci = np.array([e.ci for e in exps])
    degenerate = [any(column) for column in zip(*(e.degenerate for e in exps))]
    return tuple(ci.mean(axis=0).tolist()), tuple(ck.core.sample_sd(ci).tolist()), tuple(degenerate)


class TestGlobalCiBlocks:
    """global_ci sends the sample sets of as many instances as fit in one
    chunk to the predictor in one call; each instance still gets exactly
    the values explain_instance gives it."""

    def test_three_blocks_match_explain_instance(self, linear_bundle):
        _, space, _ = linear_bundle
        calls = []

        def fn(m):
            calls.append(len(m))
            # x2 matters only where x1 > 0.5 and x4 never: degenerate intervals
            return np.maximum(m[:, 0] - 0.5, 0.0) * m[:, 1] + m[:, 2] ** 2

        pred = ck.FunctionPredictor(fn)
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.5)
        rows = ck.uniform_instances(space, 400, ck.SeededRng(8))
        g = ck.global_ci(pred, util, space, rows, n=100, rng=9)
        per_instance = 4 * 103  # 159 instances fit in one 65536-row chunk
        assert calls == [159 * per_instance, 159 * per_instance, 82 * per_instance]
        exps = _explain_each(pred, util, space, rows, 100, 9)
        assert (g.mean, g.spread, g.degenerate) == _summary_of(exps)
        assert g.degenerate == (False, True, False, True)

    def test_mixed_space_source_rows_match_explain_instance(self):
        space = mixed_space()
        pred = MixedModel()
        util = ck.OutputUtility.single("y", out_min=-2.0, out_max=2.0)
        rows = ck.uniform_instances(space, 400, ck.SeededRng(4))
        assert len(set(rows.matrix[:, 1].tolist())) == 3  # the source level varies
        g = ck.global_ci(pred, util, space, rows, n=100, rng=5)
        assert [len(b) for b in pred.batches] == [313 * 209, 87 * 209]
        exps = _explain_each(pred, util, space, rows, 100, 5)
        assert (g.mean, g.spread, g.degenerate) == _summary_of(exps)
        # Each instance's y comes from its own source row, which for the
        # categorical feature sits at a different place in every set.
        streams = [ck.SeededRng(5).spawn(r) for r in range(len(rows))]
        intervals = _ciu_intervals(pred, rows, streams, 0, 100)
        want = [[[lo, hi, e.y] for lo, hi in zip(e.ymin, e.ymax)] for e in exps]
        assert intervals.transpose(1, 2, 0).tolist() == want
        own = pred.evaluate(rows)[:, 0]
        assert (intervals[2] == own[:, None]).all()


class TestGlobalShapley:
    def test_linear_weight_proportions(self, linear_bundle):
        pred, space, _ = linear_bundle
        rows = ck.uniform_instances(space, 300, ck.SeededRng(8))
        imp = ck.global_mean_abs_shapley(pred, space, rows, budget=200, rng=9)
        got = ck.normalize_importances(imp.mean)
        assert np.allclose(got, LINEAR_WEIGHTS, atol=0.05)
        assert list(np.argsort(imp.mean)[::-1]) == [0, 1, 2, 3]

    def test_single_feature_takes_all(self):
        space = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("x", 0, 1), ck.FeatureSpec.numeric("z", 0, 1))
        )
        pred = ck.FunctionPredictor(lambda m: m[:, 0])
        rows = ck.uniform_instances(space, 100, ck.SeededRng(2))
        imp = ck.global_mean_abs_shapley(pred, space, rows, budget=100, rng=3)
        got = ck.normalize_importances(imp.mean)
        assert got[0] == 1.0
        assert got[1] == 0.0


class TestRunGlobal:
    # _ciu warns as its interval width overflows; the error is what is checked here.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_importance_that_overflows_is_a_degenerate_range(self):
        space = ck.FeatureSpace((ck.FeatureSpec.numeric("x", -1, 1),))
        pred = ck.FunctionPredictor(lambda m: 1.7e308 * m[:, 0])  # its interval is 3.4e308 wide
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
        with pytest.raises(ck.DegenerateRangeError, match="^ci, iteration 0: "):
            ck.run_global(pred, util, space, "ci", iterations=1, instances_per_iteration=2, n=2)

    def test_ci_iterations(self, linear_bundle):
        pred, space, util = linear_bundle
        imp = ck.run_global(
            pred, util, space, "ci", iterations=3, instances_per_iteration=50,
            rng=11, n=20,
        )
        assert imp.normalized
        assert imp.n_iterations == 3
        assert np.allclose(imp.mean, LINEAR_WEIGHTS, atol=1e-9)
        assert max(imp.spread) <= 1e-12

    def test_pfi_mae(self, linear_bundle):
        pred, space, util = linear_bundle
        imp = ck.run_global(
            pred, util, space, "pfi-mae", iterations=3,
            instances_per_iteration=300, rng=12,
        )
        assert np.allclose(imp.mean, LINEAR_WEIGHTS, atol=0.02)
        assert all(s > 0 for s in imp.spread)

    def test_shapley_over_dataset_rows(self, linear_bundle):
        pred, space, util = linear_bundle
        rows = ck.uniform_instances(space, 200, ck.SeededRng(13))
        imp = ck.run_global(
            pred, util, space, "shapley", iterations=2,
            instances_per_iteration=60, rng=14, rows=rows, budget=100,
        )
        assert np.allclose(imp.mean, LINEAR_WEIGHTS, atol=0.05)
        assert imp.n_iterations == 2

    def test_iteration_determinism(self, linear_bundle):
        pred, space, util = linear_bundle
        kw = dict(iterations=2, instances_per_iteration=40, rng=15, budget=50)
        a = ck.run_global(pred, util, space, "shapley", **kw)
        b = ck.run_global(pred, util, space, "shapley", **kw)
        assert a.mean == b.mean and a.spread == b.spread

    def test_validation(self, linear_bundle):
        pred, space, util = linear_bundle
        with pytest.raises(ck.ConfigError):
            ck.run_global(pred, util, space, "anova")
        with pytest.raises(ck.ConfigError):
            ck.run_global(pred, util, space, "ci", iterations=0)

    @pytest.mark.parametrize("count", [5, 15])
    def test_targets_must_match_rows(self, linear_bundle, count):
        pred, space, util = linear_bundle
        rows = ck.uniform_instances(space, 10, 3)
        with pytest.raises(ck.ConfigError, match="^targets and rows must have equal length$"):
            ck.run_global(
                pred, util, space, "pfi-mae", iterations=1, rows=rows, targets=[0.0] * count
            )

    def test_an_iteration_summing_to_zero_stays_a_typed_error(self):
        # Neither feature moves the output alone at (0.1, 0.1): both ci are 0.
        pred = ck.FunctionPredictor(
            lambda m: np.maximum(m[:, 0] - 0.5, 0.0) * np.maximum(m[:, 1] - 0.5, 0.0)
        )
        space = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("a", 0.0, 1.0), ck.FeatureSpec.numeric("b", 0.0, 1.0))
        )
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=0.25)
        rows = [ck.Instance((0.9, 0.9)), ck.Instance((0.1, 0.1))]
        kwargs = dict(instances_per_iteration=1, rng=0, rows=rows)
        with pytest.raises(
            ck.DegenerateRangeError, match="^ci, iteration 7: importances sum to zero or less"
        ):
            ck.run_global(pred, util, space, "ci", iterations=20, **kwargs)
        # the seven iterations before it drew the other row
        assert ck.run_global(pred, util, space, "ci", iterations=7, **kwargs).n_iterations == 7

    def test_json_dict(self, linear_bundle):
        pred, space, util = linear_bundle
        imp = ck.run_global(
            pred, util, space, "ci", iterations=2, instances_per_iteration=20, rng=4, n=10
        )
        doc = imp.to_json_dict()
        assert doc["method"] == "ci"
        assert doc["iterations"] == 2
        names = [f["name"] for f in doc["features"]]
        assert names == list(space.names)
        for f in doc["features"]:
            assert set(f) >= {"name", "mean", "spread"}
