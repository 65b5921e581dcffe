import numpy as np
import pytest

import ciukit as ck
from ciukit.stability import stability_csv, summarize


@pytest.fixture(scope="module")
def linear_reports(linear_bundle):
    pred, space, util = linear_bundle
    x = space.instance([0.63, 0.63, 0.59, 0.81])
    return {m: ck.run_stability(pred, util, space, x, m, runs=20, seed=42) for m in ck.ALL_METHODS}


class TestRunStability:
    def test_report_shapes(self, linear_reports):
        assert set(linear_reports) == set(ck.ALL_METHODS)
        for rep in linear_reports.values():
            assert rep.matrix().shape == (20, 4)

    def test_influence_runs_are_bitwise_identical(self, linear_reports):
        # endpoint probes make the influence of a monotone predictor exact,
        # so every seeded run lands on the same bytes and the spread is a
        # true zero, not a small float
        rep = linear_reports[ck.METHOD_INFLUENCE]
        mat = rep.matrix()
        assert (mat == mat[0]).all()
        assert (rep.sd() == 0.0).all()

    def test_sampled_methods_show_spread(self, linear_reports):
        for m in (ck.METHOD_SHAPLEY, ck.METHOD_LIME):
            sd = linear_reports[m].sd()
            assert (sd > 0.0).all()
            mat = linear_reports[m].matrix()
            assert np.unique(mat, axis=0).shape[0] == mat.shape[0]

    def test_shapley_spread_shrinks_with_budget(self, linear_bundle):
        pred, space, util = linear_bundle
        x = space.instance([0.63, 0.63, 0.59, 0.81])
        sds = {}
        for budget in (200, 800):
            rep = ck.run_stability(
                pred, util, space, x, ck.METHOD_SHAPLEY,
                runs=50,
                budgets=ck.Budgets(shapley_budget=budget),
                seed=42,
            )
            sds[budget] = rep.sd()
        ratio = sds[800] / sds[200]
        # 4x the walks should cut the Monte-Carlo spread by about half
        assert (ratio <= 0.75).all()

    def test_run_index_reproducibility(self, linear_bundle):
        # run r must equal a fresh single explanation seeded with spawn(r)
        pred, space, util = linear_bundle
        x = space.instance([0.2, 0.9, 0.4, 0.7])
        rep = ck.run_stability(
            pred, util, space, x, ck.METHOD_INFLUENCE, runs=5, seed=11
        )
        for r in range(5):
            exp = ck.explain_instance(
                pred, util, space, x, n=100, rng=ck.SeededRng(11).spawn(r)
            )
            assert rep.runs[r] == exp.influence

    def test_shared_background_keeps_shapley_centered(self, linear_bundle):
        # all runs see one background, so the across-run mean converges on
        # the exact additive attribution rather than on per-run resampling
        pred, space, util = linear_bundle
        x = space.instance([1.0, 0.5, 0.5, 0.5])
        rep = ck.run_stability(
            pred, util, space, x, ck.METHOD_SHAPLEY, runs=30, seed=4
        )
        assert rep.mean()[0] == pytest.approx(0.2, abs=0.02)

    def test_explicit_background_is_used(self, linear_bundle):
        pred, space, util = linear_bundle
        x = space.instance([0.5] * 4)
        bg = [space.instance([0.0] * 4)] * 3
        rep = ck.run_stability(
            pred, util, space, x, ck.METHOD_SHAPLEY, runs=3, seed=1, background=bg
        )
        # against an all-zeros background every walk jumps by exactly w_i / 2
        assert np.allclose(rep.matrix(), np.asarray([0.2, 0.15, 0.1, 0.05]), atol=1e-12)

    def test_validation(self, linear_bundle):
        pred, space, util = linear_bundle
        x = space.midpoint()
        with pytest.raises(ck.ConfigError):
            ck.run_stability(pred, util, space, x, "gradients")
        with pytest.raises(ck.ConfigError):
            ck.run_stability(pred, util, space, x, ck.METHOD_INFLUENCE, runs=1)
        # each method checks its own budget when it runs: CIU takes n >= 0
        # (0 gives endpoint-only intervals), Shapley at least one walk and
        # LIME at least 2 * d samples
        zero = ck.Budgets(ciu_samples=0, shapley_budget=0, lime_samples=0)
        rep = ck.run_stability(pred, util, space, x, ck.METHOD_INFLUENCE, runs=2, budgets=zero)
        assert (rep.sd() == 0.0).all()
        for method, budgets in (
            (ck.METHOD_INFLUENCE, ck.Budgets(ciu_samples=-1)),
            (ck.METHOD_SHAPLEY, ck.Budgets(shapley_budget=0)),
            (ck.METHOD_LIME, ck.Budgets(lime_samples=2 * len(space) - 1)),
        ):
            with pytest.raises(ck.ConfigError):
                ck.run_stability(pred, util, space, x, method, runs=2, budgets=budgets)


class TestReportOutputs:
    def test_summarize_table(self, linear_reports):
        text = summarize(linear_reports[ck.METHOD_INFLUENCE])
        lines = text.splitlines()
        assert "runs: 20" in lines[0]
        assert lines[1].split() == ["feature", "mean", "sd", "min", "max"]
        assert len(lines) == 2 + 4  # header rows, one per feature; no timing
        assert lines[-1].split()[0] == "x4"

    def test_csv_long_format(self, linear_reports):
        rep = linear_reports[ck.METHOD_SHAPLEY]
        rows = stability_csv(rep)
        assert rows[0] == ["method", "run", "feature", "value"]
        assert len(rows) == 1 + 20 * 4
        first = rows[1]
        assert first[0] == ck.METHOD_SHAPLEY and first[1] == 0
        assert float(first[3]) == rep.runs[0][0]  # repr floats round-trip

    def test_json_dict(self, linear_reports):
        doc = linear_reports[ck.METHOD_LIME].to_json_dict()
        assert doc["method"] == ck.METHOD_LIME
        assert doc["runs"] == 20
        assert len(doc["values"]) == 20
        assert doc["feature_names"] == list(linear_reports[ck.METHOD_LIME].feature_names)
        assert doc["budgets"]["lime_samples"] == 1000

    def test_report_validation(self):
        with pytest.raises(ck.ConfigError):
            ck.StabilityReport(
                method=ck.METHOD_LIME,
                feature_names=("a",),
                runs=((0.1,),),
                seed=1,
                budgets=ck.Budgets(),
                phi0=0.5,
                output_index=0,
            )
