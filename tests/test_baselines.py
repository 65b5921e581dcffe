import numpy as np
import pytest

import ciukit as ck
from ciukit.core import evaluate_rows
from ciukit.global_importance import normalize_importances
from conftest import LINEAR_WEIGHTS, MixedModel, exact, mixed_space, replaced, shapley_enumerate


def uniform_rows(space, n, seed):
    return ck.uniform_instances(space, n, ck.SeededRng(seed))


@pytest.fixture(scope="module")
def linear_rows(linear_bundle):
    pred, space, _ = linear_bundle
    rows = uniform_rows(space, 1000, 101)
    targets = pred.evaluate(rows)[:, 0]
    return rows, targets


class TestPermutationImportance:
    def test_linear_weight_recovery(self, linear_bundle, linear_rows):
        pred, space, _ = linear_bundle
        rows, targets = linear_rows
        scores = ck.permutation_importance(pred, space, rows, targets, rng=7)
        normalized = normalize_importances(scores)
        assert np.allclose(normalized, LINEAR_WEIGHTS, atol=0.01)
        assert list(np.argsort(scores)[::-1]) == [0, 1, 2, 3]

    def test_ignored_feature_scores_zero(self, linear_bundle):
        _, space, _ = linear_bundle
        pred = ck.FunctionPredictor(lambda x: x @ np.asarray([0.6, 0.4, 0.0, 0.0]))
        rows = uniform_rows(space, 400, 3)
        targets = pred.evaluate(rows)[:, 0]
        scores = ck.permutation_importance(pred, space, rows, targets, rng=5)
        assert scores[2] == 0.0 and scores[3] == 0.0
        assert scores[0] > scores[1] > 0.0

    def test_classification_error_loss(self, linear_bundle):
        _, space, _ = linear_bundle

        def probs(x):
            p = np.clip(x[:, 0], 0.0, 1.0)
            return np.column_stack([1.0 - p, p])

        pred = ck.FunctionPredictor(probs, n_outputs=2)
        rows = uniform_rows(space, 400, 11)
        labels = (np.asarray([r.values[0] for r in rows]) > 0.5).astype(int)
        scores = ck.permutation_importance(
            pred, space, rows, labels, loss="classification-error", rng=2
        )
        assert scores[0] > 0.3
        assert abs(scores[1]) < 0.05 and abs(scores[2]) < 0.05

    def test_determinism(self, linear_bundle, linear_rows):
        pred, space, _ = linear_bundle
        rows, targets = linear_rows
        a = ck.permutation_importance(pred, space, rows[:200], targets[:200], rng=9)
        b = ck.permutation_importance(pred, space, rows[:200], targets[:200], rng=9)
        assert np.array_equal(a, b)

    def test_validation_errors(self, linear_bundle, linear_rows):
        pred, space, _ = linear_bundle
        rows, targets = linear_rows
        with pytest.raises(ck.ConfigError):
            ck.permutation_importance(pred, space, rows[:1], targets[:1])
        with pytest.raises(ck.ConfigError):
            ck.permutation_importance(pred, space, rows[:10], targets[:9])
        with pytest.raises(ck.ConfigError, match="unknown loss 'huber'"):
            ck.permutation_importance(pred, space, rows[:10], targets[:10], loss="huber")

    def test_classification_loss_rejects_float_targets(self, linear_bundle, linear_rows):
        pred, space, _ = linear_bundle
        rows, targets = linear_rows
        with pytest.raises(ck.ConfigError):
            ck.permutation_importance(
                pred, space, rows[:50], targets[:50], loss="classification-error"
            )

    def test_mae_rejects_string_targets(self, linear_bundle, linear_rows):
        pred, space, _ = linear_bundle
        rows, _ = linear_rows
        labels = ["yes"] * 50
        with pytest.raises(ck.ConfigError):
            ck.permutation_importance(pred, space, rows[:50], labels, loss="mae")


class TestShapleyMc:
    def test_centered_instance_near_zero(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5] * 4)
        bg = uniform_rows(space, 2000, 21)
        att = ck.shapley_mc(pred, space, x, bg, budget=2000, rng=42)
        assert max(abs(v) for v in att.phi) <= 0.02
        assert att.method == "shapley-mc"
        assert att.se is not None and all(s > 0 for s in att.se)

    def test_shifted_feature_gets_its_weight(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([1.0, 0.5, 0.5, 0.5])
        bg = uniform_rows(space, 2000, 22)
        att = ck.shapley_mc(pred, space, x, bg, budget=2000, rng=42)
        # w1 * (x1 - E[x1]) = 0.4 * 0.5 = 0.2
        assert att.phi[0] == pytest.approx(0.2, abs=0.02)
        for v in att.phi[1:]:
            assert abs(v) <= 0.02

    def test_efficiency(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.9, 0.2, 0.7, 0.4])
        bg = uniform_rows(space, 2000, 23)
        att = ck.shapley_mc(pred, space, x, bg, budget=2000, rng=7)
        fx = evaluate_rows(pred, [x])[0, 0]
        assert sum(att.phi) + att.intercept == pytest.approx(fx, abs=0.02)

    def test_matches_enumeration_within_error_bars(self, nonlinear_bundle):
        pred, space, _ = nonlinear_bundle
        bg = uniform_rows(space, 200, 31)
        gen = np.random.Generator(np.random.PCG64(32))
        for k in range(3):
            x = space.instance(tuple(gen.uniform(0, 1, 4)))
            exact = shapley_enumerate(pred, space, x, bg)
            att = ck.shapley_mc(pred, space, x, bg, budget=3000, rng=k)
            for phi, se, truth in zip(att.phi, att.se, exact):
                assert abs(phi - truth) <= 3.0 * se + 1e-12

    def test_error_shrinks_with_budget(self, linear_bundle):
        # quadrupling the budget should roughly halve the Monte-Carlo error
        pred, space, _ = linear_bundle
        x = space.instance([1.0, 0.0, 1.0, 0.0])
        bg = uniform_rows(space, 3000, 41)
        truth = np.asarray(LINEAR_WEIGHTS) * (
            np.asarray([1.0, 0.0, 1.0, 0.0])
            - np.mean([[r.values[i] for i in range(4)] for r in bg], axis=0)
        )
        errs = {}
        for budget in (100, 400):
            gaps = []
            for r in range(40):
                att = ck.shapley_mc(pred, space, x, bg, budget=budget, rng=r)
                gaps.append(np.abs(np.asarray(att.phi) - truth).mean())
            errs[budget] = np.mean(gaps)
        assert errs[400] / errs[100] <= 0.75

    def test_determinism(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.3, 0.6, 0.1, 0.8])
        bg = uniform_rows(space, 100, 51)
        a = ck.shapley_mc(pred, space, x, bg, budget=50, rng=4)
        b = ck.shapley_mc(pred, space, x, bg, budget=50, rng=4)
        c = ck.shapley_mc(pred, space, x, bg, budget=50, rng=5)
        assert a.phi == b.phi
        assert a.phi != c.phi

    def test_identical_jumps_have_exactly_zero_se(self):
        # Every walk switches x1 from 0.3 to 0.9 with x2 irrelevant, so all
        # seven sampled jumps are the same float and their spread is zero.
        space = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("x1", 0, 1), ck.FeatureSpec.numeric("x2", 0, 1))
        )
        pred = ck.FunctionPredictor(lambda x: 0.3 * x[:, 0] + 0.1)
        bg = [space.instance([0.3, 0.1])]
        att = ck.shapley_mc(pred, space, space.instance([0.9, 0.5]), bg, budget=7, rng=3)
        assert att.se == (0.0, 0.0)
        assert att.phi[0] == pytest.approx(0.18)

    def test_walk_orders_are_uniform_permutations(self):
        # x differs from every background row in every feature, so the one
        # feature that changes at each step of a walk names its place in
        # the walk's order, and step 0 names the drawn background row.
        space = mixed_space()
        x = space.instance([2.0, "r", 1.0])
        background = [space.instance([a, c, 0.1 * k])
                      for k, (a, c) in enumerate(zip([-1.0, -0.5, 0.0, 0.5, 1.0], "pqpqp"))]
        seen = []

        class Recorder(ck.Predictor):
            def evaluate(self, instances):
                seen.append(np.array(instances.matrix))
                return np.zeros((len(instances), 1))

        budget, d = 6000, len(space)
        ck.shapley_mc(Recorder(), space, x, background, budget=budget, rng=11)
        walks = seen[0].reshape(budget, d + 1, d)
        flips = walks[:, 1:] != walks[:, :-1]
        assert (flips.sum(axis=2) == 1).all()
        orders = np.argmax(flips, axis=2)
        assert (np.sort(orders, axis=1) == np.arange(d)).all()
        _, counts = np.unique(orders, axis=0, return_counts=True)
        sigma = np.sqrt(budget * (1 / 6) * (5 / 6))
        assert len(counts) == 6
        assert (np.abs(counts - budget / 6) < 5 * sigma).all()
        assert len(seen[1]) == len(background)
        matches = (walks[:, 0, None, :] == seen[1][None]).all(axis=2)
        assert (matches.sum(axis=1) == 1).all()
        assert set(np.argmax(matches, axis=1)) == set(range(len(background)))

    def test_validation_errors(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5] * 4)
        with pytest.raises(ck.ConfigError):
            ck.shapley_mc(pred, space, x, [], budget=10)
        with pytest.raises(ck.ConfigError):
            ck.shapley_mc(pred, space, x, uniform_rows(space, 5, 1), budget=0)

    def test_enumeration_linear_exact(self, linear_bundle):
        # for an additive predictor the exact Shapley value is w_i * (x_i - mean bg_i)
        pred, space, _ = linear_bundle
        bg = uniform_rows(space, 300, 61)
        x = space.instance([0.9, 0.1, 0.6, 0.4])
        means = np.mean([[r.values[i] for i in range(4)] for r in bg], axis=0)
        want = np.asarray(LINEAR_WEIGHTS) * (np.asarray(x.values, float) - means)
        got = shapley_enumerate(pred, space, x, bg)
        assert np.allclose(got, want, atol=1e-10)

    def test_enumeration_feature_cap(self, linear_bundle):
        specs = tuple(ck.FeatureSpec.numeric(f"x{i}", 0, 1) for i in range(13))
        space = ck.FeatureSpace(specs)
        pred = ck.FunctionPredictor(lambda m: m.sum(axis=1))
        with pytest.raises(ck.ConfigError):
            shapley_enumerate(pred, space, space.midpoint(), uniform_rows(space, 5, 1))


class TestLimeSurrogate:
    def test_centered_linear_instance_near_zero(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5] * 4)
        att = ck.lime_surrogate(pred, space, x, n_samples=4000, rng=42)
        assert max(abs(v) for v in att.phi) <= 0.05
        assert att.method == "lime-surrogate"

    def test_shifted_instance_signs(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([1.0, 0.0, 0.5, 0.5])
        att = ck.lime_surrogate(pred, space, x, n_samples=4000, rng=42)
        assert att.phi[0] > 0.1
        assert att.phi[1] < -0.05

    def test_constant_predictor_zero(self, linear_bundle):
        _, space, _ = linear_bundle
        pred = ck.FunctionPredictor(lambda m: np.full(len(m), 0.7))
        att = ck.lime_surrogate(pred, space, space.midpoint(), n_samples=500, rng=1)
        assert max(abs(v) for v in att.phi) <= 1e-9
        assert att.intercept == pytest.approx(0.7, abs=1e-9)

    def test_split_weight_across_duplicate_features(self):
        # y = x on one feature vs y = (x1 + x2) / 2 on two copies: the pair
        # should carry the same total attribution as the single feature.
        one = ck.FeatureSpace((ck.FeatureSpec.numeric("x", 0, 1),))
        two = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("x1", 0, 1), ck.FeatureSpec.numeric("x2", 0, 1))
        )
        pred_one = ck.FunctionPredictor(lambda m: m[:, 0])
        pred_two = ck.FunctionPredictor(lambda m: 0.5 * (m[:, 0] + m[:, 1]))
        att_one = ck.lime_surrogate(pred_one, one, one.instance([0.7]), n_samples=4000, rng=3)
        att_two = ck.lime_surrogate(
            pred_two, two, two.instance([0.7, 0.7]), n_samples=4000, rng=3
        )
        total_two = att_two.phi[0] + att_two.phi[1]
        assert total_two == pytest.approx(att_one.phi[0], abs=0.05)
        assert att_one.phi[0] == pytest.approx(0.2, abs=0.05)

    def test_seed_sensitivity(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5] * 4)
        a = ck.lime_surrogate(pred, space, x, n_samples=1000, rng=1)
        b = ck.lime_surrogate(pred, space, x, n_samples=1000, rng=2)
        same = ck.lime_surrogate(pred, space, x, n_samples=1000, rng=1)
        assert a.phi == same.phi
        assert a.phi != b.phi

    def test_categorical_features_supported(self):
        space = ck.FeatureSpace(
            (
                ck.FeatureSpec.numeric("x", 0, 1),
                ck.FeatureSpec.categorical("c", ["a", "b", "c"]),
            )
        )
        bump = {"a": 0.0, "b": 0.3, "c": 0.6}

        class Mixed(ck.Predictor):
            def evaluate(self, instances):
                return np.asarray(
                    [[0.4 * i.values[0] + bump[i.values[1]]] for i in instances]
                )

        att = ck.lime_surrogate(Mixed(), space, space.instance([0.9, "c"]), rng=5)
        assert all(np.isfinite(v) for v in att.phi)
        assert att.phi[1] > 0.0  # level "c" pushes the output up vs the others

    def test_validation_errors(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5] * 4)
        with pytest.raises(ck.ConfigError):
            ck.lime_surrogate(pred, space, x, n_samples=7)


class TestAttributionVector:
    def test_validation(self):
        with pytest.raises(ck.ConfigError):
            ck.AttributionVector(("a",), (0.1, 0.2), 0.0, "shapley-mc", 10, 0)
        with pytest.raises(ck.ConfigError):
            ck.AttributionVector(("a",), (0.1,), 0.0, "mystery", 10, 0)
        with pytest.raises(ck.ConfigError):
            ck.AttributionVector(("a",), (0.1,), 0.0, "shapley-mc", 10, 0, se=(1.0, 2.0))
        with pytest.raises(ck.ConfigError, match="^phi must be a finite number$"):
            ck.AttributionVector(("a",), ("0.1",), 0.0, "shapley-mc", 10, 0)

    def test_json_dict(self):
        att = ck.AttributionVector(
            ("a", "b"), (0.1, -0.2), 0.5, "lime-surrogate", 100, 3
        )
        doc = att.to_json_dict()
        assert doc["method"] == "lime-surrogate"
        assert doc["features"][0] == {"name": "a", "influence": 0.1}
        att2 = ck.AttributionVector(
            ("a",), (0.1,), 0.5, "shapley-mc", 100, 3, se=(0.01,)
        )
        assert att2.to_json_dict()["features"][0]["se"] == 0.01


# Per-row reference builders: the walks and shuffles built one Instance at a
# time, from the same streams as the library's matrix-backed batches.


def reference_walks(space, x, background, budget, seed):
    """Every walk's feature order first, then every walk's background row."""
    gen = ck.SeededRng(seed).generator()
    orders = [gen.permutation(len(space)) for _ in range(budget)]
    picks = gen.integers(0, len(background), size=budget)
    walks = []
    for order, pick in zip(orders, picks):
        current = background[int(pick)]
        walks.append(current)
        for i in order:
            current = replaced(current, int(i), x.values[int(i)])
            walks.append(current)
    return walks, orders


def reference_shuffles(space, rows, repeats, seed):
    batches = []
    for i in range(len(space)):
        gen = ck.SeededRng(seed).spawn(i).generator()
        column = [row.values[i] for row in rows]
        for _ in range(repeats):
            order = gen.permutation(len(rows))
            batches.append([replaced(row, i, column[k]) for row, k in zip(rows, order)])
    return batches


class TestMatchesPerRowReference:
    """Walks and shuffled batches reach the predictor exactly as a per-row
    builder makes them, on a space with a categorical feature."""

    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_shapley_walks(self, seed):
        space = mixed_space()
        x = space.instance([1.5, "r", 0.1])
        background = ck.uniform_instances(space, 13, ck.SeededRng(seed + 1))
        pred = MixedModel()
        att = ck.shapley_mc(pred, space, x, background, budget=60, rng=seed)
        walks, orders = reference_walks(space, x, list(background), 60, seed)
        assert exact(pred.batches[0]) == exact(walks)
        assert exact(pred.batches[1]) == exact(background)
        # phi from the reference walks, placed into feature order per walk
        ys = MixedModel().evaluate(walks)[:, 0].reshape(60, len(space) + 1)
        samples = np.empty((60, len(space)))
        for t, order in enumerate(orders):
            samples[t, order] = np.diff(ys[t])
        assert att.phi == tuple(float(v) for v in samples.mean(axis=0))

    @pytest.mark.parametrize("seed", [0, 8])
    def test_permutation_shuffles(self, seed):
        space = mixed_space()
        rows = ck.uniform_instances(space, 50, ck.SeededRng(seed + 2))
        pred = MixedModel()
        targets = MixedModel().evaluate(rows)[:, 0] + 0.1
        ck.permutation_importance(pred, space, rows, targets, rng=seed)
        ref = reference_shuffles(space, list(rows), 5, seed)
        assert len(pred.batches) == 1 + len(ref)
        assert exact(pred.batches[0]) == exact(rows)
        for got, want in zip(pred.batches[1:], ref):
            assert exact(got) == exact(want)

    def test_enumeration_matches_per_row_coalitions(self):
        space = mixed_space()
        x = space.instance([0.2, "p", 0.8])
        background = list(ck.uniform_instances(space, 7, ck.SeededRng(4)))
        pred = MixedModel()
        shapley_enumerate(pred, space, x, background)
        for mask, got in enumerate(pred.batches):
            want = []
            for z in background:
                for i in range(len(space)):
                    z = replaced(z, i, x.values[i]) if mask >> i & 1 else z
                want.append(z)
            assert exact(got) == exact(want)
