"""Property tests for the paper's invariants on random mixed feature spaces.

Each example draws a feature space (numeric features with random bounds,
categorical features with one to four levels), a smooth predictor over it
and an instance, then checks an invariant that must hold for every draw.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ciukit as ck
from ciukit.core import _CHUNK
from ciukit.tabular import _ROUTE_BLOCK
from conftest import shapley_enumerate, write_classification_csv

EPS = 1e-7


class Smooth(ck.Predictor):
    """Sum of per-feature terms over a mixed space, optionally squashed.

    Numeric feature i contributes ``w_i * sin(k_i * z)`` on its normalized
    value z, or ``w_i * z`` when ``monotone``; categorical features add a
    score per level. ``monotone`` models pass the sum through tanh, so they
    stay monotone in every numeric feature while coupling all of them. The
    sum is exactly rounded, so reordering the features leaves every output
    bit-identical.
    """

    def __init__(self, space, weights, freqs, scores, monotone=False):
        self.space = space
        self.weights = weights
        self.freqs = freqs
        self.scores = scores
        self.monotone = monotone

    def term(self, i, v):
        """Feature i's term at value v."""
        feat = self.space[i]
        if feat.is_numeric:
            z = (v - feat.min) / (feat.max - feat.min)
            return self.weights[i] * (z if self.monotone else math.sin(self.freqs[i] * z))
        return self.scores[i][feat.levels.index(v)]

    def evaluate(self, instances):
        out = np.zeros((len(instances), 1))
        for r, inst in enumerate(instances):
            total = math.fsum(self.term(i, v) for i, v in enumerate(inst.values))
            out[r, 0] = math.tanh(total) if self.monotone else total
        return out


unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def problems(draw, numeric_only=False):
    """(space, weights, freqs, scores, instance values) over 1-4 features."""
    d = draw(st.integers(1, 4))
    features, weights, freqs, scores, values = [], [], [], [], []
    for i in range(d):
        if numeric_only or draw(st.booleans()):
            lo = draw(st.floats(-5.0, 5.0))
            hi = lo + draw(st.floats(0.1, 10.0))
            features.append(ck.FeatureSpec.numeric(f"f{i}", lo, hi))
            values.append(lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
            scores.append(())
        else:
            levels = [f"L{k}" for k in range(draw(st.integers(1, 4)))]
            features.append(ck.FeatureSpec.categorical(f"f{i}", levels))
            values.append(draw(st.sampled_from(levels)))
            scores.append(tuple(draw(unit) for _ in levels))
        weights.append(draw(unit))
        freqs.append(draw(st.floats(0.5, 12.0)))
    space = ck.FeatureSpace(tuple(features))
    return space, weights, freqs, scores, space.instance(values)


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    phi0=st.floats(0.0, 1.0),
    n=st.integers(0, 30),
    seed=st.integers(0, 2**16),
    out_min=st.floats(-4.0, 1.0),
    width=st.floats(0.1, 8.0),
)
def test_influence_bounded_unless_unstable(problem, phi0, n, seed, out_min, width):
    space, weights, freqs, scores, x = problem
    pred = Smooth(space, weights, freqs, scores)
    util = ck.OutputUtility.single("y", out_min=out_min, out_max=out_min + width)
    exp = ck.explain_instance(pred, util, space, x, n=n, phi0=phi0, rng=seed)
    for ci, cu, phi, instability in zip(exp.ci, exp.cu, exp.influence, exp.instability):
        assert 0.0 <= cu <= 1.0
        if not instability:
            assert 0.0 <= ci <= 1.0 + EPS
            assert -phi0 - EPS <= phi <= 1.0 - phi0 + EPS


@settings(max_examples=60, deadline=None)
@given(problem=problems(numeric_only=True), intercept=unit, seed=st.integers(0, 2**16))
def test_linear_exact_at_endpoints_with_no_draws(problem, intercept, seed):
    space, weights, _, _, x = problem
    w = np.asarray(weights)
    pred = ck.FunctionPredictor(lambda m: intercept + m @ w)
    spans = np.array([f.max - f.min for f in space])
    lo = intercept + sum(min(wi * f.min, wi * f.max) for wi, f in zip(w, space))
    width = float(np.abs(w) @ spans) + 1.0
    util = ck.OutputUtility.single("y", out_min=lo, out_max=lo + width)
    exp = ck.explain_instance(pred, util, space, x, n=0, rng=seed)
    y = intercept + float(np.dot(w, x.values))
    for i in range(len(space)):
        # Moving feature i to its endpoints shifts y by w_i * (end - x_i).
        ends = [y + w[i] * (end - x.values[i]) for end in (space[i].min, space[i].max)]
        assert exp.ymin[i] == pytest.approx(min(ends), rel=1e-12, abs=1e-12)
        assert exp.ymax[i] == pytest.approx(max(ends), rel=1e-12, abs=1e-12)
        assert exp.ci[i] == pytest.approx(abs(w[i]) * spans[i] / width, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    order=st.randoms(use_true_random=False),
    n=st.integers(0, 20),
    seed=st.integers(0, 2**16),
)
def test_permuting_features_permutes_ciu(problem, order, n, seed):
    space, weights, freqs, scores, x = problem
    perm = list(range(len(space)))
    order.shuffle(perm)
    util = ck.OutputUtility.single("y", out_min=-1.0, out_max=1.0)

    def explain(idx):
        sub = ck.FeatureSpace(tuple(space[i] for i in idx))
        pred = Smooth(
            sub, [weights[i] for i in idx], [freqs[i] for i in idx],
            [scores[i] for i in idx], monotone=True,
        )
        inst = sub.instance([x.values[i] for i in idx])
        exp = ck.explain_instance(pred, util, sub, inst, n=n, rng=seed)
        return np.array([exp.ci, exp.cu, exp.influence, exp.ymin, exp.ymax]).T

    # Monotone models are exact from the endpoints, so the interior draws,
    # which follow feature positions, cannot tell the two orders apart.
    assert np.allclose(explain(perm), explain(range(len(space)))[perm], rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    n_background=st.integers(1, 12),
    budget=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
def test_shapley_efficiency(problem, n_background, budget, seed):
    space, weights, freqs, scores, x = problem
    batches = []

    class Recording(Smooth):
        def evaluate(self, instances):
            batches.append(list(instances))
            return super().evaluate(instances)

    pred = Recording(space, weights, freqs, scores)
    background = ck.uniform_instances(space, n_background, seed + 1)
    att = ck.shapley_mc(pred, space, x, background, budget=budget, rng=seed)
    # The first batch holds the walks: each starts at its drawn background
    # row and takes d + 1 steps to x.
    drawn = batches[0][:: len(space) + 1]
    assert len(drawn) == budget and all(z in background for z in drawn)
    fx = pred.evaluate([x])[0, 0]
    expected = fx - np.mean(pred.evaluate(drawn)[:, 0])
    assert sum(att.phi) == pytest.approx(expected, rel=1e-9, abs=1e-9)


# Influence is importance measured against a reference level. For an
# additive model f = sum_i g_i, CIU's interval for feature i is
# [c + min g_i, c + max g_i] with c the other features' sum, so
# width * ci * (cu - r_i) = g_i(x_i) - mean g_i over the background: the
# exact Shapley value, when r_i places the background mean of g_i in the
# same interval.
@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    n_background=st.integers(1, 8),
    n=st.integers(0, 20),
    seed=st.integers(0, 2**16),
    out_min=st.floats(-4.0, 1.0),
    width=st.floats(0.1, 8.0),
)
def test_influence_against_the_background_mean_is_shapley(
    problem, n_background, n, seed, out_min, width
):
    space, weights, freqs, scores, x = problem
    pred = Smooth(space, weights, freqs, scores)
    util = ck.OutputUtility.single("y", out_min=out_min, out_max=out_min + width)
    background = ck.uniform_instances(space, n_background, seed + 1)  # independent columns
    phi = shapley_enumerate(pred, space, x, background)
    exp = ck.explain_instance(pred, util, space, x, n=n, rng=seed)
    for i in range(len(space)):
        if exp.degenerate[i]:  # g_i is constant: no importance, no influence
            assert exp.ci[i] == 0.0 and phi[i] == pytest.approx(0.0, abs=1e-12)
            continue
        rest = exp.y - pred.term(i, x.values[i])
        mean_g = rest + float(np.mean([pred.term(i, z.values[i]) for z in background]))
        r = (mean_g - exp.ymin[i]) / (exp.ymax[i] - exp.ymin[i])
        assert width * exp.ci[i] * (exp.cu[i] - r) == pytest.approx(phi[i], rel=1e-9, abs=1e-9)


def _explain_twice(problem, n, seed, util_a, util_b, pred_b=None):
    """The same instance and seed explained under two utilities (and, given
    ``pred_b``, a second predictor); both see the same sample rows."""
    space, weights, freqs, scores, x = problem
    pred = Smooth(space, weights, freqs, scores)
    a = ck.explain_instance(pred, util_a, space, x, n=n, rng=seed)
    b = ck.explain_instance(pred_b or pred, util_b, space, x, n=n, rng=seed)
    return a, b


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(), n=st.integers(0, 20), seed=st.integers(0, 2**16), a=st.floats(0.1, 5.0)
)
def test_flipping_the_utility_slope_mirrors_cu(problem, n, seed, a):
    rising = ck.OutputUtility.single("y", a=a, out_min=-4.0, out_max=4.0)
    falling = ck.OutputUtility.single("y", a=-a, out_min=-4.0, out_max=4.0)
    up, down = _explain_twice(problem, n, seed, rising, falling)
    assert down.ci == up.ci
    for i, (u_cu, d_cu) in enumerate(zip(up.cu, down.cu)):
        if up.degenerate[i]:  # no interval, no worst end: cu is 0 either way
            assert d_cu == u_cu == 0.0
        elif up.ymax[i] - up.ymin[i] > 1e-6:  # narrower intervals lose digits to rounding
            assert d_cu == pytest.approx(1.0 - u_cu, abs=1e-8)


class Rescaled(ck.Predictor):
    def __init__(self, base, scale, shift):
        self.base, self.scale, self.shift = base, scale, shift

    def evaluate(self, instances):
        return self.scale * self.base.evaluate(instances) + self.shift


@settings(max_examples=60, deadline=None)
@given(
    problem=problems(),
    n=st.integers(0, 20),
    seed=st.integers(0, 2**16),
    scale=st.floats(0.5, 4.0),
    shift=st.floats(-3.0, 3.0),
)
def test_affine_rescale_of_outputs_keeps_ci_and_cu(problem, n, seed, scale, shift):
    space, weights, freqs, scores, _ = problem
    lo, hi = -4.0, 4.0
    util = ck.OutputUtility.single("y", out_min=lo, out_max=hi)
    moved = ck.OutputUtility.single("y", out_min=scale * lo + shift, out_max=scale * hi + shift)
    pred = Rescaled(Smooth(space, weights, freqs, scores), scale, shift)
    plain, rescaled = _explain_twice(problem, n, seed, util, moved, pred)
    for i, (p_ci, r_ci) in enumerate(zip(plain.ci, rescaled.ci)):
        assert r_ci == pytest.approx(p_ci, rel=1e-9, abs=1e-12)
        if plain.ymax[i] - plain.ymin[i] > 1e-6:  # narrower intervals lose digits to rounding
            assert rescaled.cu[i] == pytest.approx(plain.cu[i], abs=1e-6)


_SPLIT_ROWS = _CHUNK + 1000
_TREES = 20


@pytest.fixture(scope="module")
def row_batches(tmp_path_factory):
    """Each shipped predictor kind with one batch of uniform rows over its
    space and the outputs of that whole batch in a single call."""
    path = write_classification_csv(tmp_path_factory.mktemp("split") / "d.csv", n=300)
    model = ck.train_ensemble(
        ck.load_csv(path, target="label"), ck.TreeParams(n_trees=_TREES, max_depth=4), rng=3
    )
    out = {}
    for name, pred, space in (
        ("linear", *ck.builtin_model("linear")[:2]),
        ("nonlinear", *ck.builtin_model("nonlinear")[:2]),
        ("trees", model, model.space),  # "grade" is categorical
    ):
        rows = ck.uniform_instances(space, _SPLIT_ROWS, ck.SeededRng(11))
        out[name] = pred, rows, pred.evaluate(rows).tobytes()
    return out


def _route_block(model: ck.TreeEnsemble) -> int:
    """Rows per routing block, by the formula of ``TreeEnsemble.evaluate``:
    trees or routing columns (features plus indicator columns) times rows
    stay under ``_ROUTE_BLOCK``."""
    width = len(model.space) + len(model._flat.pair_feature)
    return max(1, _ROUTE_BLOCK // max(len(model.trees), width))


@pytest.mark.parametrize("name", ["linear", "nonlinear", "trees"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_rows_are_independent_of_the_batch_split(row_batches, name, data):
    # The row contract of Predictor: a row's output bits do not depend on
    # the other rows of its batch, so stacking and chunking change nothing.
    pred, rows, whole = row_batches[name]
    # Cut points near the evaluator's chunk and the ensemble's routing block.
    block = _route_block(row_batches["trees"][0])
    edges = [_CHUNK - 1, _CHUNK, _CHUNK + 1, block, 3 * block + 1]
    cuts = data.draw(st.lists(st.sampled_from(edges) | st.integers(1, len(rows) - 1), max_size=6))
    bounds = [0, *sorted(set(cuts)), len(rows)]
    parts = [pred.evaluate(rows[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert np.concatenate(parts).tobytes() == whole


@pytest.mark.parametrize("name", ["linear", "nonlinear", "trees"])
def test_one_row_batches_and_chunks_match_the_whole_batch(row_batches, name):
    pred, rows, whole = row_batches[name]
    assert ck.core.evaluate_rows(pred, rows).tobytes() == whole  # split at _CHUNK
    ones = np.concatenate([pred.evaluate(rows[k : k + 1]) for k in range(300)])
    assert ones.tobytes() == whole[: ones.nbytes]
