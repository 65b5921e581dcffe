"""Shared fixtures and independent oracles for the test suite.

The oracle helpers recompute expected values from first principles (dense
grids over the analytic terms, closed forms for the weighted sum) so the
tests never just compare the library against itself.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import ciukit as ck
from ciukit.core import encode_rows, evaluate_rows
from ciukit.sampling import encode_instance

# The oscillatory benchmark is a sum of one term per feature, so per-feature
# output intervals and the joint range follow from per-term extremes.
NONLINEAR_TERMS = (
    lambda v: 0.7 * v * np.sin(10.0 * v),
    lambda v: 0.3 * v * np.sin(10.0 * v),
    lambda v: v**2,
    lambda v: 2.0 * v**4 - 1.5 * v**2,
)

LINEAR_WEIGHTS = (0.4, 0.3, 0.2, 0.1)


def term_extremes(i: int, n: int = 200001) -> tuple[float, float]:
    xs = np.linspace(0.0, 1.0, n)
    ys = NONLINEAR_TERMS[i](xs)
    return float(ys.min()), float(ys.max())


def nonlinear_joint_range() -> tuple[float, float]:
    lo = sum(term_extremes(i)[0] for i in range(4))
    hi = sum(term_extremes(i)[1] for i in range(4))
    return lo, hi


def nonlinear_value(values) -> float:
    return float(sum(NONLINEAR_TERMS[i](np.asarray([v]))[0] for i, v in enumerate(values)))


def expected_nonlinear_ciu(values, joint: tuple[float, float]):
    """Per-feature (ci, cu) oracle for the separable benchmark function."""
    width = joint[1] - joint[0]
    out = []
    for i, v in enumerate(values):
        lo, hi = term_extremes(i)
        ti = float(NONLINEAR_TERMS[i](np.asarray([v]))[0])
        ci = (hi - lo) / width
        cu = (ti - lo) / (hi - lo)
        out.append((ci, cu))
    return out


def shapley_enumerate(predictor, space, x, background, output: int = 0) -> np.ndarray:
    """Exact Shapley values by full subset enumeration, the oracle for the
    sampled estimator.

    Coalition value v(S) is the mean prediction over the background set with
    features in S taken from x, one predictor batch per coalition. Cost grows
    as 2^n, so this is restricted to n <= 12.
    """
    n = len(space)
    if n > 12:
        raise ck.ConfigError("exact enumeration is limited to 12 features")
    if not background:
        raise ck.ConfigError("shapley enumeration needs a non-empty background set")
    x_enc, bg = encode_instance(space, x), encode_rows(space, background)
    bits = 1 << np.arange(n)
    values = {}
    for mask in range(1 << n):  # features in mask come from x, the rest from the background
        mixed = ck.Rows(space, np.where(mask & bits, x_enc, bg))
        values[mask] = float(np.mean(evaluate_rows(predictor, mixed)[:, output]))
    fact = [math.factorial(k) for k in range(n + 1)]
    phi = np.zeros(n)
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                continue
            s = bin(mask).count("1")
            weight = fact[s] * fact[n - s - 1] / fact[n]
            phi[i] += weight * (values[mask | 1 << i] - values[mask])
    return phi


def exact_tree_interval(model, x, feature: int, output: int = 0) -> tuple[float, float]:
    """The exact (ymin, ymax) of a tree ensemble as one feature of x varies,
    the oracle for the sampled CIU interval.

    Along one feature the ensemble is a step function. For a numeric feature
    every step ends at a split threshold t on it (rows with value <= t go
    left), so its min, its max, x's own value and every threshold inside
    the bounds reach every step. A categorical feature takes every level.
    """
    space = model.space
    feat = space[feature]
    if feat.is_numeric:
        points = {feat.min, feat.max, x.values[feature]}
        stack = list(model.trees)
        while stack:
            node = stack.pop()
            if "leaf" not in node:
                if node["feature"] == feature and feat.min <= node["threshold"] <= feat.max:
                    points.add(node["threshold"])
                stack += (node["left"], node["right"])
        points = sorted(points)
    else:
        points = feat.levels
    rows = [replaced(x, feature, v) for v in points]
    ys = evaluate_rows(model, rows)[:, output]
    return float(ys.min()), float(ys.max())


@pytest.fixture(scope="session")
def linear_bundle():
    return ck.builtin_model("linear")


@pytest.fixture(scope="session")
def nonlinear_bundle():
    return ck.builtin_model("nonlinear")


@pytest.fixture(scope="session")
def nonlinear_resolved(nonlinear_bundle):
    pred, space, util = nonlinear_bundle
    resolved = ck.resolve_utility(pred, space, util, budget=10000, rng=ck.SeededRng(7))
    return pred, space, resolved


def write_classification_csv(path, n=500, seed=7, margin=0.0, noise=0.0):
    """Synthetic binary-classification CSV: three numeric features plus one
    categorical, linearly separable up to ``noise``; rows closer than
    ``margin`` to the boundary are resampled."""
    gen = np.random.Generator(np.random.PCG64(seed))
    rows = []
    while len(rows) < n:
        a = gen.uniform(0.0, 1.0)
        b = gen.uniform(0.0, 1.0)
        c = gen.uniform(-1.0, 1.0)
        grade = ("lo", "hi")[int(gen.integers(0, 2))]
        score = 1.5 * a - 1.2 * b + 0.6 * c + (0.8 if grade == "hi" else 0.0)
        score += gen.normal(0.0, noise) if noise else 0.0
        if abs(score - 0.35) < margin:
            continue
        rows.append((a, b, c, grade, "yes" if score > 0.35 else "no"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,c,grade,label\n")
        for a, b, c, grade, label in rows:
            fh.write(f"{a!r},{b!r},{c!r},{grade},{label}\n")
    return path


def write_regression_csv(path, n=300, seed=11):
    """Synthetic regression CSV: two numeric features, one of them rounded
    to a coarse grid so that split candidates tie, one categorical feature
    and a noisy numeric target ``y``."""
    gen = np.random.Generator(np.random.PCG64(seed))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,shade,y\n")
        for _ in range(n):
            a = gen.uniform(0.0, 1.0)
            b = round(gen.uniform(-1.0, 1.0), 1)
            k = int(gen.integers(0, 3))
            y = a * a - 0.5 * b + 0.3 * k + gen.normal(0.0, 0.05)
            fh.write(f"{a!r},{b!r},{'pqr'[k]},{y!r}\n")
    return path


def write_multiclass_csv(path, n=300, seed=5):
    """Synthetic three-class CSV: two numeric features, one of them rounded
    so that split candidates tie, one categorical feature and a label that
    bands a noisy score into ``low``, ``mid`` and ``high``."""
    gen = np.random.Generator(np.random.PCG64(seed))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,tone,label\n")
        for _ in range(n):
            a = gen.uniform(0.0, 1.0)
            b = round(gen.uniform(0.0, 1.0), 1)
            k = int(gen.integers(0, 4))
            score = a + 0.8 * b - 0.3 * k + gen.normal(0.0, 0.1)
            label = "low" if score < 0.3 else "mid" if score < 0.9 else "high"
            fh.write(f"{a!r},{b!r},{'wxyz'[k]},{label}\n")
    return path


def mixed_space():
    """Two numeric features around one categorical, for the batch tests."""
    return ck.FeatureSpace(
        (
            ck.FeatureSpec.numeric("a", -1.0, 2.0),
            ck.FeatureSpec.categorical("c", ["p", "q", "r"]),
            ck.FeatureSpec.numeric("b", 0.0, 1.0),
        )
    )


class MixedModel(ck.Predictor):
    """An additive predictor over ``mixed_space`` that reads each row's
    values, as a user subclass would, and keeps every batch it is given."""

    LEVEL_SCORE = {"p": 0.0, "q": 0.25, "r": -0.5}

    def __init__(self):
        self.batches = []

    def evaluate(self, instances):
        rows = list(instances)
        self.batches.append(rows)
        return np.asarray(
            [[0.6 * a * a - 0.3 * b + self.LEVEL_SCORE[c]] for a, c, b in (r.values for r in rows)]
        )


def replaced(x, index, value):
    """x with one value changed: the per-row step of the reference builders."""
    values = list(x.values)
    values[index] = value
    return ck.Instance(tuple(values))


def exact(rows):
    """Each row's values with floats as repr, so equal means bit-identical
    (repr tells 0.0 from -0.0) and the value types must match too."""
    return [tuple((type(v), repr(v)) for v in r.values) for r in rows]
