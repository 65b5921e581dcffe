import csv
import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ciukit as ck
from ciukit import tabular
from ciukit.tabular import _ROUTE_BLOCK, _score_categorical, _score_numeric
from conftest import (
    nested_tree,
    tree_columns,
    write_classification_csv,
    write_multiclass_csv,
    write_regression_csv,
)


@pytest.fixture(scope="module")
def clean_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "clean.csv"
    write_classification_csv(path, n=500, seed=7, margin=0.15)
    return ck.load_csv(path, target="label")


def write_dataset_csv(dataset, path):
    """Write a classification Dataset back to CSV, floats as ``repr``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*dataset.space.names, dataset.target_name])
        for row, t in zip(dataset.rows, dataset.target):
            cells = [repr(v) if isinstance(v, float) else v for v in row.values]
            writer.writerow(cells + [dataset.class_names[t]])
    return path


def reference_leaf(node: dict, values) -> list:
    """Walk one row down one tree as nested dicts."""
    if "leaf" in node:
        return node["leaf"]
    v = values[node["feature"]]
    go_left = v <= node["threshold"] if "threshold" in node else v == node["level"]
    return reference_leaf(node["left"] if go_left else node["right"], values)


def reference_evaluate(model, rows) -> np.ndarray:
    """Ensemble mean by a per-row, per-tree walk, summed in tree order."""
    total = np.zeros((len(rows), model.n_outputs))
    for tree in map(nested_tree, model.trees):
        for r, row in enumerate(rows):
            total[r] += reference_leaf(tree, row.values)
    return total / len(model.trees)


def assert_matches_reference(model, rows) -> None:
    out, ref = model.evaluate(rows), reference_evaluate(model, rows)
    assert out.shape == (len(rows), model.n_outputs)
    assert np.array_equal(out, ref)
    assert out.tobytes() == ref.tobytes()  # also tells -0.0 from 0.0


class TestSchemaInference:
    def test_mixed_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1.5,lo,0\n2.5,hi,1\n0.5,lo,0\n")
        ds = ck.load_csv(path, target="y")
        a, b = ds.space.features
        assert a.is_numeric and a.min == 0.5 and a.max == 2.5
        assert not b.is_numeric and b.levels == ("lo", "hi")
        assert ds.task == "regression"

    def test_numeric_looking_column_with_one_string_is_categorical(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,0\n2,1\nx,0\n")
        ds = ck.load_csv(path, target="y")
        assert not ds.space.features[0].is_numeric
        assert ds.space.features[0].levels == ("1", "2", "x")

    def test_string_target_is_classification(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,no\n2,yes\n3,no\n")
        ds = ck.load_csv(path, target="y")
        assert ds.task == "classification"
        assert ds.class_names == ("no", "yes")  # first-appearance order
        assert ds.target == (0, 1, 0)

    def test_class_names_decode_the_target(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,no\n2,yes\n3,no\n")
        ds = ck.load_csv(path, target="y", class_names=["yes", "no"])
        assert ds.task == "classification"
        assert ds.class_names == ("yes", "no")
        assert ds.target == (1, 0, 1)
        path.write_text("a,y\n1,0\n2,1\n")  # numbers are labels too
        assert ck.load_csv(path, target="y", class_names=["1", "0"]).target == (1, 0)

    def test_label_outside_class_names(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,y\n1,0\n2,1\n3,maybe\n")
        with pytest.raises(ck.DataFormatError, match=r"\['0', '1', 'maybe'\]"):
            ck.load_csv(path, target="y", class_names=["yes", "no"])

    def test_constant_numeric_column_widened(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n2,1,0\n2,3,1\n")
        ds = ck.load_csv(path, target="y")
        a = ds.space.features[0]
        assert a.min == 1.5 and a.max == 2.5

    def test_huge_constant_widened_by_one_ulp(self, tmp_path):
        # 1e20 +/- 0.5 rounds back to 1e20, so both the column and the target step one ulp
        path = tmp_path / "t.csv"
        path.write_text("a,b,y\n1e20,1,1e20\n1e20,3,1e20\n")
        ds = ck.load_csv(path, target="y")
        below, above = math.nextafter(1e20, -math.inf), math.nextafter(1e20, math.inf)
        a = ds.space.features[0]
        assert (a.min, a.max) == (below, above)
        spec = ds.utility().spec(0)
        assert (spec.out_min, spec.out_max) == (below, above)

    def test_rows_are_one_encoded_batch(self, clean_dataset):
        rows = clean_dataset.rows
        assert isinstance(rows, ck.Rows) and rows.space == clean_dataset.space
        assert ck.core.as_rows(rows.space, list(rows)) == rows
        assert set(rows.matrix[:, 3].tolist()) == {0.0, 1.0}  # grade's level codes

    def test_explicit_schema_respected(self, tmp_path, clean_dataset):
        path = write_dataset_csv(clean_dataset, tmp_path / "t.csv")
        ds = ck.load_csv(path, target="label", schema=clean_dataset.space)
        assert ds.space == clean_dataset.space

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b,y\n1,2,0\n3,4,1\n")
        assert ck.load_csv(path, target="y").space.names == ("a", "b")
        assert ck.load_csv(path, target="a").target == (1.0, 3.0)


class TestLoadErrors:
    def make(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_empty_file(self, tmp_path):
        with pytest.raises(ck.DataFormatError):
            ck.load_csv(self.make(tmp_path, ""), target="y")

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"a,y\n\xff,1\n")
        with pytest.raises(ck.DataFormatError, match="unreadable CSV"):
            ck.load_csv(path, target="y")

    def test_numeric_header(self, tmp_path):
        with pytest.raises(ck.DataFormatError):
            ck.load_csv(self.make(tmp_path, "1,2\n3,4\n"), target="y")

    def test_missing_target_column(self, tmp_path):
        with pytest.raises(ck.ConfigError):
            ck.load_csv(self.make(tmp_path, "a,b\n1,2\n"), target="y")

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ck.DataFormatError):
            ck.load_csv(self.make(tmp_path, "a,y\n1,0\n1,0,9\n"), target="y")

    def test_empty_cell(self, tmp_path):
        with pytest.raises(ck.DataFormatError):
            ck.load_csv(self.make(tmp_path, "a,y\n1,0\n,1\n"), target="y")

    def test_duplicate_column(self, tmp_path):
        with pytest.raises(ck.DataFormatError):
            ck.load_csv(self.make(tmp_path, "a,a,y\n1,2,0\n"), target="y")

    def test_no_data_rows(self, tmp_path):
        with pytest.raises(ck.DataFormatError):
            ck.load_csv(self.make(tmp_path, "a,y\n"), target="y")

    def test_schema_columns_match_by_name(self, tmp_path):
        schema = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("a", 0, 1), ck.FeatureSpec.categorical("g", ["u", "v"]))
        )
        ds = ck.load_csv(self.make(tmp_path, "g,y,a\nv,0,0.25\n"), target="y", schema=schema)
        assert ds.space == schema and ds.rows[0].values == (0.25, "v")
        with pytest.raises(ck.ConfigError, match=r"missing \['g'\], extra \['b'\]"):
            ck.load_csv(self.make(tmp_path, "b,y,a\nv,0,0.25\n"), target="y", schema=schema)

    def test_schema_name_mismatch(self, tmp_path):
        schema = ck.FeatureSpace((ck.FeatureSpec.numeric("z", 0, 1),))
        with pytest.raises(ck.ConfigError):
            ck.load_csv(self.make(tmp_path, "a,y\n1,0\n"), target="y", schema=schema)

    def test_schema_unknown_level(self, tmp_path):
        schema = ck.FeatureSpace((ck.FeatureSpec.categorical("a", ["u"]),))
        with pytest.raises(ck.DataFormatError, match="unknown level 'v' in column 'a'"):
            ck.load_csv(self.make(tmp_path, "a,y\nu,0\nv,0\n"), target="y", schema=schema)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_number_column_rejected(self, tmp_path, cell):
        # Every cell parses as a float, so the column is numeric data, not
        # levels; it used to turn silently into a categorical feature.
        path = self.make(tmp_path, f"a,b,y\n1,0.5,0\n{cell},0.25,1\n")
        with pytest.raises(ck.DataFormatError, match="column 'a'"):
            ck.load_csv(path, target="y")

    def test_non_finite_target_rejected(self, tmp_path):
        path = self.make(tmp_path, "a,y\n1,0.5\n2,nan\n")
        with pytest.raises(ck.DataFormatError, match="column 'y'"):
            ck.load_csv(path, target="y")

    def test_schema_non_numeric_cell(self, tmp_path):
        schema = ck.FeatureSpace((ck.FeatureSpec.numeric("a", 0, 1),))
        with pytest.raises(ck.DataFormatError):
            ck.load_csv(self.make(tmp_path, "a,y\nhello,0\n"), target="y", schema=schema)


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path, clean_dataset):
        path = write_dataset_csv(clean_dataset, tmp_path / "copy.csv")
        again = ck.load_csv(path, target="label")
        assert again.rows == clean_dataset.rows  # repr floats survive the trip
        assert again.target == clean_dataset.target
        assert again.class_names == clean_dataset.class_names


class TestHoldoutSplit:
    def test_sizes(self, clean_dataset):
        train, test = ck.holdout_split(clean_dataset, 0.25, rng=1)
        assert len(train) == 375 and len(test) == 125

    def test_rounding_minimum(self, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text("a,y\n1,0\n2,1\n3,0\n4,1\n")
        ds = ck.load_csv(path, target="y")
        train, test = ck.holdout_split(ds, 0.25, rng=1)
        assert len(train) == 3 and len(test) == 1

    def test_too_small(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("a,y\n1,0\n2,1\n")
        ds = ck.load_csv(path, target="y")
        with pytest.raises(ck.ConfigError):
            ck.holdout_split(ds, 0.01)
        with pytest.raises(ck.ConfigError):
            ck.holdout_split(ds, 1.5)

    @pytest.mark.parametrize("fraction", ["0.5", True, None, float("nan")])
    def test_fraction_that_is_no_number(self, clean_dataset, fraction):
        with pytest.raises(ck.ConfigError, match="^holdout fraction must be a finite number$"):
            ck.holdout_split(clean_dataset, fraction)

    def test_disjoint_union(self, clean_dataset):
        train, test = ck.holdout_split(clean_dataset, 0.2, rng=5)
        everything = sorted(list(train.rows) + list(test.rows), key=lambda r: r.values)
        assert everything == sorted(clean_dataset.rows, key=lambda r: r.values)

    def test_sides_partition_the_rows(self, clean_dataset):
        train, test = ck.holdout_split(clean_dataset, 0.2, rng=5)
        assert isinstance(train.rows, ck.Rows) and isinstance(test.rows, ck.Rows)

        def labelled(ds):
            return sorted(zip(map(tuple, ds.rows.matrix.tolist()), ds.target))

        assert sorted(labelled(train) + labelled(test)) == labelled(clean_dataset)

    def test_determinism(self, clean_dataset):
        a = ck.holdout_split(clean_dataset, 0.2, rng=5)
        b = ck.holdout_split(clean_dataset, 0.2, rng=5)
        c = ck.holdout_split(clean_dataset, 0.2, rng=6)
        assert a[1].rows == b[1].rows
        assert a[1].rows != c[1].rows


class TestTreeEnsemble:
    def test_xor_in_sample(self, tmp_path):
        # a single linear split cannot solve xor; depth-2 trees must
        gen = np.random.Generator(np.random.PCG64(3))
        lines = ["a,b,y"]
        for _ in range(300):
            a, b = (float(v) for v in gen.uniform(0, 1, 2))
            lines.append(f"{a!r},{b!r},{'t' if (a > 0.5) != (b > 0.5) else 'f'}")
        path = tmp_path / "xor.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = ck.load_csv(path, target="y")
        model = ck.train_ensemble(ds, ck.TreeParams(n_trees=30), rng=1)
        assert ck.accuracy(model, ds) >= 0.95

    def test_holdout_accuracy(self, clean_dataset):
        train, test = ck.holdout_split(clean_dataset, 0.25, rng=1)
        model = ck.train_ensemble(train, rng=2)
        assert ck.accuracy(model, test) >= 0.9

    def test_probabilities_are_distributions(self, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=20), rng=2)
        probs = model.evaluate(list(clean_dataset.rows[:50]))
        assert probs.shape == (50, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0.0).all() and (probs <= 1.0).all()

    def test_single_class_warns_and_predicts_constant(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("a,y\n1,same\n2,same\n3,same\n")
        ds = ck.load_csv(path, target="y")
        with pytest.warns(UserWarning):
            model = ck.train_ensemble(ds, ck.TreeParams(n_trees=3), rng=1)
        assert len(model.trees) == 3
        probs = model.evaluate(list(ds.rows))
        assert np.allclose(probs, 1.0)

    def test_regression_r2_and_hull(self, tmp_path):
        gen = np.random.Generator(np.random.PCG64(4))
        lines = ["a,b,y"]
        for _ in range(400):
            a, b = (float(v) for v in gen.uniform(0, 1, 2))
            lines.append(f"{a!r},{b!r},{2.0 * a - b!r}")
        path = tmp_path / "reg.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = ck.load_csv(path, target="y")
        train, test = ck.holdout_split(ds, 0.25, rng=1)
        model = ck.train_ensemble(train, rng=2)
        assert ck.accuracy(model, test) >= 0.8
        preds = model.evaluate(list(test.rows))[:, 0]
        targets = np.asarray(train.target, dtype=float)
        # tree leaves average training targets, so predictions stay inside them
        assert preds.min() >= targets.min() and preds.max() <= targets.max()

    def test_training_determinism(self, clean_dataset):
        small = ck.TreeParams(n_trees=5, max_depth=4)
        a = ck.train_ensemble(clean_dataset, small, rng=7)
        b = ck.train_ensemble(clean_dataset, small, rng=7)
        rows = list(clean_dataset.rows[:20])
        assert np.array_equal(a.evaluate(rows), b.evaluate(rows))

    def test_unknown_level_is_a_config_error(self, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=5), rng=1)
        raw = ck.Instance((0.5, 0.5, 0.0, "unseen"))
        name = clean_dataset.space[3].name
        with pytest.raises(ck.ConfigError, match=f"^feature '{name}': label 'unseen' not in"):
            model.evaluate([raw])

    def test_params_validation(self):
        with pytest.raises(ck.ConfigError):
            ck.TreeParams(n_trees=0)
        with pytest.raises(ck.ConfigError):
            ck.TreeParams(feature_subsample="half")


def reference_impurity(y, task, n_outputs) -> float:
    """Total impurity times the row count: Gini for classes, SSE otherwise."""
    if task == "classification":
        counts = np.bincount(y, minlength=n_outputs).astype(float)
        n = len(y)
        return float(n * (1.0 - ((counts / n) ** 2).sum()))
    return float(((y - y.mean()) ** 2).sum())


def reference_score_numeric(v, y, task, n_outputs, min_leaf):
    """Best (gain, threshold) for one numeric column, or None, scored one
    column at a time: the reference for the segmented scorer."""
    order = np.argsort(v, kind="mergesort")
    vs, ys = v[order], y[order]
    n = len(ys)
    # split after position k means left = first k+1 rows
    cut = np.nonzero(vs[1:] > vs[:-1])[0]  # candidate boundaries
    cut = cut[(cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)]
    if cut.size == 0:
        return None
    if task == "classification":
        onehot = np.zeros((n, n_outputs))
        onehot[np.arange(n), ys] = 1.0
        left_counts = np.cumsum(onehot, axis=0)[cut]
        left_n = (cut + 1).astype(float)
        right_counts = np.sum(onehot, axis=0) - left_counts
        right_n = n - left_n
        gini_l = left_n - np.sum(left_counts**2, axis=1) / left_n
        gini_r = right_n - np.sum(right_counts**2, axis=1) / right_n
        parent = reference_impurity(ys, task, n_outputs)
        gains = parent - gini_l - gini_r
    else:
        ysf = ys.astype(float)
        csum = np.cumsum(ysf)[cut]
        csum2 = np.cumsum(ysf**2)[cut]
        left_n = (cut + 1).astype(float)
        tot, tot2 = float(ysf.sum()), float(np.sum(ysf**2))
        right_n = n - left_n
        sse_l = csum2 - csum**2 / left_n
        sse_r = (tot2 - csum2) - (tot - csum) ** 2 / right_n
        # tot * tot, as numpy squares an array: the libm pow behind a Python
        # float's ** 2 is not always correctly rounded and can miss by an ulp
        parent = tot2 - tot * tot / n
        gains = parent - sse_l - sse_r
    k = int(np.argmax(gains))
    gain = float(gains[k])
    lower, upper = float(vs[cut[k]]), float(vs[cut[k] + 1])
    threshold = (lower + upper) / 2.0  # a Python float: inf where the sum overflows
    return gain, threshold if lower <= threshold < upper else lower


def reference_score_categorical(v, y, task, n_outputs, min_leaf):
    """Best (gain, level code) one-vs-rest split of one categorical column,
    or None, scored level by level: the reference for the segmented scorer."""
    parent = reference_impurity(y, task, n_outputs)
    best = None
    for code in np.flatnonzero(np.bincount(v)):  # the codes present, ascending
        mask = v == code
        nl = int(np.count_nonzero(mask))
        if nl < min_leaf or len(v) - nl < min_leaf:
            continue
        il = reference_impurity(y[mask], task, n_outputs)
        ir = reference_impurity(y[~mask], task, n_outputs)
        gain = parent - il - ir
        if best is None or gain > best[0]:
            best = (float(gain), int(code))
    return best


def reference_leaf_node(y, task, n_outputs) -> dict:
    """A leaf over targets ``y``: class frequencies, or the mean."""
    if task == "classification":
        counts = np.bincount(y, minlength=n_outputs)
        return {"leaf": [float(v) for v in counts / counts.sum()]}
    return {"leaf": [float(y.mean())]}


def reference_grow(X, y, boot, space, params, task, n_outputs, gen) -> dict:
    """One tree grown alone, level by level and node by node, candidate by
    candidate, with one draw per level that has search nodes, as nested
    dicts: the reference for the grower of all trees at once."""
    n_feat = len(space)
    k = max(1, round(np.sqrt(n_feat))) if params.feature_subsample == "sqrt" else n_feat
    root = {}
    level = [(root, boot)]  # (node, rows) in level order
    for depth in range(params.max_depth + 1):
        search = []
        for node, idx in level:
            node_y = y[idx]
            if (
                depth >= params.max_depth
                or len(idx) < 2 * params.min_leaf
                or (node_y == node_y[0]).all()
            ):
                node.update(reference_leaf_node(node_y, task, n_outputs))
            else:
                search.append((node, idx))
        if not search:
            return root
        draws = gen.permuted(np.tile(np.arange(n_feat), (len(search), 1)), axis=1)[:, :k]
        level = []
        for (node, idx), drawn in zip(search, draws):
            node_y = y[idx]
            best = None  # (gain, feature, split value)
            for i in sorted(drawn.tolist()):
                if space[i].is_numeric:
                    scored = reference_score_numeric(
                        X[i, idx], node_y, task, n_outputs, params.min_leaf
                    )
                else:
                    v = X[i, idx].astype(np.intp)
                    scored = reference_score_categorical(v, node_y, task, n_outputs, params.min_leaf)
                if scored is not None and (best is None or scored[0] > best[0]):
                    best = (scored[0], i, scored[1])
            if best is None or best[0] <= tabular._MIN_GAIN:
                node.update(reference_leaf_node(node_y, task, n_outputs))
                continue
            _, feature, value = best
            v = X[feature, idx]
            if space[feature].is_numeric:
                mask = v <= value
                node.update(feature=feature, threshold=value)
            else:
                mask = v == value
                node.update(feature=feature, level=space[feature].levels[value])
            node.update(left={}, right={})
            level += [(node["left"], idx[mask]), (node["right"], idx[~mask])]
    return root


def reference_trees(dataset, params, seed) -> list[dict]:
    """The trees of ``train_ensemble(dataset, params, rng=seed)``, each grown
    alone by ``reference_grow``."""
    classes = dataset.task == "classification"
    n_outputs = len(dataset.class_names) if classes else 1
    y = np.asarray(dataset.target, dtype=int if classes else float)
    X = np.ascontiguousarray(dataset.rows.matrix.T)
    trees = []
    for t in range(params.n_trees):
        gen = ck.SeededRng(seed).spawn(t).generator()
        boot = np.sort(gen.integers(0, len(dataset), size=len(dataset)))
        args = dataset.space, params, dataset.task, n_outputs, gen
        trees.append(reference_grow(X, y, boot, *args))
    return trees


@st.composite
def segments_case(draw, categorical: bool):
    """Several segments of different lengths, each one candidate column of
    one node with its targets, and a min_leaf. Numeric values are rounded so
    that they tie, level codes leave some levels out of a segment, and the
    targets take few values so that gains tie; zero classes is regression."""
    n_classes = draw(st.integers(0, 10))
    if categorical:
        value = st.integers(0, draw(st.integers(0, 5)))
    else:
        decimals = draw(st.integers(0, 3))
        value = st.floats(-10.0, 10.0).map(lambda v: round(v, decimals))
    if n_classes:
        target = st.integers(0, n_classes - 1)
    else:
        target = st.sampled_from([-1.5, 0.0, 0.1, 2.0, 7.5]) | st.floats(-10.0, 10.0)
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=5))
    segments = [
        (np.array(draw(st.lists(value, min_size=n, max_size=n))),
         np.array(draw(st.lists(target, min_size=n, max_size=n))))
        for n in sizes
    ]
    task = "classification" if n_classes else "regression"
    return segments, task, max(n_classes, 1), draw(st.integers(1, 4))


def score_segments(segments, task, n_outputs, min_leaf, numeric: bool):
    """One call of the segmented scorer over all segments, laid out as the
    references give each: (gain, value), or None where the gain is -inf,
    whose value must then be 0.0."""
    values = np.concatenate([v for v, _ in segments])
    y = np.concatenate([t for _, t in segments])
    sizes = np.array([len(v) for v, _ in segments])
    parent = np.array([reference_impurity(t, task, n_outputs) for _, t in segments])
    args = y, sizes, task, n_outputs, min_leaf, parent
    if numeric:
        gains, best = _score_numeric(values, np.unique(values, return_inverse=True)[1], *args)
    else:
        gains, best = _score_categorical(values, *args)
    assert gains.shape == best.shape == sizes.shape
    assert (best[gains == -math.inf] == 0.0).all()
    return [None if g == -math.inf else (g, v) for g, v in zip(gains.tolist(), best.tolist())]


def score_bits(scored):
    # float.hex is exact and tells -0.0 from 0.0
    return None if scored is None else tuple(float(x).hex() for x in scored)


@settings(max_examples=400, deadline=None)
@given(case=segments_case(categorical=False))
def test_segmented_numeric_scores_match_column_reference(case):
    segments, task, n_outputs, min_leaf = case
    scored = score_segments(segments, task, n_outputs, min_leaf, numeric=True)
    assert len(scored) == len(segments)
    for (v, y), got in zip(segments, scored):
        want = reference_score_numeric(v, y, task, n_outputs, min_leaf)
        assert score_bits(got) == score_bits(want)


@settings(max_examples=400, deadline=None)
@given(case=segments_case(categorical=True))
def test_segmented_categorical_scores_match_level_reference(case):
    segments, task, n_outputs, min_leaf = case
    scored = score_segments(segments, task, n_outputs, min_leaf, numeric=False)
    assert len(scored) == len(segments)
    for (v, y), got in zip(segments, scored):
        want = reference_score_categorical(v, y, task, n_outputs, min_leaf)
        assert score_bits(got) == score_bits(want)
        assert got is None or got[1].is_integer()  # an integral level code


@pytest.mark.parametrize("task", ["classification", "regression"])
@pytest.mark.parametrize("n_values", [30_000, 40_000])
def test_numeric_scores_match_the_reference_at_both_key_widths(task, n_values):
    # Two segments of n_values distinct values, each held twice: the sort key
    # segment * n_values + rank reaches 2 * n_values - 1, which fits 16 bits
    # (a radix sort) at 30,000 and needs 32 at 40,000. Tied values keep their
    # order, which a regression's float prefix sums depend on.
    gen = np.random.default_rng(n_values)
    n_outputs = 3 if task == "classification" else 1
    segments = []
    for _ in range(2):
        values = gen.permutation(np.repeat(np.arange(n_values) / 8.0, 2))
        y = gen.integers(0, 3, len(values)) if n_outputs > 1 else gen.normal(size=len(values))
        segments.append((values, y))
    key_max = 2 * n_values - 1
    assert np.min_scalar_type(key_max).itemsize == (2 if n_values == 30_000 else 4)
    scored = score_segments(segments, task, n_outputs, 2, numeric=True)
    for (v, y), got in zip(segments, scored):
        assert score_bits(got) == score_bits(reference_score_numeric(v, y, task, n_outputs, 2))


@pytest.mark.parametrize("n_nodes", [0, 300, 40_000])
def test_split_rows_orders_each_child_as_a_stable_sort(n_nodes):
    # 2 * n_nodes child ids: none, a 16-bit key and a 32-bit one
    gen = np.random.default_rng(n_nodes)
    X = np.stack([gen.integers(0, 4, 500).astype(float), gen.normal(size=500)])
    numeric = np.array([False, True])
    sizes = gen.integers(1, 4, n_nodes)
    rows = np.sort(gen.integers(0, 500, sizes.sum()))
    feature = gen.integers(0, 2, n_nodes)
    value = np.where(feature == 1, gen.normal(size=n_nodes), gen.integers(0, 4, n_nodes))
    got_rows, got_sizes = tabular._split_rows(X, numeric, rows, sizes, feature, value)
    node = np.repeat(np.arange(n_nodes), sizes)
    x = X[feature[node], rows]
    left = np.where(numeric[feature[node]], x <= value[node], x == value[node])
    child = (2 * node + ~left).astype(np.int64)
    assert np.array_equal(got_rows, rows[np.argsort(child, kind="stable")])
    assert np.array_equal(got_sizes, np.bincount(child, minlength=2 * n_nodes))


def test_categorical_tie_goes_to_the_lowest_code():
    # levels 1, 3 and 4 each hold one pure class of two rows, so every
    # split gains the same and level 0, absent, is never a candidate
    segments = [(np.array([3, 1, 4, 3, 1, 4]), np.array([1, 0, 2, 1, 0, 2]))]
    (scored,) = score_segments(segments, "classification", 3, 1, numeric=False)
    assert scored == reference_score_categorical(*segments[0], "classification", 3, 1)
    assert scored[1] == 1


@pytest.mark.parametrize(
    "lower,upper",
    [
        # adjacent floats whose midpoint rounds up to the upper one
        (math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0)),
        (-1e-299, -9.999999999999999e-300),
        (1.6e308, 1.7e308),  # their sum overflows
    ],
)
def test_split_threshold_separates_the_rows_it_scored(tmp_path, lower, upper):
    path = tmp_path / "two_values.csv"
    floor = min(0.0, 2.0 * lower)  # keeps the column's midpoint finite
    rows = [(floor, "no"), (lower, "no"), (upper, "yes"), (upper, "yes")] * 3
    path.write_text("x,y\n" + "".join(f"{v!r},{c}\n" for v, c in rows))
    dataset = ck.load_csv(path, "y")
    model = ck.train_ensemble(dataset, ck.TreeParams(n_trees=2, max_depth=1), rng=0)
    for tree in model.trees:
        (threshold,) = tree["split"]
        assert threshold == lower or lower < threshold < upper
    assert model.evaluate(dataset.rows)[:, 1].tolist() == [0.0, 0.0, 1.0, 1.0] * 3


def training_data(data: str, clean_dataset, tmp_path):
    if data == "clean":
        return clean_dataset
    path = tmp_path / "data.csv"
    if data == "multiclass":
        return ck.load_csv(write_multiclass_csv(path), target="label")
    return ck.load_csv(write_regression_csv(path), target="y")


class TestLockstepGrowth:
    """``train_ensemble`` grows every tree at once; each tree must be the one
    grown alone, level by level."""

    @pytest.mark.parametrize(
        "params", [ck.TreeParams(6, 8, 1), ck.TreeParams(4, 12, 3), ck.TreeParams(3, 5, 2, "all")]
    )
    @pytest.mark.parametrize("data", ["clean", "multiclass", "regression"])
    def test_trees_match_recursive_reference(self, data, params, clean_dataset, tmp_path):
        dataset = training_data(data, clean_dataset, tmp_path)
        model = ck.train_ensemble(dataset, params, rng=4)
        assert [nested_tree(tree) for tree in model.trees] == reference_trees(dataset, params, 4)

    @pytest.mark.parametrize("data", ["clean", "regression"])
    def test_a_tree_does_not_depend_on_the_other_trees(self, data, clean_dataset, tmp_path):
        # Tree t draws only from the stream (seed, t): the first trees of a
        # larger ensemble are the trees of a smaller one, byte for byte.
        dataset = training_data(data, clean_dataset, tmp_path)
        params = ck.TreeParams(n_trees=7, max_depth=6)
        seven = ck.train_ensemble(dataset, params, rng=5)
        three = ck.train_ensemble(dataset, dataclasses.replace(params, n_trees=3), rng=5)
        assert json.dumps(seven.trees[:3]) == json.dumps(three.trees)

    def test_score_blocks_never_change_a_tree(self, monkeypatch, clean_dataset, tmp_path):
        params = ck.TreeParams(n_trees=12, max_depth=10)
        ck.save_model(tmp_path / "default.json", ck.train_ensemble(clean_dataset, params, rng=6))
        monkeypatch.setattr(tabular, "_SCORE_BLOCK", 1)
        ck.save_model(tmp_path / "one.json", ck.train_ensemble(clean_dataset, params, rng=6))
        one = (tmp_path / "one.json").read_bytes()
        assert one == (tmp_path / "default.json").read_bytes()


class TestHugeRegressionTarget:
    """Targets near the float limit: the squared impurity sums would overflow,
    so the grower works on y times an exact power of two."""

    def test_scaled_targets_grow_the_scaled_trees(self, tmp_path):
        small = ck.load_csv(write_regression_csv(tmp_path / "data.csv"), target="y")
        factor = 2.0**990  # every |y| * factor stays below 1e299
        big = dataclasses.replace(small, target=tuple(v * factor for v in small.target))
        params = ck.TreeParams(n_trees=5, max_depth=6)
        want = ck.train_ensemble(small, params, rng=3)
        got = ck.train_ensemble(big, params, rng=3)
        rows = list(small.rows)
        assert np.array_equal(got.evaluate(rows), want.evaluate(rows) * factor)
        assert ck.accuracy(got, big) == ck.accuracy(want, small)


def has_level_split(tree: dict) -> bool:
    return any(isinstance(value, str) for value in tree["split"])


MIXED_SPACE = ck.FeatureSpace(
    (
        ck.FeatureSpec.numeric("a", 0.0, 1.0),
        ck.FeatureSpec.categorical("g", ["x", "y", "z"]),
        ck.FeatureSpec.numeric("b", -1.0, 1.0),
        ck.FeatureSpec.categorical("h", ["u", "v"]),
    )
)
GRID = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)  # shared by thresholds and row values
LEAF = {"feature": [-1], "split": [], "leaf": [1.0]}  # a one-leaf tree of one output


class TestCompiledRouting:
    """``evaluate`` routes through flat arrays; it must agree bit for bit with
    a walk of each tree as nested dicts."""

    def test_classifier_with_categorical_splits(self, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=20), rng=1)
        assert any(has_level_split(tree) for tree in model.trees)
        assert_matches_reference(model, list(clean_dataset.rows[:200]))

    def test_unseen_levels(self, clean_dataset):
        # A level the space declares but no training row holds: no split
        # tests it, so every level split sends it right.
        trained = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=20), rng=1)
        *numeric, grade = clean_dataset.space
        wider = ck.FeatureSpec.categorical(grade.name, grade.levels + ("unseen",))
        space = ck.FeatureSpace((*numeric, wider))
        model = ck.TreeEnsemble(space, trained.trees, trained.task, trained.class_names)
        rows = [ck.Instance(r.values[:3] + ("unseen",)) for r in clean_dataset.rows[:50]]
        assert_matches_reference(model, rows)

    def test_single_class_constant_model(self, clean_dataset):
        model = ck.TreeEnsemble(clean_dataset.space, [LEAF], "classification", ["yes"])
        rows = list(clean_dataset.rows[:10])
        assert_matches_reference(model, rows)
        assert np.array_equal(model.evaluate(rows), np.ones((10, 1)))

    def test_regression_ensemble(self, tmp_path):
        gen = np.random.Generator(np.random.PCG64(4))
        lines = ["a,g,y"]
        for _ in range(200):
            a, k = float(gen.uniform(0, 1)), int(gen.integers(0, 3))
            lines.append(f"{a!r},{'pqr'[k]},{a * a - 0.3 * k!r}")
        path = tmp_path / "reg.csv"
        path.write_text("\n".join(lines) + "\n")
        ds = ck.load_csv(path, target="y")
        model = ck.train_ensemble(ds, ck.TreeParams(n_trees=15), rng=3)
        assert model.task == "regression"
        assert_matches_reference(model, list(ds.rows))

    def test_hand_built_unbalanced_trees(self):
        def leaf(v):
            return {"leaf": [v]}

        chain = leaf(0.0)
        for k, t in enumerate((0.9, 0.7, 0.5, 0.25, 0.0)):
            chain = {"feature": 0, "threshold": t, "left": chain, "right": leaf(k + 1.0)}
        lopsided = {"feature": 1, "level": "y", "left": chain, "right": leaf(-2.0)}
        stump = {"feature": 3, "level": "v", "left": leaf(3.0), "right": leaf(4.0)}
        trees = [lopsided, leaf(0.5), stump]
        model = ck.TreeEnsemble(MIXED_SPACE, list(map(tree_columns, trees)), "regression")
        rows = [
            ck.Instance((a, g, 0.0, h))
            for a in (0.0, 0.1, 0.25, 0.5, 0.6, 0.7, 0.9, 1.0)
            for g in ("x", "y", "z")
            for h in ("u", "v")
        ]
        assert_matches_reference(model, rows)

    def test_batch_larger_than_one_block(self, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=100, max_depth=3), rng=2)
        rows = list(clean_dataset.rows[:400])
        assert len(rows) > _ROUTE_BLOCK // len(model.trees)
        assert_matches_reference(model, rows)

    def test_single_row_batches(self, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=100, max_depth=3), rng=2)
        for row in clean_dataset.rows[:5]:
            assert_matches_reference(model, [row])

    def test_many_split_levels_size_the_block_by_width(self):
        # Three trees split on ~130 (feature, level) pairs, each routed as
        # its own indicator column: the block is _ROUTE_BLOCK // width rows.
        levels = tuple(f"L{k}" for k in range(150))
        space = ck.FeatureSpace(
            (ck.FeatureSpec.numeric("a", 0.0, 1.0), ck.FeatureSpec.categorical("g", levels))
        )
        gen = np.random.Generator(np.random.PCG64(8))

        def grow(depth):
            if depth == 0:
                return {"leaf": [float(gen.normal())]}
            if gen.integers(4) == 0:
                split = {"feature": 0, "threshold": float(gen.uniform())}
            else:
                split = {"feature": 1, "level": levels[gen.integers(len(levels))]}
            return {**split, "left": grow(depth - 1), "right": grow(depth - 1)}

        model = ck.TreeEnsemble(space, [tree_columns(grow(7)) for _ in range(3)], "regression")
        width = len(space) + len(model._flat.pair_feature)
        assert width > len(model.trees)
        rows = [
            ck.Instance((float(gen.uniform()), levels[k % 150]))
            for k in range(2 * (_ROUTE_BLOCK // width) + 1)  # three blocks
        ]
        assert_matches_reference(model, rows)
        for row in rows[:30]:
            assert_matches_reference(model, [row])

    def test_numeric_only_model_has_no_indicator_columns(self, tmp_path):
        cells = np.random.Generator(np.random.PCG64(6)).uniform(0, 1, (300, 2)).tolist()
        path = tmp_path / "numeric.csv"
        path.write_text("a,b,y\n" + "".join(
            f"{a!r},{b!r},{'yes' if a * b > 0.2 else 'no'}\n" for a, b in cells
        ))
        model = ck.train_ensemble(ck.load_csv(path, target="y"), ck.TreeParams(100, 4), rng=4)
        assert len(model._flat.pair_feature) == 0
        rows = ck.uniform_instances(model.space, 400, ck.SeededRng(2))  # three blocks
        assert_matches_reference(model, rows)
        for row in rows[:10]:
            assert_matches_reference(model, [row])

    def test_negative_zero_leaves(self):
        # a sum started at 0.0 turns -0.0 leaves into 0.0
        model = ck.TreeEnsemble(MIXED_SPACE, [tree_columns({"leaf": [-0.0]})] * 3, "regression")
        assert_matches_reference(model, [MIXED_SPACE.midpoint()])

    def test_empty_batch(self, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=5), rng=2)
        assert model.evaluate([]).shape == (0, 2)
        regression = ck.TreeEnsemble(MIXED_SPACE, [LEAF], "regression")
        assert regression.evaluate([]).shape == (0, 1)


def _stump(feature=0, split=0.5, leaf=(0.25, 0.75)) -> dict:
    return {"feature": [feature, -1, -1], "split": [split], "leaf": list(leaf)}


# A fault of each kind, put in trees 2 and 3 of four, with the message that names tree 2.
LATER_TREE_FAULTS = {
    "feature-index": (_stump(feature=3), "tree 2: feature index 3 out of range"),
    "structure": (
        {"feature": [0, -1], "split": [0.5], "leaf": [0.5]},
        "tree 2: 'feature' is not a full binary tree in preorder",
    ),
    "split-count": (
        {"feature": [-1], "split": [0.5], "leaf": [0.5]}, "tree 2: 1 split values for 0 splits"
    ),
    "threshold": (_stump(split=math.inf), "tree 2: threshold must be a finite number"),
    "leaf-count": (_stump(leaf=[0.5]), "tree 2: 1 leaf values for 2 leaves of 1 outputs"),
    "leaf-value": (_stump(leaf=[0.5, math.nan]), "tree 2: leaf values must be finite numbers"),
}


class TestFirstBadNodeRaises:
    """Each check covers every tree at once and names the first tree that
    fails it. Leaf values are checked first, so a bad leaf is named before a
    bad node of a later tree."""

    SPACE = ck.FeatureSpace(tuple(ck.FeatureSpec.numeric(n, 0.0, 1.0) for n in "abc"))

    @staticmethod
    def split(i, left, right):
        return {"feature": i, "threshold": 0.5, "left": left, "right": right}

    def ensemble(self, trees):
        return ck.TreeEnsemble(self.SPACE, list(map(tree_columns, trees)), "regression")

    def test_infinite_leaf_before_a_bad_feature_index(self):
        trees = [
            self.split(0, {"leaf": [1.0]}, {"leaf": [math.inf]}),
            self.split(3, {"leaf": [1.0]}, {"leaf": [0.0]}),
        ]
        with pytest.raises(ck.DataFormatError, match=r"^tree 0: leaf values must be finite numbers$"):
            self.ensemble(trees)

    def test_non_number_leaf_names_its_tree(self):
        trees = [
            self.split(1, {"leaf": [1.0]}, {"leaf": [0.0]}),
            self.split(2, {"leaf": ["x"]}, {"leaf": [math.inf]}),
            {"leaf": [None]},
        ]
        with pytest.raises(ck.DataFormatError, match=r"^tree 1: leaf values must be numbers$"):
            self.ensemble(trees)

    @pytest.mark.parametrize("other", [[0.5], [False], [1]])
    def test_bool_leaf_is_not_a_number(self, other):
        trees = [
            self.split(0, {"leaf": [0.25]}, {"leaf": [0.75]}),
            self.split(1, {"leaf": other}, {"leaf": [True]}),
            {"leaf": [0.5]},
        ]
        with pytest.raises(ck.DataFormatError, match=r"^tree 1: leaf values must be numbers$"):
            self.ensemble(trees)
        with pytest.raises(ck.DataFormatError, match=r"^tree 0: leaf values must be numbers$"):
            self.ensemble([{"leaf": [True]}, {"leaf": other}])

    @pytest.mark.parametrize("fault", sorted(LATER_TREE_FAULTS))
    def test_fault_in_a_later_tree_names_that_tree(self, fault):
        tree, message = LATER_TREE_FAULTS[fault]
        trees = [_stump(), {"feature": [-1], "split": [], "leaf": [0.5]}, tree, tree]
        with pytest.raises(ck.DataFormatError, match=f"^{re.escape(message)}$"):
            ck.TreeEnsemble(self.SPACE, trees, "regression")


@st.composite
def random_tree(draw, depth: int, n_outputs: int) -> dict:
    if depth == 0 or draw(st.booleans()):
        value = st.floats(-10.0, 10.0, allow_nan=False)
        return {"leaf": draw(st.lists(value, min_size=n_outputs, max_size=n_outputs))}
    i = draw(st.integers(0, len(MIXED_SPACE) - 1))
    feat = MIXED_SPACE[i]
    if feat.is_numeric:
        node = {"feature": i, "threshold": draw(st.sampled_from(GRID) | st.floats(-1.5, 1.5))}
    else:
        node = {"feature": i, "level": draw(st.sampled_from(feat.levels))}
    node["left"] = draw(random_tree(depth - 1, n_outputs))
    node["right"] = draw(random_tree(depth - 1, n_outputs))
    return node


@st.composite
def random_row(draw) -> ck.Instance:
    values = []
    for feat in MIXED_SPACE:
        if feat.is_numeric:
            values.append(draw(st.sampled_from(GRID) | st.floats(-1.5, 1.5)))
        else:
            values.append(draw(st.sampled_from(feat.levels)))
    return ck.Instance(tuple(values))


@st.composite
def random_model(draw) -> ck.TreeEnsemble:
    n_outputs = draw(st.integers(1, 3))
    depths = st.integers(0, 6)
    tree = depths.flatmap(lambda d: random_tree(d, n_outputs))
    trees = [tree_columns(t) for t in draw(st.lists(tree, min_size=1, max_size=6))]
    if n_outputs == 1:
        return ck.TreeEnsemble(MIXED_SPACE, trees, "regression")
    classes = [f"c{k}" for k in range(n_outputs)]
    return ck.TreeEnsemble(MIXED_SPACE, trees, "classification", classes)


@settings(max_examples=200, deadline=None)
@given(model=random_model(), rows=st.lists(random_row(), max_size=20))
def test_random_trees_match_reference(model, rows):
    assert_matches_reference(model, rows)


class TestModelPersistence:
    def test_roundtrip_bitwise(self, tmp_path, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=8), rng=5)
        path = tmp_path / "model.json"
        ck.save_model(path, model)
        again = ck.load_model(path)
        rows = list(clean_dataset.rows[:30])
        assert again.evaluate(rows).tobytes() == model.evaluate(rows).tobytes()
        assert again.space == clean_dataset.space
        assert again.class_names == model.class_names

    def test_file_holds_one_object_of_columns_per_tree(self, tmp_path, clean_dataset):
        params = ck.TreeParams(n_trees=6)
        ck.save_model(tmp_path / "model.json", ck.train_ensemble(clean_dataset, params, rng=5))
        doc = json.loads((tmp_path / "model.json").read_text())
        assert doc["format"] == 2 and len(doc["trees"]) == 6
        for tree in doc["trees"]:
            assert sorted(tree) == ["feature", "leaf", "split"]
            n_leaves = tree["feature"].count(-1)
            assert len(tree["leaf"]) == n_leaves * 2  # two classes
            assert all(type(v) is float for v in tree["leaf"])
            assert len(tree["split"]) == len(tree["feature"]) - n_leaves > 0

    def test_save_is_deterministic(self, tmp_path, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=4), rng=5)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        ck.save_model(p1, model)
        ck.save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_then_save_keeps_bytes(self, tmp_path, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=8), rng=5)
        assert any(has_level_split(tree) for tree in model.trees)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        ck.save_model(p1, model)
        ck.save_model(p2, ck.load_model(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_without_features_is_rejected(self, tmp_path, clean_dataset):
        model = ck.train_ensemble(clean_dataset, ck.TreeParams(n_trees=3), rng=5)
        path = tmp_path / "m.json"
        ck.save_model(path, model)
        doc = json.loads(path.read_text())
        del doc["features"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ck.DataFormatError, match="'features'"):
            ck.load_model(path)

    def test_bad_documents(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{not json")
        with pytest.raises(ck.DataFormatError):
            ck.load_model(path)
        path.write_text(json.dumps({"kind": "linear"}))
        with pytest.raises(ck.DataFormatError):
            ck.load_model(path)
