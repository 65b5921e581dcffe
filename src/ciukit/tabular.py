"""CSV datasets and a bagged decision-tree ensemble.

The loader infers a feature schema from the data (a column is numeric when
every value parses as a number, categorical otherwise), and the ensemble is
a from-scratch bagged CART: bootstrap rows per tree, random feature subsets
per split, Gini impurity for classification and variance for regression.
Leaf outputs are class-probability vectors or means, so every prediction
stays inside the convex hull of the training targets.
"""

from __future__ import annotations

import csv
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from itertools import chain, compress
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    ConfigError,
    DataFormatError,
    FeatureSpace,
    FeatureSpec,
    Instance,
    OutputUtility,
    Predictor,
    Rows,
    _int_arg,
    as_rows,
    config_from_json,
    evaluate_rows,
    feature_to_json,
    finite_number,
    read_json,
    square_safe_scale,
)
from .sampling import _generators, as_rng

CLASSIFICATION = "classification"
REGRESSION = "regression"

# Impurity decrease below this is treated as no split.
_MIN_GAIN = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Feature rows, as one ``Rows`` batch, plus a target column.

    Classification targets are class indices into ``class_names``;
    regression targets are floats.
    """

    space: FeatureSpace
    rows: Rows
    target: tuple
    target_name: str
    task: str
    class_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.target):
            raise DataFormatError("rows and target must have equal length")
        if self.task not in (CLASSIFICATION, REGRESSION):
            raise DataFormatError(f"unknown task {self.task!r}")

    def __len__(self) -> int:
        return len(self.rows)

    def utility(self) -> OutputUtility:
        if self.task == CLASSIFICATION:
            return OutputUtility.classification(self.class_names)
        lo, hi = _widen_constant(float(min(self.target)), float(max(self.target)))
        return OutputUtility.single(self.target_name, out_min=lo, out_max=hi)


def _widen_constant(lo: float, hi: float) -> tuple[float, float]:
    """Widen a constant range (lo == hi) so it declares a valid interval: by
    0.5 each way, or by one ulp where 0.5 rounds away (|lo| >= 2**53)."""
    if lo != hi:
        return lo, hi
    return min(lo - 0.5, math.nextafter(lo, -math.inf)), max(hi + 0.5, math.nextafter(hi, math.inf))


def _is_number(text: str) -> bool:
    try:
        v = float(text)
    except ValueError:
        return False
    return math.isfinite(v)


def _infer_feature(path, name: str, column: list[str], values: list[float] | None) -> FeatureSpec:
    """A numeric feature over ``values``, the column's cells as floats, or a
    categorical one when they are None because some cell is not a number.
    A column that declares no valid feature raises DataFormatError."""
    try:
        if values is None:
            return FeatureSpec.categorical(name, dict.fromkeys(column))  # first-appearance order
        return FeatureSpec.numeric(name, *_widen_constant(min(values), max(values)))
    except ConfigError as e:
        raise DataFormatError(f"{path}: column {name!r}: {e}") from None


def load_csv(
    path, target: str, schema: FeatureSpace | None = None, class_names: Sequence[str] = ()
) -> Dataset:
    """Load an RFC-4180 CSV with a header row into a Dataset.

    The target column is removed from the features. Without an explicit
    ``schema``, feature types and bounds are inferred from the data; with
    one, columns are matched to its features by name, a missing or extra
    column raises ConfigError and an undeclared level DataFormatError.
    Given a classifier's ``class_names``, the target labels are decoded
    through them whatever the row order, and a label outside them raises
    DataFormatError; without, a target of numbers is a regression target
    and any other gets class names in first-appearance order.
    Missing cells and ragged rows are rejected rather than imputed, and a
    leading UTF-8 byte-order mark is skipped.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            table = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataFormatError(f"{path}: unreadable CSV ({e})") from None
    if not table:
        raise DataFormatError(f"{path}: file is empty")
    header, *data = table
    if any(_is_number(cell) for cell in header):
        raise DataFormatError(f"{path}: first row looks like data, expected a header")
    if len(set(header)) != len(header):
        raise DataFormatError(f"{path}: duplicate column names")
    if target not in header:
        raise ConfigError(f"{path}: target column {target!r} not found")
    if not data:
        raise DataFormatError(f"{path}: no data rows")
    for k, row in enumerate(data):
        if len(row) != len(header):
            raise DataFormatError(f"{path}: row {k + 2} has {len(row)} cells, expected {len(header)}")
        if any(cell == "" for cell in row):
            raise DataFormatError(f"{path}: row {k + 2} has an empty cell")
    feature_names = [h for h in header if h != target]
    columns = {h: [row[i] for row in data] for i, h in enumerate(header)}
    numbers = {}  # the cells as floats of every column of numbers
    for name, column in columns.items():
        try:
            values = [float(v) for v in column]
        except ValueError:
            continue  # not a number column
        if not all(map(math.isfinite, values)):
            raise DataFormatError(f"{path}: column {name!r} holds NaN or infinity")
        numbers[name] = values

    if schema is None:
        space = FeatureSpace(tuple(
            _infer_feature(path, name, columns[name], numbers.get(name)) for name in feature_names
        ))
    else:
        missing = [n for n in schema.names if n not in feature_names]
        extra = [n for n in feature_names if n not in schema.names]
        if missing or extra:
            raise ConfigError(
                f"{path}: columns do not match the features: missing {missing}, extra {extra}"
            )
        space = schema

    # One row per feature: floats, or level codes for a categorical feature.
    matrix = np.empty((len(space), len(data)))
    for feat, out in zip(space, matrix):
        column = columns[feat.name]
        if feat.is_numeric:
            if feat.name not in numbers:
                cell = next(c for c in column if not _is_number(c))
                raise DataFormatError(
                    f"{path}: non-numeric value {cell!r} in numeric column {feat.name!r}"
                )
            out[:] = numbers[feat.name]
        else:
            codes = {level: k for k, level in enumerate(feat.levels)}
            try:
                out[:] = [codes[cell] for cell in column]
            except KeyError as e:
                raise DataFormatError(
                    f"{path}: unknown level {e.args[0]!r} in column {feat.name!r}"
                ) from None
    rows = Rows(space, matrix.T)

    raw_target = columns[target]
    if not class_names and target in numbers:
        return Dataset(space, rows, tuple(numbers[target]), target, REGRESSION)
    class_names = tuple(class_names) or tuple(dict.fromkeys(raw_target))
    index = {c: k for k, c in enumerate(class_names)}
    unknown = sorted(set(raw_target) - index.keys())
    if unknown:
        raise DataFormatError(
            f"{path}: target labels {unknown} are not among the classes {list(class_names)}"
        )
    return Dataset(
        space, rows, tuple(index[v] for v in raw_target),
        target, CLASSIFICATION, class_names,
    )


def holdout_split(dataset: Dataset, fraction: float = 0.25, rng=None) -> tuple[Dataset, Dataset]:
    """Seeded shuffle split into (train, test); both sides must be non-empty."""
    if not 0.0 < finite_number(fraction, "holdout fraction") < 1.0:
        raise ConfigError("holdout fraction must be in (0, 1)")
    n = len(dataset)
    n_test = round(n * fraction)
    if n_test < 1 or n - n_test < 1:
        raise ConfigError(
            f"cannot split {n} rows with fraction {fraction}: one side would be empty"
        )
    order = as_rng(rng).generator().permutation(n)

    def take(indices):
        indices = np.sort(indices)
        target = tuple(dataset.target[i] for i in indices)
        return replace(dataset, rows=dataset.rows[indices], target=target)

    return take(order[n_test:]), take(order[:n_test])


@dataclass(frozen=True)
class TreeParams:
    """Bagged-ensemble training controls."""

    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 1
    feature_subsample: str = "sqrt"  # "sqrt" or "all"

    def __post_init__(self) -> None:
        for key in ("n_trees", "max_depth", "min_leaf"):
            object.__setattr__(self, key, _int_arg(getattr(self, key), key, 1))
        if self.feature_subsample not in ("sqrt", "all"):
            raise ConfigError("feature_subsample must be 'sqrt' or 'all'")


def _add_leaf(tree: dict, y: np.ndarray, n_outputs: int, task: str) -> None:
    """Append a leaf over targets ``y`` to a tree's columns: class frequencies, or the mean."""
    counts = np.bincount(y, minlength=n_outputs) if task == CLASSIFICATION else None
    tree["feature"].append(-1)
    tree["leaf"] += [float(y.mean())] if counts is None else (counts / counts.sum()).tolist()


def _gini_sums(counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    # Gini impurity times the row count, per row of exact class counts. Each
    # row is C-contiguous and summed on its own, so it is one node's 1-D sum.
    return n * (1.0 - ((counts / n[:, None]) ** 2).sum(axis=1))


def _sse(y: np.ndarray) -> float:
    # Regression impurity: the sum of squared deviations from the mean.
    return float(((y - y.mean()) ** 2).sum())


def _first_best(seg: np.ndarray, gains: np.ndarray, values: np.ndarray, n_segments: int):
    """(gain, value) at each segment's first maximal gain, or None; ``seg``
    is sorted and a segment's entries come in the order that wins ties."""
    top = np.full(n_segments, -math.inf)
    np.maximum.at(top, seg, gains)
    hit = np.flatnonzero(gains == top[seg])
    found, first = np.unique(seg[hit], return_index=True)
    best = [None] * n_segments
    for s, g, v in zip(found.tolist(), gains[hit[first]].tolist(), values[hit[first]].tolist()):
        best[s] = (g, v)
    return best


def _score_numeric(values, ranks, y, sizes, task, n_outputs, min_leaf, parent):
    """Best (gain, threshold) or None per segment: one node's candidate
    column of ``sizes`` values, their dense ``ranks`` and targets ``y``, and
    the node impurity ``parent``. Exact class prefix counts share one
    cumulative sum; float prefix sums and totals are taken per segment."""
    n = len(values)
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    # a stable sort by (segment, value), as one distinct integer key per position
    order = np.argsort((seg * (int(ranks.max()) + 1) + ranks) * n + np.arange(n))
    vs, ys = values[order], y[order]
    left_n = np.arange(n) - starts[seg] + 1
    right_n = sizes[seg] - left_n
    split = (left_n >= min_leaf) & (right_n >= min_leaf)
    split[:-1] &= vs[1:] > vs[:-1]  # only a boundary between distinct values
    p = np.flatnonzero(split)
    s, nl, nr = seg[p], left_n[p].astype(float), right_n[p].astype(float)
    if task == CLASSIFICATION:
        counts = np.zeros((n + 1, n_outputs))
        np.cumsum(ys[:, None] == np.arange(n_outputs), axis=0, dtype=float, out=counts[1:])
        left = counts[p + 1] - counts[starts][s]
        right = (counts[starts + sizes] - counts[starts])[s] - left
        gains = parent[s] - (nl - (left**2).sum(axis=1) / nl) - (nr - (right**2).sum(axis=1) / nr)
    else:
        squares = ys**2
        csum, csum2, tot, tot2 = np.empty(n), np.empty(n), np.empty(len(sizes)), np.empty(len(sizes))
        for k, (a, b) in enumerate(zip(starts.tolist(), (starts + sizes).tolist())):
            np.cumsum(ys[a:b], out=csum[a:b])
            np.cumsum(squares[a:b], out=csum2[a:b])
            tot[k], tot2[k] = ys[a:b].sum(), squares[a:b].sum()
        c, c2, t, t2 = csum[p], csum2[p], tot[s], tot2[s]
        gains = (t2 - t**2 / sizes[s]) - (c2 - c**2 / nl) - ((t2 - c2) - (t - c) ** 2 / nr)
    lower, upper = vs[p], vs[p + 1]
    with np.errstate(over="ignore"):  # near the float limit the sum overflows
        mid = (lower + upper) / 2.0
    # Between adjacent floats the midpoint rounds to an end; the lower one splits alike.
    return _first_best(s, gains, np.where((lower <= mid) & (mid < upper), mid, lower), len(sizes))


def _score_categorical(codes, y, sizes, task, n_outputs, min_leaf, parent):
    """Best (gain, level code) one-vs-rest split or None per segment, laid
    out as for ``_score_numeric``. Class counts come from one bincount over
    (segment, level, class); float regression sums are taken level by level."""
    n_levels = int(codes.max()) + 1
    cell = np.repeat(np.arange(len(sizes)) * n_levels, sizes) + codes
    if task == CLASSIFICATION:
        counts = np.bincount(cell * n_outputs + y, minlength=len(sizes) * n_levels * n_outputs)
        counts = counts.reshape(len(sizes), n_levels, n_outputs)
        nl = counts.sum(axis=2)
    else:
        nl = np.bincount(cell, minlength=len(sizes) * n_levels).reshape(len(sizes), n_levels)
    s, code = np.nonzero((nl >= min_leaf) & (sizes[:, None] - nl >= min_leaf))
    nl, nr = nl[s, code], sizes[s] - nl[s, code]
    if task == CLASSIFICATION:
        left = counts[s, code]
        gains = parent[s] - _gini_sums(left, nl) - _gini_sums(counts.sum(axis=1)[s] - left, nr)
    else:
        starts = (np.cumsum(sizes) - sizes).tolist()
        gains = np.empty(len(s))
        for e, (k, c) in enumerate(zip(s.tolist(), code.tolist())):
            rows = slice(starts[k], starts[k] + sizes[k])
            mask = codes[rows] == c
            gains[e] = parent[k] - _sse(y[rows][mask]) - _sse(y[rows][~mask])
    return _first_best(s, gains, code, len(sizes))


def _best_splits(X, ranks, y, jobs, numeric, task, n_outputs, min_leaf) -> list:
    """Best (gain, feature, split value) or None per job (node rows, sorted
    candidates); each (job, candidate) pair is a segment of one scorer call
    per kind of feature, and ``ranks`` holds each row of ``X`` as dense ranks."""
    idx = [rows for rows, _ in jobs]
    n = np.array([len(rows) for rows in idx])
    if task == CLASSIFICATION:
        node = np.repeat(np.arange(len(jobs)) * n_outputs, n)
        counts = np.bincount(node + y[np.concatenate(idx)], minlength=len(jobs) * n_outputs)
        parent = _gini_sums(counts.reshape(len(jobs), n_outputs), n)
    else:
        parent = np.array([_sse(y[rows]) for rows in idx])
    scores = {}
    for kind in (True, False):
        segs = [(j, f) for j, (_, cand) in enumerate(jobs) for f in cand if numeric[f] == kind]
        if segs:
            job, feature = np.array(segs).T
            rows = np.concatenate([idx[j] for j in job])
            cells = np.repeat(feature, n[job]), rows
            args = y[rows], n[job], task, n_outputs, min_leaf, parent[job]
            if kind:
                scored = _score_numeric(X[cells], ranks[cells], *args)
            else:  # level codes, for np.bincount
                scored = _score_categorical(X[cells].astype(np.intp), *args)
            scores.update(zip(segs, scored))
    # max keeps the first of equal gains, in candidate order
    return [
        max(((scores[j, f][0], f, scores[j, f][1]) for f in cand if scores[j, f]),
            key=lambda found: found[0], default=None)
        for j, (_, cand) in enumerate(jobs)
    ]


# Node rows x candidate features scored per call, or one node's if more:
# the scoring temporaries stay at a few MB however many trees grow at once.
_SCORE_BLOCK = 2**12


def _grow_trees(X, y, boots, gens, space, params, task, n_outputs) -> list[dict]:
    """Grow one tree per (bootstrap rows, generator) pair, all in lockstep: each step
    draws candidates for every tree's next node in preorder that is not a leaf, from
    that tree's generator, and scores them all at once. Leaves draw nothing, so every
    tree is the one grown alone, its nodes appended to its columns in preorder."""
    n_feat = len(space)
    k = max(1, round(math.sqrt(n_feat))) if params.feature_subsample == "sqrt" else n_feat
    numeric = [f.is_numeric for f in space]
    ranks = np.array([np.unique(row, return_inverse=True)[1] for row in X])
    trees = [{"feature": [], "split": [], "leaf": []} for _ in boots]
    # per tree, the nodes left to grow as (rows, depth), next last
    stacks = [[(boot, 0)] for boot in boots]
    while True:
        nodes, jobs = [], []  # (tree, rows, depth, stack) and (rows, sorted candidates)
        for tree, stack, gen in zip(trees, stacks, gens):
            while stack:
                idx, depth = stack.pop()
                node_y = y[idx]
                stop = depth >= params.max_depth or len(idx) < 2 * params.min_leaf
                if stop or (node_y == node_y[0]).all():
                    _add_leaf(tree, node_y, n_outputs, task)
                    continue
                nodes.append((tree, idx, depth, stack))
                jobs.append((idx, sorted(gen.choice(n_feat, size=k, replace=False).tolist())))
                break
        if not jobs:
            return trees
        best, block, size = [], [], 0
        for job, after in zip(jobs, jobs[1:] + [None]):
            block.append(job)
            size += len(job[0]) * k
            if after is None or size + len(after[0]) * k > _SCORE_BLOCK:
                best += _best_splits(X, ranks, y, block, numeric, task, n_outputs, params.min_leaf)
                block, size = [], 0
        for (tree, idx, depth, stack), found in zip(nodes, best):
            if found is None or found[0] <= _MIN_GAIN:
                _add_leaf(tree, y[idx], n_outputs, task)
                continue
            _, feature, value = found
            v = X[feature, idx]
            if numeric[feature]:
                mask = v <= value
            else:
                mask = v == value
                value = space[feature].levels[value]
            tree["feature"].append(feature)
            tree["split"].append(value)
            stack += [(idx[~mask], depth + 1), (idx[mask], depth + 1)]


# Rows routed per block: rows x max(trees, routing columns) stays under this
# many entries, so each 8-byte routing temporary stays under 128 KiB, where
# glibc's malloc would map (and fault in) fresh pages for every one of them.
_ROUTE_BLOCK = 16_000


class _FlatTrees(NamedTuple):
    """All trees of an ensemble as parallel node arrays.

    Node ``k`` of the preorder has the id ``2k``; its entries sit at ``2k``
    and ``2k + 1``. It sends a row left when ``x[column] <= threshold``. A
    numeric split reads its feature; a split on level code c of feature i
    reads an indicator column, 1.0 where x_i differs from c, against 0.5.
    Leaves test +inf and are their own children, so every row takes the
    same steps to ``children[id + go_left]``.
    """

    column: np.ndarray  # a feature i, or d + p for the indicator of pair p
    threshold: np.ndarray
    pair_feature: np.ndarray  # feature i of each indicator column
    pair_code: np.ndarray  # and level code c, as a float
    children: np.ndarray
    leaf_row: np.ndarray  # column of leaf_values for leaves
    leaf_values: np.ndarray  # (n_outputs, leaves)
    roots: np.ndarray  # one node id per tree
    depth: int  # levels below the deepest tree's root


def _array(values: list, types: set, dtype) -> np.ndarray | None:
    """``values`` as an array if each has one of ``types`` and converts, else None."""
    try:
        return np.array(values, dtype=dtype) if set(map(type, values)) <= types else None
    except OverflowError:  # an int beyond the dtype
        return None


def _compile(trees: Sequence[dict], space: FeatureSpace, n_outputs: int) -> _FlatTrees:
    """Check all trees' columns at once and compile them; a fault names the first bad tree."""
    if not trees:
        raise DataFormatError("the ensemble has no trees")
    try:
        return _compile_columns(trees, space, n_outputs)
    except DataFormatError:
        for t, tree in enumerate(trees):  # find the first tree with a fault of its own
            try:
                _compile_columns([tree], space, n_outputs)
            except DataFormatError as e:
                raise DataFormatError(f"tree {t}: {e}") from None
        raise


def _compile_columns(trees: Sequence[dict], space: FeatureSpace, n_outputs: int) -> _FlatTrees:
    names = ("feature", "split", "leaf")
    for tree in trees:
        if type(tree) is not dict or any(type(tree.get(k)) not in (list, tuple) for k in names):
            raise DataFormatError("a tree needs 'feature', 'split' and 'leaf' lists")
    # Each column of all trees end to end.
    col = {k: list(chain.from_iterable(tree[k] for tree in trees)) for k in names}
    leaf_values = _array(col["leaf"], {float, int}, float)
    if leaf_values is None or not np.isfinite(leaf_values).all():
        numbers = set(map(type, col["leaf"])) <= {float, int}  # a JSON true is a bool
        raise DataFormatError(f"leaf values must be {'finite ' if numbers else ''}numbers")
    d = len(space)
    feature = _array(col["feature"], {int}, np.intp)
    if feature is None or ((feature < -1) | (feature >= d)).any():
        i = next(i for i in col["feature"] if type(i) is not int or not -1 <= i < d)
        raise DataFormatError(f"feature index {i!r} out of range")
    is_split = feature >= 0
    split = np.flatnonzero(is_split)
    sizes = np.array([len(tree["feature"]) for tree in trees])
    starts = np.cumsum(sizes) - sizes
    tree_of = np.repeat(np.arange(len(trees)), sizes)
    # c[k] counts splits less leaves before node k. A full binary tree in preorder
    # has one leaf more than splits, and no shorter prefix of it has.
    c = np.zeros(len(feature) + 1, dtype=np.intp)
    np.cumsum(np.where(is_split, 1, -1), out=c[1:])
    if not np.array_equal(np.flatnonzero(c[1:] < c[starts][tree_of]), np.cumsum(sizes) - 1):
        raise DataFormatError("'feature' is not a full binary tree in preorder")
    n_splits = np.bincount(tree_of[split], minlength=len(trees))
    if [len(tree["split"]) for tree in trees] != n_splits.tolist():
        raise DataFormatError(f"{len(col['split'])} split values for {len(split)} splits")
    if [len(tree["leaf"]) for tree in trees] != ((sizes - n_splits) * n_outputs).tolist():
        leaves = f"{len(feature) - len(split)} leaves of {n_outputs} outputs"
        raise DataFormatError(f"{len(col['leaf'])} leaf values for {leaves}")

    by_number = np.array([f.is_numeric for f in space])[feature[split]]
    at_number, at_level = split[by_number], split[~by_number]  # split nodes by kind
    threshold = _array(list(compress(col["split"], by_number.tolist())), {float, int}, float)
    keys = list(zip(feature[at_level].tolist(), compress(col["split"], (~by_number).tolist())))
    code_of = {(i, level): code for i, f in enumerate(space) for code, level in enumerate(f.levels)}
    codes = list(map(code_of.get, keys)) if all(type(v) is str for _, v in keys) else [None]
    if threshold is None or not np.isfinite(threshold).all() or None in codes:
        for value, feat in zip(col["split"], (space[i] for i in feature[split].tolist())):
            number, name = type(value) in (float, int), feat.name  # a bool is no number
            if not feat.is_numeric and number:
                raise DataFormatError(f"threshold split on categorical feature {name!r}")
            if not feat.is_numeric and value not in feat.levels:
                raise DataFormatError(f"feature {name!r} has no level {value!r}")
            if feat.is_numeric and type(value) is str:
                raise DataFormatError(f"level split on numeric feature {name!r}")
            if feat.is_numeric and not (number and abs(value) <= sys.float_info.max):
                raise DataFormatError("threshold must be a finite number")
    # One indicator column per (feature, level code) pair that a split tests.
    width = 1 + max(len(f.levels) for f in space)
    level_pair = feature[at_level] * width + np.array(codes, dtype=np.intp)
    pairs, pair_column = np.unique(level_pair, return_inverse=True)
    # A split's right child follows its left subtree, where c first returns to c[split].
    key = c + np.append(tree_of, len(trees))  # at most the depth, so a radix sort orders it
    order = np.argsort(key.astype(np.min_scalar_type(key.max())), kind="stable")
    after = np.empty_like(order)
    after[order[:-1]] = order[1:]
    depth, frontier = 0, starts
    while (frontier := frontier[is_split[frontier]]).size:
        depth += 1
        frontier = np.concatenate([frontier + 1, after[frontier]])
    column = np.where(is_split, feature, 0)  # a leaf tests column 0 against +inf
    column[at_level] = d + pair_column
    threshold_of = np.where(is_split, 0.5, math.inf)  # a level split tests 0.5
    threshold_of[at_number] = threshold
    children = np.repeat(2 * np.arange(len(feature)), 2)  # a leaf's own id
    children[2 * split] = 2 * after[split]  # right
    children[2 * split + 1] = 2 * split + 2  # left
    return _FlatTrees(
        np.repeat(column, 2), np.repeat(threshold_of, 2), pairs // width,
        (pairs % width).astype(float), children,
        np.repeat(np.cumsum(~is_split) - ~is_split, 2),  # the leaves before each node
        np.ascontiguousarray(leaf_values.reshape(-1, n_outputs).T), 2 * starts, depth,
    )


class TreeEnsemble(Predictor):
    """Average of bagged CART trees; outputs are class probabilities or a mean.

    ``trees`` holds one object per tree, as the model JSON does, of columns
    over its nodes in preorder: ``feature``, a feature index or -1 at a leaf;
    ``split``, per split, a numeric threshold (``x <= threshold`` goes left)
    or a level (that level goes left); ``leaf``, n_outputs values per leaf.
    They are checked and compiled into flat node arrays for ``evaluate``.
    """

    def __init__(
        self,
        space: FeatureSpace,
        trees: Sequence[dict],
        task: str,
        class_names: Sequence[str] = (),
        params: TreeParams = TreeParams(),
    ):
        if task not in (CLASSIFICATION, REGRESSION):
            raise DataFormatError(f"unknown task {task!r}")
        self.space = space
        self.trees = tuple(trees)
        self.task = task
        self.class_names = tuple(class_names)
        self.params = params
        self.n_outputs = len(self.class_names) if task == CLASSIFICATION else 1
        if self.n_outputs < 1:
            raise DataFormatError("a classification model needs class names")
        self._flat = _compile(self.trees, space, self.n_outputs)

    def evaluate(self, instances: Sequence[Instance]) -> np.ndarray:
        flat, x = self._flat, as_rows(self.space, instances).matrix
        n, d = len(x), len(self.space)
        n_trees, width = len(flat.roots), d + len(flat.pair_feature)
        total = np.zeros((n, self.n_outputs))
        block = max(1, _ROUTE_BLOCK // max(n_trees, width))
        for start in range(0, n, block):
            rows = x[start : start + block]
            m = len(rows)
            # Features, then indicator columns: row r's column c is xb[r * width + c].
            xb = np.hstack([rows, rows[:, flat.pair_feature] != flat.pair_code]).ravel()
            offsets = np.arange(m) * width
            node = np.repeat(flat.roots[:, None], m, axis=1)  # (trees, rows)
            for _ in range(flat.depth):
                go_left = xb.take(offsets + flat.column.take(node)) <= flat.threshold.take(node)
                node = flat.children.take(node + go_left)
            leaf = flat.leaf_row.take(node)
            # A zero row, then one row per tree: cumsum adds them in tree order,
            # so totals match a per-tree walk bit for bit.
            terms = np.zeros((n_trees + 1, m))
            for j, values in enumerate(flat.leaf_values):
                values.take(leaf, out=terms[1:])
                total[start : start + m, j] = np.cumsum(terms, axis=0, out=terms)[-1]
        return total / n_trees


def train_ensemble(dataset: Dataset, params: TreeParams = TreeParams(), rng=None) -> TreeEnsemble:
    """Fit a bagged tree ensemble: bootstrap rows per tree, random feature
    subsets per split. Tree t draws from the stream (seed, t), so the model
    is reproducible for a fixed seed.

    A single-class classification target yields a constant predictor and a
    warning rather than an error.
    """
    _int_arg(len(dataset), "len(dataset)", 2)
    base = as_rng(rng)
    scale = 1.0
    if dataset.task == CLASSIFICATION:
        n_outputs = len(dataset.class_names)
        y = np.asarray(dataset.target, dtype=int)
        if n_outputs == 1:
            warnings.warn(
                "training data has a single class; the model is constant",
                stacklevel=2,
            )
    else:
        n_outputs = 1
        y = np.asarray(dataset.target, dtype=float)
        # Targets near the float limit would overflow every squared sum and
        # leave each tree one leaf: grow on y times an exact power of two.
        scale = square_safe_scale(y)
        y = y * scale
    # One row per feature: floats, or level codes for a categorical feature.
    X = np.ascontiguousarray(dataset.rows.matrix.T)
    n = len(dataset)
    gens = list(_generators([(base.seed, base.path + (t,)) for t in range(params.n_trees)]))
    boots = [np.sort(gen.integers(0, n, size=n)) for gen in gens]
    trees = _grow_trees(X, y, boots, gens, dataset.space, params, dataset.task, n_outputs)
    if scale != 1.0:
        for tree in trees:
            tree["leaf"] = [v / scale for v in tree["leaf"]]  # exact: scale is a power of two
    return TreeEnsemble(dataset.space, trees, dataset.task, dataset.class_names, params)


def accuracy(model: TreeEnsemble, dataset: Dataset) -> float:
    """Classification accuracy or regression R^2 on a dataset."""
    outputs = evaluate_rows(model, dataset.rows)
    if dataset.task == CLASSIFICATION:
        predicted = np.argmax(outputs, axis=1)
        return float(np.mean(predicted == np.asarray(dataset.target)))
    t, predicted = np.asarray(dataset.target, dtype=float), outputs[:, 0]
    scale = square_safe_scale(np.concatenate([t, predicted]))  # r2 does not change
    t, predicted = t * scale, predicted * scale
    ss_res = float(np.sum((predicted - t) ** 2))
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def save_model(path, model: TreeEnsemble) -> None:
    doc = {
        "kind": "tree-ensemble",
        "format": 2,  # one object of preorder columns per tree
        "task": model.task,
        "class_names": list(model.class_names),
        "params": asdict(model.params),
        "features": [feature_to_json(f) for f in model.space],
        "trees": list(model.trees),
    }
    # json.dumps runs the C encoder (json.dump never does), and a document
    # that cannot be encoded raises before the file is opened.
    text = json.dumps(doc, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_model(path) -> TreeEnsemble:
    doc = read_json(path, DataFormatError, "model")
    if not isinstance(doc, dict) or doc.get("kind") != "tree-ensemble":
        raise DataFormatError(f"model {path}: not a tree-ensemble document")
    if doc.get("format") != 2:  # earlier versions wrote nested trees and no "format"
        found = "the nested tree format" if "format" not in doc else f"format {doc['format']!r}"
        raise DataFormatError(f"model {path}: {found} is not read; retrain the model for format 2")
    try:
        space, _ = config_from_json({"features": doc.get("features")})
    except ConfigError as e:
        raise DataFormatError(f"model {path}: {e}") from None
    try:
        params = TreeParams(**doc.get("params", {}))
    except (TypeError, ConfigError) as e:
        raise DataFormatError(f"model {path}: bad params ({e})") from None
    class_names = doc.get("class_names", [])
    if not isinstance(class_names, list) or not all(isinstance(c, str) for c in class_names):
        raise DataFormatError(f"model {path}: 'class_names' must be a list of strings")
    if not isinstance(doc.get("trees"), list):
        raise DataFormatError(f"model {path}: 'trees' must be a list of trees")
    try:
        return TreeEnsemble(
            space, doc["trees"], doc.get("task"), class_names, params
        )
    except DataFormatError as e:
        raise DataFormatError(f"model {path}: {e}") from None
