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
            table = list(filter(None, csv.reader(fh)))  # without blank lines
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
        if "" in row:
            raise DataFormatError(f"{path}: row {k + 2} has an empty cell")
    feature_names = [h for h in header if h != target]
    columns = dict(zip(header, map(list, zip(*data))))
    numbers = {}  # the cells as floats of every column of numbers
    for name, column in columns.items():
        try:
            values = list(map(float, column))
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
                out[:] = list(map(codes.__getitem__, column))
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
        space, rows, tuple(map(index.__getitem__, raw_target)),
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


def _gini_sums(counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    # Gini impurity times the row count, per row of exact class counts. Each
    # row is C-contiguous and summed on its own, so it is one node's 1-D sum.
    return n * (1.0 - ((counts / n[:, None]) ** 2).sum(axis=1))


def _sse(y: np.ndarray) -> float:
    # Regression impurity: the sum of squared deviations from the mean.
    return float(((y - y.mean()) ** 2).sum())


def _run_heads(a: np.ndarray) -> np.ndarray:
    """Whether each entry of ``a`` starts a run of equal entries."""
    heads = np.ones(len(a), dtype=bool)
    heads[1:] = a[1:] != a[:-1]
    return heads


def _first_best(seg: np.ndarray, gains: np.ndarray, n_segments: int):
    """Each segment's first maximal gain, -inf where it has none, and the
    entries that hold them, by segment; ``seg`` is sorted and a segment's
    entries come in the order that wins ties."""
    start = np.flatnonzero(_run_heads(seg))
    top = np.full(n_segments, -math.inf)
    top[seg[start]] = np.maximum.reduceat(gains, start)
    hit = np.flatnonzero(gains == top[seg])
    hit = hit[_run_heads(seg[hit])]
    gain = np.full(n_segments, -math.inf)
    gain[seg[hit]] = gains[hit]
    return gain, hit


def _stable_order(key: np.ndarray) -> np.ndarray:
    """The stable sorting order of non-negative integer keys. Narrowed to
    the smallest type that holds them, keys of 16 bits or fewer radix-sort."""
    return np.argsort(key.astype(np.min_scalar_type(key.max(initial=0))), kind="stable")


def _score_numeric(values, ranks, y, sizes, task, n_outputs, min_leaf, parent):
    """Best gain and threshold per segment as two arrays, -inf and 0.0 where
    a segment has no split: one node's candidate column of ``sizes`` values,
    their dense ``ranks`` and targets ``y``, and the node impurity
    ``parent``. Exact class prefix counts are taken one class at a time;
    float prefix sums and totals are taken per segment."""
    n = len(values)
    starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(len(sizes)), sizes)
    # by (segment, value), and by position among equal values
    order = _stable_order(seg * (int(ranks.max()) + 1) + ranks)
    vs, ys = values[order], y[order]
    left_n = np.arange(1, n + 1) - starts[seg]
    right_n = sizes[seg] - left_n
    split = (left_n >= min_leaf) & (right_n >= min_leaf)
    split[:-1] &= vs[1:] > vs[:-1]  # only a boundary between distinct values
    p = np.flatnonzero(split)
    s, left_n, right_n = seg[p], left_n[p], right_n[p]
    nl, nr = left_n.astype(float), right_n.astype(float)
    if task == CLASSIFICATION:
        # Integer counts and squares, so their sums are exact in any order.
        # Each side's count less those of the classes before the last is
        # the last class's count there.
        first, end, q = starts[s], (starts + sizes)[s], p + 1
        count = np.zeros(n + 1, dtype=np.intp)
        left2 = right2 = 0
        for c in range(n_outputs - 1):
            np.cumsum(ys == c, out=count[1:])
            at = count[q]
            left, right = at - count[first], count[end] - at
            left2, right2 = left2 + left * left, right2 + right * right
            left_n, right_n = left_n - left, right_n - right
        left2, right2 = left2 + left_n * left_n, right2 + right_n * right_n
        gains = parent[s] - (nl - left2 / nl) - (nr - right2 / nr)
    else:
        squares = ys**2
        csum, csum2, tot, tot2 = np.empty(n), np.empty(n), np.empty(len(sizes)), np.empty(len(sizes))
        for k, (a, b) in enumerate(zip(starts.tolist(), (starts + sizes).tolist())):
            np.cumsum(ys[a:b], out=csum[a:b])
            np.cumsum(squares[a:b], out=csum2[a:b])
            tot[k], tot2[k] = ys[a:b].sum(), squares[a:b].sum()
        c, c2, t, t2 = csum[p], csum2[p], tot[s], tot2[s]
        gains = (t2 - t**2 / sizes[s]) - (c2 - c**2 / nl) - ((t2 - c2) - (t - c) ** 2 / nr)
    gain, hit = _first_best(s, gains, len(sizes))
    lower, upper = vs[p[hit]], vs[p[hit] + 1]
    with np.errstate(over="ignore"):  # near the float limit the sum overflows
        mid = (lower + upper) / 2.0
    value = np.zeros(len(sizes))
    # Between adjacent floats the midpoint rounds to an end; the lower one splits alike.
    value[s[hit]] = np.where((lower <= mid) & (mid < upper), mid, lower)
    return gain, value


def _score_categorical(codes, y, sizes, task, n_outputs, min_leaf, parent):
    """Best gain and one-vs-rest level code per segment, laid out as for
    ``_score_numeric``. Row and class counts come from bincounts over
    (segment, level) and (segment, level, class) cells; float regression
    sums are taken level by level."""
    n_levels = int(codes.max()) + 1
    cell = np.repeat(np.arange(len(sizes)) * n_levels, sizes) + codes
    nl = np.bincount(cell, minlength=len(sizes) * n_levels).reshape(len(sizes), n_levels)
    s, code = np.nonzero((nl >= min_leaf) & (sizes[:, None] - nl >= min_leaf))
    nl = nl[s, code]
    nr = sizes[s] - nl
    if task == CLASSIFICATION:
        counts = np.bincount(cell * n_outputs + y, minlength=len(sizes) * n_levels * n_outputs)
        counts = counts.reshape(len(sizes), n_levels, n_outputs)
        left = counts[s, code]
        gains = parent[s] - _gini_sums(left, nl) - _gini_sums(counts.sum(axis=1)[s] - left, nr)
    else:
        starts = (np.cumsum(sizes) - sizes).tolist()
        gains = np.empty(len(s))
        for e, (k, c) in enumerate(zip(s.tolist(), code.tolist())):
            rows = slice(starts[k], starts[k] + sizes[k])
            mask = codes[rows] == c
            gains[e] = parent[k] - _sse(y[rows][mask]) - _sse(y[rows][~mask])
    gain, hit = _first_best(s, gains, len(sizes))
    value = np.zeros(len(sizes))
    value[s[hit]] = code[hit]
    return gain, value


def _best_splits(X, ranks, y, rows, starts, sizes, cand, parent, numeric, task, n_outputs,
                 min_leaf):
    """Best split of each node of a block as arrays (gain, feature, split
    value); the gain is -inf where no split is allowed. Node j holds
    ``sizes[j]`` of ``rows`` from ``starts[j]`` on, impurity ``parent[j]`` and
    sorted candidates ``cand[j]``. Each (node, candidate) pair is a segment of
    one scorer call per kind of feature, and ``ranks`` holds each row of ``X``
    as dense ranks."""
    gains = np.full(cand.shape, -math.inf)
    values = np.zeros(cand.shape)
    by_number = numeric[cand]
    for kind in (True, False):
        job, pos = np.nonzero(by_number == kind)
        if job.size:
            n = sizes[job]
            # the rows of each segment's node, end to end
            seg_rows = rows[np.repeat(starts[job] - np.cumsum(n) + n, n) + np.arange(n.sum())]
            # and their flat places in the C-contiguous (feature, row) arrays
            cells = np.repeat(cand[job, pos] * X.shape[1], n) + seg_rows
            args = y[seg_rows], n, task, n_outputs, min_leaf, parent[job]
            if kind:
                found = _score_numeric(X.take(cells), ranks.take(cells), *args)
            else:  # level codes, for np.bincount
                found = _score_categorical(X.take(cells).astype(np.intp), *args)
            gains[job, pos], values[job, pos] = found
    # argmax keeps the first of equal gains, in candidate order
    best = np.arange(len(cand)), np.argmax(gains, axis=1)
    return gains[best], cand[best], values[best]


# Node rows x candidate features scored per call, or one node's if more:
# the scoring temporaries stay at a few MB however many trees grow at once.
_SCORE_BLOCK = 2**12


def _grow_trees(X, y, boots, gens, space, params, task, n_outputs) -> list[dict]:
    """Grow one tree per (bootstrap rows, generator) pair, all trees one level
    at a time; each level's stop tests, draws, split search and row partition
    are array passes over the whole level.

    A level lists each tree's nodes in turn, in level order: children in the
    order of their parents, a left child before its right one. At each level
    where tree t has search nodes, its generator makes one draw: row j of
    ``gen.permuted(np.tile(np.arange(d), (count, 1)), axis=1)[:, :k]``, sorted,
    is the candidate set of its j-th search node. A tree thus depends only on
    its own generator, and is the one grown alone. Its columns are written
    out in preorder at the end.
    """
    n_feat, min_leaf = len(space), params.min_leaf
    k = max(1, round(math.sqrt(n_feat))) if params.feature_subsample == "sqrt" else n_feat
    numeric = np.array([f.is_numeric for f in space])
    ranks = np.array([np.unique(row, return_inverse=True)[1] for row in X])
    # The level being grown: its nodes' rows end to end, their counts and trees.
    rows = np.concatenate(boots)
    sizes = np.array([len(boot) for boot in boots])
    tree_of = np.arange(len(boots))
    levels = []  # per level: tree, feature (-1 at a leaf) and split value per node, leaf values
    for depth in range(params.max_depth + 1):
        m = len(sizes)
        starts = np.cumsum(sizes) - sizes
        if task == CLASSIFICATION:
            cells = np.repeat(np.arange(m) * n_outputs, sizes) + y[rows]
            counts = np.bincount(cells, minlength=m * n_outputs).reshape(m, n_outputs)
            pure = counts.max(axis=1) == sizes
        else:
            node_y = y[rows]
            segs = np.split(node_y, starts[1:])
            differs = node_y != np.repeat(node_y[starts], sizes)
            pure = np.bincount(np.repeat(np.arange(m), sizes)[differs], minlength=m) == 0
        search = np.flatnonzero(~pure & (sizes >= 2 * min_leaf) & (depth < params.max_depth))
        gain, feature, value = np.full(m, -math.inf), np.full(m, -1), np.zeros(m)
        if search.size:
            per_tree = np.bincount(tree_of[search], minlength=len(gens)).tolist()
            grid = np.tile(np.arange(n_feat), (max(per_tree), 1))
            drawn = [gen.permuted(grid[:c], axis=1)[:, :k] for gen, c in zip(gens, per_tree) if c]
            cand = np.sort(np.concatenate(drawn), axis=1)
            n = sizes[search]
            if task == CLASSIFICATION:
                parent = _gini_sums(counts[search], n)
            else:
                parent = np.array([_sse(segs[j]) for j in search.tolist()])
            # Blocks of whole nodes, each up to _SCORE_BLOCK rows x candidates.
            cuts, total = [0], 0
            for j, width in enumerate((n * k).tolist()):
                if total and total + width > _SCORE_BLOCK:
                    cuts.append(j)
                    total = 0
                total += width
            for block in map(slice, cuts, cuts[1:] + [len(n)]):
                gain[search[block]], feature[search[block]], value[search[block]] = _best_splits(
                    X, ranks, y, rows, starts[search[block]], n[block], cand[block],
                    parent[block], numeric, task, n_outputs, min_leaf,
                )
        splits = gain > _MIN_GAIN
        feature[~splits] = -1
        if task == CLASSIFICATION:
            leaf = counts[~splits] / counts[~splits].sum(axis=1, keepdims=True)
        else:
            leaf = np.array([segs[j].mean() for j in np.flatnonzero(~splits).tolist()])[:, None]
        levels.append((tree_of, feature, value, leaf))
        if not splits.any():
            break
        rows = rows[np.repeat(splits, sizes)]
        rows, sizes = _split_rows(X, numeric, rows, sizes[splits], feature[splits], value[splits])
        tree_of = np.repeat(tree_of[splits], 2)
    return _preorder_columns(levels, space, len(boots))


def _split_rows(X, numeric, rows, sizes, feature, value):
    """Each node's ``sizes[j]`` of ``rows`` split on its ``feature[j]`` and
    ``value[j]`` in one stable pass: the children's rows end to end, left then
    right child of each node in turn, and their counts."""
    child = np.repeat(np.arange(len(sizes)), sizes)  # each row's node, then its child
    x = X.take(feature[child] * X.shape[1] + rows)
    right = ~np.where(numeric[feature][child], x <= value[child], x == value[child])
    # In place, and the row values freed before the sort: a level's row
    # arrays are what sets the grower's peak memory.
    child *= 2
    child += right
    del x, right
    return rows[_stable_order(child)], np.bincount(child, minlength=2 * len(sizes))


def _preorder_columns(levels, space: FeatureSpace, n_trees: int) -> list[dict]:
    """Each tree's ``feature``, ``split`` and ``leaf`` columns in preorder,
    from the node tables of ``_grow_trees``' levels: the splitting nodes of a
    level have their children, left then right, in turn on the next level."""
    # Nodes per subtree, bottom up.
    below = [np.ones(len(levels[-1][1]), dtype=np.intp)]
    for _, feature, _, _ in reversed(levels[:-1]):
        below.insert(0, np.ones(len(feature), dtype=np.intp))
        below[0][feature >= 0] += below[1].reshape(-1, 2).sum(axis=1)
    # Each node's place in its tree's preorder, top down: a left child comes
    # right after its parent, a right child after its left sibling's subtree.
    place = [np.zeros(n_trees, dtype=np.intp)]
    for (_, feature, _, _), size in zip(levels, below[1:]):
        left = place[-1][feature >= 0] + 1
        place.append(np.stack([left, left + size[0::2]], axis=1).ravel())
    tree_of, feature, value, leaf_values = (np.concatenate(column) for column in zip(*levels))
    sizes = below[0]
    order = np.empty(len(feature), dtype=np.intp)
    order[(np.cumsum(sizes) - sizes)[tree_of] + np.concatenate(place)] = np.arange(len(feature))
    leaf_row = np.cumsum(feature < 0) - 1  # leaf values come level by level
    at_split = feature[order] >= 0
    split_nodes, leaf_nodes = order[at_split], order[~at_split]
    splits = [
        v if space[f].is_numeric else space[f].levels[int(v)]
        for f, v in zip(feature[split_nodes].tolist(), value[split_nodes].tolist())
    ]
    n_splits = np.bincount(tree_of[split_nodes], minlength=n_trees)
    leaves = leaf_values[leaf_row[leaf_nodes]]
    columns = {
        "feature": (feature[order].tolist(), sizes),
        "split": (splits, n_splits),
        "leaf": (leaves.ravel().tolist(), (sizes - n_splits) * leaves.shape[1]),
    }
    trees = [{} for _ in range(n_trees)]
    for name, (values, counts) in columns.items():
        ends = np.cumsum(counts).tolist()
        for tree, a, b in zip(trees, [0] + ends[:-1], ends):
            tree[name] = values[a:b]
    return trees


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
    order = _stable_order(c + np.append(tree_of, len(trees)))  # at most the depth: a radix sort
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
