"""Feature spaces, instances, predictor contracts, and output utilities.

Every type here is immutable after construction and safe to share across
threads. Predictors are the extension point: subclass ``Predictor`` (or wrap
a vectorized function with ``FunctionPredictor``) and the rest of the toolkit
treats it as a black box that maps instance batches to output batches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Largest batch of instances sent to a predictor in one call.
_CHUNK = 65536


class ExplainerError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ExplainerError):
    """Invalid configuration, arguments, or usage. CLI exit code 2."""


class DataFormatError(ExplainerError):
    """Malformed input data (CSV files, model documents). CLI exit code 3."""


class DegenerateRangeError(ExplainerError):
    """An output range or importance total has zero width. CLI exit code 3."""


class SingularSystemError(ExplainerError):
    """A weighted least-squares system could not be solved. CLI exit code 3."""


@dataclass(frozen=True)
class FeatureSpec:
    """One input feature: numeric with finite bounds, or categorical levels.

    Numeric features declare [min, max] with a finite width and midpoint;
    categorical features declare an ordered tuple of distinct string labels.
    """

    name: str
    kind: str
    min: float = math.nan
    max: float = math.nan
    levels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if type(self.name) is not str or not self.name:
            raise ConfigError(f"feature name {self.name!r} must be a non-empty string")
        if self.kind == NUMERIC:
            for key in ("min", "max"):
                value = finite_number(getattr(self, key), f"feature {self.name!r}: {key}")
                object.__setattr__(self, key, value)
            if not (math.isfinite(self.max - self.min) and math.isfinite(self.min + self.max)):
                raise ConfigError(f"feature {self.name!r}: bounds, width and midpoint must be finite")
            if not self.min < self.max:
                raise ConfigError(f"feature {self.name!r}: min must be strictly below max")
        elif self.kind == CATEGORICAL:
            if not self.levels:
                raise ConfigError(f"feature {self.name!r}: needs at least one level")
            if len(set(self.levels)) != len(self.levels):
                raise ConfigError(f"feature {self.name!r}: levels must be distinct")
        else:
            raise ConfigError(f"feature {self.name!r}: unknown kind {self.kind!r}")

    @staticmethod
    def numeric(name: str, lo: float, hi: float) -> "FeatureSpec":
        return FeatureSpec(name, NUMERIC, lo, hi)

    @staticmethod
    def categorical(name: str, levels: Sequence[str]) -> "FeatureSpec":
        return FeatureSpec(name, CATEGORICAL, levels=tuple(levels))

    @property
    def is_numeric(self) -> bool:
        return self.kind == NUMERIC


@dataclass(frozen=True)
class Instance:
    """One point of the feature space. Values follow feature declaration order.

    Numeric values outside the declared bounds are accepted everywhere.
    """

    values: tuple


@dataclass(frozen=True)
class FeatureSpace:
    """Ordered, uniquely named feature declarations."""

    features: tuple[FeatureSpec, ...]

    def __post_init__(self) -> None:
        if not self.features:
            raise ConfigError("feature space needs at least one feature")
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ConfigError("feature names must be unique")

    def __len__(self) -> int:
        return len(self.features)

    def __iter__(self):
        return iter(self.features)

    def __getitem__(self, index: int) -> FeatureSpec:
        return self.features[index]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    def index(self, name: str) -> int:
        for i, f in enumerate(self.features):
            if f.name == name:
                return i
        raise ConfigError(f"unknown feature {name!r}")

    def instance(self, values: Sequence) -> Instance:
        """Validating constructor: checks arity, numbers and categorical labels.

        Numeric values outside bounds are accepted.
        """
        if len(values) != len(self.features):
            raise ConfigError(
                f"expected {len(self.features)} values, got {len(values)}"
            )
        out = []
        for feat, value in zip(self.features, values):
            if feat.is_numeric:
                out.append(finite_number(value, f"feature {feat.name!r}: value"))
            else:
                if value not in feat.levels:
                    raise ConfigError(
                        f"feature {feat.name!r}: label {value!r} not in declared levels"
                    )
                out.append(value)
        return Instance(tuple(out))

    def midpoint(self) -> Instance:
        """Interval midpoints for numeric features, first level for categorical."""
        vals = [
            (f.min + f.max) / 2.0 if f.is_numeric else f.levels[0]
            for f in self.features
        ]
        return Instance(tuple(vals))


class Rows(Sequence):
    """A batch of instances held as one read-only matrix: finite floats, and
    level codes for categorical features.

    An integer index decodes one ``Instance``; any other numpy index (a
    slice, a list or an array of ints) gives another ``Rows``. Code that
    iterates a batch sees plain instances, while the toolkit's own
    predictors read the matrix and skip the per-row objects. ``as_rows``
    turns any batch argument into one.
    """

    def __init__(self, space: FeatureSpace, matrix: np.ndarray):
        self.space = space
        self.matrix = np.asarray(matrix, dtype=float).view()
        self.matrix.flags.writeable = False
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(space):
            raise ConfigError(f"a batch matrix needs {len(space)} columns")
        # One pass checks every numeric column; a column pass only names the
        # first bad feature, in declaration order.
        finite = np.isfinite(self.matrix).all()
        for feat, column in zip(space, self.matrix.T):
            if feat.is_numeric and not finite and not np.isfinite(column).all():
                raise ConfigError(f"feature {feat.name!r}: value must be a finite number")
            if not feat.is_numeric and not np.isin(column, np.arange(len(feat.levels))).all():
                raise ConfigError(f"feature {feat.name!r}: a label not in declared levels")

    def __len__(self) -> int:
        return len(self.matrix)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return self._decode(self.matrix[[index]])[0]
        return Rows(self.space, self.matrix[index])

    def __iter__(self):
        return iter(self._decode(self.matrix))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rows):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.matrix, other.matrix)

    def _decode(self, matrix: np.ndarray) -> list[Instance]:
        columns = [
            column.tolist() if feat.is_numeric
            else [feat.levels[k] for k in column.astype(int).tolist()]
            for feat, column in zip(self.space, matrix.T)
        ]
        return [Instance(values) for values in zip(*columns)]


class Predictor:
    """Black-box model contract: batch of instances in, output matrix out.

    ``evaluate`` must be deterministic for a fixed instance batch and must
    not mutate anything. A row's output must not depend on the other rows
    in its batch: the toolkit stacks the perturbations of many features and
    instances into one batch and splits large batches, and the results must
    not change with that layout. The toolkit only ever calls this method,
    through ``evaluate_rows``, so any model that honors it can be explained.
    The toolkit always hands it a matrix-backed ``Rows``; iterating that
    still yields plain ``Instance``s.
    """

    n_outputs: int = 1

    def evaluate(self, instances: Sequence[Instance]) -> np.ndarray:
        """Return an array of shape (len(instances), n_outputs)."""
        raise NotImplementedError


class FunctionPredictor(Predictor):
    """Wraps a vectorized function of a float matrix (rows are instances)."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], n_outputs: int = 1):
        self.fn = fn
        self.n_outputs = _int_arg(n_outputs, "n_outputs", 1)

    def evaluate(self, instances: Sequence[Instance]) -> np.ndarray:
        if not len(instances):
            return np.empty((0, self.n_outputs))
        if isinstance(instances, Rows) and all(f.is_numeric for f in instances.space):
            x = np.array(instances.matrix, order="C")  # a copy: the function may write into it
        else:  # a categorical batch decodes to labels, which fail here
            try:
                x = np.asarray([inst.values for inst in instances], dtype=float)
            except (TypeError, ValueError):
                raise ConfigError(
                    "numeric-function predictor received non-numeric values"
                ) from None
        with np.errstate(all="ignore"):  # a non-finite output is rejected by evaluate_rows
            out = np.asarray(self.fn(x), dtype=float)
        if out.ndim == 1:
            out = out.reshape(-1, 1)
        if out.shape != (len(instances), self.n_outputs):
            raise DataFormatError(
                f"predictor returned shape {out.shape}, "
                f"expected {(len(instances), self.n_outputs)}"
            )
        return out


def _check_output(predictor: Predictor, output) -> None:
    """Reject an output index outside [0, predictor.n_outputs)."""
    _int_arg(output, "output index", 0, predictor.n_outputs)


def evaluate_rows(predictor: Predictor, rows: Sequence[Instance]) -> np.ndarray:
    """The one way the toolkit calls a predictor: shape (len(rows), n_outputs).

    Batches above 65536 rows go to the predictor in chunks of that size; an
    empty batch returns shape (0, n_outputs) without a call. A result of the
    wrong shape, or one holding NaN or infinity, raises DataFormatError.
    """
    parts = []
    for start in range(0, len(rows), _CHUNK):
        batch = rows if len(rows) <= _CHUNK else rows[start : start + _CHUNK]
        try:
            out = np.asarray(predictor.evaluate(batch), dtype=float)
        except (TypeError, ValueError):
            raise DataFormatError("predictor returned a non-numeric result") from None
        if out.shape != (len(batch), predictor.n_outputs):
            raise DataFormatError(
                f"predictor returned shape {out.shape}, "
                f"expected {(len(batch), predictor.n_outputs)}"
            )
        if not np.isfinite(out).all():
            raise DataFormatError("predictor returned a non-finite output (NaN or infinity)")
        parts.append(out)
    if not parts:
        return np.empty((0, predictor.n_outputs))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


def as_rows(space: FeatureSpace, instances: Sequence[Instance]) -> Rows:
    """The one way in for a batch argument: ``instances`` as a ``Rows`` of
    ``space``.

    A ``Rows`` of this space comes back as it is. Any other sequence is
    checked row by row by ``FeatureSpace.instance``, which raises
    ConfigError on a wrong count, a value that is not a finite number or an
    undeclared label, and then encoded. An item that is not an ``Instance``
    raises ConfigError naming its index.
    """
    if isinstance(instances, Rows) and instances.space == space:
        return instances
    checked = []
    for k, x in enumerate(instances):
        if not isinstance(x, Instance):
            raise ConfigError(f"batch item {k}: expected an Instance, got {type(x).__name__}")
        checked.append(space.instance(x.values).values)
    matrix = np.empty((len(space), len(checked)))
    for feat, out, column in zip(space, matrix, zip(*checked)):
        if not feat.is_numeric:
            index = {lev: k for k, lev in enumerate(feat.levels)}
            column = [index[v] for v in column]
        out[:] = np.array(column, dtype=float)  # faster than assigning the sequence
    return Rows(space, matrix.T)


def square_safe_scale(values: np.ndarray) -> float:
    """1.0, or the power of two that brings ``values`` so far below the float
    limit that no squared sum over them (regression impurities, r2, spreads)
    can overflow. Multiplying by it is exact unless a value turns subnormal."""
    top = float(np.abs(values).max(initial=0.0))
    limit = math.sqrt(np.finfo(float).max) / (4 * max(1, len(values)))
    return 1.0 if top <= limit else math.ldexp(1.0, -math.frexp(top / limit)[1])


def sample_sd(matrix: np.ndarray) -> np.ndarray:
    """Sample standard deviation of each column; zero when there is only one
    row, and exactly zero for a column of identical values (float averaging
    would otherwise leave a residue of a few ulps). Finite values whose
    squares overflow get their sd from the matrix times a power of two."""
    if matrix.shape[0] < 2:
        return np.zeros(matrix.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        out = matrix.std(axis=0, ddof=1)
        if not np.isfinite(out).all() and np.isfinite(matrix).all():
            scale = square_safe_scale(matrix)
            out = (matrix * scale).std(axis=0, ddof=1) / scale
    out[matrix.max(axis=0) == matrix.min(axis=0)] = 0.0
    return out


_LINEAR_WEIGHTS = np.array([0.4, 0.3, 0.2, 0.1])


def reference_feature_space() -> FeatureSpace:
    """Four numeric features x1..x4, each on [0, 1]."""
    return FeatureSpace(
        tuple(FeatureSpec.numeric(f"x{i}", 0.0, 1.0) for i in range(1, 5))
    )


def linear_reference_predictor() -> Predictor:
    """Weighted sum 0.4*x1 + 0.3*x2 + 0.2*x3 + 0.1*x4 over the unit box.

    Weights are convex, so the output covers [0, 1] exactly.
    """
    # einsum, not BLAS's ``x @ w``: a row's bits then do not depend on the batch.
    return FunctionPredictor(lambda x: np.einsum("ij,j->i", x, _LINEAR_WEIGHTS))


def nonlinear_reference_predictor() -> Predictor:
    """Oscillatory benchmark function over the unit box.

    0.7*x1*sin(10*x1) + 0.3*x2*sin(10*x2) + x3^2 + (2*x4^4 - 1.5*x4^2).
    The output range is not declared up front; estimate it before use.
    """

    def f(x: np.ndarray) -> np.ndarray:
        x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        return (
            0.7 * x1 * np.sin(10.0 * x1)
            + 0.3 * x2 * np.sin(10.0 * x2)
            + x3 ** 2
            + (2.0 * x4 ** 4 - 1.5 * x4 ** 2)
        )

    return FunctionPredictor(f)


@dataclass(frozen=True)
class OutputSpec:
    """One model output plus its utility map u(y) = a*y + b.

    Only affine utility maps are supported; ``a`` fixes the direction
    (a > 0 means larger outputs are better). ``out_min``/``out_max`` bound
    the attainable outputs; leave them None when unknown and estimate later.
    ``estimated`` records that the bounds came from sampling, not from a
    declaration.
    """

    name: str = "y"
    a: float = 1.0
    b: float = 0.0
    out_min: float | None = None
    out_max: float | None = None
    estimated: bool = False

    def __post_init__(self) -> None:
        if type(self.name) is not str or not self.name:
            raise ConfigError(f"output name {self.name!r} must be a non-empty string")
        for key in ("a", "b", "out_min", "out_max"):
            value = getattr(self, key)
            if value is not None or key in ("a", "b"):
                object.__setattr__(self, key, finite_number(value, f"output {self.name!r}: {key}"))
        if self.a == 0.0:
            raise ConfigError(f"output {self.name!r}: utility slope a must be nonzero")
        if self.declared and not self.out_min < self.out_max:
            raise ConfigError(f"output {self.name!r}: out_min must be strictly below out_max")

    @property
    def declared(self) -> bool:
        return self.out_min is not None and self.out_max is not None


@dataclass(frozen=True)
class OutputUtility:
    """Utility declarations for every model output."""

    outputs: tuple[OutputSpec, ...]

    def __post_init__(self) -> None:
        if not self.outputs:
            raise ConfigError("at least one output must be declared")

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def spec(self, output: int = 0) -> OutputSpec:
        return self.outputs[_int_arg(output, "output index", 0, len(self.outputs))]

    def range_width(self, output: int = 0) -> float:
        """Width of the declared output range; errors if unknown."""
        s = self.spec(output)
        if not s.declared:
            raise ConfigError(
                f"output {s.name!r} has no declared range; "
                "estimate it first (resolve_utility)"
            )
        return s.out_max - s.out_min

    @staticmethod
    def single(
        name: str = "y",
        out_min: float | None = None,
        out_max: float | None = None,
    ) -> "OutputUtility":
        """One output with utility u(y) = y: larger outputs are better."""
        return OutputUtility((OutputSpec(name, out_min=out_min, out_max=out_max),))

    @staticmethod
    def classification(class_names: Sequence[str]) -> "OutputUtility":
        """Per-class probability outputs: a = 1, b = 0, range [0, 1]."""
        return OutputUtility(
            tuple(OutputSpec(str(c), 1.0, 0.0, 0.0, 1.0) for c in class_names)
        )


def builtin_model(name: str) -> tuple[Predictor, FeatureSpace, OutputUtility]:
    """Bundle a reference predictor with its feature space and utility."""
    if name == "linear":
        return (
            linear_reference_predictor(),
            reference_feature_space(),
            OutputUtility.single("y", out_min=0.0, out_max=1.0),
        )
    if name == "nonlinear":
        return (
            nonlinear_reference_predictor(),
            reference_feature_space(),
            OutputUtility.single("y"),
        )
    raise ConfigError(f"unknown builtin predictor {name!r}")


def feature_to_json(feat: FeatureSpec) -> dict:
    if feat.is_numeric:
        return {"name": feat.name, "type": NUMERIC, "min": feat.min, "max": feat.max}
    return {"name": feat.name, "type": CATEGORICAL, "levels": list(feat.levels)}


def finite_number(value, what: str) -> float:
    """A Python or numpy int or float as a finite float; anything else, a
    bool or a string included, raises ConfigError."""
    number = isinstance(value, (int, float, np.integer, np.floating))
    try:
        v = float(value) if number and not isinstance(value, bool) else math.nan
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{what} must be a finite number")
    return v


def _int_arg(value, what: str, least: int = 0, below: int | None = None) -> int:
    """The one check of a count, a length or an index: a Python or numpy int,
    not a bool, of at least ``least`` and, for an index, below ``below``,
    returned as a Python int. Anything else raises ConfigError naming
    ``what``: "<what> must be an int >= <least>, got <value>" for a count,
    "<what> <value> out of range" for an index."""
    if (type(value) is int or isinstance(value, np.integer)) and least <= value:
        if below is None or value < below:
            return int(value)
    if below is None:
        raise ConfigError(f"{what} must be an int >= {least}, got {value!r}")
    raise ConfigError(f"{what} {value} out of range")


def _feature_from_json(doc: dict) -> FeatureSpec:
    try:
        name = doc["name"]
        kind = doc["type"]
    except (TypeError, KeyError) as e:
        raise ConfigError(f"feature entry missing key: {e}") from None
    if kind == NUMERIC:
        if "min" not in doc or "max" not in doc:
            raise ConfigError(f"numeric feature {name!r} needs min and max")
        return FeatureSpec.numeric(name, doc["min"], doc["max"])
    if kind == CATEGORICAL:
        levels = doc.get("levels")
        if type(levels) is not list or not all(type(v) is str for v in levels):
            raise ConfigError(f"categorical feature {name!r} needs a list of string levels")
        return FeatureSpec.categorical(name, levels)
    raise ConfigError(f"feature {name!r}: unknown type {kind!r}")


def _output_from_json(doc: dict) -> OutputSpec:
    if type(doc) is not dict:
        raise ConfigError("each 'outputs' entry must be a JSON object")
    return OutputSpec(
        doc.get("name", "y"), doc.get("A", 1.0), doc.get("b", 0.0), doc.get("min"), doc.get("max")
    )


def config_from_json(doc: dict) -> tuple[FeatureSpace, OutputUtility]:
    if type(doc) is not dict or type(doc.get("features")) is not list:
        raise ConfigError("a 'features' list of feature declarations is required")
    outputs = doc.get("outputs", [{"name": "y"}])
    if type(outputs) is not list:
        raise ConfigError("config 'outputs' must be a list")
    space = FeatureSpace(tuple(_feature_from_json(f) for f in doc["features"]))
    return space, OutputUtility(tuple(_output_from_json(o) for o in outputs))


def read_json(path, error: type[ExplainerError], what: str):
    """Parse a JSON file. Text that is not UTF-8 JSON, or that nests too
    deeply for the parser, raises ``error`` naming ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as e:  # ValueError: bad JSON, bad UTF-8, huge integer
        raise error(f"{what} {path}: invalid JSON ({e})") from None


def load_config(path) -> tuple[FeatureSpace, OutputUtility]:
    return config_from_json(read_json(path, ConfigError, "config"))
