"""CLI fuzz test: corrupted config, model and CSV files never escape.

Each example takes a valid input file, applies one mutation (a JSON value
swapped for random JSON or a CSV cell for random text, a truncation, or
injected bytes that are not UTF-8) and runs the CLI on it. Every run must
end in exit code 0, 2 or 3 with a one-line error, never in a traceback.
"""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ciukit import cli
from test_cli import _good_model

EXAMPLES = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

CONFIG = {
    "features": [
        {"name": f"x{i}", "type": "numeric", "min": 0.0, "max": 1.0} for i in range(1, 5)
    ],
    "outputs": [{"name": "y", "A": 1.0, "b": 0.0, "min": 0.0, "max": 1.0}],
}
CSV_ROWS = [["a", "g", "label"]] + [
    [repr(a), g, label]
    for a, g, label in [
        (0.1, "lo", "no"), (0.7, "hi", "yes"), (0.4, "hi", "no"),
        (0.9, "lo", "yes"), (0.2, "lo", "no"), (0.6, "hi", "yes"),
    ]
]

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _slots(node, out):
    """Every (container, key) pair of a JSON document, depth first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for k in keys:
        out.append((node, k))
        if isinstance(node[k], (dict, list)):
            _slots(node[k], out)
    return out


def _csv_bytes(rows) -> bytes:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode("utf-8")


@st.composite
def mutated(draw, kind):
    """Bytes of a valid ``kind`` file ("config", "model" or "csv") after one mutation."""
    how = draw(st.sampled_from(["replace", "truncate", "inject"]))
    if kind == "csv":
        rows = [list(r) for r in CSV_ROWS]
        if how == "replace":
            r = draw(st.integers(0, len(rows) - 1))
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = draw(st.text(max_size=6))
        data = _csv_bytes(rows)
    else:
        # a one-item list around the document, so the root can be replaced too
        box = [json.loads(json.dumps(CONFIG if kind == "config" else _good_model()))]
        if how == "replace":
            container, key = draw(st.sampled_from(_slots(box, [])))
            container[key] = draw(json_values)
        data = json.dumps(box[0]).encode("utf-8")
    if how == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif how == "inject":
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3\x28", b"\x80\x80", b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")


def _fuzz(kind, data, argv_of):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / f"input.{'csv' if kind == 'csv' else 'json'}"
        path.write_bytes(data)
        (tmp / "good_model.json").write_text(json.dumps(_good_model()))
        for argv in argv_of(tmp, str(path)):
            if argv[0] != "train":
                argv = argv + ["--output-dir", str(tmp / "out"), "--format", "json"]
            _run(argv)


@EXAMPLES
@given(data=mutated("config"))
def test_mutated_config(data):
    _fuzz("config", data, lambda tmp, path: [[
        "explain", "--predictor", predictor, "--config", path,
        "--instance", "[0.5, 0.5, 0.5, 0.5]", "--samples", "2",
    ] for predictor in ("linear", "nonlinear")])


@EXAMPLES
@given(data=mutated("model"))
def test_mutated_model(data):
    _fuzz("model", data, lambda tmp, path: [[
        "explain", "--model", path, "--instance", '[0.3, "lo"]', "--samples", "2",
    ]])


@EXAMPLES
@given(data=mutated("csv"))
def test_mutated_csv(data):
    _fuzz("csv", data, lambda tmp, path: [
        [
            "explain", "--model", str(tmp / "good_model.json"), "--data", path,
            "--target", "label", "--instance", "row:0", "--samples", "2",
        ],
        [
            "train", "--data", path, "--target", "label", "--trees", "2",
            "--depth", "2", "--model-out", str(tmp / "trained.json"),
        ],
    ])
