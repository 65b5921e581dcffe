import csv
import json
import re

import pytest

import ciukit as ck
from ciukit import cli
from conftest import write_classification_csv, write_multiclass_csv

MID = "[0.5, 0.5, 0.5, 0.5]"


def run(*argv):
    return cli.main(list(argv))


class TestExplain:
    def test_json_report_schema(self, tmp_path):
        code = run(
            "explain", "--predictor", "linear", "--instance", MID,
            "--output-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        doc = json.loads((tmp_path / "explain_report.json").read_text())
        assert doc["command"] == "explain"
        assert doc["config"]["seed"] == 42
        (block,) = doc["results"]
        assert block["method"] == "ciu"
        assert [f["name"] for f in block["features"]] == ["x1", "x2", "x3", "x4"]
        assert block["y"] == pytest.approx(0.5)
        for f in block["features"]:
            assert f["ci"] == pytest.approx({"x1": 0.4, "x2": 0.3, "x3": 0.2, "x4": 0.1}[f["name"]], abs=1e-9)

    def test_reruns_are_byte_identical(self, tmp_path):
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            code = run(
                "explain", "--predictor", "nonlinear", "--instance",
                "[0.63, 0.63, 0.59, 0.81]", "--method", "ciu,shapley,lime",
                "--output-dir", str(d), "--format", "json,svg,csv",
            )
            assert code == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == [
            "explain_ciu.svg",
            "explain_influence_ciu.svg",
            "explain_influence_lime.svg",
            "explain_influence_shapley.svg",
            "explain_report.csv",
            "explain_report.json",
        ]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_all_methods_report(self, tmp_path, capsys):
        code = run(
            "explain", "--predictor", "linear", "--instance", MID,
            "--method", "ciu,shapley,lime",
            "--output-dir", str(tmp_path), "--format", "json,text",
        )
        assert code == 0
        doc = json.loads((tmp_path / "explain_report.json").read_text())
        assert [b["method"] for b in doc["results"]] == ["ciu", "shapley-mc", "lime-surrogate"]
        text = capsys.readouterr().out
        assert "output y = 0.5000" in text
        assert "(shapley)" in text and "(lime)" in text

    def test_timings_flag_adds_elapsed(self, tmp_path, capsys):
        base = [
            "explain", "--predictor", "linear", "--instance", MID,
            "--format", "json", "--method", "ciu,shapley,lime",
        ]
        run(*base, "--output-dir", str(tmp_path / "plain"))
        run(*base, "--timings", "--output-dir", str(tmp_path / "timed"))
        plain = json.loads((tmp_path / "plain/explain_report.json").read_text())
        timed = json.loads((tmp_path / "timed/explain_report.json").read_text())
        assert "elapsed" not in plain["results"][0]
        assert timed["results"][0]["elapsed"] > 0
        # every block carries its own time, in every report that has blocks
        assert all("elapsed" not in block for block in plain["results"])
        assert [type(b["elapsed"]) for b in timed["results"]] == [float] * 3
        assert all(b["elapsed"] > 0 for b in timed["results"])

        common = [
            "--predictor", "linear", "--format", "json,text", "--timings",
            "--samples", "5", "--shapley-budget", "5",
        ]
        assert run(
            "global", *common, "--iterations", "1", "--instances", "5",
            "--output-dir", str(tmp_path / "global"),
        ) == 0
        doc = json.loads((tmp_path / "global/global_report.json").read_text())
        assert len(doc["results"]) == 3
        assert all(type(b["elapsed"]) is float and b["elapsed"] > 0 for b in doc["results"])

        capsys.readouterr()
        assert run(
            "stability", *common, "--instance", MID, "--runs", "2", "--lime-samples", "20",
            "--output-dir", str(tmp_path / "stability"),
        ) == 0
        for tag in ("contextual_influence", "shapley_mc", "lime_surrogate"):
            doc = json.loads((tmp_path / f"stability/stability_{tag}.json").read_text())
            assert type(doc["results"]["elapsed"]) is float
            assert doc["results"]["elapsed"] > 0
        lines = [s for s in capsys.readouterr().out.splitlines() if s.startswith("elapsed")]
        assert len(lines) == 3
        pattern = r"elapsed: total \d+\.\d{3}s, per run \d+\.\d{4}s"
        assert all(re.fullmatch(pattern, s) for s in lines)

    def test_csv_rows(self, tmp_path):
        run(
            "explain", "--predictor", "linear", "--instance", MID,
            "--method", "ciu,shapley", "--output-dir", str(tmp_path),
            "--format", "csv",
        )
        lines = (tmp_path / "explain_report.csv").read_text().splitlines()
        assert lines[0] == "method,feature,influence,ci,cu,ymin,ymax,flags"
        assert len(lines) == 1 + 8  # two methods x four features
        ciu_row = lines[1].split(",")
        shap_row = lines[5].split(",")
        assert ciu_row[0] == "ciu" and float(ciu_row[3]) == pytest.approx(0.4, abs=1e-9)
        assert shap_row[0] == "shapley-mc" and shap_row[3] == ""  # no ci column


    def test_repeated_method_runs_once(self, tmp_path):
        code = run(
            "explain", "--predictor", "linear", "--instance", MID,
            "--method", "lime,ciu,shapley,ciu", "--output-dir", str(tmp_path),
            "--format", "json,csv",
        )
        assert code == 0
        doc = json.loads((tmp_path / "explain_report.json").read_text())
        assert [b["method"] for b in doc["results"]] == ["lime-surrogate", "ciu", "shapley-mc"]
        lines = (tmp_path / "explain_report.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 4  # three methods x four features


class TestExitCodes:
    def test_unknown_format(self, tmp_path):
        assert run(
            "explain", "--predictor", "linear", "--instance", MID,
            "--output-dir", str(tmp_path), "--format", "yaml",
        ) == 2

    def test_missing_predictor_source(self, tmp_path):
        assert run(
            "explain", "--instance", MID, "--output-dir", str(tmp_path),
        ) == 2

    def test_bad_instance(self, tmp_path):
        base = ["explain", "--predictor", "linear", "--output-dir", str(tmp_path)]
        assert run(*base, "--instance", "[0.5]") == 2
        assert run(*base, "--instance", "not json") == 2
        assert run(*base, "--instance", "row:0") == 2  # row needs --data
        assert run(*base, "--instance", '{"x1": 1}') == 2

    def test_unknown_instance_key(self, tmp_path, capsys):
        instance = '{"x1": 0.5, "x2": 0.5, "x3": 0.5, "x4": 0.5, "x5": 9}'
        assert run(
            "explain", "--predictor", "linear", "--instance", instance,
            "--output-dir", str(tmp_path),
        ) == 2
        err = capsys.readouterr().err
        assert "unknown features: ['x5']" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["whatif", "--feature", "x1", "--phi0", "nan"],
            ["whatif", "--feature", "x1", "--phi0", "2"],
            ["stability", "--methods", "shapley-mc", "--runs", "2", "--phi0", "nan"],
            ["explain", "--method", "shapley", "--phi0", "nan"],
        ],
        ids=["whatif-nan", "whatif-2", "stability-shapley-nan", "explain-shapley-nan"],
    )
    def test_phi0_outside_unit_interval(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(
            *argv, "--predictor", "linear", "--instance", MID, "--output-dir", str(out),
        ) == 2
        err = capsys.readouterr().err
        message = "phi0 must be a finite number" if argv[-1] == "nan" else "phi0 must lie in [0, 1]"
        assert message in err and "Traceback" not in err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["explain", "--method", "shapley", "--output-index", "5"],
            ["explain", "--method", "lime", "--output-index", "-1"],
            ["explain", "--method", "ciu", "--output-index", "1"],
            ["global", "--methods", "pfi-mae", "--output-index", "2"],
            ["stability", "--methods", "lime-surrogate", "--output-index", "4"],
            ["whatif", "--feature", "x1", "--output-index", "-1"],
        ],
        ids=["explain-shapley", "explain-lime-negative", "explain-ciu", "global-pfi",
             "stability-lime", "whatif-negative"],
    )
    def test_output_index_out_of_range(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        if argv[0] != "global":
            argv = argv + ["--instance", MID]
        assert run(*argv, "--predictor", "linear", "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert "output index" in err and "out of range" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_method(self, tmp_path):
        assert run(
            "explain", "--predictor", "linear", "--instance", MID,
            "--method", "gradcam", "--output-dir", str(tmp_path),
        ) == 2

    def test_missing_model_file(self, tmp_path):
        assert run(
            "explain", "--model", str(tmp_path / "absent.json"),
            "--instance", MID, "--output-dir", str(tmp_path),
        ) == 3

    def test_invalid_model_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert run(
            "explain", "--model", str(bad), "--instance", MID,
            "--output-dir", str(tmp_path),
        ) == 3

    def test_boolean_or_huge_number_instance(self, tmp_path, capsys):
        base = ["explain", "--predictor", "linear", "--output-dir", str(tmp_path)]
        assert run(*base, "--instance", "[true, 0, 0, 0]") == 2
        assert run(*base, "--instance", f"[0, {10**400}, 0, 0]") == 2
        err = capsys.readouterr().err
        assert "'x1': value must be a finite number" in err and "'x2'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "instance",
        ['["0_5",0.5,0.5,0.5]', '{"x1":" 0.5 ","x2":0.5,"x3":0.5,"x4":0.5}'],
        ids=["list", "object"],
    )
    def test_string_for_a_number_exits_2(self, tmp_path, capsys, instance):
        assert run(
            "explain", "--predictor", "linear", "--instance", instance,
            "--output-dir", str(tmp_path),
        ) == 2
        assert "feature 'x1': value must be a finite number" in _one_line_error(capsys)

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "explain" in capsys.readouterr().out


# Usage and input faults, each with its argv ("{dir}" holds lin.csv, 60 rows
# over the linear predictor's features, two.csv, 2 rows, and forest.json, a
# model of an unknown task), exit code and part of its one error line.
ERROR_PATHS = {
    "data-without-target": (
        ["explain", "--predictor", "linear", "--data", "{dir}/lin.csv", "--instance", MID],
        2, "--data needs --target",
    ),
    "predictor-and-model": (
        ["explain", "--predictor", "linear", "--model", "{dir}/forest.json", "--instance", MID],
        2, "either --predictor or --model",
    ),
    "row-not-a-number": (
        ["explain", "--predictor", "linear", "--data", "{dir}/lin.csv", "--target", "y",
         "--instance", "row:abc"],
        2, "bad row index in 'row:abc'",
    ),
    "row-past-the-end": (
        ["explain", "--predictor", "linear", "--data", "{dir}/lin.csv", "--target", "y",
         "--instance", "row:60"],
        2, "row 60 out of range (dataset has 60 rows)",
    ),
    "instance-scalar": (
        ["explain", "--predictor", "linear", "--instance", "5"],
        2, "--instance JSON must be a list or an object",
    ),
    "no-format": (
        ["explain", "--predictor", "linear", "--instance", MID, "--format", ","],
        2, "at least one output format is required",
    ),
    "no-method": (
        ["explain", "--predictor", "linear", "--instance", MID, "--method", ","],
        2, "at least one method is required",
    ),
    "unknown-model-task": (
        ["explain", "--model", "{dir}/forest.json", "--instance", '[0.3, "lo"]'],
        3, "unknown task 'forest'",
    ),
    "train-one-row-left": (
        ["train", "--data", "{dir}/two.csv", "--target", "y", "--holdout", "0.5",
         "--model-out", "{dir}/m.json"],
        2, "len(dataset) must be an int >= 2, got 1",
    ),
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", sorted(ERROR_PATHS))
    def test_exit_code_and_one_error_line(self, tmp_path, capsys, case):
        argv, code, message = ERROR_PATHS[case]
        rows = [f"{k / 60!r},0.5,0.5,0.5,{k / 60!r}" for k in range(60)]
        (tmp_path / "lin.csv").write_text("\n".join(["x1,x2,x3,x4,y", *rows]) + "\n")
        (tmp_path / "two.csv").write_text("a,y\n0.0,1.0\n1.0,2.0\n")
        (tmp_path / "forest.json").write_text(json.dumps({**_good_model(), "task": "forest"}))
        out = tmp_path / "out"
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        if argv[0] != "train":
            argv += ["--output-dir", str(out)]
        assert run(*argv) == code
        assert message in _one_line_error(capsys)
        assert not out.exists()


# A valid argv per subcommand ("{dir}" is a directory holding d.csv), and
# the flags and formats each does not read.
VALID_ARGV = {
    "global": ["global", "--predictor", "linear", "--iterations", "1", "--instances", "3"],
    "whatif": ["whatif", "--predictor", "linear", "--instance", MID, "--feature", "x1"],
    "train": [
        "train", "--data", "{dir}/d.csv", "--target", "label",
        "--model-out", "{dir}/m.json", "--trees", "2",
    ],
}
UNREAD_FLAGS = [
    ("global", ["--phi0", "0.5"]),
    ("global", ["--lime-samples", "10"]),
    ("whatif", ["--samples", "10"]),
    ("whatif", ["--shapley-budget", "10"]),
    ("whatif", ["--lime-samples", "10"]),
    ("whatif", ["--timings"]),
    ("train", ["--output-dir", "."]),
    ("train", ["--format", "json"]),
    ("train", ["--output-index", "0"]),
    ("train", ["--phi0", "0.5"]),
    ("train", ["--samples", "10"]),
    ("train", ["--shapley-budget", "10"]),
    ("train", ["--lime-samples", "10"]),
    ("train", ["--range-budget", "10"]),
    ("train", ["--timings"]),
    ("global", ["--format", "svg"]),
    ("whatif", ["--format", "csv"]),
]


class TestFlagsPerSubcommand:
    """Each subcommand accepts only the flags and formats it reads."""

    def argv(self, command, tmp_path):
        write_classification_csv(tmp_path / "d.csv", n=40)
        argv = [a.format(dir=tmp_path) for a in VALID_ARGV[command]]
        return argv if command == "train" else argv + ["--output-dir", str(tmp_path / "out")]

    @pytest.mark.parametrize("command, extra", UNREAD_FLAGS)
    def test_unread_flag_or_format_exits_2(self, tmp_path, capsys, command, extra):
        assert run(*self.argv(command, tmp_path), *extra) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]  # nothing written

    @pytest.mark.parametrize("command", sorted(VALID_ARGV))
    def test_valid_argv_runs(self, tmp_path, capsys, command):
        assert run(*self.argv(command, tmp_path)) == 0


def _good_model() -> dict:
    """A one-tree model over a numeric and a categorical feature: a split on
    a <= 0.5, whose left child splits on g == "lo"."""
    return {
        "kind": "tree-ensemble",
        "format": 2,
        "task": "classification",
        "class_names": ["no", "yes"],
        "params": {"n_trees": 1, "max_depth": 2, "min_leaf": 1, "feature_subsample": "all"},
        "features": [
            {"name": "a", "type": "numeric", "min": 0.0, "max": 1.0},
            {"name": "g", "type": "categorical", "levels": ["lo", "hi"]},
        ],
        "trees": [
            {
                "feature": [0, 1, -1, -1, -1],
                "split": [0.5, "lo"],
                "leaf": [1.0, 0.0, 0.5, 0.5, 0.0, 1.0],
            }
        ],
    }


def _with_split(doc: dict, feature, value) -> None:
    """Replace the level split under the root, which the explained row
    (a=0.3, g="lo") reaches."""
    tree = doc["trees"][0]
    tree["feature"][1], tree["split"][1] = feature, value


def _set(column: str, k: int, value):
    """A mutation that sets entry k of the tree's column to value."""

    def mutate(doc: dict) -> None:
        doc["trees"][0][column][k] = value

    return mutate


MALFORMED_MODELS = {
    "trees-missing": lambda doc: doc.pop("trees"),
    "trees-empty": lambda doc: doc.update(trees=[]),
    "unknown-param": lambda doc: doc["params"].update(depth=3),
    "zero-trees-param": lambda doc: doc["params"].update(n_trees=0),
    "float-trees-param": lambda doc: doc["params"].update(n_trees=2.5),
    "class-names-string": lambda doc: doc.update(class_names="ny"),
    "nested-format": lambda doc: doc.pop("format"),
    "format-3": lambda doc: doc.update(format=3),
    "format-string": lambda doc: doc.update(format="2"),
    "tree-not-object": lambda doc: doc["trees"].append([0, -1, -1]),
    "neither-leaf-nor-split": lambda doc: doc["trees"][0].pop("split"),
    "column-not-list": lambda doc: doc["trees"][0].update(feature="01"),
    "feature-out-of-range": _set("feature", 0, 7),
    "feature-below-leaf": _set("feature", 4, -2),
    "bool-feature": _set("feature", 0, False),
    "float-feature": _set("feature", 0, 0.0),
    "split-without-right": lambda doc: doc["trees"][0]["feature"].pop(),
    "node-after-last-leaf": lambda doc: doc["trees"][0]["feature"].append(-1),
    "extra-split-value": lambda doc: doc["trees"][0]["split"].append(0.25),
    "threshold-on-categorical": lambda doc: _with_split(doc, 1, 0.5),
    "level-on-numeric": lambda doc: _with_split(doc, 0, "lo"),
    "undeclared-level": lambda doc: _with_split(doc, 1, "mid"),
    "null-level": lambda doc: _with_split(doc, 1, None),
    "nan-threshold": _set("split", 0, float("nan")),
    "bool-threshold": _set("split", 0, True),
    "huge-integer-threshold": _set("split", 0, 10**400),
    "short-leaf": lambda doc: doc["trees"][0]["leaf"].pop(),
    "infinite-leaf": _set("leaf", 4, float("inf")),
    "bool-leaf": _set("leaf", 4, True),
    "string-leaf": _set("leaf", 0, "1.0"),
    "levels-not-strings": lambda doc: doc["features"][1].update(levels=["lo", "hi", 5]),
    "feature-bound-string": lambda doc: doc["features"][0].update(max="one"),
    "feature-bounds-overflow": lambda doc: doc["features"][0].update(min=-1.7e308, max=1.7e308),
}

_RETRAIN = "is not read; retrain the model for format 2"
_COLUMNS = "a tree needs 'feature', 'split' and 'leaf' lists"
_SHAPE = "'feature' is not a full binary tree in preorder"
# The whole message of each format, params and tree case, after "error: model <path>: ".
NODE_MESSAGES = {
    "float-trees-param": "bad params (n_trees must be an int >= 1, got 2.5)",
    "nested-format": f"the nested tree format {_RETRAIN}",
    "format-3": f"format 3 {_RETRAIN}",
    "format-string": f"format '2' {_RETRAIN}",
    "tree-not-object": f"tree 1: {_COLUMNS}",
    "neither-leaf-nor-split": f"tree 0: {_COLUMNS}",
    "column-not-list": f"tree 0: {_COLUMNS}",
    "feature-out-of-range": "tree 0: feature index 7 out of range",
    "feature-below-leaf": "tree 0: feature index -2 out of range",
    "bool-feature": "tree 0: feature index False out of range",
    "float-feature": "tree 0: feature index 0.0 out of range",
    "split-without-right": f"tree 0: {_SHAPE}",
    "node-after-last-leaf": f"tree 0: {_SHAPE}",
    "extra-split-value": "tree 0: 3 split values for 2 splits",
    "threshold-on-categorical": "tree 0: threshold split on categorical feature 'g'",
    "level-on-numeric": "tree 0: level split on numeric feature 'a'",
    "undeclared-level": "tree 0: feature 'g' has no level 'mid'",
    "null-level": "tree 0: feature 'g' has no level None",
    "nan-threshold": "tree 0: threshold must be a finite number",
    "bool-threshold": "tree 0: threshold must be a finite number",
    "huge-integer-threshold": "tree 0: threshold must be a finite number",
    "short-leaf": "tree 0: 5 leaf values for 3 leaves of 2 outputs",
    "infinite-leaf": "tree 0: leaf values must be finite numbers",
    "bool-leaf": "tree 0: leaf values must be numbers",
    "string-leaf": "tree 0: leaf values must be numbers",
}


def _regression_model(*names: str) -> dict:
    """A one-leaf regression model over numeric features on [0, 1]."""
    return {
        "kind": "tree-ensemble",
        "format": 2,
        "task": "regression",
        "params": {"n_trees": 1, "max_depth": 1, "min_leaf": 1, "feature_subsample": "all"},
        "features": [{"name": n, "type": "numeric", "min": 0.0, "max": 1.0} for n in names],
        "trees": [{"feature": [-1], "split": [], "leaf": [0.5]}],
    }


class TestMalformedData:
    def test_nan_in_number_column_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n0.1,0.5,0.0\nnan,0.25,1.0\n0.7,0.75,0.5\n")
        # --data is read after the model, against its feature space
        (tmp_path / "model.json").write_text(json.dumps(_regression_model("a", "b")))
        code = run(
            "explain", "--model", str(tmp_path / "model.json"), "--data", str(data),
            "--target", "y", "--instance", "row:0", "--output-dir", str(tmp_path),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'a'" in err and "Traceback" not in err
        assert run(
            "train", "--data", str(data), "--target", "y",
            "--model-out", str(tmp_path / "model.json"),
        ) == 3


class TestMalformedModel:
    def explain(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        return run(
            "explain", "--model", str(path), "--instance", '[0.3, "lo"]',
            "--output-dir", str(tmp_path), "--format", "json",
        )

    def test_good_model_explains(self, tmp_path):
        assert self.explain(tmp_path, _good_model()) == 0

    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_exits_3_with_message(self, tmp_path, capsys, case):
        doc = _good_model()
        MALFORMED_MODELS[case](doc)
        assert self.explain(tmp_path, doc) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: model ") and "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(NODE_MESSAGES))
    def test_node_case_names_its_tree_and_fault(self, tmp_path, capsys, case):
        doc = _good_model()
        MALFORMED_MODELS[case](doc)
        assert self.explain(tmp_path, doc) == 3
        path = tmp_path / "model.json"
        assert capsys.readouterr().err == f"error: model {path}: {NODE_MESSAGES[case]}\n"

    def test_first_bad_node_in_preorder_is_named(self, tmp_path, capsys):
        # Trees 1 and 2 each test undeclared levels; the first in preorder
        # of tree 1 lies two splits down its left branch.
        doc = _good_model()
        doc["trees"] += [
            {
                "feature": [0, 0, 1, -1, -1, -1, 1, -1, -1],
                "split": [0.5, 0.25, "mid", "top"],
                "leaf": [0.5, 0.5] * 5,
            },
            {"feature": [1, -1, -1], "split": ["low"], "leaf": [0.5, 0.5] * 2},
        ]
        doc["params"]["n_trees"] = 3
        assert self.explain(tmp_path, doc) == 3
        path = tmp_path / "model.json"
        message = "tree 1: feature 'g' has no level 'mid'"
        assert capsys.readouterr().err == f"error: model {path}: {message}\n"

    def test_nested_format_names_the_format_and_asks_to_retrain(self, tmp_path, capsys):
        # the one-tree model above as earlier versions wrote it
        leaf = {"leaf": [0.5, 0.5]}
        doc = _good_model()
        del doc["format"]
        doc["trees"] = [{
            "feature": 0, "threshold": 0.5, "right": {"leaf": [0.0, 1.0]},
            "left": {"feature": 1, "level": "lo", "left": {"leaf": [1.0, 0.0]}, "right": leaf},
        }]
        assert self.explain(tmp_path, doc) == 3
        path = tmp_path / "model.json"
        message = f"the nested tree format {_RETRAIN}"
        assert capsys.readouterr().err == f"error: model {path}: {message}\n"

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_bytes(json.dumps(_good_model()).encode().replace(b'"lo"', b'"l\xf6"'))
        assert run(
            "explain", "--model", str(path), "--instance", '[0.3, "hi"]',
            "--output-dir", str(tmp_path), "--format", "json",
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: model ") and "invalid JSON" in err

    def test_too_deeply_nested_json(self, tmp_path, capsys):
        split = '{"feature": 0, "threshold": 0.5, "right": {"leaf": [1.0, 0.0]}, "left": '
        deep = split * 5000 + '{"leaf": [0.5, 0.5]}' + "}" * 5000
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_good_model()).replace('"trees": [', '"trees": [' + deep + ", "))
        assert run(
            "explain", "--model", str(path), "--instance", '[0.3, "lo"]',
            "--output-dir", str(tmp_path),
        ) == 3
        assert capsys.readouterr().err.startswith("error: model ")


class TestWhatif:
    def test_report_and_svg(self, tmp_path):
        code = run(
            "whatif", "--predictor", "nonlinear", "--instance",
            "[0.63, 0.63, 0.59, 0.81]", "--feature", "x4,x3",
            "--output-dir", str(tmp_path), "--format", "json,svg",
        )
        assert code == 0
        doc = json.loads((tmp_path / "whatif_report.json").read_text())
        assert [c["feature"] for c in doc["results"]] == ["x4", "x3"]
        assert len(doc["results"][0]["xs"]) == 101
        assert (tmp_path / "whatif_x4.svg").exists()
        assert (tmp_path / "whatif_x3.svg").exists()
        svg = (tmp_path / "whatif_x4.svg").read_text()
        assert "MIN=" in svg and "MAX=" in svg  # estimated joint range guides

    def test_repeated_feature_is_swept_once(self, tmp_path, capsys):
        code = run(
            "whatif", "--predictor", "linear", "--instance", MID,
            "--feature", "x2,x1,x2", "--output-dir", str(tmp_path), "--format", "json,text",
        )
        assert code == 0
        doc = json.loads((tmp_path / "whatif_report.json").read_text())
        assert [c["feature"] for c in doc["results"]] == ["x2", "x1"]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["x2", "x1"]

    def test_unknown_feature(self, tmp_path):
        assert run(
            "whatif", "--predictor", "linear", "--instance", MID,
            "--feature", "x9", "--output-dir", str(tmp_path),
        ) == 2


class TestStability:
    def test_files_per_method(self, tmp_path, capsys):
        code = run(
            "stability", "--predictor", "linear", "--instance", MID,
            "--runs", "5", "--shapley-budget", "50", "--lime-samples", "100",
            "--output-dir", str(tmp_path), "--format", "json,csv,svg,text",
        )
        assert code == 0
        for tag in ("contextual_influence", "shapley_mc", "lime_surrogate"):
            assert (tmp_path / f"stability_{tag}.json").exists()
            assert (tmp_path / f"stability_{tag}.csv").exists()
            assert (tmp_path / f"stability_{tag}.svg").exists()
        doc = json.loads((tmp_path / "stability_shapley_mc.json").read_text())
        assert doc["results"]["runs"] == 5
        assert len(doc["results"]["values"]) == 5
        out = capsys.readouterr().out
        assert out.count("method:") == 3

    def test_text_stdout_is_byte_stable(self, tmp_path, capsys):
        argv = [
            "stability", "--predictor", "linear", "--instance", MID,
            "--runs", "3", "--shapley-budget", "20", "--lime-samples", "50",
            "--output-dir", str(tmp_path), "--format", "text",
        ]
        outs = []
        for extra in ([], [], ["--timings"]):
            assert run(*argv, *extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "elapsed" not in outs[0]
        timed = outs[2].splitlines()
        assert sum(line.startswith("elapsed: total ") for line in timed) == 3
        plain = [line for line in timed if not line.startswith("elapsed: ")]
        assert plain == outs[0].splitlines()

    def test_method_subset(self, tmp_path):
        code = run(
            "stability", "--predictor", "linear", "--instance", MID,
            "--methods", "contextual-influence", "--runs", "3",
            "--output-dir", str(tmp_path), "--format", "json",
        )
        assert code == 0
        assert not (tmp_path / "stability_shapley_mc.json").exists()

    def test_each_method_checks_its_own_budget(self, tmp_path, capsys):
        # --samples 0 gives endpoint-only intervals, as in explain and global:
        # exact for the monotone linear predictor, so every run agrees
        argv = ["stability", "--predictor", "linear", "--instance", MID,
                "--output-dir", str(tmp_path), "--format", "json"]
        assert run(*argv, "--methods", "contextual-influence", "--samples", "0") == 0
        doc = json.loads((tmp_path / "stability_contextual_influence.json").read_text())
        values = doc["results"]["values"]
        assert doc["results"]["budgets"]["ciu_samples"] == 0
        assert all(r == values[0] for r in values)  # a zero sd on every feature
        for extra in (["--methods", "shapley-mc", "--shapley-budget", "0"],
                      ["--methods", "lime-surrogate", "--lime-samples", "3"]):
            capsys.readouterr()
            assert run(*argv, *extra) == 2
            _one_line_error(capsys)


class TestGlobal:
    def test_builtin_defaults(self, tmp_path, capsys):
        code = run(
            "global", "--predictor", "linear", "--iterations", "2",
            "--instances", "60", "--samples", "30", "--shapley-budget", "40",
            "--output-dir", str(tmp_path), "--format", "json,csv,text",
        )
        assert code == 0
        doc = json.loads((tmp_path / "global_report.json").read_text())
        assert doc["config"]["methods"] == "ci,pfi-mae,shapley"
        methods = [b["method"] for b in doc["results"]]
        assert methods == ["ci", "pfi-mae", "shapley"]
        ci_block = doc["results"][0]
        means = {f["name"]: f["mean"] for f in ci_block["features"]}
        assert means["x1"] == pytest.approx(0.4, abs=1e-9)
        lines = (tmp_path / "global_report.csv").read_text().splitlines()
        assert lines[0] == "method,feature,mean,spread"
        assert len(lines) == 1 + 3 * 4
        assert "method: ci" in capsys.readouterr().out

    def test_one_parser_per_process_keeps_no_state(self, tmp_path):
        # main parses every call with one parser; a call's options do not
        # reach the next call
        assert cli.build_parser() is cli.build_parser()
        common = ("global", "--predictor", "linear", "--iterations", "1", "--instances", "5",
                  "--samples", "5", "--shapley-budget", "5", "--format", "json")
        assert run(*common, "--methods", "ci", "--output-dir", str(tmp_path / "ci")) == 0
        assert run(*common, "--output-dir", str(tmp_path / "default")) == 0
        for name, methods in (("ci", ["ci"]), ("default", ["ci", "pfi-mae", "shapley"])):
            doc = json.loads((tmp_path / name / "global_report.json").read_text())
            assert [b["method"] for b in doc["results"]] == methods

    def test_repeated_method_runs_once(self, tmp_path):
        reports = {}
        for methods in ("ci,shapley,ci", "ci,shapley"):
            out = tmp_path / methods
            code = run(
                "global", "--predictor", "linear", "--iterations", "2",
                "--instances", "10", "--samples", "10", "--shapley-budget", "10",
                "--methods", methods, "--output-dir", str(out), "--format", "json,csv",
            )
            assert code == 0
            doc = json.loads((out / "global_report.json").read_text())
            reports[methods] = (doc, (out / "global_report.csv").read_bytes())
        (repeated, repeated_csv), (plain, plain_csv) = reports.values()
        assert [b["method"] for b in plain["results"]] == ["ci", "shapley"]
        assert repeated["results"] == plain["results"]
        assert repeated_csv == plain_csv
        assert repeated["config"]["methods"] == "ci,shapley,ci"  # the argv as given

    def test_instances_report_the_rows_drawn(self, tmp_path, capsys):
        data = write_classification_csv(tmp_path / "small.csv", n=12, seed=7)
        model = tmp_path / "model.json"
        run("train", "--data", str(data), "--target", "label", "--trees", "3",
            "--model-out", str(model))
        common = ("global", "--model", str(model), "--data", str(data), "--target", "label",
                  "--iterations", "1", "--samples", "5", "--shapley-budget", "5",
                  "--methods", "ci,shapley", "--output-dir", str(tmp_path), "--format", "json")
        assert run(*common, "--instances", "200") == 0
        doc = json.loads((tmp_path / "global_report.json").read_text())
        assert [b["instances"] for b in doc["results"]] == [12, 12]  # the bootstrap draws 12
        assert run(*common, "--instances", "5") == 0
        doc = json.loads((tmp_path / "global_report.json").read_text())
        assert [b["instances"] for b in doc["results"]] == [5, 5]
        for bad in ("0", "-1"):
            capsys.readouterr()
            assert run(*common, "--instances", bad) == 2
            message = f"instances_per_iteration must be an int >= 1, got {bad}"
            assert message in capsys.readouterr().err


    def test_method_numbers_do_not_depend_on_their_place(self, tmp_path):
        blocks = {}
        for methods in ("ci,pfi-mae,shapley", "shapley,pfi-mae,ci"):
            out = tmp_path / methods
            assert run(
                "global", "--predictor", "linear", "--iterations", "2",
                "--instances", "10", "--samples", "5", "--shapley-budget", "10",
                "--methods", methods, "--output-dir", str(out), "--format", "json",
            ) == 0
            doc = json.loads((out / "global_report.json").read_text())
            blocks[methods] = {b["method"]: b for b in doc["results"]}
        default, reversed_ = blocks.values()
        assert default == reversed_

    def test_pfi_mae_on_classification_scores_the_class_indicator(self, tmp_path, capsys):
        def pfi_mae(model, data, output):
            out = tmp_path / f"out{output}"
            assert run(
                "global", "--model", str(model), "--data", str(data), "--target", "label",
                "--methods", "pfi-mae", "--output-index", str(output), "--iterations", "2",
                "--instances", "30", "--output-dir", str(out), "--format", "json",
            ) == 0, capsys.readouterr().err
            (block,) = json.loads((out / "global_report.json").read_text())["results"]
            return [f["mean"] for f in block["features"]]

        binary = write_classification_csv(tmp_path / "binary.csv", n=40, seed=3)
        run("train", "--data", str(binary), "--target", "label", "--trees", "5",
            "--depth", "4", "--model-out", str(tmp_path / "binary.json"))
        # |P(0) - [label == 0]| == |P(1) - [label == 1]|: output 0 measures what output 1 does
        assert pfi_mae(tmp_path / "binary.json", binary, 0) == pytest.approx(
            pfi_mae(tmp_path / "binary.json", binary, 1), abs=1e-12
        )

        multi = write_multiclass_csv(tmp_path / "multi.csv", n=90, seed=3)
        model = tmp_path / "multi.json"
        run("train", "--data", str(multi), "--target", "label", "--trees", "5",
            "--depth", "4", "--model-out", str(model))
        predictor = ck.load_model(model)
        dataset = ck.load_csv(multi, "label", predictor.space, predictor.class_names)
        utility = ck.OutputUtility.classification(predictor.class_names)
        for output in (1, 2):
            want = ck.run_global(
                predictor, utility, predictor.space, "pfi-mae", iterations=2,
                instances_per_iteration=30, rng=ck.SeededRng(42).spawn(1), rows=dataset.rows,
                targets=[float(t == output) for t in dataset.target], output=output,
            )
            assert pfi_mae(model, multi, output) == list(want.mean)


class TestTrainFlow:
    def test_train_then_explain_and_global(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_classification_csv(data, n=400, seed=11, margin=0.15)
        model = tmp_path / "model.json"
        code = run(
            "train", "--data", str(data), "--target", "label",
            "--model-out", str(model), "--trees", "30",
        )
        assert code == 0
        message = capsys.readouterr().out
        assert "trained 30 trees on 300 rows" in message
        score = float(message.split("accuracy=")[1].split(" ")[0])
        assert score >= 0.9

        out = tmp_path / "explain"
        code = run(
            "explain", "--model", str(model), "--data", str(data),
            "--target", "label", "--instance", "row:0",
            "--method", "ciu,shapley,lime", "--output-index", "1",
            "--output-dir", str(out), "--format", "json,svg",
        )
        assert code == 0
        doc = json.loads((out / "explain_report.json").read_text())
        ciu = doc["results"][0]
        assert ciu["output_name"] in ("yes", "no")
        for f in ciu["features"]:
            assert 0.0 <= f["ci"] <= 1.0 and 0.0 <= f["cu"] <= 1.0
            assert "instability" not in f["flags"]

        gout = tmp_path / "global"
        code = run(
            "global", "--model", str(model), "--data", str(data),
            "--target", "label", "--iterations", "2", "--instances", "40",
            "--samples", "20", "--shapley-budget", "30", "--output-index", "1",
            "--output-dir", str(gout), "--format", "json",
        )
        assert code == 0
        doc = json.loads((gout / "global_report.json").read_text())
        assert doc["config"]["methods"] == "ci,pfi-ce,shapley"

    def test_model_without_features_exits_3(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_classification_csv(data, n=100, seed=3)
        model = tmp_path / "model.json"
        run(
            "train", "--data", str(data), "--target", "label",
            "--model-out", str(model), "--trees", "5",
        )
        capsys.readouterr()
        doc = json.loads(model.read_text())
        del doc["features"]
        model.write_text(json.dumps(doc))
        assert run(
            "explain", "--model", str(model), "--instance", "row:0",
            "--data", str(data), "--target", "label",
            "--output-dir", str(tmp_path),
        ) == 3
        assert "'features'" in capsys.readouterr().err


class TestDataAgainstModelSpace:
    """--data columns are matched to the model's features by name."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        data = root / "train.csv"
        write_classification_csv(data, n=120, seed=5)
        assert run(
            "train", "--data", str(data), "--target", "label", "--trees", "5",
            "--model-out", str(root / "model.json"),
        ) == 0
        with open(data, newline="") as fh:
            return root, list(csv.reader(fh))

    def explain(self, root, rows, name):
        path = root / name / "data.csv"
        path.parent.mkdir()
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = root / name / "out"
        code = run(
            "explain", "--model", str(root / "model.json"), "--data", str(path),
            "--target", "label", "--instance", "row:3", "--output-index", "1",
            "--method", "ciu,shapley,lime", "--output-dir", str(out), "--format", "json,csv",
        )
        return code, out

    def test_reordered_columns_give_the_same_report(self, trained):
        root, rows = trained
        order = [4, 2, 0, 3, 1]  # label, c, a, grade, b
        code, plain = self.explain(root, rows, "plain")
        assert code == 0
        code, moved = self.explain(root, [[r[k] for k in order] for r in rows], "moved")
        assert code == 0
        csvs = [(d / "explain_report.csv").read_bytes() for d in (plain, moved)]
        assert csvs[0] == csvs[1]
        docs = [json.loads((d / "explain_report.json").read_text()) for d in (plain, moved)]
        assert docs[0]["results"] == docs[1]["results"]

    @pytest.mark.parametrize(
        "change, code",
        [("drop-column", 2), ("extra-column", 2), ("undeclared-level", 3)],
    )
    def test_mismatch_exits_with_message(self, trained, capsys, change, code):
        root, rows = trained
        rows = [list(r) for r in rows]
        if change == "drop-column":
            rows = [r[:2] + r[3:] for r in rows]
        elif change == "extra-column":
            rows = [r + [v] for r, v in zip(rows, ["d"] + ["1"] * (len(rows) - 1))]
        else:
            rows[5][3] = "mid"
        assert self.explain(root, rows, change)[0] == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert {"drop-column": "'c'", "extra-column": "'d'", "undeclared-level": "'mid'"}[change] in err


class TestTargetsAgainstModelClasses:
    """A classifier's --data labels are decoded through its class names."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("classes")
        write_classification_csv(root / "data.csv", n=200, seed=7)
        assert run(
            "train", "--data", str(root / "data.csv"), "--target", "label",
            "--trees", "10", "--depth", "4", "--model-out", str(root / "model.json"),
        ) == 0
        assert json.loads((root / "model.json").read_text())["class_names"] == ["yes", "no"]
        return root

    def global_pfi(self, root, lines, name, methods="pfi-ce"):
        (root / f"{name}.csv").write_text("".join(lines))
        code = run(
            "global", "--model", str(root / "model.json"), "--data", str(root / f"{name}.csv"),
            "--target", "label", "--methods", methods, "--format", "json",
            "--iterations", "2", "--instances", "20", "--samples", "5", "--shapley-budget", "5",
            "--output-dir", str(root / name),
        )
        if code:
            return code, None
        doc = json.loads((root / name / "global_report.json").read_text())
        return code, [f["mean"] for f in doc["results"][0]["features"]]

    def test_row_order_does_not_change_the_labels(self, trained):
        header, *rows = (trained / "data.csv").read_text().splitlines(keepends=True)
        k = next(i for i, r in enumerate(rows) if r.rstrip().endswith(",no"))
        assert k > 0
        code, plain = self.global_pfi(trained, [header, *rows], "plain")
        assert code == 0
        # a "no" row first used to flip the label map: "importances sum to zero"
        moved = [header, rows[k], *rows[:k], *rows[k + 1:]]
        code, moved = self.global_pfi(trained, moved, "moved")
        assert code == 0
        # the bootstrap draws other rows, so the means agree within their spread
        assert moved == pytest.approx(plain, abs=0.01)

    def test_numeric_labels_against_named_classes_exit_3(self, trained, capsys):
        header, *rows = (trained / "data.csv").read_text().splitlines(keepends=True)
        numeric = [header] + [r.replace(",yes", ",1").replace(",no", ",0") for r in rows]
        # used to be read as a regression target and explained by pfi-mae
        assert self.global_pfi(trained, numeric, "numeric", "ci,pfi-mae")[0] == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "['0', '1']" in err and "Traceback" not in err


class TestCsvQuoting:
    def test_names_with_commas_and_quotes_round_trip(self, tmp_path):
        names = ["a,b", 'say "hi"', "x3", "x4"]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "features": [{"name": n, "type": "numeric", "min": 0, "max": 1} for n in names],
            "outputs": [{"name": "y", "min": 0, "max": 1}],
        }))
        common = [
            "--predictor", "linear", "--config", str(config), "--format", "csv",
            "--output-dir", str(tmp_path), "--samples", "5", "--shapley-budget", "5",
        ]
        assert run("explain", *common, "--instance", MID, "--method", "ciu,shapley") == 0
        assert run("global", *common, "--iterations", "1", "--instances", "5") == 0
        assert run(
            "stability", *common, "--instance", MID, "--runs", "2",
            "--methods", "contextual-influence",
        ) == 0
        for name, column in [
            ("explain_report.csv", 1),
            ("global_report.csv", 1),
            ("stability_contextual_influence.csv", 2),
        ]:
            with open(tmp_path / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(r) == len(header) for r in rows)
            assert {r[column] for r in rows} == set(names)


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


def _config(path, names, bounds=(0.0, 1.0)):
    path.write_text(json.dumps({
        "features": [
            {"name": n, "type": "numeric", "min": bounds[0], "max": bounds[1]} for n in names
        ],
        "outputs": [{"name": "y", "min": 0, "max": 1}],
    }))
    return str(path)


class TestConfigAgainstPredictor:
    """A --config must declare the features the predictor reads."""

    @pytest.mark.parametrize("predictor", ["linear", "nonlinear"])
    @pytest.mark.parametrize("count", [2, 5])
    def test_builtin_feature_count_must_match(self, tmp_path, capsys, predictor, count):
        config = _config(tmp_path / "config.json", [f"x{i}" for i in range(1, count + 1)])
        assert run(
            "explain", "--predictor", predictor, "--config", config,
            "--instance", json.dumps([0.5] * count), "--output-dir", str(tmp_path / "out"),
        ) == 2
        err = _one_line_error(capsys)
        assert f"declares {count} features; the {predictor} predictor reads 4" in err
        assert not (tmp_path / "out").exists()

    def test_builtin_features_may_be_renamed_and_rebounded(self, tmp_path):
        config = _config(tmp_path / "config.json", ["p", "q", "r", "s"], bounds=(-2.0, 3.0))
        assert run(
            "explain", "--predictor", "linear", "--config", config,
            "--instance", '{"p": 0, "q": 1, "r": 2, "s": 3}', "--output-dir", str(tmp_path),
        ) == 0

    def test_huge_bounds_give_a_non_finite_output_error(self, tmp_path, capsys):
        config = _config(tmp_path / "config.json", ["x1", "x2", "x3", "x4"], bounds=(0, 1e200))
        assert run(
            "explain", "--predictor", "nonlinear", "--config", config, "--instance", MID,
            "--samples", "2", "--output-dir", str(tmp_path),
        ) == 3
        assert "non-finite output" in _one_line_error(capsys)

    def test_model_features_must_match(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(_good_model()))
        common = ["explain", "--model", str(model), "--output-dir", str(tmp_path)]
        config = _config(tmp_path / "config.json", ["a", "b"])
        assert run(*common, "--config", config, "--instance", "[0.3, 0.5]") == 2
        assert "other features than model" in _one_line_error(capsys)
        # the model's own declarations, repeated, are accepted
        same = tmp_path / "same.json"
        same.write_text(json.dumps({
            "features": _good_model()["features"], "outputs": [{"name": "no"}, {"name": "yes"}],
        }))
        assert run(*common, "--config", str(same), "--instance", '[0.3, "lo"]') == 0


class TestOverflow:
    """Finite inputs whose sums overflow end in one error line, not a traceback."""

    @pytest.mark.parametrize("bounds", [(-1.7e308, 1.7e308), (1e308, 1.7e308)])
    def test_config_bounds_too_far_apart_exit_2(self, tmp_path, capsys, bounds):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "features": [
                {"name": n, "type": "numeric", "min": bounds[0], "max": bounds[1]}
                for n in ("x1", "x2", "x3", "x4")
            ],
            "outputs": [{"name": "y"}],  # undeclared: the range is estimated
        }))
        assert run(
            "explain", "--predictor", "linear", "--config", str(config),
            "--instance", json.dumps([bounds[1]] * 4), "--output-dir", str(tmp_path / "out"),
        ) == 2
        assert "'x1': bounds, width and midpoint must be finite" in _one_line_error(capsys)

    def test_csv_column_too_wide_exits_3(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n-1.7e308,1,0\n1.7e308,2,1\n0,3,0\n1,2,1\n")
        assert run(
            "train", "--data", str(data), "--target", "y",
            "--model-out", str(tmp_path / "model.json"),
        ) == 3
        assert "column 'a'" in _one_line_error(capsys)
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("method", ["shapley", "lime"])
    def test_explain_estimates_that_overflow_exit_3(self, tmp_path, capsys, method):
        assert run(
            "explain", "--predictor", "linear", "--instance", "[1e308, 0.5, 0.5, 0.5]",
            "--method", method, "--format", "json", "--output-dir", str(tmp_path / "out"),
        ) == 3
        _one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_stability_writes_no_infinity(self, tmp_path, capsys):
        assert run(
            "stability", "--predictor", "linear", "--instance", "[1e308, 0.5, 0.5, 0.5]",
            "--methods", "shapley-mc", "--runs", "2", "--format", "json",
            "--output-dir", str(tmp_path / "out"),
        ) == 3
        assert "shapley estimates overflow" in _one_line_error(capsys)
        assert not (tmp_path / "out").exists()


class TestHugeConstants:
    """A constant column or target at |v| >= 2**53, where widening by 0.5 rounds away."""

    def test_constant_column_trains_and_explains(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("a,b,label\n" + "".join(f"1e20,{b},{'yes' if b % 2 else 'no'}\n"
                                                for b in range(8)))
        model = str(tmp_path / "model.json")
        assert run("train", "--data", str(data), "--target", "label", "--trees", "3",
                   "--model-out", model) == 0
        assert run(
            "explain", "--model", model, "--data", str(data), "--target", "label",
            "--instance", "row:1", "--samples", "5", "--output-dir", str(tmp_path / "out"),
        ) == 0

    def test_constant_target_explains_but_has_no_global_importance(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n" + "".join(f"{a},{a * a % 5},1e20\n" for a in range(8)))
        model = str(tmp_path / "model.json")
        assert run("train", "--data", str(data), "--target", "y", "--trees", "3",
                   "--model-out", model) == 0
        common = ("--model", model, "--data", str(data), "--target", "y",
                  "--output-dir", str(tmp_path / "out"))
        for method in ("ciu", "shapley", "lime"):
            assert run("explain", *common, "--instance", "row:1", "--method", method) == 0
        assert run("stability", *common, "--instance", "row:1", "--runs", "2") == 0
        capsys.readouterr()
        assert run("global", *common, "--iterations", "1", "--instances", "5") == 3
        assert "importances sum to zero" in _one_line_error(capsys)  # a constant model

    def test_constant_column_at_1e308_names_the_column(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n1e308,1,0\n1e308,2,1\n1e308,3,0\n1e308,2,1\n")
        assert run("train", "--data", str(data), "--target", "y",
                   "--model-out", str(tmp_path / "model.json")) == 3
        err = _one_line_error(capsys)
        assert "column 'a'" in err and "midpoint must be finite" in err


class TestHugeRegressionTarget:
    @staticmethod
    def data(tmp_path):
        """12 rows with targets near +-1e300, as data.csv."""
        rows = [(k / 11, (7 * k % 12) / 11) for k in range(12)]
        data = tmp_path / "data.csv"
        data.write_text("a,b,y\n" + "".join(
            f"{a!r},{b!r},{(1 if a > 0.5 else -1) * 1e300 * (1 + b)!r}\n" for a, b in rows
        ))
        return data

    def train(self, tmp_path) -> int:
        """Train 5 trees on data.csv into model.json."""
        return run("train", "--data", str(self.data(tmp_path)), "--target", "y", "--trees", "5",
                   "--model-out", str(tmp_path / "model.json"))

    def test_targets_near_1e300_still_split(self, tmp_path, capsys):
        # The squared sums of such targets overflow unless they are scaled.
        assert self.train(tmp_path) == 0
        out = capsys.readouterr().out
        assert "holdout r2=" in out and "nan" not in out
        trees = json.loads((tmp_path / "model.json").read_text())["trees"]
        assert any(tree["split"] for tree in trees)  # not all single leaves

    def test_save_and_load_keep_every_output_bit(self, tmp_path):
        dataset = ck.load_csv(self.data(tmp_path), "y")
        model = ck.train_ensemble(dataset, ck.TreeParams(n_trees=5), rng=3)
        assert any(abs(v) > 1e299 for tree in model.trees for v in tree["leaf"])
        ck.save_model(tmp_path / "model.json", model)
        again = ck.load_model(tmp_path / "model.json")
        rows = ck.uniform_instances(model.space, 200, ck.SeededRng(1))
        assert again.evaluate(rows).tobytes() == model.evaluate(rows).tobytes()

    def test_shapley_and_spreads_near_1e300_stay_finite(self, tmp_path):
        # Every output is finite, but the squares of the Shapley jumps and of
        # the global and stability scores overflow unless they are scaled.
        assert self.train(tmp_path) == 0
        model, x = str(tmp_path / "model.json"), "[0.3, 0.5]"
        for argv in (
            ["explain", "--instance", x, "--method", "shapley"],
            ["global"],
            ["stability", "--instance", x],
        ):
            out = tmp_path / argv[0]
            assert run(*argv, "--model", model, "--output-dir", str(out), "--format", "json") == 0
            reports = sorted(out.glob("*.json"))
            assert reports
            for report in reports:
                text = report.read_text()
                assert "NaN" not in text and "Infinity" not in text


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "message, shown",
        [
            ("Unable to allocate 745. GiB for an array with shape (100000000000,)",
             "error: out of memory: Unable to allocate 745. GiB"),
            ("", "error: out of memory\n"),
        ],
        ids=["numpy-message", "no-message"],
    )
    def test_exits_3_with_one_line(self, tmp_path, capsys, monkeypatch, message, shown):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "ceteris_paribus_curve", exhausted)
        assert run(
            "whatif", "--predictor", "linear", "--instance", MID, "--feature", "x1",
            "--output-dir", str(tmp_path / "out"),
        ) == 3
        assert _one_line_error(capsys).startswith(shown)
        assert not (tmp_path / "out").exists()
