"""The benchmark's workloads: their inputs, one CLI argv per op, and the
checks every op's output must pass.

One op is one ``ciukit.cli.main(argv)`` call. Op k writes into its own
directory ``opdir``: reports under ``opdir/reports``, a trained model at
``opdir/model.json``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

import datagen

# Work per op, passed explicitly so a change of CLI defaults does not
# change the benchmark.
SAMPLES = 100
SHAPLEY_BUDGET = 200
LIME_SAMPLES = 1000
PHI0 = 0.5
GLOBAL_INSTANCES = 50
NONLINEAR_FEATURES = 4
EXPLAIN_ROWS = 500
EXPLAIN_TREES = 100
EXPLAIN_DEPTH = 8
TRAIN_ROWS = 1000
TRAIN_TREES = 20
HOLDOUT = 0.25
# Holdout accuracy on the generated data sits near 0.85 (0.79 at worst
# over 24 seed pairs); a model under this floor is broken.
ACCURACY_FLOOR = 0.70


def op_seed(seed: int, k: int) -> int:
    """Seed of op k, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0] % 2**31)


def _report(path: Path, problems: list[str]):
    """Parse a JSON file, rejecting NaN and Infinity; None on failure."""

    def reject(token):
        raise ValueError(f"non-finite number {token}")

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_constant=reject)
    except (OSError, ValueError) as e:
        problems.append(f"{path.name}: {e}")
        return None


def _in_unit(v) -> bool:
    return isinstance(v, float) and 0.0 <= v <= 1.0


def _check_ciu_of_probability(block: dict, problems: list[str]) -> None:
    phi0 = block["phi0"]
    if not _in_unit(block["y"]):
        problems.append(f"ciu y={block['y']!r} is not a probability")
    for f in block["features"]:
        if not f["ci"] >= 0.0:
            problems.append(f"ciu {f['name']}: ci={f['ci']!r} < 0")
        if "instability" not in f["flags"] and not -phi0 <= f["influence"] <= 1.0 - phi0:
            problems.append(f"ciu {f['name']}: influence={f['influence']!r} out of bounds")
        if not (_in_unit(f["ymin"]) and _in_unit(f["ymax"])):
            problems.append(f"ciu {f['name']}: [ymin, ymax] is not within [0, 1]")


class Workload:
    name = ""
    # Counting self-test: span name -> predictor rows evaluated under it in
    # one op ("cli.main" covers the whole op).
    expected_rows: dict[str, int] = {}

    def prepare(self, workdir: Path, seed: int, cli_main) -> None:
        """Write the run's inputs (runs in a fresh interpreter)."""

    def argv(self, workdir: Path, seed: int, k: int, opdir: Path) -> list[str]:
        raise NotImplementedError

    def check(self, opdir: Path, stdout: str) -> list[str]:
        raise NotImplementedError


class GlobalAnalytic(Workload):
    name = "global-analytic"
    expected_rows = {
        "global_importance.global_ci": GLOBAL_INSTANCES * NONLINEAR_FEATURES * (SAMPLES + 3),
        "baselines.shapley_mc": GLOBAL_INSTANCES
        * (SHAPLEY_BUDGET * (NONLINEAR_FEATURES + 1) + GLOBAL_INSTANCES),
    }

    def argv(self, workdir, seed, k, opdir):
        return [
            "global", "--predictor", "nonlinear",
            "--iterations", "1", "--instances", str(GLOBAL_INSTANCES),
            "--samples", str(SAMPLES), "--shapley-budget", str(SHAPLEY_BUDGET),
            "--seed", str(op_seed(seed, k)),
            "--output-dir", str(opdir / "reports"),
        ]

    def check(self, opdir, stdout):
        problems = []
        doc = _report(opdir / "reports" / "global_report.json", problems)
        if doc is None:
            return problems
        methods = [r["method"] for r in doc["results"]]
        if methods != ["ci", "pfi-mae", "shapley"]:
            problems.append(f"global methods {methods}")
        for r in doc["results"]:
            total = sum(f["mean"] for f in r["features"])
            if not abs(total - 1.0) <= 1e-9:
                problems.append(f"global {r['method']}: normalized means sum to {total!r}")
        if "method: shapley" not in stdout:
            problems.append("global text output is missing")
        return problems


class ExplainTree(Workload):
    name = "explain-tree"
    expected_rows = {
        "engine.explain_instance": sum(
            SAMPLES + 3 if levels is None else levels for levels in datagen.level_counts()
        ),
        "baselines.shapley_mc": SHAPLEY_BUDGET * (len(datagen.level_counts()) + 1) + EXPLAIN_ROWS,
        "baselines.lime_surrogate": LIME_SAMPLES,
    }

    def prepare(self, workdir, seed, cli_main):
        datagen.write_classification_csv(workdir / "data.csv", EXPLAIN_ROWS, seed)
        rc = cli_main([
            "train", "--data", str(workdir / "data.csv"), "--target", datagen.TARGET,
            "--trees", str(EXPLAIN_TREES), "--depth", str(EXPLAIN_DEPTH),
            "--seed", str(seed), "--model-out", str(workdir / "model.json"),
        ])
        if rc != 0:
            raise RuntimeError(f"training the explained model exited {rc}")

    def argv(self, workdir, seed, k, opdir):
        row = (op_seed(seed, 0) + k) % EXPLAIN_ROWS
        return [
            "explain", "--model", str(workdir / "model.json"),
            "--data", str(workdir / "data.csv"), "--target", datagen.TARGET,
            "--instance", f"row:{row}", "--output-index", "1",
            "--method", "ciu,shapley,lime", "--format", "json,svg,csv",
            "--samples", str(SAMPLES), "--shapley-budget", str(SHAPLEY_BUDGET),
            "--lime-samples", str(LIME_SAMPLES), "--phi0", str(PHI0),
            "--seed", str(seed), "--output-dir", str(opdir / "reports"),
        ]

    def check(self, opdir, stdout):
        problems = []
        reports = opdir / "reports"
        doc = _report(reports / "explain_report.json", problems)
        if doc is None:
            return problems
        blocks = {b["method"]: b for b in doc["results"]}
        if sorted(blocks) != ["ciu", "lime-surrogate", "shapley-mc"]:
            return problems + [f"explain methods {sorted(blocks)}"]
        _check_ciu_of_probability(blocks["ciu"], problems)
        if not _in_unit(blocks["shapley-mc"]["intercept"]):
            problems.append("shapley intercept is not a probability")
        n_features = len(datagen.level_counts())
        csv_lines = (reports / "explain_report.csv").read_text(encoding="utf-8").splitlines()
        if len(csv_lines) != 1 + 3 * n_features:
            problems.append(f"explain csv has {len(csv_lines)} lines")
        for name in ("explain_ciu.svg", "explain_influence_ciu.svg",
                     "explain_influence_shapley.svg", "explain_influence_lime.svg"):
            text = (reports / name).read_text(encoding="utf-8")
            if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
                problems.append(f"{name} is not a complete svg document")
        return problems


class TrainTree(Workload):
    name = "train-tree"
    expected_rows = {"cli.main": round(TRAIN_ROWS * HOLDOUT)}  # the holdout score

    def prepare(self, workdir, seed, cli_main):
        datagen.write_classification_csv(workdir / "data.csv", TRAIN_ROWS, seed)

    def argv(self, workdir, seed, k, opdir):
        return [
            "train", "--data", str(workdir / "data.csv"), "--target", datagen.TARGET,
            "--trees", str(TRAIN_TREES), "--holdout", str(HOLDOUT),
            "--seed", str(op_seed(seed, k)), "--model-out", str(opdir / "model.json"),
        ]

    def check(self, opdir, stdout):
        problems = []
        m = re.search(r"holdout accuracy=([0-9.]+)", stdout)
        if m is None:
            problems.append("train printed no holdout accuracy")
        elif float(m.group(1)) < ACCURACY_FLOOR:
            problems.append(f"holdout accuracy {m.group(1)} below {ACCURACY_FLOOR}")
        doc = _report(opdir / "model.json", problems)
        if doc is None:
            return problems
        if len(doc["trees"]) != TRAIN_TREES:
            problems.append(f"model has {len(doc['trees'])} trees")
        stack = list(doc["trees"])
        while stack:
            node = stack.pop()
            if "leaf" in node:
                if not all(_in_unit(p) for p in node["leaf"]):
                    problems.append("a leaf holds a value outside [0, 1]")
                    break
            else:
                stack += [node["left"], node["right"]]
        return problems


WORKLOADS = {w.name: w for w in (GlobalAnalytic(), ExplainTree(), TrainTree())}
