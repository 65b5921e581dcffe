"""End-to-end acceptance checks.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single uncaptured pass/fail line so the run log shows the full
scorecard even under pytest output capture. All checks inside a criterion
are evaluated before the verdict so a failure reports every violated bound.
"""

import json
import time
import xml.etree.ElementTree as ET

import numpy as np

import ciukit as ck
from ciukit import cli
from ciukit.global_importance import normalize_importances
from conftest import LINEAR_WEIGHTS, shapley_enumerate, write_classification_csv


def _verdict(capsys, num, name, failures):
    status = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:02d}] {status} {name}")
    assert not failures, f"criterion {num:02d} ({name}): " + "; ".join(failures)


def _check(failures, ok, message):
    if not ok:
        failures.append(message)


def test_criterion_01_linear_exactness(capsys, linear_bundle):
    pred, space, util = linear_bundle
    failures = []
    start = time.perf_counter()
    exp = ck.explain_instance(pred, util, space, space.instance([0.5] * 4), n=100, rng=42)
    elapsed = time.perf_counter() - start
    _check(failures, np.allclose(exp.ci, LINEAR_WEIGHTS, atol=1e-9),
           f"ci {exp.ci} != weights within 1e-9")
    _check(failures, np.allclose(exp.cu, 0.5, atol=1e-9),
           f"cu {exp.cu} != 0.5 within 1e-9")
    _check(failures, np.allclose(exp.influence, 0.0, atol=1e-9),
           f"influence {exp.influence} != 0 within 1e-9")
    _check(failures, elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s")
    _verdict(capsys, 1, "additive predictor recovered exactly at the midpoint", failures)


def test_criterion_02_global_recovery(capsys, linear_bundle):
    pred, space, util = linear_bundle
    failures = []
    start = time.perf_counter()

    rows = ck.uniform_instances(space, 1000, ck.SeededRng(3))
    gci = ck.global_ci(pred, util, space, rows, n=100, rng=1)
    _check(failures, np.allclose(gci.mean, LINEAR_WEIGHTS, atol=1e-9),
           f"global ci mean {gci.mean}")
    # interval widths do not depend on the instance for an additive model, so
    # the per-instance spread is zero up to float rounding of the means
    _check(failures, max(gci.spread) <= 1e-12,
           f"global ci spread {gci.spread} above the rounding floor")
    again = ck.global_ci(pred, util, space, rows, n=100, rng=2)
    _check(failures, gci.mean == again.mean,
           "global ci changed across seeds despite exact endpoint probes")

    targets = pred.evaluate(rows)[:, 0]
    pfi = normalize_importances(
        ck.permutation_importance(pred, space, rows, targets, rng=4)
    )
    _check(failures, np.allclose(pfi, LINEAR_WEIGHTS, atol=0.01),
           f"normalized permutation importance {pfi}")

    shap = ck.global_mean_abs_shapley(pred, space, rows, budget=300, rng=5)
    norm = normalize_importances(shap.mean)
    _check(failures, np.allclose(norm, LINEAR_WEIGHTS, atol=0.05),
           f"normalized mean |shapley| {norm}")

    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    _verdict(capsys, 2, "three global methods recover the additive weights", failures)


def test_criterion_03_oscillatory_benchmark(capsys, nonlinear_bundle):
    pred, space, util0 = nonlinear_bundle
    failures = []
    start = time.perf_counter()
    util = ck.resolve_utility(pred, space, util0, 10000, ck.SeededRng(7))
    spec = util.spec(0)
    _check(failures, abs(spec.out_min - (-0.825)) <= 0.01,
           f"estimated lower bound {spec.out_min}")
    _check(failures, abs(spec.out_max - 2.29) <= 0.01,
           f"estimated upper bound {spec.out_max}")

    x = space.instance([0.63, 0.63, 0.59, 0.81])
    exp = ck.explain_instance(pred, util, space, x, n=1000, rng=42)
    want_ci = (0.300, 0.128, 0.321, 0.251)
    want_cu = (0.416, 0.416, 0.348, 0.202)
    want_phi = (-0.025, -0.011, -0.049, -0.075)
    _check(failures, np.allclose(exp.ci, want_ci, atol=0.01),
           f"ci {np.round(exp.ci, 4)} vs {want_ci}")
    _check(failures, np.allclose(exp.cu, want_cu, atol=0.01),
           f"cu {np.round(exp.cu, 4)} vs {want_cu}")
    _check(failures, np.allclose(exp.influence, want_phi, atol=0.01),
           f"influence {np.round(exp.influence, 4)} vs {want_phi}")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s")
    _verdict(capsys, 3, "oscillatory benchmark values reproduced", failures)


def test_criterion_04_stability_benchmark(capsys, linear_bundle):
    pred, space, util = linear_bundle
    failures = []
    start = time.perf_counter()
    x = space.instance([0.63, 0.63, 0.59, 0.81])
    budgets = ck.Budgets(ciu_samples=100, shapley_budget=200, lime_samples=1000)
    reports = {
        m: ck.run_stability(pred, util, space, x, m, runs=50, budgets=budgets, seed=42)
        for m in ck.ALL_METHODS
    }

    ciu_sd = reports[ck.METHOD_INFLUENCE].sd()
    _check(failures, (ciu_sd == 0.0).all(),
           f"influence sd {ciu_sd} not exactly zero across 50 runs")
    for m in (ck.METHOD_SHAPLEY, ck.METHOD_LIME):
        sd = reports[m].sd()
        _check(failures, (sd > 0.0).all(), f"{m} sd {sd} has a zero entry")

    bigger = ck.run_stability(
        pred, util, space, x, ck.METHOD_SHAPLEY, runs=50,
        budgets=ck.Budgets(ciu_samples=100, shapley_budget=800, lime_samples=1000),
        seed=42,
    )
    ratio = bigger.sd() / reports[ck.METHOD_SHAPLEY].sd()
    _check(failures, (ratio <= 0.75).all(),
           f"shapley sd ratio at 4x budget {np.round(ratio, 3)} exceeds 0.75")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s")
    _verdict(capsys, 4, "stability: zero influence spread, shrinking sampler spread", failures)


def test_criterion_05_shapley_correctness(capsys, linear_bundle, nonlinear_bundle):
    pred, space, _ = linear_bundle
    failures = []
    start = time.perf_counter()
    bg = ck.uniform_instances(space, 5000, ck.SeededRng(17))
    gen = np.random.Generator(np.random.PCG64(18))
    worst = 0.0
    for k in range(20):
        vals = gen.uniform(0, 1, 4)
        att = ck.shapley_mc(pred, space, space.instance(tuple(vals)), bg,
                            budget=2000, rng=k)
        # additive closed form: each feature owns w_i * (x_i - E[background_i])
        truth = np.asarray(LINEAR_WEIGHTS) * (vals - 0.5)
        worst = max(worst, float(np.max(np.abs(np.asarray(att.phi) - truth))))
    _check(failures, worst <= 0.02,
           f"worst additive-case error {worst:.4f} exceeds 0.02")

    npred, nspace, _ = nonlinear_bundle
    nbg = ck.uniform_instances(nspace, 200, ck.SeededRng(19))
    for k in range(3):
        vals = tuple(gen.uniform(0, 1, 4))
        x = nspace.instance(vals)
        exact = shapley_enumerate(npred, nspace, x, nbg)
        att = ck.shapley_mc(npred, nspace, x, nbg, budget=3000, rng=100 + k)
        gaps = np.abs(np.asarray(att.phi) - exact) / np.asarray(att.se)
        _check(failures, (gaps <= 3.0).all(),
               f"sampled estimate {gaps.round(2)} standard errors from enumeration")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    _verdict(capsys, 5, "sampled shapley matches closed form and enumeration", failures)


def test_criterion_06_instability_flag(capsys):
    space = ck.builtin_model("linear")[1]
    pred = ck.FunctionPredictor(lambda m: 1.2 * m[:, 0] + 0.05 * m[:, 1])
    util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
    failures = []
    exp = ck.explain_instance(pred, util, space, space.instance([0.5] * 4), n=100, rng=1)
    _check(failures, exp.instability[0], "feature 1 interval leaves [0, 1] but is unflagged")
    _check(failures, abs(exp.ci[0] - 1.2) <= 1e-9,
           f"ci {exp.ci[0]} was clamped; expected the raw 1.2")
    _check(failures, not exp.instability[1], "feature 2 stays inside [0, 1] but is flagged")
    _check(failures, "instability" in exp.flags(0), "flag list misses 'instability'")
    _verdict(capsys, 6, "out-of-range interval is flagged, never clamped", failures)


def test_criterion_07_degenerate_feature(capsys):
    space = ck.builtin_model("linear")[1]
    pred = ck.FunctionPredictor(lambda m: m @ np.asarray([0.5, 0.3, 0.2, 0.0]))
    util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
    failures = []
    exp = ck.explain_instance(pred, util, space, space.instance([0.5] * 4), n=100, rng=1)
    ci, cu, phi = exp.ci[3], exp.cu[3], exp.influence[3]
    _check(failures, ci == 0.0 and cu == 0.0 and phi == 0.0,
           f"ignored feature reported ci={ci} cu={cu} influence={phi}")
    _check(failures, exp.degenerate[3] and "degenerate" in exp.flags(3),
           "collapsed interval not flagged degenerate")
    _check(failures, not any(exp.degenerate[:3]),
           "a live feature was flagged degenerate")
    _verdict(capsys, 7, "ignored feature collapses to zero with a degenerate flag", failures)


def test_criterion_08_rank_agreement(capsys, nonlinear_resolved):
    pred, space, util = nonlinear_resolved
    failures = []
    want = [2, 0, 3, 1]  # x3 > x1 > x4 > x2 by reachable output interval

    rows = ck.uniform_instances(space, 300, ck.SeededRng(5))
    gci = ck.global_ci(pred, util, space, rows, n=200, rng=6)
    _check(failures, list(np.argsort(gci.mean)[::-1]) == want,
           f"global ci ranking {list(np.argsort(gci.mean)[::-1])}")

    big = ck.uniform_instances(space, 1000, ck.SeededRng(8))
    targets = pred.evaluate(big)[:, 0]
    pfi = ck.permutation_importance(pred, space, big, targets, rng=9)
    _check(failures, list(np.argsort(pfi)[::-1]) == want,
           f"permutation importance ranking {list(np.argsort(pfi)[::-1])}")

    shap = ck.global_mean_abs_shapley(pred, space, rows, budget=200, rng=10)
    _check(failures, list(np.argsort(shap.mean)[::-1]) == want,
           f"mean |shapley| ranking {list(np.argsort(shap.mean)[::-1])}")
    _verdict(capsys, 8, "all global methods rank the oscillatory features alike", failures)


def test_criterion_09_cli_determinism(capsys, tmp_path):
    failures = []
    dirs = (tmp_path / "first", tmp_path / "second")
    for d in dirs:
        code = cli.main([
            "explain", "--predictor", "nonlinear",
            "--instance", "[0.63, 0.63, 0.59, 0.81]",
            "--method", "ciu,shapley,lime",
            "--output-dir", str(d), "--format", "json,svg,csv",
        ])
        _check(failures, code == 0, f"cli exited {code}")
    names = sorted(p.name for p in dirs[0].iterdir())
    _check(failures, "explain_report.json" in names and "explain_ciu.svg" in names,
           f"missing report files, got {names}")
    for name in names:
        a, b = (d / name for d in dirs)
        _check(failures, a.read_bytes() == b.read_bytes(), f"{name} differs between runs")
    _verdict(capsys, 9, "repeated cli runs write byte-identical reports", failures)


def test_criterion_10_train_and_explain_flow(capsys, tmp_path):
    failures = []
    start = time.perf_counter()
    data = tmp_path / "credit.csv"
    write_classification_csv(data, n=500, seed=7, margin=0.15)
    model = tmp_path / "model.json"

    code = cli.main([
        "train", "--data", str(data), "--target", "label",
        "--model-out", str(model),
    ])
    _check(failures, code == 0, f"train exited {code}")
    message = capsys.readouterr().out
    score = float(message.split("accuracy=")[1].split(" ")[0]) if "accuracy=" in message else 0.0
    _check(failures, score >= 0.9, f"holdout accuracy {score} below 0.9")

    out = tmp_path / "reports"
    code = cli.main([
        "explain", "--model", str(model), "--data", str(data), "--target", "label",
        "--instance", "row:0", "--method", "ciu,shapley,lime",
        "--output-index", "1", "--output-dir", str(out),
        "--format", "json,svg,text",
    ])
    _check(failures, code == 0, f"explain exited {code}")
    doc = json.loads((out / "explain_report.json").read_text())
    ciu = doc["results"][0]
    for f in ciu["features"]:
        _check(failures, 0.0 <= f["ci"] <= 1.0 and 0.0 <= f["cu"] <= 1.0,
               f"{f['name']}: ci={f['ci']} cu={f['cu']} outside [0, 1]")
        _check(failures, "instability" not in f["flags"],
               f"{f['name']} flagged instability on a probability output")

    code = cli.main([
        "whatif", "--model", str(model), "--data", str(data), "--target", "label",
        "--instance", "row:0", "--feature", "a", "--output-index", "1",
        "--output-dir", str(out), "--format", "json,svg",
    ])
    _check(failures, code == 0, f"whatif exited {code}")

    for name in ("explain_ciu.svg", "explain_influence_ciu.svg",
                 "explain_influence_shapley.svg", "explain_influence_lime.svg",
                 "whatif_a.svg"):
        path = out / name
        if not path.exists():
            failures.append(f"{name} was not written")
            continue
        try:
            ET.fromstring(path.read_text())
        except ET.ParseError as e:
            failures.append(f"{name} is not well-formed: {e}")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s")
    _verdict(capsys, 10, "csv -> train -> explain -> what-if round trip", failures)
