"""Command-line interface.

Subcommands: explain, global, whatif, stability, train. Exit codes:
0 success, 2 configuration or usage problems, 3 runtime or model errors.

Reports are byte-stable: the same invocation with the same seed writes
identical JSON, CSV, and SVG files. Only this module reads the clock: it
times each result block and adds the seconds to the reports only when
--timings asks for them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import partial
from pathlib import Path

from .core import (
    ConfigError,
    ExplainerError,
    Instance,
    OutputUtility,
    builtin_model,
    load_config,
)
from .baselines import lime_surrogate, shapley_mc
from .engine import ceteris_paribus_curve, check_phi0, explain_instance, resolve_utility
from .global_importance import GLOBAL_METHODS, run_global
from .render import (
    render_ciu_barplot,
    render_cp_plot,
    render_influence_barplot,
    render_spread_plot,
    text_ciu_bars,
    text_influence_bars,
)
from .sampling import SeededRng, uniform_instances
from .stability import ALL_METHODS, Budgets, run_stability, stability_csv, summarize
from .tabular import (
    TreeParams,
    accuracy,
    holdout_split,
    load_csv,
    load_model,
    save_model,
    train_ensemble,
)

# The report formats each subcommand writes.
_FORMATS = {
    "explain": ("json", "svg", "text", "csv"),
    "global": ("json", "text", "csv"),
    "whatif": ("json", "svg", "text"),
    "stability": ("json", "svg", "text", "csv"),
}
_EXPLAIN_METHODS = ("ciu", "shapley", "lime")

# The options more than one subcommand reads. Each subcommand declares only
# the ones its cmd_* reads, so a flag it would ignore is a usage error.
_OPTIONS = {
    "predictor": dict(choices=("linear", "nonlinear"), help="builtin predictor"),
    "model": dict(help="trained model JSON file"),
    "config": dict(help="feature-space and output-utility JSON file"),
    "data": dict(help="CSV dataset (instances, background, targets)"),
    "target": dict(help="target column name in --data"),
    "seed": dict(type=int, default=42, help="base random seed"),
    "output-dir": dict(default=".", help="directory for report files"),
    "output-index": dict(type=int, default=0, help="model output to explain"),
    "phi0": dict(type=float, default=0.5, help="neutral utility level"),
    "samples": dict(type=int, default=100, help="per-feature sample count"),
    "shapley-budget": dict(type=int, default=200, help="shapley permutation walks"),
    "lime-samples": dict(type=int, default=1000, help="surrogate perturbation count"),
    "range-budget": dict(
        type=int, default=10000,
        help="sampling budget for estimating an undeclared output range",
    ),
    "timings": dict(
        action="store_true",
        help="add each result block's wall-clock seconds to the JSON reports "
        "and the stability text (breaks byte-stability)",
    ),
    "instance": dict(required=True, help="JSON values, or row:K into --data"),
}


def _subcommand(sub, name: str, func, summary: str, options: str) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=summary)
    for option in options.split():
        p.add_argument(f"--{option}", **_OPTIONS[option])
    if name in _FORMATS:
        p.add_argument(
            "--format", default="json,text",
            help=f"comma-separated outputs from {_FORMATS[name]}",
        )
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ciukit",
        description="Explain black-box predictions: contextual importance/utility, "
        "influence baselines, what-if curves, stability benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every subcommand that writes reports, and of those that
    # attribute one instance's output with every method
    reporting = "predictor model config data target seed output-dir output-index range-budget"
    attributing = f"{reporting} instance phi0 samples shapley-budget lime-samples timings"

    p = _subcommand(sub, "explain", cmd_explain, "explain one instance", attributing)
    p.add_argument("--method", default="ciu", help=f"comma list from {_EXPLAIN_METHODS}")

    p = _subcommand(
        sub, "global", cmd_global, "dataset-level importance",
        f"{reporting} samples shapley-budget timings",
    )
    p.add_argument(
        "--methods",
        default=None,
        help=f"comma list from {GLOBAL_METHODS}; default ci,pfi-mae,shapley "
        "(pfi-ce instead of pfi-mae for classification data)",
    )
    p.add_argument("--iterations", type=int, default=5, help="importance repetitions")
    p.add_argument("--instances", type=int, default=200, help="instances per iteration")

    p = _subcommand(
        sub, "whatif", cmd_whatif, "single-feature sweep curves", f"{reporting} instance phi0"
    )
    p.add_argument("--feature", required=True, help="comma list of numeric feature names")
    p.add_argument("--grid", type=int, default=101, help="sweep resolution")

    p = _subcommand(
        sub, "stability", cmd_stability, "seed-to-seed attribution spread", attributing
    )
    p.add_argument(
        "--methods", default=",".join(ALL_METHODS), help=f"comma list from {ALL_METHODS}"
    )
    p.add_argument("--runs", type=int, default=50, help="seeded runs per method")

    p = _subcommand(sub, "train", cmd_train, "fit a bagged tree ensemble on CSV data", "seed")
    p.add_argument("--data", required=True, help="training CSV")
    p.add_argument("--target", required=True, help="target column name")
    p.add_argument("--model-out", required=True, help="where to write the model JSON")
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--min-leaf", type=int, default=1)
    p.add_argument("--holdout", type=float, default=0.25, help="test fraction")

    return parser


def _formats(args) -> set[str]:
    allowed = _FORMATS[args.command]
    chosen = {f.strip() for f in args.format.split(",") if f.strip()}
    bad = chosen - set(allowed)
    if bad:
        raise ConfigError(f"unknown format(s) {sorted(bad)}; use {allowed}")
    if not chosen:
        raise ConfigError("at least one output format is required")
    return chosen


def _snapshot(args) -> dict:
    """Computation-affecting settings only; file layout choices stay out so
    reruns into different directories stay byte-identical."""
    skip = {"func", "output_dir", "timings"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _timed(args, compute):
    """Run ``compute()`` and return its result with the result's JSON block;
    under --timings the block gets the seconds it took as ``elapsed``."""
    start = time.perf_counter()
    result = compute()
    block = result.to_json_dict()
    if args.timings:
        block["elapsed"] = time.perf_counter() - start
    return result, block


def _write(args, formats: set[str], files: dict, text: str) -> None:
    """Write each file whose suffix is a chosen format into --output-dir,
    then print ``text`` if text is chosen.

    A .json file's content is its report's ``results``, wrapped here with
    the command and its config; a .csv file's is its rows; an .svg file's
    is its text. A callable content is called to make it, only when its
    file is written.
    """
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        suffix = name.rsplit(".", 1)[1]
        if suffix not in formats:
            continue
        if callable(content):
            content = content()
        with open(out / name, "w", encoding="utf-8", newline="") as fh:
            if suffix == "json":
                report = {"command": args.command, "config": _snapshot(args), "results": content}
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            elif suffix == "svg":
                fh.write(content)
            else:
                csv.writer(fh, lineterminator="\n").writerows(content)
    if "text" in formats:
        print(text)


def _setup(args):
    """Resolve (predictor, space, utility, dataset) from the source flags.

    ``--data`` is read against the resolved feature space, matching its
    columns to the features by name, and a classifier's target labels are
    decoded through the model's class names.
    """
    if args.data and not args.target:
        raise ConfigError("--data needs --target to name the label column")
    if args.predictor and args.model:
        raise ConfigError("pass either --predictor or --model, not both")
    utility = None
    class_names = ()
    if args.predictor:
        predictor, space, utility = builtin_model(args.predictor)
        if args.config:
            config_space, utility = load_config(args.config)
            # Features may be renamed or rebounded, but the function reads them by position.
            if len(config_space) != len(space):
                raise ConfigError(
                    f"--config declares {len(config_space)} features; "
                    f"the {args.predictor} predictor reads {len(space)}"
                )
            space = config_space
    elif args.model:
        if args.config:
            config_space, utility = load_config(args.config)
        predictor = load_model(args.model)
        space = predictor.space
        if args.config and config_space != space:
            raise ConfigError(f"--config declares other features than model {args.model}")
        class_names = predictor.class_names
    else:
        raise ConfigError("a predictor source is required: --predictor or --model")
    dataset = load_csv(args.data, args.target, space, class_names) if args.data else None
    if utility is None:
        if predictor.task == "classification":
            utility = OutputUtility.classification(predictor.class_names)
        elif dataset is not None:
            utility = dataset.utility()
        else:
            utility = OutputUtility.single("y")
    utility = resolve_utility(
        predictor, space, utility, args.range_budget, SeededRng(args.seed).spawn(900)
    )
    utility.spec(args.output_index)  # the one check of --output-index
    return predictor, space, utility, dataset


def _parse_instance(args, space, dataset) -> Instance:
    text = args.instance
    if text.startswith("row:"):
        if dataset is None:
            raise ConfigError("row:K instances need --data")
        try:
            k = int(text[4:])
        except ValueError:
            raise ConfigError(f"bad row index in {text!r}") from None
        if not 0 <= k < len(dataset):
            raise ConfigError(f"row {k} out of range (dataset has {len(dataset)} rows)")
        return dataset.rows[k]
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise ConfigError(f"--instance must be JSON or row:K, got {text!r}") from None
    if isinstance(doc, dict):
        missing = [n for n in space.names if n not in doc]
        if missing:
            raise ConfigError(f"instance is missing features: {missing}")
        unknown = [k for k in doc if k not in space.names]
        if unknown:
            raise ConfigError(f"instance names unknown features: {unknown}")
        return space.instance([doc[n] for n in space.names])
    if isinstance(doc, list):
        return space.instance(doc)
    raise ConfigError("--instance JSON must be a list or an object")


def _names_list(text: str, allowed=None, kind: str = "method") -> list[str]:
    """The distinct names in the comma list ``text``, in first-mention order."""
    names = list(dict.fromkeys(m.strip() for m in text.split(",") if m.strip()))
    if not names:
        raise ConfigError(f"at least one {kind} is required")
    for m in names:
        if allowed is not None and m not in allowed:
            raise ConfigError(f"unknown {kind} {m!r}; use one of {allowed}")
    return names


def _background(dataset, space, rng):
    if dataset is not None:
        return dataset.rows
    return uniform_instances(space, 200, rng)


def cmd_explain(args) -> None:
    formats = _formats(args)
    check_phi0(args.phi0)  # also when no method reads it: the snapshot records it
    predictor, space, utility, dataset = _setup(args)
    methods = _names_list(args.method, _EXPLAIN_METHODS)
    x = _parse_instance(args, space, dataset)
    base = SeededRng(args.seed)

    blocks = []
    rows = [["method", "feature", "influence", "ci", "cu", "ymin", "ymax", "flags"]]
    files = {"explain_report.json": blocks, "explain_report.csv": rows}
    texts = []
    for method in methods:
        limit = None
        if method == "ciu":
            result, block = _timed(args, lambda: explain_instance(
                predictor, utility, space, x,
                args.output_index, args.samples, args.phi0, base,
            ))
            files["explain_ciu.svg"] = partial(render_ciu_barplot, result)
            texts.append(text_ciu_bars(result))
            phi, title = result.influence, "Contextual influence"
            limit = max(args.phi0, 1.0 - args.phi0)
        elif method == "shapley":
            result, block = _timed(args, lambda: shapley_mc(
                predictor, space, x, _background(dataset, space, base.spawn(903)),
                args.shapley_budget, base.spawn(901), args.output_index,
            ))
            phi, title = result.phi, "Shapley attribution"
        else:
            result, block = _timed(args, lambda: lime_surrogate(
                predictor, space, x, args.lime_samples,
                rng=base.spawn(902), output=args.output_index,
            ))
            phi, title = result.phi, "Surrogate attribution"
        files[f"explain_influence_{method}.svg"] = partial(
            render_influence_barplot, result.feature_names, phi, x.values, title=title, limit=limit
        )
        texts.append(text_influence_bars(result.feature_names, phi, method))
        blocks.append(block)
        for f in block["features"]:
            rows.append(
                [block["method"], f["name"], repr(f["influence"])]
                + [repr(f[key]) if key in f else "" for key in ("ci", "cu", "ymin", "ymax")]
                + [" ".join(f.get("flags", []))]
            )
    _write(args, formats, files, "\n\n".join(texts))


# A fixed stream per global method, so its numbers do not depend on its place
# in --methods; each id is the method's place in the default lists.
_GLOBAL_STREAMS = {"ci": 0, "pfi-mae": 1, "pfi-ce": 1, "shapley": 2}


def cmd_global(args) -> None:
    formats = _formats(args)
    predictor, space, utility, dataset = _setup(args)
    classification = dataset is not None and dataset.task == "classification"
    if args.methods is None:
        args.methods = "ci,pfi-ce,shapley" if classification else "ci,pfi-mae,shapley"
    methods = _names_list(args.methods, GLOBAL_METHODS)
    base = SeededRng(args.seed)

    rows, targets = (None, None) if dataset is None else (dataset.rows, dataset.target)
    blocks = []
    table = [["method", "feature", "mean", "spread"]]
    lines = []
    width = max(len(n) for n in space.names)
    for method in methods:
        method_targets = targets
        if classification and method == "pfi-mae":
            # P(class output-index) against that class's indicator, not the class index
            method_targets = [float(t == args.output_index) for t in targets]
        g, block = _timed(args, lambda: run_global(
            predictor, utility, space, method,
            iterations=args.iterations,
            instances_per_iteration=args.instances,
            rng=base.spawn(_GLOBAL_STREAMS[method]),
            rows=rows,
            targets=method_targets,
            n=args.samples,
            budget=args.shapley_budget,
            output=args.output_index,
        ))
        blocks.append(block)
        lines.append(f"method: {g.method} (normalized, {g.n_iterations} iterations)")
        for name, m, s in zip(g.feature_names, g.mean, g.spread):
            table.append([g.method, name, repr(m), repr(s)])
            lines.append(f"  {name:<{width}} {m:.4f} +/- {s:.4f}")
    _write(args, formats, {"global_report.json": blocks, "global_report.csv": table},
           "\n".join(lines))


def cmd_whatif(args) -> None:
    formats = _formats(args)
    predictor, space, utility, dataset = _setup(args)
    x = _parse_instance(args, space, dataset)
    spec = utility.spec(args.output_index)
    blocks = []
    files = {"whatif_report.json": blocks}
    lines = []
    for name in _names_list(args.feature, kind="feature name"):
        curve = ceteris_paribus_curve(
            predictor, space, x, space.index(name), args.grid, args.output_index, args.phi0
        )
        blocks.append(curve.to_json_dict())
        files[f"whatif_{name}.svg"] = partial(render_cp_plot, curve, (spec.out_min, spec.out_max))
        lines.append(
            f"{name}: y in [{curve.ymin:.4f}, {curve.ymax:.4f}] across the sweep; "
            f"y={curve.y_value:.4f} at {name}={curve.x_value:g}; "
            f"neutral level {curve.y_u0:.4f}"
        )
    _write(args, formats, files, "\n".join(lines))


def cmd_stability(args) -> None:
    formats = _formats(args)
    predictor, space, utility, dataset = _setup(args)
    methods = _names_list(args.methods, ALL_METHODS)
    x = _parse_instance(args, space, dataset)
    budgets = Budgets(args.samples, args.shapley_budget, args.lime_samples)
    background = dataset.rows if dataset is not None else None
    files = {}
    texts = []
    for method in methods:
        rep, block = _timed(args, lambda: run_stability(
            predictor, utility, space, x, method,
            runs=args.runs, budgets=budgets,
            seed=args.seed, phi0=args.phi0, output=args.output_index,
            background=background,
        ))
        tag = rep.method.replace("-", "_")
        files[f"stability_{tag}.json"] = block
        files[f"stability_{tag}.csv"] = partial(stability_csv, rep)
        files[f"stability_{tag}.svg"] = partial(render_spread_plot, rep)
        text = summarize(rep)
        if args.timings:
            elapsed = block["elapsed"]
            text += f"\nelapsed: total {elapsed:.3f}s, per run {elapsed / rep.n_runs:.4f}s"
        texts.append(text + "\n")
    _write(args, formats, files, "\n".join(texts))


def cmd_train(args) -> None:
    dataset = load_csv(args.data, args.target)
    train, test = holdout_split(dataset, args.holdout, SeededRng(args.seed).spawn(1))
    params = TreeParams(args.trees, args.depth, args.min_leaf)
    model = train_ensemble(train, params, SeededRng(args.seed).spawn(2))
    save_model(args.model_out, model)
    score = accuracy(model, test)
    metric = "accuracy" if dataset.task == "classification" else "r2"
    print(
        f"trained {params.n_trees} trees on {len(train)} rows; "
        f"holdout {metric}={score:.4f} on {len(test)} rows; "
        f"model written to {args.model_out}"
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        args.func(args)
        return 0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ExplainerError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy names the allocation it could not make
        print(f"error: out of memory: {e}".rstrip(": "), file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
