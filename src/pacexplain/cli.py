"""Command line front end.

Subcommands: explain (one run), bench (aggregate over seeds), replay
(re-execute a recorded report), export-sygus (emit a SyGuS-IF instance).
Exit codes: 0 explanation found, 2 no explanation exists in the grammar,
3 budget exhausted, 1 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import __version__
from .distribution import Empirical, distribution_from_json
from .engine import (
    OUTCOME_EXPLANATION,
    OUTCOME_NO_EXPLANATION,
    ReplayError,
    RunConfig,
    explain,
    replay,
    run_report,
    write_report,
)
from .formula import render
from .model import load_dataset, load_manifest, load_model, accuracy_on
from .query import _finite_number, _loads_json, load_query
from .synthesizer import Grammar, Sample, default_grammar, export_sygus_if

log = logging.getLogger("pacexplain")

EXIT_EXPLANATION = 0
EXIT_USAGE = 1
EXIT_NO_EXPLANATION = 2
EXIT_BUDGET = 3

_OUTCOME_EXIT = {
    OUTCOME_EXPLANATION: EXIT_EXPLANATION,
    OUTCOME_NO_EXPLANATION: EXIT_NO_EXPLANATION,
}


class CliError(Exception):
    pass


def _env_float(name: str, fallback: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return float(raw)
    except ValueError:
        raise CliError(f"environment variable {name} is not a number: {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pacexplain")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_arguments(p):
        p.add_argument("--model", required=True, help="model JSON file")
        p.add_argument("--class", dest="target_class", required=True,
                       help="class label the explanation targets")
        p.add_argument("--query", default="true",
                       help="s-expression, JSON, or a file holding either")
        p.add_argument("--grammar", help="grammar JSON file")
        p.add_argument("--dataset", help="CSV dataset (names, kinds, accuracy)")
        p.add_argument("--manifest", help="dataset manifest JSON (names, kinds)")
        p.add_argument("--distribution", help="distribution JSON file or literal")
        p.add_argument("--epsilon", type=float,
                       default=_env_float("PACEXPLAIN_EPSILON", 0.05))
        p.add_argument("--delta", type=float,
                       default=_env_float("PACEXPLAIN_DELTA", 0.05))
        p.add_argument("--timeout", type=float,
                       default=_env_float("PACEXPLAIN_TIMEOUT", 300.0))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-iterations", type=int, default=100000)
        p.add_argument("--batch", type=int, default=1,
                       help="counterexamples collected per failed round")
        p.add_argument("--strategy", choices=("occam", "general"), default="occam")
        p.add_argument("--accuracy-samples", type=int, default=2000)
        p.add_argument("--out", help="write the run report JSON here")
        p.add_argument("--json", action="store_true",
                       help="print the full report instead of a summary")
        p.add_argument("-v", "--verbose", action="store_true")

    p_explain = sub.add_parser("explain", help="explain one model/query/class")
    add_run_arguments(p_explain)

    p_bench = sub.add_parser("bench", help="aggregate runs over consecutive seeds")
    add_run_arguments(p_bench)
    p_bench.add_argument("--runs", type=int, required=True)
    p_bench.add_argument("--out-dir", help="write one report per run here")

    p_replay = sub.add_parser("replay", help="re-execute a recorded report")
    p_replay.add_argument("report", help="report JSON produced by explain")
    p_replay.add_argument("-v", "--verbose", action="store_true")

    p_export = sub.add_parser("export-sygus", help="emit a SyGuS-IF v2 instance")
    p_export.add_argument("--grammar", required=True)
    p_export.add_argument("--sample", required=True,
                          help='JSON {"entries": [{"x": [...], "label": 0|1}]}')
    p_export.add_argument("--dataset", help="CSV dataset for feature names")
    p_export.add_argument("--manifest", help="manifest JSON for feature names")
    p_export.add_argument("--arity", type=int)
    p_export.add_argument("--out", help="write here instead of stdout")
    return parser


def _load_names_kinds(args):
    """Feature names/kinds and dataset from --dataset or --manifest."""
    if args.dataset and args.manifest:
        raise CliError("give --dataset or --manifest, not both")
    if args.dataset:
        data = load_dataset(args.dataset)
        return data.feature_names, data.kinds, data
    if args.manifest:
        manifest = load_manifest(args.manifest)
        return manifest["featureNames"], manifest["kinds"], None
    return None, None, None


def _load_grammar(path: str, names):
    with open(path, "r", encoding="utf-8") as fh:
        return Grammar.from_json(_loads_json(fh.read(), path), names)


def _resolve_class(model, text: str):
    if text in model.classes:
        return text
    for cast in (int, float):
        try:
            value = cast(text)
        except ValueError:
            continue
        if value in model.classes:
            return value
    raise CliError(
        f"class {text!r} is not among the model classes {list(model.classes)}"
    )


def _build_config(args):
    model = load_model(args.model)
    names, kinds, data = _load_names_kinds(args)
    if names is not None and len(names) != model.arity:
        raise CliError(
            f"dataset has {len(names)} features but the model expects {model.arity}"
        )

    if args.grammar:
        grammar = _load_grammar(args.grammar, names)
    elif kinds is not None:
        grammar = default_grammar(kinds, names)
    else:
        grammar = default_grammar(["real"] * model.arity)

    distribution = None
    if args.distribution:
        text = args.distribution
        if os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        distribution = distribution_from_json(_loads_json(text, "distribution"))
        if isinstance(distribution, Empirical):
            # the report keeps this path, and replay may run from another directory
            distribution.path = os.path.abspath(distribution.path)

    query = load_query(args.query, model.arity, names)
    target = _resolve_class(model, args.target_class)
    cfg = RunConfig(
        model=model,
        query=query,
        target_class=target,
        grammar=grammar,
        distribution=distribution,
        epsilon=args.epsilon,
        delta=args.delta,
        seed=args.seed,
        timeout=args.timeout,
        max_iterations=args.max_iterations,
        counterexample_batch=args.batch,
        strategy=args.strategy,
        accuracy_samples=args.accuracy_samples,
        feature_names=list(names) if names else None,
    )
    return cfg, data


def _outcome_exit(outcome: str) -> int:
    return _OUTCOME_EXIT.get(outcome, EXIT_BUDGET)


def _log_run(result):
    stats = result.stats
    log.debug(
        "seed %d: %s after %d iterations, %d test inputs, %d counterexamples;"
        " learner %.3fs, verifier %.3fs, wall %.3fs",
        result.config.seed,
        result.outcome,
        stats.iterations,
        stats.total_test_inputs,
        stats.counterexample_count,
        stats.learner_seconds,
        stats.verifier_seconds,
        stats.wall_seconds,
    )


def _explanation_text(result):
    """The explanation as the report shows it, named when the run has names."""
    if result.explanation is None:
        return None
    return render(result.explanation, result.config.feature_names)


def _print_summary(result, data):
    stats = result.stats
    lines = [
        f"outcome:      {result.outcome}"
        + ("" if result.certified else " (no (epsilon, delta) guarantee)"),
        f"explanation:  {_explanation_text(result)}",
        f"size:         {stats.explanation_size}",
        f"iterations:   {stats.iterations}",
        f"test inputs:  {stats.total_test_inputs}",
        f"sampled accuracy: {stats.accuracy}",
        f"time:         {stats.wall_seconds:.2f}s"
        f" (learner {stats.learner_seconds:.2f}s,"
        f" verifier {stats.verifier_seconds:.2f}s)",
    ]
    if data is not None and result.explanation is not None:
        cfg = result.config
        acc = accuracy_on(result.explanation, data, cfg.query, cfg.target_class)
        lines.append(f"dataset accuracy: {acc}")
    print("\n".join(lines))


def _cmd_explain(args) -> int:
    cfg, data = _build_config(args)
    result = explain(cfg)
    _log_run(result)
    if args.out or args.json:
        report = run_report(result)
    if args.out:
        write_report(report, args.out)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        _print_summary(result, data)
    return _outcome_exit(result.outcome)


def _cmd_bench(args) -> int:
    if args.runs < 1:
        raise CliError("--runs must be >= 1")
    cfg, data = _build_config(args)
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    rows = []
    outcomes = {}
    for k in range(args.runs):
        run_cfg = dataclasses.replace(cfg, seed=args.seed + k)
        result = explain(run_cfg)
        _log_run(result)
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        dataset_accuracy = None
        if data is not None and result.explanation is not None:
            dataset_accuracy = accuracy_on(
                result.explanation, data, run_cfg.query, run_cfg.target_class
            )
        rows.append(
            {
                "seed": run_cfg.seed,
                "outcome": result.outcome,
                "explanation": _explanation_text(result),
                "size": result.stats.explanation_size,
                "iterations": result.stats.iterations,
                "testInputs": result.stats.total_test_inputs,
                "accuracy": result.stats.accuracy,
                "datasetAccuracy": dataset_accuracy,
                "wallSeconds": result.stats.wall_seconds,
                "learnerSeconds": result.stats.learner_seconds,
                "verifierSeconds": result.stats.verifier_seconds,
            }
        )
        if args.out_dir:
            write_report(run_report(result), os.path.join(args.out_dir, f"run-{run_cfg.seed}.json"))

    def mean(key):
        values = [r[key] for r in rows if r[key] is not None]
        return sum(values) / len(values) if values else None

    measured = sum(r["learnerSeconds"] + r["verifierSeconds"] for r in rows)
    aggregate = {
        "runs": args.runs,
        "outcomes": outcomes,
        "meanSize": mean("size"),
        "meanAccuracy": mean("accuracy"),
        "meanDatasetAccuracy": mean("datasetAccuracy"),
        "meanIterations": mean("iterations"),
        "meanTestInputs": mean("testInputs"),
        "meanWallSeconds": mean("wallSeconds"),
        "learnerShare": sum(r["learnerSeconds"] for r in rows) / measured if measured else None,
        "verifierShare": sum(r["verifierSeconds"] for r in rows) / measured if measured else None,
        "perRun": rows,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(aggregate, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.json:
        print(json.dumps(aggregate, indent=2, sort_keys=True))
    else:
        print(f"runs:         {args.runs}")
        print(f"outcomes:     {outcomes}")
        for key in ("meanSize", "meanAccuracy", "meanDatasetAccuracy",
                    "meanIterations", "meanTestInputs", "meanWallSeconds",
                    "learnerShare", "verifierShare"):
            value = aggregate[key]
            shown = f"{value:.4f}" if isinstance(value, float) else value
            print(f"{key + ':':14}{shown}")
    return 0


def _cmd_replay(args) -> int:
    result = replay(args.report)
    _log_run(result)
    print(f"replayed: outcome {result.outcome} reproduced bit-for-bit")
    return _outcome_exit(result.outcome)


def _cmd_export(args) -> int:
    names, _, _ = _load_names_kinds(args)
    grammar = _load_grammar(args.grammar, names)
    with open(args.sample, "r", encoding="utf-8") as fh:
        spec = _loads_json(fh.read(), args.sample)
    entries = spec.get("entries", []) if isinstance(spec, dict) else None
    if not isinstance(entries, list):
        raise CliError(f"{args.sample}: sample JSON needs an 'entries' list")
    for entry in entries:
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("x"), list)
            and all(_finite_number(v) for v in entry["x"])
            and entry.get("label") in (0, 1)
        ):
            raise CliError(
                f"{args.sample}: each sample entry needs 'x', a list of finite numbers,"
                " and 'label', 0 or 1"
            )
    sample = Sample((entry["x"], entry["label"]) for entry in entries)
    text = export_sygus_if(sample, grammar, names, args.arity)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        # building the parser already reads the PACEXPLAIN_* defaults
        parser = build_parser()
        args = parser.parse_args(argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        # --help/--version exit 0; everything else is a usage error. argparse
        # exits 2 on those, but 2 already means no-explanation, so map it to 1.
        return 0 if exc.code == 0 else EXIT_USAGE
    level = logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    # basicConfig leaves a root logger that already has handlers alone
    log.setLevel(level)
    handlers = {
        "explain": _cmd_explain,
        "bench": _cmd_bench,
        "replay": _cmd_replay,
        "export-sygus": _cmd_export,
    }
    try:
        return handlers[args.command](args)
    except (CliError, ReplayError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
