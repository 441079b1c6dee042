"""The explanation engine: synthesize, verify, refine.

Each round synthesizes the least candidate consistent with the accumulated
counterexamples and hands it to the statistical verifier. A verified
candidate is returned as a certified explanation; a refuted one contributes
fresh counterexamples; an exhausted grammar class means no explanation
exists in it. Budget exhaustion (wall-clock or iteration cap) reports the
last conjecture with a sampled accuracy estimate that carries no
(epsilon, delta) guarantee.

Reproducibility: a run's randomness comes from PCG64 streams spawned from
the seed in a fixed layout (a reserved unused stream, the verify loop,
post-run estimation), so equal configurations and seeds produce bit-equal
results. Wall-clock timings are the only nondeterministic report
fields, and timeout-triggered budget stops naturally depend on them.
"""

from __future__ import annotations

import datetime
import json
import time
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import __version__
from .distribution import Distribution, default_distribution, distribution_from_json
# `evaluate` stays importable here: bench/tracing.py wraps it in this module
from .formula import Formula, compare, evaluate, render, size  # noqa: F401
from .model import Model, model_from_json
from .query import Query, _loads_json, query_from_json
# `synthesize` and `synthesize_general` stay importable here: bench/tracing.py
# wraps them in this module
from .synthesizer import (  # noqa: F401
    GeneralLearner,
    Grammar,
    OccamLearner,
    Sample,
    SynthesisDeadlineError,
    synthesize,
    synthesize_general,
)
from .verifier import Draws, estimate_query_accuracy, verify

OUTCOME_EXPLANATION = "explanation"
OUTCOME_NO_EXPLANATION = "no-explanation"
OUTCOME_BUDGET_TIMEOUT = "budget-timeout"
OUTCOME_BUDGET_ITERATIONS = "budget-iteration-cap"

# a run warns when a smaller share of its draws lands in the query region
_MIN_QUERY_COVERAGE = 0.01

# each run keeps one learner, fed the counterexamples of every round
LEARNERS = {"occam": OccamLearner, "general": GeneralLearner}

# Distributions are never changed after construction, so runs over the same
# feature kinds share one default distribution instead of building it anew.
_shared_default_distribution = lru_cache(maxsize=64)(default_distribution)


class EngineError(RuntimeError):
    pass


class EngineInvariantError(EngineError):
    pass


class ReplayError(RuntimeError):
    pass


class ReplayMismatchError(ReplayError):
    pass


class LowQueryCoverageWarning(UserWarning):
    pass


@dataclass
class RunConfig:
    model: Model
    query: Query
    target_class: object
    grammar: Grammar
    distribution: Optional[Distribution] = None
    epsilon: float = 0.05
    delta: float = 0.05
    seed: int = 0
    timeout: float = 300.0
    max_iterations: int = 100000
    counterexample_batch: int = 1
    strategy: str = "occam"
    accuracy_samples: int = 2000
    feature_names: Optional[list] = None


@dataclass(frozen=True)
class IterationRecord:
    index: int
    conjecture: Formula
    suite_size: int
    tested: int
    counterexamples: tuple


@dataclass
class RunStats:
    iterations: int = 0
    total_test_inputs: int = 0
    counterexample_count: int = 0
    explanation_size: Optional[int] = None
    accuracy: Optional[float] = None
    accuracy_support: int = 0
    learner_seconds: float = 0.0
    update_seconds: float = 0.0  # adding counterexamples to the sample and the learner
    verifier_seconds: float = 0.0
    wall_seconds: float = 0.0


@dataclass
class RunResult:
    outcome: str
    explanation: Optional[Formula]
    certified: bool
    stats: RunStats
    trace: list
    sample_entries: list
    config: RunConfig


def _validate_config(cfg: RunConfig):
    if not 0.0 < cfg.epsilon < 1.0 or not 0.0 < cfg.delta < 1.0:
        raise ValueError("epsilon and delta must lie in (0, 1)")
    if not cfg.timeout > 0:  # also a NaN, which no deadline would ever pass
        raise ValueError("timeout must be positive")
    if cfg.max_iterations < 1:
        raise ValueError("max_iterations must be >= 1")
    if cfg.counterexample_batch < 1:
        raise ValueError("counterexample_batch must be >= 1")
    if cfg.accuracy_samples < 0:
        raise ValueError("accuracy_samples must be >= 0")
    if cfg.strategy not in LEARNERS:
        raise ValueError(f"strategy must be one of {tuple(LEARNERS)}")
    if cfg.strategy == "general" and not cfg.grammar.include_constants:
        raise ValueError(
            "the general strategy needs a grammar with constants: it starts"
            " from the cover of the empty sample, false"
        )
    arity = cfg.model.arity
    if cfg.query.arity not in (0, arity):
        raise ValueError(
            f"query arity {cfg.query.arity} does not match model arity {arity}"
        )
    for f in cfg.grammar.features:
        if f.index >= arity:
            raise ValueError(f"grammar feature index {f.index} exceeds model arity")
    if cfg.distribution is not None and cfg.distribution.arity != arity:
        raise ValueError(
            f"distribution arity {cfg.distribution.arity} does not match model arity"
        )
    if cfg.target_class not in cfg.model.classes:
        raise ValueError(
            f"target class {cfg.target_class!r} is not among the model classes"
        )


def explain(cfg: RunConfig) -> RunResult:
    _validate_config(cfg)
    dist = cfg.distribution
    if dist is None:
        kinds = {f.index: f.kind for f in cfg.grammar.features}
        dist = _shared_default_distribution(
            tuple(kinds.get(j, "real") for j in range(cfg.model.arity))
        )

    def stream(child: int) -> Draws:
        # child `child` of SeedSequence(seed).spawn(3), built alone; child 0
        # is reserved and unused, which keeps recorded reports' seeds
        seq = np.random.SeedSequence(cfg.seed, spawn_key=(child,))
        rng = np.random.Generator(np.random.PCG64(seq))
        return Draws(dist, rng, cfg.query, cfg.model, cfg.target_class)

    draws = stream(1)
    in_region = 0

    sample = Sample()
    learner = LEARNERS[cfg.strategy](cfg.grammar)
    trace = []
    stats = RunStats()
    start = time.perf_counter()
    deadline = start + cfg.timeout
    hard_deadline = start + 2.0 * cfg.timeout
    conjecture: Optional[Formula] = None
    outcome = None
    iteration = 0

    while True:
        if time.perf_counter() >= deadline:
            outcome = OUTCOME_BUDGET_TIMEOUT
            break
        t0 = time.perf_counter()
        try:
            candidate = learner.next(hard_deadline)
        except SynthesisDeadlineError:
            stats.learner_seconds += time.perf_counter() - t0
            outcome = OUTCOME_BUDGET_TIMEOUT
            break
        stats.learner_seconds += time.perf_counter() - t0

        if candidate is None:
            if cfg.strategy != "occam":
                # The cover heuristic is incomplete, so coming up empty is a
                # bounds problem, not a proof that the class has no member.
                raise EngineError(
                    "general strategy could not cover the sample within the"
                    " grammar bounds; raise maxClauses/maxLiteralsPerClause"
                    " or use the occam strategy"
                )
            outcome = OUTCOME_NO_EXPLANATION
            conjecture = None
            break
        if (
            cfg.strategy == "occam"
            and conjecture is not None
            and compare(conjecture, candidate) != -1
        ):
            raise EngineInvariantError(
                f"conjecture order violated: {render(conjecture)} !< {render(candidate)}"
            )
        conjecture = candidate

        if time.perf_counter() >= deadline:
            outcome = OUTCOME_BUDGET_TIMEOUT
            break
        if iteration + 1 > cfg.max_iterations:
            outcome = OUTCOME_BUDGET_ITERATIONS
            break
        iteration += 1

        t0 = time.perf_counter()
        result = verify(
            conjecture,
            draws,
            cfg.epsilon,
            cfg.delta,
            iteration,
            batch_limit=cfg.counterexample_batch,
        )
        stats.verifier_seconds += time.perf_counter() - t0
        stats.total_test_inputs += result.tested_count
        in_region += result.in_region_count
        trace.append(
            IterationRecord(
                index=iteration,
                conjecture=conjecture,
                suite_size=result.suite_size,
                tested=result.tested_count,
                counterexamples=result.counterexamples,
            )
        )
        if result.passed:
            outcome = OUTCOME_EXPLANATION
            break
        t0 = time.perf_counter()
        for x, label in result.counterexamples:
            if not sample.add(x, label):
                raise EngineInvariantError(
                    f"counterexample {x} was already in the sample"
                )
            learner.add(x, label)
        stats.update_seconds += time.perf_counter() - t0

    stats.iterations = iteration
    stats.counterexample_count = len(sample)
    drawn = stats.total_test_inputs
    certified = outcome == OUTCOME_EXPLANATION
    explanation = conjecture if outcome != OUTCOME_NO_EXPLANATION else None
    if explanation is not None:
        stats.explanation_size = size(explanation)
        if cfg.accuracy_samples > 0:
            accuracy, support, estimate_draws = estimate_query_accuracy(
                explanation, stream(2), cfg.accuracy_samples
            )
            stats.accuracy = accuracy
            stats.accuracy_support = support
            drawn += estimate_draws
            in_region += support
    if drawn and in_region < _MIN_QUERY_COVERAGE * drawn:
        warnings.warn(
            f"query region captured {in_region}/{drawn} draws;"
            " verification rarely exercised it",
            LowQueryCoverageWarning,
            stacklevel=2,
        )
    stats.wall_seconds = time.perf_counter() - start
    return RunResult(
        outcome=outcome,
        explanation=explanation,
        certified=certified,
        stats=stats,
        trace=trace,
        sample_entries=sample.entries,
        config=cfg,
    )


# --- reports and replay -------------------------------------------------------

VOLATILE_STAT_KEYS = (
    "learnerSeconds",
    "updateSeconds",
    "verifierSeconds",
    "wallSeconds",
    "learnerShare",
    "verifierShare",
)


def run_report(result: RunResult) -> dict:
    cfg = result.config
    names = cfg.feature_names
    stats = result.stats
    measured = stats.learner_seconds + stats.verifier_seconds
    report = {
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "seed": cfg.seed,
        "outcome": result.outcome,
        "certified": result.certified,
        "explanation": render(result.explanation) if result.explanation else None,
        "stats": {
            "iterations": stats.iterations,
            "testInputs": stats.total_test_inputs,
            "counterexamples": stats.counterexample_count,
            "size": stats.explanation_size,
            "accuracy": stats.accuracy,
            "accuracySupport": stats.accuracy_support,
            "learnerSeconds": stats.learner_seconds,
            "updateSeconds": stats.update_seconds,
            "verifierSeconds": stats.verifier_seconds,
            "wallSeconds": stats.wall_seconds,
            "learnerShare": stats.learner_seconds / measured if measured else None,
            "verifierShare": stats.verifier_seconds / measured if measured else None,
        },
        "config": {
            "model": cfg.model.to_json(),
            "query": cfg.query.to_json(),
            "targetClass": cfg.target_class,
            "grammar": cfg.grammar.to_json(),
            "distribution": (
                cfg.distribution.to_json() if cfg.distribution is not None else None
            ),
            "epsilon": cfg.epsilon,
            "delta": cfg.delta,
            "timeout": cfg.timeout,
            "maxIterations": cfg.max_iterations,
            "counterexampleBatch": cfg.counterexample_batch,
            "strategy": cfg.strategy,
            "accuracySamples": cfg.accuracy_samples,
            "featureNames": list(names) if names else None,
        },
        "trace": [
            {
                "iteration": rec.index,
                "conjecture": render(rec.conjecture),
                "suiteSize": rec.suite_size,
                "tested": rec.tested,
                "counterexamples": [
                    {"x": list(x), "label": label} for x, label in rec.counterexamples
                ],
            }
            for rec in result.trace
        ],
        "sample": [{"x": list(x), "label": label} for x, label in result.sample_entries],
    }
    if names and result.explanation is not None:
        report["explanationNamed"] = render(result.explanation, names)
    return report


def stable_report(report: dict) -> dict:
    """Report copy with the declared volatile fields removed."""
    out = dict(report)
    out.pop("timestamp", None)
    if "stats" in out:
        out["stats"] = {k: v for k, v in out["stats"].items() if k not in VOLATILE_STAT_KEYS}
    return out


def write_report(report: dict, path: str):
    """Write the report as JSON, or raise ValueError if it nests too deeply."""
    try:
        text = json.dumps(report, indent=2, sort_keys=True)
    except RecursionError:
        raise ValueError(f"{path}: report nested too deeply to write") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def config_from_report(config: dict, seed: int) -> RunConfig:
    model = model_from_json(config["model"])
    names = config.get("featureNames")
    query = query_from_json(config["query"], model.arity, names)
    grammar = Grammar.from_json(config["grammar"])
    dist_spec = config.get("distribution")
    distribution = distribution_from_json(dist_spec) if dist_spec else None
    target = config["targetClass"]
    return RunConfig(
        model=model,
        query=query,
        target_class=target,
        grammar=grammar,
        distribution=distribution,
        epsilon=config["epsilon"],
        delta=config["delta"],
        seed=seed,
        timeout=config["timeout"],
        max_iterations=config["maxIterations"],
        counterexample_batch=config["counterexampleBatch"],
        strategy=config.get("strategy", "occam"),
        accuracy_samples=config.get("accuracySamples", 0),
        feature_names=names,
    )


def replay(path: str) -> RunResult:
    """Re-run a recorded report and check bit-for-bit agreement.

    Deterministic for runs that ended with an explanation, no-explanation,
    or the iteration cap; wall-clock timeouts cannot replay exactly and
    raise ReplayMismatchError when they diverge.
    """
    with open(path, "r", encoding="utf-8") as fh:
        recorded = _loads_json(fh.read(), path)
    if recorded.get("version") != __version__:
        raise ReplayError(
            f"report version {recorded.get('version')!r} does not match {__version__!r}"
        )
    cfg = config_from_report(recorded["config"], recorded["seed"])
    result = explain(cfg)
    fresh = run_report(result)
    if stable_report(fresh) != stable_report(recorded):
        raise ReplayMismatchError("replayed run differs from the recorded report")
    return result
