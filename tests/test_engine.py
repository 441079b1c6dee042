"""End-to-end engine behavior on the zoo tree: certified runs, reports,
replay, budgets, and the trace invariant checker."""

import dataclasses
import gc
import inspect
import json
import time
import warnings

import pytest

from pacexplain import (
    CosineBall,
    EngineError,
    EngineInvariantError,
    FormulaQuery,
    Grammar,
    LowQueryCoverageWarning,
    OUTCOME_BUDGET_ITERATIONS,
    OUTCOME_BUDGET_TIMEOUT,
    OUTCOME_EXPLANATION,
    OUTCOME_NO_EXPLANATION,
    Or,
    ReplayError,
    ReplayMismatchError,
    RunConfig,
    SynthesisDeadlineError,
    TrueQuery,
    UniformBox,
    config_from_report,
    default_distribution,
    default_grammar,
    explain,
    parse,
    render,
    replay,
    run_report,
    stable_report,
    write_report,
)
from pacexplain import engine, formula, model, query, synthesizer, verifier
from pacexplain.engine import VOLATILE_STAT_KEYS

from golden import bool3_tree
from reference import check_run_invariants


def zoo_config(zoo_tree, zoo_grammar, query_text="true", **kw):
    query = FormulaQuery(parse(query_text, zoo_tree.arity), zoo_tree.arity)
    return RunConfig(
        model=zoo_tree,
        query=query,
        target_class="fish",
        grammar=zoo_grammar,
        **kw,
    )


# The zoo tree calls an animal a fish exactly when fins and not breathes,
# so restricting the query region pins down what is left to say.
ZOO_RUNS = [
    ("true", "(and x11 (not x9))", 2),
    ("(not x11)", "false", 1),
    ("(not x9)", "x11", 1),
    ("x9", "false", 1),
    ("x3", "(and x11 (not x9))", 2),
]


@pytest.mark.parametrize("query_text,expected,expected_size", ZOO_RUNS)
def test_zoo_runs_reproduce_known_explanations(
    zoo_tree, zoo_grammar, query_text, expected, expected_size
):
    cfg = zoo_config(zoo_tree, zoo_grammar, query_text, seed=7)
    result = explain(cfg)
    assert result.outcome == OUTCOME_EXPLANATION
    assert result.certified
    assert render(result.explanation) == expected
    assert result.stats.explanation_size == expected_size
    # exact within the region, so the sampled estimate cannot miss
    assert result.stats.accuracy == 1.0
    check_run_invariants(result)


def test_same_seed_runs_agree_bit_for_bit(zoo_tree, zoo_grammar):
    first = run_report(explain(zoo_config(zoo_tree, zoo_grammar, seed=7)))
    second = run_report(explain(zoo_config(zoo_tree, zoo_grammar, seed=7)))
    assert stable_report(first) == stable_report(second)
    third = run_report(explain(zoo_config(zoo_tree, zoo_grammar, seed=8)))
    assert stable_report(first) != stable_report(third)


def test_stable_report_strips_only_volatile_fields(zoo_tree, zoo_grammar):
    report = run_report(explain(zoo_config(zoo_tree, zoo_grammar, seed=7)))
    stable = stable_report(report)
    assert "timestamp" in report and "timestamp" not in stable
    for key in VOLATILE_STAT_KEYS:
        assert key in report["stats"]
        assert key not in stable["stats"]
    # everything else survives, and the original is untouched
    assert stable["stats"]["iterations"] == report["stats"]["iterations"]
    assert report["stats"]["wallSeconds"] > 0.0
    before = json.loads(json.dumps(report))
    stable_report(report)
    assert report == before
    assert stable == {
        **{k: v for k, v in before.items() if k != "timestamp"},
        "stats": {k: v for k, v in before["stats"].items() if k not in VOLATILE_STAT_KEYS},
    }


def test_stable_report_of_a_deep_tree():
    # a tree built in Python may be deeper than any recursion limit; its
    # report's model JSON nests as deep
    depth = 3000
    root = {"leaf": "a"}
    for k in range(depth):
        root = {"feature": k % 2, "threshold": (k + 1) / (depth + 1), "le": root,
                "gt": {"leaf": "b" if k % 3 else "a"}}
    cfg = RunConfig(model=model.DecisionTreeModel(2, ("a", "b"), root), query=TrueQuery(2),
                    target_class="b", grammar=default_grammar(["real", "real"]), seed=0,
                    max_iterations=3)
    report = run_report(explain(cfg))
    stable = stable_report(report)
    assert "timestamp" in report and "timestamp" not in stable
    assert "wallSeconds" in report["stats"] and "wallSeconds" not in stable["stats"]
    assert stable["config"] == report["config"]


def test_report_shape_and_named_rendering(zoo_tree, zoo_grammar, zoo_data):
    cfg = zoo_config(
        zoo_tree, zoo_grammar, seed=7, feature_names=zoo_data.feature_names
    )
    report = run_report(explain(cfg))
    for key in ("version", "seed", "outcome", "certified", "explanation",
                "stats", "config", "trace", "sample"):
        assert key in report
    assert report["seed"] == 7
    assert report["explanation"] == "(and x11 (not x9))"
    assert report["explanationNamed"] == "(and fins (not breathes))"
    assert report["config"]["targetClass"] == "fish"
    assert report["config"]["featureNames"] == zoo_data.feature_names
    assert report["stats"]["iterations"] == len(report["trace"])
    assert report["stats"]["counterexamples"] == len(report["sample"])
    json.dumps(report)  # everything must serialize as-is


def test_write_report_and_replay_round_trip(tmp_path, zoo_tree, zoo_grammar):
    report = run_report(explain(zoo_config(zoo_tree, zoo_grammar, seed=7)))
    path = tmp_path / "report.json"
    write_report(report, str(path))
    result = replay(str(path))
    assert result.outcome == OUTCOME_EXPLANATION
    assert render(result.explanation) == report["explanation"]


def test_replay_rejects_version_mismatch(tmp_path, zoo_tree, zoo_grammar):
    report = run_report(explain(zoo_config(zoo_tree, zoo_grammar, seed=7)))
    report["version"] = "0.0.0"
    path = tmp_path / "report.json"
    write_report(report, str(path))
    with pytest.raises(ReplayError):
        replay(str(path))


def test_replay_detects_divergent_report(tmp_path, zoo_tree, zoo_grammar):
    report = run_report(explain(zoo_config(zoo_tree, zoo_grammar, seed=7)))
    report["explanation"] = "x0"
    path = tmp_path / "report.json"
    write_report(report, str(path))
    with pytest.raises(ReplayMismatchError):
        replay(str(path))


def test_config_round_trips_through_report(zoo_tree, zoo_grammar):
    cfg = zoo_config(zoo_tree, zoo_grammar, "(not x9)", seed=3, epsilon=0.1)
    report = run_report(explain(cfg))
    rebuilt = config_from_report(report["config"], report["seed"])
    assert rebuilt.seed == 3
    assert rebuilt.epsilon == 0.1
    assert rebuilt.target_class == "fish"
    assert rebuilt.model.classify([0.0] * 16) == zoo_tree.classify([0.0] * 16)
    assert rebuilt.grammar == zoo_grammar


def test_iteration_cap_reports_uncertified_conjecture(zoo_tree, zoo_grammar):
    cfg = zoo_config(zoo_tree, zoo_grammar, seed=0, max_iterations=1)
    result = explain(cfg)
    assert result.outcome == OUTCOME_BUDGET_ITERATIONS
    assert not result.certified
    # the last conjecture is reported anyway, with a plain sampled estimate
    assert result.explanation is not None
    assert result.stats.iterations == 1
    assert result.stats.accuracy is not None
    assert result.stats.accuracy_support > 0


def test_expired_budget_before_first_conjecture(zoo_tree, zoo_grammar):
    cfg = zoo_config(zoo_tree, zoo_grammar, seed=0, timeout=1e-9)
    result = explain(cfg)
    assert result.outcome == OUTCOME_BUDGET_TIMEOUT
    assert result.explanation is None
    assert not result.certified
    assert result.stats.iterations == 0


class _StubLearner:
    """Answers `late` after sleeping `pause` seconds, or raises
    SynthesisDeadlineError when `late` is None."""

    def __init__(self, late, pause):
        self.late, self.pause = late, pause

    def next(self, deadline):
        time.sleep(self.pause)
        if self.late is None:
            raise SynthesisDeadlineError("stub deadline")
        return self.late

    def add(self, x, label):
        raise AssertionError("no counterexample can reach the stub")


@pytest.mark.parametrize("late", [None, "(and x11 (not x9))"])
def test_timeout_while_the_learner_runs(zoo_tree, zoo_grammar, monkeypatch, late):
    timeout = 0.05
    formula = None if late is None else parse(late, zoo_tree.arity)
    pause = 0.0 if late is None else 2 * timeout
    monkeypatch.setitem(engine.LEARNERS, "occam", lambda g: _StubLearner(formula, pause))
    cfg = zoo_config(zoo_tree, zoo_grammar, seed=0, timeout=timeout, accuracy_samples=0)
    result = explain(cfg)
    assert result.outcome == OUTCOME_BUDGET_TIMEOUT
    assert not result.certified
    assert result.stats.iterations == 0
    # a learner that gives up leaves nothing; a late answer is still reported
    assert result.explanation == formula


def test_grammar_exhaustion_means_no_explanation(zoo_tree):
    # the tree never looks at hair, so a hair-only grammar runs out of
    # consistent candidates as soon as both labels show up on one value
    grammar = Grammar.from_json(
        {
            "features": [{"name": "hair", "index": 0, "kind": "bool"}],
            "maxClauses": 2,
            "maxLiteralsPerClause": 2,
            "constants": True,
        }
    )
    cfg = RunConfig(
        model=zoo_tree,
        query=FormulaQuery(parse("true", 16), 16),
        target_class="fish",
        grammar=grammar,
        seed=0,
    )
    result = explain(cfg)
    assert result.outcome == OUTCOME_NO_EXPLANATION
    assert result.explanation is None
    assert not result.certified
    check_run_invariants(result)


def test_general_strategy_cannot_prove_emptiness(zoo_tree):
    # fins alone cannot separate fish, so the cover puts a negative in a
    # positive cell; that is a bounds failure, not a nonexistence proof
    grammar = Grammar.from_json(
        {
            "features": [{"name": "fins", "index": 11, "kind": "bool"}],
            "maxClauses": 2,
            "maxLiteralsPerClause": 2,
            "constants": True,
        }
    )
    cfg = RunConfig(
        model=zoo_tree,
        query=FormulaQuery(parse("true", 16), 16),
        target_class="fish",
        grammar=grammar,
        seed=0,
        strategy="general",
    )
    with pytest.raises(EngineError, match="grammar bounds"):
        explain(cfg)


def test_general_strategy_needs_grammar_constants(zoo_tree, zoo_grammar):
    # the cover of the empty sample is false, which such a grammar excludes
    grammar = dataclasses.replace(zoo_grammar, include_constants=False)
    cfg = zoo_config(zoo_tree, grammar, seed=0, strategy="general")
    with pytest.raises(ValueError, match="general strategy needs a grammar with constants"):
        explain(cfg)


def _synthesizer_leftovers():
    learners = (synthesizer.OccamLearner, synthesizer.GeneralLearner)
    return [
        o
        for o in gc.get_objects()
        if isinstance(o, learners)
        or (inspect.isgenerator(o) and o.gi_code.co_filename == synthesizer.__file__)
    ]


def test_explain_leaves_nothing_for_the_cyclic_collector():
    # a learner or paused scan kept alive by a reference cycle would wait
    # for the cyclic collector instead of being freed when the run ends
    grammar = default_grammar(["bool"] * 3, max_clauses=4, max_literals_per_clause=3)
    gc.collect()
    gc.disable()
    try:
        results = [
            explain(RunConfig(bool3_tree(), TrueQuery(3), "yes", grammar, seed=0,
                              strategy=strategy))
            for strategy in ("occam", "general")
        ]
        leftovers = _synthesizer_leftovers()
    finally:
        gc.enable()
    assert [len(r.trace) > 1 for r in results] == [True, True]
    assert leftovers == []


# bench/tracing.py wraps these names in the modules that look them up; a
# missing one makes its Tracer.install raise KeyError
TRACED_ENGINE_NAMES = ("synthesize", "synthesize_general", "verify", "estimate_query_accuracy")


def test_names_the_benchmark_tracer_wraps_exist():
    for name in TRACED_ENGINE_NAMES:
        assert name in vars(engine)
    for module in (engine, verifier, query, synthesizer, model):
        assert vars(module)["evaluate"] is formula.evaluate


def test_low_coverage_query_warns(zoo_tree, zoo_grammar):
    cfg = zoo_config(zoo_tree, zoo_grammar, "(and x0 (not x0))", seed=0)
    with pytest.warns(LowQueryCoverageWarning):
        result = explain(cfg)
    # an empty region is vacuously explained, and the accuracy estimator
    # finds no support there
    assert result.outcome == OUTCOME_EXPLANATION
    assert render(result.explanation) == "false"
    assert result.stats.accuracy is None
    assert result.stats.accuracy_support == 0


def test_counterexample_batch_bounds_each_round(zoo_tree, zoo_grammar):
    cfg = zoo_config(zoo_tree, zoo_grammar, seed=0, counterexample_batch=3)
    result = explain(cfg)
    assert result.outcome == OUTCOME_EXPLANATION
    assert [len(rec.counterexamples) for rec in result.trace] == [3, 3, 3, 3, 0]
    check_run_invariants(result)


@pytest.mark.parametrize(
    "overrides",
    [
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        {"delta": -0.1},
        {"timeout": 0.0},
        {"max_iterations": 0},
        {"counterexample_batch": 0},
        {"strategy": "clever"},
        {"target_class": "dragon"},
        {"query": FormulaQuery(parse("x0", 3), 3)},
        {"distribution": UniformBox([0.0] * 3, [1.0] * 3)},
        {"timeout": float("nan")},
        {"accuracy_samples": -1},
    ],
)
def test_config_validation(zoo_tree, zoo_grammar, overrides):
    cfg = zoo_config(zoo_tree, zoo_grammar, seed=0)
    for name, value in overrides.items():
        setattr(cfg, name, value)
    with pytest.raises(ValueError):
        explain(cfg)


def test_config_rejects_a_nan_timeout(zoo_tree, zoo_grammar):
    cfg = RunConfig(
        model=zoo_tree,
        query=FormulaQuery(parse("true", 16), 16),
        target_class="fish",
        grammar=zoo_grammar,
        timeout=float("nan"),
    )
    with pytest.raises(ValueError, match="timeout must be positive"):
        explain(cfg)


def test_config_rejects_grammar_beyond_model_arity(zoo_tree):
    grammar = Grammar.from_json(
        {
            "features": [{"name": "ghost", "index": 20, "kind": "bool"}],
            "maxClauses": 1,
            "maxLiteralsPerClause": 1,
            "constants": True,
        }
    )
    cfg = RunConfig(
        model=zoo_tree,
        query=FormulaQuery(parse("true", 16), 16),
        target_class="fish",
        grammar=grammar,
        seed=0,
    )
    with pytest.raises(ValueError, match="arity"):
        explain(cfg)


def _drawn_points(result):
    return [x for x, _ in result.sample_entries]


def test_derived_distribution_mirrors_grammar_kinds(
    zoo_tree, zoo_grammar, iris_mlp, data_dir
):
    # without a distribution, boolean grammar features are drawn from {0, 1}
    result = explain(zoo_config(zoo_tree, zoo_grammar, seed=7))
    points = _drawn_points(result)
    assert points and all(len(x) == 16 for x in points)
    assert all(v in (0.0, 1.0) for x in points for v in x)

    # ... and real ones, or features the grammar leaves out, from [0, 1]
    with open(data_dir / "iris_grammar.json", "r", encoding="utf-8") as fh:
        iris_grammar = Grammar.from_json(json.load(fh))
    partial = Grammar.from_json(
        {"features": [iris_grammar.to_json()["features"][2]],
         "maxClauses": 1, "maxLiteralsPerClause": 1, "constants": True}
    )
    for grammar in (iris_grammar, partial):
        cfg = RunConfig(
            model=iris_mlp,
            query=FormulaQuery(parse("true", 4), 4),
            target_class="virginica",
            grammar=grammar,
            seed=0,
            accuracy_samples=0,
        )
        points = _drawn_points(explain(cfg))
        assert points and all(len(x) == 4 for x in points)
        assert all(0.0 <= v <= 1.0 for x in points for v in x)
        assert all(v not in (0.0, 1.0) for x in points for v in x)


def test_runs_share_one_default_distribution(zoo_tree, zoo_grammar, monkeypatch):
    used = []

    def spy(distribution, *args):
        used.append(distribution)
        return draws(distribution, *args)

    draws = engine.Draws
    monkeypatch.setattr(engine, "Draws", spy)
    explain(zoo_config(zoo_tree, zoo_grammar, seed=7))
    explain(zoo_config(zoo_tree, zoo_grammar, "x3", seed=8))
    # a loop stream and an estimate stream per run
    assert len(used) == 4 and all(dist is used[0] for dist in used)


@pytest.mark.parametrize("query_text", ["true", "x3"])
def test_default_distribution_run_equals_explicit_one(zoo_tree, zoo_grammar, query_text):
    kinds = {f.index: f.kind for f in zoo_grammar.features}
    dist = default_distribution([kinds.get(j, "real") for j in range(zoo_tree.arity)])
    implicit = explain(zoo_config(zoo_tree, zoo_grammar, query_text, seed=3))
    explicit = explain(zoo_config(zoo_tree, zoo_grammar, query_text, seed=3, distribution=dist))
    for result in (implicit, explicit):
        assert result.outcome == OUTCOME_EXPLANATION
    assert explicit.explanation == implicit.explanation
    assert explicit.trace == implicit.trace
    assert explicit.sample_entries == implicit.sample_entries
    assert explicit.stats.accuracy == implicit.stats.accuracy


def _zoo_conjunction(n):
    """The first n zoo features all set: 2^-n of the uniform boolean cube."""
    return "(and " + " ".join(f"x{j}" for j in range(n)) + ")"


def test_coverage_warning_boundary(zoo_tree, zoo_grammar):
    # verify and estimate draws together decide: a 1/64 region is enough...
    cfg = zoo_config(zoo_tree, zoo_grammar, _zoo_conjunction(6), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", LowQueryCoverageWarning)
        explain(cfg)
    # ... a 1/128 region falls below the 1% floor
    cfg = zoo_config(zoo_tree, zoo_grammar, _zoo_conjunction(7), seed=0)
    with pytest.warns(LowQueryCoverageWarning, match="draws"):
        explain(cfg)


@pytest.mark.parametrize("seed", range(20))
def test_batch_on_discrete_distribution(seed):
    # a suite over eight points meets the same violation more than once; a
    # batch must not hand the repeat to the sample twice
    cfg = RunConfig(
        model=bool3_tree(),
        query=TrueQuery(3),
        target_class="yes",
        grammar=default_grammar(["bool"] * 3),
        seed=seed,
        counterexample_batch=5,
        accuracy_samples=0,
    )
    result = explain(cfg)
    assert result.outcome == OUTCOME_EXPLANATION
    assert render(result.explanation) == "(or (and x0 x1) (and x0 x2))"
    check_run_invariants(result)


@pytest.mark.parametrize(
    "model_name, target, center",
    [("iris_mlp", "virginica", (0.6, 0.4, 0.8, 0.8)),
     ("adult_mlp", ">50K", (0.5, 0.75, 0.5, 0.25, 0.6))],
    ids=["iris", "adult"],
)
def test_general_run_is_the_same_with_and_without_the_dnf_kernel(
    request, model_name, target, center
):
    # the general strategy's conjectures are DNFs of hundreds of literals,
    # which carry their clauses as literal bitsets for `evaluate_mask`;
    # stripped of them, evaluated node by node, they must give the same run
    mlp = request.getfixturevalue(model_name)
    loose = default_grammar(["real"] * mlp.arity, max_clauses=4096,
                            max_literals_per_clause=2 * mlp.arity)
    cfg = RunConfig(model=mlp, query=CosineBall(center, 0.5), target_class=target,
                    grammar=loose, seed=23, strategy="general", max_iterations=120,
                    accuracy_samples=500)
    kernel = explain(cfg)
    assert len(kernel.explanation.children) >= 8 and "_words" in vars(kernel.explanation)
    learner_next = synthesizer.GeneralLearner.next

    def stripped_next(learner, deadline=None):
        f = learner_next(learner, deadline)
        return Or(f.children) if isinstance(f, Or) else f  # a fresh node

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synthesizer.GeneralLearner, "next", stripped_next)
        nodes = explain(cfg)
    assert "_words" not in vars(nodes.explanation)
    assert stable_report(run_report(kernel)) == stable_report(run_report(nodes))


def test_invariant_checker_rejects_tampered_label(zoo_tree, zoo_grammar):
    result = explain(zoo_config(zoo_tree, zoo_grammar, seed=7))
    rec = result.trace[0]
    x, label = rec.counterexamples[0]
    result.trace[0] = dataclasses.replace(
        rec, counterexamples=((x, 1 - label),) + rec.counterexamples[1:]
    )
    with pytest.raises(EngineInvariantError, match="label"):
        check_run_invariants(result)


def test_invariant_checker_rejects_tampered_suite_size(zoo_tree, zoo_grammar):
    result = explain(zoo_config(zoo_tree, zoo_grammar, seed=7))
    last = result.trace[-1]
    result.trace[-1] = dataclasses.replace(last, suite_size=last.suite_size + 1)
    with pytest.raises(EngineInvariantError, match="suite size"):
        check_run_invariants(result)
