"""Acceptance suite: eight end-to-end criteria at fixed tolerances.

Criterion 2 is checked twice, on boolean and on real features.

Each test prints exactly one `criterion N: PASS/FAIL` line (run with -s to
see them on success) and asserts the same verdict, so the suite doubles as
a human-readable scoreboard and a hard gate.
"""

import gc
import itertools
import time

import numpy as np
import pytest

from pacexplain import (
    FALSE,
    TRUE,
    And,
    Atom,
    CosineBall,
    FormulaQuery,
    Grammar,
    InconsistentSampleError,
    Or,
    RunConfig,
    Sample,
    TrueQuery,
    UniformBox,
    accuracy_on,
    default_grammar,
    enumerate_formulas,
    evaluate,
    explain,
    model_from_json,
    parse,
    render,
    synthesize,
)
from pacexplain import test_suite_size as suite_size

from reference import check_run_invariants, equivalent_on_grid, features_of, is_consistent

FULL_ZOO = "true"


def _verdict(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _zoo_query(text):
    return FormulaQuery(parse(text, 16), 16)


def _region_grid(query, *formulas):
    """Every assignment of the features any argument mentions that also
    satisfies the query; the other coordinates are irrelevant to all of
    them and stay at zero."""
    relevant = sorted(
        set().union(*(features_of(f) for f in formulas)) | features_of(query.formula)
    )
    points = []
    for bits in itertools.product((0.0, 1.0), repeat=len(relevant)):
        x = [0.0] * 16
        for j, b in zip(relevant, bits):
            x[j] = b
        if query.contains(x):
            points.append(x)
    return points


# 1. On the zoo tree with the two-clause boolean grammar, the five fixed
#    query regions produce these explanations of these sizes, each
#    perfect on the dataset, in well under ten seconds apiece.
ZOO_TABLE = [
    (FULL_ZOO, "(and x11 (not x9))", 2),
    ("(not x11)", "false", 1),
    ("(not x9)", "x11", 1),
    ("x9", "false", 1),
    ("x3", "(and x11 (not x9))", 2),
]


def test_criterion_1_zoo_table_reproduction(zoo_tree, zoo_grammar, zoo_data):
    problems = []
    for query_text, expected_text, expected_size in ZOO_TABLE:
        query = _zoo_query(query_text)
        expected = parse(expected_text, 16)
        cfg = RunConfig(
            model=zoo_tree,
            query=query,
            target_class="fish",
            grammar=zoo_grammar,
            seed=7,
        )
        t0 = time.perf_counter()
        result = explain(cfg)
        wall = time.perf_counter() - t0
        got = result.explanation
        checks = [
            result.outcome == "explanation",
            got is not None
            and equivalent_on_grid(got, expected, _region_grid(query, got, expected)),
            result.stats.explanation_size == expected_size,
            got is not None
            and accuracy_on(got, zoo_data, query, "fish") == 1.0,
            wall < 10.0,
        ]
        if not all(checks):
            problems.append(
                f"{query_text}: got {render(got) if got else None}"
                f" size {result.stats.explanation_size} in {wall:.2f}s"
            )
    _verdict(1, not problems, problems or "five queries match the known table")


# 2. With a grammar whose every formula misclassifies a quarter of the
#    space, certification should be a rare (<= delta) event: over 200
#    seeded runs at epsilon = delta = 0.1, runs that return an
#    explanation with exact error >= 0.1 must stay under 15%.
def test_criterion_2_pac_guarantee(zoo_tree):
    weak = Grammar.from_json(
        {
            "features": [
                {"name": "milk", "index": 3, "kind": "bool"},
                {"name": "fins", "index": 11, "kind": "bool"},
            ],
            "maxClauses": 2,
            "maxLiteralsPerClause": 2,
            "constants": True,
        }
    )
    query = _zoo_query(FULL_ZOO)

    def exact_error(formula):
        # both the formula and the tree ignore everything outside these
        # features, so the sub-grid average is the exact uniform error
        relevant = sorted(features_of(formula) | {9, 11})
        disagree = 0
        for bits in itertools.product((0.0, 1.0), repeat=len(relevant)):
            x = [0.0] * 16
            for j, b in zip(relevant, bits):
                x[j] = b
            if evaluate(formula, x) != (zoo_tree.classify(x) == "fish"):
                disagree += 1
        return disagree / 2 ** len(relevant)

    t0 = time.perf_counter()
    runs = 200
    bad = 0
    outcomes = {}
    for seed in range(runs):
        cfg = RunConfig(
            model=zoo_tree,
            query=query,
            target_class="fish",
            grammar=weak,
            epsilon=0.1,
            delta=0.1,
            seed=seed,
            accuracy_samples=0,
        )
        result = explain(cfg)
        outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
        assert result.outcome in ("explanation", "no-explanation")
        if result.outcome == "explanation" and exact_error(result.explanation) >= 0.1:
            bad += 1
    elapsed = time.perf_counter() - t0
    fraction = bad / runs
    ok = fraction <= 0.15 and elapsed < 300.0
    _verdict(
        2,
        ok,
        f"{bad}/{runs} runs certified a >=0.1-error formula"
        f" (outcomes {outcomes}, {elapsed:.1f}s)",
    )


# 2, real features. Trees split at thresholds off the grammar's grid
#    (0.52, 0.61, 0.6 and 0.45, 0.27 and 0.77 against 0.25/0.5/0.75), so
#    no formula of the class is exact and some only err by a little over
#    epsilon. Each run certifies a formula with exact error > epsilon with
#    probability at most delta, so over N independent runs at
#    epsilon = delta = 0.1 the count of such runs is at most
#    Binomial(N, delta); it must not exceed the count that Binomial(N, delta)
#    exceeds with probability below 1e-3.
def _leaf(label):
    return {"leaf": label}


def _split(feature, threshold, le, gt):
    return {"feature": feature, "threshold": threshold, "le": le, "gt": gt}


REAL_TREES = {
    "x0 > 0.52": _split(0, 0.52, _leaf("no"), _leaf("yes")),
    "x0 > 0.61": _split(0, 0.61, _leaf("no"), _leaf("yes")),
    "x0 > 0.6 and x1 <= 0.45": _split(
        0, 0.6, _leaf("no"), _split(1, 0.45, _leaf("yes"), _leaf("no"))
    ),
    "x0 <= 0.27 or x1 > 0.77": _split(
        0, 0.27, _leaf("yes"), _split(1, 0.77, _leaf("no"), _leaf("yes"))
    ),
}


def _tree_label(node, x):
    while "leaf" not in node:
        node = node["le"] if x[node["feature"]] <= node["threshold"] else node["gt"]
    return node["leaf"]


def _tree_thresholds(node, feature):
    if "leaf" in node:
        return set()
    found = _tree_thresholds(node["le"], feature) | _tree_thresholds(node["gt"], feature)
    if node["feature"] == feature:
        found.add(node["threshold"])
    return found


def _holds(f, x):
    """The test's own evaluator for the grammar's DNFs over `<`/`>` atoms."""
    if isinstance(f, Or):
        return any(_holds(c, x) for c in f.children)
    if isinstance(f, And):
        return all(_holds(c, x) for c in f.children)
    if isinstance(f, Atom):
        assert f.op in ("<", ">")
        return x[f.feature] < f.constant if f.op == "<" else x[f.feature] > f.constant
    assert f in (TRUE, FALSE)
    return f == TRUE


def _cell_error(formula, root, grammar):
    """Uniform-[0,1]^d mass where formula and tree disagree.

    Both are constant on every open cell of the merged grid of grammar
    constants and tree thresholds; the cell boundaries have measure zero.
    """
    axes = []
    for f in grammar.features:
        edges = sorted({0.0, 1.0, *f.constants, *_tree_thresholds(root, f.index)})
        axes.append([((a + b) / 2.0, b - a) for a, b in zip(edges, edges[1:])])
    error = 0.0
    for cell in itertools.product(*axes):
        x = [mid for mid, _ in cell]
        if _holds(formula, x) != (_tree_label(root, x) == "yes"):
            error += float(np.prod([width for _, width in cell]))
    return error


def _binomial_allowance(n, p, false_alarm=1e-3):
    """Smallest k with P(Binomial(n, p) > k) < false_alarm."""
    pmf = (1.0 - p) ** n
    cdf = pmf
    k = 0
    while 1.0 - cdf >= false_alarm and k < n:
        pmf *= (n - k) / (k + 1) * p / (1.0 - p)
        k += 1
        cdf += pmf
    return k


def test_criterion_2_pac_guarantee_on_real_features():
    grammar = default_grammar(["real", "real"], max_clauses=2, max_literals_per_clause=2)
    epsilon = delta = 0.1
    seeds = 250
    t0 = time.perf_counter()
    runs = bad = certified = 0
    per_tree = {}
    for name, root in REAL_TREES.items():
        model = model_from_json(
            {"type": "tree", "arity": 2, "classes": ["no", "yes"], "root": root}
        )
        for seed in range(seeds):
            result = explain(
                RunConfig(
                    model=model,
                    query=TrueQuery(2),
                    target_class="yes",
                    grammar=grammar,
                    distribution=UniformBox([0.0, 0.0], [1.0, 1.0]),
                    epsilon=epsilon,
                    delta=delta,
                    seed=seed,
                    accuracy_samples=0,
                )
            )
            assert result.outcome in ("explanation", "no-explanation")
            runs += 1
            if result.certified:
                certified += 1
                over = _cell_error(result.explanation, root, grammar) > epsilon
                bad += over
                per_tree[name] = per_tree.get(name, 0) + over
    elapsed = time.perf_counter() - t0
    allowance = _binomial_allowance(runs, delta)
    # a run set that certifies almost nothing would pass vacuously
    ok = bad <= allowance and certified >= runs // 20 and elapsed < 300.0
    _verdict(
        2,
        ok,
        f"{bad}/{runs} runs certified a formula with exact error > {epsilon}"
        f" (allowance {allowance}, {certified} certified, over epsilon by tree"
        f" {per_tree}, {elapsed:.1f}s)",
    )


# 3. The suite-size schedule, frozen from a 50-digit decimal computation
#    of ceil((i ln 2 - ln delta) / epsilon). Zero tolerance.
SUITE_SIZES = {
    (0.01, 0.01): [530, 600, 669, 738, 808, 877, 946, 1016, 1085, 1154],
    (0.01, 0.05): [369, 439, 508, 577, 647, 716, 785, 855, 924, 993],
    (0.01, 0.1): [300, 369, 439, 508, 577, 647, 716, 785, 855, 924],
    (0.05, 0.01): [106, 120, 134, 148, 162, 176, 190, 204, 217, 231],
    (0.05, 0.05): [74, 88, 102, 116, 130, 144, 157, 171, 185, 199],
    (0.05, 0.1): [60, 74, 88, 102, 116, 130, 144, 157, 171, 185],
    (0.1, 0.01): [53, 60, 67, 74, 81, 88, 95, 102, 109, 116],
    (0.1, 0.05): [37, 44, 51, 58, 65, 72, 79, 86, 93, 100],
    (0.1, 0.1): [30, 37, 44, 51, 58, 65, 72, 79, 86, 93],
}


def test_criterion_3_suite_size_schedule():
    wrong = [
        ((eps, delta, i), suite_size(eps, delta, i), expected[i - 1])
        for (eps, delta), expected in SUITE_SIZES.items()
        for i in range(1, 11)
        if suite_size(eps, delta, i) != expected[i - 1]
    ]
    _verdict(3, not wrong, wrong or "all 90 schedule values exact")


# 4. The synthesizer returns exactly the first consistent formula of the
#    full enumeration, over 100 random small instances.
def test_criterion_4_occam_oracle_equivalence():
    grid = (0.0, 0.3, 0.6, 1.0)
    constants = (0.25, 0.5, 0.75)
    rng = np.random.default_rng(2024)

    def random_instance():
        n = int(rng.integers(2, 4))
        features = []
        for j in range(n):
            if rng.random() < 0.5:
                features.append({"name": f"x{j}", "index": j, "kind": "bool"})
            else:
                k = int(rng.integers(1, 3))
                consts = sorted(rng.choice(constants, size=k, replace=False).tolist())
                features.append(
                    {"name": f"x{j}", "index": j, "kind": "real", "constants": consts}
                )
        grammar = Grammar.from_json(
            {
                "features": features,
                "maxClauses": int(rng.integers(1, 3)),
                "maxLiteralsPerClause": int(rng.integers(1, 3)),
                "constants": True,
            }
        )
        sample = Sample()
        for _ in range(int(rng.integers(0, 7))):
            x = tuple(
                float(rng.choice((0.0, 1.0)))
                if f["kind"] == "bool"
                else float(rng.choice(grid))
                for f in features
            )
            try:
                sample.add(x, int(rng.integers(0, 2)))
            except InconsistentSampleError:
                pass
        return grammar, sample

    t0 = time.perf_counter()
    mismatches = []
    for k in range(100):
        grammar, sample = random_instance()
        full = list(enumerate_formulas(grammar))
        assert len(full) <= 10_000
        scan = next((f for f in full if is_consistent(f, sample)), None)
        got = synthesize(sample, grammar)
        if got != scan:
            mismatches.append((k, got, scan))
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    _verdict(4, ok, mismatches or f"100 instances agree with the scan ({elapsed:.1f}s)")


# 5. Loop invariants hold on 50 instrumented runs: samples strictly grow,
#    conjectures strictly increase and stay sample-consistent, every
#    counterexample is an in-region violation with the corrective label,
#    and no two conjectures agree on all collected points.
def test_criterion_5_loop_invariants(zoo_tree, zoo_grammar):
    outcomes = {}
    for query_text, _, _ in ZOO_TABLE:
        for seed in range(10):
            cfg = RunConfig(
                model=zoo_tree,
                query=_zoo_query(query_text),
                target_class="fish",
                grammar=zoo_grammar,
                epsilon=0.1,
                delta=0.1,
                seed=seed,
                accuracy_samples=0,
            )
            result = explain(cfg)
            check_run_invariants(result)
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
    _verdict(5, True, f"50 runs pass the invariant checker (outcomes {outcomes})")


# 6. When no grammar formula can be consistent, the engine must settle on
#    no-explanation rather than hitting a budget: ten grammars over
#    features the tree never reads.
def test_criterion_6_termination_without_explanation(zoo_tree):
    instances = [
        (0,), (1,), (2,), (4,), (5,),
        (0, 1), (2, 4), (5, 6), (7, 8), (12, 13),
    ]
    t0 = time.perf_counter()
    wrong = []
    for k, indices in enumerate(instances):
        grammar = Grammar.from_json(
            {
                "features": [
                    {"name": f"f{j}", "index": j, "kind": "bool"} for j in indices
                ],
                "maxClauses": 2,
                "maxLiteralsPerClause": 2,
                "constants": True,
            }
        )
        cfg = RunConfig(
            model=zoo_tree,
            query=_zoo_query(FULL_ZOO),
            target_class="fish",
            grammar=grammar,
            epsilon=0.1,
            delta=0.1,
            seed=k,
            accuracy_samples=0,
        )
        result = explain(cfg)
        if result.outcome != "no-explanation":
            wrong.append((indices, result.outcome))
    elapsed = time.perf_counter() - t0
    ok = not wrong and elapsed < 60.0
    _verdict(6, ok, wrong or f"10 instances exhaust their class ({elapsed:.1f}s)")


# 7. The shipped MLPs, queried in a cosine ball of radius 0.5 around a
#    fixed input with the default threshold grammar, must either certify
#    within 300 s or stop on budget with a small, mostly-right conjecture.
MLP_CASES = [
    ("iris_mlp", "virginica", (0.6, 0.4, 0.8, 0.8)),
    ("adult_mlp", ">50K", (0.5, 0.75, 0.5, 0.25, 0.6)),
]


@pytest.mark.parametrize("fixture,target,center", MLP_CASES)
def test_criterion_7_mlp_queries(request, fixture, target, center):
    model = request.getfixturevalue(fixture)
    cfg = RunConfig(
        model=model,
        query=CosineBall(center, 0.5),
        target_class=target,
        grammar=default_grammar(["real"] * model.arity),
        seed=11,
        timeout=300.0,
    )
    t0 = time.perf_counter()
    result = explain(cfg)
    wall = time.perf_counter() - t0
    stats = result.stats
    certified_in_time = result.outcome == "explanation" and result.certified and wall < 300.0
    acceptable_budget_stop = (
        result.outcome in ("budget-timeout", "budget-iteration-cap")
        and stats.explanation_size is not None
        and stats.explanation_size <= 8
        and stats.accuracy is not None
        and stats.accuracy >= 0.65
    )
    _verdict(
        f"7 ({fixture})",
        certified_in_time or acceptable_budget_stop,
        f"{result.outcome} size={stats.explanation_size}"
        f" accuracy={stats.accuracy} in {wall:.2f}s",
    )


# 8. Against an unconstrained grammar (thousands of clauses allowed), the
#    small-first search must produce strictly smaller explanations and
#    spend a strictly larger share of its time in the learner.
def test_criterion_8_grammar_constraint_trend(iris_mlp, adult_mlp):
    cases = [
        (iris_mlp, "virginica", (0.6, 0.4, 0.8, 0.8)),
        (adult_mlp, ">50K", (0.5, 0.75, 0.5, 0.25, 0.6)),
    ]
    problems = []
    details = []
    for model, target, center in cases:
        n = model.arity
        loose = Grammar.from_json(
            {
                "features": [
                    {
                        "name": f"x{j}",
                        "index": j,
                        "kind": "real",
                        "constants": [0.25, 0.5, 0.75],
                    }
                    for j in range(n)
                ],
                "maxClauses": 4096,
                "maxLiteralsPerClause": 2 * n,
                "constants": True,
            }
        )
        sizes = {"occam": [], "general": []}
        shares = {"occam": [], "general": []}
        for strategy in ("occam", "general"):
            for seed in (23, 24):
                cfg = RunConfig(
                    model=model,
                    query=CosineBall(center, 0.5),
                    target_class=target,
                    grammar=default_grammar(["real"] * n)
                    if strategy == "occam"
                    else loose,
                    seed=seed,
                    strategy=strategy,
                    timeout=300.0 if strategy == "occam" else 12.0,
                    accuracy_samples=0,
                )
                # a general run spends under a millisecond in `next`, so one
                # collector pass there could swamp its learner share
                try:
                    gc.disable()
                    result = explain(cfg)
                finally:
                    gc.enable()
                assert result.explanation is not None, (strategy, seed, result.outcome)
                stats = result.stats
                measured = stats.learner_seconds + stats.verifier_seconds
                sizes[strategy].append(stats.explanation_size)
                shares[strategy].append(stats.learner_seconds / measured)

        def mean(values):
            return sum(values) / len(values)

        size_gap = mean(sizes["occam"]) < mean(sizes["general"])
        share_gap = mean(shares["occam"]) > mean(shares["general"])
        details.append(
            f"{model.classes[1]}: sizes {mean(sizes['occam']):.0f} vs"
            f" {mean(sizes['general']):.0f}, learner share"
            f" {mean(shares['occam']):.2f} vs {mean(shares['general']):.2f}"
        )
        if not (size_gap and share_gap):
            problems.append(details[-1])
    _verdict(8, not problems, problems or "; ".join(details))
