"""`explain` end to end against the brute-force class.

Seeded random runs on small decision trees and grammars check the Occam
contract on each run's final sample: an explanation, or the conjecture at
the iteration cap, is the first member of the grammar's class consistent
with the sample, and "no explanation" means that no member is. The oracle,
`brute_force_class`, shares no code with the learner's range scan.
"""

import math
import random
from collections import Counter

from pacexplain import (
    OUTCOME_BUDGET_ITERATIONS,
    OUTCOME_EXPLANATION,
    OUTCOME_NO_EXPLANATION,
    DecisionTreeModel,
    EngineInvariantError,
    Grammar,
    GrammarFeature,
    RunConfig,
    Sample,
    TrueQuery,
    explain,
    render,
)

from brute_force import brute_force_class
from reference import check_run_invariants, is_consistent

RUNS = 300
MAX_CLASS = 20_000
CONSTANT_POOL = (0.2, 0.25, 0.4, 0.5, 0.6, 0.75, 0.8)


def _class_size(g):
    n = sum(2 if f.kind == "bool" else len(f.ops) * len(f.constants) for f in g.features)
    clauses = sum(math.comb(n, k) for k in range(1, g.max_literals_per_clause + 1))
    members = sum(math.comb(clauses, m) for m in range(1, g.max_clauses + 1))
    return members + 2 * g.include_constants


def _random_grammar(rnd, kinds):
    while True:
        features = []
        for j, kind in enumerate(kinds):
            if kind == "bool":
                features.append(GrammarFeature(j, "bool"))
            else:
                constants = rnd.sample(CONSTANT_POOL, rnd.randint(1, 3))
                ops = rnd.choice((("<",), (">",), ("<", ">")))
                features.append(GrammarFeature(j, "real", tuple(constants), ops))
        g = Grammar(
            tuple(features),
            max_clauses=rnd.randint(1, 3),
            max_literals_per_clause=rnd.randint(1, 3),
            include_constants=rnd.random() < 0.5,
        )
        if _class_size(g) <= MAX_CLASS:
            return g


def _random_tree(rnd, g, depth):
    """A tree that splits bool features at 0.5 and real features on a
    grammar constant or off every constant, half of the time each."""
    if depth == 0 or rnd.random() < 0.3:
        return {"leaf": rnd.choice(("a", "b"))}
    f = rnd.choice(g.features)
    if f.kind == "bool":
        threshold = 0.5
    elif rnd.random() < 0.5:
        threshold = rnd.choice(f.constants)
    else:
        threshold = round(rnd.uniform(0.05, 0.95), 3)
    return {
        "feature": f.index,
        "threshold": threshold,
        "le": _random_tree(rnd, g, depth - 1),
        "gt": _random_tree(rnd, g, depth - 1),
    }


def _random_config(run):
    rnd = random.Random(run)
    kinds = [rnd.choice(("bool", "real")) for _ in range(rnd.randint(1, 3))]
    g = _random_grammar(rnd, kinds)
    model = DecisionTreeModel(len(kinds), ("a", "b"), _random_tree(rnd, g, 3))
    return RunConfig(
        model=model,
        query=TrueQuery(len(kinds)),
        target_class="a",
        grammar=g,
        epsilon=rnd.choice((0.05, 0.1, 0.2)),
        seed=run,
        max_iterations=rnd.choice((3, 100000, 100000, 100000)),
        counterexample_batch=rnd.choice((1, 3)),
        accuracy_samples=0,
    )


def test_explain_matches_first_consistent_member_of_brute_force_class():
    outcomes = Counter()
    failures = []
    for run in range(RUNS):
        cfg = _random_config(run)
        try:
            result = explain(cfg)
            check_run_invariants(result)
        except EngineInvariantError as exc:
            failures.append((run, repr(exc)))
            continue
        outcomes[result.outcome] += 1
        sample = Sample(result.sample_entries)
        want = next(
            (f for f in brute_force_class(cfg.grammar) if is_consistent(f, sample)), None
        )
        if result.outcome in (OUTCOME_EXPLANATION, OUTCOME_BUDGET_ITERATIONS):
            if result.explanation != want:
                got = render(result.explanation)
                failures.append((run, f"{got} != {want and render(want)}"))
        elif result.outcome == OUTCOME_NO_EXPLANATION:
            if want is not None:
                failures.append((run, f"no explanation, but {render(want)} is consistent"))
        else:
            failures.append((run, f"unexpected outcome {result.outcome}"))
    assert failures == []
    assert outcomes[OUTCOME_EXPLANATION] and outcomes[OUTCOME_NO_EXPLANATION], outcomes
    assert outcomes[OUTCOME_BUDGET_ITERATIONS], outcomes
