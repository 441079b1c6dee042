"""Reference checkers that the test modules share.

Each works point by point or node by node, for tests to compare the
package against; no engine path calls them:

- `check_run_invariants` re-derives the loop invariants from a finished
  run's trace;
- `violation_label` decides one draw the way the verifier's blocks do;
- `is_consistent` tests a formula point by point against a sample;
- `features_of` and `equivalent_on_grid` inspect and compare formulas;
- `positive_paths` lists a decision tree's root-to-leaf paths to a class.
"""

from typing import Iterable, Optional, Sequence

from pacexplain import (
    Atom,
    BoolAtom,
    ConstFalse,
    ConstTrue,
    DecisionTreeModel,
    EngineInvariantError,
    Formula,
    Model,
    Not,
    Query,
    RunResult,
    Sample,
    compare,
    evaluate,
    test_suite_size,
)


def violation_label(
    x, f: Formula, query: Query, target_class, model: Model
) -> Optional[int]:
    """None when x is no violation; else the corrected label for x.

    0: x satisfies f but the model does not predict the target class.
    1: x falsifies f but the model does predict the target class.
    """
    if not query.contains(x):
        return None
    satisfied = evaluate(f, x)
    is_target = model.classify(x) == target_class
    if satisfied == is_target:
        return None
    return 0 if satisfied else 1


def is_consistent(f: Formula, sample: Sample) -> bool:
    return all(evaluate(f, x) == bool(label) for x, label in sample)


def features_of(f: Formula) -> set:
    """Set of feature indices mentioned in f."""
    if isinstance(f, (ConstTrue, ConstFalse)):
        return set()
    if isinstance(f, (BoolAtom, Atom)):
        return {f.feature}
    if isinstance(f, Not):
        return features_of(f.child)
    return set().union(*(features_of(c) for c in f.children))


def equivalent_on_grid(f1: Formula, f2: Formula, grid: Iterable[Sequence[float]]) -> bool:
    """True when f1 and f2 agree on every grid point."""
    return all(evaluate(f1, x) == evaluate(f2, x) for x in grid)


def positive_paths(model: DecisionTreeModel, target_class) -> list:
    """Root-to-leaf constraint lists for leaves labeled target_class.

    Each path is a list of (feature, "<="|">", threshold) triples.
    """
    paths = []

    def walk(node, constraints):
        if "leaf" in node:
            if node["leaf"] == target_class:
                paths.append(list(constraints))
            return
        j, t = node["feature"], node["threshold"]
        walk(node["le"], constraints + [(j, "<=", t)])
        walk(node["gt"], constraints + [(j, ">", t)])

    walk(model.root, [])
    return paths


def check_run_invariants(result: RunResult):
    """Re-derive the loop invariants from a finished run's trace.

    Raises EngineInvariantError on the first violation: conjectures must be
    consistent with the sample they were synthesized from, strictly
    increasing in the candidate order (occam strategy), counterexamples must
    lie in the query region, violate the explanation condition for their
    conjecture, carry the corrective label, and be genuinely new; distinct
    conjectures must disagree somewhere on the collected points.
    """
    cfg = result.config
    seen = []
    seen_set = set()
    conjectures = []
    previous = None
    for rec in result.trace:
        f = rec.conjecture
        for x, label in seen:
            if evaluate(f, x) != bool(label):
                raise EngineInvariantError(
                    f"iteration {rec.index}: conjecture inconsistent with sample point {x}"
                )
        if previous is not None and cfg.strategy == "occam":
            if compare(previous, f) != -1:
                raise EngineInvariantError(
                    f"iteration {rec.index}: conjecture did not increase in order"
                )
        for x, label in rec.counterexamples:
            if not cfg.query.contains(x):
                raise EngineInvariantError(
                    f"iteration {rec.index}: counterexample outside the query region"
                )
            expected = violation_label(x, f, cfg.query, cfg.target_class, cfg.model)
            if expected is None:
                raise EngineInvariantError(
                    f"iteration {rec.index}: counterexample is not a violation"
                )
            if label != expected:
                raise EngineInvariantError(
                    f"iteration {rec.index}: counterexample label {label} is wrong"
                )
            key = (tuple(x), label)
            if key in seen_set or (tuple(x), 1 - label) in seen_set:
                raise EngineInvariantError(
                    f"iteration {rec.index}: sample did not strictly grow"
                )
            seen.append((x, label))
            seen_set.add(key)
        previous = f
        conjectures.append(f)
    points = [x for x, _ in seen]
    for i in range(len(conjectures)):
        for j in range(i + 1, len(conjectures)):
            if points and all(
                evaluate(conjectures[i], x) == evaluate(conjectures[j], x)
                for x in points
            ):
                raise EngineInvariantError(
                    f"conjectures {i + 1} and {j + 1} agree on every collected point"
                )
    # suite sizes must follow the schedule
    for rec in result.trace:
        expected = test_suite_size(cfg.epsilon, cfg.delta, rec.index)
        if rec.suite_size != expected:
            raise EngineInvariantError(
                f"iteration {rec.index}: suite size {rec.suite_size} != {expected}"
            )
