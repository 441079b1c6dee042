"""Statistical verification of candidate explanations.

A candidate passes iteration i when none of ceil((i*ln 2 - ln delta) /
epsilon) fresh i.i.d. draws witnesses a violation. A draw x is a violation
when it lies in the query region and the candidate's verdict disagrees with
the model predicting the target class. Violations are labeled with the
truth value the candidate should have produced: 0 when the candidate
wrongly accepted x, 1 when it wrongly rejected it. Points outside the query
region never count, whatever the model says.

The iteration-indexed suite sizes make the probability that any wrong
candidate ever slips through at most delta in total (the per-iteration
failure chances are at most delta/2^i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .formula import Formula, evaluate
from .model import Model
from .query import Query


@dataclass(frozen=True)
class VerifierOutcome:
    passed: bool
    tested_count: int
    counterexamples: tuple = ()
    suite_size: int = 0
    in_region_count: int = 0


def _check_rates(epsilon: float, delta: float):
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def test_suite_size(epsilon: float, delta: float, iteration: int) -> int:
    """Number of draws for the given iteration: ceil((i*ln2 - ln delta)/eps)."""
    _check_rates(epsilon, delta)
    if iteration < 1 or int(iteration) != iteration:
        raise ValueError(f"iteration must be a positive integer, got {iteration}")
    return math.ceil((iteration * math.log(2.0) - math.log(delta)) / epsilon)


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


def verify(
    f: Formula,
    model: Model,
    query: Query,
    target_class,
    distribution,
    epsilon: float,
    delta: float,
    iteration: int,
    rng: np.random.Generator,
    batch_limit: int = 1,
) -> VerifierOutcome:
    """Test f on a fresh suite; fail with up to batch_limit counterexamples.

    Draws are consumed serially from `rng`, so a fixed generator state yields
    a fixed outcome. The suite is cut short once batch_limit distinct
    violations have been collected; a repeated one is skipped but its draw
    still counts. A pass always consumes the full suite.
    """
    if batch_limit < 1:
        raise ValueError("batch_limit must be >= 1")
    n = test_suite_size(epsilon, delta, iteration)
    counterexamples = {}  # point -> label, in draw order
    tested = 0
    in_region = 0
    for _ in range(n):
        x = distribution.sample(rng)
        tested += 1
        if not query.contains(x):
            continue
        in_region += 1
        satisfied = evaluate(f, x)
        if satisfied == (model.classify(x) == target_class) or x in counterexamples:
            continue
        counterexamples[x] = 0 if satisfied else 1
        if len(counterexamples) >= batch_limit:
            break
    return VerifierOutcome(
        passed=not counterexamples,
        tested_count=tested,
        counterexamples=tuple(counterexamples.items()),
        suite_size=n,
        in_region_count=in_region,
    )


def estimate_query_accuracy(
    f: Formula,
    model: Model,
    query: Query,
    target_class,
    distribution,
    rng: np.random.Generator,
    n_target: int,
    max_draws: Optional[int] = None,
) -> Tuple[Optional[float], int, int]:
    """Agreement of f with the model on draws inside the query region.

    Draws until n_target in-region points were seen (or max_draws total);
    returns (accuracy, in_region_count, draws), accuracy None when nothing
    landed inside the region.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if max_draws is None:
        max_draws = 50 * n_target
    hits = 0
    agree = 0
    draws = 0
    for _ in range(max_draws):
        x = distribution.sample(rng)
        draws += 1
        if not query.contains(x):
            continue
        hits += 1
        if evaluate(f, x) == (model.classify(x) == target_class):
            agree += 1
        if hits >= n_target:
            break
    if hits == 0:
        return None, 0, draws
    return agree / hits, hits, draws
