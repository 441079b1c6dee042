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

`verify` and `estimate_query_accuracy` work in blocks: draw a chunk of
points, test it with the query's, formula's and model's masks, count. Each
leaves the generator exactly where drawing its points one at a time would
have: when it stops inside a chunk, it restores the state saved at its
start and skips the draws it used, so the next caller sees the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .formula import Formula, evaluate, evaluate_mask
from .model import Model
from .query import Query

# Chunk sizes in draws. A refuted candidate usually fails within a few
# draws, so verify chunks start small and double; the cap bounds the
# working set of long suites.
_VERIFY_FIRST_CHUNK = 64
_VERIFY_MAX_CHUNK = 4096
_ESTIMATE_CHUNK = 512


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


def _verdicts(f: Formula, model: Model, target_class, X: np.ndarray, rows: np.ndarray):
    """Masks over X[rows]: f's verdict, and where it disagrees with the model."""
    if len(rows) < len(X):
        X = X[rows]
    satisfied = evaluate_mask(f, X)
    return satisfied, satisfied != (model.classify_batch(X) == target_class)


def _rewind(rng: np.random.Generator, state: dict, distribution, draws: int):
    rng.bit_generator.state = state
    distribution.skip(rng, draws)


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

    Draws are consumed in order from `rng`, so a fixed generator state yields
    a fixed outcome. The suite is cut short once batch_limit distinct
    violations have been collected; a repeated one is skipped but its draw
    still counts. A pass always consumes the full suite; a cut leaves `rng`
    just after the draw that completed the batch.
    """
    if batch_limit < 1:
        raise ValueError("batch_limit must be >= 1")
    n = test_suite_size(epsilon, delta, iteration)
    start = rng.bit_generator.state
    counterexamples = {}  # point -> label, in draw order
    tested = 0
    in_region = 0
    chunk = _VERIFY_FIRST_CHUNK
    while tested < n and len(counterexamples) < batch_limit:
        X = distribution.sample_block(rng, min(chunk, n - tested))
        rows = np.flatnonzero(query.contains_mask(X))
        satisfied, wrong = _verdicts(f, model, target_class, X, rows)
        used, hits = len(X), len(rows)
        for i in np.flatnonzero(wrong).tolist():
            x = distribution.point(X[rows[i]])
            if x in counterexamples:
                continue
            counterexamples[x] = 0 if satisfied[i] else 1
            if len(counterexamples) == batch_limit:
                used, hits = int(rows[i]) + 1, i + 1
                _rewind(rng, start, distribution, tested + used)
                break
        tested += used
        in_region += hits
        chunk = min(2 * chunk, _VERIFY_MAX_CHUNK)
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

    Draws until n_target in-region points were seen (or max_draws total),
    leaving `rng` just after the last of them; returns (accuracy,
    in_region_count, draws), accuracy None when nothing landed inside the
    region.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if max_draws is None:
        max_draws = 50 * n_target
    start = rng.bit_generator.state
    hits = 0
    agree = 0
    draws = 0
    while draws < max_draws and hits < n_target:
        X = distribution.sample_block(rng, min(_ESTIMATE_CHUNK, max_draws - draws))
        rows = np.flatnonzero(query.contains_mask(X))[: n_target - hits]
        used = len(X)
        if hits + len(rows) == n_target:
            used = int(rows[-1]) + 1
            _rewind(rng, start, distribution, draws + used)
        _, wrong = _verdicts(f, model, target_class, X, rows)
        agree += len(rows) - int(np.count_nonzero(wrong))
        hits += len(rows)
        draws += used
    if hits == 0:
        return None, 0, draws
    return agree / hits, hits, draws
