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

Each run's points come from one buffered stream of draws, `Draws`, built
over the run's distribution, generator, query region, model and target
class. The stream draws its points in blocks, tests each block against
the query region once and classifies its in-region rows once, since
neither depends on the candidate. A suite takes the next pending draws,
evaluates only the candidate's mask on them, and consumes exactly the
draws it used; the draws it left wait for the next suite. The points each
suite and the accuracy estimate see are therefore those of drawing them
one at a time, and nothing is ever drawn twice or rewound.

The general learner's conjectures each extend the last cover by a few
clauses, and carry those clauses as literal bitsets. The stream keeps, for
its current block, the literal bitsets of the in-region rows, the clauses
already folded in and which rows they cover, so each new conjecture tests
only its new clauses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

# `evaluate` stays importable here: bench/tracing.py wraps it in this module
from .formula import Formula, Or, _cover_mask, _literal_words, evaluate, evaluate_mask  # noqa: F401
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


class Draws:
    """A run's stream of i.i.d. draws, each region-tested and classified once.

    `take(limit)` hands out up to `limit` pending draws: what is left of
    the current block, or else a fresh block of `limit` draws. `consume(k)`
    marks the first k of them used; `take` hands out the rest again. A
    leftover is always a piece of its own block, never joined to a fresh
    one, so the working set stays one block.

    `mask(f)` is f's mask on the in-region rows of the last take. For a
    cover with literal bitsets, the block keeps a memo: the literal words
    of all its in-region rows, tested once when the first such cover meets
    the block; the clause rows folded in so far; and the mask of rows they
    cover. A cover whose clause rows start with the folded ones folds in
    only the rest, and any other cover is folded afresh. Folds run over the
    rows from the piece's first on, since consumed draws are never handed
    out again. A fresh block drops the memo.
    """

    def __init__(
        self, distribution, rng: np.random.Generator, query: Query, model: Model, target_class
    ):
        self.distribution = distribution
        self.rng = rng
        self.query = query
        self.model = model
        self.target_class = target_class
        self._block = None  # X, in-region row indices, those rows, model verdicts
        self._used = 0  # draws of the block consumed so far
        self._piece = (0, 0)  # the last take's in-region rows, as a slice of the block's
        self._memo = None  # the block's literal tests, their words, folded clauses, covered

    def take(self, limit: int) -> tuple:
        """(X, rows, inside, target): up to `limit` draws as the rows of X,
        the indices of those in the query region, those rows, and whether
        the model predicts the target class on each of them."""
        block = self._block
        if block is None or self._used == len(block[0]):
            X = self.distribution.sample_block(self.rng, limit)
            rows = np.flatnonzero(self.query.contains_mask(X))
            inside = X if len(rows) == len(X) else X[rows]
            self._block = (X, rows, inside, self.model.target_mask(inside, self.target_class))
            self._used = 0
            self._piece = (0, len(rows))
            self._memo = None
            return self._block
        X, rows, inside, target = block
        lo = self._used
        hi = min(lo + limit, len(X))
        a, b = np.searchsorted(rows, (lo, hi))
        self._piece = (a, b)
        return X[lo:hi], rows[a:b] - lo, inside[a:b], target[a:b]

    def mask(self, f: Formula) -> np.ndarray:
        """`evaluate_mask` of f on the in-region rows of the last `take`,
        folded into the block's memo when f carries literal bitsets."""
        a, b = self._piece
        inside = self._block[2]
        words = f.__dict__.get("_words") if isinstance(f, Or) else None
        if words is None:
            return evaluate_mask(f, inside[a:b])
        tests, clauses = words
        memo = self._memo
        if memo is None or memo[0] is not tests:
            held = _literal_words(tests, inside, clauses.shape[1])
            memo = (tests, held, clauses[:0], np.zeros(len(inside), dtype=bool))
        _, held, folded, covered = memo
        n = len(folded)
        if not np.array_equal(clauses[:n], folded):
            n = 0
            covered[a:] = False
        if n < len(clauses):
            covered[a:] |= _cover_mask(clauses[n:], held[a:])
        self._memo = (tests, held, clauses, covered)
        return covered[a:b].copy()

    def consume(self, k: int):
        self._used += k


def verify(
    f: Formula,
    draws: Draws,
    epsilon: float,
    delta: float,
    iteration: int,
    batch_limit: int = 1,
) -> VerifierOutcome:
    """Test f on a fresh suite; fail with up to batch_limit counterexamples.

    The suite is the next draws of `draws`, so a fixed generator state
    yields a fixed outcome. The suite is cut short once batch_limit
    distinct violations have been collected; a repeated one is skipped but
    its draw still counts. A pass consumes the full suite; a cut consumes
    the draws up to the one that completed the batch.
    """
    if batch_limit < 1:
        raise ValueError("batch_limit must be >= 1")
    n = test_suite_size(epsilon, delta, iteration)
    counterexamples = {}  # point -> label, in draw order
    tested = 0
    in_region = 0
    chunk = _VERIFY_FIRST_CHUNK
    while tested < n and len(counterexamples) < batch_limit:
        X, rows, inside, target = draws.take(min(chunk, n - tested))
        satisfied = draws.mask(f)
        used, hits = len(X), len(rows)
        for i in np.flatnonzero(satisfied != target).tolist():
            x = draws.distribution.point(inside[i])
            if x in counterexamples:
                continue
            counterexamples[x] = 0 if satisfied[i] else 1
            if len(counterexamples) == batch_limit:
                used, hits = int(rows[i]) + 1, i + 1
                break
        draws.consume(used)
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
    draws: Draws,
    n_target: int,
    max_draws: Optional[int] = None,
) -> Tuple[Optional[float], int, int]:
    """Agreement of f with the model on draws inside the query region.

    Takes draws until n_target in-region points were seen (or max_draws
    total), consuming them up to the last of those; returns (accuracy,
    in_region_count, draws), accuracy None when nothing landed inside the
    region.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    if max_draws is None:
        max_draws = 50 * n_target
    hits = 0
    agree = 0
    taken = 0
    while taken < max_draws and hits < n_target:
        X, rows, inside, target = draws.take(min(_ESTIMATE_CHUNK, max_draws - taken))
        k = min(len(rows), n_target - hits)
        used = len(X) if hits + k < n_target else int(rows[k - 1]) + 1
        agree += int(np.count_nonzero(draws.mask(f)[:k] == target[:k]))
        draws.consume(used)
        hits += k
        taken += used
    if hits == 0:
        return None, 0, taken
    return agree / hits, hits, taken
