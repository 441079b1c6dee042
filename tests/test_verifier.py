import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacexplain import test_suite_size as suite_size
from pacexplain import (
    FALSE,
    TRUE,
    CosineBall,
    DecisionTreeModel,
    Draws,
    Empirical,
    FormulaQuery,
    TrueQuery,
    UniformBox,
    VerifierOutcome,
    default_distribution,
    default_grammar,
    estimate_query_accuracy,
    evaluate,
    load_dataset,
    parse,
    verify,
)
from pacexplain import synthesizer
from pacexplain import verifier
from pacexplain.synthesizer import GeneralLearner

from reference import violation_label


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def stream(model, query, target, dist, seed):
    return Draws(dist, rng(seed), query, model, target)


BOOL16 = default_distribution(["bool"] * 16)


def test_suite_size_frozen_values():
    assert suite_size(0.05, 0.05, 1) == 74
    assert suite_size(0.05, 0.05, 2) == 88
    assert suite_size(0.05, 0.05, 1) + suite_size(0.05, 0.05, 2) == 162
    assert suite_size(0.1, 0.1, 1) == 30
    assert suite_size(0.01, 0.01, 1) == 530


def test_suite_size_monotonic():
    sizes = [suite_size(0.05, 0.05, i) for i in range(1, 20)]
    assert sizes == sorted(sizes)
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    assert suite_size(0.01, 0.05, 1) > suite_size(0.05, 0.05, 1)
    assert suite_size(0.05, 0.01, 1) > suite_size(0.05, 0.05, 1)


def test_suite_size_validation():
    with pytest.raises(ValueError):
        suite_size(0.0, 0.05, 1)
    with pytest.raises(ValueError):
        suite_size(0.05, 1.0, 1)
    with pytest.raises(ValueError):
        suite_size(0.05, 0.05, 0)
    with pytest.raises(ValueError):
        suite_size(0.05, 0.05, 1.5)


def test_violation_label_rule(zoo_tree):
    inside = FormulaQuery(parse("(not x9)", 16), 16)
    fish = tuple(1.0 if j == 11 else 0.0 for j in range(16))
    finless = tuple(0.0 for _ in range(16))
    breathing = tuple(1.0 if j in (9, 11) else 0.0 for j in range(16))

    # formula wrongly rejects a model positive: label 1
    assert violation_label(fish, FALSE, inside, "fish", zoo_tree) == 1
    # formula wrongly accepts a model negative: label 0
    assert violation_label(finless, TRUE, inside, "fish", zoo_tree) == 0
    # agreement is no violation
    assert violation_label(fish, TRUE, inside, "fish", zoo_tree) is None
    assert violation_label(finless, FALSE, inside, "fish", zoo_tree) is None
    # outside the query nothing counts
    assert violation_label(breathing, TRUE, inside, "fish", zoo_tree) is None
    assert violation_label(breathing, FALSE, inside, "fish", zoo_tree) is None


def test_verify_pass_consumes_full_suite(zoo_tree):
    f = parse("(and x11 (not x9))", 16)
    out = verify(
        f, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 1),
        0.05, 0.05, 3,
    )
    assert out.passed
    assert out.counterexamples == ()
    assert out.suite_size == suite_size(0.05, 0.05, 3)
    assert out.tested_count == out.suite_size
    # the whole cube is in the region
    assert out.in_region_count == out.tested_count


def test_verify_short_circuits_on_first_violation(zoo_tree):
    out = verify(
        TRUE, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 2),
        0.05, 0.05, 1,
    )
    assert not out.passed
    assert len(out.counterexamples) == 1
    # a wrong-everywhere candidate dies in the first few draws
    assert out.tested_count < out.suite_size
    x, label = out.counterexamples[0]
    assert label == 0
    assert zoo_tree.classify(x) != "fish"


def test_verify_batch_limit(zoo_tree):
    out = verify(
        TRUE, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 2),
        0.05, 0.05, 1, batch_limit=5,
    )
    assert not out.passed
    assert len(out.counterexamples) == 5
    with pytest.raises(ValueError):
        verify(
            TRUE, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 2),
            0.05, 0.05, 1, batch_limit=0,
        )


def test_verify_deterministic_under_seed(zoo_tree):
    def run(seed):
        draws = stream(zoo_tree, TrueQuery(16), "fish", BOOL16, seed)
        return verify(TRUE, draws, 0.05, 0.05, 2, batch_limit=3)

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_verify_respects_query_region(zoo_tree):
    # inside (not x11) the tree never answers fish, so FALSE is perfect
    region = FormulaQuery(parse("(not x11)", 16), 16)
    out = verify(
        FALSE, stream(zoo_tree, region, "fish", BOOL16, 3),
        0.05, 0.05, 1,
    )
    assert out.passed
    # about half the draws have fins
    assert 0 < out.in_region_count < out.tested_count
    assert math.isclose(out.in_region_count / out.tested_count, 0.5, abs_tol=0.2)


def test_verify_collects_distinct_counterexamples():
    # three boolean features offer only a few points, so a long suite meets
    # the same violation again; the repeat is skipped, its draw still counted
    tree = DecisionTreeModel(3, ["no", "yes"], {
        "feature": 0, "threshold": 0.5,
        "le": {"leaf": "no"}, "gt": {"leaf": "yes"},
    })
    out = verify(
        FALSE, stream(tree, TrueQuery(3), "yes", default_distribution(["bool"] * 3), 4),
        0.05, 0.05, 1, batch_limit=5,
    )
    points = [x for x, _ in out.counterexamples]
    # x0 set on 4 of the 8 points: all of them fail, none twice
    assert sorted(points) == sorted(
        (1.0, b, c) for b in (0.0, 1.0) for c in (0.0, 1.0)
    )
    assert all(label == 1 for _, label in out.counterexamples)
    assert out.tested_count == out.suite_size


def test_estimate_true_error_const_true(zoo_tree):
    # fish needs fins and not breathes: exactly 1/4 of the uniform boolean
    # cube, so claiming fish everywhere is wrong on 3/4 of it
    acc, _, _ = estimate_query_accuracy(
        TRUE, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 5), 100000
    )
    assert math.isclose(1.0 - acc, 0.75, abs_tol=0.01)
    perfect = parse("(and x11 (not x9))", 16)
    acc, _, _ = estimate_query_accuracy(
        perfect, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 5), 2000
    )
    assert 1.0 - acc == 0.0
    with pytest.raises(ValueError):
        estimate_query_accuracy(
            TRUE, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 5), 0
        )


def test_estimate_query_accuracy(zoo_tree):
    f = parse("(and x11 (not x9))", 16)
    acc, hits, draws = estimate_query_accuracy(
        f, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 6), 500
    )
    assert acc == 1.0
    assert hits == 500
    assert draws == 500
    # an always-false region yields an undefined accuracy
    acc, hits, draws = estimate_query_accuracy(
        f, stream(zoo_tree, FormulaQuery(FALSE, 16), "fish", BOOL16, 6), 100
    )
    assert acc is None
    assert hits == 0
    assert draws == 5000  # the default cap, 50 draws per target hit
    # narrow regions stop at max_draws, not at the target
    narrow = FormulaQuery(parse("(and x0 (and x1 (and x2 x3)))", 16), 16)
    acc, hits, draws = estimate_query_accuracy(
        f, stream(zoo_tree, narrow, "fish", BOOL16, 6), 1000, max_draws=2000
    )
    assert hits < 1000
    assert draws == 2000
    with pytest.raises(ValueError):
        estimate_query_accuracy(
            f, stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 6), 0
        )


def test_estimate_accuracy_of_wrong_formula(zoo_tree):
    # x11 alone over-claims breathers with fins (1/4 of the cube)
    acc, hits, draws = estimate_query_accuracy(
        parse("x11", 16), stream(zoo_tree, TrueQuery(16), "fish", BOOL16, 9), 20000
    )
    assert hits == draws == 20000
    assert math.isclose(acc, 0.75, abs_tol=0.02)


# --- the block kernels against one-draw-at-a-time references -----------------


def scalar_verify(f, model, query, target, dist, epsilon, delta, iteration, r, batch_limit):
    """The scalar loop `verify` replaced: one draw, one test at a time."""
    n = suite_size(epsilon, delta, iteration)
    counterexamples = {}
    tested = 0
    in_region = 0
    for _ in range(n):
        x = dist.sample(r)
        tested += 1
        if not query.contains(x):
            continue
        in_region += 1
        satisfied = evaluate(f, x)
        if satisfied == (model.classify(x) == target) or x in counterexamples:
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


def scalar_estimate(f, model, query, target, dist, r, n_target, max_draws):
    """The scalar loop `estimate_query_accuracy` replaced."""
    hits = agree = draws = 0
    for _ in range(max_draws):
        x = dist.sample(r)
        draws += 1
        if not query.contains(x):
            continue
        hits += 1
        agree += evaluate(f, x) == (model.classify(x) == target)
        if hits >= n_target:
            break
    return (agree / hits if hits else None), hits, draws


def _cases(zoo_tree, iris_mlp, data_dir):
    iris = Empirical(load_dataset(str(data_dir / "iris.csv")), sigma=0.05)
    ball = CosineBall((0.6, 0.4, 0.8, 0.8), 0.5)
    return {
        # wrong on about 1 draw in 128, so a cut lands well inside its suite
        "zoo-rare": (
            parse("(and x11 (not x9) (not (and x0 x1 x2 x3 x4)))", 16),
            zoo_tree, TrueQuery(16), "fish", BOOL16,
        ),
        "zoo-region": (
            parse("x11", 16), zoo_tree, FormulaQuery(parse("(and x3 x5)", 16), 16),
            "fish", BOOL16,
        ),
        "iris-ball": (
            parse("(> x2 0.5)", 4), iris_mlp, ball, "virginica", UniformBox([0.0] * 4, [1.0] * 4),
        ),
        "iris-empirical": (parse("(> x3 0.75)", 4), iris_mlp, ball, "virginica", iris),
    }


@pytest.mark.parametrize("case", ["zoo-rare", "zoo-region", "iris-ball", "iris-empirical"])
@pytest.mark.parametrize("batch_limit", [1, 3])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), iteration=st.integers(1, 6))
def test_verify_matches_scalar_loop_and_stream(
    zoo_tree, iris_mlp, data_dir, case, batch_limit, seed, iteration
):
    f, model, query, target, dist = _cases(zoo_tree, iris_mlp, data_dir)[case]
    draws, b = Draws(dist, rng(seed), query, model, target), rng(seed)
    args = (f, model, query, target, dist, 0.01, 0.05)
    # two suites in a row: the second starts on the first one's leftover draws
    for i in (iteration, iteration + 1):
        got = verify(f, draws, 0.01, 0.05, i, batch_limit=batch_limit)
        assert got == scalar_verify(*args, i, b, batch_limit)
    # the next suite starts where the scalar loop would have started it
    X, _, _, _ = draws.take(1)
    assert dist.point(X[0]) == dist.sample(b)


@pytest.mark.parametrize("case", ["zoo-rare", "zoo-region", "iris-ball", "iris-empirical"])
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_target=st.integers(1, 1500),
    max_draws=st.integers(1, 12000),
)
def test_estimate_matches_scalar_loop_and_stream(
    zoo_tree, iris_mlp, data_dir, case, seed, n_target, max_draws
):
    f, model, query, target, dist = _cases(zoo_tree, iris_mlp, data_dir)[case]
    draws, b = Draws(dist, rng(seed), query, model, target), rng(seed)
    got = estimate_query_accuracy(f, draws, n_target, max_draws=max_draws)
    assert got == scalar_estimate(f, model, query, target, dist, b, n_target, max_draws)
    X, _, _, _ = draws.take(1)
    assert dist.point(X[0]) == dist.sample(b)


def test_verify_working_set_is_bounded(zoo_tree):
    # ε = 5e-4 at iteration 50 is a suite of 75307 draws; drawn as one block
    # it would take 75307 * 16 * 8 bytes, about 9.6 MB
    f = parse("(and x11 (not x9))", 16)
    dist = BOOL16
    n = suite_size(5e-4, 0.05, 50)
    whole_suite = n * dist.arity * 8
    tracemalloc.start()
    try:
        out = verify(f, stream(zoo_tree, TrueQuery(16), "fish", dist, 0), 5e-4, 0.05, 50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.passed and out.tested_count == n
    assert peak < whole_suite / 5


# Covers over one and over two words of literals: the second grammar has
# 10 * 6 + 3 * 2 = 66 literals.
MASK_KINDS = {
    "one-word": ["bool", "real", "bool"],
    "two-words": ["real"] * 10 + ["bool"] * 3,
}


def _cell_points(kinds):
    """A point in each cell of `default_grammar(kinds)`'s constant grid,
    those on a constant among them, lazily."""
    values = [(0.0, 1.0) if kind == "bool" else tuple(np.linspace(0, 1, 9)) for kind in kinds]
    return (list(x) for x in itertools.product(*values))


def _check_draws_masks(kinds, seed, data):
    """A run's conjectures, each the last cover plus the cells of a few
    recent draws, over takes and consumes that end mid-block and cross
    into fresh blocks, each mask checked against scalar `evaluate`. Among
    them: a step after which the learner's rows live in a doubled buffer;
    a step that adds exactly one clause, right after the conjecture it
    extends, so that the block's memo is one clause behind; two covers of
    another learner over the same grammar; the learner's last conjecture
    again, right after the one that extends it, as the post-run estimate
    evaluates it after a timeout; and a formula without bitsets. The fed
    points are recent draws, some with one coordinate moved."""
    d = len(kinds)
    g = default_grammar(kinds, max_clauses=4096, max_literals_per_clause=2 * d)
    dist = default_distribution(kinds)
    tree = {"feature": 1, "threshold": 0.5, "le": {"leaf": "a"}, "gt": {"leaf": "b"}}
    query = FormulaQuery(parse("(< x1 0.8)", d), d)
    draws = Draws(dist, rng(seed), query, DecisionTreeModel(d, ("a", "b"), tree), "b")
    learner, other = GeneralLearner(g), GeneralLearner(g)
    recent = dist.sample_block(rng(seed + 1), 4)
    conjectures = []

    def fed():
        # a recent draw, or one with a coordinate moved to another cell, so
        # that the draw itself fails the new clause on the literals of one
        # feature alone, which may all lie in the second word
        x = recent[data.draw(st.integers(0, len(recent) - 1))].tolist()
        if data.draw(st.booleans()):
            j = data.draw(st.integers(0, d - 1))
            x[j] = 1.0 - x[j] if kinds[j] == "bool" else (x[j] + 0.5) % 1.0
        return x

    steps = data.draw(st.integers(7, 10))
    grow, single, other_1, other_2, stale, plain = data.draw(
        st.permutations(range(1, steps)))[:6]
    folds = []  # the steps that folded one clause in place
    fold_clause = synthesizer._fold_clause

    def counted(*args):
        folds.append(step)
        return fold_clause(*args)

    for step in range(steps):
        if step in (other_1, other_2):
            for _ in range(data.draw(st.integers(1, 3))):
                other.add(fed(), 1)
            fs = [other.next()]
        elif step == single:
            # one new clause from recent draws, or from the grid once a few
            # of those gave none
            cells = _cell_points(kinds)
            while len(learner._clauses) < 2:
                learner.add(next(cells), 1)
            n, fs = len(learner._clauses), [learner.next()]
            for k in itertools.count():
                learner.add(fed() if k < 8 else next(cells), 1)
                if len(learner._clauses) > n:
                    break
            fs.append(learner.next())
            conjectures.append(fs[-1])
        else:
            if step == grow:
                buffer, cells = learner._words, _cell_points(kinds)
                while learner._words is buffer:
                    learner.add(next(cells), 1)
            for _ in range(data.draw(st.integers(1, 2))):
                learner.add(fed(), 1)
            fs = [learner.next()] + conjectures[-1:] * (step == stale)
            conjectures.append(fs[0])
        if step == plain:
            fs.append(parse("(or (< x1 0.25) (and (> x1 0.5) (< x1 0.75)))", d))
        for _ in range(data.draw(st.integers(1, 3))):
            recent, _, inside, _ = draws.take(data.draw(st.integers(1, 300)))
            for f in fs:
                with mock.patch.object(synthesizer, "_fold_clause", counted):
                    mask = draws.mask(f)
                expected = [evaluate(f, tuple(x)) for x in inside]
                assert mask.tolist() == expected
                if mask.flags.writeable:
                    mask[:] = ~mask  # a caller's write must not reach the memo
                draws.take(len(recent))
                assert draws.mask(f).tolist() == expected
            draws.consume(data.draw(st.integers(0, len(recent))))
    assert single in folds


@pytest.mark.parametrize("name", list(MASK_KINDS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_draws_mask_matches_evaluate(name, seed, data):
    _check_draws_masks(MASK_KINDS[name], seed, data)


@pytest.mark.parametrize(
    "cells", [lambda width: 1, lambda width: 5, lambda width: 2 * width],
    ids=["one-cell", "five-cells", "two-rows"],
)
@pytest.mark.parametrize("name", list(MASK_KINDS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_draws_mask_folds_across_slices(cells, name, seed, data):
    # With slices this small, a fold of several new clauses at a piece
    # that starts mid-block spans several slices, and the literal words
    # of a block are tested a row or a few at a time.
    width = 2 if name == "two-words" else 1
    with mock.patch.object(synthesizer, "_COVER_CELLS", cells(width)):
        _check_draws_masks(MASK_KINDS[name], seed, data)


def _check_folds_after_the_buffer_grows(kinds):
    """The learner's buffer doubles between two conjectures, so the second
    one's rows live in a new buffer; the block's memo still hands
    `_cover_mask` only the clauses added since the first one. A third
    conjecture's one new clause is folded in place: it is the cell of a
    drawn row with its last boolean turned from 1 to 0, so that row fails
    the clause only on `(not x_last)`, the last literal, which on two
    words lies in the second."""
    d = len(kinds)
    g = default_grammar(kinds, max_clauses=4096, max_literals_per_clause=2 * d)
    tree = {"feature": 1, "threshold": 0.5, "le": {"leaf": "a"}, "gt": {"leaf": "b"}}
    draws = Draws(default_distribution(kinds), rng(3), TrueQuery(d),
                  DecisionTreeModel(d, ("a", "b"), tree), "b")
    learner, cells = GeneralLearner(g), _cell_points(kinds)
    while len(learner._clauses) < 5:
        learner.add(next(cells), 1)
    first, buffer = learner.next(), learner._words
    while learner._words is buffer:
        learner.add(next(cells), 1)
    learner.add(next(cells), 1)
    second = learner.next()
    _, _, inside, _ = draws.take(200)
    for x in inside.tolist():
        if x[-1] == 1.0 and len(learner._clauses) == len(second.children):
            learner.add(x[:-1] + [0.0], 1)
    third = learner.next()
    folded = []
    cover_mask, fold_clause = synthesizer._cover_mask, synthesizer._fold_clause

    def counted(clauses, missing):
        folded.append(("many", clauses.tolist()))
        return cover_mask(clauses, missing)

    def counted_one(clause, missing, covered):
        folded.append(("one", [clause.tolist()]))
        return fold_clause(clause, missing, covered)

    with mock.patch.object(synthesizer, "_cover_mask", counted), \
            mock.patch.object(synthesizer, "_fold_clause", counted_one):
        for f in (first, second, third):
            assert draws.mask(f).tolist() == [evaluate(f, tuple(x)) for x in inside]
    n1, n2, n3 = len(first.children), len(second.children), len(third.children)
    assert n1 < len(buffer) < n2 and n3 == n2 + 1
    rows = learner._words.tolist()
    assert folded == [("many", rows[:n1]), ("many", rows[n1:n2]), ("one", rows[n2:n3])]


def test_draws_mask_folds_only_new_clauses_after_the_buffer_grows():
    for kinds in MASK_KINDS.values():
        _check_folds_after_the_buffer_grows(kinds)


class _CountingBlocks:
    """A distribution that records the size of each block drawn from it."""

    def __init__(self, dist):
        self.dist = dist
        self.arity = dist.arity
        self.blocks = []

    def sample_block(self, r, n):
        self.blocks.append(n)
        return self.dist.sample_block(r, n)

    def point(self, row):
        return self.dist.point(row)


@pytest.mark.parametrize("epsilon,iteration", [(0.05, 3), (5e-3, 10), (1e-3, 10)])
def test_verify_draws_nothing_past_a_passing_suite(zoo_tree, epsilon, iteration):
    # each piece is the rest of the suite, up to the cap, so a passing suite
    # on a fresh stream leaves the generator where drawing exactly its
    # suite would
    seed = 5
    dist = _CountingBlocks(BOOL16)
    draws = stream(zoo_tree, TrueQuery(16), "fish", dist, seed)
    out = verify(parse("(and x11 (not x9))", 16), draws, epsilon, 0.05, iteration)
    n = suite_size(epsilon, 0.05, iteration)
    assert out.passed and out.tested_count == n
    cap = verifier._VERIFY_MAX_CHUNK
    assert dist.blocks == [cap] * (n // cap) + [n % cap] * (n % cap > 0)
    reference = rng(seed)
    BOOL16.sample_block(reference, n)
    assert draws.rng.bit_generator.state == reference.bit_generator.state


ESTIMATE_BUDGET = verifier._ESTIMATE_BLOCK_DOUBLES


@pytest.mark.parametrize("case", ["zoo-rare", "zoo-region", "iris-ball", "iris-empirical"])
def test_estimate_blocks_stay_within_the_budget(zoo_tree, iris_mlp, data_dir, case):
    f, model, query, target, dist = _cases(zoo_tree, iris_mlp, data_dir)[case]
    counted = _CountingBlocks(dist)
    got = estimate_query_accuracy(f, Draws(counted, rng(4), query, model, target), 5000)
    assert got == scalar_estimate(f, model, query, target, dist, rng(4), 5000, 250000)
    assert len(counted.blocks) > 1
    assert max(counted.blocks) * dist.arity <= ESTIMATE_BUDGET


def test_estimate_inside_the_budget_draws_one_block(zoo_tree):
    # every draw of a TrueQuery is a hit, so n hits need exactly n draws
    n = ESTIMATE_BUDGET // BOOL16.arity
    for n_target in (1, 700, n):
        dist = _CountingBlocks(BOOL16)
        draws = stream(zoo_tree, TrueQuery(16), "fish", dist, 7)
        _, hits, taken = estimate_query_accuracy(parse("x11", 16), draws, n_target)
        assert hits == taken == n_target
        assert dist.blocks == [n_target]


def test_estimate_working_set_is_bounded(zoo_tree):
    # an empty region never hits, so the estimate takes its whole default
    # cap of 50 * 2000 draws, about 12.8 MB as one block
    f = parse("(and x11 (not x9))", 16)
    draws = stream(zoo_tree, FormulaQuery(FALSE, 16), "fish", BOOL16, 0)
    tracemalloc.start()
    try:
        got = estimate_query_accuracy(f, draws, 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (None, 0, 100000)
    assert peak < 4 * ESTIMATE_BUDGET * 8
