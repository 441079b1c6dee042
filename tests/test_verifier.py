import math
import tracemalloc

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
        # wrong on about 1 draw in 128, so cuts land past the first chunks
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
    max_draws=st.integers(1, 3000),
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
    # ε = 5e-4 at iteration 50 is a suite of 75306 draws; drawn as one block
    # it would take 75306 * 16 * 8 bytes, about 9.6 MB
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


@pytest.mark.parametrize("name", list(MASK_KINDS))
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_draws_mask_matches_evaluate(name, seed, data):
    # A run's conjectures, each the last cover plus the cells of a few
    # recent draws, with one unrelated cover and one formula without
    # bitsets among them, over takes and consumes that end mid-block and
    # cross into fresh blocks.
    kinds = MASK_KINDS[name]
    d = len(kinds)
    g = default_grammar(kinds, max_clauses=4096, max_literals_per_clause=2 * d)
    dist = default_distribution(kinds)
    tree = {"feature": 1, "threshold": 0.5, "le": {"leaf": "a"}, "gt": {"leaf": "b"}}
    query = FormulaQuery(parse("(< x1 0.8)", d), d)
    draws = Draws(dist, rng(seed), query, DecisionTreeModel(d, ("a", "b"), tree), "b")
    learner, other = GeneralLearner(g), GeneralLearner(g)
    recent = dist.sample_block(rng(seed + 1), 4)
    for x in recent[1:]:
        other.add(x.tolist(), 1)
    steps = data.draw(st.integers(4, 10))
    unrelated, plain = data.draw(
        st.lists(st.integers(1, steps - 1), min_size=2, max_size=2, unique=True)
    )
    for step in range(steps):
        if step == unrelated:
            f = other.next()
        elif step == plain:
            f = parse("(or (< x1 0.25) (and (> x1 0.5) (< x1 0.75)))", d)
        else:
            for _ in range(data.draw(st.integers(1, 3))):
                learner.add(recent[data.draw(st.integers(0, len(recent) - 1))].tolist(), 1)
            f = learner.next()
        for _ in range(data.draw(st.integers(1, 3))):
            recent, _, inside, _ = draws.take(data.draw(st.integers(1, 300)))
            mask = draws.mask(f)
            expected = [evaluate(f, tuple(x)) for x in inside]
            assert mask.tolist() == expected
            if mask.flags.writeable:
                mask[:] = ~mask  # a caller's write must not reach the memo
            draws.take(len(recent))
            assert draws.mask(f).tolist() == expected
            draws.consume(data.draw(st.integers(0, len(recent))))
