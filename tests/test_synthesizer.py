"""Grammar classes, ordered enumeration, and the two synthesizers.

The oracle for `enumerate_formulas` and `synthesize` is an independent
brute-force construction: materialize every DNF of the class with
itertools.combinations, sort by the candidate order, and compare. It shares
no code with the lazy level-by-level recursion it checks.
"""

import functools
import gc
import itertools
import json
import math
import random
import re
import time
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pacexplain import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolAtom,
    Grammar,
    GrammarError,
    GrammarFeature,
    InconsistentSampleError,
    Not,
    Or,
    Sample,
    SynthesisDeadlineError,
    compare,
    default_grammar,
    enumerate_formulas,
    evaluate,
    evaluate_mask,
    export_sygus_if,
    order_key,
    render,
    size,
    synthesize,
    synthesize_general,
)
from pacexplain import synthesizer
from pacexplain.synthesizer import DEFAULT_CONSTANTS, GRAMMAR_OPS, GeneralLearner, OccamLearner

from brute_force import brute_force_class
from reference import is_consistent


BOOL2 = Grammar(
    (GrammarFeature(0, "bool"), GrammarFeature(1, "bool")),
    max_clauses=2,
    max_literals_per_clause=2,
)
REAL1 = Grammar(
    (GrammarFeature(0, "real", (0.25, 0.75), ("<", ">")),),
    max_clauses=2,
    max_literals_per_clause=2,
)
MIXED = Grammar(
    (GrammarFeature(0, "bool"), GrammarFeature(1, "real", (0.5,), ("<", ">"))),
    max_clauses=2,
    max_literals_per_clause=3,
)
# three clauses: the levels of size 5 and 6 mix the clause sizes (1,1,3) with
# (1,2,2), and (1,2,3) with (2,2,2)
MIXED3 = Grammar(MIXED.features, max_clauses=3, max_literals_per_clause=3)
ENUMERATED = pytest.mark.parametrize(
    "g", [BOOL2, REAL1, MIXED, MIXED3], ids=["bool2", "real1", "mixed", "mixed3"]
)


@ENUMERATED
def test_enumeration_equals_brute_force(g):
    want = brute_force_class(g)
    got = list(enumerate_formulas(g))
    assert got == want


def test_enumeration_class_size_frozen():
    # 4 literals, 4+6 clauses, 10+45 DNFs, plus the two constants
    assert len(list(enumerate_formulas(BOOL2))) == 57


def test_enumeration_first_candidates_frozen():
    g = Grammar((GrammarFeature(0, "bool"),), max_clauses=1, max_literals_per_clause=1)
    assert [render(f) for f in enumerate_formulas(g)] == [
        "false",
        "true",
        "x0",
        "(not x0)",
    ]


@ENUMERATED
def test_enumeration_strictly_increasing_and_unique(g):
    stream = list(enumerate_formulas(g))
    for prev, nxt in zip(stream, stream[1:]):
        assert compare(prev, nxt) == -1
    assert len({render(f) for f in stream}) == len(stream)


def test_enumeration_respects_bounds():
    g = Grammar(
        (GrammarFeature(0, "bool"), GrammarFeature(1, "bool"), GrammarFeature(2, "bool")),
        max_clauses=2,
        max_literals_per_clause=2,
    )
    for f in enumerate_formulas(g):
        clauses = f.children if isinstance(f, Or) else (f,)
        assert len(clauses) <= 2
        for clause in clauses:
            assert size(clause) <= 2


def test_enumeration_without_constants():
    g = Grammar(
        (GrammarFeature(0, "bool"),),
        max_clauses=1,
        max_literals_per_clause=1,
        include_constants=False,
    )
    assert [render(f) for f in enumerate_formulas(g)] == ["x0", "(not x0)"]


# --- samples -----------------------------------------------------------------


def test_sample_add_and_duplicates():
    s = Sample()
    assert s.add((0.0, 1.0), 1) is True
    assert s.add((0.0, 1.0), 1) is False
    assert len(s) == 1
    with pytest.raises(InconsistentSampleError):
        s.add((0.0, 1.0), 0)
    with pytest.raises(ValueError):
        s.add((1.0, 1.0), 2)
    s.add((1.0, 1.0), 0)
    assert s.entries == [((0.0, 1.0), 1), ((1.0, 1.0), 0)]


def test_sample_from_iterable_and_is_consistent():
    s = Sample([((1.0, 0.0), 1), ((0.0, 0.0), 0)])
    assert is_consistent(BoolAtom(0), s)
    assert not is_consistent(Not(BoolAtom(0)), s)
    assert is_consistent(TRUE, Sample())


# --- occam synthesis ----------------------------------------------------------


GRID = (0.0, 0.3, 0.6, 1.0)
sample_points = st.lists(
    st.tuples(st.sampled_from(GRID), st.sampled_from(GRID), st.sampled_from(GRID)),
    min_size=0,
    max_size=6,
)
grammars = st.sampled_from(
    [
        BOOL2,
        MIXED,
        MIXED3,
        Grammar(
            (
                GrammarFeature(1, "real", (0.25, 0.5), ("<", ">")),
                GrammarFeature(2, "bool"),
            ),
            max_clauses=2,
            max_literals_per_clause=2,
        ),
        Grammar(
            (GrammarFeature(0, "bool"), GrammarFeature(2, "bool")),
            max_clauses=2,
            max_literals_per_clause=2,
            include_constants=False,
        ),
    ]
)


def _random_sample(points, rnd):
    sample = Sample()
    for x in points:
        label = rnd.choice((0, 1))
        try:
            sample.add(x, label)
        except InconsistentSampleError:
            pass
    return sample


@given(grammars, sample_points, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_synthesize_equals_first_consistent_scan(g, points, rnd):
    sample = _random_sample(points, rnd)
    want = next(
        (f for f in enumerate_formulas(g) if is_consistent(f, sample)), None
    )
    got = synthesize(sample, g)
    assert got == want
    if got is not None:
        assert is_consistent(got, sample)


@functools.lru_cache(maxsize=None)
def _stream(g):
    return list(enumerate_formulas(g))


def _first_consistent(g, sample):
    return next((f for f in _stream(g) if is_consistent(f, sample)), None)


@functools.lru_cache(maxsize=None)
def _brute_force_stream(g):
    return brute_force_class(g)


@ENUMERATED
@given(sample_points, sample_points, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_resumed_scan_after_refuted_conjecture_equals_full_scan(g, first, more, rnd):
    """The occam loop's step: S1 grows to S2 by counterexamples to the learner's answer."""
    sample = _random_sample(first, rnd)
    learner = OccamLearner(g)
    for x, label in sample:
        learner.add(x, label)
    prev = learner.next()
    assume(prev is not None)
    for x in more:
        label = rnd.choice((int(not evaluate(prev, x)), rnd.choice((0, 1))))
        try:
            if sample.add(x, label):
                learner.add(x, label)
        except InconsistentSampleError:
            pass
    assume(not is_consistent(prev, sample))
    assert learner.next() == synthesize(sample, g)


def test_synthesize_after_a_constant_starts_at_the_first_clause():
    only_pos = [((0.0, 0.0), 1), ((1.0, 0.0), 1)]
    learner = OccamLearner(BOOL2)
    assert learner.next() is FALSE
    for x, label in only_pos:
        learner.add(x, label)
    assert learner.next() is TRUE
    # true is still consistent: the next answer is the first clause after it
    assert learner.next() == Not(BoolAtom(1))
    noconst = OccamLearner(Grammar(BOOL2.features, 2, 2, include_constants=False))
    assert noconst.next() == BoolAtom(0)
    for x, label in only_pos:
        noconst.add(x, label)
    assert noconst.next() == Not(BoolAtom(1))


NOCONST = Grammar(MIXED.features, 2, 2, include_constants=False)
# real features only, three clauses of up to three literals: 471 candidates,
# with two-clause prefixes and paused last-clause ranges whose records die
REAL3 = Grammar(
    (
        GrammarFeature(0, "real", (0.5,), ("<", ">")),
        GrammarFeature(2, "real", (0.25, 0.75), ("<",)),
    ),
    max_clauses=3,
    max_literals_per_clause=3,
)
# twelve literals that each hold one grid value in four: after a negative
# kills a two-clause answer's first clause, a later clause often holds no
# negative, so a scan that resumed the dead range would return it
NARROW = Grammar(
    tuple(GrammarFeature(j, "real", (0.25, 0.75), ("<", ">")) for j in range(3)),
    max_clauses=2,
    max_literals_per_clause=2,
)


@pytest.mark.parametrize(
    "g",
    [BOOL2, REAL1, MIXED, MIXED3, NOCONST, REAL3, NARROW],
    ids=["bool2", "real1", "mixed", "mixed3", "noconst", "real3", "narrow"],
)
@pytest.mark.parametrize("strategy", ["occam", "general"])
@given(st.lists(sample_points, min_size=1, max_size=6), st.integers(0, 2**32 - 1))
# on NARROW, a negative kills the answer's first clause in the third round
@example(
    rounds=[[(1.0, 0.6, 0.0), (0.3, 0.0, 0.3)], [(1.0, 0.6, 0.6)], [(0.6, 0.3, 0.3)]],
    label_seed=0,
)
@settings(max_examples=60, deadline=None)
def test_learner_fed_round_by_round_equals_one_shot(g, strategy, rounds, label_seed):
    """Each answer equals the one-shot learner on the sample accumulated so far.

    The occam learner gets counterexamples to its last answer in every round
    (its first point, at least, is one); the general learner gets any points.
    """
    rnd = random.Random(label_seed)
    occam = strategy == "occam"
    learner = OccamLearner(g) if occam else GeneralLearner(g)
    sample = Sample()

    def one_shot():
        if occam:  # from an oracle that shares no code with the learner
            return next((f for f in _brute_force_stream(g) if is_consistent(f, sample)), None)
        # the cover does not depend on the order of the points
        want = synthesize_general(sample, g)
        assert synthesize_general(Sample(reversed(sample.entries)), g) == want
        return want

    for points in rounds:
        answer = learner.next()
        assert answer == one_shot()
        if occam and answer is None:
            return
        for j, x in enumerate(points):
            label = rnd.choice((0, 1))
            if occam and (j == 0 or rnd.random() < 0.5):
                label = int(not evaluate(answer, x))
            try:
                if sample.add(x, label):
                    learner.add(x, label)
            except InconsistentSampleError:
                pass
        if occam and is_consistent(answer, sample):
            return  # no counterexample landed: the next answer comes after this one
    assert learner.next() == one_shot()


# both grammar ops and both kinds of feature; the points sit on the
# constants, between them and past them
ALL_OPS = Grammar(
    (
        GrammarFeature(0, "bool"),
        GrammarFeature(1, "real", (0.25, 0.5, 1.0), ("<", ">")),
        GrammarFeature(2, "bool"),
        GrammarFeature(3, "real", (0.0, 0.5), (">",)),
    ),
    max_clauses=2,
    max_literals_per_clause=2,
)
ON_CONSTANTS = st.sampled_from((0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 2.0, math.inf, math.nan))


@given(st.lists(st.tuples(*[ON_CONSTANTS] * 4), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_add_tests_each_literal_as_evaluate_does(points):
    # two learners of one grammar share its literal tests, built once
    for learner in (OccamLearner(ALL_OPS), OccamLearner(ALL_OPS)):
        assert learner._tests is ALL_OPS.literal_tests()
        for k, x in enumerate(points):
            learner.add(x, k % 2)
        for i, lit in enumerate(ALL_OPS.literals()):
            for label, masks in ((0, learner._masks_n), (1, learner._masks_p)):
                # the k-th point has label k % 2 and is bit k // 2 of its label's masks
                want = sum(
                    1 << (k // 2)
                    for k, x in enumerate(points)
                    if k % 2 == label and evaluate(lit, x)
                )
                assert masks[i] == want, (render(lit), label)


def _clauses_of(f):
    return list(f.children) if isinstance(f, Or) else [f]


def _later_clause_holds_no_negative(g, clause, sample):
    """Whether some clause of the same size after `clause` holds no negative."""
    k = size(clause)
    clauses = [c[0] if k == 1 else And(c) for c in itertools.combinations(g.literals(), k)]
    negatives = [x for x, label in sample if not label]
    return any(
        not any(evaluate(c, x) for x in negatives)
        for c in clauses[clauses.index(clause) + 1:]
    )


BOOL3 = default_grammar(["bool"] * 3, max_clauses=2, max_literals_per_clause=2)


def test_learner_boundary_ranges_equal_first_consistent_scan():
    """Drive the learner through the edges of its last-clause search.

    Over seeded random rounds on five grammars, every answer must equal the
    first consistent candidate of the brute-force class, and each of these
    must happen:
    - "last combination": a refuted answer's last clause is the last clause
      of its size, so its range has nothing left;
    - "same size": an answer's last two clauses have the same size, so the
      last clause had to follow the prefix's last clause;
    - "killed prefix": a negative counterexample satisfies a clause of the
      answer's prefix while a later last clause would still hold no
      negative, so the paused range must notice that its prefix died.
    """
    seen = {"last combination": 0, "same size": 0, "killed prefix": 0}
    rnd = random.Random(0)
    for g in (BOOL2, BOOL3, MIXED, MIXED3, REAL3):
        lits = g.literals()
        brute = brute_force_class(g)  # an oracle that shares no code with the learner
        for _ in range(150):
            learner = OccamLearner(g)
            sample = Sample()
            answer = learner.next()
            while answer is not None:
                want = next((f for f in brute if is_consistent(f, sample)), None)
                assert answer == want, (g, sample.entries)
                clauses = _clauses_of(answer)
                if len(clauses) > 1 and size(clauses[-1]) == size(clauses[-2]):
                    seen["same size"] += 1
                refuted = False
                for _ in range(40):
                    x = tuple(rnd.choice(GRID) for _ in range(3))
                    label = int(not evaluate(answer, x))
                    if rnd.random() < 0.3:
                        label = rnd.choice((0, 1))
                    try:
                        if not sample.add(x, label):
                            continue
                    except InconsistentSampleError:
                        continue
                    learner.add(x, label)
                    if label != evaluate(answer, x):
                        refuted = True
                        break
                if not refuted:
                    break
                if not label and any(evaluate(c, x) for c in clauses[:-1]):
                    seen["killed prefix"] += _later_clause_holds_no_negative(
                        g, clauses[-1], sample
                    )
                k = size(clauses[-1])
                seen["last combination"] += clauses[-1] == (
                    lits[-1] if k == 1 else And(tuple(lits[-k:]))
                )
                answer = learner.next()
            else:
                assert not any(is_consistent(f, sample) for f in brute)
    assert all(seen.values()), seen


def _hits_of(g, sample, need, k):
    """The k-literal clauses, as literal places in combinations order, that
    hold every positive of bitmask `need` and no negative of the sample."""
    lits = g.literals()
    positives = [x for x, label in sample if label]
    negatives = [x for x, label in sample if not label]
    chosen = [x for b, x in enumerate(positives) if need >> b & 1]
    return [
        combo
        for combo in itertools.combinations(range(len(lits)), k)
        if all(all(evaluate(lits[i], x) for i in combo) for x in chosen)
        and not any(all(evaluate(lits[i], x) for i in combo) for x in negatives)
    ]


@pytest.mark.parametrize("g", [MIXED3, REAL3], ids=["mixed3", "real3"])
@pytest.mark.parametrize("seed", range(4))
def test_last_clause_memo_equals_a_walk_from_the_first_combination(g, seed):
    """`_last_clause` keeps each (need, k) pair's hits between calls.

    The learner is stepped past its answers, with positives only, until a
    memo entry holds two hits; then a negative that the second hit holds
    and the first does not is added, and the learner is driven on by random
    points. After every step each entry must be a gap-free prefix of the
    pair's hits on the sample as it is now (all of them once its walk is
    used up), and each answer the first member of the brute-force class
    after the previous answer that is consistent with the sample.
    """
    rnd = random.Random(seed)
    brute = brute_force_class(g)  # an oracle that shares no code with the learner
    lits = g.literals()
    learner = OccamLearner(g)
    sample = Sample()
    answer = None

    def check_memo():
        for (need, k), (found, walk) in learner._hits.items():
            hits = _hits_of(g, sample, need, k)
            assert found == (hits if walk is None else hits[:len(found)]), (need, k)

    def step():
        start = 0 if answer is None else brute.index(answer) + 1
        want = next((f for f in brute[start:] if is_consistent(f, sample)), None)
        got = learner.next()
        assert got == want, sample.entries
        check_memo()
        return got

    def add(x, label):
        if sample.add(x, label):
            learner.add(x, label)
        check_memo()

    add(tuple(rnd.choice(GRID) for _ in range(3)), 1)
    while not any(len(found) >= 2 for found, _ in learner._hits.values()):
        answer = step()
        assert answer is not None
    found = next(found for found, _ in learner._hits.values() if len(found) >= 2)
    first, second = ([lits[i] for i in clause] for clause in found[:2])
    x = next(
        x
        for x in itertools.product(GRID, repeat=3)
        if all(evaluate(lit, x) for lit in second)
        and not all(evaluate(lit, x) for lit in first)
        and x not in dict(sample.entries)
    )
    add(x, 0)
    assert not learner._hits  # a negative clears the memo
    for _ in range(30):
        answer = step()
        if answer is None:
            break
        x = tuple(rnd.choice(GRID) for _ in range(3))
        try:
            add(x, rnd.choice((0, 1, int(not evaluate(answer, x)))))
        except InconsistentSampleError:
            pass


def test_synthesize_empty_sample_returns_least_candidate():
    assert synthesize(Sample(), BOOL2) is FALSE
    noconst = Grammar(
        (GrammarFeature(0, "bool"),),
        max_clauses=1,
        max_literals_per_clause=1,
        include_constants=False,
    )
    assert synthesize(Sample(), noconst) == BoolAtom(0)


def test_synthesize_constants_cover_pure_samples():
    g = BOOL2
    only_neg = Sample([((0.0, 0.0), 0), ((1.0, 1.0), 0)])
    assert synthesize(only_neg, g) is FALSE
    only_pos = Sample([((0.0, 0.0), 1), ((1.0, 1.0), 1)])
    assert synthesize(only_pos, g) is TRUE


def test_synthesize_exhausts_class_to_none():
    g = Grammar((GrammarFeature(0, "bool"),), max_clauses=2, max_literals_per_clause=2)
    # the two points agree on feature 0, so no formula over it separates them
    sample = Sample([((0.0, 0.0), 1), ((0.0, 1.0), 0)])
    assert synthesize(sample, g) is None


def test_synthesize_finds_known_minimal_formula():
    g = default_grammar(["bool"] * 3, max_clauses=2, max_literals_per_clause=2)
    target = Or((And((BoolAtom(0), Not(BoolAtom(1)))), BoolAtom(2)))
    sample = Sample()
    for bits in itertools.product((0.0, 1.0), repeat=3):
        sample.add(bits, int(evaluate(target, bits)))
    assert synthesize(sample, g) == target


def test_synthesize_deadline_fires():
    g = default_grammar(["bool"] * 10, max_clauses=2, max_literals_per_clause=4)
    sample = Sample()
    # xor labels over the first two features: thousands of candidates precede
    # the first consistent one, so an already-expired deadline must fire
    for a in (0.0, 1.0):
        for b in (0.0, 1.0):
            sample.add((a, b) + (0.0,) * 8, int(a != b))
    with pytest.raises(SynthesisDeadlineError):
        synthesize(sample, g, deadline=time.perf_counter() - 1.0)
    # without a deadline the scan reaches the two-clause xor form
    assert synthesize(sample, g) == Or(
        (
            And((BoolAtom(0), Not(BoolAtom(1)))),
            And((BoolAtom(1), Not(BoolAtom(0)))),
        )
    )


def _xor_sample():
    sample = Sample()
    for a in (0.0, 1.0):
        for b in (0.0, 1.0):
            sample.add((a, b) + (0.0,) * 8, int(a != b))
    return sample


def test_expired_deadline_fires_on_a_class_without_a_consistent_member():
    # no one clause of up to 4 of 20 literals holds both positives of the
    # xor, so the scan skips a range and reads the expired deadline
    g = default_grammar(["bool"] * 10, max_clauses=1, max_literals_per_clause=4)
    with pytest.raises(SynthesisDeadlineError):
        synthesize(_xor_sample(), g, deadline=time.perf_counter() - 1.0)
    assert synthesize(_xor_sample(), g) is None


def test_no_two_clause_explanation_of_random_points():
    """30 random points over 6 real features, about 70% positive."""
    rnd = random.Random(0)
    sample = Sample()
    for _ in range(30):
        sample.add(tuple(rnd.random() for _ in range(6)), int(rnd.random() < 0.7))
    g = default_grammar(["real"] * 6, max_clauses=2, max_literals_per_clause=3)
    assert synthesize(sample, g) is None


# --- general (cover) synthesis -------------------------------------------------


CELL_G = Grammar(
    (GrammarFeature(0, "real", (0.25, 0.5, 0.75), ("<", ">")),),
    max_clauses=8,
    max_literals_per_clause=4,
)


def test_cover_brackets_interior_point():
    s = Sample([((0.3,), 1)])
    assert render(synthesize_general(s, CELL_G)) == "(and (< x0 0.5) (> x0 0.25))"


def test_cover_widens_on_constant_point():
    s = Sample([((0.5,), 1)])
    assert render(synthesize_general(s, CELL_G)) == "(and (< x0 0.75) (> x0 0.25))"


def test_cover_edge_bins_use_single_literal():
    assert render(synthesize_general(Sample([((0.1,), 1)]), CELL_G)) == "(< x0 0.25)"
    assert render(synthesize_general(Sample([((0.9,), 1)]), CELL_G)) == "(> x0 0.75)"


def test_cover_pins_boolean_features():
    g = Grammar(
        (GrammarFeature(0, "bool"), GrammarFeature(1, "bool")),
        max_clauses=4,
        max_literals_per_clause=4,
    )
    s = Sample([((1.0, 0.0), 1)])
    assert render(synthesize_general(s, g)) == "(and x0 (not x1))"


def test_cover_merges_points_in_one_cell():
    s = Sample([((0.3,), 1), ((0.35,), 1)])
    f = synthesize_general(s, CELL_G)
    assert render(f) == "(and (< x0 0.5) (> x0 0.25))"


def test_cover_unions_distinct_cells():
    s = Sample([((0.3,), 1), ((0.6,), 1)])
    f = synthesize_general(s, CELL_G)
    assert isinstance(f, Or)
    assert len(f.children) == 2
    assert is_consistent(f, s)


def test_cover_rejects_negative_in_covered_cell():
    s = Sample([((0.3,), 1), ((0.4,), 0)])
    assert synthesize_general(s, CELL_G) is None


def test_cover_keeps_negative_in_other_cell():
    s = Sample([((0.3,), 1), ((0.6,), 0)])
    f = synthesize_general(s, CELL_G)
    assert f is not None
    assert is_consistent(f, s)


def test_cover_respects_bounds():
    tight = Grammar(
        (GrammarFeature(0, "real", (0.25, 0.5, 0.75), ("<", ">")),),
        max_clauses=1,
        max_literals_per_clause=4,
    )
    s = Sample([((0.3,), 1), ((0.6,), 1)])
    assert synthesize_general(s, tight) is None
    narrow = Grammar(
        (GrammarFeature(0, "real", (0.25, 0.5, 0.75), ("<", ">")),),
        max_clauses=8,
        max_literals_per_clause=1,
    )
    assert synthesize_general(Sample([((0.3,), 1)]), narrow) is None


def test_cover_empty_sample():
    assert synthesize_general(Sample(), CELL_G) is FALSE
    noconst = Grammar(
        (GrammarFeature(0, "real", (0.5,), ("<", ">")),),
        max_clauses=2,
        max_literals_per_clause=2,
        include_constants=False,
    )
    assert synthesize_general(Sample(), noconst) is None


@given(
    st.lists(
        st.tuples(
            st.floats(0, 1, allow_nan=False).filter(lambda v: v not in (0.25, 0.5, 0.75)),
            st.sampled_from((0.0, 1.0)),
        ),
        min_size=1,
        max_size=12,
    )
)
@settings(max_examples=60, deadline=None)
def test_cover_consistent_whenever_it_returns(entries):
    g = Grammar(
        (GrammarFeature(0, "real", (0.25, 0.5, 0.75), ("<", ">")), GrammarFeature(1, "bool")),
        max_clauses=16,
        max_literals_per_clause=4,
    )
    sample = Sample()
    for x, flag in entries:
        try:
            sample.add((x, flag), 1 if x > 0.5 else 0)
        except InconsistentSampleError:
            pass
    f = synthesize_general(sample, g)
    assert f is not None
    assert is_consistent(f, sample)


class ScalarCover:
    """The general learner's cover with scalar `evaluate` loops, as it was
    before clauses and negatives were kept as literal bitsets. `add` names
    the test that failed the cover, if one did."""

    def __init__(self, g):
        self.g, self.clauses, self.negatives, self.failed = g, [], [], False

    def add(self, x, label):
        if self.failed:
            return None
        g = self.g
        if not label:
            self.negatives.append(x)
            self.failed = any(evaluate(c, x) for c in self.clauses)
            return "negative" if self.failed else None
        clause, _, _ = synthesizer._cell_clause(g, synthesizer._cell_signature(g, x))
        if clause in self.clauses:
            return None
        self.clauses.append(clause)
        if size(clause) > g.max_literals_per_clause or len(self.clauses) > g.max_clauses:
            self.failed = True
            return "bounds"
        self.failed = any(evaluate(clause, n) for n in self.negatives)
        return "clause" if self.failed else None

    def next(self):
        if self.failed or not (self.clauses or self.g.include_constants):
            return None
        if len(self.clauses) > 1:
            return Or(tuple(self.clauses))
        return self.clauses[0] if self.clauses else FALSE


def flat_key(g, clause):
    """The flat key of a cell clause, from its literals' places in the
    grammar's sorted literals."""
    lits = () if clause == TRUE else clause.children if isinstance(clause, And) else (clause,)
    places = tuple(sorted(g.literals().index(lit) for lit in lits))
    return (max(1, len(places)), places)


# `<` alone on every feature: the cell above every last constant is `true`
LESS_ONLY = Grammar(
    (GrammarFeature(0, "real", (0.25, 0.75), ("<",)), GrammarFeature(1, "real", (0.5,), ("<",))),
    max_clauses=3,
    max_literals_per_clause=2,
)


@st.composite
def cell_grammars(draw):
    feats = []
    for j in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            feats.append(GrammarFeature(j, "bool"))
        else:
            constants = draw(st.lists(st.sampled_from(DEFAULT_CONSTANTS), min_size=1, unique=True))
            ops = draw(st.sampled_from((("<",), (">",), ("<", ">"), (">", "<"))))
            feats.append(GrammarFeature(j, "real", tuple(constants), ops))
    return Grammar(tuple(feats), max_clauses=3, max_literals_per_clause=3)


@given(
    st.one_of(st.sampled_from([BOOL3, MIXED3, LESS_ONLY]), cell_grammars()),
    st.lists(st.tuples(*[st.sampled_from((0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0))] * 3),
             min_size=1, max_size=12),
)
@example(LESS_ONLY, [(1.0, 1.0, 1.0), (0.1, 1.0, 0.0), (0.5, 0.1, 0.0), (0.1, 0.1, 0.0)])
@example(BOOL3, [(1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 0.0)])
@example(MIXED3, [(1.0, 0.1, 0.0), (1.0, 0.5, 0.0), (1.0, 0.6, 0.0), (0.0, 0.5, 0.0)])
def test_flat_key_orders_cell_clauses_as_order_key_does(g, points):
    # the learner bisects its clauses by the flat key alone, so Or's
    # canonical order rests on it ordering and tying as order_key does
    cells = [synthesizer._cell_clause(g, synthesizer._cell_signature(g, x)) for x in points]
    clauses = [clause for clause, _, _ in cells]
    keys = {clause: key for clause, _, key in cells}
    assert all(keys[c] == flat_key(g, c) for c in clauses)
    assert sorted(clauses, key=keys.get) == sorted(clauses, key=order_key)
    for a, b in itertools.product(clauses, repeat=2):
        assert (keys[a] == keys[b]) == (a == b)


# room for more clauses and literals than ALL_OPS, and 68 literals, whose
# bitsets take two words; MANY has room for more clauses than the learner's
# first buffer of 8 rows
ROOMY = Grammar(ALL_OPS.features, max_clauses=6, max_literals_per_clause=6)
WIDE = default_grammar(["real"] * 11 + ["bool"], max_clauses=6, max_literals_per_clause=24)
MANY = default_grammar(["real"] * 11 + ["bool"], max_clauses=40, max_literals_per_clause=24)


@pytest.mark.parametrize(
    "g", [ALL_OPS, ROOMY, WIDE, MANY], ids=["all-ops", "roomy", "wide", "many"]
)
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_general_learner_fails_as_the_scalar_cover_does(g, data):
    # the learner's clauses also stay in strictly increasing order key,
    # beside their flat keys
    coordinate = ON_CONSTANTS if g is not MANY else st.one_of(ON_CONSTANTS, st.floats(0, 1))
    point = st.tuples(*[coordinate] * (g.features[-1].index + 1))
    size = 10 if g is not MANY else 40
    entries = data.draw(st.lists(st.tuples(point, st.sampled_from((0, 1, 1))), max_size=size))
    learner, scalar = GeneralLearner(g), ScalarCover(g)
    for x, label in entries:
        learner.add(x, label)
        scalar.add(x, label)
        assert learner.next() == scalar.next()
        keys = [order_key(c) for c in learner._clauses]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert learner._keys == [flat_key(g, c) for c in learner._clauses]


@pytest.mark.parametrize("g", [CELL_G, WIDE], ids=["one-feature", "wide"])
def test_general_learner_failure_paths(g):
    # a negative in a covered cell fails the cover, and so does a new clause
    # over a negative already added; a negative in another cell fails
    # neither, also when it leaves the cell only by the last feature, whose
    # literals are the last bits of the bitsets
    d = g.features[-1].index + 1
    inside, also_inside, outside = (0.3,) * d, (0.4,) * d, (0.6,) * d
    last_apart = inside[:-1] + (1.0,)
    for entries, path in (
        ([(inside, 1), (outside, 0), (last_apart, 0), (also_inside, 0)], "negative"),
        ([(outside, 0), (last_apart, 0), (also_inside, 0), (inside, 1)], "clause"),
    ):
        learner, scalar = GeneralLearner(g), ScalarCover(g)
        failed_by = []
        for x, label in entries:
            learner.add(x, label)
            failed_by.append(scalar.add(x, label))
            assert learner.next() == scalar.next()
        assert failed_by == [None, None, None, path]
        assert learner.next() is None


def test_general_conjecture_keeps_its_mask_as_the_cover_grows():
    # After a timeout, the post-run estimate evaluates the last conjecture
    # although the learner has taken more points since; neither a clause
    # written into the same buffer nor a grown buffer may change its mask.
    g = default_grammar(["real"] * 3, max_clauses=64, max_literals_per_clause=6)
    cells = list(itertools.product((0.1, 0.3, 0.6, 0.9), repeat=3))  # 64 cells
    X = np.array(cells + [(0.25, 0.5, 0.75)])
    learner = GeneralLearner(g)
    conjectures = []
    for k, x in enumerate(cells, 1):
        learner.add(x, 1)
        if k in (2, 5, 8):  # the buffer's first 8 rows, then it grows
            conjectures.append(learner.next())
    masks = [evaluate_mask(f, X).tolist() for f in conjectures]
    last = learner.next()
    assert len(last.children) == 64
    assert evaluate_mask(last, X).tolist() == [evaluate(last, x) for x in X]
    for f, mask in zip(conjectures, masks):
        assert evaluate_mask(f, X).tolist() == mask == [evaluate(f, x) for x in X]
        with pytest.raises(ValueError):
            f._cover.rows[0] = 0


def test_grammar_is_freed_once_its_runs_are_done():
    # the cell clauses a general run builds are kept on its grammar, not in a
    # module-level cache that outlives it
    g = default_grammar(["real", "real", "bool"], max_clauses=4, max_literals_per_clause=5)
    ref = weakref.ref(g)
    learner = GeneralLearner(g)
    for x in ((0.1, 0.3, 1.0), (0.6, 0.9, 0.0), (0.4, 0.2, 1.0)):
        learner.add(x, 1)
    conjecture = learner.next()
    assert len(conjecture.children) == 3
    del g, learner, conjecture
    gc.collect()
    assert ref() is None
    # equal grammars built apart still compare and hash as equal
    a, b = default_grammar(["real", "bool"]), default_grammar(["real", "bool"])
    GeneralLearner(a).add((0.1, 1.0), 1)  # only a has cells cached
    assert a == b and hash(a) == hash(b)


# --- grammar -------------------------------------------------------------------


def test_grammar_validation():
    with pytest.raises(GrammarError):
        Grammar((GrammarFeature(0, "bool"),), max_clauses=0)
    with pytest.raises(GrammarError):
        Grammar((GrammarFeature(0, "bool"),), max_literals_per_clause=0)
    with pytest.raises(GrammarError):
        Grammar((GrammarFeature(0, "bool"), GrammarFeature(0, "bool")))
    with pytest.raises(GrammarError):
        Grammar(("x0",))
    with pytest.raises(GrammarError):
        GrammarFeature(0, "real", (0.5,), ("<", "<="))
    with pytest.raises(GrammarError):
        GrammarFeature(0, "complex")


def test_grammar_rejects_duplicate_ops():
    # a repeated op would put the literal (< x0 0.5) into the class twice
    # and break the strictly increasing enumeration
    with pytest.raises(GrammarError, match="duplicate ops"):
        Grammar.from_json(
            {"features": [{"kind": "real", "constants": [0.5], "ops": ["<", "<"]}]}
        )


def test_grammar_rejects_an_empty_constants_or_ops_list():
    # only a missing list takes the default; an empty one allows no literal
    with pytest.raises(GrammarError, match="at least one constant"):
        GrammarFeature(0, "real", (), ("<",))
    with pytest.raises(GrammarError, match="at least one op"):
        GrammarFeature(0, "real", (0.5,), ())
    for key, message in (("constants", "at least one constant"), ("ops", "at least one op")):
        with pytest.raises(GrammarError, match=message):
            Grammar.from_json({"features": [{"kind": "real", key: []}]})
    default = GrammarFeature(0, "real")
    assert (default.constants, default.ops) == (DEFAULT_CONSTANTS, GRAMMAR_OPS)
    assert Grammar.from_json({"features": [{"kind": "real"}]}).features == (default,)


@pytest.mark.parametrize(
    "change",
    [
        {"index": 1.7},
        {"index": True},
        {"index": "1"},
        {"constants": [math.nan]},
        {"constants": [math.inf, 0.5]},
        {"constants": "0.5"},
        {"constants": [[0.5]]},
        {"ops": "<>"},
        {"ops": [["<"]]},
    ],
)
def test_grammar_feature_json_types(change):
    entry = {"index": 0, "kind": "real", "constants": [0.5], "ops": ["<"], **change}
    with pytest.raises(GrammarError):
        Grammar.from_json({"features": [entry]})


@pytest.mark.parametrize(
    "change",
    [
        {"maxClauses": 2.9},
        {"maxClauses": True},
        {"maxLiteralsPerClause": "2"},
        {"constants": "false"},
        {"constants": 0},
        {"features": {"index": 0}},
        {"features": [3]},
    ],
)
def test_grammar_json_types(change):
    obj = {"features": [{"index": 0, "kind": "bool"}], **change}
    with pytest.raises(GrammarError):
        Grammar.from_json(obj)


def test_grammar_feature_normalization():
    f = GrammarFeature(2, "real", (0.75, 0.25), (">", "<"))
    assert f.constants == (0.25, 0.75)
    b = GrammarFeature(1, "bool", (0.5,), ("<",))
    assert b.constants == ()
    assert b.ops == ()


def test_grammar_sorts_features_by_index():
    g = Grammar((GrammarFeature(3, "bool"), GrammarFeature(1, "bool")))
    assert [f.index for f in g.features] == [1, 3]


def test_grammar_literals_sorted():
    lits = MIXED.literals()
    keys = [order_key(l) for l in lits]
    assert keys == sorted(keys)
    assert BoolAtom(0) in lits
    assert Not(BoolAtom(0)) in lits
    assert Atom(1, "<", 0.5) in lits


def test_grammar_json_round_trip(data_dir):
    g = Grammar(
        (
            GrammarFeature(0, "bool", name="hair"),
            GrammarFeature(2, "real", (0.25, 0.5), ("<", ">"), name="age"),
        ),
        max_clauses=3,
        max_literals_per_clause=5,
        include_constants=False,
    )
    back = Grammar.from_json(json.loads(json.dumps(g.to_json())))
    assert back == g
    for path in sorted(data_dir.glob("*_grammar.json")):
        shipped = Grammar.from_json(json.loads(path.read_text()))
        assert Grammar.from_json(json.loads(json.dumps(shipped.to_json()))) == shipped


def test_grammar_from_json_resolves_names_and_positions():
    names = ["hair", "age"]
    g = Grammar.from_json(
        {"features": [{"name": "age", "kind": "real", "constants": [0.5], "ops": ["<"]}]},
        names,
    )
    assert g.features[0].index == 1
    with pytest.raises(GrammarError):
        Grammar.from_json({"features": [{"name": "height"}]}, names)
    positional = Grammar.from_json({"features": [{"kind": "bool"}, {"kind": "bool"}]})
    assert [f.index for f in positional.features] == [0, 1]
    with pytest.raises(GrammarError):
        Grammar.from_json({})


def test_default_grammar_kinds():
    g = default_grammar(["bool", "real"], names=["a", "b"])
    assert g.features[0].kind == "bool"
    assert g.features[1].constants == (0.25, 0.5, 0.75)
    assert g.features[1].ops == ("<", ">")
    assert g.features[1].name == "b"
    assert g.max_clauses == 2
    assert g.max_literals_per_clause == 4


# --- SyGuS export ----------------------------------------------------------------


def test_export_sygus_frozen_example():
    g = Grammar((GrammarFeature(0, "bool"),), max_clauses=2, max_literals_per_clause=2)
    sample = Sample([((1.0, 0.0), 1)])
    text = export_sygus_if(sample, g)
    assert text == (
        "(set-logic LRA)\n"
        "(synth-fun explain ((x0 Real) (x1 Real)) Bool\n"
        "  ((Start Bool) (Clause Bool) (Lit Bool))\n"
        "  ((Start Bool (true false Clause (or Clause Clause)))\n"
        "   (Clause Bool (Lit (and Lit Lit)))\n"
        "   (Lit Bool ((= x0 1.0) (not (= x0 1.0))))))\n"
        "(constraint (= (explain 1.0 0.0) true))\n"
        "(check-synth)\n"
    )


def _sexprs(text):
    """The s-expressions of text, as nested lists of atoms."""
    stack = [[]]
    for token in re.findall(r"[()]|[^\s()]+", text):
        if token == "(":
            stack.append([])
        elif token == ")":
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(token)
    assert len(stack) == 1
    return stack[0]


def _exported_bounds(text):
    """The largest clause count and clause length of any term the exported
    grammar derives from its start symbol, math.inf when a nonterminal
    derives itself; and the start symbol's alternatives."""
    (synth,) = [form for form in _sexprs(text) if form[0] == "synth-fun"]
    declared, rules = synth[4], synth[5]
    assert [d[0] for d in declared] == [r[0] for r in rules]
    alternatives = {name: alts for name, _, alts in rules}
    done = {}

    def bounds(term, open_):
        if isinstance(term, list) and term[0] in ("or", "and"):
            parts = [bounds(t, open_) for t in term[1:]]
            if term[0] == "or":
                return sum(c for c, _ in parts), max(n for _, n in parts)
            return math.prod(c for c, _ in parts), sum(n for _, n in parts)
        if term in ("true", "false"):
            return 1, 0
        if isinstance(term, list) or term not in alternatives:  # a literal
            return 1, 1
        if term in open_:
            return math.inf, math.inf
        if term not in done:
            parts = [bounds(t, open_ | {term}) for t in alternatives[term]]
            done[term] = max(c for c, _ in parts), max(n for _, n in parts)
        return done[term]

    start = rules[0][0]
    return bounds(start, frozenset()), alternatives


@pytest.mark.parametrize("kinds", [["bool"], ["real"], ["real", "bool"]])
@pytest.mark.parametrize("clauses,literals", [(1, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("constants", [True, False])
def test_export_sygus_keeps_the_clause_bounds(kinds, clauses, literals, constants):
    features = default_grammar(kinds).features
    g = Grammar(features, clauses, literals, constants)
    (most_clauses, longest), alternatives = _exported_bounds(export_sygus_if(Sample(), g))
    assert (most_clauses, longest) == (clauses, literals)
    # the constants are alternatives of the start symbol alone
    start, *rest = alternatives.values()
    assert ("true" in start and "false" in start) == constants
    assert not any("true" in alts or "false" in alts for alts in rest)


def test_export_sygus_structure():
    g = Grammar(
        (GrammarFeature(0, "real", (0.25,), ("<", ">")), GrammarFeature(1, "bool")),
        max_clauses=2,
        max_literals_per_clause=2,
    )
    sample = Sample([((0.1, 1.0), 1), ((0.8, 0.0), 0)])
    text = export_sygus_if(sample, g, feature_names=["hours per week", "has fins"])
    lines = text.strip().splitlines()
    assert lines[0] == "(set-logic LRA)"
    assert lines[-1] == "(check-synth)"
    assert sum(1 for l in lines if l.startswith("(constraint")) == len(sample)
    assert "hours_per_week" in text
    assert "has_fins" in text
    assert "(constraint (= (explain 0.8 0.0) false))" in text


def test_export_sygus_negative_constants_and_arity():
    g = Grammar(
        (GrammarFeature(0, "real", (-0.5,), ("<",)),),
        max_clauses=1,
        max_literals_per_clause=1,
    )
    text = export_sygus_if(Sample(), g, arity=1)
    assert "(< x0 (- 0.5))" in text
    inferred = export_sygus_if(Sample(), g)
    assert "(synth-fun explain ((x0 Real)) Bool" in inferred


def test_export_sygus_infers_arity_from_names():
    g = Grammar((GrammarFeature(0, "bool"),))
    text = export_sygus_if(Sample(), g, feature_names=["a", "b", "c"])
    assert "((a Real) (b Real) (c Real))" in text
