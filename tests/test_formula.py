"""Formula AST, candidate order, parser and renderer.

The evaluation oracle here is an independent clause-by-clause DNF
interpreter: it never calls the package's `evaluate`, so agreement between
the two is evidence, not a tautology.
"""

import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pacexplain import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolAtom,
    FormulaError,
    FormulaParseError,
    Grammar,
    GrammarFeature,
    Not,
    Or,
    compare,
    default_grammar,
    evaluate,
    evaluate_mask,
    order_key,
    parse,
    render,
    size,
)
from pacexplain import synthesizer
from pacexplain.formula import _canonical_node
from pacexplain.synthesizer import GeneralLearner

from reference import equivalent_on_grid, features_of

ARITY = 4


def eval_literal_oracle(lit, x):
    if lit is TRUE or isinstance(lit, type(TRUE)):
        return True
    if lit is FALSE or isinstance(lit, type(FALSE)):
        return False
    if isinstance(lit, Not):
        return not eval_literal_oracle(lit.child, x)
    if isinstance(lit, BoolAtom):
        return x[lit.feature] == 1
    v, c = x[lit.feature], lit.constant
    return {
        "<": v < c,
        "<=": v <= c,
        ">": v > c,
        ">=": v >= c,
        "=": v == c,
    }[lit.op]


def eval_dnf_oracle(f, x):
    clauses = f.children if isinstance(f, Or) else (f,)
    for clause in clauses:
        lits = clause.children if isinstance(clause, And) else (clause,)
        if all(eval_literal_oracle(lit, x) for lit in lits):
            return True
    return False


constants = st.floats(allow_nan=False, allow_infinity=False, width=32)
literals = st.one_of(
    st.builds(BoolAtom, st.integers(0, ARITY - 1)),
    st.builds(BoolAtom, st.integers(0, ARITY - 1)).map(Not),
    st.builds(Atom, st.integers(0, ARITY - 1), st.sampled_from(("<", "<=", ">", ">=", "=")), constants),
)
clauses = st.one_of(
    literals,
    st.lists(literals, min_size=2, max_size=4).map(lambda ls: And(tuple(ls))),
)
dnfs = st.one_of(
    st.just(TRUE),
    st.just(FALSE),
    clauses,
    st.lists(clauses, min_size=2, max_size=4).map(lambda ls: Or(tuple(ls))),
)
formulas = st.recursive(
    st.one_of(st.just(TRUE), st.just(FALSE), literals),
    lambda kids: st.one_of(
        kids.map(Not),
        st.lists(kids, min_size=2, max_size=3).map(lambda ls: And(tuple(ls))),
        st.lists(kids, min_size=2, max_size=3).map(lambda ls: Or(tuple(ls))),
    ),
    max_leaves=12,
)
points = st.lists(
    st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0, 1, allow_nan=False)),
    min_size=ARITY,
    max_size=ARITY,
)


@given(dnfs, points)
def test_evaluate_agrees_with_dnf_oracle(f, x):
    assert evaluate(f, x) == eval_dnf_oracle(f, x)


def _constants(f):
    if isinstance(f, Atom):
        return {f.constant}
    if isinstance(f, Not):
        return _constants(f.child)
    if isinstance(f, (And, Or)):
        return set().union(*(_constants(c) for c in f.children))
    return set()


@given(formulas, st.data())
def test_evaluate_mask_matches_evaluate(f, data):
    # coordinates land on the formula's own constants, so every comparison
    # is also tested at equality
    pool = sorted(_constants(f) | {0.0, 1.0})
    coordinate = st.one_of(st.sampled_from(pool), constants)
    xs = data.draw(
        st.lists(st.lists(coordinate, min_size=ARITY, max_size=ARITY), max_size=12)
    )
    X = np.array(xs, dtype=float).reshape(len(xs), ARITY)
    mask = evaluate_mask(f, X)
    assert mask.dtype == bool
    assert mask.tolist() == [evaluate(f, x) for x in xs]


# Grammar constants, then points between them, past them, and NaN.
COVER_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
cover_coordinates = st.sampled_from(COVER_GRID + (-0.0, 0.1, 0.6, -1.0, 2.0, math.inf, math.nan))
cover_features = st.one_of(
    st.just(("bool", None, None)),
    st.tuples(
        st.just("real"),
        st.lists(st.sampled_from(COVER_GRID), min_size=1, max_size=4, unique=True),
        st.sampled_from((("<",), (">",), ("<", ">"))),
    ),
)
# eleven real features of six literals each: with them a grammar has more
# than 64 literals, so a bitset takes two words
WIDE_FEATURES = [("real", (0.25, 0.5, 0.75), ("<", ">"))] * 11


@st.composite
def cover_grammars(draw):
    specs = draw(st.lists(cover_features, min_size=1, max_size=6))
    if draw(st.booleans()):
        specs += WIDE_FEATURES
    feats = tuple(GrammarFeature(j, *spec) for j, spec in enumerate(specs))
    return Grammar(feats, max_clauses=64, max_literals_per_clause=2 * len(feats))


@pytest.mark.parametrize(
    "cells",
    [lambda width: synthesizer._COVER_CELLS, lambda width: 1, lambda width: 5,
     lambda width: 2 * width],
    ids=["default-slices", "one-cell", "five-cells", "two-rows"],
)
@settings(max_examples=40, deadline=None)
@given(cover_grammars(), st.data())
def test_dnf_mask_matches_evaluate(cells, g, data):
    # A general learner's cover, tested as literal bitsets, against scalar
    # `evaluate` on every leading run of rows, 0 rows among them; with the
    # slices small enough, the clauses per slice change with the row count.
    # The fed points are rows too, since a random row seldom lies in a cell
    # of the cover, and so is each fed point with one coordinate changed,
    # which may leave its cell by the literals of one word alone.
    point = st.lists(cover_coordinates, min_size=len(g.features), max_size=len(g.features))
    fed = data.draw(st.lists(point, min_size=2, max_size=30))
    learner = GeneralLearner(g)
    for x in fed:
        learner.add(x, 1)
    f = learner.next()
    assume(isinstance(f, Or))
    width = f._cover.rows.shape[1]
    assert width == (2 if len(g.literals()) > 64 else 1)
    moves = data.draw(st.lists(
        st.tuples(st.integers(0, len(g.features) - 1), cover_coordinates),
        min_size=len(fed), max_size=len(fed),
    ))
    moved = [x[:j] + [v] + x[j + 1:] for x, (j, v) in zip(fed, moves)]
    xs = fed + moved + data.draw(st.lists(point, max_size=12))
    X = np.array(xs, dtype=float)
    want = [evaluate(f, x) for x in xs]
    with mock.patch.object(synthesizer, "_COVER_CELLS", cells(width)):
        for k in range(len(xs) + 1):
            mask = evaluate_mask(f, X[:k])
            assert mask.dtype == bool and mask.tolist() == want[:k]


def _learner_cover():
    """A general learner's cover of 4096 grid cells, over the grammar of
    criterion 8 on 16 features: 96 literals, two words per bitset. Half the
    rows lie in a cell of the cover."""
    g = default_grammar(["real"] * 16, max_clauses=4096, max_literals_per_clause=32)
    fed = np.random.default_rng(0).random((4096, 16))
    learner = GeneralLearner(g)
    for x in fed:
        learner.add(x, 1)
    f = learner.next()
    assert len(f.children) == 4096 and f._cover.rows.shape == (4096, 2)
    return f, np.concatenate([fed[:2048], np.random.default_rng(1).random((2048, 16))])


def _fresh_literal_dnf():
    """4096 two-literal clauses, no literal in two of them, evaluated node
    by node."""
    clauses = [And((Atom(i % 16, "<", i), Atom(i % 16, ">", -i))) for i in range(4096)]
    return Or(tuple(clauses)), np.random.default_rng(0).random((4096, 16))


@pytest.mark.parametrize(
    "make", [_learner_cover, _fresh_literal_dnf], ids=["grammar-literals", "fresh-literals"]
)
def test_dnf_mask_working_set_is_bounded(make):
    # On 4096 rows, unsliced, the 4096 clauses' words ANDed
    # with the rows' would take 4096 * 4096 * 2 * 8 bytes, 256 MB.
    f, X = make()
    tracemalloc.start()
    try:
        mask = evaluate_mask(f, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    rows = range(2040, 2056)  # across the first row that lies in no cell
    assert mask[rows].tolist() == [evaluate(f, X[r]) for r in rows]


@given(formulas)
def test_parse_render_round_trip(f):
    text = render(f)
    back = parse(text, ARITY)
    assert back == f
    assert compare(back, f) == 0
    assert render(back) == text


@given(formulas, formulas)
def test_order_antisymmetric(f1, f2):
    assert compare(f1, f2) == -compare(f2, f1)
    assert (compare(f1, f2) == 0) == (f1 == f2)


@given(formulas, formulas, formulas)
def test_order_transitive(f1, f2, f3):
    a, b, c = sorted((f1, f2, f3), key=order_key)
    assert compare(a, b) <= 0 and compare(b, c) <= 0 and compare(a, c) <= 0


def _size_from_text(f):
    """Literal occurrences counted in the rendered text, apart from the
    order key: each atom and bare variable names one variable, and each
    constant is a `true` or `false` token."""
    return len(re.findall(r"\b(?:x\d+|true|false)\b", render(f)))


@given(formulas)
def test_order_consistent_with_size(f):
    key = order_key(f)
    assert key[0] == size(f) == _size_from_text(f)
    assert key[1] == (len(f.children) if isinstance(f, Or) else 1)


def test_order_frozen_examples():
    # the first four candidates of any boolean grammar, in order
    seq = [FALSE, TRUE, BoolAtom(0), Not(BoolAtom(0))]
    for small, large in zip(seq, seq[1:]):
        assert compare(small, large) == -1
        assert compare(large, small) == 1
    assert compare(BoolAtom(0), BoolAtom(1)) == -1
    assert compare(Atom(0, "<", 0.25), Atom(0, "<", 0.75)) == -1
    assert compare(Atom(0, "<", 0.5), Atom(0, ">", 0.5)) == -1
    # fewer disjuncts first at equal size
    three_wide = Or((BoolAtom(0), BoolAtom(1), BoolAtom(2)))
    two_wide = Or((And((BoolAtom(0), BoolAtom(1))), BoolAtom(2)))
    assert size(three_wide) == size(two_wide) == 3
    assert compare(two_wide, three_wide) == -1


def test_size_frozen_examples():
    assert size(TRUE) == 1
    assert size(FALSE) == 1
    assert size(BoolAtom(3)) == 1
    assert size(Not(BoolAtom(3))) == 1
    assert size(parse("(and x0 (not x1))", 2)) == 2
    assert size(parse("(or (and x0 x1) (and x2 x3) x0)", 4)) == 5


@given(st.lists(literals, min_size=2, max_size=5))
def test_size_invariant_under_reordering(lits):
    forward = And(tuple(lits))
    backward = And(tuple(reversed(lits)))
    assert forward == backward
    assert size(forward) == size(backward) == sum(size(l) for l in lits)


def test_canonical_children_are_sorted():
    f = And((BoolAtom(2), BoolAtom(0), BoolAtom(1)))
    assert [c.feature for c in f.children] == [0, 1, 2]
    # duplicates are kept, not collapsed
    g = Or((BoolAtom(0), BoolAtom(0)))
    assert len(g.children) == 2


@given(st.sampled_from((And, Or)), st.lists(formulas, min_size=2, max_size=5))
def test_canonical_node_equals_public_constructor(cls, kids):
    canonical = tuple(sorted(kids, key=order_key))
    want = cls(canonical)
    got = _canonical_node(cls, canonical)
    assert type(got) is cls
    assert got == want and hash(got) == hash(want)
    assert got.children == want.children
    assert order_key(got) == order_key(want) and render(got) == render(want)


def test_constructor_rejects_bad_arguments():
    with pytest.raises(FormulaError):
        And((BoolAtom(0),))
    with pytest.raises(FormulaError):
        Or(())
    with pytest.raises(FormulaError):
        BoolAtom(-1)
    with pytest.raises(FormulaError):
        Atom(0, "!=", 0.5)
    with pytest.raises(FormulaError):
        And((BoolAtom(0), "x1"))


def test_bool_atom_requires_exact_one():
    f = BoolAtom(0)
    assert evaluate(f, [1.0]) is True
    assert evaluate(f, [0.0]) is False
    assert evaluate(f, [0.5]) is False


def test_render_numbers_use_repr():
    assert render(Atom(0, "<", 0.5)) == "(< x0 0.5)"
    assert render(Atom(1, ">", 1 / 3)) == f"(> x1 {1 / 3!r})"
    assert render(Atom(0, "=", 2)) == "(= x0 2.0)"


def plain_render(f, names=None):
    """The s-expression text of f, built node by node with nothing kept."""
    if f == TRUE or f == FALSE:
        return "true" if f == TRUE else "false"
    if isinstance(f, (BoolAtom, Atom)):
        var = names[f.feature] if names else f"x{f.feature}"
        return var if isinstance(f, BoolAtom) else f"({f.op} {var} {f.constant!r})"
    if isinstance(f, Not):
        return f"(not {plain_render(f.child, names)})"
    head = "and" if isinstance(f, And) else "or"
    return f"({head} " + " ".join(plain_render(c, names) for c in f.children) + ")"


@given(st.lists(clauses, min_size=1, max_size=6), st.data())
@settings(max_examples=60)
def test_render_of_shared_subterms_matches_a_plain_render(pool, data):
    # formulas built over shared node objects, as a general trace's
    # conjectures share their clauses, render as a node-by-node render
    # does, whichever of them renders first, with names and without
    names = ["hair", "feathers", "eggs", "milk"]
    nodes = list(pool)
    for _ in range(data.draw(st.integers(1, 8))):
        kids = data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))
        op = data.draw(st.sampled_from((And, Or)))
        f = Not(kids[0]) if len(kids) == 1 else op(tuple(kids))
        nodes.append(f)
        for g in data.draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3)):
            use = data.draw(st.sampled_from((None, names)))
            assert render(g, use) == plain_render(g, use)
            assert str(g) == plain_render(g)


def test_render_with_names():
    names = ["hair", "feathers", "eggs", "milk"]
    f = parse("(and milk (not feathers))", 4, names)
    assert f == And((BoolAtom(3), Not(BoolAtom(1))))
    assert render(f, names) == "(and milk (not feathers))"
    assert render(f) == "(and x3 (not x1))"


@given(formulas)
def test_features_within_arity(f):
    feats = features_of(f)
    assert all(0 <= j < ARITY for j in feats)
    text = render(f)
    for j in feats:
        assert f"x{j}" in text


def test_parse_error_positions():
    with pytest.raises(FormulaParseError) as err:
        parse("(and x0)", 2)
    assert err.value.position == 1
    with pytest.raises(FormulaParseError) as err:
        parse("(shrug x0 x1)", 2)
    assert err.value.position == 1
    with pytest.raises(FormulaParseError) as err:
        parse("x9", 2)
    assert err.value.position == 0
    with pytest.raises(FormulaParseError) as err:
        parse("3.5", 2)
    assert err.value.position == 0
    with pytest.raises(FormulaParseError) as err:
        parse("(< x0 oops)", 2)
    assert err.value.position == 6
    with pytest.raises(FormulaParseError) as err:
        parse("x0 x1", 2)
    assert err.value.position == 3
    with pytest.raises(FormulaParseError):
        parse("(and x0 x1", 2)
    with pytest.raises(FormulaParseError):
        parse("(not x0 x1)", 2)
    with pytest.raises(FormulaParseError):
        parse("", 2)
    with pytest.raises(FormulaParseError):
        parse("(never x0)", 2, ["a", "b"])


def test_token_positions_around_unicode_whitespace():
    # tab, newline, no-break space, em space and ideographic space each
    # separate tokens as one character; a zero-width space does not
    assert parse("(and\tx0\n(<\u00a0x1\u20030.5)\u3000x2)", 3) == parse(
        "(and x0 (< x1 0.5) x2)", 3
    )
    for text, position in [
        ("(and\tx0\n(<\u00a0x1\u2003oops)\u3000x2)", 14),
        ("(or\u3000x0\u00a0x9)", 7),
        ("x0\u2003x1", 3),
        ("(<\tx0\n", 5),
        ("\u3000\u00a0x0\u200b", 2),
    ]:
        with pytest.raises(FormulaParseError) as err:
            parse(text, 3)
        assert err.value.position == position, text


def test_parse_accepts_all_comparison_ops():
    for op in ("<", "<=", ">", ">=", "="):
        f = parse(f"({op} x1 0.25)", 2)
        assert f == Atom(1, op, 0.25)


def test_parse_negative_and_exponent_constants():
    assert parse("(< x0 -0.5)", 1) == Atom(0, "<", -0.5)
    assert parse("(> x0 1e-07)", 1) == Atom(0, ">", 1e-07)


def test_equivalent_on_grid():
    grid = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
    demorgant = Not(And((BoolAtom(0), BoolAtom(1))))
    demorgans = Or((Not(BoolAtom(0)), Not(BoolAtom(1))))
    assert equivalent_on_grid(demorgant, demorgans, grid)
    assert not equivalent_on_grid(BoolAtom(0), BoolAtom(1), grid)
    assert equivalent_on_grid(BoolAtom(0), BoolAtom(1), [])


@given(formulas, points)
def test_negation_flips_evaluation(f, x):
    assert evaluate(Not(f), x) == (not evaluate(f, x))


def test_float_constants_survive_round_trip():
    for c in (0.1, 2 / 3, 1e-9, 12345.6789, -0.25):
        f = Atom(0, "<", c)
        assert parse(render(f), 1) == f
        assert math.isclose(parse(render(f), 1).constant, c, rel_tol=0, abs_tol=0)
