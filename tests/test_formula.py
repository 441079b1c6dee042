"""Formula AST, candidate order, parser and renderer.

The evaluation oracle here is an independent clause-by-clause DNF
interpreter: it never calls the package's `evaluate`, so agreement between
the two is evidence, not a tautology.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pacexplain import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolAtom,
    FormulaError,
    FormulaParseError,
    Not,
    Or,
    compare,
    disjunct_count,
    equivalent_on_grid,
    evaluate,
    evaluate_mask,
    features_of,
    order_key,
    parse,
    render,
    size,
)

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


@given(formulas)
def test_order_consistent_with_size(f):
    key = order_key(f)
    assert key[0] == size(f)
    assert key[1] == disjunct_count(f)


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
