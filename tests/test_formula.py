"""Formula AST, candidate order, parser and renderer.

The evaluation oracle here is an independent clause-by-clause DNF
interpreter: it never calls the package's `evaluate`, so agreement between
the two is evidence, not a tautology.
"""

import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from pacexplain import formula as formula_module
from pacexplain.formula import _canonical_node

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


# A few constants, so that literals recur across the clauses of one DNF.
KERNEL_CONSTANTS = (-math.inf, -1.5, -0.0, 0.0, 0.5, 1.0, math.inf, math.nan)
kernel_atoms = st.builds(
    Atom,
    st.integers(0, ARITY - 1),
    st.sampled_from(("<", "<=", ">", ">=", "=")),
    st.sampled_from(KERNEL_CONSTANTS),
)
kernel_literals = st.one_of(
    st.builds(BoolAtom, st.integers(0, ARITY - 1)),
    st.builds(BoolAtom, st.integers(0, ARITY - 1)).map(Not),
    kernel_atoms,
)
# a clause may name one literal twice
kernel_clauses = st.tuples(
    st.lists(kernel_literals, min_size=1, max_size=5), st.booleans()
).map(lambda t: t[0] + t[0][:1] if t[1] else t[0]).map(
    lambda ls: And(tuple(ls)) if len(ls) > 1 else ls[0]
)
# clauses of no literal conjunction, which send a DNF to the recursion
odd_clauses = st.one_of(
    st.just(TRUE),
    st.just(FALSE),
    kernel_atoms.map(Not),
    st.tuples(kernel_literals, kernel_literals.map(Not).map(Not)).map(And),
    st.tuples(kernel_literals, kernel_literals).map(Or),
)


def _witness(clause, x):
    """x with each feature the clause tests moved onto a value that passes
    the clause's literals on it, where one of the values tried does."""
    x = list(x)
    lits = clause.children if isinstance(clause, And) else (clause,)
    for j in features_of(clause):
        mine = [lit for lit in lits if features_of(lit) == {j}]
        tries = [0.0, 1.0] + [
            lit.constant + d for lit in mine if isinstance(lit, Atom) for d in (-1.0, 0.0, 1.0)
        ]
        for value in tries:
            x[j] = value
            if all(evaluate(lit, x) for lit in mine):
                break
    return x


@pytest.mark.parametrize(
    "cells, min_rows",
    [(formula_module._DNF_CELLS, formula_module._DNF_MIN_ROWS), (1, 1), (5, 1), (24, 2)],
    ids=["default-slices", "one-cell", "five-cells", "two-rows"],
)
@settings(max_examples=50, deadline=None)
@given(
    st.lists(kernel_clauses, min_size=2, max_size=40),
    st.lists(odd_clauses, max_size=1),
    st.data(),
)
def test_dnf_mask_matches_evaluate(cells, min_rows, clauses, odd, data):
    # The kernel against scalar `evaluate`, on both sides of _DNF_MIN_CLAUSES,
    # and with slices small enough to cut blocks of a few rows and clauses.
    # One row per clause is moved onto it, since a random point seldom
    # satisfies a long clause.
    f = Or(tuple(clauses + odd))
    pool = [*KERNEL_CONSTANTS, 1.0, 2.0]
    coordinate = st.one_of(st.sampled_from(pool), constants)
    xs = data.draw(st.lists(st.lists(coordinate, min_size=ARITY, max_size=ARITY), max_size=12))
    base = data.draw(st.lists(coordinate, min_size=ARITY, max_size=ARITY))
    xs += [_witness(c, base) for c in clauses]
    X = np.array(xs, dtype=float).reshape(len(xs), ARITY)
    want = [evaluate(f, x) for x in xs]
    with mock.patch.multiple(formula_module, _DNF_CELLS=cells, _DNF_MIN_ROWS=min_rows):
        kernel = formula_module._dnf_mask(f, X)
        assert (kernel is None) == bool(odd)
        if kernel is not None:
            assert kernel.dtype == bool and kernel.tolist() == want
            assert formula_module._dnf_mask(f, X[:0]).shape == (0,)
        mask = evaluate_mask(f, X)
        assert mask.dtype == bool and mask.tolist() == want
        assert evaluate_mask(f, X[:0]).shape == (0,)


def _pairs_of_grammar_literals():
    """maxClauses of criterion 8's loose grammar, in two-literal clauses over
    16 features: 96 distinct literals."""
    lits = [Atom(j, op, c) for j in range(16) for op in ("<", ">") for c in (0.25, 0.5, 0.75)]
    return [And(pair) for pair in itertools.islice(itertools.combinations(lits, 2), 4096)]


def _pairs_of_fresh_literals():
    """4096 two-literal clauses, no literal in two of them."""
    return [And((Atom(i % 16, "<", i), Atom(i % 16, ">", -i))) for i in range(4096)]


@pytest.mark.parametrize(
    "make_clauses",
    [_pairs_of_grammar_literals, _pairs_of_fresh_literals],
    ids=["grammar-literals", "fresh-literals"],
)
def test_dnf_mask_working_set_is_bounded(make_clauses):
    # On the largest verify block, gathered unsliced, the clauses' literal
    # rows alone would take 4096 * 2 * 4096 bytes, 32 MB.
    f = Or(tuple(make_clauses()))
    X = np.random.default_rng(0).random((4096, 16))
    # the clauses keep their literal codes as long as they live, so a
    # learner's next conjecture finds them cached
    evaluate_mask(f, X[:1])
    tracemalloc.start()
    try:
        mask = evaluate_mask(f, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert mask.tolist() == np.logical_or.reduce([evaluate_mask(c, X) for c in f.children]).tolist()


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
