"""Quantifier-free formulas over real-valued feature vectors.

The AST covers the language used for explanations, queries, and grammars:
constants, threshold atoms ``(op xj c)``, boolean atoms (a bare variable
``xj`` abbreviates ``xj = 1``), negation, conjunction, and disjunction.
Formulas are immutable; ``and``/``or`` nodes keep their children in a
canonical order so structurally equal formulas compare and render equal.

The module also defines the total order used to rank candidate
explanations: smaller size first, then fewer disjuncts, then a structural
tie-break (constants before atoms before negations before conjunctions
before disjunctions).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

OPS = ("<", "<=", ">", ">=", "=")
_OP_RANK = {op: i for i, op in enumerate(OPS)}


class FormulaError(ValueError):
    pass


class FormulaParseError(FormulaError):
    """Syntax or arity error in formula text, with a character position."""

    def __init__(self, message: str, position: Optional[int] = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class Formula:
    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class ConstTrue(Formula):
    pass


@dataclass(frozen=True)
class ConstFalse(Formula):
    pass


TRUE = ConstTrue()
FALSE = ConstFalse()


@dataclass(frozen=True)
class BoolAtom(Formula):
    """Boolean feature test: satisfied when x[feature] == 1."""

    feature: int

    def __post_init__(self):
        if self.feature < 0:
            raise FormulaError(f"negative feature index {self.feature}")


@dataclass(frozen=True)
class Atom(Formula):
    """Threshold test ``x[feature] op constant``."""

    feature: int
    op: str
    constant: float

    def __post_init__(self):
        if self.feature < 0:
            raise FormulaError(f"negative feature index {self.feature}")
        if self.op not in OPS:
            raise FormulaError(f"unknown operator {self.op!r}")
        object.__setattr__(self, "constant", float(self.constant))


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    children: tuple

    def __post_init__(self):
        kids = tuple(self.children)
        if len(kids) < 2:
            raise FormulaError("'and' needs at least 2 arguments")
        object.__setattr__(self, "children", _canonical_children(kids))


@dataclass(frozen=True)
class Or(Formula):
    children: tuple

    def __post_init__(self):
        kids = tuple(self.children)
        if len(kids) < 2:
            raise FormulaError("'or' needs at least 2 arguments")
        object.__setattr__(self, "children", _canonical_children(kids))


def _canonical_children(kids: tuple) -> tuple:
    for k in kids:
        if not isinstance(k, Formula):
            raise FormulaError(f"child is not a Formula: {k!r}")
    return tuple(sorted(kids, key=order_key))


def _canonical_node(cls, children: tuple):
    """cls(children) for at least two children already in canonical order.

    It skips the check and the sort of the public constructor, which would
    give back the same children.
    """
    node = object.__new__(cls)
    object.__setattr__(node, "children", children)
    return node


def size(f: Formula) -> int:
    """Number of literal occurrences; constants count as 1."""
    return order_key(f)[0]


def order_key(f: Formula):
    """Sort key realizing the candidate order; see `compare`.

    (size, disjunct count, structure), built in one pass from the children's
    keys. The structure starts with a rank per constructor, so tuples at one
    position are only ever compared with tuples of the same constructor.
    Composite keys are cached on the node; leaves are cheap to re-key.
    """
    key = getattr(f, "_key", None)
    if key is not None:
        return key
    if isinstance(f, ConstFalse):
        return (1, 1, (0,))
    if isinstance(f, ConstTrue):
        return (1, 1, (1,))
    if isinstance(f, BoolAtom):
        return (1, 1, (2, f.feature))
    if isinstance(f, Atom):
        return (1, 1, (3, f.feature, _OP_RANK[f.op], f.constant))
    if isinstance(f, Not):
        child = order_key(f.child)
        key = (child[0], 1, (4, child))
    elif isinstance(f, (And, Or)):
        kids = tuple(order_key(c) for c in f.children)
        n = len(kids)
        rank, disjuncts = (6, n) if isinstance(f, Or) else (5, 1)
        key = (sum(k[0] for k in kids), disjuncts, (rank, n, kids))
    else:
        raise TypeError(f"not a Formula: {f!r}")
    object.__setattr__(f, "_key", key)
    return key


def compare(f1: Formula, f2: Formula) -> int:
    """Total order over formulas: -1, 0, or 1.

    Primary key is size, secondary the number of disjuncts, tertiary a
    structural comparison. Returns 0 exactly for canonically equal formulas.
    """
    k1, k2 = order_key(f1), order_key(f2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


def evaluate(f: Formula, x: Sequence[float]) -> bool:
    if isinstance(f, ConstTrue):
        return True
    if isinstance(f, ConstFalse):
        return False
    if isinstance(f, BoolAtom):
        return x[f.feature] == 1
    if isinstance(f, Atom):
        v = x[f.feature]
        if f.op == "<":
            return v < f.constant
        if f.op == "<=":
            return v <= f.constant
        if f.op == ">":
            return v > f.constant
        if f.op == ">=":
            return v >= f.constant
        return v == f.constant
    if isinstance(f, Not):
        return not evaluate(f.child, x)
    if isinstance(f, And):
        return all(evaluate(c, x) for c in f.children)
    if isinstance(f, Or):
        return any(evaluate(c, x) for c in f.children)
    raise TypeError(f"not a Formula: {f!r}")


_MASK_OPS = {
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "=": np.equal,
}

# Every literal is one compare of a coordinate with a constant: `xj` is
# `xj = 1` and `(not xj)` is `xj != 1`, which holds for NaN as `evaluate`'s
# `not` of `NaN = 1` does.
_LITERAL_COMPARE = {**_MASK_OPS, "!=": np.not_equal}


def _literal_test(f: Formula) -> Optional[tuple]:
    """(op, feature, constant) of the compare that decides the literal f,
    or None when f is not a literal (an Atom, a BoolAtom or its negation)."""
    if isinstance(f, Atom):
        return f.op, f.feature, f.constant
    if isinstance(f, BoolAtom):
        return "=", f.feature, 1.0
    if isinstance(f, Not) and isinstance(f.child, BoolAtom):
        return "!=", f.child.feature, 1.0
    return None


# The most cells `_literal_words` and `_cover_mask` hold in one array: they
# take the rows or the clauses a slice at a time, so that their working sets
# do not grow with the number of rows or clauses.
_COVER_CELLS = 1 << 16


def _literal_words(tests: tuple, X: np.ndarray, width: int) -> np.ndarray:
    """The grammar literals that hold on each row of X, as a rows × width
    array of little-endian 64-bit words: bit i of a row is literal i.

    `tests` are the grammar's `literal_tests()`; one numpy compare tests a
    slice of rows against all the literals of one op.
    """
    held = np.zeros((len(X), 64 * width), dtype=bool)
    step = max(1, _COVER_CELLS // (64 * width))
    for lo in range(0, len(X), step):
        block = X[lo:lo + step]
        for compare, idx, features, constants in tests:
            held[lo:lo + step, idx] = compare(block[:, features], constants)
    return np.packbits(held, axis=1, bitorder="little").view("<u8")


def _cover_mask(clauses: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether some clause holds on each row, for clauses and rows given as
    literal bitsets (`_literal_words`): a clause holds on a row when its
    literals are a subset of the row's."""
    missing = ~rows
    none = np.ones(len(rows), dtype=bool)  # no clause so far holds on the row
    step = max(1, _COVER_CELLS // max(1, missing.size))
    for lo in range(0, len(clauses), step):
        none &= (clauses[lo:lo + step, None] & missing).any(axis=2).all(axis=0)
    return ~none


def evaluate_mask(f: Formula, X: np.ndarray) -> np.ndarray:
    """`evaluate` on every row of the 2-D float block X, as a boolean mask.

    A disjunction that carries its clauses as literal bitsets, as the
    general learner's conjectures do, is one subset test per clause and row
    after the grammar's literals are tested once on each row: `_words` is
    (the grammar's literal tests, a clauses × words array). Every other
    formula, queries and parsed formulas among them, is evaluated node by
    node, with one numpy call per node.
    """
    if isinstance(f, Atom):
        return _MASK_OPS[f.op](X[:, f.feature], f.constant)
    if isinstance(f, BoolAtom):
        return X[:, f.feature] == 1
    if isinstance(f, Not):
        return ~evaluate_mask(f.child, X)
    if isinstance(f, And):
        out = evaluate_mask(f.children[0], X)
        for c in f.children[1:]:
            out &= evaluate_mask(c, X)
        return out
    if isinstance(f, Or):
        words = f.__dict__.get("_words")
        if words is not None:
            tests, clauses = words
            return _cover_mask(clauses, _literal_words(tests, X, clauses.shape[1]))
        out = evaluate_mask(f.children[0], X)
        for c in f.children[1:]:
            out |= evaluate_mask(c, X)
        return out
    if isinstance(f, (ConstTrue, ConstFalse)):
        return np.full(len(X), isinstance(f, ConstTrue))
    raise TypeError(f"not a Formula: {f!r}")


def _render_number(c: float) -> str:
    return repr(float(c))


def render(f: Formula, names: Optional[Sequence[str]] = None) -> str:
    """Canonical s-expression text. `names` substitutes feature names."""

    def var(j: int) -> str:
        if names is not None:
            return names[j]
        return f"x{j}"

    if isinstance(f, ConstTrue):
        return "true"
    if isinstance(f, ConstFalse):
        return "false"
    if isinstance(f, BoolAtom):
        return var(f.feature)
    if isinstance(f, Atom):
        return f"({f.op} {var(f.feature)} {_render_number(f.constant)})"
    if isinstance(f, Not):
        return f"(not {render(f.child, names)})"
    if isinstance(f, And):
        return "(and " + " ".join(render(c, names) for c in f.children) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(render(c, names) for c in f.children) + ")"
    raise TypeError(f"not a Formula: {f!r}")


# --- parsing ---------------------------------------------------------------

# a parenthesis, or a run of characters that are neither space nor parenthesis
_TOKEN = re.compile(r"[()]|[^\s()]+")


def _parse_number(token: str) -> Optional[float]:
    try:
        return float(token)
    except ValueError:
        return None


class _Parser:
    def __init__(self, text: str, arity: int, names: Optional[Sequence[str]]):
        self.tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.pos = 0
        self.arity = arity
        self.name_index = (
            {name: j for j, name in enumerate(names)} if names is not None else {}
        )

    def _peek(self):
        if self.pos >= len(self.tokens):
            return None
        return self.tokens[self.pos]

    def _next(self):
        tok = self._peek()
        if tok is None:
            last, at = self.tokens[-1] if self.tokens else ("", 0)
            raise FormulaParseError("unexpected end of input", at + len(last))
        self.pos += 1
        return tok

    def _variable(self, token: str, at: int) -> int:
        if token in self.name_index:
            j = self.name_index[token]
        elif len(token) > 1 and token[0] == "x" and token[1:].isdigit():
            j = int(token[1:])
        else:
            raise FormulaParseError(f"unknown variable {token!r}", at)
        if not 0 <= j < self.arity:
            raise FormulaParseError(
                f"feature index {j} out of range for arity {self.arity}", at
            )
        return j

    def parse(self) -> Formula:
        f = self._formula()
        trailing = self._peek()
        if trailing is not None:
            raise FormulaParseError(f"trailing input {trailing[0]!r}", trailing[1])
        return f

    def _formula(self) -> Formula:
        token, at = self._next()
        if token == ")":
            raise FormulaParseError("unexpected ')'", at)
        if token != "(":
            if token == "true":
                return TRUE
            if token == "false":
                return FALSE
            if _parse_number(token) is not None:
                raise FormulaParseError(f"number {token!r} is not a formula", at)
            return BoolAtom(self._variable(token, at))
        head, head_at = self._next()
        if head == "not":
            args = self._args(head_at)
            if len(args) != 1:
                raise FormulaParseError("'not' takes exactly 1 argument", head_at)
            return Not(args[0])
        if head in ("and", "or"):
            args = self._args(head_at)
            if len(args) < 2:
                raise FormulaParseError(f"'{head}' needs at least 2 arguments", head_at)
            return And(args) if head == "and" else Or(args)
        if head in OPS:
            var_tok, var_at = self._next()
            if var_tok in ("(", ")"):
                raise FormulaParseError("expected a variable", var_at)
            j = self._variable(var_tok, var_at)
            num_tok, num_at = self._next()
            value = _parse_number(num_tok) if num_tok not in ("(", ")") else None
            if value is None:
                raise FormulaParseError(f"expected a number, got {num_tok!r}", num_at)
            close, close_at = self._next()
            if close != ")":
                raise FormulaParseError("expected ')'", close_at)
            return Atom(j, head, value)
        raise FormulaParseError(f"unknown form {head!r}", head_at)

    def _args(self, head_at: int):
        args = []
        while True:
            tok = self._peek()
            if tok is None:
                raise FormulaParseError("missing ')'", head_at)
            if tok[0] == ")":
                self.pos += 1
                return args
            args.append(self._formula())


def parse(text: str, arity: int, names: Optional[Sequence[str]] = None) -> Formula:
    """Parse s-expression formula text.

    Variables are written ``x<digits>`` or resolved through `names`. Raises
    FormulaParseError with a character position on malformed input, unknown
    variables, or feature indices outside ``arity``.
    """
    if arity < 0:
        raise FormulaError("arity must be non-negative")
    try:
        return _Parser(text, arity, names).parse()
    except RecursionError:
        raise FormulaParseError("formula nested too deeply") from None
