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

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
    key = getattr(f, "_key", None)
    if key is not None:
        return key[0]
    if isinstance(f, (ConstTrue, ConstFalse, Atom, BoolAtom)):
        return 1
    if isinstance(f, Not):
        return size(f.child)
    if isinstance(f, (And, Or)):
        return sum(size(c) for c in f.children)
    raise TypeError(f"not a Formula: {f!r}")


def disjunct_count(f: Formula) -> int:
    return len(f.children) if isinstance(f, Or) else 1


def order_key(f: Formula):
    """Sort key realizing the candidate order; see `compare`."""
    key = getattr(f, "_key", None)
    if key is None:
        key = (size(f), disjunct_count(f), _structural_key(f))
        # leaves are cheap to re-key; composite keys are worth keeping
        if isinstance(f, (Not, And, Or)):
            object.__setattr__(f, "_key", key)
    return key


def _structural_key(f: Formula):
    # Ranks keep same-shape nodes comparable: tuples at a given position
    # are only ever compared against tuples from the same constructor.
    if isinstance(f, ConstFalse):
        return (0,)
    if isinstance(f, ConstTrue):
        return (1,)
    if isinstance(f, BoolAtom):
        return (2, f.feature)
    if isinstance(f, Atom):
        return (3, f.feature, _OP_RANK[f.op], f.constant)
    if isinstance(f, Not):
        return (4, order_key(f.child))
    if isinstance(f, And):
        return (5, len(f.children), tuple(order_key(c) for c in f.children))
    if isinstance(f, Or):
        return (6, len(f.children), tuple(order_key(c) for c in f.children))
    raise TypeError(f"not a Formula: {f!r}")


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


def evaluate_mask(f: Formula, X: np.ndarray) -> np.ndarray:
    """`evaluate` on every row of the 2-D float block X, as a boolean mask."""
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
        out = evaluate_mask(f.children[0], X)
        for c in f.children[1:]:
            out |= evaluate_mask(c, X)
        return out
    if isinstance(f, (ConstTrue, ConstFalse)):
        return np.full(len(X), isinstance(f, ConstTrue))
    raise TypeError(f"not a Formula: {f!r}")


def features_of(f: Formula) -> set:
    """Set of feature indices mentioned in f."""
    if isinstance(f, (ConstTrue, ConstFalse)):
        return set()
    if isinstance(f, (BoolAtom, Atom)):
        return {f.feature}
    if isinstance(f, Not):
        return features_of(f.child)
    return set().union(*(features_of(c) for c in f.children))


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


def equivalent_on_grid(f1: Formula, f2: Formula, grid: Iterable[Sequence[float]]) -> bool:
    """True when f1 and f2 agree on every grid point."""
    return all(evaluate(f1, x) == evaluate(f2, x) for x in grid)


# --- parsing ---------------------------------------------------------------

_TOKEN_BREAKS = {"(", ")"}


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_BREAKS:
            tokens.append((ch, i))
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace() and text[j] not in _TOKEN_BREAKS:
            j += 1
        tokens.append((text[i:j], i))
        i = j
    return tokens


def _parse_number(token: str) -> Optional[float]:
    try:
        return float(token)
    except ValueError:
        return None


class _Parser:
    def __init__(self, text: str, arity: int, names: Optional[Sequence[str]]):
        self.tokens = _tokenize(text)
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
    return _Parser(text, arity, names).parse()
