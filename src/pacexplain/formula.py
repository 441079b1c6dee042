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
    return order_key(f)[0]


def disjunct_count(f: Formula) -> int:
    return len(f.children) if isinstance(f, Or) else 1


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
_LITERAL_OPS = tuple(_LITERAL_COMPARE)


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


# A disjunction of at least this many clauses goes through `_dnf_mask`.
# Below it the recursion is faster: the kernel's fixed cost of some twenty
# numpy calls outweighs one call per node.
_DNF_MIN_CLAUSES = 8
# The most cells `_dnf_mask` holds in one array. It takes rows and clauses
# a slice at a time, so that its working set does not grow with the number
# of rows or clauses. A slice keeps at least _DNF_MIN_ROWS rows, since
# gathers of shorter rows cost more than their bytes; only a DNF of more
# than _DNF_CELLS / _DNF_MIN_ROWS distinct literals then holds more cells,
# _DNF_MIN_ROWS per literal.
_DNF_CELLS = 1 << 16
_DNF_MIN_ROWS = 64


def _literal_codes(clause: Formula):
    """The clause's literals as the bytes of an int64 array of (feature * 8
    + op code, constant bits) pairs, or False when the clause is not a
    literal or a conjunction of literals.

    Cached on the clause node, as `order_key` caches its key, since a
    learner's clauses recur from one conjecture to the next; as bytes, the
    clauses of a conjecture join into one buffer in a single copy.
    """
    codes = clause.__dict__.get("_codes")
    if codes is None:
        kids = clause.children if isinstance(clause, And) else (clause,)
        tests = [_literal_test(lit) for lit in kids]
        codes = False
        if None not in tests:
            pairs = np.empty((len(tests), 2), dtype=np.int64)
            pairs[:, 0] = [j * 8 + _LITERAL_OPS.index(op) for op, j, _ in tests]
            pairs[:, 1] = np.array([c for _, _, c in tests], dtype=float).view(np.int64)
            codes = pairs.tobytes()
        object.__setattr__(clause, "_codes", codes)
    return codes


def _dnf_mask(f: Or, X: np.ndarray) -> Optional[np.ndarray]:
    """`evaluate_mask` of the disjunction f, or None when some clause of f is
    not a literal or a conjunction of literals.

    Each distinct literal is compared once, into a row of a literals × rows
    matrix. The clauses, grouped by length as arrays of literal numbers,
    gather their literals' rows and AND them; the mask is the OR over the
    clauses.
    """
    groups = {}  # clause length in bytes -> the clauses' codes
    for clause in f.children:
        codes = _literal_codes(clause)
        if codes is False:
            return None
        groups.setdefault(len(codes), []).append(codes)
    lengths = sorted(groups)
    codes = np.frombuffer(
        b"".join([c for size in lengths for c in groups[size]]), dtype=np.int64
    ).reshape(-1, 2)
    # Number the distinct literals in order of feature, op and constant, so
    # that the literals of one feature and op are a run of rows of the
    # literal matrix, which one compare fills. (np.unique would import
    # numpy.ma.)
    order = np.lexsort((codes[:, 1], codes[:, 0]))
    ranked = codes[order]
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:, 0], ranked[:-1, 0], out=first[1:])
    first[1:] |= ranked[1:, 1] != ranked[:-1, 1]
    ids = np.empty(len(codes), dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    code = ranked[first, 0]
    constants = ranked[first, 1].view(float)[:, None]
    bounds = [0, *(np.flatnonzero(code[1:] != code[:-1]) + 1).tolist(), len(code)]
    runs = [
        (_LITERAL_COMPARE[_LITERAL_OPS[c & 7]], c >> 3, lo, hi)
        for c, lo, hi in zip(code[bounds[:-1]].tolist(), bounds, bounds[1:])
    ]
    grouped = []  # per clause length: the clauses' literal numbers
    start = 0
    for size in lengths:
        n, k = len(groups[size]), size // 16
        grouped.append(ids[start:start + n * k].reshape(n, k))
        start += n * k
    out = np.zeros(len(X), dtype=bool)
    per = max(_DNF_MIN_ROWS, _DNF_CELLS // len(code))  # rows per slice
    for r in range(0, len(X), per):
        block = X[r:r + per]
        held = np.empty((len(code), len(block)), dtype=bool)
        for compare, j, lo, hi in runs:
            compare(block[:, j], constants[lo:hi], out=held[lo:hi])
        hit = out[r:r + per]
        cells = max(1, _DNF_CELLS // len(block))  # literal rows per gather
        for clauses in grouped:
            step = max(1, cells // clauses.shape[1])
            for lo in range(0, len(clauses), step):
                hit |= held[clauses[lo:lo + step]].all(axis=1).any(axis=0)
    return out


def evaluate_mask(f: Formula, X: np.ndarray) -> np.ndarray:
    """`evaluate` on every row of the 2-D float block X, as a boolean mask.

    A disjunction of at least _DNF_MIN_CLAUSES clauses, each a literal or a
    conjunction of literals, goes through `_dnf_mask`, which compares each
    distinct literal once and then needs a few array operations per clause
    length: the general learner's conjectures are such DNFs, of hundreds of
    literal occurrences over a few dozen literals. Every other formula is
    evaluated node by node, with one numpy call per node, which is faster
    for small DNFs such as the Occam learner's candidates and queries.
    """
    if isinstance(f, Or) and len(f.children) >= _DNF_MIN_CLAUSES:
        out = _dnf_mask(f, X)
        if out is not None:
            return out
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
