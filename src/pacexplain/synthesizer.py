"""Grammar-bounded DNF synthesis from labeled samples.

The grammar induces a finite class of disjunctive-normal-form formulas:
up to `max_clauses` clauses, each a conjunction of up to
`max_literals_per_clause` literals drawn from per-feature predicate pools
(threshold atoms against a finite constant set for real features, the atom
and its negation for boolean features), optionally plus the constants
true/false.

`enumerate_formulas` yields every canonical member of the class exactly
once, lazily, in strictly increasing candidate order (size, then disjunct
count, then the structural tie-break). Canonical means: literals inside a
clause are sorted and duplicate-free, clauses are sorted and duplicate-free.
Semantically redundant members (subsumed or contradictory clauses) stay in
the stream; they are distinct canonical forms.

`synthesize` returns the first formula in that order consistent with the
sample, or None when the entire class is inconsistent. The scan prunes
soundly: any clause of a consistent DNF must reject every negative example,
so clauses satisfied by some negative are dropped before combination.

The scan searches the last clause instead of trying it. It walks ranges:
the first m - 1 clauses of a candidate (the prefix) and the k-literal
clauses that may end it. A clause holds the positives the prefix misses
only if each of its literals holds all of them, since its positive mask is
the AND of its literals' masks. So only the k-combinations of those
literals are walked, each tested against the literals' negative masks, and
combinations order is the clauses' candidate order: the first hit is the
first consistent candidate of the range, and a range without one is
skipped whole. Clause records are built and kept only for the prefixes.
With a deadline, the scan reads the clock once per range it skips.
Each (positives, clause size) pair's last clauses are kept until a negative.

An engine run keeps one learner per strategy and feeds it each round's
counterexamples. `OccamLearner` pauses its scan between rounds and
resumes right after the conjecture the verifier just refuted, which gives
the same answer as a scan from the start: the sample only grows, so every
candidate before the conjecture is still inconsistent with it, and the
conjecture itself misclassifies its new counterexamples. `synthesize` and
`synthesize_general` are one-shot calls on a fresh learner.

`synthesize_general` is a deliberately non-minimizing alternative used to
approximate unconstrained synthesis: it covers each positive example with
the grammar-grid cell around it, which is fast and overfits. Its
conjectures carry a `_Cover`: literal bitsets only this module lays out.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .formula import (
    _MASK_OPS,
    FALSE,
    TRUE,
    And,
    Atom,
    BoolAtom,
    Formula,
    Not,
    Or,
    _canonical_node,
    order_key,
)
# `evaluate` stays importable here: bench/tracing.py wraps it in this module
from .formula import evaluate  # noqa: F401
from .query import _finite_number

DEFAULT_CONSTANTS = (0.25, 0.5, 0.75)
GRAMMAR_OPS = ("<", ">")


class GrammarError(ValueError):
    pass


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class InconsistentSampleError(ValueError):
    """Raised when a sample would label the same point both 0 and 1."""


class SynthesisDeadlineError(RuntimeError):
    """Raised when the enumerative scan exceeds its hard deadline, which it
    checks after each range of candidates that holds no answer."""


@dataclass(frozen=True)
class GrammarFeature:
    index: int
    kind: str  # "bool" | "real"
    constants: Optional[tuple] = None  # None: DEFAULT_CONSTANTS
    ops: Optional[tuple] = None  # None: GRAMMAR_OPS
    name: Optional[str] = None

    def __post_init__(self):
        if not _is_int(self.index) or self.index < 0:
            raise GrammarError(f"feature index must be an integer >= 0, got {self.index!r}")
        if self.kind == "bool":
            object.__setattr__(self, "constants", ())
            object.__setattr__(self, "ops", ())
            return
        if self.kind != "real":
            raise GrammarError(f"unknown feature kind {self.kind!r}")
        constants = DEFAULT_CONSTANTS if self.constants is None else self.constants
        ops = GRAMMAR_OPS if self.ops is None else self.ops
        if not isinstance(constants, (list, tuple)) or not all(map(_finite_number, constants)):
            raise GrammarError("grammar constants must be a list of finite numbers")
        if not isinstance(ops, (list, tuple)) or not all(op in GRAMMAR_OPS for op in ops):
            raise GrammarError(f"grammar ops must be a list of ops from {GRAMMAR_OPS}")
        constants = tuple(float(c) for c in constants)
        ops = tuple(ops)
        if not ops:
            raise GrammarError("real feature needs at least one op")
        if not constants:
            raise GrammarError("real feature needs at least one constant")
        if len(set(constants)) != len(constants):
            raise GrammarError("duplicate constants")
        if len(set(ops)) != len(ops):
            raise GrammarError("duplicate ops")
        object.__setattr__(self, "constants", tuple(sorted(constants)))
        object.__setattr__(self, "ops", ops)


@dataclass(frozen=True)
class Grammar:
    """A class of DNFs: each feature's literal pool and the clause bounds.

    Immutable. What is derived from it, the literals, their tests and its
    cell clauses, is built once and kept on the grammar.
    """

    features: tuple
    max_clauses: int = 2
    max_literals_per_clause: int = 4
    include_constants: bool = True

    def __post_init__(self):
        feats = tuple(self.features)
        bounds = (self.max_clauses, self.max_literals_per_clause)
        if not all(_is_int(b) and b >= 1 for b in bounds):
            raise GrammarError("clause and literal bounds must be integers >= 1")
        if not isinstance(self.include_constants, bool):
            raise GrammarError("grammar 'constants' must be true or false")
        seen = set()
        for f in feats:
            if not isinstance(f, GrammarFeature):
                raise GrammarError(f"not a GrammarFeature: {f!r}")
            if f.index in seen:
                raise GrammarError(f"duplicate grammar feature index {f.index}")
            seen.add(f.index)
        object.__setattr__(
            self, "features", tuple(sorted(feats, key=lambda f: f.index))
        )

    def literals(self) -> list:
        """All grammar literals, sorted by candidate order.

        Built once per grammar, so every formula synthesized from it shares
        the same literal objects.
        """
        lits = self.__dict__.get("_literals")
        if lits is None:
            lits = []
            for f in self.features:
                if f.kind == "bool":
                    lits.append(BoolAtom(f.index))
                    lits.append(Not(BoolAtom(f.index)))
                else:
                    for op in f.ops:
                        for c in f.constants:
                            lits.append(Atom(f.index, op, c))
            lits.sort(key=order_key)
            object.__setattr__(self, "_literals", lits)
        return list(lits)

    def literal_tests(self) -> tuple:
        """`_literal_tests` of `literals()`, built once per grammar."""
        tests = self.__dict__.get("_literal_tests")
        if tests is None:
            tests = _literal_tests(self.literals())
            object.__setattr__(self, "_literal_tests", tests)
        return tests

    def to_json(self) -> dict:
        features = []
        for f in self.features:
            entry = {"index": f.index, "kind": f.kind}
            if f.name is not None:
                entry["name"] = f.name
            if f.kind == "real":
                entry["constants"] = list(f.constants)
                entry["ops"] = list(f.ops)
            features.append(entry)
        return {
            "features": features,
            "maxClauses": self.max_clauses,
            "maxLiteralsPerClause": self.max_literals_per_clause,
            "constants": self.include_constants,
        }

    @staticmethod
    def from_json(obj: dict, feature_names: Optional[Sequence[str]] = None) -> "Grammar":
        if not isinstance(obj, dict) or "features" not in obj:
            raise GrammarError("grammar JSON must be an object with 'features'")
        if not isinstance(obj["features"], list) or not all(
            isinstance(entry, dict) for entry in obj["features"]
        ):
            raise GrammarError("grammar 'features' must be a list of objects")
        feats = []
        for pos, entry in enumerate(obj["features"]):
            if "index" in entry:
                index = entry["index"]
            elif "name" in entry and feature_names is not None:
                try:
                    index = list(feature_names).index(entry["name"])
                except ValueError:
                    raise GrammarError(
                        f"grammar feature {entry['name']!r} not in dataset features"
                    ) from None
            else:
                index = pos
            feats.append(
                GrammarFeature(
                    index=index,
                    kind=entry.get("kind", "real"),
                    constants=entry.get("constants"),
                    ops=entry.get("ops"),
                    name=entry.get("name"),
                )
            )
        return Grammar(
            features=tuple(feats),
            max_clauses=obj.get("maxClauses", 2),
            max_literals_per_clause=obj.get("maxLiteralsPerClause", 4),
            include_constants=obj.get("constants", True),
        )


def default_grammar(
    kinds: Sequence[str],
    names: Optional[Sequence[str]] = None,
    max_clauses: int = 2,
    max_literals_per_clause: int = 4,
) -> Grammar:
    feats = []
    for j, kind in enumerate(kinds):
        name = names[j] if names is not None else None
        if kind == "bool":
            feats.append(GrammarFeature(j, "bool", name=name))
        else:
            feats.append(GrammarFeature(j, "real", DEFAULT_CONSTANTS, GRAMMAR_OPS, name))
    return Grammar(tuple(feats), max_clauses, max_literals_per_clause, True)


class Sample:
    """Ordered, function-consistent labeled points.

    Entries are (vector, label) with label in {0, 1}; a point may not carry
    both labels. `add` returns False for an exact duplicate and raises
    InconsistentSampleError on a contradiction.
    """

    def __init__(self, entries: Optional[Iterable] = None):
        self._labels = {}  # point -> label, in insertion order
        if entries is not None:
            for x, label in entries:
                self.add(x, label)

    def add(self, x: Sequence[float], label: int) -> bool:
        point = tuple(map(float, x))
        label = int(label)
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        existing = self._labels.get(point)
        if existing is not None:
            if existing != label:
                raise InconsistentSampleError(
                    f"point {point} already labeled {existing}, cannot relabel {label}"
                )
            return False
        self._labels[point] = label
        return True

    @property
    def entries(self) -> list:
        return list(self._labels.items())

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels.items())


# --- ordered candidate stream ------------------------------------------------
#
# A clause is the tuple of its literals' places in the sorted literals, and
# itertools.combinations order over those places is the candidate order of
# the clauses of one size. A candidate's first m - 1 clauses, its prefix, are
# clause records: mutable [literal_places, positives_mask] lists. Groups
# serve prefixes only: `group(k)` lists the records of the k-literal clauses
# that reject every negative example, in combinations order, and `index[k]`
# maps each record's literal places to its place in group(k). A level (s, m)
# holds the candidates of total size s with m clauses. Every clause key
# starts with the clause's size, so walking clause sizes upward, and each
# size group from the record after the previous one, yields a level in
# candidate order.
#
# The scan walks ranges of candidates. A range (prefix, k, after) is a
# prefix plus every k-literal clause after the clause `after` (None: from
# the first), each of which completes it. The constants come first: false
# is the empty disjunction, and true the range of the one 0-literal clause,
# the empty clause.


def _make_group_fn(lits, masks_p, masks_n, cache, index):
    """group(k): the k-literal clauses that reject every negative example.

    Each group and its index are built once, into `cache` and `index`, from
    the per-literal masks of the points seen so far, when the scan first
    takes a prefix clause from it; the learner updates its records after
    that.
    """

    def group(k: int) -> list:
        if k in cache:
            return cache[k]
        records = []
        places = {}
        n = len(lits)
        for head in itertools.combinations(range(n), k - 1):
            mn = mp = -1
            for i in head:
                mn &= masks_n[i]
                mp &= masks_p[i]
            for last in range(head[-1] + 1 if head else 0, n):
                if mn & masks_n[last]:
                    continue
                combo = head + (last,)
                places[combo] = len(records)
                records.append([combo, mp & masks_p[last]])
        cache[k] = records
        index[k] = places
        return records

    return group


def _level(group, s: int, m: int, max_lits: int, k_lo: int = 1, i_lo: int = 0, prefix=()):
    """The ranges of the clause tuples of total size s with m clauses, in order.

    The first clause is at least record i_lo of group(k_lo), or any record
    of a larger group; the other m - 1 clauses follow it. Records that hold
    a negative example (mask -1) are skipped; a range whose prefix dies
    while it is under way covers nothing.
    """
    if m == 1:
        if k_lo <= s <= max_lits:
            yield prefix, s, (prefix[-1][0] if prefix and s == k_lo else None)
        return
    for k in range(k_lo, max_lits + 1):
        rest = s - k
        if rest < k * (m - 1) or rest > max_lits * (m - 1):
            continue
        records = group(k)
        for j in range(i_lo if k == k_lo else 0, len(records)):
            rec = records[j]
            if rec[1] >= 0:
                yield from _level(group, rest, m - 1, max_lits, k, j + 1, prefix + (rec,))


def _consistent_clauses(able, masks_n, full_n: int, k: int) -> Iterator[tuple]:
    """The k-combinations of `able` that no negative of `full_n` satisfies, in order."""
    for head in itertools.combinations(able, k - 1):
        held = full_n
        for i in head:
            held &= masks_n[i]
        for last in able[bisect.bisect_right(able, head[-1] if head else -1):]:
            if not held & masks_n[last]:
                yield head + (last,)


def _ranges(g: Grammar, group) -> Iterator[Optional[tuple]]:
    """Every candidate of the grammar, as ranges, in candidate order.

    None stands for false, the one candidate with no last clause.
    """
    if g.include_constants:
        yield None
        yield (), 0, None  # true
    max_lits = g.max_literals_per_clause
    for s in range(1, g.max_clauses * max_lits + 1):
        for m in range(max(1, -(-s // max_lits)), min(g.max_clauses, s) + 1):
            yield from _level(group, s, m, max_lits)


def _conjunction(lits) -> Formula:
    """true, the one literal, or the And of the literals, in canonical order."""
    lits = tuple(lits)
    if len(lits) > 1:
        return _canonical_node(And, lits)
    return lits[0] if lits else TRUE


def _disjunction(clauses) -> Formula:
    """false, the one clause, or the Or of the clauses, in canonical order."""
    clauses = tuple(clauses)
    if len(clauses) > 1:
        return _canonical_node(Or, clauses)
    return clauses[0] if clauses else FALSE


def _build_formula(lits, combos) -> Formula:
    return _disjunction(_conjunction(lits[i] for i in combo) for combo in combos)


class OccamLearner:
    """One scan of the candidates, paused between `next` calls.

    `add` takes a new labeled point, and `next` returns the first candidate
    after the last one it returned that is consistent with every point
    added so far, or None when the rest of the class has none. The last
    clause of a candidate comes from `_last_clause`, whose memo a negative
    clears; the prefix clause records are kept: a new positive sets its bit
    in the records that hold it, and a new negative sets their mask to -1,
    so no candidate with one covers. `add` looks up only the records whose
    literals all hold the point.
    """

    def __init__(self, g: Grammar):
        self._lits = g.literals()
        self._tests = g.literal_tests()
        self._held = np.zeros(len(self._lits), dtype=bool)  # scratch for `add`
        self._masks_p = [0] * len(self._lits)
        self._masks_n = [0] * len(self._lits)
        self._counts = [0, 0]  # negatives, positives
        # The paused stream closes over these containers, not over the
        # learner: a cycle through a suspended generator would wait for the
        # cyclic collector.
        self._groups = {}
        self._index = {}
        self._group = _make_group_fn(
            self._lits, self._masks_p, self._masks_n, self._groups, self._index
        )
        self._stream = _ranges(g, self._group)
        self._resume = ()  # the rest of the range of the last answer
        # the literals that hold every positive of a set: a positive's bits
        # never change once it is added, so the answer never goes stale
        self._able = {}
        self._hits = {}  # (need, k) -> [hits found so far, paused walk or None]

    def add(self, x: Sequence[float], label: int):
        bit = 1 << self._counts[label]
        self._counts[label] += 1
        masks = self._masks_p if label else self._masks_n
        v = np.asarray(x, dtype=float)
        hold = self._held
        for compare, idx, features, constants in self._tests:
            hold[idx] = compare(v[features], constants)
        held = np.flatnonzero(hold).tolist()
        for i in held:
            masks[i] |= bit
        if not label:
            self._hits.clear()
        for k, records in self._groups.items():
            places = self._index[k]
            for combo in itertools.combinations(held, k):
                j = places.get(combo)
                if j is not None:
                    rec = records[j]
                    if rec[1] >= 0:
                        rec[1] = rec[1] | bit if label else -1

    def _last_clause(self, need: int, k: int, after: Optional[tuple]) -> Optional[tuple]:
        """The first k-literal clause after `after` (None: from the first)
        that holds every positive in `need` and no negative, or None.

        A clause's positive mask is the AND of its literals' masks, so only
        literals whose mask contains `need` can be in it. Its hits are kept,
        from the first combination on, none missing, until a negative (a
        positive changes neither `need`'s literals nor the negatives' masks).
        """
        if not k:  # the empty clause holds every point
            return () if after is None and not self._counts[0] else None
        entry = self._hits.get((need, k))
        if entry is None:
            able = self._able.get(need)
            if able is None:
                able = [i for i, mask in enumerate(self._masks_p) if mask & need == need]
                self._able[need] = able
            full_n = (1 << self._counts[0]) - 1
            entry = self._hits[need, k] = [[], _consistent_clauses(able, self._masks_n, full_n, k)]
        found, walk = entry
        i = bisect.bisect_right(found, after) if after else 0
        if i < len(found):
            return found[i]
        if walk is not None:
            for clause in walk:
                found.append(clause)
                if after is None or clause > after:
                    return clause
            entry[1] = None
        return None

    def next(self, deadline: Optional[float] = None) -> Optional[Formula]:
        """Raises SynthesisDeadlineError when the scan passes the deadline,
        which it checks once per range that holds no answer."""
        full_p = (1 << self._counts[1]) - 1
        resume, self._resume = self._resume, ()
        for rng in itertools.chain(resume, self._stream):
            if rng is None:
                if not full_p:
                    return FALSE
                continue
            prefix, k, after = rng
            covered = 0
            for rec in prefix:
                covered |= rec[1]
            last = None
            if covered >= 0:  # else a prefix record died since the range began
                last = self._last_clause(full_p & ~covered, k, after)
            if last is not None:
                self._resume = ((prefix, k, last),)
                return _build_formula(self._lits, [rec[0] for rec in prefix] + [last])
            if deadline is not None and time.perf_counter() > deadline:
                raise SynthesisDeadlineError("candidate scan passed its deadline")
        return None


def enumerate_formulas(g: Grammar) -> Iterator[Formula]:
    """Every formula of the grammar class, canonical, strictly in order.

    Every candidate is consistent with the empty sample.
    """
    return iter(OccamLearner(g).next, None)


def _fed(learner, sample: Sample):
    for x, label in sample:
        learner.add(x, label)
    return learner


def synthesize(
    sample: Sample, g: Grammar, deadline: Optional[float] = None
) -> Optional[Formula]:
    """First sample-consistent formula in candidate order, else None.

    None means the finite class is inconsistent with the sample.
    A contradictory sample cannot be constructed (Sample.add rejects it), so
    that failure mode is reported by InconsistentSampleError at insertion,
    never conflated with exhaustion here.
    """
    return _fed(OccamLearner(g), sample).next(deadline)


def _cell_signature(g: Grammar, x) -> tuple:
    """Which grid cell of g's constant lattice the point x falls in."""
    sig = []
    for f in g.features:
        if f.kind == "bool":
            sig.append(1 if x[f.index] == 1 else 0)
        else:
            v = x[f.index]
            sig.append((bisect.bisect_left(f.constants, v), bisect.bisect_right(f.constants, v)))
    return tuple(sig)


# --- literal bitsets of the general learner ------------------------------------

# Every literal is one compare of a coordinate with a constant: `xj` is
# `xj = 1` and `(not xj)` is `xj != 1`, which holds for NaN as `evaluate`'s
# `not` of `NaN = 1` does.
_LITERAL_COMPARE = {**_MASK_OPS, "!=": np.not_equal}

# The most cells `_missing_words` and `_cover_mask` hold in one array: they
# take the rows or the clauses a slice at a time, so that their working sets
# do not grow with the number of rows or clauses.
_COVER_CELLS = 1 << 16


def _literal_tests(lits: Sequence[Formula]) -> tuple:
    """(compare, literal indices, features, constants) for each op, so that
    one numpy compare tests a point against all the literals of the op."""
    groups = {}
    for i, lit in enumerate(lits):
        if isinstance(lit, Atom):
            op, j, c = lit.op, lit.feature, lit.constant
        elif isinstance(lit, BoolAtom):
            op, j, c = "=", lit.feature, 1.0
        else:
            op, j, c = "!=", lit.child.feature, 1.0
        groups.setdefault(op, []).append((i, j, c))
    tests = []
    for op, members in groups.items():
        idx, features, constants = zip(*members)
        arrays = (np.array(idx, dtype=np.intp), np.array(features, dtype=np.intp),
                  np.array(constants, dtype=float))
        for a in arrays:
            a.flags.writeable = False  # every learner of the grammar shares them
        tests.append((_LITERAL_COMPARE[op], *arrays))
    return tuple(tests)


def _missing_words(tests: tuple, X: np.ndarray, width: int) -> np.ndarray:
    """Bit i of column r: whether grammar literal i fails on row r of X, in
    a width × rows (word-major) array of little-endian 64-bit words; one
    numpy compare of each of the grammar's `tests` tests a slice of rows."""
    held = np.zeros((len(X), 64 * width), dtype=bool)
    step = max(1, _COVER_CELLS // (64 * width))
    for lo in range(0, len(X), step):
        block = X[lo:lo + step]
        for compare, idx, features, constants in tests:
            held[lo:lo + step, idx] = compare(block[:, features], constants)
    return np.invert(np.packbits(held, axis=1, bitorder="little").view("<u8").T, order="C")


def _cover_mask(clauses: np.ndarray, missing: np.ndarray) -> np.ndarray:
    """Whether some clause holds on each row, for clauses given as literal
    bitsets and rows as `_missing_words`: a clause holds on a row when it
    has none of the row's failing literals, tested one word at a time."""
    out = np.zeros(missing.shape[1], dtype=bool)
    step = max(1, _COVER_CELLS // max(1, missing.size))
    for lo in range(0, len(clauses), step):
        ok = (clauses[lo:lo + step, 0, None] & missing[0]) == 0
        for w in range(1, len(missing)):
            ok &= (clauses[lo:lo + step, w, None] & missing[w]) == 0
        out |= ok.any(axis=0)
    return out


def _fold_clause(clause: np.ndarray, missing: np.ndarray, covered: np.ndarray):
    """`_cover_mask` of one clause ORed into `covered` in place: each word
    of the clause is one scalar AND with that word of every row."""
    ok = (missing[0] & clause[0]) == 0
    for w in range(1, len(clause)):
        ok &= (missing[w] & clause[w]) == 0
    covered |= ok


class _Cover:
    """A general conjecture's clauses as literal bitsets, folded over rows
    instead of walked: `owner` is a token unique to the learner, `tests` its
    grammar's literal tests, `rows` a read-only view of its clause rows."""

    __slots__ = ("owner", "tests", "rows")

    def __init__(self, owner: object, tests: tuple, rows: np.ndarray):
        self.owner = owner
        self.tests = tests
        self.rows = rows

    def fold(self, memo: Optional[tuple], X: np.ndarray, a: int = 0) -> tuple:
        """The memo of this cover on X from row a on, whose last item is the
        mask of the rows it covers. `memo` is None or what `fold` returned on
        X from a row no later than a. A memo of this owner with no more
        clauses has folded a leading run of the rows (see `GeneralLearner.add`),
        so only the rest are folded in, one clause in place; any other memo
        is rebuilt."""
        rows = self.rows
        if memo is None or memo[0] is not self.owner or memo[1] > len(rows):
            missing = _missing_words(self.tests, X, rows.shape[1])
            memo = (self.owner, 0, missing, np.zeros(len(X), dtype=bool))
        owner, n, missing, covered = memo
        if n == len(rows) - 1:
            _fold_clause(rows[n], missing[:, a:], covered[a:])
        elif n < len(rows):
            covered[a:] |= _cover_mask(rows[n:], missing[:, a:])
        return owner, len(rows), missing, covered

    def mask(self, X: np.ndarray) -> np.ndarray:
        """Whether some clause of the cover holds on each row of X."""
        return self.fold(None, X)[-1]


def _word_count(g: Grammar) -> int:
    """Words of a bitset over g's literals."""
    return max(1, -(-len(g.literals()) // 64))


def _cell_clause(g: Grammar, sig: tuple) -> tuple:
    """The clause of the grid cell `sig`, its literals as a read-only bitset
    over `g.literals()`, and its flat key `(max(1, k), places)`, where
    `places` are the sorted indices in `g.literals()` of its k literals.

    A cell clause is true or a conjunction of distinct literals, and
    `g.literals()` is sorted by order key, so on cell clauses the flat key
    orders and ties exactly as `order_key` does, with cheaper compares."""
    lits = []
    for f, s in zip(g.features, sig):
        if f.kind == "bool":
            lits.append(BoolAtom(f.index) if s else Not(BoolAtom(f.index)))
            continue
        lo, hi = s
        if lo >= 1 and ">" in f.ops:
            lits.append(Atom(f.index, ">", f.constants[lo - 1]))
        if hi < len(f.constants) and "<" in f.ops:
            lits.append(Atom(f.index, "<", f.constants[hi]))
    literals = g.literals()
    place = {lit: i for i, lit in enumerate(literals)}
    places = tuple(sorted(place[lit] for lit in lits))
    held = np.zeros(64 * _word_count(g), dtype=bool)
    held[list(places)] = True
    words = np.packbits(held, bitorder="little").view("<u8")
    words.flags.writeable = False
    return _conjunction(literals[i] for i in places), words, (max(1, len(places)), places)


class GeneralLearner:
    """The cover of `synthesize_general`, extended point by point.

    Each clause is a bitset over the grammar's literals, one row of an
    array that grows by doubling; each negative is the bitset of the
    literals it fails, one column of a word-major array. A clause holds on
    a point when it has none of those, so a new negative or a new clause is
    one `_cover_mask` test against the other side. Each conjecture carries
    a `_Cover` of the clauses' rows.

    The clauses stay sorted by order key beside a list of their flat keys
    (see `_cell_clause`), which a new clause is placed in by bisection and
    whose equal key marks a duplicate. Once the cover fails it stays
    failed, since the sample only grows.
    """

    def __init__(self, g: Grammar):
        self._g = g
        self._tests = g.literal_tests()
        self._cells = g.__dict__.setdefault("_cells", {})  # `_cell_clause` by cell, kept on g
        self._clauses = []  # sorted by order key, which is Or's order
        self._keys = []  # the clauses' flat keys, which order them as order_key does
        width = _word_count(g)
        self._words = np.zeros((8, width), dtype="<u8")  # the clauses, in order added
        self._negatives = np.zeros((width, 0), dtype="<u8")  # failing literals, word-major
        self._owner = object()  # not the learner: a kept conjecture need not keep it alive
        self._failed = False

    def add(self, x: Sequence[float], label: int):
        if self._failed:
            return
        if not label:
            missing = _missing_words(self._tests, np.asarray([x], float), self._words.shape[1])
            self._negatives = np.concatenate([self._negatives, missing], axis=1)  # they are few
            self._failed = bool(_cover_mask(self._words[:len(self._clauses)], missing)[0])
            return
        g = self._g
        keys = self._keys
        cells, sig = self._cells, _cell_signature(g, x)
        clause, words, key = cells.get(sig) or cells.setdefault(sig, _cell_clause(g, sig))
        place = bisect.bisect_left(keys, key)
        if place < len(keys) and keys[place] == key:
            return
        n = len(keys)
        self._failed = (
            key[0] > g.max_literals_per_clause
            or n == g.max_clauses
            or bool(self._negatives.size and _cover_mask(words[None], self._negatives).any())
        )
        self._clauses.insert(place, clause)
        keys.insert(place, key)
        # Rows are only appended, never rewritten, and a grown buffer copies
        # them while the covers handed out keep viewing the old one: so a
        # conjecture's rows stay as they were, and of two covers the longer
        # starts with the rows of the shorter, which `_Cover.fold` relies on.
        if n == len(self._words):
            self._words = np.concatenate([self._words, np.zeros_like(self._words)])
        self._words[n] = words

    def next(self, deadline: Optional[float] = None) -> Optional[Formula]:
        if self._failed or not (self._clauses or self._g.include_constants):
            return None
        f = _disjunction(self._clauses)
        if isinstance(f, Or):
            rows = self._words[:len(self._clauses)]
            rows.flags.writeable = False
            object.__setattr__(f, "_cover", _Cover(self._owner, self._tests, rows))
        return f


def synthesize_general(sample: Sample, g: Grammar) -> Optional[Formula]:
    """Fast non-minimizing consistent DNF: one clause per positive grid cell.

    Covers each positive with the cell of the grammar's constant grid that
    contains it. Returns None when a cell also contains a negative (the
    sample is not separable over this grid) or the cell cover violates the
    grammar bounds.
    """
    return _fed(GeneralLearner(g), sample).next()


# --- SyGuS-IF export ----------------------------------------------------------


def _smt_symbol(name: str) -> str:
    ok = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789~!@$%^&*_-+=<>.?/")
    cleaned = "".join(ch if ch in ok else "_" for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "f_" + cleaned
    return cleaned


def _sygus_number(value: float) -> str:
    if value < 0:
        return f"(- {_sygus_number(-value)})"
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = f"{value:.12f}".rstrip("0")
        if text.endswith("."):
            text += "0"
    return text


def export_sygus_if(
    sample: Sample,
    g: Grammar,
    feature_names: Optional[Sequence[str]] = None,
    arity: Optional[int] = None,
) -> str:
    """Render the synthesis instance in SyGuS-IF v2 over LRA.

    The grammar block encodes the grammar's class: at most `max_clauses`
    clauses of at most `max_literals_per_clause` of its literals each, and
    `true` and `false` when it includes constants. Each sample entry becomes
    one point-wise constraint on the synthesized predicate.
    """
    if arity is None:
        if len(sample) > 0:
            arity = len(sample.entries[0][0])
        elif feature_names is not None:
            arity = len(feature_names)
        elif g.features:
            arity = max(f.index for f in g.features) + 1
        else:
            raise GrammarError("cannot infer arity for export")
    for x, _ in sample:
        if len(x) != arity:
            raise ValueError(f"sample point {x} has {len(x)} values, arity is {arity}")
    for f in g.features:
        if f.index >= arity:
            raise GrammarError(f"grammar feature index {f.index} exceeds arity {arity}")
    if feature_names is not None and len(feature_names) < arity:
        raise ValueError(f"{len(feature_names)} feature names for arity {arity}")

    def var(j: int) -> str:
        if feature_names is not None:
            return _smt_symbol(feature_names[j])
        return f"x{j}"

    lit_prods = []
    for f in g.features:
        if f.kind == "bool":
            lit_prods.append(f"(= {var(f.index)} 1.0)")
            lit_prods.append(f"(not (= {var(f.index)} 1.0))")
        else:
            for op in f.ops:
                for c in f.constants:
                    lit_prods.append(f"({op} {var(f.index)} {_sygus_number(c)})")
    if not lit_prods:
        lit_prods.append("true")

    def counted(name, unit, op, n):
        # `name` derives at most n units joined by op, through `name_j` for at
        # most j < n of them; a single unit is the unit itself
        names = [unit] + [f"{name}_{j}" for j in range(2, n)] + [name]
        rules = [(names[j], [unit, f"({op} {unit} {names[j - 1]})"]) for j in range(n - 1, 0, -1)]
        return rules or [(name, [unit])]

    rules = (
        counted("Start", "Clause", "or", g.max_clauses)
        + counted("Clause", "Lit", "and", g.max_literals_per_clause)
        + [("Lit", lit_prods)]
    )
    if g.include_constants:
        rules[0][1][:0] = ["true", "false"]
    params = " ".join(f"({var(j)} Real)" for j in range(arity))
    body = "\n   ".join(f"({name} Bool ({' '.join(alts)}))" for name, alts in rules)
    lines = [
        "(set-logic LRA)",
        f"(synth-fun explain ({params}) Bool",
        f"  ({' '.join(f'({name} Bool)' for name, _ in rules)})",
        f"  ({body}))",
    ]
    for x, label in sample:
        args = " ".join(_sygus_number(v) for v in x)
        want = "true" if label == 1 else "false"
        lines.append(f"(constraint (= (explain {args}) {want}))")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"
