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
so clauses satisfied by some negative are dropped before combination;
single-clause candidates must additionally cover every positive.

An engine run keeps one learner per strategy and feeds it each round's
counterexamples. `OccamLearner` pauses its scan between rounds and
resumes right after the conjecture the verifier just refuted, which gives
the same answer as a scan from the start: the sample only grows, so every
candidate before the conjecture is still inconsistent with it, and the
conjecture itself misclassifies its new counterexamples. `synthesize` and
`synthesize_general` are one-shot calls on a fresh learner.

`synthesize_general` is a deliberately non-minimizing alternative used to
approximate unconstrained synthesis: it covers each positive example with
the grammar-grid cell around it, which is fast and overfits.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .formula import (
    FALSE,
    TRUE,
    And,
    Atom,
    BoolAtom,
    Formula,
    Not,
    Or,
    evaluate,
    order_key,
    size,
)

DEFAULT_CONSTANTS = (0.25, 0.5, 0.75)
GRAMMAR_OPS = ("<", ">")


class GrammarError(ValueError):
    pass


class InconsistentSampleError(ValueError):
    """Raised when a sample would label the same point both 0 and 1."""


class SynthesisDeadlineError(RuntimeError):
    """Raised when the enumerative scan exceeds its hard deadline."""


@dataclass(frozen=True)
class GrammarFeature:
    index: int
    kind: str  # "bool" | "real"
    constants: tuple = ()
    ops: tuple = ()
    name: Optional[str] = None

    def __post_init__(self):
        if self.index < 0:
            raise GrammarError(f"negative feature index {self.index}")
        if self.kind == "bool":
            object.__setattr__(self, "constants", ())
            object.__setattr__(self, "ops", ())
            return
        if self.kind != "real":
            raise GrammarError(f"unknown feature kind {self.kind!r}")
        constants = tuple(float(c) for c in (self.constants or DEFAULT_CONSTANTS))
        ops = tuple(self.ops or GRAMMAR_OPS)
        if not set(ops) <= set(GRAMMAR_OPS):
            raise GrammarError(f"grammar ops must be a subset of {GRAMMAR_OPS}")
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
    features: tuple
    max_clauses: int = 2
    max_literals_per_clause: int = 4
    include_constants: bool = True

    def __post_init__(self):
        feats = tuple(self.features)
        if self.max_clauses < 1 or self.max_literals_per_clause < 1:
            raise GrammarError("clause and literal bounds must be >= 1")
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
        if "features" not in obj:
            raise GrammarError("grammar JSON missing 'features'")
        feats = []
        for pos, entry in enumerate(obj["features"]):
            if "index" in entry:
                index = int(entry["index"])
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
                    constants=tuple(entry.get("constants", ())),
                    ops=tuple(entry.get("ops", ())),
                    name=entry.get("name"),
                )
            )
        return Grammar(
            features=tuple(feats),
            max_clauses=int(obj.get("maxClauses", 2)),
            max_literals_per_clause=int(obj.get("maxLiteralsPerClause", 4)),
            include_constants=bool(obj.get("constants", True)),
        )


def default_grammar(
    kinds: Sequence[str],
    names: Optional[Sequence[str]] = None,
    max_clauses: int = 2,
    max_literals_per_clause: int = 4,
    constants: Sequence[float] = DEFAULT_CONSTANTS,
) -> Grammar:
    feats = []
    for j, kind in enumerate(kinds):
        name = names[j] if names is not None else None
        if kind == "bool":
            feats.append(GrammarFeature(j, "bool", name=name))
        else:
            feats.append(GrammarFeature(j, "real", tuple(constants), GRAMMAR_OPS, name))
    return Grammar(tuple(feats), max_clauses, max_literals_per_clause, True)


class Sample:
    """Ordered, function-consistent labeled points.

    Entries are (vector, label) with label in {0, 1}; a point may not carry
    both labels. `add` returns False for an exact duplicate and raises
    InconsistentSampleError on a contradiction.
    """

    def __init__(self, entries: Optional[Iterable] = None):
        self._entries: List[Tuple[tuple, int]] = []
        self._index = {}
        if entries is not None:
            for x, label in entries:
                self.add(x, label)

    def add(self, x: Sequence[float], label: int) -> bool:
        point = tuple(float(v) for v in x)
        label = int(label)
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        existing = self._index.get(point)
        if existing is not None:
            if existing != label:
                raise InconsistentSampleError(
                    f"point {point} already labeled {existing}, cannot relabel {label}"
                )
            return False
        self._index[point] = label
        self._entries.append((point, label))
        return True

    @property
    def entries(self) -> list:
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def is_consistent(f: Formula, sample: Sample) -> bool:
    return all(evaluate(f, x) == bool(label) for x, label in sample)


# --- ordered candidate stream ------------------------------------------------
#
# A clause record is a mutable [literal_indices, positives_mask] list, and a
# candidate is a tuple of clause records. `group(k)` lists the records of the
# k-literal clauses in itertools.combinations order over the sorted
# literals, which is their candidate order. A level (s, m) holds the
# candidates of total size s with m clauses. Every clause key starts with
# the clause's size, so walking clause sizes upward, and each size group
# from the record after the previous one, yields a level in candidate order.
# The constants come first: false is the empty disjunction and true the
# empty clause, record [(), mask] of group(0).


def _make_group_fn(lits, masks_p, masks_n, cache):
    """group(k): the k-literal clauses that reject every negative example.

    Each group is built once, into `cache`, from the per-literal masks of
    the points seen so far; the learner updates its records after that.
    """

    def group(k: int) -> list:
        if k in cache:
            return cache[k]
        records = []
        for combo in itertools.combinations(range(len(lits)), k):
            mn = masks_n[combo[0]]
            for i in combo[1:]:
                mn &= masks_n[i]
                if not mn:
                    break
            if mn:
                continue
            mp = masks_p[combo[0]]
            for i in combo[1:]:
                mp &= masks_p[i]
            records.append([combo, mp])
        cache[k] = records
        return records

    return group


def _level(group, s: int, m: int, max_lits: int, k_lo: int = 1, i_lo: int = 0):
    """Clause tuples of total size s with m clauses, in candidate order.

    The first clause is at least record i_lo of group(k_lo), or any record
    of a larger group; the other m - 1 clauses follow it. Records that hold
    a negative example (mask -1) are skipped; a tuple already under way
    when one dies fails the cover test.
    """
    for k in range(k_lo, max_lits + 1):
        rest = s - k
        if rest < k * (m - 1) or rest > max_lits * (m - 1):
            continue
        records = group(k)
        for j in range(i_lo if k == k_lo else 0, len(records)):
            rec = records[j]
            if rec[1] < 0:
                continue
            if m == 1:
                yield (rec,)
            else:
                for tail in _level(group, rest, m - 1, max_lits, k, j + 1):
                    yield (rec,) + tail


def _candidate_stream(g: Grammar, group) -> Iterator[tuple]:
    """Every clause tuple of the grammar, level by level, in candidate order."""
    if g.include_constants:
        yield ()  # false
        yield (group(0)[0],)  # true
    max_lits = g.max_literals_per_clause
    for s in range(1, g.max_clauses * max_lits + 1):
        for m in range(max(1, -(-s // max_lits)), min(g.max_clauses, s) + 1):
            yield from _level(group, s, m, max_lits)


def _build_formula(lits, clause_tuple: tuple) -> Formula:
    clauses = []
    for combo, _ in clause_tuple:
        if not combo:
            clauses.append(TRUE)
        elif len(combo) == 1:
            clauses.append(lits[combo[0]])
        else:
            clauses.append(And(tuple(lits[i] for i in combo)))
    if len(clauses) == 1:
        return clauses[0]
    return Or(tuple(clauses)) if clauses else FALSE


_DEADLINE_STRIDE = 4096


class OccamLearner:
    """One scan of the candidates, paused between `next` calls.

    `add` takes a new labeled point, and `next` returns the first candidate
    after the last one it returned that is consistent with every point
    added so far, or None when the rest of the class has none. A new
    positive sets its bit in the clause records that hold it; a new
    negative sets their mask to -1, so no candidate with one covers.
    """

    def __init__(self, g: Grammar):
        self._lits = g.literals()
        self._masks_p = [0] * len(self._lits)
        self._masks_n = [0] * len(self._lits)
        self._counts = [0, 0]  # negatives, positives
        # the empty clause, true, holds every point. The paused stream closes
        # over these containers, not over the learner: a cycle through a
        # suspended generator would wait for the cyclic collector.
        self._groups = {0: [[(), 0]]}
        group = _make_group_fn(self._lits, self._masks_p, self._masks_n, self._groups)
        self._stream = _candidate_stream(g, group)

    def add(self, x: Sequence[float], label: int):
        bit = 1 << self._counts[label]
        self._counts[label] += 1
        masks = self._masks_p if label else self._masks_n
        missed = set()
        for i, lit in enumerate(self._lits):
            if evaluate(lit, x):
                masks[i] |= bit
            else:
                missed.add(i)
        for records in self._groups.values():
            for rec in records:
                if rec[1] >= 0 and missed.isdisjoint(rec[0]):
                    rec[1] = rec[1] | bit if label else -1

    def next(self, deadline: Optional[float] = None) -> Optional[Formula]:
        """Raises SynthesisDeadlineError when the scan passes the deadline."""
        full_p = (1 << self._counts[1]) - 1
        checked = 0
        for clause_tuple in self._stream:
            covered = 0
            for rec in clause_tuple:
                covered |= rec[1]
            if covered == full_p:
                return _build_formula(self._lits, clause_tuple)
            checked += 1
            if deadline is not None and checked % _DEADLINE_STRIDE == 0:
                if time.perf_counter() > deadline:
                    raise SynthesisDeadlineError(
                        f"candidate scan passed its deadline after {checked} candidates"
                    )
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


@functools.lru_cache(maxsize=65536)
def _cell_clause(g: Grammar, sig: tuple) -> Formula:
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
    if not lits:
        return TRUE
    if len(lits) == 1:
        return lits[0]
    return And(tuple(lits))


class GeneralLearner:
    """The cover of `synthesize_general`, extended point by point.

    Once the cover fails it stays failed, since the sample only grows.
    """

    def __init__(self, g: Grammar):
        self._g = g
        self._clauses = {}  # order_key -> clause
        self._keys = []  # sorted, so that Or's own sort sees sorted input
        self._negatives = []
        self._failed = False

    def add(self, x: Sequence[float], label: int):
        if self._failed:
            return
        if not label:
            self._negatives.append(x)
            self._failed = any(evaluate(c, x) for c in self._clauses.values())
            return
        g = self._g
        clause = _cell_clause(g, _cell_signature(g, x))
        key = order_key(clause)
        if key in self._clauses:
            return
        self._failed = (
            size(clause) > g.max_literals_per_clause
            or len(self._keys) == g.max_clauses
            or any(evaluate(clause, n) for n in self._negatives)
        )
        self._clauses[key] = clause
        bisect.insort(self._keys, key)

    def next(self, deadline: Optional[float] = None) -> Optional[Formula]:
        if self._failed:
            return None
        if not self._keys:
            return FALSE if self._g.include_constants else None
        if len(self._keys) == 1:
            return self._clauses[self._keys[0]]
        return Or(tuple(self._clauses[k] for k in self._keys))


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

    The grammar block encodes the DNF shape (disjunction of conjunctions of
    the grammar's literals); each sample entry becomes one point-wise
    constraint on the synthesized predicate.
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

    start_alts = ["Clause", "(or Clause Start)"]
    if g.include_constants:
        start_alts = ["true", "false"] + start_alts

    params = " ".join(f"({var(j)} Real)" for j in range(arity))
    lines = [
        "(set-logic LRA)",
        f"(synth-fun explain ({params}) Bool",
        "  ((Start Bool) (Clause Bool) (Lit Bool))",
        f"  ((Start Bool ({' '.join(start_alts)}))",
        "   (Clause Bool (Lit (and Lit Clause)))",
        f"   (Lit Bool ({' '.join(lit_prods)}))))",
    ]
    for x, label in sample:
        args = " ".join(_sygus_number(v) for v in x)
        want = "true" if label == 1 else "false"
        lines.append(f"(constraint (= (explain {args}) {want}))")
    lines.append("(check-synth)")
    return "\n".join(lines) + "\n"
