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

`synthesize_general` is a deliberately non-minimizing alternative used to
approximate unconstrained synthesis: it covers each positive example with
the grammar-grid cell around it, which is fast and overfits.
"""

from __future__ import annotations

import bisect
import functools
import heapq
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

    def positives(self) -> list:
        return [x for x, label in self._entries if label == 1]

    def negatives(self) -> list:
        return [x for x, label in self._entries if label == 0]

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


def is_consistent(f: Formula, sample: Sample) -> bool:
    return all(evaluate(f, x) == bool(label) for x, label in sample)


# --- ordered candidate stream ------------------------------------------------
#
# Candidates are tuples of clause records; a clause record is
# (key, literal_indices, covered_positives_mask). Records inside a size
# group are sorted by key, and groups are combined so the overall stream is
# strictly increasing in the candidate order.


def _clause_key(k: int, lit_keys: tuple):
    if k == 1:
        return lit_keys[0]
    return (k, 1, (5, k, lit_keys))


def _make_group_fn(lits, masks_p, masks_n, admissible_only: bool):
    lit_keys = [order_key(lit) for lit in lits]
    cache = {}

    def group(k: int) -> list:
        if k in cache:
            return cache[k]
        records = []
        if k == 1:
            for i in range(len(lits)):
                if admissible_only and masks_n[i]:
                    continue
                records.append((lit_keys[i], (i,), masks_p[i]))
        else:
            for combo in itertools.combinations(range(len(lits)), k):
                if admissible_only:
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
                key = _clause_key(k, tuple(lit_keys[i] for i in combo))
                records.append((key, combo, mp))
        cache[k] = records
        return records

    return group


def _compositions(total: int, parts: int, max_part: int) -> list:
    """Non-decreasing compositions of `total` into `parts` parts <= max_part."""
    out = []

    def rec(remaining, left, lo, acc):
        if left == 0:
            if remaining == 0:
                out.append(tuple(acc))
            return
        for k in range(lo, max_part + 1):
            rest = remaining - k
            if rest < k * (left - 1) or rest > max_part * (left - 1):
                continue
            acc.append(k)
            rec(rest, left - 1, k, acc)
            acc.pop()

    rec(total, parts, 1, [])
    return out


def _combo_stream(group, composition: tuple) -> Iterator[tuple]:
    """Clause tuples for one size composition, in candidate order."""
    runs = [(k, len(list(grp))) for k, grp in itertools.groupby(composition)]

    def rec(run_idx: int, prefix: tuple) -> Iterator[tuple]:
        if run_idx == len(runs):
            yield prefix
            return
        k, count = runs[run_idx]
        for combo in itertools.combinations(group(k), count):
            yield from rec(run_idx + 1, prefix + combo)

    return rec(0, ())


def _dnf_sort_key(clause_tuple: tuple):
    return tuple(rec[0] for rec in clause_tuple)


def _candidate_stream(g: Grammar, group) -> Iterator[tuple]:
    """Yields (constant_formula, None) or (None, clause_tuple) in order."""
    max_lits = g.max_literals_per_clause
    max_total = g.max_clauses * max_lits
    for s in range(1, max_total + 1):
        if s == 1 and g.include_constants:
            yield (FALSE, None)
            yield (TRUE, None)
        m_lo = max(1, -(-s // max_lits))
        m_hi = min(g.max_clauses, s)
        for m in range(m_lo, m_hi + 1):
            if m == 1:
                for rec in group(s):
                    yield (None, (rec,))
                continue
            streams = [_combo_stream(group, comp) for comp in _compositions(s, m, max_lits)]
            if len(streams) == 1:
                for tup in streams[0]:
                    yield (None, tup)
            else:
                for tup in heapq.merge(*streams, key=_dnf_sort_key):
                    yield (None, tup)


def _build_formula(lits, clause_tuple: tuple) -> Formula:
    clauses = []
    for _, combo, _ in clause_tuple:
        if len(combo) == 1:
            clauses.append(lits[combo[0]])
        else:
            clauses.append(And(tuple(lits[i] for i in combo)))
    if len(clauses) == 1:
        return clauses[0]
    return Or(tuple(clauses))


def enumerate_formulas(g: Grammar) -> Iterator[Formula]:
    """Every formula of the grammar class, canonical, strictly in order."""
    lits = g.literals()
    zeros = [0] * len(lits)
    group = _make_group_fn(lits, zeros, zeros, admissible_only=False)
    for const, clause_tuple in _candidate_stream(g, group):
        if const is not None:
            yield const
        else:
            yield _build_formula(lits, clause_tuple)


def _literal_masks(lits, points) -> list:
    masks = []
    for lit in lits:
        m = 0
        for bit, x in enumerate(points):
            if evaluate(lit, x):
                m |= 1 << bit
        masks.append(m)
    return masks


_DEADLINE_STRIDE = 4096


def synthesize(
    sample: Sample, g: Grammar, deadline: Optional[float] = None
) -> Optional[Formula]:
    """First sample-consistent formula in candidate order, else None.

    None means the entire (finite) class is inconsistent with the sample.
    A contradictory sample cannot be constructed (Sample.add rejects it), so
    that failure mode is reported by InconsistentSampleError at insertion,
    never conflated with exhaustion here.
    """
    positives = sample.positives()
    negatives = sample.negatives()
    lits = g.literals()
    masks_p = _literal_masks(lits, positives)
    masks_n = _literal_masks(lits, negatives)
    full_p = (1 << len(positives)) - 1
    group = _make_group_fn(lits, masks_p, masks_n, admissible_only=True)
    checked = 0
    for const, clause_tuple in _candidate_stream(g, group):
        checked += 1
        if deadline is not None and checked % _DEADLINE_STRIDE == 0:
            if time.perf_counter() > deadline:
                raise SynthesisDeadlineError(
                    f"candidate scan passed its deadline after {checked} candidates"
                )
        if const is not None:
            if const is FALSE:
                if not positives:
                    return FALSE
            elif not negatives:
                return TRUE
            continue
        covered = 0
        for rec in clause_tuple:
            covered |= rec[2]
        if covered == full_p:
            return _build_formula(lits, clause_tuple)
    return None


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


def synthesize_general(sample: Sample, g: Grammar) -> Optional[Formula]:
    """Fast non-minimizing consistent DNF: one clause per positive grid cell.

    Covers each positive with the cell of the grammar's constant grid that
    contains it. Returns None when a cell also contains a negative (the
    sample is not separable over this grid) or the cell cover violates the
    grammar bounds.
    """
    positives = sample.positives()
    negatives = sample.negatives()
    if not positives:
        return FALSE if g.include_constants else None
    clauses = {}
    for x in positives:
        clause = _cell_clause(g, _cell_signature(g, x))
        if size(clause) > g.max_literals_per_clause:
            return None
        clauses[order_key(clause)] = clause
    clause_list = [clauses[k] for k in sorted(clauses)]
    if len(clause_list) > g.max_clauses:
        return None
    for clause in clause_list:
        if any(evaluate(clause, x) for x in negatives):
            return None
    if len(clause_list) == 1:
        return clause_list[0]
    return Or(tuple(clause_list))


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
