"""Output checks, computed apart from the program.

Nothing here imports pacexplain. Explanations arrive as the program's
rendered s-expression text and are parsed and evaluated by this module's
own code; models are read from their JSON; the cosine ball, the grammar
class and the uniform distributions are re-implemented here. The checks
rest on properties the method must have, not on copies of earlier output:

- every call returns a certified explanation that agrees with every point
  of its final sample;
- zoo-queries: no smaller formula of the grammar class agrees with that
  sample (the Occam learner returns the first consistent formula in order
  of size), and the exact error, enumerated over the features the tree, the
  query and the explanation read, exceeds epsilon on no more calls than
  delta allows;
- general-dnf: the error estimated from this module's own draws exceeds
  epsilon plus a sampling slack on no more calls than delta allows;
- occam-deep: the explanation is no larger than the planted DNF, which is
  in the class and agrees with every sample, and its exact error against
  that DNF over the cells of the constant grid respects the delta
  allowance.

The error of a call is the probability of a violation, P(x in query and
explanation(x) != [model(x) == target]), the quantity the verifier bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# A correct program fails a probabilistic check with probability below this.
FALSE_ALARM = 1e-6
# Own draws per general-dnf call for the sampled error.
GENERAL_DRAWS = 20000


# --- formulas -----------------------------------------------------------------
#
# A formula is a nested tuple: ("const", bool), ("bool", j),
# ("cmp", op, j, c), ("not", f), ("and", fs) or ("or", fs).


def parse(text: str):
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def var(tok: str) -> int:
        if not tok.startswith("x") or not tok[1:].isdigit():
            raise ValueError(f"not a variable: {tok!r}")
        return int(tok[1:])

    def expr():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "true":
            return ("const", True)
        if tok == "false":
            return ("const", False)
        if tok != "(":
            return ("bool", var(tok))
        head = tokens[pos]
        pos += 1
        if head in ("<", ">", "<=", ">=", "="):
            node = ("cmp", head, var(tokens[pos]), float(tokens[pos + 1]))
            pos += 2
        else:
            args = []
            while tokens[pos] != ")":
                args.append(expr())
            if head == "not" and len(args) == 1:
                node = ("not", args[0])
            elif head in ("and", "or") and len(args) >= 2:
                node = (head, tuple(args))
            else:
                raise ValueError(f"bad {head!r} node in {text!r}")
        if tokens[pos] != ")":
            raise ValueError(f"unbalanced formula {text!r}")
        pos += 1
        return node

    node = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing text in {text!r}")
    return node


_CMP = {
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "=": np.equal,
}


def holds(f, X: np.ndarray) -> np.ndarray:
    """Truth of f on each row of X, as a boolean array."""
    tag = f[0]
    if tag == "const":
        return np.full(len(X), f[1])
    if tag == "bool":
        return X[:, f[1]] == 1
    if tag == "cmp":
        return _CMP[f[1]](X[:, f[2]], f[3])
    if tag == "not":
        return ~holds(f[1], X)
    parts = (holds(g, X) for g in f[1])
    out = next(parts)
    for p in parts:
        out = (out & p) if tag == "and" else (out | p)
    return out


def size(f) -> int:
    """Literal occurrences; a constant counts one."""
    if f[0] in ("and", "or"):
        return sum(size(g) for g in f[1])
    if f[0] == "not":
        return size(f[1])
    return 1


def features(f) -> set:
    tag = f[0]
    if tag == "const":
        return set()
    if tag == "bool":
        return {f[1]}
    if tag == "cmp":
        return {f[2]}
    if tag == "not":
        return features(f[1])
    return set().union(*(features(g) for g in f[1]))


# --- models and queries -------------------------------------------------------


def tree_predict(tree: dict, X: np.ndarray) -> np.ndarray:
    """Leaf labels of a tree JSON (x[feature] <= threshold goes left)."""
    out = np.empty(len(X), dtype=object)

    def walk(node, rows):
        if not len(rows):
            return
        if "leaf" in node:
            out[rows] = node["leaf"]
            return
        left = X[rows, node["feature"]] <= node["threshold"]
        walk(node["le"], rows[left])
        walk(node["gt"], rows[~left])

    walk(tree["root"], np.arange(len(X)))
    return out


def tree_features(tree: dict) -> set:
    found = set()

    def walk(node):
        if "leaf" not in node:
            found.add(node["feature"])
            walk(node["le"])
            walk(node["gt"])

    walk(tree["root"])
    return found


def mlp_predict(mlp: dict, X: np.ndarray) -> np.ndarray:
    """Forward pass of an MLP JSON; argmax with ties to the lowest index."""
    v = X
    for layer in mlp["layers"]:
        v = v @ np.asarray(layer["w"], dtype=float).T + np.asarray(layer["b"], dtype=float)
        if layer["act"] == "relu":
            v = np.maximum(v, 0.0)
    return np.asarray(mlp["classes"], dtype=object)[np.argmax(v, axis=1)]


def in_cosine_ball(X: np.ndarray, center, radius: float) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    norms = np.linalg.norm(X, axis=1)
    nonzero = norms > 0
    cos = np.zeros(len(X))
    cos[nonzero] = (X[nonzero] @ c) / (norms[nonzero] * np.linalg.norm(c))
    return nonzero & (1.0 - np.clip(cos, -1.0, 1.0) <= radius)


# --- the grammar class --------------------------------------------------------


def grammar_literals(grammar: dict) -> list:
    lits = []
    for pos, feat in enumerate(grammar["features"]):
        j = feat.get("index", pos)
        if feat.get("kind", "real") == "bool":
            lits += [("bool", j), ("not", ("bool", j))]
        else:
            for op in feat.get("ops") or ("<", ">"):
                for c in feat.get("constants") or (0.25, 0.5, 0.75):
                    lits.append(("cmp", op, j, float(c)))
    return lits


def smaller_consistent(grammar: dict, limit: int, X: np.ndarray, y: np.ndarray):
    """A formula of the grammar class with size < limit agreeing with (X, y).

    Enumerates every DNF of at most maxClauses clauses of at most
    maxLiteralsPerClause distinct literals, plus the constants when the
    grammar allows them, over bitmasks of the sample; None if there is none.
    """
    want = int(sum(1 << i for i in np.flatnonzero(y)))
    full = (1 << len(y)) - 1
    if grammar.get("constants", True) and limit > 1 and want in (0, full):
        return ("const", want == full)
    lits = grammar_literals(grammar)
    masks = [int(sum(1 << i for i in np.flatnonzero(holds(lit, X)))) for lit in lits]
    max_k = grammar.get("maxLiteralsPerClause", 4)
    max_m = grammar.get("maxClauses", 2)
    clauses = []  # (literal count, mask, literal indices), admissible only
    for k in range(1, min(max_k, limit - 1) + 1):
        for combo in itertools.combinations(range(len(lits)), k):
            m = full
            for i in combo:
                m &= masks[i]
            if m & ~want == 0:
                clauses.append((k, m, combo))

    def search(start, budget, covered, left, chosen):
        if chosen and covered == want:
            return chosen
        if left == 0:
            return None
        for idx in range(start, len(clauses)):
            k, m, combo = clauses[idx]
            if k <= budget:
                hit = search(idx + 1, budget - k, covered | m, left - 1, chosen + [combo])
                if hit is not None:
                    return hit
        return None

    hit = search(0, limit - 1, 0, max_m, [])
    if hit is None:
        return None
    return ("or", tuple(("and", tuple(lits[i] for i in c)) for c in hit))


# --- allowances ---------------------------------------------------------------


def delta_allowance(calls: int, delta: float) -> int:
    """Largest count of calls over epsilon that a correct program explains.

    Each call errs with probability at most delta, so the count is at most
    Binomial(calls, delta); return the smallest k with P(count > k) below
    FALSE_ALARM.
    """
    pmf = (1.0 - delta) ** calls
    cdf = pmf
    k = 0
    while 1.0 - cdf >= FALSE_ALARM and k < calls:
        pmf *= (calls - k) / (k + 1) * delta / (1.0 - delta)
        k += 1
        cdf += pmf
    return k


def sampling_slack(draws: int) -> float:
    """One-sided Hoeffding margin for a share over `draws` draws."""
    return math.sqrt(math.log(1.0 / FALSE_ALARM) / (2.0 * draws))


# --- per-call checks ----------------------------------------------------------


@dataclass
class Verdict:
    """Outcome of checking the calls of one run."""

    calls: int = 0
    over_epsilon: int = 0
    problems: list = field(default_factory=list)
    delta: float = 0.05

    @property
    def allowance(self) -> int:
        return delta_allowance(self.calls, self.delta)

    @property
    def ok(self) -> bool:
        return not self.problems and self.over_epsilon <= self.allowance

    def summary(self) -> str:
        return (
            f"{self.calls} calls, {self.over_epsilon} over epsilon"
            f" (allowance {self.allowance}), {len(self.problems)} problems"
        )


def _sample_arrays(sample: list, arity: int):
    X = np.array([x for x, _ in sample], dtype=float).reshape(len(sample), arity)
    y = np.array([label for _, label in sample], dtype=bool)
    return X, y


def _boolean_grid(relevant: list, arity: int) -> np.ndarray:
    bits = np.array(list(itertools.product((0.0, 1.0), repeat=len(relevant))))
    X = np.zeros((len(bits), arity))
    if relevant:
        X[:, relevant] = bits
    return X


def _cell_midpoints(constants, arity: int) -> np.ndarray:
    edges = [0.0, *sorted(constants), 1.0]
    mids = [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
    widths = [b - a for a, b in zip(edges, edges[1:])]
    if len(set(widths)) != 1:
        raise ValueError("cell weighting assumes equal-width cells")
    return np.array(list(itertools.product(mids, repeat=arity)))


def check_call(case, outcome: str, certified: bool, text, sample: list,
               call_seed: int) -> tuple:
    """(problems, error) for one call; error is None when not computed."""
    if outcome != "explanation" or not certified or text is None:
        return [f"outcome {outcome}, certified {certified}"], None
    f = parse(text)
    arity = case.model["arity"]
    problems = []
    X, y = _sample_arrays(sample, arity)
    if not np.array_equal(holds(f, X), y):
        problems.append(f"{text} disagrees with its final sample")

    if case.kind == "zoo-queries":
        smaller = smaller_consistent(case.grammar, size(f), X, y)
        if smaller is not None:
            problems.append(f"{smaller} is smaller than {text} and fits the sample")
        query = parse(case.query)
        relevant = sorted(tree_features(case.model) | features(query) | features(f))
        grid = _boolean_grid(relevant, arity)
        truth = tree_predict(case.model, grid) == case.target
        error = float(np.mean(holds(query, grid) & (holds(f, grid) != truth)))
        return problems, error

    if case.kind == "general-dnf":
        rng = np.random.default_rng([call_seed, 7])
        D = rng.random((GENERAL_DRAWS, arity))
        truth = mlp_predict(case.model, D) == case.target
        wrong = in_cosine_ball(D, *case.ball) & (holds(f, D) != truth)
        return problems, float(np.mean(wrong)) - sampling_slack(GENERAL_DRAWS)

    if case.kind == "occam-deep":
        planted = parse(case.planted)
        if size(f) > size(planted):
            problems.append(f"{text} is larger than the planted {case.planted}")
        constants = case.grammar["features"][0]["constants"]
        cells = _cell_midpoints(constants, arity)
        error = float(np.mean(holds(f, cells) != holds(planted, cells)))
        return problems, error

    raise ValueError(f"unknown workload {case.kind!r}")


def check_calls(records) -> Verdict:
    """Check (case, outcome, certified, text, sample, call_seed) records."""
    verdict = Verdict()
    for case, outcome, certified, text, sample, call_seed in records:
        verdict.calls += 1
        verdict.delta = case.delta
        problems, error = check_call(case, outcome, certified, text, sample, call_seed)
        verdict.problems += problems
        if error is not None and error > case.epsilon:
            verdict.over_epsilon += 1
    return verdict
