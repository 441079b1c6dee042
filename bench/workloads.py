"""The benchmark's three workloads, built from its own seed.

Each workload is a list of rounds; a round is a list of `RunConfig`s that
the benchmark hands to `pacexplain.explain` one after another. Every input
(explain seeds, planted formulas, decision trees) comes from the benchmark
seed through numpy generators owned here, so the same seed always yields
the same configurations, and the program sees nothing but those configs.

Alongside each config the workload keeps a `Case`: the plain data the
output checks need (model JSON, query text, grammar JSON, planted formula),
so that `checks.py` never reads a pacexplain object.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

import pacexplain as px

DATA_DIR = os.path.join(os.path.dirname(px.__file__), "data")

# Criterion 1's five query regions over the zoo tree.
ZOO_QUERIES = ("true", "(not x11)", "(not x9)", "x9", "x3")
IRIS_CENTER = (0.6, 0.4, 0.8, 0.8)
IRIS_RADIUS = 0.5
OCCAM_ARITY = 6
OCCAM_CONSTANTS = (0.25, 0.5, 0.75)

# Rounds generated in set-up. A run that outlasts the pool starts over at
# its first round; the checks count each distinct input once.
POOL_ROUNDS = {"zoo-queries": 400, "general-dnf": 200, "occam-deep": 100}


@dataclass(frozen=True)
class Case:
    """What the checks need to judge one call, as plain data."""

    kind: str  # workload name
    model: dict  # model JSON
    query: Optional[str]  # formula query text
    grammar: dict  # grammar JSON
    target: str
    epsilon: float
    delta: float
    planted: Optional[str] = None  # occam-deep: the planted DNF as text
    ball: Optional[tuple] = None  # general-dnf: (center, cosine radius)


@dataclass
class Workload:
    name: str
    rounds: list  # list of rounds, each a list of (RunConfig, Case)


def _load_json(name: str) -> dict:
    with open(os.path.join(DATA_DIR, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _seed_stream(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def zoo_queries(seed: int) -> Workload:
    tree_json = _load_json("zoo_tree.json")
    grammar_json = _load_json("zoo_grammar.json")
    model = px.model_from_json(tree_json)
    grammar = px.Grammar.from_json(grammar_json)
    queries = [(text, px.FormulaQuery(px.parse(text, 16), 16)) for text in ZOO_QUERIES]
    rng = _seed_stream(seed, 1)
    rounds = []
    for _ in range(POOL_ROUNDS["zoo-queries"]):
        round_ = []
        for text, query in queries:
            cfg = px.RunConfig(
                model=model,
                query=query,
                target_class="fish",
                grammar=grammar,
                seed=int(rng.integers(2**31)),
            )
            case = Case("zoo-queries", tree_json, text, grammar_json, "fish",
                        cfg.epsilon, cfg.delta)
            round_.append((cfg, case))
        rounds.append(round_)
    return Workload("zoo-queries", rounds)


def loose_grammar_json(arity: int) -> dict:
    """Criterion 8's loose grammar: 4096 clauses of up to 2n literals."""
    return {
        "features": [
            {"name": f"x{j}", "index": j, "kind": "real",
             "constants": list(OCCAM_CONSTANTS)}
            for j in range(arity)
        ],
        "maxClauses": 4096,
        "maxLiteralsPerClause": 2 * arity,
        "constants": True,
    }


def general_dnf(seed: int) -> Workload:
    mlp_json = _load_json("mlp_iris.json")
    model = px.model_from_json(mlp_json)
    grammar_json = loose_grammar_json(model.arity)
    grammar = px.Grammar.from_json(grammar_json)
    query = px.CosineBall(IRIS_CENTER, IRIS_RADIUS)
    rng = _seed_stream(seed, 2)
    rounds = []
    for _ in range(POOL_ROUNDS["general-dnf"]):
        cfg = px.RunConfig(
            model=model,
            query=query,
            target_class="virginica",
            grammar=grammar,
            seed=int(rng.integers(2**31)),
            strategy="general",
            accuracy_samples=0,
        )
        case = Case("general-dnf", mlp_json, None, grammar_json, "virginica",
                    cfg.epsilon, cfg.delta, ball=(IRIS_CENTER, IRIS_RADIUS))
        rounds.append([(cfg, case)])
    return Workload("general-dnf", rounds)


LITERAL_CHOICES = [(op, c) for op in ("<", ">") for c in OCCAM_CONSTANTS]


def planted_round(rng: np.random.Generator) -> list:
    """Six planted DNFs (x0 ∧ x1) ∨ (x2 ∧ x3 ∧ x4) over literals "xj op c".

    Each of the six (op, constant) choices appears once per feature across
    the six formulas, in an order drawn from `rng`, so every round carries
    the same mix of literals and only their combination and the explain
    seeds vary. The features stay fixed: where a formula sits in the
    candidate order, and so how long the scan takes to reach it, depends
    mostly on its features.
    """
    orders = [rng.permutation(len(LITERAL_CHOICES)) for _ in range(5)]
    out = []
    for k in range(len(LITERAL_CHOICES)):
        literals = [(j, *LITERAL_CHOICES[orders[j][k]]) for j in range(5)]
        out.append([literals[:2], literals[2:]])
    return out


def planted_text(clauses: list) -> str:
    def clause_text(clause):
        lits = [f"({op} x{j} {c!r})" for j, op, c in clause]
        return lits[0] if len(lits) == 1 else "(and " + " ".join(lits) + ")"

    return "(or " + " ".join(clause_text(c) for c in clauses) + ")"


def planted_tree(clauses: list) -> dict:
    """Decision-tree JSON whose "target" leaves are exactly the planted DNF.

    The tree sends x[j] <= c left, so "x < c" is read as "x <= c"; the two
    differ only on the hyperplane x[j] == c, which has measure zero.
    """

    def node(ci: int, li: int) -> dict:
        if ci == len(clauses):
            return {"leaf": "other"}
        if li == len(clauses[ci]):
            return {"leaf": "target"}
        j, op, c = clauses[ci][li]
        hold, fail = node(ci, li + 1), node(ci + 1, 0)
        le, gt = (hold, fail) if op == "<" else (fail, hold)
        return {"feature": j, "threshold": c, "le": le, "gt": gt}

    return {"type": "tree", "arity": OCCAM_ARITY, "classes": ["other", "target"],
            "root": node(0, 0)}


def occam_deep(seed: int) -> Workload:
    grammar = px.default_grammar(["real"] * OCCAM_ARITY, max_clauses=2,
                                 max_literals_per_clause=3)
    grammar_json = grammar.to_json()
    query = px.TrueQuery(OCCAM_ARITY)
    rng = _seed_stream(seed, 3)
    rounds = []
    for _ in range(POOL_ROUNDS["occam-deep"]):
        round_ = []
        for clauses in planted_round(rng):
            tree_json = planted_tree(clauses)
            cfg = px.RunConfig(
                model=px.model_from_json(tree_json),
                query=query,
                target_class="target",
                grammar=grammar,
                seed=int(rng.integers(2**31)),
            )
            case = Case("occam-deep", tree_json, "true", grammar_json, "target",
                        cfg.epsilon, cfg.delta, planted=planted_text(clauses))
            round_.append((cfg, case))
        rounds.append(round_)
    return Workload("occam-deep", rounds)


WORKLOADS = {
    "zoo-queries": zoo_queries,
    "general-dnf": general_dnf,
    "occam-deep": occam_deep,
}
