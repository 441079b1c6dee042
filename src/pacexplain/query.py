"""Query regions restricting where an explanation must hold.

Two kinds: a formula over the feature space, or a cosine-distance ball
around a center vector. Membership is the only operation the rest of the
pipeline needs: `contains` for one point, `contains_mask` for the rows of a
block.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .formula import TRUE, Formula, evaluate, evaluate_mask, parse, render

DEFAULT_COSINE_RADIUS = 0.5


class QueryError(ValueError):
    pass


def cosine_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """1 - cos(a, b). Undefined (raises) when either vector is zero."""
    dot = 0.0
    na = 0.0
    nb = 0.0
    for u, v in zip(a, b):
        dot += u * v
        na += u * u
        nb += v * v
    if na == 0.0 or nb == 0.0:
        raise QueryError("cosine distance undefined for the zero vector")
    # multiply the norms, not the squared norms: the product of two tiny
    # squared norms can underflow to zero even when both are representable
    cos = dot / (math.sqrt(na) * math.sqrt(nb))
    # rounding can push |cos| a few ulps past 1
    return 1.0 - max(-1.0, min(1.0, cos))


class Query:
    arity: int

    def contains(self, x: Sequence[float]) -> bool:
        raise NotImplementedError

    def contains_mask(self, X: np.ndarray) -> np.ndarray:
        """`contains` on every row of the 2-D block X, as a boolean mask."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FormulaQuery(Query):
    formula: Formula
    arity: int

    def contains(self, x: Sequence[float]) -> bool:
        return evaluate(self.formula, x)

    def contains_mask(self, X: np.ndarray) -> np.ndarray:
        return evaluate_mask(self.formula, X)

    def to_json(self) -> dict:
        return {"formula": render(self.formula), "arity": self.arity}


def TrueQuery(arity: int = 0) -> FormulaQuery:
    return FormulaQuery(TRUE, arity)


class CosineBall(Query):
    """Points within `max_distance` cosine distance of `center`.

    The zero vector has no direction, so it is outside every ball; a center
    whose squared norm, summed as `cosine_distance` sums it, is zero (the
    zero vector, or one whose squares underflow) is rejected outright.
    """

    def __init__(self, center: Sequence[float], max_distance: float = DEFAULT_COSINE_RADIUS):
        self.center = tuple(float(v) for v in center)
        nb = 0.0
        for c in self.center:
            nb += c * c
        if nb == 0.0:
            raise QueryError("cosine ball center must not be the zero vector or underflow to it")
        if not 0.0 <= max_distance <= 2.0:
            raise QueryError("cosine distance lies in [0, 2]")
        self.max_distance = float(max_distance)
        self.arity = len(self.center)
        self._norm = math.sqrt(nb)

    def contains(self, x: Sequence[float]) -> bool:
        if not any(x):
            return False
        return cosine_distance(x, self.center) <= self.max_distance

    def contains_mask(self, X: np.ndarray) -> np.ndarray:
        # the sums run column by column in `cosine_distance`'s order, so each
        # row rounds exactly as the scalar test does
        dot = np.zeros(len(X))
        na = np.zeros(len(X))
        for j, c in enumerate(self.center):
            col = X[:, j]
            dot += col * c
            na += col * col
        # the center's squared norm is not zero, so only a nonzero row whose
        # squares underflow has no computable distance
        if not na.all() and X[na == 0.0].any():
            raise QueryError("cosine distance undefined for the zero vector")
        # a zero row gives 0/0 = NaN, which no comparison accepts: outside
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = dot / (np.sqrt(na) * self._norm)
        return 1.0 - np.clip(cos, -1.0, 1.0) <= self.max_distance

    def to_json(self) -> dict:
        return {"cosine": {"center": list(self.center), "maxDistance": self.max_distance}}


def _finite_number(v) -> bool:
    """Whether v is a finite int or float; a bool, though an int, is not."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


def query_from_json(obj: dict, arity: int, names: Optional[Sequence[str]] = None) -> Query:
    if not isinstance(obj, dict):
        raise QueryError("query JSON must be an object")
    if "cosine" in obj:
        spec = obj["cosine"]
        if not isinstance(spec, dict) or spec.get("center") is None:
            raise QueryError("cosine query needs a 'center'")
        center = spec["center"]
        if not isinstance(center, list) or not all(_finite_number(v) for v in center):
            raise QueryError("cosine center must be a list of finite numbers")
        if len(center) != arity:
            raise QueryError(f"cosine center has {len(center)} entries, arity is {arity}")
        radius = spec.get("maxDistance", DEFAULT_COSINE_RADIUS)
        if not _finite_number(radius):
            raise QueryError("cosine maxDistance must be a number")
        return CosineBall(center, radius)
    if "formula" in obj:
        if not isinstance(obj["formula"], str):
            raise QueryError("query formula must be a string")
        return FormulaQuery(parse(obj["formula"], arity, names), arity)
    raise QueryError("query JSON needs 'formula' or 'cosine'")


def _loads_json(text: str, source: str):
    """`json.loads`, with JSON nested too deeply for the parser reported as
    a ValueError that names `source`, instead of a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{source}: JSON nested too deeply") from None


def load_query(spec: str, arity: int, names: Optional[Sequence[str]] = None) -> Query:
    """Build a query from a formula string, a JSON string, or a file path."""
    text = spec
    if os.path.exists(spec) and not spec.strip().startswith("("):
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    stripped = text.strip()
    if stripped.startswith("{"):
        return query_from_json(_loads_json(stripped, "query"), arity, names)
    return FormulaQuery(parse(stripped, arity, names), arity)
