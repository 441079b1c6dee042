import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pacexplain import (
    CosineBall,
    FormulaQuery,
    QueryError,
    TrueQuery,
    cosine_distance,
    load_query,
    parse,
    query_from_json,
)


def test_cosine_distance_hand_values():
    assert cosine_distance((1, 0), (1, 0)) == 0.0
    assert cosine_distance((1, 0), (0, 1)) == 1.0
    assert cosine_distance((1, 0), (-1, 0)) == 2.0
    assert math.isclose(cosine_distance((1, 1), (1, 0)), 1 - math.sqrt(0.5))
    # scale invariance
    assert math.isclose(
        cosine_distance((0.2, 0.4), (3, 1)), cosine_distance((1, 2), (0.3, 0.1))
    )


def test_cosine_distance_zero_vector_raises():
    with pytest.raises(QueryError):
        cosine_distance((0, 0), (1, 0))
    with pytest.raises(QueryError):
        cosine_distance((1, 0), (0, 0))


# squared norms must not underflow: tiny subnormal entries are "zero" to cosine
vectors = st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3).filter(
    lambda v: sum(u * u for u in v) > 0.0
)


@given(vectors, vectors)
def test_cosine_distance_symmetric_and_bounded(a, b):
    d = cosine_distance(a, b)
    assert cosine_distance(b, a) == d
    assert -1e-9 <= d <= 2 + 1e-9


def test_cosine_ball_membership():
    ball = CosineBall((1.0, 0.0), 0.5)
    assert ball.arity == 2
    assert ball.contains((2.0, 0.0))
    assert ball.contains((1.0, 0.9))
    assert not ball.contains((0.0, 1.0))
    assert not ball.contains((0.0, 0.0))


@given(
    vectors,
    st.lists(st.one_of(vectors, st.just([0.0, 0.0, 0.0])), min_size=1, max_size=12),
    st.floats(0, 2),
)
def test_cosine_contains_mask_matches_contains(center, xs, radius):
    zero = [0.0, 0.0, 0.0]
    X = np.array(xs, dtype=float)
    # a radius that some nonzero point sits on exactly, and one drawn freely
    on_edge = [cosine_distance(x, center) for x in xs if x != zero]
    for r in on_edge[:1] + [radius]:
        ball = CosineBall(center, min(r, 2.0))
        assert ball.contains_mask(X).tolist() == [ball.contains(x) for x in xs]


def test_cosine_contains_mask_edge_and_zero_rows():
    ball = CosineBall((1.0, 0.0), 1.0)
    X = np.array([[0.0, 1.0], [0.0, 0.0], [-0.0, 0.0], [1.0, 1.0], [-1.0, 1e-9]])
    # (0, 1) lies at distance exactly 1; zero rows are outside every ball
    assert ball.contains_mask(X).tolist() == [True, False, False, True, False]
    with pytest.raises(QueryError):
        ball.contains_mask(np.array([[1e-200, 0.0]]))


def test_formula_contains_mask_matches_contains():
    q = FormulaQuery(parse("(or (and x0 (not x1)) (<= x1 0.25))", 2), 2)
    xs = [(1.0, 0.0), (1.0, 1.0), (0.0, 0.25), (0.0, 0.5), (0.3, 0.2)]
    assert q.contains_mask(np.array(xs)).tolist() == [q.contains(x) for x in xs]
    assert TrueQuery().contains_mask(np.zeros((3, 2))).tolist() == [True] * 3


def test_cosine_ball_rejects_bad_arguments():
    with pytest.raises(QueryError):
        CosineBall((0.0, 0.0), 0.5)
    with pytest.raises(QueryError):
        CosineBall((1.0, 0.0), 2.5)
    with pytest.raises(QueryError):
        CosineBall((1.0, 0.0), -0.1)


def test_formula_query_contains():
    q = FormulaQuery(parse("(and x0 (not x1))", 2), 2)
    assert q.contains((1.0, 0.0))
    assert not q.contains((1.0, 1.0))
    assert TrueQuery(2).contains((0.3, 0.8))


def test_query_json_round_trip():
    q = FormulaQuery(parse("(> x1 0.25)", 3), 3)
    assert query_from_json(q.to_json(), 3) == q
    ball = CosineBall((0.5, 0.5, 1.0), 0.25)
    assert query_from_json(ball.to_json(), 3) == ball


def test_query_from_json_errors():
    with pytest.raises(QueryError):
        query_from_json({}, 2)
    with pytest.raises(QueryError):
        query_from_json({"cosine": {}}, 2)
    with pytest.raises(QueryError):
        query_from_json({"cosine": {"center": [1.0]}}, 2)


def test_load_query_accepts_formula_text():
    q = load_query("(not x0)", 2)
    assert isinstance(q, FormulaQuery)
    assert q.contains((0.0, 1.0))


def test_load_query_accepts_json_text():
    q = load_query(json.dumps({"cosine": {"center": [1.0, 1.0]}}), 2)
    assert isinstance(q, CosineBall)
    assert q.max_distance == 0.5


def test_load_query_accepts_file(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"formula": "(> x0 0.5)"}), encoding="utf-8")
    q = load_query(str(path), 1)
    assert q.contains((0.9,))
    assert not q.contains((0.1,))


def test_load_query_resolves_names():
    q = load_query("(and milk (not fins))", 3, ["milk", "eggs", "fins"])
    assert q.contains((1.0, 0.0, 0.0))
    assert not q.contains((1.0, 0.0, 1.0))
