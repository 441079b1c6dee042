import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacexplain import (
    DistributionError,
    Empirical,
    ProductPerFeature,
    UniformBox,
    default_distribution,
    distribution_from_json,
    load_dataset,
)


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_same_seed_same_stream():
    for dist in (
        UniformBox([0.0] * 3, [1.0] * 3),
        default_distribution(["bool"] * 4),
        ProductPerFeature([("interval", -1, 2), ("categorical", {0: 1, 3: 2})]),
    ):
        a = [dist.sample(rng(42)) for _ in range(1)]
        r1, r2 = rng(42), rng(42)
        xs = [dist.sample(r1) for _ in range(50)]
        ys = [dist.sample(r2) for _ in range(50)]
        assert xs == ys
        assert [xs[0]] == a


def test_different_seeds_differ():
    dist = UniformBox([0.0] * 3, [1.0] * 3)
    assert dist.sample(rng(1)) != dist.sample(rng(2))


def test_uniform_box_bounds_and_mean():
    dist = UniformBox([2.0, -1.0], [4.0, -1.0])
    r = rng(7)
    xs = [dist.sample(r) for _ in range(4000)]
    assert all(2.0 <= x[0] <= 4.0 and x[1] == -1.0 for x in xs)
    mean = sum(x[0] for x in xs) / len(xs)
    assert math.isclose(mean, 3.0, abs_tol=0.05)


def test_uniform_box_validation():
    with pytest.raises(DistributionError):
        UniformBox([0.0], [1.0, 2.0])
    with pytest.raises(DistributionError):
        UniformBox([1.0], [0.0])


def test_uniform_box_is_a_product_of_intervals():
    box = UniformBox([0.0, -1.0], [2.0, 1.0])
    prod = ProductPerFeature([("interval", 0.0, 2.0), ("interval", -1.0, 1.0)])
    assert box.specs == prod.specs
    r1, r2 = rng(5), rng(5)
    assert [box.sample(r1) for _ in range(20)] == [prod.sample(r2) for _ in range(20)]
    assert box.to_json() == {"uniformBox": {"lo": [0.0, -1.0], "hi": [2.0, 1.0]}}


def test_uniform_boolean_is_fair():
    dist = default_distribution(["bool"] * 2)
    r = rng(3)
    xs = [dist.sample(r) for _ in range(4000)]
    assert all(set(x) <= {0.0, 1.0} for x in xs)
    p = sum(x[0] for x in xs) / len(xs)
    assert math.isclose(p, 0.5, abs_tol=0.03)


def test_categorical_weights_respected():
    dist = ProductPerFeature([("categorical", {0: 1, 1: 3})])
    r = rng(11)
    xs = [dist.sample(r)[0] for _ in range(8000)]
    assert math.isclose(sum(xs) / len(xs), 0.75, abs_tol=0.02)


def test_categorical_values_sorted_independent_of_dict_order():
    a = ProductPerFeature([("categorical", {2: 1, 0: 1, 1: 1})])
    b = ProductPerFeature([("categorical", {0: 1, 1: 1, 2: 1})])
    r1, r2 = rng(5), rng(5)
    assert [a.sample(r1) for _ in range(100)] == [b.sample(r2) for _ in range(100)]


def test_categorical_weights_stay_with_their_values():
    # "10" sorts before "9" as text but after it as a number
    dist = ProductPerFeature([("categorical", {"10": 1, "9": 3})])
    assert dist.specs[0] == ("categorical", [9.0, 10.0], [0.75, 0.25])
    back = distribution_from_json({"product": [{"categorical": {"10": 1, "9": 3}}]})
    assert back.specs == dist.specs


@pytest.mark.parametrize("weights", [{"1": 1, "1.0": 3}, {"0.5": 1, "5e-1": 1}, {"x": 1}])
def test_categorical_keys_must_name_distinct_numbers(weights):
    with pytest.raises(DistributionError):
        ProductPerFeature([("categorical", weights)])
    with pytest.raises(DistributionError):
        distribution_from_json({"product": [{"categorical": weights}]})


def test_product_validation():
    with pytest.raises(DistributionError):
        ProductPerFeature([("interval", 2, 1)])
    with pytest.raises(DistributionError):
        ProductPerFeature([("categorical", {})])
    with pytest.raises(DistributionError):
        ProductPerFeature([("categorical", {0: -1, 1: 2})])
    with pytest.raises(DistributionError):
        ProductPerFeature([("gaussian", 0, 1)])


@pytest.mark.parametrize(
    "spec",
    [
        {"uniformBox": {"lo": [0, 0, 0, math.nan], "hi": [1, 1, 1, 1]}},
        {"uniformBox": {"lo": 1, "hi": 2}},
        {"uniformBox": {"lo": [0, 0, 0, 0]}},
        {"product": 3},
        {"product": [3]},
        {"product": [{"interval": [0, math.inf]}]},
        {"product": [{"interval": [0]}]},
        {"product": [{"categorical": {"0": "x"}}]},
        {"product": [{"categorical": {"0": math.nan}}]},
        {"product": [{"categorical": {"nan": 1}}]},
        {"product": [{"categorical": [1, 2]}]},
        {"empirical": 5},
        {"empirical": {}},
        5,
    ],
)
def test_wrong_typed_or_non_finite_json_raises(spec):
    with pytest.raises(DistributionError):
        distribution_from_json(spec)


def test_empirical_perturbs_reals_only(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "flag,score,class\n0,10,x\n1,20,y\n1,30,x\n", encoding="utf-8"
    )
    data = load_dataset(str(path))
    assert data.kinds == ["bool", "real"]
    dist = Empirical(data, sigma=0.1, path=str(path))
    r = rng(9)
    source = {x for x, _ in data.rows}
    for _ in range(300):
        x = dist.sample(r)
        assert x[0] in (0.0, 1.0)
        assert 0.0 <= x[1] <= 1.0
    # with zero noise every draw is an exact dataset row
    quiet = Empirical(data, sigma=0.0)
    assert all(quiet.sample(r) in source for _ in range(50))


def test_empirical_validation(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,class\n1,x\n2,y\n", encoding="utf-8")
    data = load_dataset(str(path))
    for sigma in (-0.5, math.nan, math.inf, "0.1", None):
        with pytest.raises(DistributionError):
            Empirical(data, sigma=sigma)
    quiet = Empirical(data, sigma=0.1)
    with pytest.raises(DistributionError):
        quiet.to_json()


def test_default_distribution_shapes():
    allbool = default_distribution(["bool", "bool"])
    assert isinstance(allbool, ProductPerFeature)
    assert all(spec[0] == "categorical" for spec in allbool.specs)
    mixed = default_distribution(["bool", "real"])
    assert mixed.specs[0][0] == "categorical"
    assert mixed.specs[1] == ("interval", 0.0, 1.0)


def test_json_round_trip(tmp_path):
    box = UniformBox([0.0, 1.0], [2.0, 3.0])
    back = distribution_from_json(json.loads(json.dumps(box.to_json())))
    assert back.to_json() == box.to_json()

    prod = ProductPerFeature([("interval", 0, 1), ("categorical", {0: 0.25, 1: 0.75})])
    back = distribution_from_json(json.loads(json.dumps(prod.to_json())))
    assert back.to_json() == prod.to_json()
    r1, r2 = rng(13), rng(13)
    assert [prod.sample(r1) for _ in range(50)] == [back.sample(r2) for _ in range(50)]

    path = tmp_path / "d.csv"
    path.write_text("a,class\n1,x\n2,y\n", encoding="utf-8")
    data = load_dataset(str(path))
    emp = Empirical(data, sigma=0.05, path=str(path))
    back = distribution_from_json(json.loads(json.dumps(emp.to_json())))
    assert back.to_json() == emp.to_json()
    r1, r2 = rng(17), rng(17)
    assert [emp.sample(r1) for _ in range(50)] == [back.sample(r2) for _ in range(50)]


def test_distribution_from_json_unknown():
    with pytest.raises(DistributionError):
        distribution_from_json({"gaussian": {}})
    with pytest.raises(DistributionError):
        distribution_from_json({"product": [{"spline": []}]})


# --- block kernels against the scalar sampler ---------------------------------

IRIS = str(pathlib.Path(__file__).resolve().parent.parent / "src" / "pacexplain" / "data" / "iris.csv")
# seven equal weights: the running sum of the probabilities ends at
# 0.9999999999999998, so the largest doubles below 1 lie past every sum
SHORT_WEIGHTS = {v: 1 for v in range(7)}
PRODUCT = ProductPerFeature(
    [
        ("interval", -1, 2),
        ("categorical", {0: 1, 3: 2}),
        ("categorical", SHORT_WEIGHTS),
        ("categorical", {0: 0, 1: 1, 2: 0}),
        ("interval", 0.5, 0.5),
    ]
)
# one categorical spec on columns 0, 3 and 5 (the last in another dict
# order), between an interval, a second spec with a zero weight and a
# single value: the block draws each spec's columns together
GROUPED = ProductPerFeature(
    [
        ("categorical", {0: 1, 3: 2, 5: 1}),
        ("interval", -1, 2),
        ("categorical", {1: 1, 2: 0, 4: 3}),
        ("categorical", {0: 1, 3: 2, 5: 1}),
        ("categorical", {7: 2}),
        ("categorical", {5: 1, 0: 1, 3: 2}),
    ]
)
STREAMS = {
    "box": UniformBox([0.0, -1.0, 2.0], [1.0, 1.0, 2.0]),
    "product": PRODUCT,
    "grouped": GROUPED,
    "boolean": default_distribution(["bool"] * 16),
    "empirical": Empirical(load_dataset(IRIS), sigma=0.05),
    "empirical-quiet": Empirical(load_dataset(IRIS), sigma=0.0),
}


def scalar_draws(dist, r, n):
    return [dist.sample(r) for _ in range(n)]


def test_short_weights_fall_short_of_one():
    running = 0.0
    for p in PRODUCT.specs[2][2]:
        running += p
    assert running < np.nextafter(1.0, 0.0)


@pytest.mark.parametrize("name", list(STREAMS))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 70))
def test_sample_block_matches_scalar_draws(name, seed, n):
    dist = STREAMS[name]
    a, b = rng(seed), rng(seed)
    X = dist.sample_block(a, n)
    assert X.shape == (n, dist.arity)
    assert [dist.point(row) for row in X] == scalar_draws(dist, b, n)
    assert a.bit_generator.state == b.bit_generator.state


class Doubles:
    """Stand-in generator handing out a fixed sequence of doubles."""

    def __init__(self, values):
        self.values = list(values)
        self.pos = 0

    def random(self, size=None):
        if size is None:
            self.pos += 1
            return self.values[self.pos - 1]
        n = int(np.prod(size))
        self.pos += n
        return np.array(self.values[self.pos - n : self.pos]).reshape(size)


def _edges(dist):
    """Every running sum of the categorical columns, its neighbours below
    and above, and the extremes of [0, 1)."""
    edges = {0.0, np.nextafter(1.0, 0.0)}
    for spec in dist.specs:
        if spec[0] == "categorical":
            running = 0.0
            for p in spec[2]:
                running += p
                edges |= {running, np.nextafter(running, 0.0), np.nextafter(running, 1.0)}
    return sorted(e for e in edges if 0.0 <= e < 1.0)


@settings(deadline=None)
@given(data=st.data())
def test_inverse_cdf_block_matches_scalar_at_every_edge(data):
    for dist in (PRODUCT, GROUPED):
        u = st.one_of(st.floats(0, 1, exclude_max=True), st.sampled_from(_edges(dist)))
        us = data.draw(st.lists(u, min_size=dist.arity * 12, max_size=dist.arity * 12))
        block = [dist.point(row) for row in dist.sample_block(Doubles(us), 12)]
        assert block == scalar_draws(dist, Doubles(us), 12)


def test_points_share_the_categorical_value_objects():
    dist = default_distribution(["bool"] * 4)
    X = dist.sample_block(rng(2), 20)
    scalar = scalar_draws(dist, rng(2), 20)
    values = dist.specs[0][1]
    for row, x in zip(X, scalar):
        got = dist.point(row)
        assert got == x
        assert all(any(v is w for w in values) for v in got)
    # every default distribution draws the same two objects
    other = default_distribution(["bool"] * 4)
    assert all(v is w for v, w in zip(other.specs[0][1], values))
