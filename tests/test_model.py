"""Classifier wrappers and dataset loading.

Oracles: decision trees are replayed by an independent recursive descent
written here; trees are also flattened to a DNF over their positive paths
and checked for pointwise agreement with `classify`; MLP forward passes are
recomputed with plain Python loops instead of numpy.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pacexplain import (
    And,
    Atom,
    CosineBall,
    DatasetFormatError,
    DecisionTreeModel,
    MlpModel,
    ModelFormatError,
    Or,
    TableModel,
    TrueQuery,
    accuracy_on,
    evaluate,
    load_dataset,
    load_model,
    model_from_json,
    parse,
    save_manifest,
    load_manifest,
)

from reference import positive_paths


def classify_tree_oracle(node, x):
    while "leaf" not in node:
        node = node["le"] if x[node["feature"]] <= node["threshold"] else node["gt"]
    return node["leaf"]


def forward_oracle(layers, x):
    v = list(x)
    for w, b, act in layers:
        out = []
        for row, bias in zip(w, b):
            s = bias
            for wij, vj in zip(row, v):
                s += wij * vj
            out.append(max(s, 0.0) if act == "relu" else s)
        v = out
    return v


def tree_strategy(arity=3, depth=3):
    leaves = st.fixed_dictionaries({"leaf": st.sampled_from(("a", "b"))})

    def splits(children):
        return st.fixed_dictionaries(
            {
                "feature": st.integers(0, arity - 1),
                "threshold": st.floats(0.1, 0.9, allow_nan=False),
                "le": children,
                "gt": children,
            }
        )

    return st.recursive(leaves, splits, max_leaves=2**depth)


points3 = st.lists(st.floats(0, 1, allow_nan=False), min_size=3, max_size=3)


@given(tree_strategy(), points3)
def test_tree_classify_matches_descent_oracle(root, x):
    model = DecisionTreeModel(3, ("a", "b"), root)
    assert model.classify(x) == classify_tree_oracle(root, x)


def _thresholds(node):
    if "leaf" in node:
        return set()
    return {node["threshold"]} | _thresholds(node["le"]) | _thresholds(node["gt"])


def _block(xs, arity=3):
    return np.array(xs, dtype=float).reshape(len(xs), arity)


def assert_target_masks_match_classify(model, xs):
    X = _block(xs, model.arity)
    for target in model.classes:
        mask = model.target_mask(X, target)
        assert mask.dtype == bool
        assert mask.tolist() == [model.classify(x) == target for x in xs]


# NaN coordinates fail every `<=`, as they do in the scalar descent
points3_nan = st.lists(
    st.floats(0, 1, allow_nan=False) | st.just(math.nan), min_size=3, max_size=3
)


@given(tree_strategy(depth=4), st.lists(points3_nan, max_size=12))
def test_tree_target_mask_matches_classify(root, xs):
    model = DecisionTreeModel(3, ("a", "b"), root)
    on = sorted(_thresholds(root))
    xs = xs + [[t, t, t] for t in on] + [[t, math.nan, 1 - t] for t in on]
    # a leaf tests x0 <= 0 and must keep the row either way
    xs += [[0.0, 0.0, 0.0], [math.nan] * 3]
    assert_target_masks_match_classify(model, xs)


@given(tree_strategy(), points3)
def test_tree_positive_paths_form_equivalent_dnf(root, x):
    model = DecisionTreeModel(3, ("a", "b"), root)
    paths = positive_paths(model, "b")
    satisfied = any(
        all(
            (x[j] <= t if op == "<=" else x[j] > t)
            for j, op, t in path
        )
        for path in paths
    )
    assert satisfied == (model.classify(x) == "b")


def test_zoo_tree_equals_its_path_dnf_on_the_full_grid(zoo_tree):
    paths = positive_paths(zoo_tree, "fish")
    clauses = []
    for path in paths:
        lits = tuple(Atom(j, op, t) for j, op, t in path)
        clauses.append(lits[0] if len(lits) == 1 else And(lits))
    dnf = clauses[0] if len(clauses) == 1 else Or(tuple(clauses))
    # the tree splits on two features; sweep those and spot-check the rest
    relevant = sorted({j for path in paths for j, _, _ in path})
    assert relevant == [9, 11]
    for bits in itertools.product((0.0, 1.0), repeat=16):
        assert evaluate(dnf, bits) == (zoo_tree.classify(bits) == "fish")


def test_tree_validation_errors():
    with pytest.raises(ModelFormatError):
        DecisionTreeModel(2, ("a",), {"leaf": "zzz"})
    with pytest.raises(ModelFormatError):
        DecisionTreeModel(2, ("a",), {"feature": 5, "threshold": 0.5, "le": {"leaf": "a"}, "gt": {"leaf": "a"}})
    with pytest.raises(ModelFormatError):
        DecisionTreeModel(2, ("a",), {"feature": 0, "le": {"leaf": "a"}, "gt": {"leaf": "a"}})
    with pytest.raises(ModelFormatError):
        DecisionTreeModel(2, ("a",), {"feature": 0, "threshold": "mid", "le": {"leaf": "a"}, "gt": {"leaf": "a"}})
    with pytest.raises(ModelFormatError):
        DecisionTreeModel(2, ("a",), ["leaf", "a"])


@pytest.mark.parametrize("bad,message", [
    ({"leaf": "zzz"}, "leaf class 'zzz' not in classes"),
    ({"feature": 5, "threshold": 0.5, "le": {"leaf": "a"}, "gt": {"leaf": "a"}},
     "tree split feature 5 out of range"),
    ({"feature": 0, "le": {"leaf": "a"}, "gt": {"leaf": "a"}}, "tree node missing 'threshold'"),
    ({"feature": 0, "threshold": "mid", "le": {"leaf": "a"}, "gt": {"leaf": "a"}},
     "tree threshold must be numeric"),
    (["leaf", "a"], "tree node must be an object"),
])
@pytest.mark.parametrize("depth", [3, 6])
def test_malformed_node_below_the_root_is_rejected(bad, message, depth):
    root = bad
    for k in range(depth):
        sound = {"leaf": "a"}
        le, gt = (root, sound) if k % 2 else (sound, root)
        root = {"feature": k % 2, "threshold": 0.5, "le": le, "gt": gt}
    with pytest.raises(ModelFormatError, match=message):
        DecisionTreeModel(2, ("a",), root)


def test_tree_node_that_is_its_own_descendant_is_rejected():
    loop = {"feature": 0, "threshold": 0.5, "gt": {"leaf": "a"}}
    loop["le"] = loop
    with pytest.raises(ModelFormatError, match="own descendant"):
        DecisionTreeModel(1, ("a",), {"feature": 0, "threshold": 0.2, "le": {"leaf": "a"}, "gt": loop})
    # a subtree shared by two parents is no cycle
    shared = {"feature": 0, "threshold": 0.5, "le": {"leaf": "a"}, "gt": {"leaf": "b"}}
    model = DecisionTreeModel(1, ("a", "b"), {"feature": 0, "threshold": 0.2, "le": shared, "gt": shared})
    assert_target_masks_match_classify(model, [[0.1], [0.4], [0.6]])


def test_deep_tree_loads_and_its_mask_matches_classify():
    # row (u, v) descends while its coordinates stay under the thresholds,
    # which fall towards the bottom, so random rows stop at many depths
    depth = 3000
    root = {"leaf": "a"}
    for k in range(depth):
        gt = {"leaf": "b" if k % 3 else "a"}
        root = {"feature": k % 2, "threshold": (k + 1) / (depth + 1), "le": root, "gt": gt}
    model = DecisionTreeModel(2, ("a", "b"), root)
    rng = np.random.default_rng(0)
    xs = rng.random((300, 2)).tolist() + [[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]
    assert_target_masks_match_classify(model, xs)


# Thresholds from a small pool repeat one split at several nodes. 0.0 and
# -0.0 are one split of the table, since `x <= 0.0` and `x <= -0.0` agree.
SPLIT_POOL = (0.0, -0.0, 0.25, 0.5, 0.75, 1.0)
# the fixed bound on distinct splits up to which a tree keeps a split table
SPLIT_TABLE_BOUND = 12


def pooled_tree_strategy(arity=3, depth=4):
    leaves = st.fixed_dictionaries({"leaf": st.sampled_from(("a", "b", "c"))})

    def splits(children):
        return st.fixed_dictionaries(
            {
                "feature": st.integers(0, arity - 1),
                "threshold": st.sampled_from(SPLIT_POOL),
                "le": children,
                "gt": children,
            }
        )

    return st.recursive(leaves, splits, max_leaves=2**depth)


pooled_points = st.lists(
    st.sampled_from(SPLIT_POOL + (math.nan, 0.1, 0.6, -1.0, 2.0)) | st.floats(-1, 2),
    min_size=3,
    max_size=3,
)


@given(pooled_tree_strategy(), st.lists(pooled_points, max_size=12))
def test_tree_with_repeated_splits_masks_match_classify(root, xs):
    model = DecisionTreeModel(3, ("a", "b", "c"), root)
    # every threshold on every feature, its neighbours, NaN rows and
    # signed zeros
    for t in SPLIT_POOL:
        xs = xs + [[t] * 3, [np.nextafter(t, -1.0)] * 3, [np.nextafter(t, 2.0)] * 3]
    xs += [[math.nan] * 3, [math.nan, 0.0, 1.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]
    assert_target_masks_match_classify(model, xs)


def _split_chain(distinct: int, repeats: int = 2) -> dict:
    """A chain of `distinct` distinct splits over three features, each at
    `repeats` nodes; a row leaves the chain at the first split it fails."""
    root = {"leaf": "a"}
    for k in range(distinct * repeats):
        s = k % distinct
        gt = {"leaf": "bc"[k % 2]}
        root = {"feature": s % 3, "threshold": (s + 1) / (distinct + 1), "le": root, "gt": gt}
    return root


@pytest.mark.parametrize("distinct", [0, 1, 5, SPLIT_TABLE_BOUND, SPLIT_TABLE_BOUND + 1])
def test_split_table_holds_up_to_the_bound_and_matches_classify(distinct):
    model = DecisionTreeModel(3, ("a", "b", "c"), _split_chain(distinct))
    on = [(s + 1) / (distinct + 1) for s in range(distinct)]
    rng = np.random.default_rng(distinct)
    xs = rng.random((300, 3)).tolist() + [[t, t, t] for t in on]
    xs += [[t, math.nan, -0.0] for t in on] + [[math.nan] * 3, [-0.0] * 3]
    assert_target_masks_match_classify(model, xs)
    assert_target_masks_match_classify(model, [])
    # the table is kept per distinct split, not per node, up to the bound
    if distinct <= SPLIT_TABLE_BOUND:
        assert model._splits is not None and len(model._splits[0]) == distinct
        assert [len(model._verdicts[c]) for c in model.classes] == [2**distinct] * 3
    else:
        assert model._splits is None


def _tree_below(**split) -> dict:
    # the malformed split sits below a sound root
    below = {"feature": 1, "threshold": 0.5, "le": {"leaf": "a"}, "gt": {"leaf": "b"}, **split}
    return {"type": "tree", "arity": 2, "classes": ["a", "b"],
            "root": {"feature": 0, "threshold": 0.5, "le": below, "gt": {"leaf": "b"}}}


def _mlp_with(w=((1.0, 0.0), (0.0, 1.0)), b=(0.0, 0.0)) -> dict:
    return {"type": "mlp", "arity": 2, "classes": ["a", "b"],
            "layers": [{"w": [list(row) for row in w], "b": list(b), "act": "id"}]}


def _table_with(*xs, classes=("a",)) -> dict:
    return {"type": "table", "arity": 2, "classes": ["a", "b"], "default": "a",
            "entries": [{"x": list(x), "class": c} for x, c in zip(xs, itertools.cycle(classes))]}


# JSON true is no number, and JSON readers take NaN and Infinity
NON_NUMBER_MODELS = {
    "tree-feature-true": _tree_below(feature=True),
    "tree-threshold-true": _tree_below(threshold=True),
    "tree-threshold-nan": _tree_below(threshold=math.nan),
    "tree-threshold-infinity": _tree_below(threshold=-math.inf),
    "tree-threshold-past-float": _tree_below(threshold=10**400),
    "mlp-w-true": _mlp_with(w=((1.0, True), (0.0, 1.0))),
    "mlp-w-nan": _mlp_with(w=((1.0, 0.0), (math.nan, 1.0))),
    "mlp-b-true": _mlp_with(b=(True, 0.0)),
    "mlp-b-nan": _mlp_with(b=(0.0, math.nan)),
    "mlp-b-infinity": _mlp_with(b=(0.0, math.inf)),
    "table-x-true": _table_with([True, 0]),
    "table-x-text": _table_with(["1.5", 0]),
    "table-x-nan": _table_with([0.0, math.nan]),
    "table-x-infinity": _table_with([math.inf, 0.0]),
    "table-x-past-float": _table_with([10**400, 0.0]),
}


@pytest.mark.parametrize("name", list(NON_NUMBER_MODELS))
def test_model_json_rejects_booleans_and_non_finite_numbers(name):
    with pytest.raises(ModelFormatError):
        model_from_json(NON_NUMBER_MODELS[name])


def test_model_json_takes_ints_and_signed_zeros():
    assert model_from_json(_tree_below(feature=1, threshold=-0.0)).classify([0.1, 0.0]) == "a"
    assert model_from_json(_tree_below(threshold=1)).classify([0.1, 1.0]) == "a"
    assert model_from_json(_mlp_with(w=((1, 0), (0, 1)), b=(0, -0.5))).classify([0.2, 0.6]) == "a"


def test_mlp_weights_of_the_wrong_shape_are_rejected():
    for layer in ({"w": [[1.0, 0.0], [1.0]], "b": [0.0, 0.0]}, {"w": [], "b": []},
                  {"w": [1.0, 0.0], "b": [0.0]}, {"w": [[1.0, 0.0]], "b": 0.0}):
        with pytest.raises(ModelFormatError):
            MlpModel(2, ("a",), [{**layer, "act": "id"}])


mlp_layer_floats = st.floats(-2, 2, allow_nan=False)


@st.composite
def mlp_strategy(draw, arity=3, classes=("p", "q")):
    widths = [arity] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)) + [len(classes)]
    layers = []
    for k in range(len(widths) - 1):
        w = draw(
            st.lists(
                st.lists(mlp_layer_floats, min_size=widths[k], max_size=widths[k]),
                min_size=widths[k + 1],
                max_size=widths[k + 1],
            )
        )
        b = draw(st.lists(mlp_layer_floats, min_size=widths[k + 1], max_size=widths[k + 1]))
        act = "id" if k == len(widths) - 2 else "relu"
        layers.append({"w": w, "b": b, "act": act})
    return MlpModel(arity, classes, layers)


@given(mlp_strategy(), points3)
def test_mlp_matches_loop_forward_oracle(model, x):
    logits = forward_oracle(
        [(w.tolist(), b.tolist(), act) for w, b, act in model.layers], x
    )
    best = max(range(len(logits)), key=lambda i: (logits[i], -i))
    assert model.classify(x) == model.classes[best]


@given(
    st.one_of(mlp_strategy(), mlp_strategy(classes=("p", "q", "p"))),
    st.lists(points3_nan, max_size=12),
)
def test_mlp_target_mask_matches_classify(model, xs):
    # a class named twice is the target at both of its outputs
    assert_target_masks_match_classify(model, xs + [[0.0, 0.0, 0.0]])


def _with_tied_outputs(model):
    """The model with a third output equal to its second: the two tie on
    every row, and the lower index must win wherever they lead."""
    layers = [{"w": w.tolist(), "b": b.tolist(), "act": act} for w, b, act in model.layers]
    last = layers[-1]
    last["w"].append(last["w"][1])
    last["b"].append(last["b"][1])
    return MlpModel(model.arity, ("p", "q", "r"), layers)


# the first row ties outputs 1 and 2 above output 0
TIED_MLP = MlpModel(3, ("p", "q", "r"), [
    {"w": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]], "b": [0.0, 0.0, 0.0], "act": "id"},
])


@given(mlp_strategy().map(_with_tied_outputs), st.lists(points3, min_size=2, max_size=12))
@example(TIED_MLP, [[0.2, 0.5, 0.0], [0.9, 0.1, 0.3], [0.4, 0.4, 0.4]])
def test_mlp_target_mask_matches_forward_oracle(model, xs):
    # every row of a block against the loop oracle, which shares no kernel
    # with `target_mask` or `classify`
    layers = [(w.tolist(), b.tolist(), act) for w, b, act in model.layers]
    want = []
    for x in xs:
        logits = forward_oracle(layers, x)
        want.append(model.classes[max(range(len(logits)), key=lambda i: (logits[i], -i))])
    X = np.array(xs, dtype=float)
    for c in model.classes:
        assert model.target_mask(X, c).tolist() == [label == c for label in want]


@given(mlp_strategy(), points3, st.floats(-5, 5, allow_nan=False))
def test_mlp_logit_shift_invariance(model, x, shift):
    spec = model.to_json()
    logits = forward_oracle(
        [(layer["w"], layer["b"], layer["act"]) for layer in spec["layers"]], x
    )
    ranked = sorted(logits, reverse=True)
    # a shift cannot reorder the argmax, except where the gap is below
    # float resolution at the shifted magnitude and rounding breaks ties
    assume(len(ranked) < 2 or ranked[0] - ranked[1] > 1e-6)
    shifted = [dict(layer) for layer in spec["layers"]]
    shifted[-1] = dict(shifted[-1], b=[v + shift for v in shifted[-1]["b"]])
    other = MlpModel(spec["arity"], spec["classes"], shifted)
    assert model.classify(x) == other.classify(x)


def test_mlp_tie_goes_to_lowest_class_index():
    model = MlpModel(
        1, ("lo", "hi"), [{"w": [[0.0], [0.0]], "b": [3.0, 3.0], "act": "id"}]
    )
    assert model.classify([0.7]) == "lo"


def test_mlp_validation_errors():
    with pytest.raises(ModelFormatError):
        MlpModel(2, ("a", "b"), [])
    with pytest.raises(ModelFormatError):
        MlpModel(2, ("a", "b"), [{"w": [[1.0, 0.0]], "b": [0.0], "act": "tanh"}])
    with pytest.raises(ModelFormatError):
        MlpModel(2, ("a", "b"), [{"w": [[1.0]], "b": [0.0], "act": "id"}])
    with pytest.raises(ModelFormatError):
        MlpModel(2, ("a", "b"), [{"w": [[1.0, 0.0]], "b": [0.0, 0.0], "act": "id"}])
    with pytest.raises(ModelFormatError):
        MlpModel(2, ("a", "b"), [{"w": [[1.0, 0.0]], "b": [0.0], "act": "id"}])
    with pytest.raises(ModelFormatError):
        MlpModel(2, ("a", "b"), [{"b": [0.0], "act": "id"}])


def test_table_model_lookup_and_default():
    model = TableModel(
        2,
        ("no", "yes"),
        [{"x": [0, 1], "class": "yes"}, {"x": [1, 1], "class": "no"}],
        "no",
    )
    assert model.classify([0.0, 1.0]) == "yes"
    assert model.classify([1.0, 1.0]) == "no"
    assert model.classify([0.5, 0.5]) == "no"
    with pytest.raises(ValueError):
        model.classify([1.0])


table_points = st.lists(st.sampled_from((0.0, 0.5, 1.0, math.nan)), min_size=2, max_size=2)


@given(st.lists(table_points, max_size=8))
def test_table_target_mask_matches_classify(xs):
    model = TableModel(
        2,
        ("no", "yes", "maybe"),
        [{"x": [0, 1], "class": "yes"}, {"x": [1, 1], "class": "no"},
         {"x": [0.5, 0], "class": "maybe"}],
        "no",
    )
    xs = xs + [[0.0, 1.0], [1.0, 1.0], [0.5, 0.0]]
    assert_target_masks_match_classify(model, xs)
    with pytest.raises(ValueError):
        model.target_mask(_block(xs, 2)[:, :1], "yes")


def test_table_model_validation_errors():
    with pytest.raises(ModelFormatError):
        TableModel(2, ("a",), [], "b")
    with pytest.raises(ModelFormatError):
        TableModel(2, ("a",), [{"x": [0], "class": "a"}], "a")
    with pytest.raises(ModelFormatError):
        TableModel(2, ("a",), [{"x": [0, 1], "class": "zzz"}], "a")
    for entries in ([{"class": "a"}], [{"x": [0, 1]}], [[0, 1]], [{"x": 0, "class": "a"}],
                    {"x": [0, 1], "class": "a"}):
        with pytest.raises(ModelFormatError):
            TableModel(2, ("a",), entries, "a")
    # a point given twice, though written differently, is no silent overwrite
    for xs in (([1, 0], [1.0, 0.0]), ([0.0, 0.5], [-0.0, 0.5])):
        with pytest.raises(ModelFormatError, match="given twice"):
            model_from_json(_table_with(*xs, classes=("b", "a")))
    assert model_from_json(_table_with([1, 0], [0, 1])).to_json()["entries"] == [
        {"x": [0.0, 1.0], "class": "a"}, {"x": [1.0, 0.0], "class": "a"}]


@given(mlp_strategy(), points3)
def test_model_json_round_trip(model, x):
    back = model_from_json(json.loads(json.dumps(model.to_json())))
    assert back.to_json() == model.to_json()
    assert back.classify(x) == model.classify(x)


def test_save_and_load_model(tmp_path, zoo_tree):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(zoo_tree.to_json()), encoding="utf-8")
    back = load_model(str(path))
    assert back.to_json() == zoo_tree.to_json()


def test_model_from_json_rejects_garbage():
    with pytest.raises(ModelFormatError):
        model_from_json([])
    with pytest.raises(ModelFormatError):
        model_from_json({"type": "tree", "arity": 2})
    with pytest.raises(ModelFormatError):
        model_from_json({"type": "svm", "arity": 2, "classes": ["a"]})
    with pytest.raises(ModelFormatError):
        model_from_json({"type": "mlp", "arity": 2, "classes": ["a"]})
    with pytest.raises(ModelFormatError):
        model_from_json({"type": "table", "arity": 2, "classes": ["a"]})


def test_load_model_reports_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ModelFormatError):
        load_model(str(path))


# --- datasets ---------------------------------------------------------------


def test_zoo_dataset_shape(zoo_data):
    assert zoo_data.arity == 16
    assert len(zoo_data.rows) == 41
    assert all(kind == "bool" for kind in zoo_data.kinds)
    assert zoo_data.feature_names[11] == "fins"
    assert zoo_data.feature_names[9] == "breathes"
    assert "fish" in zoo_data.classes
    for x, _ in zoo_data.rows:
        assert set(x) <= {0.0, 1.0}


def test_zoo_fish_iff_fins_and_not_breathes(zoo_data):
    for x, label in zoo_data.rows:
        assert (label == "fish") == (x[11] == 1.0 and x[9] == 0.0)


def test_min_max_normalization(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "a,b,c,class\n2.0,5,0,pos\n4.0,5,1,neg\n6.0,5,0,pos\n", encoding="utf-8"
    )
    data = load_dataset(str(path))
    assert data.kinds == ["real", "real", "bool"]
    assert [x[0] for x, _ in data.rows] == [0.0, 0.5, 1.0]
    # constant column normalizes to zero, bounds collapse
    assert [x[1] for x, _ in data.rows] == [0.0, 0.0, 0.0]
    assert data.bounds[0] == (2.0, 6.0)
    assert data.bounds[2] == (0.0, 1.0)
    assert data.classes == ["neg", "pos"]


def test_categorical_encoding_sorted_by_name(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "color,class\nred,x\nblue,x\ngreen,y\n", encoding="utf-8"
    )
    data = load_dataset(str(path))
    assert data.categorical["color"] == {"blue": 0, "green": 1, "red": 2}
    assert data.kinds == ["real"]
    assert [x[0] for x, _ in data.rows] == [1.0, 0.0, 0.5]


def test_two_category_column_becomes_bool(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("sex,class\nm,x\nf,y\n", encoding="utf-8")
    data = load_dataset(str(path))
    assert data.kinds == ["bool"]
    assert [x[0] for x, _ in data.rows] == [1.0, 0.0]


def test_manifest_round_trip(tmp_path, zoo_data, data_dir):
    mpath = tmp_path / "m.json"
    save_manifest(zoo_data, str(mpath))
    manifest = load_manifest(str(mpath))
    again = load_dataset(str(data_dir / "zoo.csv"), manifest)
    assert again.rows == zoo_data.rows
    assert again.kinds == zoo_data.kinds
    assert again.classes == zoo_data.classes


def test_manifest_rejects_unknown_category(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("color,class\nred,x\nblue,y\n", encoding="utf-8")
    data = load_dataset(str(train))
    test = tmp_path / "test.csv"
    test.write_text("color,class\nmauve,x\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_dataset(str(test), data.manifest())


def test_manifest_rejects_renamed_features(tmp_path):
    train = tmp_path / "train.csv"
    train.write_text("a,class\n1,x\n2,y\n", encoding="utf-8")
    data = load_dataset(str(train))
    test = tmp_path / "test.csv"
    test.write_text("b,class\n1,x\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_dataset(str(test), data.manifest())


def test_manifest_path_on_every_column_kind(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(
        "size,const,color,flag,class\n"
        "2,5,red,0,x\n"
        "4.5,5,green,1,y\n"
        "7,5,blue,1,x\n"
        "3,5,red,0,z\n",
        encoding="utf-8",
    )
    data = load_dataset(str(path))
    assert data.kinds == ["real", "real", "real", "bool"]
    assert data.bounds == [(2.0, 7.0), (5.0, 5.0), (0.0, 2.0), (0.0, 1.0)]
    assert data.categorical == {"color": {"blue": 0, "green": 1, "red": 2}}
    assert [x for x, _ in data.rows][:2] == [(0.0, 0.0, 1.0, 0.0), (0.5, 0.0, 0.5, 1.0)]
    mpath = tmp_path / "m.json"
    save_manifest(data, str(mpath))
    again = load_dataset(str(path), load_manifest(str(mpath)))
    assert again.rows == data.rows
    assert again.kinds == data.kinds
    assert again.bounds == data.bounds
    assert again.categorical == data.categorical
    assert again.classes == data.classes == ["x", "y", "z"]


def test_duplicate_feature_names_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,a,class\n0.1,0.9,x\n0.7,0.2,y\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="not distinct"):
        load_dataset(str(path))


def _drop(key):
    return lambda m: {k: v for k, v in m.items() if k != key}


def _set(key, value):
    return lambda m: {**m, key: value}


MALFORMED_MANIFESTS = {
    "not-an-object": lambda m: [m],
    "no-names": _drop("featureNames"),
    "duplicate-names": _set("featureNames", ["a", "a"]),
    "no-kinds": _drop("kinds"),
    "short-kinds": _set("kinds", ["real"]),
    "unknown-kind": _set("kinds", ["real", "int"]),
    "no-bounds": _drop("bounds"),
    "short-bounds": _set("bounds", [[0.0, 1.0]]),
    "bound-not-a-pair": _set("bounds", [[0.0, 1.0], [0.0]]),
    "text-bound": _set("bounds", [[0.0, 1.0], ["0", "1"]]),
    "categorical-not-an-object": _set("categorical", [["b", {"u": 0}]]),
    "categorical-codes-not-an-object": _set("categorical", {"b": 5}),
    "categorical-unknown-feature": _set("categorical", {"c": {"u": 0}}),
    "categorical-text-code": _set("categorical", {"b": {"u": "0"}}),
    # JSON readers take NaN and Infinity
    "nan-bound": _set("bounds", [[math.nan, 1.0], [0.0, 1.0]]),
    "infinite-bound": _set("bounds", [[0.0, 1.0], [0.0, math.inf]]),
    "bound-past-float-range": _set("bounds", [[0.0, 1.0], [0, 10**400]]),
    "categorical-nan-code": _set("categorical", {"b": {"u": math.nan}}),
    "categorical-infinite-code": _set("categorical", {"b": {"u": -math.inf}}),
}


@pytest.mark.parametrize("name", list(MALFORMED_MANIFESTS))
def test_malformed_manifest_rejected(tmp_path, name):
    path = tmp_path / "d.csv"
    path.write_text("a,b,class\n0.1,0.9,x\n0.7,0.2,y\n", encoding="utf-8")
    manifest = MALFORMED_MANIFESTS[name](load_dataset(str(path)).manifest())
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_manifest(str(mpath))
    with pytest.raises(DatasetFormatError):
        load_dataset(str(path), manifest)


@pytest.mark.parametrize("cells", [("0.1", "nan"), ("inf", "0.9"), ("-inf", "0.9"), ("0.1", "NaN")])
def test_malformed_non_finite_cell_rejected(tmp_path, cells):
    path = tmp_path / "d.csv"
    path.write_text("a,b,class\n0.1,0.9,x\n0.7,0.2,y\n", encoding="utf-8")
    manifest = load_dataset(str(path)).manifest()
    path.write_text(f"a,b,class\n{cells[0]},{cells[1]},x\n0.7,0.2,y\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError, match="non-finite"):
        load_dataset(str(path))
    with pytest.raises(DatasetFormatError, match="non-finite"):
        load_dataset(str(path), manifest)


def test_dataset_format_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_dataset(str(empty))
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b,class\n1,2,x\n1,x\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_dataset(str(ragged))
    headeronly = tmp_path / "h.csv"
    headeronly.write_text("a,b,class\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_dataset(str(headeronly))
    narrow = tmp_path / "n.csv"
    narrow.write_text("class\nx\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_dataset(str(narrow))


def test_accuracy_on_formula_and_model(zoo_data, zoo_tree):
    f = parse("(and x11 (not x9))", 16)
    assert accuracy_on(f, zoo_data, None, "fish") == 1.0
    assert accuracy_on(f, zoo_data, TrueQuery(), "fish") == 1.0
    wrong = parse("x0", 16)
    acc = accuracy_on(wrong, zoo_data, None, "fish")
    assert acc is not None and acc < 1.0
    # a model is not a formula: the CLI scores explanations only
    for not_formula in ("x0", zoo_tree):
        with pytest.raises(TypeError):
            accuracy_on(not_formula, zoo_data, None, "fish")


def test_accuracy_on_matches_row_by_row_count(zoo_data):
    # a ball around the fish rows keeps some rows and drops others
    ball = CosineBall(zoo_data.rows[0][0], 0.3)
    kept = [(x, label) for x, label in zoo_data.rows if ball.contains(x)]
    assert 0 < len(kept) < len(zoo_data.rows)
    f = parse("(or x3 (not x11))", 16)
    agree = sum(evaluate(f, x) == (label == "fish") for x, label in kept)
    assert accuracy_on(f, zoo_data, ball, "fish") == agree / len(kept)


def test_accuracy_on_empty_query_region_is_undefined(zoo_data):
    from pacexplain import FALSE, FormulaQuery

    nothing = FormulaQuery(FALSE, 16)
    assert accuracy_on(parse("x0", 16), zoo_data, nothing, "fish") is None
