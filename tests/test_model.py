"""Classifier wrappers and dataset loading.

Oracles: decision trees are replayed by an independent recursive descent
written here; trees are also flattened to a DNF over their positive paths
and checked for pointwise agreement with `classify`; MLP forward passes are
recomputed with plain Python loops instead of numpy.
"""

import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given
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
    relabel,
    save_manifest,
    save_model,
    load_manifest,
)


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


@given(tree_strategy(), st.lists(points3, max_size=12))
def test_tree_classify_batch_matches_classify(root, xs):
    model = DecisionTreeModel(3, ("a", "b"), root)
    # points on the split thresholds test `<=` at equality
    xs = xs + [[t, t, t] for t in sorted(_thresholds(root))]
    labels = model.classify_batch(_block(xs))
    assert labels.tolist() == [model.classify(x) for x in xs]


@given(tree_strategy(), points3)
def test_tree_positive_paths_form_equivalent_dnf(root, x):
    model = DecisionTreeModel(3, ("a", "b"), root)
    paths = model.positive_paths("b")
    satisfied = any(
        all(
            (x[j] <= t if op == "<=" else x[j] > t)
            for j, op, t in path
        )
        for path in paths
    )
    assert satisfied == (model.classify(x) == "b")


def test_zoo_tree_equals_its_path_dnf_on_the_full_grid(zoo_tree):
    paths = zoo_tree.positive_paths("fish")
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


@given(mlp_strategy(), st.lists(points3, max_size=12))
def test_mlp_classify_batch_matches_classify_and_oracle(model, xs):
    labels = model.classify_batch(_block(xs)).tolist()
    assert labels == [model.classify(x) for x in xs]
    layers = [(w.tolist(), b.tolist(), act) for w, b, act in model.layers]
    for x, label in zip(xs, labels):
        logits = forward_oracle(layers, x)
        best = max(range(len(logits)), key=lambda i: (logits[i], -i))
        assert label == model.classes[best]


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


def test_table_classify_batch_matches_classify():
    model = TableModel(
        2,
        ("no", "yes"),
        [{"x": [0, 1], "class": "yes"}, {"x": [1, 1], "class": "no"}],
        "no",
    )
    xs = [[0.0, 1.0], [1.0, 1.0], [0.5, 0.5], [0.0, 1.0]]
    labels = model.classify_batch(_block(xs, 2))
    assert labels.tolist() == [model.classify(x) for x in xs] == ["yes", "no", "no", "yes"]
    with pytest.raises(ValueError):
        model.classify_batch(_block(xs, 2)[:, :1])


def test_table_model_validation_errors():
    with pytest.raises(ModelFormatError):
        TableModel(2, ("a",), [], "b")
    with pytest.raises(ModelFormatError):
        TableModel(2, ("a",), [{"x": [0], "class": "a"}], "a")
    with pytest.raises(ModelFormatError):
        TableModel(2, ("a",), [{"x": [0, 1], "class": "zzz"}], "a")


@given(mlp_strategy(), points3)
def test_model_json_round_trip(model, x):
    back = model_from_json(json.loads(json.dumps(model.to_json())))
    assert back.to_json() == model.to_json()
    assert back.classify(x) == model.classify(x)


def test_save_and_load_model(tmp_path, zoo_tree):
    path = tmp_path / "m.json"
    save_model(zoo_tree, str(path))
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
    assert accuracy_on(zoo_tree, zoo_data, TrueQuery(), "fish") == 1.0
    wrong = parse("x0", 16)
    acc = accuracy_on(wrong, zoo_data, None, "fish")
    assert acc is not None and acc < 1.0
    with pytest.raises(TypeError):
        accuracy_on("x0", zoo_data, None, "fish")


def test_accuracy_on_matches_row_by_row_count(zoo_data, zoo_tree):
    # a ball around the fish rows keeps some rows and drops others
    ball = CosineBall(zoo_data.rows[0][0], 0.3)
    kept = [(x, label) for x, label in zoo_data.rows if ball.contains(x)]
    assert 0 < len(kept) < len(zoo_data.rows)
    for classifier in (parse("(or x3 (not x11))", 16), zoo_tree):
        if isinstance(classifier, DecisionTreeModel):
            predicts = [classifier.classify(x) == "fish" for x, _ in kept]
        else:
            predicts = [evaluate(classifier, x) for x, _ in kept]
        agree = sum(p == (label == "fish") for p, (_, label) in zip(predicts, kept))
        assert accuracy_on(classifier, zoo_data, ball, "fish") == agree / len(kept)


def test_accuracy_on_empty_query_region_is_undefined(zoo_data):
    from pacexplain import FALSE, FormulaQuery

    nothing = FormulaQuery(FALSE, 16)
    assert accuracy_on(parse("x0", 16), zoo_data, nothing, "fish") is None


def test_relabel_uses_model_predictions(zoo_data, zoo_tree):
    flipped = relabel(zoo_data, zoo_tree)
    for (x, want), (x2, got) in zip(
        [(x, zoo_tree.classify(x)) for x, _ in zoo_data.rows], flipped.rows
    ):
        assert x == x2 and want == got
    assert set(flipped.classes) == {"other", "fish"}
