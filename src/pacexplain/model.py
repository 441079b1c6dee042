"""Black-box classifiers and datasets.

Models are immutable wrappers around three JSON-described classifier kinds:
decision trees (``x[feature] <= threshold`` goes left), small MLPs
(relu/identity layers, argmax output with ties to the lowest class index),
and exact-match lookup tables. The explanation engine only ever calls
`target_mask`, which says whether the model predicts a given class on each
row of a block; the base class derives it from `classify`, so anything
exposing `classify` can be plugged in. A tree is validated and compiled into
node arrays in one breadth-first walk, without recursion, when it is built.
A tree's verdict depends only on which side of each split a row lies, so a
tree with at most `_SPLIT_TABLE_BOUND` distinct `(feature, threshold)`
splits answers `target_mask` from a table: one compare per split packs
each row's sides into a code, and the code indexes the target's verdicts.
A larger tree walks its node arrays one level at a time. Model JSON takes
no `true`/`false` and no non-finite number where it expects a number.

Datasets come from RFC-4180 CSV files with a header row of distinct
feature names; the last column is the class. Features are min-max
normalized to [0, 1]; columns whose raw values lie in {0, 1} are tagged
boolean and kept as-is; non-numeric columns are label-encoded by sorted
category name before normalization. The normalization bounds and encodings
are recorded in a manifest so queries and grammars written against feature
names resolve consistently. There is one normalization path: without a
manifest, `load_dataset` infers one from the columns and then applies it as
it would apply a manifest saved from another file.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

# `evaluate` stays importable here: bench/tracing.py wraps it in this module
from .formula import Formula, evaluate, evaluate_mask  # noqa: F401
from .query import Query, TrueQuery, _finite_number, _loads_json


class ModelFormatError(ValueError):
    pass


class DatasetFormatError(ValueError):
    pass


class Model:
    """Base classifier: `classify` maps a feature vector to a class label."""

    arity: int
    classes: tuple

    def classify(self, x: Sequence[float]):
        raise NotImplementedError

    def target_mask(self, X: np.ndarray, target_class) -> np.ndarray:
        """Whether the model predicts target_class on each row of the 2-D
        block X."""
        self._check_block(X)
        return np.array([self.classify(x) == target_class for x in X.tolist()], dtype=bool)

    def to_json(self) -> dict:
        raise NotImplementedError

    def _check_arity(self, x: Sequence[float]):
        if len(x) != self.arity:
            raise ValueError(f"expected {self.arity} features, got {len(x)}")

    def _check_block(self, X: np.ndarray):
        if X.ndim != 2 or X.shape[1] != self.arity:
            raise ValueError(f"expected blocks of {self.arity} features, got {X.shape}")


def _object_array(items: Sequence) -> np.ndarray:
    out = np.empty(len(items), dtype=object)
    for i, item in enumerate(items):
        out[i] = item
    return out


# A tree with at most this many distinct splits keeps a table of 2**S
# verdicts per target class; above it, `target_mask` walks the tree.
_SPLIT_TABLE_BOUND = 12


class DecisionTreeModel(Model):
    """A binary tree that sends `x[feature] <= threshold` to `le`.

    `target_mask` on a tree of S <= `_SPLIT_TABLE_BOUND` distinct
    `(feature, threshold)` splits compares each row once per split, packs
    the results into a code (bit i set when the row lies `le` of split i)
    and looks the code up in a table of 2**S verdicts. A NaN coordinate
    fails every `<=`, so it takes `gt`, as in `classify`. The splits and
    each target's table are built on the first `target_mask` for that
    target. A tree with more distinct splits is walked one level at a
    time over its node arrays instead.
    """

    def __init__(self, arity: int, classes: Sequence, root: dict):
        self.arity = int(arity)
        self.classes = tuple(classes)
        self.root = root
        self._flat = _flatten_tree(root, self.arity, set(self.classes))
        # target class -> verdict per split code, or per node above the bound
        self._verdicts = {}

    def classify(self, x: Sequence[float]):
        self._check_arity(x)
        node = self.root
        while "leaf" not in node:
            node = node["le"] if x[node["feature"]] <= node["threshold"] else node["gt"]
        return node["leaf"]

    def target_mask(self, X: np.ndarray, target_class) -> np.ndarray:
        self._check_block(X)
        verdict = self._verdicts.get(target_class)
        if verdict is None:
            verdict = self._verdicts[target_class] = self._verdict(target_class)
        if self._splits is not None:
            feature, threshold, weight, _ = self._splits
            # one small integer product packs each row's bits into its code
            return verdict[(X[:, feature] <= threshold).view(np.uint8) @ weight]
        feature, threshold, le, gt, _, depth = self._flat
        rows = np.arange(len(X))
        node = np.zeros(len(X), dtype=np.intp)
        # every row takes `depth` steps; one that reached its leaf stays there
        for _ in range(depth):
            node = np.where(X[rows, feature[node]] <= threshold[node], le[node], gt[node])
        return verdict[node]

    @cached_property
    def _splits(self):
        """The distinct splits' features, thresholds and code bit weights,
        and each node's bit (0 at a leaf); None past the bound.

        Thresholds are finite, so equal floats make one split; 0.0 and -0.0
        are one split too, as `x <= 0.0` and `x <= -0.0` agree on every x.
        """
        feature, threshold, _, _, labels, _ = self._flat
        bits = {}
        node_bit = np.zeros(len(labels), dtype=np.intp)
        for k, (j, t, label) in enumerate(zip(feature.tolist(), threshold.tolist(), labels)):
            if label is None:
                node_bit[k] = bits.setdefault((j, t), len(bits))
                if len(bits) > _SPLIT_TABLE_BOUND:
                    return None
        return (
            np.array([j for j, _ in bits], dtype=np.intp),
            np.array([t for _, t in bits], dtype=float),
            (1 << np.arange(len(bits))).astype(np.uint8 if len(bits) <= 8 else np.uint16),
            node_bit,
        )

    def _verdict(self, target_class) -> np.ndarray:
        """Whether each split code's leaf, or above the bound each node's
        label, is target_class."""
        _, _, le, gt, labels, depth = self._flat
        is_target = labels == target_class
        if self._splits is None:
            return is_target
        feature, _, _, node_bit = self._splits
        codes = np.arange(1 << len(feature))
        node = np.zeros(len(codes), dtype=np.intp)
        for _ in range(depth):
            node = np.where((codes >> node_bit[node]) & 1, le[node], gt[node])
        return is_target[node]

    def to_json(self) -> dict:
        return {
            "type": "tree",
            "arity": self.arity,
            "classes": list(self.classes),
            "root": self.root,
        }


def _flatten_tree(root, arity: int, classes: set) -> tuple:
    """Validate a tree and compile it in one breadth-first walk.

    Raises ModelFormatError at the first malformed node, or at a node that
    is its own descendant. Returns the node arrays in breadth-first order:
    feature, threshold, le and gt child indices, and each node's label (None
    at a split); then the depth. A leaf tests feature 0 and is both its own
    children, so it keeps the rows that reach it.
    """
    nodes, level, seen = [root], [0], set()
    rows = []  # (feature, threshold, le, gt, label) per node
    for k, node in enumerate(nodes):
        if not isinstance(node, dict):
            raise ModelFormatError(f"tree node must be an object, got {node!r}")
        # an acyclic path to this node passes level + 1 distinct nodes, all seen
        seen.add(id(node))
        if level[k] >= len(seen):
            raise ModelFormatError("tree node is its own descendant")
        if "leaf" in node:
            if node["leaf"] not in classes:
                raise ModelFormatError(f"leaf class {node['leaf']!r} not in classes")
            rows.append((0, 0.0, k, k, node["leaf"]))
            continue
        for key in ("feature", "threshold", "le", "gt"):
            if key not in node:
                raise ModelFormatError(f"tree node missing {key!r}")
        j = node["feature"]
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < arity:
            raise ModelFormatError(f"tree split feature {j!r} out of range")
        if not _finite_number(node["threshold"]):
            raise ModelFormatError(
                f"tree threshold must be numeric and finite, got {node['threshold']!r}"
            )
        rows.append((j, float(node["threshold"]), len(nodes), len(nodes) + 1, None))
        nodes += [node["le"], node["gt"]]
        level += [level[k] + 1] * 2
    feature, threshold, le, gt, labels = zip(*rows)
    return (
        np.asarray(feature, dtype=np.intp),
        np.asarray(threshold),
        np.asarray(le, dtype=np.intp),
        np.asarray(gt, dtype=np.intp),
        _object_array(labels),
        max(level),
    )


_ACTIVATIONS = ("relu", "id")


def _finite_numbers(values) -> bool:
    return isinstance(values, list) and all(map(_finite_number, values))


class MlpModel(Model):
    def __init__(self, arity: int, classes: Sequence, layers: Sequence[dict]):
        self.arity = int(arity)
        self.classes = tuple(classes)
        self.layers = []
        width = self.arity
        for k, layer in enumerate(layers):
            try:
                w, b, act = layer["w"], layer["b"], layer["act"]
            except (KeyError, TypeError) as exc:
                raise ModelFormatError(f"layer {k}: {exc}") from exc
            if not (
                isinstance(w, list)
                and all(_finite_numbers(row) for row in w)
                and _finite_numbers(b)
            ):
                raise ModelFormatError(
                    f"layer {k}: w must be a list of rows and b a list, of finite numbers"
                )
            if len({len(row) for row in w}) != 1:
                raise ModelFormatError(f"layer {k}: w needs at least one row, all of one length")
            w, b = np.array(w, dtype=float), np.array(b, dtype=float)
            if w.shape[0] != b.shape[0]:
                raise ModelFormatError(f"layer {k}: weight/bias shapes disagree")
            if w.shape[1] != width:
                raise ModelFormatError(
                    f"layer {k}: expects {w.shape[1]} inputs, previous width is {width}"
                )
            if act not in _ACTIVATIONS:
                raise ModelFormatError(f"layer {k}: unknown activation {act!r}")
            self.layers.append((w, b, act))
            width = w.shape[0]
        if not self.layers:
            raise ModelFormatError("mlp needs at least one layer")
        if width != len(self.classes):
            raise ModelFormatError(
                f"final layer width {width} != number of classes {len(self.classes)}"
            )
        self._labels = _object_array(self.classes)

    def classify(self, x: Sequence[float]):
        self._check_arity(x)
        return self._labels[self._outputs(np.asarray([x], dtype=float))[0]]

    def _outputs(self, X: np.ndarray) -> np.ndarray:
        """Each row's class index: the argmax of the last layer."""
        self._check_block(X)
        # units by rows, so that each elementwise operation runs along the rows
        v = X.T
        for w, b, act in self.layers:
            # bias first, then one input at a time: elementwise operations
            # round the same whatever the block size, unlike a BLAS matmul
            out = np.empty((len(b), v.shape[1]))
            out[:] = b[:, None]
            for k in range(w.shape[1]):
                out += w[:, k : k + 1] * v[k]
            v = np.maximum(out, 0.0) if act == "relu" else out
        # ties go to the lowest class index; np.argmax already does that
        return np.argmax(v, axis=0)

    def target_mask(self, X: np.ndarray, target_class) -> np.ndarray:
        return (self._labels == target_class)[self._outputs(X)]

    def to_json(self) -> dict:
        return {
            "type": "mlp",
            "arity": self.arity,
            "classes": list(self.classes),
            "layers": [
                {"w": w.tolist(), "b": b.tolist(), "act": act}
                for w, b, act in self.layers
            ],
        }


class TableModel(Model):
    """Exact-match lookup table with a default class for unseen inputs.

    Each entry is an object with a known `class` and an `x` of `arity`
    finite numbers; no point may be given twice.
    """

    def __init__(self, arity: int, classes: Sequence, entries: Sequence, default):
        self.arity = int(arity)
        self.classes = tuple(classes)
        if default not in self.classes:
            raise ModelFormatError(f"default class {default!r} not in classes")
        self.default = default
        self.table = {}
        if not isinstance(entries, (list, tuple)):
            raise ModelFormatError("table entries must be a list")
        for k, entry in enumerate(entries):
            if not (isinstance(entry, dict) and "x" in entry and "class" in entry):
                raise ModelFormatError(f"entry {k}: needs an object with 'x' and 'class'")
            if not _finite_numbers(entry["x"]):
                raise ModelFormatError(f"entry {k}: x must be a list of finite numbers")
            x = tuple(map(float, entry["x"]))
            if len(x) != self.arity:
                raise ModelFormatError(f"entry {k}: wrong arity")
            if entry["class"] not in self.classes:
                raise ModelFormatError(f"entry {k}: class {entry['class']!r} unknown")
            if x in self.table:
                raise ModelFormatError(f"entry {k}: point {list(x)} given twice")
            self.table[x] = entry["class"]

    def classify(self, x: Sequence[float]):
        self._check_arity(x)
        return self.table.get(tuple(float(v) for v in x), self.default)

    def to_json(self) -> dict:
        return {
            "type": "table",
            "arity": self.arity,
            "classes": list(self.classes),
            "entries": [
                {"x": list(x), "class": c} for x, c in sorted(self.table.items())
            ],
            "default": self.default,
        }


def model_from_json(obj: dict) -> Model:
    if not isinstance(obj, dict):
        raise ModelFormatError("model JSON must be an object")
    for key in ("type", "arity", "classes"):
        if key not in obj:
            raise ModelFormatError(f"model JSON missing {key!r}")
    kind = obj["type"]
    if kind == "tree":
        if "root" not in obj:
            raise ModelFormatError("tree model missing 'root'")
        return DecisionTreeModel(obj["arity"], obj["classes"], obj["root"])
    if kind == "mlp":
        if "layers" not in obj:
            raise ModelFormatError("mlp model missing 'layers'")
        return MlpModel(obj["arity"], obj["classes"], obj["layers"])
    if kind == "table":
        if "entries" not in obj or "default" not in obj:
            raise ModelFormatError("table model missing 'entries' or 'default'")
        return TableModel(obj["arity"], obj["classes"], obj["entries"], obj["default"])
    raise ModelFormatError(f"unknown model type {kind!r}")


def load_model(path: str) -> Model:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"{path}: invalid JSON: {exc}") from exc
        except RecursionError:
            raise ModelFormatError(f"{path}: JSON nested too deeply") from None
    return model_from_json(obj)


# --- datasets ----------------------------------------------------------------


@dataclass
class Dataset:
    feature_names: list
    kinds: list  # "bool" | "real" per feature
    rows: list  # (normalized tuple, class label)
    bounds: list  # (raw_min, raw_max) per feature
    categorical: dict  # feature name -> {category: code}
    classes: list = field(default_factory=list)

    @property
    def arity(self) -> int:
        return len(self.feature_names)

    def manifest(self) -> dict:
        return {
            "featureNames": list(self.feature_names),
            "kinds": list(self.kinds),
            "bounds": [[lo, hi] for lo, hi in self.bounds],
            "categorical": {
                name: dict(mapping) for name, mapping in self.categorical.items()
            },
            "classes": list(self.classes),
        }


def save_manifest(data: Dataset, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data.manifest(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        manifest = _loads_json(fh.read(), path)
    _check_manifest(manifest, path)
    return manifest


def _check_manifest(manifest, source: str):
    """Raise DatasetFormatError unless `manifest` names distinct features,
    gives each one a kind, "bool" or "real", and a [lo, hi] bound, and maps
    categorical features to numeric codes. Bounds and codes must be finite:
    JSON readers take NaN and Infinity."""
    if not isinstance(manifest, dict):
        raise DatasetFormatError(f"{source}: manifest must be a JSON object")
    names = manifest.get("featureNames")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise DatasetFormatError(f"{source}: manifest featureNames must be a list of names")
    if len(set(names)) != len(names):
        raise DatasetFormatError(f"{source}: manifest featureNames are not distinct")
    kinds = manifest.get("kinds")
    if not isinstance(kinds, list) or len(kinds) != len(names) or any(
        kind not in ("bool", "real") for kind in kinds
    ):
        raise DatasetFormatError(
            f'{source}: manifest needs one kind, "bool" or "real", per feature'
        )
    bounds = manifest.get("bounds")
    if not isinstance(bounds, list) or len(bounds) != len(names) or not all(
        isinstance(b, (list, tuple))
        and len(b) == 2
        and all(_finite_number(v) for v in b)
        for b in bounds
    ):
        raise DatasetFormatError(
            f"{source}: manifest needs one finite [lo, hi] bound per feature"
        )
    categorical = manifest.get("categorical", {})
    if not isinstance(categorical, dict) or not all(
        name in names
        and isinstance(codes, dict)
        and all(_finite_number(code) for code in codes.values())
        for name, codes in categorical.items()
    ):
        raise DatasetFormatError(
            f"{source}: manifest categorical must map feature names to"
            " {category: finite numeric code} objects"
        )


def load_dataset(path: str, manifest: Optional[dict] = None) -> Dataset:
    """Load a CSV dataset; header row names features, last column is the class.

    With `manifest`, its bounds and categorical encodings are applied instead
    of those inferred from the columns (unknown categories are an error).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file") from None
        raw_rows = [row for row in reader if row]
    if len(header) < 2:
        raise DatasetFormatError(f"{path}: need at least one feature and a class column")
    feature_names = header[:-1]
    n = len(feature_names)
    if len(set(feature_names)) != n:
        raise DatasetFormatError(f"{path}: feature names in the header are not distinct")
    for k, row in enumerate(raw_rows):
        if len(row) != n + 1:
            raise DatasetFormatError(
                f"{path}: row {k + 2} has {len(row)} cells, expected {n + 1}"
            )
    if not raw_rows:
        raise DatasetFormatError(f"{path}: no data rows")

    labels = [row[-1] for row in raw_rows]
    columns = [[row[j] for row in raw_rows] for j in range(n)]
    if manifest is None:
        manifest = _infer_manifest(feature_names, columns, labels)
    else:
        _check_manifest(manifest, path)
    return _apply_manifest(path, feature_names, columns, labels, manifest)


def _infer_manifest(feature_names, columns, labels) -> dict:
    """Kinds, min-max bounds, category codes and classes read off the columns."""
    kinds, bounds, categorical = [], [], {}
    for name, col in zip(feature_names, columns):
        try:
            values = [float(cell) for cell in col]
        except ValueError:
            codes = {c: code for code, c in enumerate(sorted(set(col)))}
            categorical[name] = codes
            values = [float(codes[cell]) for cell in col]
        if set(values) <= {0.0, 1.0}:
            kinds.append("bool")
            bounds.append([0.0, 1.0])
        else:
            kinds.append("real")
            bounds.append([min(values), max(values)])
    return {
        "featureNames": list(feature_names),
        "kinds": kinds,
        "bounds": bounds,
        "categorical": categorical,
        "classes": sorted(set(labels)),
    }


def _apply_manifest(path, feature_names, columns, labels, manifest) -> Dataset:
    if manifest["featureNames"] != list(feature_names):
        raise DatasetFormatError(f"{path}: feature names do not match manifest")
    kinds = list(manifest["kinds"])
    bounds = [(lo, hi) for lo, hi in manifest["bounds"]]
    categorical = {k: dict(v) for k, v in manifest.get("categorical", {}).items()}
    normalized = []
    for name, kind, (lo, hi), col in zip(feature_names, kinds, bounds, columns):
        out = []
        for cell in col:
            if name in categorical:
                if cell not in categorical[name]:
                    raise DatasetFormatError(
                        f"{path}: category {cell!r} for feature {name!r}"
                        " has no mapping in the manifest"
                    )
                v = float(categorical[name][cell])
            else:
                try:
                    v = float(cell)
                except ValueError:
                    raise DatasetFormatError(
                        f"{path}: non-numeric cell {cell!r} for feature {name!r}"
                        " without a categorical mapping"
                    ) from None
            if not math.isfinite(v):  # every load, inferred manifest or not, passes here
                raise DatasetFormatError(
                    f"{path}: non-finite value {cell!r} for feature {name!r}"
                )
            if kind == "bool":
                out.append(v)
            elif lo == hi:
                out.append(0.0)
            else:
                out.append((v - lo) / (hi - lo))
        normalized.append(out)
    rows = list(zip(zip(*normalized), labels))
    classes = manifest.get("classes") or sorted(set(labels))
    return Dataset(list(feature_names), kinds, rows, bounds, categorical, list(classes))


def accuracy_on(f: Formula, data: Dataset, query: Optional[Query], target_class):
    """Agreement of a formula (satisfied = predicts target_class) with the
    dataset labels on the target class.

    Only rows inside `query` count; returns None when no row qualifies.
    """
    if not isinstance(f, Formula):
        raise TypeError("accuracy_on takes a Formula")
    if query is None:
        query = TrueQuery()
    X = np.array([x for x, _ in data.rows], dtype=float).reshape(len(data.rows), data.arity)
    predicts = evaluate_mask(f, X)
    inside = query.contains_mask(X)
    total = int(np.count_nonzero(inside))
    if total == 0:
        return None
    is_target = np.array([label == target_class for _, label in data.rows], dtype=bool)
    return int(np.count_nonzero(inside & (predicts == is_target))) / total
