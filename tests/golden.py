"""Golden stable-report corpus: fixed configurations and what they produce.

Each case builds one `RunConfig`. `record` runs it and returns the corpus
entry: whether the run raised `LowQueryCoverageWarning`, and then either the
full stable report (small runs), a SHA-256 of the report's canonical JSON
(large runs), or the exception the run raised. `tests/test_golden.py`
replays every case against `tests/data/golden/<name>.json`.

Regenerate every entry, or only the named ones, with

    PYTHONPATH=src python3 tests/golden.py [name ...]

and do so only in a change that names the entries that moved and why.

Runs that end in a wall-clock timeout are not in the corpus: where the clock
fires is not part of the recorded state, so they cannot replay exactly.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
import sys
import warnings

import pacexplain as px

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "data" / "golden"
DATA_DIR = pathlib.Path(px.__file__).resolve().parent / "data"

# Stable reports whose canonical JSON is longer than this are stored as a hash.
FULL_REPORT_LIMIT = 8_000

IRIS_CENTER = (0.6, 0.4, 0.8, 0.8)
ADULT_CENTER = (0.5, 0.75, 0.5, 0.25, 0.6)


@functools.lru_cache(maxsize=None)
def _model(name: str):
    return px.load_model(str(DATA_DIR / name))


@functools.lru_cache(maxsize=None)
def _grammar(name: str):
    with open(DATA_DIR / name, "r", encoding="utf-8") as fh:
        return px.Grammar.from_json(json.load(fh))


def _zoo(query="true", grammar=None, **kw):
    tree = _model("zoo_tree.json")
    return px.RunConfig(
        model=tree,
        query=px.FormulaQuery(px.parse(query, 16), 16),
        target_class="fish",
        grammar=grammar or _grammar("zoo_grammar.json"),
        **kw,
    )


def _bool_grammar(indices, max_clauses=2, max_literals=2):
    return px.Grammar.from_json(
        {
            "features": [{"name": f"f{j}", "index": j, "kind": "bool"} for j in indices],
            "maxClauses": max_clauses,
            "maxLiteralsPerClause": max_literals,
            "constants": True,
        }
    )


def _conjunction(n: int) -> str:
    """The first n zoo features all set: a region of 2^-n of the cube."""
    text = "x0"
    for j in range(1, n):
        text = f"(and x{j} {text})"
    return text


def _mlp(name, target, center, query=None, grammar=None, **kw):
    model = _model(name)
    return px.RunConfig(
        model=model,
        query=query or px.CosineBall(center, 0.5),
        target_class=target,
        grammar=grammar or px.default_grammar(["real"] * model.arity),
        **kw,
    )


def _iris(**kw):
    return _mlp("mlp_iris.json", "virginica", IRIS_CENTER, **kw)


def _adult(**kw):
    return _mlp("mlp_adult.json", ">50K", ADULT_CENTER, **kw)


def _loose_grammar(n: int):
    """Criterion 8's loose grammar: 4096 clauses of up to 2n literals."""
    return px.Grammar.from_json(
        {
            "features": [
                {"name": f"x{j}", "index": j, "kind": "real",
                 "constants": [0.25, 0.5, 0.75]}
                for j in range(n)
            ],
            "maxClauses": 4096,
            "maxLiteralsPerClause": 2 * n,
            "constants": True,
        }
    )


def _iris_empirical(sigma: float):
    data = px.load_dataset(str(DATA_DIR / "iris.csv"))
    # the path is only a label in the report; it must not depend on the checkout
    return px.Empirical(data, sigma, path="data/iris.csv")


def bool3_tree():
    """yes exactly when x0 and (x1 or x2)."""
    return px.DecisionTreeModel(3, ["no", "yes"], {
        "feature": 0, "threshold": 0.5,
        "le": {"leaf": "no"},
        "gt": {
            "feature": 1, "threshold": 0.5,
            "le": {"feature": 2, "threshold": 0.5,
                   "le": {"leaf": "no"}, "gt": {"leaf": "yes"}},
            "gt": {"leaf": "yes"},
        },
    })


def _bool3(**kw):
    return px.RunConfig(
        model=bool3_tree(),
        query=px.TrueQuery(3),
        target_class="yes",
        grammar=px.default_grammar(["bool"] * 3),
        **kw,
    )


def _bool6_three_clauses():
    """yes exactly when x0 or (x1 and x2) or (x3 and not x4 and x5)."""
    third = {
        "feature": 3, "threshold": 0.5,
        "le": {"leaf": "no"},
        "gt": {"feature": 4, "threshold": 0.5,
               "le": {"feature": 5, "threshold": 0.5,
                      "le": {"leaf": "no"}, "gt": {"leaf": "yes"}},
               "gt": {"leaf": "no"}},
    }
    return px.RunConfig(
        model=px.DecisionTreeModel(6, ["no", "yes"], {
            "feature": 0, "threshold": 0.5,
            "le": {
                "feature": 1, "threshold": 0.5,
                "le": third,
                "gt": {"feature": 2, "threshold": 0.5,
                       "le": third, "gt": {"leaf": "yes"}},
            },
            "gt": {"leaf": "yes"},
        }),
        query=px.TrueQuery(6),
        target_class="yes",
        grammar=px.default_grammar(["bool"] * 6, max_clauses=3, max_literals_per_clause=3),
        seed=0,
    )


def _planted_tree():
    """target exactly when (x0 > 0.5 and x1 <= 0.25) or x2 > 0.75."""
    return px.DecisionTreeModel(4, ["other", "target"], {
        "feature": 2, "threshold": 0.75,
        "le": {
            "feature": 0, "threshold": 0.5,
            "le": {"leaf": "other"},
            "gt": {"feature": 1, "threshold": 0.25,
                   "le": {"leaf": "target"}, "gt": {"leaf": "other"}},
        },
        "gt": {"leaf": "target"},
    })


def _planted(**kw):
    return px.RunConfig(
        model=_planted_tree(),
        query=px.TrueQuery(4),
        target_class="target",
        grammar=px.default_grammar(["real"] * 4),
        **kw,
    )


_GRID = (0.0, 0.5, 1.0)


def _table_model():
    """a on the grid points with x0 >= 0.5 and x2 == 0, b everywhere else."""
    entries = [
        {"x": [a, b, c], "class": "a"}
        for a in _GRID for b in _GRID for c in _GRID
        if a >= 0.5 and c == 0.0
    ]
    return px.TableModel(3, ["a", "b"], entries, "b")


def _table(**kw):
    return px.RunConfig(
        model=_table_model(),
        query=px.TrueQuery(3),
        target_class="a",
        grammar=px.default_grammar(["real"] * 3),
        **kw,
    )


_GRID_WEIGHTS = {0.0: 0.25, 0.5: 0.25, 1.0: 0.5}

CASES = {
    # zoo tree, boolean grammar, derived distribution: criterion 1's table
    "zoo-true-s7": lambda: _zoo("true", seed=7),
    "zoo-not-fins-s7": lambda: _zoo("(not x11)", seed=7),
    "zoo-not-breathes-s7": lambda: _zoo("(not x9)", seed=7),
    "zoo-breathes-s7": lambda: _zoo("x9", seed=7),
    "zoo-x3-s7": lambda: _zoo("x3", seed=7),
    "zoo-true-s3-eps01": lambda: _zoo("true", seed=3, epsilon=0.1, delta=0.1),
    "zoo-true-batch3": lambda: _zoo("true", seed=0, counterexample_batch=3),
    "zoo-iteration-cap": lambda: _zoo("true", seed=0, max_iterations=2),
    "zoo-no-explanation": lambda: _zoo("true", grammar=_bool_grammar([0]), seed=0),
    "zoo-no-explanation-pair": lambda: _zoo(
        "true", grammar=_bool_grammar([5, 6]), seed=5, epsilon=0.1, delta=0.1,
        accuracy_samples=0),
    "zoo-general": lambda: _zoo(
        "true", grammar=_bool_grammar([3, 9, 11], 4, 3), seed=4, strategy="general"),
    "zoo-general-bounds-error": lambda: _zoo(
        "true", grammar=_bool_grammar([11]), seed=0, strategy="general"),
    "zoo-empty-region": lambda: _zoo("(and x0 (not x0))", seed=0, accuracy_samples=100),
    "zoo-coverage-1-64": lambda: _zoo(_conjunction(6), seed=0, accuracy_samples=200),
    "zoo-coverage-1-128": lambda: _zoo(_conjunction(7), seed=0, accuracy_samples=200),
    "zoo-cosine": lambda: px.RunConfig(
        model=_model("zoo_tree.json"),
        query=px.CosineBall([1.0 if j in (9, 11) else 0.0 for j in range(16)], 0.6),
        target_class="fish", grammar=_grammar("zoo_grammar.json"), seed=2),
    "zoo-product-skewed": lambda: _zoo(
        "(not x9)", seed=1,
        distribution=px.ProductPerFeature(
            [("categorical", {0: 0.8, 1: 0.2})] * 11
            + [("categorical", {0: 0.3, 1: 0.7})]
            + [("categorical", {0: 0.5, 1: 0.5})] * 4)),
    # a three-feature boolean tree
    "bool3-s0": lambda: _bool3(seed=0),
    "bool3-batch5-s0": lambda: _bool3(seed=0, counterexample_batch=5),
    # three clauses of sizes 1, 2 and 3: the scan's m >= 3 levels
    "bool6-three-clauses-s0": _bool6_three_clauses,
    # MLPs in a cosine ball, real features
    "iris-occam-s11": lambda: _iris(seed=11),
    "iris-occam-batch3-s5": lambda: _iris(seed=5, counterexample_batch=3),
    "iris-occam-box-true": lambda: _iris(
        seed=2, query=px.TrueQuery(4),
        distribution=px.UniformBox([0.0] * 4, [1.0] * 4)),
    "iris-occam-empirical": lambda: _iris(seed=4, distribution=_iris_empirical(0.05)),
    "iris-occam-iteration-cap": lambda: _iris(seed=6, max_iterations=3),
    "iris-occam-box-iteration-cap": lambda: _iris(
        seed=3, query=px.TrueQuery(4), max_iterations=1,
        distribution=px.UniformBox([0.0] * 4, [1.0] * 4)),
    "iris-general-s23": lambda: _iris(
        seed=23, strategy="general", grammar=_loose_grammar(4), accuracy_samples=0),
    "iris-general-box-batch3": lambda: _iris(
        seed=8, strategy="general", grammar=_loose_grammar(4), counterexample_batch=3,
        distribution=px.UniformBox([0.0] * 4, [1.0] * 4), accuracy_samples=500),
    "iris-general-iteration-cap": lambda: _iris(
        seed=9, strategy="general", grammar=_loose_grammar(4), max_iterations=20),
    "adult-occam-s11": lambda: _adult(seed=11),
    "adult-occam-grammar-file": lambda: _adult(
        seed=12, grammar=_grammar("adult_grammar.json"), epsilon=0.1),
    "adult-occam-iteration-cap": lambda: _adult(
        seed=13, query=px.TrueQuery(5), max_iterations=2, accuracy_samples=500),
    # a planted three-literal DNF over real features
    "planted-derived": lambda: _planted(seed=0),
    "planted-box-batch3": lambda: _planted(
        seed=1, counterexample_batch=3,
        distribution=px.UniformBox([0.0] * 4, [1.0] * 4)),
    # a lookup table over a three-value grid
    "table-grid-product": lambda: _table(
        seed=0,
        distribution=px.ProductPerFeature([("categorical", _GRID_WEIGHTS)] * 3)),
    "table-grid-mixed": lambda: _table(
        seed=1,
        distribution=px.ProductPerFeature(
            [("categorical", _GRID_WEIGHTS), ("interval", 0.0, 1.0),
             ("categorical", _GRID_WEIGHTS)])),
    "table-box": lambda: _table(seed=2, distribution=px.UniformBox([0.0] * 3, [1.0] * 3)),
}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def record(cfg) -> dict:
    """Run cfg and return its corpus entry."""
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = px.explain(cfg)
        except px.EngineError as exc:  # the recorded outcome of some cases
            error = f"{type(exc).__name__}: {exc}"
    warned = any(issubclass(w.category, px.LowQueryCoverageWarning) for w in caught)
    entry = {"lowCoverageWarning": warned}
    if error is not None:
        entry["error"] = error
        return entry
    stable = px.stable_report(px.run_report(result))
    text = canonical(stable)
    if len(text) > FULL_REPORT_LIMIT:
        entry["outcome"] = stable["outcome"]
        entry["explanationSize"] = stable["stats"]["size"]
        entry["sha256"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    else:
        entry["report"] = stable
    return entry


def entry_path(name: str) -> pathlib.Path:
    return GOLDEN_DIR / f"{name}.json"


def main(argv) -> int:
    names = argv or list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"unknown cases: {unknown}", file=sys.stderr)
        return 1
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in names:
        entry = record(CASES[name]())
        with open(entry_path(name), "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(name, entry.get("error") or entry.get("outcome")
              or entry["report"]["outcome"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
