"""CLI exit codes, output shapes, and environment overrides.

Commands run in-process through main(argv); one subprocess check covers
the installed console script.
"""

import json
import math
import shutil
import subprocess

import pytest

from pacexplain import load_dataset, save_manifest, stable_report
from pacexplain import cli
from pacexplain.cli import main


def zoo_args(data_dir, *extra):
    return [
        "explain",
        "--model", str(data_dir / "zoo_tree.json"),
        "--class", "fish",
        "--grammar", str(data_dir / "zoo_grammar.json"),
        "--seed", "7",
        *extra,
    ]


def test_explain_summary_with_dataset_names(data_dir, capsys):
    code = main(zoo_args(data_dir, "--dataset", str(data_dir / "zoo.csv")))
    out = capsys.readouterr().out
    assert code == 0
    assert "outcome:      explanation" in out
    assert "(and fins (not breathes))" in out
    assert "dataset accuracy: 1.0" in out


def test_explain_summary_with_manifest_names(data_dir, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    save_manifest(load_dataset(str(data_dir / "zoo.csv")), str(manifest))
    code = main(zoo_args(data_dir, "--manifest", str(manifest)))
    out = capsys.readouterr().out
    assert code == 0
    assert "(and fins (not breathes))" in out
    assert "dataset accuracy" not in out


@pytest.mark.parametrize("change", [
    {"kinds": ["real"]},
    {"kinds": None},
    {"bounds": [[0.0, 1.0]] * 3},
    {"featureNames": ["a", "a", "b", "c"]},
    {"bounds": [[math.nan, 1.0]] + [[0.0, 1.0]] * 3},
    {"bounds": [[0.0, 1.0]] * 3 + [[0.0, math.inf]]},
    {"categorical": {"petal_width": {"u": math.nan}}},
], ids=["short-kinds", "no-kinds", "short-bounds", "duplicate-names", "nan-bound",
        "infinite-bound", "nan-code"])
def test_malformed_manifest_exits_one(data_dir, tmp_path, capsys, change):
    manifest = load_dataset(str(data_dir / "iris.csv")).manifest()
    manifest.update(change)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    code = main([
        "explain",
        "--model", str(data_dir / "mlp_iris.json"),
        "--class", "virginica",
        "--manifest", str(path),
    ])
    assert code == 1
    assert "manifest" in capsys.readouterr().err


def test_dataset_and_manifest_together_exit_one(data_dir, tmp_path, capsys):
    manifest = tmp_path / "m.json"
    save_manifest(load_dataset(str(data_dir / "zoo.csv")), str(manifest))
    both = ["--dataset", str(data_dir / "zoo.csv"), "--manifest", str(manifest)]
    assert main(zoo_args(data_dir, *both)) == 1
    assert "not both" in capsys.readouterr().err
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"entries": []}))
    code = main(["export-sygus", "--grammar", str(data_dir / "zoo_grammar.json"),
                 "--sample", str(sample), *both])
    assert code == 1
    assert "not both" in capsys.readouterr().err


def test_non_finite_dataset_cell_exits_one(data_dir, tmp_path, capsys):
    lines = (data_dir / "zoo.csv").read_text().splitlines()
    lines[1] = "nan" + lines[1][1:]
    path = tmp_path / "zoo.csv"
    path.write_text("\n".join(lines) + "\n")
    assert main(zoo_args(data_dir, "--dataset", str(path))) == 1
    assert "non-finite value 'nan' for feature 'hair'" in capsys.readouterr().err


def test_explain_json_output(data_dir, capsys):
    code = main(zoo_args(data_dir, "--json"))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["outcome"] == "explanation"
    assert report["certified"] is True
    assert report["explanation"] == "(and x11 (not x9))"
    assert report["config"]["epsilon"] == 0.05


def test_explain_writes_report_and_replay_reproduces(data_dir, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(zoo_args(data_dir, "--out", str(path))) == 0
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh)["outcome"] == "explanation"
    capsys.readouterr()
    code = main(["replay", str(path)])
    assert code == 0
    assert "reproduced bit-for-bit" in capsys.readouterr().out


def test_replay_of_empirical_run_from_another_directory(
    data_dir, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(data_dir)
    dist = json.dumps({"empirical": {"dataset": "iris.csv", "sigma": 0.05}})
    path = tmp_path / "report.json"
    code = main([
        "explain", "--model", "mlp_iris.json", "--class", "virginica",
        "--distribution", dist, "--seed", "4", "--out", str(path),
    ])
    assert code == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert main(["replay", str(path)]) == 0
    assert "reproduced bit-for-bit" in capsys.readouterr().out


def test_verbose_logs_one_line_per_run(data_dir, tmp_path, caplog, capsys):
    def lines():
        got = [r.getMessage() for r in caplog.records if r.name == "pacexplain"]
        caplog.clear()
        return got

    path = tmp_path / "report.json"
    assert main(zoo_args(data_dir, "--out", str(path))) == 0
    assert lines() == []
    assert main(zoo_args(data_dir, "--out", str(path), "-v")) == 0
    (line,) = lines()
    assert line.startswith("seed 7: explanation after ")
    for part in ("iterations", "test inputs", "counterexamples", "learner", "verifier", "wall"):
        assert part in line
    assert main(["replay", str(path), "-v"]) == 0
    assert lines()[0].startswith("seed 7: explanation after ")
    assert main(["replay", str(path)]) == 0
    assert lines() == []
    argv = zoo_args(data_dir, "--runs", "2", "-v")
    argv[0] = "bench"
    assert main(argv) == 0
    assert [line.split(":")[0] for line in lines()] == ["seed 7", "seed 8"]
    capsys.readouterr()


def test_exit_two_when_grammar_has_no_explanation(data_dir, tmp_path, capsys):
    # the tree ignores hair, so a hair-only grammar exhausts its class
    grammar = tmp_path / "hair.json"
    grammar.write_text(json.dumps({
        "features": [{"name": "hair", "index": 0, "kind": "bool"}],
        "maxClauses": 2,
        "maxLiteralsPerClause": 2,
        "constants": True,
    }))
    code = main([
        "explain",
        "--model", str(data_dir / "zoo_tree.json"),
        "--class", "fish",
        "--grammar", str(grammar),
        "--seed", "0",
    ])
    assert code == 2
    assert "no-explanation" in capsys.readouterr().out


def test_general_strategy_without_constants_exits_one(data_dir, tmp_path, capsys):
    grammar = json.loads((data_dir / "zoo_grammar.json").read_text())
    grammar["constants"] = False
    path = tmp_path / "noconst.json"
    path.write_text(json.dumps(grammar))
    code = main([
        "explain",
        "--model", str(data_dir / "zoo_tree.json"),
        "--class", "fish",
        "--grammar", str(path),
        "--strategy", "general",
    ])
    assert code == 1
    assert "needs a grammar with constants" in capsys.readouterr().err


def test_exit_three_on_budget(data_dir, tmp_path, capsys):
    code = main(zoo_args(data_dir, "--seed", "0", "--max-iterations", "1",
                         "--out", str(tmp_path / "budget.json")))
    assert code == 3
    out = capsys.readouterr().out
    assert "budget-iteration-cap" in out
    assert "no (epsilon, delta) guarantee" in out
    # replaying a deterministic budget stop reports the same outcome
    assert main(["replay", str(tmp_path / "budget.json")]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["explain"],  # missing --model/--class
        ["explain", "--model", "/nonexistent/model.json", "--class", "fish"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


def test_unreadable_model_reports_usage_error(data_dir, tmp_path, capsys):
    bad = tmp_path / "model.json"
    bad.write_text("{not json")
    code = main(["explain", "--model", str(bad), "--class", "fish"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_class_reports_usage_error(data_dir, capsys):
    code = main([
        "explain",
        "--model", str(data_dir / "zoo_tree.json"),
        "--class", "dragon",
        "--grammar", str(data_dir / "zoo_grammar.json"),
    ])
    assert code == 1
    assert "dragon" in capsys.readouterr().err


def test_dataset_without_grammar_uses_the_default_grammar(data_dir, capsys):
    code = main([
        "explain",
        "--model", str(data_dir / "zoo_tree.json"),
        "--class", "fish",
        "--dataset", str(data_dir / "zoo.csv"),
        "--query", "(not breathes)",
        "--seed", "7",
    ])
    assert code == 0
    assert "explanation:  fins\n" in capsys.readouterr().out


def test_dataset_width_must_match_the_model(data_dir, capsys):
    code = main([
        "explain",
        "--model", str(data_dir / "mlp_iris.json"),
        "--class", "virginica",
        "--dataset", str(data_dir / "zoo.csv"),
    ])
    assert code == 1
    assert "dataset has 16 features but the model expects 4" in capsys.readouterr().err


def test_distribution_file_equals_inline_json(data_dir, tmp_path, capsys):
    # fair coins but for the last feature, so it is not the default distribution
    fair = {"categorical": {"0": 0.5, "1": 0.5}}
    spec = json.dumps({"product": [fair] * 15 + [{"categorical": {"0": 0.3, "1": 0.7}}]})
    path = tmp_path / "dist.json"
    path.write_text(spec)
    reports = []
    for given in (spec, str(path)):
        assert main(zoo_args(data_dir, "--distribution", given, "--json")) == 0
        reports.append(stable_report(json.loads(capsys.readouterr().out)))
    assert len(reports[0]["config"]["distribution"]["product"]) == 16
    assert reports[0] == reports[1]


def test_numeric_class_text_resolves_to_the_model_class(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "type": "table", "arity": 1, "classes": [0, 1],
        "entries": [{"x": [0.5], "class": 1}], "default": 0,
    }))
    code = main(["explain", "--model", str(path), "--class", "1", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["config"]["targetClass"] == 1


def _assert_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_table_entry_without_a_point_exits_one(tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({
        "type": "table", "arity": 1, "classes": [0, 1],
        "entries": [{"class": 1}], "default": 0,
    }))
    assert main(["explain", "--model", str(path), "--class", "1"]) == 1
    _assert_error_line(capsys)


def test_deeply_nested_model_exits_one(tmp_path, capsys):
    depth = 5000
    split = '{"feature": 0, "threshold": 0.5, "gt": {"leaf": "b"}, "le": '
    root = split * depth + '{"leaf": "a"}' + "}" * depth
    path = tmp_path / "deep.json"
    path.write_text(f'{{"type": "tree", "arity": 1, "classes": ["a", "b"], "root": {root}}}')
    assert main(["explain", "--model", str(path), "--class", "a"]) == 1
    _assert_error_line(capsys)


_BELOW = '{"type": "tree", "arity": 2, "classes": ["a", "b"], "root": {"feature": 0, ' \
    '"threshold": 0.5, "gt": {"leaf": "b"}, "le": {"le": {"leaf": "a"}, "gt": {"leaf": "b"}, %s}}}'
_MLP = '{"type": "mlp", "arity": 2, "classes": ["a", "b"], ' \
    '"layers": [{"w": [[1.0, %s], [0.0, 1.0]], "b": [0.0, %s], "act": "id"}]}'


@pytest.mark.parametrize("text", [
    _BELOW % '"feature": true, "threshold": 0.5',
    _BELOW % '"feature": 1, "threshold": true',
    _BELOW % '"feature": 1, "threshold": NaN',
    _BELOW % '"feature": 1, "threshold": -Infinity',
    _BELOW % '"feature": 1, "threshold": 1%s' % ("0" * 400),
    _MLP % ("true", "0.0"),
    _MLP % ("NaN", "0.0"),
    _MLP % ("0.0", "true"),
    _MLP % ("0.0", "Infinity"),
], ids=["tree-feature-true", "tree-threshold-true", "tree-threshold-nan",
        "tree-threshold-infinity", "tree-threshold-past-float", "mlp-w-true", "mlp-w-nan",
        "mlp-b-true", "mlp-b-infinity"])
def test_model_with_a_boolean_or_non_finite_number_exits_one(text, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["explain", "--model", str(path), "--class", "a"]) == 1
    _assert_error_line(capsys)
    # the same model with sound numbers runs
    sound = text.replace("true", "1").replace("-Infinity", "0.5").replace("Infinity", "0.5")
    path.write_text(sound.replace("NaN", "0.5").replace("1" + "0" * 400, "0.5"))
    assert main(["explain", "--model", str(path), "--class", "a"]) in (0, 2, 3)


def test_deeply_nested_query_exits_one(data_dir, capsys):
    depth = 3000
    query = "(not " * depth + "x0" + ")" * depth
    assert main(zoo_args(data_dir, "--query", query)) == 1
    _assert_error_line(capsys)


DEEP_JSON = '{"x": ' + "[" * 5000 + "]" * 5000 + "}"


@pytest.mark.parametrize(
    "read", ["query", "distribution", "grammar", "manifest", "replay", "sygus-grammar",
             "sygus-sample"],
)
def test_deeply_nested_json_exits_one(read, data_dir, tmp_path, capsys):
    # JSON nested past the parser's recursion limit, at each JSON read
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    grammar = str(data_dir / "zoo_grammar.json")
    sample = tmp_path / "sample.json"
    sample.write_text('{"entries": []}')
    argv = {
        "query": zoo_args(data_dir, "--query", DEEP_JSON),
        "distribution": zoo_args(data_dir, "--distribution", DEEP_JSON),
        "grammar": ["explain", "--model", str(data_dir / "zoo_tree.json"), "--class", "fish",
                    "--grammar", str(deep)],
        "manifest": zoo_args(data_dir, "--manifest", str(deep)),
        "replay": ["replay", str(deep)],
        "sygus-grammar": ["export-sygus", "--grammar", str(deep), "--sample", str(sample)],
        "sygus-sample": ["export-sygus", "--grammar", grammar, "--sample", str(deep)],
    }[read]
    assert main(argv) == 1
    _assert_error_line(capsys)


@pytest.mark.parametrize(
    "query",
    [
        {"formula": [[]]},
        {"formula": 3},
        {"cosine": [1.0] * 16},
        {"cosine": {"center": 1.0}},
        {"cosine": {"center": [[]] * 16}},
        {"cosine": {"center": ["1"] * 16}},
        {"cosine": {"center": [1.0] * 16, "maxDistance": [0.5]}},
        {"cosine": {"center": [1.0] * 16, "maxDistance": "0.5"}},
    ],
)
def test_wrong_typed_query_json_exits_one(query, data_dir, capsys):
    assert main(zoo_args(data_dir, "--query", json.dumps(query))) == 1
    _assert_error_line(capsys)


@pytest.mark.parametrize(
    "sample",
    [
        [],
        {"entries": {}},
        {"entries": [[1.0, 0.0]]},
        {"entries": [{"label": 1}]},
        {"entries": [{"x": [[]], "label": 1}]},
        {"entries": [{"x": 1.0, "label": 1}]},
        {"entries": [{"x": ["1"], "label": 1}]},
        {"entries": [{"x": [1.0]}]},
        {"entries": [{"x": [1.0], "label": [1]}]},
        {"entries": [{"x": [1.0], "label": "1"}]},
        {"entries": [{"x": [1.0], "label": True}]},
    ],
)
def test_wrong_typed_sample_json_exits_one(sample, data_dir, tmp_path, capsys):
    path = tmp_path / "sample.json"
    path.write_text(json.dumps(sample))
    code = main(["export-sygus", "--grammar", str(data_dir / "zoo_grammar.json"),
                 "--sample", str(path)])
    assert code == 1
    _assert_error_line(capsys)


def iris_args(data_dir, *extra):
    return ["explain", "--model", str(data_dir / "mlp_iris.json"), "--class", "virginica",
            *extra]


@pytest.mark.parametrize(
    "spec",
    [
        # NaN and infinite bounds once gave a certified `false`
        {"uniformBox": {"lo": [0, 0, 0, math.nan], "hi": [1, 1, 1, 1]}},
        {"product": [{"interval": [0, 1]}] * 3 + [{"interval": [0, math.inf]}]},
        {"uniformBox": {"lo": 1, "hi": 2}},
        {"uniformBox": {"lo": [0, 0, 0, 0]}},
        {"product": 3},
        {"product": [{"categorical": {"0": "x"}}]},
        {"empirical": 5},
        {"empirical": {}},
        {"empirical": {"dataset": "IRIS", "sigma": math.nan}},
        5,
    ],
)
def test_wrong_typed_or_non_finite_distribution_exits_one(spec, data_dir, capsys):
    text = json.dumps(spec).replace("IRIS", str(data_dir / "iris.csv"))
    assert main(iris_args(data_dir, "--distribution", text)) == 1
    _assert_error_line(capsys)


@pytest.mark.parametrize(
    "grammar",
    [
        {"features": [{"index": 1.7, "kind": "real"}]},
        {"features": [{"index": True, "kind": "real"}]},
        {"features": [{"index": 0, "kind": "real", "constants": [math.nan]}]},
        {"features": [{"index": 0, "kind": "real", "ops": "<>"}]},
        {"features": [{"index": 0, "kind": "real"}], "constants": "false"},
        {"features": [{"index": 0, "kind": "real"}], "maxClauses": 2.9},
        {"features": 0},
        5,
    ],
)
def test_wrong_typed_grammar_json_exits_one(grammar, data_dir, tmp_path, capsys):
    path = tmp_path / "grammar.json"
    path.write_text(json.dumps(grammar))
    assert main(iris_args(data_dir, "--grammar", str(path))) == 1
    _assert_error_line(capsys)

@pytest.mark.parametrize(
    "read", ["box-bounds", "grammar-constants", "cosine-center", "sample-x", "categorical-weights"],
)
def test_json_booleans_are_not_numbers(read, data_dir, tmp_path, capsys):
    # JSON true and false are no numbers, though Python's bool is an int
    grammar = tmp_path / "grammar.json"
    grammar.write_text(json.dumps({"features": [{"index": 0, "kind": "real", "constants": [True]}]}))
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"entries": [{"x": [True] + [0.0] * 15, "label": 1}]}))
    weights = {"product": [{"categorical": {"0": True, "1": 1.0}}] + [{"interval": [0, 1]}] * 3}
    argv = {
        "box-bounds": iris_args(data_dir, "--distribution",
                                json.dumps({"uniformBox": {"lo": [False] * 4, "hi": [True] * 4}})),
        "grammar-constants": iris_args(data_dir, "--grammar", str(grammar)),
        "cosine-center": iris_args(data_dir, "--query",
                                   json.dumps({"cosine": {"center": [True] * 4}})),
        "sample-x": ["export-sygus", "--grammar", str(data_dir / "zoo_grammar.json"),
                     "--sample", str(sample)],
        "categorical-weights": iris_args(data_dir, "--distribution", json.dumps(weights)),
    }[read]
    assert main(argv) == 1
    _assert_error_line(capsys)


def test_empty_grammar_constants_or_ops_exit_one(data_dir, tmp_path, capsys):
    for key, message in (("constants", "at least one constant"), ("ops", "at least one op")):
        path = tmp_path / f"no-{key}.json"
        path.write_text(json.dumps({"features": [{"index": 0, "kind": "real", key: []}]}))
        code = main([
            "explain",
            "--model", str(data_dir / "mlp_iris.json"),
            "--class", "virginica",
            "--grammar", str(path),
        ])
        assert code == 1
        assert message in capsys.readouterr().err


def test_env_overrides_and_flag_precedence(data_dir, capsys, monkeypatch):
    monkeypatch.setenv("PACEXPLAIN_EPSILON", "0.1")
    monkeypatch.setenv("PACEXPLAIN_DELTA", "0.2")
    monkeypatch.setenv("PACEXPLAIN_TIMEOUT", "60")
    code = main(zoo_args(data_dir, "--json", "--delta", "0.05"))
    assert code == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert config["epsilon"] == 0.1
    assert config["delta"] == 0.05  # explicit flag beats the environment
    assert config["timeout"] == 60.0


def test_bad_env_value_exits_one(data_dir, capsys, monkeypatch):
    monkeypatch.setenv("PACEXPLAIN_EPSILON", "lots")
    assert main(zoo_args(data_dir)) == 1
    assert "PACEXPLAIN_EPSILON" in capsys.readouterr().err


def test_nan_timeout_exits_one(data_dir, capsys, monkeypatch):
    # no deadline would ever pass a NaN timeout, so the run could not stop
    assert main(zoo_args(data_dir, "--timeout", "nan")) == 1
    assert "timeout must be positive" in capsys.readouterr().err
    monkeypatch.setenv("PACEXPLAIN_TIMEOUT", "nan")
    assert main(zoo_args(data_dir)) == 1
    assert "timeout must be positive" in capsys.readouterr().err


def test_accuracy_samples_must_not_be_negative(data_dir, capsys):
    assert main(zoo_args(data_dir, "--accuracy-samples", "-1")) == 1
    assert "accuracy_samples must be >= 0" in capsys.readouterr().err
    # 0 means no estimate
    assert main(zoo_args(data_dir, "--accuracy-samples", "0", "--json")) == 0
    assert json.loads(capsys.readouterr().out)["stats"]["accuracy"] is None


def test_bench_aggregates_over_seeds(data_dir, tmp_path, capsys):
    out = tmp_path / "agg.json"
    per_run = tmp_path / "runs"
    code = main([
        "bench",
        "--model", str(data_dir / "zoo_tree.json"),
        "--class", "fish",
        "--grammar", str(data_dir / "zoo_grammar.json"),
        "--dataset", str(data_dir / "zoo.csv"),
        "--runs", "3",
        "--seed", "5",
        "--json",
        "--out", str(out),
        "--out-dir", str(per_run),
    ])
    assert code == 0
    aggregate = json.loads(capsys.readouterr().out)
    assert aggregate["runs"] == 3
    assert aggregate["outcomes"] == {"explanation": 3}
    assert [row["seed"] for row in aggregate["perRun"]] == [5, 6, 7]
    assert aggregate["meanDatasetAccuracy"] == 1.0
    assert aggregate["learnerShare"] + aggregate["verifierShare"] == pytest.approx(1.0)
    with open(out, "r", encoding="utf-8") as fh:
        assert json.load(fh) == aggregate
    for seed in (5, 6, 7):
        assert (per_run / f"run-{seed}.json").exists()


def test_bench_rejects_nonpositive_runs(data_dir, capsys):
    code = main([
        "bench",
        "--model", str(data_dir / "zoo_tree.json"),
        "--class", "fish",
        "--runs", "0",
    ])
    assert code == 1
    capsys.readouterr()


def test_export_sygus(data_dir, tmp_path, capsys):
    grammar = tmp_path / "grammar.json"
    grammar.write_text(json.dumps({
        "features": [
            {"name": "x0", "index": 0, "kind": "real", "constants": [0.5]},
            {"name": "x1", "index": 1, "kind": "real", "constants": [0.5]},
        ],
        "maxClauses": 2,
        "maxLiteralsPerClause": 2,
        "constants": True,
    }))
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({
        "entries": [
            {"x": [0.2, 0.3], "label": 1},
            {"x": [0.9, 0.9], "label": 0},
        ],
    }))
    code = main(["export-sygus", "--grammar", str(grammar),
                 "--sample", str(sample), "--arity", "2"])
    text = capsys.readouterr().out
    assert code == 0
    assert "(set-logic LRA)" in text
    assert "(check-synth)" in text
    assert text.count("(constraint ") == 2

    out = tmp_path / "instance.sl"
    code = main(["export-sygus", "--grammar", str(grammar),
                 "--sample", str(sample), "--arity", "2", "--out", str(out)])
    assert code == 0
    assert out.read_text() == text


def test_export_sygus_names_from_dataset_or_manifest(data_dir, tmp_path, capsys):
    grammar = tmp_path / "grammar.json"
    grammar.write_text(json.dumps({
        "features": [{"name": "fins", "kind": "bool"}, {"name": "breathes", "kind": "bool"}],
        "maxClauses": 1,
        "maxLiteralsPerClause": 2,
    }))
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"entries": [{"x": [0.0] * 16, "label": 0}]}))
    manifest = tmp_path / "m.json"
    save_manifest(load_dataset(str(data_dir / "zoo.csv")), str(manifest))
    texts = []
    for names in (["--dataset", str(data_dir / "zoo.csv")], ["--manifest", str(manifest)]):
        code = main(["export-sygus", "--grammar", str(grammar), "--sample", str(sample), *names])
        assert code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert "(= fins 1.0)" in texts[0]
    assert "(not (= breathes 1.0))" in texts[0]
    assert "(hair Real)" in texts[0]


@pytest.mark.parametrize(
    "xs, index, names",
    [
        ([[0.1, 0.2, 0.3], [0.4]], 0, None),  # points of the wrong width
        ([[0.1, 0.2]], 5, None),  # a literal over a feature past the arity
        ([[0.1, 0.2]], 0, ["a"]),  # fewer names than features
    ],
)
def test_export_sygus_rejects_an_instance_it_cannot_write(xs, index, names, tmp_path, capsys):
    grammar = tmp_path / "grammar.json"
    grammar.write_text(json.dumps({"features": [{"index": index, "kind": "real"}]}))
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"entries": [{"x": x, "label": 1} for x in xs]}))
    argv = ["export-sygus", "--grammar", str(grammar), "--sample", str(sample), "--arity", "2"]
    if names is not None:
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "featureNames": names, "kinds": ["real"] * len(names),
            "bounds": [[0.0, 1.0]] * len(names), "categorical": {}, "classes": ["x"],
        }))
        argv += ["--manifest", str(manifest)]
    assert main(argv) == 1
    _assert_error_line(capsys)


def test_summaries_build_no_report(data_dir, tmp_path, capsys, monkeypatch):
    # without --out, --json or --out-dir the commands print from the run itself
    def no_report(result):
        raise AssertionError("run_report called")

    monkeypatch.setattr(cli, "run_report", no_report)
    assert main(zoo_args(data_dir, "--dataset", str(data_dir / "zoo.csv"))) == 0
    assert "explanation:  (and fins (not breathes))" in capsys.readouterr().out
    argv = zoo_args(data_dir, "--runs", "2")
    argv[0] = "bench"
    assert main(argv) == 0
    assert "outcomes:     {'explanation': 2}" in capsys.readouterr().out

def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    assert "0.1.0" in capsys.readouterr().out
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_console_script_is_installed():
    exe = shutil.which("pacexplain")
    assert exe is not None
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"
