"""CLI exit codes, output shapes, and environment overrides.

Commands run in-process through main(argv); one subprocess check covers
the installed console script.
"""

import json
import shutil
import subprocess

import pytest

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
