"""Tests of the benchmark's output checks.

Each check must pass on the program's real output and fail when handed a
wrong answer (the negated explanation, a formula one literal off, a larger
formula), so that none of them can pass vacuously. Run from the root of a
checkout:

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import itertools

import numpy as np
import pytest

import checks
import pacexplain as px
import workloads

SEED = 5


def _records(workload, calls):
    out = []
    for rnd in workload.rounds:
        for cfg, case in rnd:
            result = px.explain(cfg)
            text = px.render(result.explanation) if result.explanation else None
            out.append((case, result.outcome, result.certified, text,
                        result.sample_entries, cfg.seed))
            if len(out) == calls:
                return out
    return out


@pytest.fixture(scope="module")
def outputs():
    return {
        "zoo-queries": _records(workloads.zoo_queries(SEED), 10),
        "general-dnf": _records(workloads.general_dnf(SEED), 2),
        "occam-deep": _records(workloads.occam_deep(SEED), 3),
    }


def _replace_text(records, fn):
    return [(c, o, cert, fn(t), s, seed) for c, o, cert, t, s, seed in records]


def _negate(text):
    return f"(not {text})"


def _one_literal_off(text):
    """Flip the operator (or the polarity) of the first literal."""
    f = checks.parse(text)

    def flip(g, done):
        tag = g[0]
        if done[0]:
            return g
        if tag == "cmp":
            done[0] = True
            return ("cmp", "<" if g[1] == ">" else ">", g[2], g[3])
        if tag == "bool":
            done[0] = True
            return ("not", g)
        if tag == "const":
            done[0] = True
            return ("const", not g[1])
        if tag == "not" and g[1][0] == "bool":
            done[0] = True
            return g[1]
        if tag == "not":
            return ("not", flip(g[1], done))
        return (tag, tuple(flip(h, done) for h in g[1]))

    return _render(flip(f, [False]))


def _render(f):
    tag = f[0]
    if tag == "const":
        return "true" if f[1] else "false"
    if tag == "bool":
        return f"x{f[1]}"
    if tag == "cmp":
        return f"({f[1]} x{f[2]} {f[3]!r})"
    if tag == "not":
        return f"(not {_render(f[1])})"
    return f"({tag} " + " ".join(_render(g) for g in f[1]) + ")"


@pytest.mark.parametrize("kind", ["zoo-queries", "general-dnf", "occam-deep"])
def test_real_output_passes(outputs, kind):
    verdict = checks.check_calls(outputs[kind])
    assert verdict.ok, (verdict.summary(), verdict.problems)


@pytest.mark.parametrize("kind", ["zoo-queries", "general-dnf", "occam-deep"])
@pytest.mark.parametrize("wrong", [_negate, _one_literal_off])
def test_wrong_explanation_fails(outputs, kind, wrong):
    records = [r for r in outputs[kind] if r[4]]  # calls with a non-empty sample
    assert records
    verdict = checks.check_calls(_replace_text(records, wrong))
    assert verdict.problems and not verdict.ok


def test_uncertified_or_missing_fails(outputs):
    case, _, _, text, sample, seed = outputs["zoo-queries"][0]
    assert not checks.check_calls([(case, "budget-timeout", False, text, sample, seed)]).ok
    assert not checks.check_calls([(case, "explanation", True, None, sample, seed)]).ok


# The error checks alone: hand many calls a wrong formula with an empty final
# sample, so that only the error against the model can catch it.


def _error_only(records, text, calls=40):
    case, _, _, _, _, seed = records[0]
    return [(case, "explanation", True, text, [], seed + k) for k in range(calls)]


def test_zoo_error_check_fails_on_wrong_formula(outputs):
    region_all = next(r for r in outputs["zoo-queries"] if r[0].query == "true")
    verdict = checks.check_calls(_error_only([region_all], "(not x11)"))
    assert not verdict.problems
    assert verdict.over_epsilon == 40 and not verdict.ok


def test_general_error_check_fails_on_negation(outputs):
    records = outputs["general-dnf"]
    verdict = checks.check_calls(_error_only(records, _negate(records[0][3])))
    assert not verdict.problems
    assert verdict.over_epsilon == 40 and not verdict.ok


def test_occam_error_check_fails_one_literal_off(outputs):
    records = outputs["occam-deep"]
    verdict = checks.check_calls(_error_only(records, _one_literal_off(records[0][0].planted)))
    assert not verdict.problems
    assert verdict.over_epsilon == 40 and not verdict.ok


def test_occam_larger_than_planted_fails(outputs):
    case, outcome, cert, text, sample, seed = outputs["occam-deep"][0]
    f = checks.parse(case.planted)
    a, b = f[1]
    larger = _render(("or", (("and", a[1] + (("cmp", ">", 5, 0.0),)), b)))
    verdict = checks.check_calls([(case, outcome, cert, larger, [], seed)])
    assert any("larger" in p for p in verdict.problems)


def test_zoo_smaller_consistent_formula_is_found(outputs):
    case = outputs["zoo-queries"][0][0]
    # fins (x11) decides every label and x14 is always 0, so "x11" fits the
    # sample as well as the size-2 answer does
    sample = []
    for fins, nine in itertools.product((0.0, 1.0), repeat=2):
        x = [0.0] * 16
        x[11], x[9] = fins, nine
        sample.append((tuple(x), int(fins)))
    verdict = checks.check_calls([(case, "explanation", True, "(and x11 (not x14))",
                                   sample, 0)])
    assert any("smaller" in p for p in verdict.problems)


def test_evaluator_matches_program():
    """checks.holds agrees with pacexplain.evaluate on a grammar's formulas."""
    grammar = px.default_grammar(["real", "bool", "real"], max_clauses=2,
                                 max_literals_per_clause=2)
    X = np.random.default_rng(0).random((64, 3))
    X[:, 1] = X[:, 1] > 0.5
    for f in itertools.islice(px.enumerate_formulas(grammar), 0, 20000, 7):
        mine = checks.holds(checks.parse(px.render(f)), X)
        theirs = [px.evaluate(f, tuple(x)) for x in X]
        assert mine.tolist() == theirs, px.render(f)


def test_planted_tree_is_the_planted_formula():
    rng = np.random.default_rng(3)
    for clauses in workloads.planted_round(rng) + workloads.planted_round(rng):
        tree = workloads.planted_tree(clauses)
        cells = checks._cell_midpoints(workloads.OCCAM_CONSTANTS, workloads.OCCAM_ARITY)
        planted = checks.holds(checks.parse(workloads.planted_text(clauses)), cells)
        assert np.array_equal(checks.tree_predict(tree, cells) == "target", planted)


def test_delta_allowance():
    assert checks.delta_allowance(0, 0.05) == 0
    assert checks.delta_allowance(1, 0.05) == 1
    k = checks.delta_allowance(200, 0.05)
    assert 10 < k < 35
