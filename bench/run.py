"""Benchmark of `pacexplain.explain` on three seeded workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload zoo-queries --seed 1 --seconds 30 --trace 0

With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run; see bench/README.md. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.

This script only starts processes and does arithmetic. Every measurement
runs `worker.py` in a fresh single-threaded process that imports the
program from `src/` of the same checkout; the processes run one at a time
and each is waited for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("zoo-queries", "general-dnf", "occam-deep")
# Set-up is timed in this many processes, the timed one included, after one
# warm-up process whose figure is dropped (it may write bytecode caches).
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args, mode: str, *extra) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
           "--started", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def _normalized_calls(run: dict) -> list:
    """Call times scaled by REF_S over the mean of the references around them."""
    refs = run["ref_times"]
    return [t * run["ref_s"] * 2.0 / (refs[i] + refs[i + 1])
            for i, t in enumerate(run["call_times"])]


def timed_run(args) -> dict:
    _worker(args, "setup")  # warm-up, dropped
    half = (SETUP_PROBES - 1) // 2
    probes = [_worker(args, "setup") for _ in range(half)]
    run = _worker(args, "timed", "--seconds", str(args.seconds))
    probes += [run] + [_worker(args, "setup") for _ in range(SETUP_PROBES - 1 - half)]
    times = _normalized_calls(run)
    metrics = {
        "explain_s.p50": (statistics.median(times), "s"),
        "instances_per_s": (len(times) / sum(times), "1/s"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    raw = {
        "explain_s.p50": statistics.median(run["call_times"]),
        "instances_per_s": len(times) / sum(run["call_times"]),
        "reference_s": statistics.median(run["ref_times"]),
    }
    print(f"{args.workload}: {len(times)} calls in {run['rounds']} rounds;"
          f" checks: {run['checks']}; unscaled: {json.dumps(raw)}", file=sys.stderr)
    return {"correct": run["correct"], "attempted": len(times),
            "failed": run["failed"], "metrics": metrics}, raw


def layer_metrics(sums: dict, calls: int) -> dict:
    """Per-layer metrics, per explain call, from the traced run's sums.

    `sums` maps a layer to [calls, total seconds, self seconds, units], the
    units being in-region results for `query.contains` and tested points
    for `verifier.verify`.
    """

    def per_call(layer, i):
        return sums[layer][i] / calls

    def rate(layer):
        n, _, own, _ = sums[layer]
        return n / own if own > 0 else 0.0

    contains = sums["query.contains"]
    return {
        "distribution.sample_s": (per_call("distribution.sample", 2), "s"),
        "distribution.draws": (per_call("distribution.sample", 0), "count"),
        "distribution.draws_per_s": (rate("distribution.sample"), "1/s"),
        "query.contains_s": (per_call("query.contains", 2), "s"),
        "query.contains_calls": (per_call("query.contains", 0), "count"),
        "query.hit_ratio": (contains[3] / contains[0] if contains[0] else 0.0, "ratio"),
        "model.classify_s": (per_call("model.classify", 2), "s"),
        "model.classify_calls": (per_call("model.classify", 0), "count"),
        "model.classify_per_s": (rate("model.classify"), "1/s"),
        "formula.evaluate_s": (per_call("formula.evaluate", 2), "s"),
        "formula.evaluate_calls": (per_call("formula.evaluate", 0), "count"),
        "formula.evaluate_per_s": (rate("formula.evaluate"), "1/s"),
        "synthesizer.occam_s": (per_call("synthesizer.occam", 2), "s"),
        "synthesizer.occam_calls": (per_call("synthesizer.occam", 0), "count"),
        "synthesizer.general_s": (per_call("synthesizer.general", 2), "s"),
        "synthesizer.general_calls": (per_call("synthesizer.general", 0), "count"),
        "verifier.verify_s": (per_call("verifier.verify", 2), "s"),
        "verifier.tested": (per_call("verifier.verify", 3), "count"),
        "verifier.estimate_s": (per_call("verifier.estimate", 2), "s"),
        "engine.self_s": (per_call("engine.explain", 2), "s"),
    }


def traced_run(args) -> dict:
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    # Half the run traced, then the same rounds untraced for the overhead.
    traced = _worker(args, "traced", "--seconds", str(args.seconds / 2),
                     "--trace-out", trace_path)
    plain = _worker(args, "timed", "--rounds", str(traced["rounds"]))
    traced_times = _normalized_calls(traced)
    plain_times = _normalized_calls(plain)
    calls = len(traced_times)
    # Scale each call's layer times like its explain time.
    sums = {}
    for raw_s, scaled_s, layers in zip(traced["call_times"], traced_times,
                                       traced["per_call_layers"]):
        factor = scaled_s / raw_s
        for layer, (n, total, own, units) in layers.items():
            acc = sums.setdefault(layer, [0, 0.0, 0.0, 0])
            acc[0] += n
            acc[1] += total * factor
            acc[2] += own * factor
            acc[3] += units
    metrics = layer_metrics(sums, calls)
    traced_s = sum(traced_times) / calls
    plain_s = sum(plain_times) / calls
    metrics["trace.explain_s"] = (traced_s, "s")
    metrics["trace.untraced_explain_s"] = (plain_s, "s")
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "ratio")
    explain_total = sums["engine.explain"][1]
    accounted = sum(v[2] for v in sums.values()) / explain_total
    print(f"{args.workload}: {calls} traced calls; layer self times add up to"
          f" {accounted:.6f} of the traced explain time; tracing overhead"
          f" {traced_s - plain_s:.4f} s per call ({traced_s / plain_s - 1.0:+.1%})",
          file=sys.stderr)
    for layer, (n, _, own, _) in sorted(sums.items(), key=lambda kv: -kv[1][2]):
        print(f"  {layer:22s} {own / calls * 1e3:9.2f} ms/call {own / explain_total:7.1%}"
              f" {n / calls:10.1f} calls/call", file=sys.stderr)
    result = {"correct": traced["correct"] and plain["correct"],
              "attempted": calls + len(plain_times),
              "failed": traced["failed"] + plain["failed"], "metrics": metrics}
    return result, {"traced_explain_s": sum(traced["call_times"]) / calls,
                    "untraced_explain_s": sum(plain["call_times"]) / calls}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pacexplain", "__init__.py")):
        print(f"bench: no pacexplain sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        result, raw = traced_run(args) if args.trace else timed_run(args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump({**result, "unscaled": raw}, fh)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
