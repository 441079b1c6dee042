"""One benchmark process: set up a workload, time `explain`, check outputs.

`run.py` starts this script in a fresh single-threaded process for each
measurement and reads the one JSON line it prints. Modes:

- `setup`: import, load and generate the workload's inputs, then report the
  time since the parent started the process;
- `timed`: the same set-up, then whole rounds of `explain` calls until
  `--seconds` have passed (or `--rounds` rounds), each call timed on its
  own, then the output checks, outside the timed phase;
- `traced`: as `timed`, with the layer wrappers of `tracing.py` installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int, default=0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() in the parent just before it started this process")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import pacexplain as px
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.started
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import speed

    tracer = None
    explain = px.explain
    if args.mode == "traced":
        import tracing

        tracer = tracing.Tracer()
        explain = tracer.install()

    pool = workload.rounds
    call_times = []
    ref_times = []  # reference loop just before each call, and once after the last
    records = {}  # (round in pool, position) -> what the checks need
    failed = 0
    rounds = 0
    clock = time.perf_counter
    start = clock()
    while (rounds < args.rounds) if args.rounds else (clock() - start < args.seconds):
        index = rounds % len(pool)
        for position, (cfg, case) in enumerate(pool[index]):
            ref_times.append(speed.time_reference())
            t0 = clock()
            try:
                result = explain(cfg)
            except Exception as exc:  # a failed call is counted, not fatal
                call_times.append(clock() - t0)
                failed += 1
                print(f"explain failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            call_times.append(clock() - t0)
            records[(index, position)] = (case, result.outcome, result.certified,
                                          result.explanation, result.sample_entries, cfg.seed)
        rounds += 1
    ref_times.append(speed.time_reference())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
    import checks

    verdict = checks.check_calls(
        (case, outcome, certified, px.render(f) if f is not None else None, sample, seed)
        for case, outcome, certified, f, sample, seed in records.values()
    )
    for problem in verdict.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    out = {
        "setup_s": setup_s,
        "ref_s": speed.REF_S,
        "rounds": rounds,
        "call_times": call_times,
        "ref_times": ref_times,
        "failed": failed,
        "peak_rss_mb": peak_rss_mb,
        "correct": verdict.ok,
        "checks": verdict.summary(),
    }
    if tracer is not None:
        out["per_call_layers"] = tracer.per_call()
        if args.trace_out:
            tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
