"""SHA-256 of the stable reports of the benchmark workloads' first calls.

For each workload of `bench/workloads.py`, runs the first N configurations
in the order the benchmark calls them (round by round) and prints one
line: the workload, N, and a SHA-256 over every call's `stable_report` as
canonical JSON, one per line. Two trees whose lines match produce
bit-identical reports on those calls. `pacexplain` is imported from
`PYTHONPATH`, so the same script hashes another checkout's package:

    PYTHONPATH=src python3 tests/report_hashes.py [--seed 1] [--calls W=N ...]
    PYTHONPATH=/path/to/other/src python3 tests/report_hashes.py

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import pathlib
import sys

import pacexplain as px

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

DEFAULT_CALLS = {"zoo-queries": 500, "occam-deep": 600, "general-dnf": 200}


def workload_hash(name: str, seed: int, calls: int) -> str:
    configs = (cfg for round_ in workloads.WORKLOADS[name](seed).rounds for cfg, _ in round_)
    digest = hashlib.sha256()
    for cfg in itertools.islice(configs, calls):
        report = px.stable_report(px.run_report(px.explain(cfg)))
        digest.update(json.dumps(report, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1, help="benchmark seed (default 1)")
    ap.add_argument("--calls", nargs="*", default=[], metavar="W=N",
                    help="calls of workload W to hash; default "
                    + ", ".join(f"{w}={n}" for w, n in DEFAULT_CALLS.items()))
    args = ap.parse_args(argv)
    calls = dict(DEFAULT_CALLS)
    for spec in args.calls:
        name, _, n = spec.partition("=")
        if name not in calls or not n.isdigit():
            ap.error(f"--calls expects W=N with W one of {', '.join(calls)}, got {spec!r}")
        calls[name] = int(n)
    for name, n in calls.items():
        print(f"{name} {n} {workload_hash(name, args.seed, n)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
