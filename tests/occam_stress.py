"""Occam stress probe: time `synthesize` on random samples no small DNF explains.

For each seed, draws 30 points of six uniform real features from
`numpy.random.default_rng(seed)`, each followed by its label, positive with
probability 0.7, and runs `synthesize` on
`default_grammar(["real"] * 6, max_clauses=K, max_literals_per_clause=3)`
under a 60 s deadline. Prints one line per seed (the seed, the seconds and
the outcome) and the process's peak RSS; exits 1 if any seed hits the
deadline.

    PYTHONPATH=src python tests/occam_stress.py [--clauses 3] [--seeds 0 1 2]

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

import pacexplain as px

DEADLINE_S = 60.0


def stress_sample(seed: int) -> px.Sample:
    rng = np.random.default_rng(seed)
    sample = px.Sample()
    for _ in range(30):
        x = tuple(rng.random(6))
        sample.add(x, int(rng.random() < 0.7))
    return sample


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--clauses", type=int, default=3, help="the grammar's max clauses K (default 3)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2], help="default 0 1 2")
    args = ap.parse_args(argv)
    g = px.default_grammar(["real"] * 6, max_clauses=args.clauses, max_literals_per_clause=3)
    timed_out = False
    for seed in args.seeds:
        sample = stress_sample(seed)
        start = time.perf_counter()
        try:
            found = px.synthesize(sample, g, deadline=start + DEADLINE_S)
            outcome = "no explanation" if found is None else px.render(found)
        except px.SynthesisDeadlineError:
            outcome, timed_out = "deadline", True
        print(f"seed {seed} {time.perf_counter() - start:.3f} s {outcome}", flush=True)
    print(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
    return 1 if timed_out else 0


if __name__ == "__main__":
    sys.exit(main())
