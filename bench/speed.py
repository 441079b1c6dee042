"""A fixed reference loop that tracks how fast the machine runs right now.

On a shared host the same code runs 10–40% slower for minutes at a time,
and process CPU time slows with wall time, so the slowdown is the machine's
speed, not descheduling. The benchmark times `reference()` next to every
`explain` call and scales the call's time by `REF_S / reference time`,
which reports it in seconds at the speed where the loop takes `REF_S`.

The loop belongs to the benchmark and never calls the package; it mixes the
kinds of work `explain` does: scalar numpy draws with a dictionary tree
walk, clause combinations with integer bitmask arithmetic, and a small
matrix-vector product with a recursive formula evaluation. Changing it, or
`REF_S`, changes every reported time, so it stays as it is.
"""

from __future__ import annotations

import heapq
import itertools
import time

import numpy as np

REF_S = 0.010  # the loop's time at the nominal speed

_TREE = {
    "feature": 1, "threshold": 0.5,
    "le": {"leaf": 0},
    "gt": {"feature": 2, "threshold": 0.25, "le": {"leaf": 1}, "gt": {"leaf": 0}},
}
_W = np.arange(12, dtype=float).reshape(3, 4) / 12.0
_FORMULA = ("or", tuple(
    ("and", (("<", j % 4, 0.25 * (1 + j % 3)), (">", (j + 1) % 4, 0.25 * (1 + (j + 1) % 3))))
    for j in range(24)
))
_MASKS = [(i * 2654435761) & 0xFFFFFFFF for i in range(24)]


def _holds(f, x) -> bool:
    tag = f[0]
    if tag == "or":
        return any(_holds(g, x) for g in f[1])
    if tag == "and":
        return all(_holds(g, x) for g in f[1])
    return x[f[1]] < f[2] if tag == "<" else x[f[1]] > f[2]


def _pairs(records, start, prefix):
    for i in range(start, len(records)):
        yield prefix + (records[i],)


def _combos(records):
    for i in range(len(records)):
        yield from _pairs(records, i + 1, (records[i],))


def reference() -> int:
    """Fixed work; returns a checksum so none of it can be skipped."""
    rng = np.random.Generator(np.random.PCG64(12345))
    total = 0
    # draws and a tree walk, as in sampling and classify
    for _ in range(600):
        x = tuple([rng.random() for _ in range(4)])
        node = _TREE
        while "leaf" not in node:
            node = node["le"] if x[node["feature"]] <= node["threshold"] else node["gt"]
        total += node["leaf"]
    # a formula and a matrix-vector product per point, as in verify
    for _ in range(150):
        x = tuple(rng.random(4).tolist())
        total += _holds(_FORMULA, x) + int(np.argmax(_W @ np.asarray(x)))
    # ordered clause combinations with bitmask coverage, as in the scan
    records = [(k, (k,), m) for k, m in enumerate(_MASKS)]
    streams = [_combos(records[:n]) for n in (24, 20, 16)]
    for tup in heapq.merge(*streams, key=lambda t: tuple(r[0] for r in t)):
        covered = 0
        for rec in tup:
            covered |= rec[2]
        if covered == 0xFFFFFFFF:
            total += 1
    for a, b, c in itertools.combinations(_MASKS, 3):
        if a & b & c == 0:
            total += 1
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0
