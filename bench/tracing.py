"""Layer timings for `explain`, taken from outside the program.

`Tracer.install` wraps pacexplain's public entry points in place:

- the names `engine` imports and calls from `explain`: `synthesize`,
  `synthesize_general`, `verify` and `estimate_query_accuracy`;
- `sample`, `contains` and `classify` on every concrete `Distribution`,
  `Query` and `Model` class;
- `evaluate` as the other modules import it (`engine`, `verifier`, `query`,
  `synthesizer`, `model`). The name inside `formula` stays unwrapped, so only
  top-level calls from other modules count, not evaluate's own recursion.

Each wrapped call is a span with a start, an end and the span that was open
when it began. Calls into the learner and the verifier are kept as single
spans; calls made once per draw (`sample`, `contains`, `classify`,
`evaluate`) are summed per `explain` call and layer. A span's self time is
its duration minus the durations of the spans it encloses, so the self times
of one `explain` call add up to its traced duration; `engine.self_s` is the
self time of the `explain` span itself. Everything stays in memory until
`dump` writes it out.
"""

from __future__ import annotations

import functools
import json
import time

import pacexplain as px
from pacexplain import distribution, engine, model, query, synthesizer, verifier

# (layer, name in engine's namespace); each call is kept as a span
_ENGINE_CALLS = (
    ("synthesizer.occam", "synthesize"),
    ("synthesizer.general", "synthesize_general"),
    ("verifier.verify", "verify"),
    ("verifier.estimate", "estimate_query_accuracy"),
)
_METHODS = (
    ("distribution.sample", distribution.Distribution, "sample"),
    ("query.contains", query.Query, "contains"),
    ("model.classify", model.Model, "classify"),
)
_EVALUATE_IMPORTERS = (engine, verifier, query, synthesizer, model)

LAYERS = (
    "engine.explain",
    "synthesizer.occam",
    "synthesizer.general",
    "verifier.verify",
    "verifier.estimate",
    "distribution.sample",
    "query.contains",
    "model.classify",
    "formula.evaluate",
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self):
        self.spans = []  # [call, span, layer, start, end, parent, self_s]
        # (call, layer) -> [calls, total_s, self_s, units]
        self.totals = {}
        self._stack = []  # open spans: [span id, child seconds]
        self._call = -1
        self._next_span = 0
        self._undo = []

    def _wrap(self, layer: str, fn, keep_span: bool, units=None):
        clock = time.perf_counter
        stack = self._stack
        totals = self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                own = duration - frame[1]
                key = (self._call, layer)
                acc = totals.get(key)
                if acc is None:
                    acc = totals[key] = [0, 0.0, 0.0, 0]
                acc[0] += 1
                acc[1] += duration
                acc[2] += own
                if keep_span:
                    self.spans.append([self._call, span, layer, start, end, parent, own])
            if units is not None:
                acc[3] += units(result)
            return result

        return traced

    def _patch(self, owner, name: str, layer: str, keep_span: bool, units=None):
        original = vars(owner)[name]
        self._undo.append((owner, name, original))
        setattr(owner, name, self._wrap(layer, original, keep_span, units))

    def install(self):
        for layer, name in _ENGINE_CALLS:
            units = (lambda r: r.tested_count) if name == "verify" else None
            self._patch(engine, name, layer, True, units)
        for layer, base, name in _METHODS:
            units = (lambda r: 1 if r else 0) if name == "contains" else None
            for cls in _subclasses(base):
                if name in cls.__dict__:
                    self._patch(cls, name, layer, False, units)
        for module in _EVALUATE_IMPORTERS:
            self._patch(module, "evaluate", "formula.evaluate", False)
        explain = self._wrap("engine.explain", px.explain, True)

        def traced_explain(cfg):
            self._call += 1
            return explain(cfg)

        return traced_explain

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def per_call(self) -> list:
        """For each explain call in order: layer -> [calls, total_s, self_s, units]."""
        out = [{layer: [0, 0.0, 0.0, 0] for layer in LAYERS} for _ in range(self._call + 1)]
        for (call, layer), acc in self.totals.items():
            out[call][layer] = list(acc)
        return out

    def dump(self, path: str, meta: dict):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "span_fields": ["call", "span", "layer", "start", "end", "parent", "self_s"],
                    "spans": self.spans,
                    "per_call_fields": ["calls", "total_s", "self_s", "units"],
                    "per_call": self.per_call(),
                },
                fh,
            )
            fh.write("\n")
