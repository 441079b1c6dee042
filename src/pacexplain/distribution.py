"""Sampling distributions for the statistical verifier.

All distributions draw full feature vectors over R^n; the query region does
not condition the draw, it only classifies points afterwards. Streams are
reproducible: every distribution consumes a numpy Generator (PCG64) in a
fixed per-feature order, so a fixed seed yields a bit-identical sequence.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


class DistributionError(ValueError):
    pass


class Distribution:
    arity: int

    def sample(self, rng: np.random.Generator) -> tuple:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


class UniformBox(Distribution):
    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        self.lo = tuple(float(v) for v in lo)
        self.hi = tuple(float(v) for v in hi)
        if len(self.lo) != len(self.hi):
            raise DistributionError("lo and hi lengths differ")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise DistributionError("box needs lo <= hi per feature")
        self.arity = len(self.lo)
        self._lo = np.asarray(self.lo)
        self._span = np.asarray(self.hi) - self._lo

    def sample(self, rng: np.random.Generator) -> tuple:
        u = rng.random(self.arity)
        return tuple((self._lo + u * self._span).tolist())

    def to_json(self) -> dict:
        return {"uniformBox": {"lo": list(self.lo), "hi": list(self.hi)}}


class ProductPerFeature(Distribution):
    """Independent per-feature draws.

    Each spec is ("interval", lo, hi) or ("categorical", {value: weight}).
    Categorical values are drawn by inverse CDF over values sorted ascending,
    keeping the stream independent of dict ordering.
    """

    def __init__(self, specs: Sequence):
        self.specs = []
        for k, spec in enumerate(specs):
            kind = spec[0]
            if kind == "interval":
                _, lo, hi = spec
                if lo > hi:
                    raise DistributionError(f"feature {k}: interval needs lo <= hi")
                self.specs.append(("interval", float(lo), float(hi)))
            elif kind == "categorical":
                weights = spec[1]
                if not weights:
                    raise DistributionError(f"feature {k}: empty categorical")
                total = float(sum(weights.values()))
                if total <= 0 or any(w < 0 for w in weights.values()):
                    raise DistributionError(f"feature {k}: bad categorical weights")
                values = sorted(float(v) for v in weights)
                probs = [float(weights[v]) / total for v in sorted(weights)]
                self.specs.append(("categorical", values, probs))
            else:
                raise DistributionError(f"feature {k}: unknown spec kind {kind!r}")
        self.arity = len(self.specs)

    def sample(self, rng: np.random.Generator) -> tuple:
        out = []
        for spec in self.specs:
            if spec[0] == "interval":
                _, lo, hi = spec
                out.append(lo + rng.random() * (hi - lo))
            else:
                _, values, probs = spec
                r = rng.random()
                acc = 0.0
                chosen = values[-1]
                for v, p in zip(values, probs):
                    acc += p
                    if r < acc:
                        chosen = v
                        break
                out.append(chosen)
        return tuple(out)

    def to_json(self) -> dict:
        specs = []
        for spec in self.specs:
            if spec[0] == "interval":
                specs.append({"interval": [spec[1], spec[2]]})
            else:
                _, values, probs = spec
                specs.append(
                    {"categorical": {repr(v): p for v, p in zip(values, probs)}}
                )
        return {"product": specs}


class Empirical(Distribution):
    """Dataset rows plus Gaussian noise on real features, clamped to [0, 1].

    Boolean features are never perturbed. Clamping (not rejection) keeps the
    per-sample draw count fixed, which keeps streams reproducible.
    """

    def __init__(self, dataset, sigma: float, path: Optional[str] = None):
        if sigma < 0:
            raise DistributionError("sigma must be >= 0")
        if not dataset.rows:
            raise DistributionError("empirical distribution needs a non-empty dataset")
        self.dataset = dataset
        self.sigma = float(sigma)
        self.path = path
        self.arity = dataset.arity
        self._real_idx = [j for j, kind in enumerate(dataset.kinds) if kind != "bool"]
        self._points = [np.asarray(x) for x, _ in dataset.rows]

    def sample(self, rng: np.random.Generator) -> tuple:
        k = int(rng.integers(len(self._points)))
        x = self._points[k].copy()
        if self.sigma > 0 and self._real_idx:
            noise = rng.normal(0.0, self.sigma, size=len(self._real_idx))
            for j, nz in zip(self._real_idx, noise):
                x[j] = min(1.0, max(0.0, x[j] + nz))
        return tuple(x.tolist())

    def to_json(self) -> dict:
        if self.path is None:
            raise DistributionError(
                "empirical distribution built without a dataset path cannot be serialized"
            )
        return {"empirical": {"dataset": self.path, "sigma": self.sigma}}


def uniform_box(arity: int) -> UniformBox:
    return UniformBox([0.0] * arity, [1.0] * arity)


def uniform_boolean(arity: int) -> ProductPerFeature:
    return ProductPerFeature([("categorical", {0: 0.5, 1: 0.5})] * arity)


def default_distribution(kinds: Sequence[str]) -> Distribution:
    """Uniform {0,1} per boolean feature, uniform [0,1] otherwise."""
    specs = []
    for kind in kinds:
        if kind == "bool":
            specs.append(("categorical", {0: 0.5, 1: 0.5}))
        else:
            specs.append(("interval", 0.0, 1.0))
    return ProductPerFeature(specs)


def distribution_from_json(obj: dict, load_dataset_fn=None) -> Distribution:
    if "uniformBox" in obj:
        spec = obj["uniformBox"]
        return UniformBox(spec["lo"], spec["hi"])
    if "product" in obj:
        specs = []
        for entry in obj["product"]:
            if "interval" in entry:
                lo, hi = entry["interval"]
                specs.append(("interval", lo, hi))
            elif "categorical" in entry:
                specs.append(
                    ("categorical", {float(k): v for k, v in entry["categorical"].items()})
                )
            else:
                raise DistributionError(f"unknown product entry {entry!r}")
        return ProductPerFeature(specs)
    if "empirical" in obj:
        spec = obj["empirical"]
        if load_dataset_fn is None:
            from .model import load_dataset as load_dataset_fn
        data = load_dataset_fn(spec["dataset"])
        return Empirical(data, spec.get("sigma", 0.0), path=spec["dataset"])
    raise DistributionError("distribution JSON needs uniformBox, product, or empirical")
