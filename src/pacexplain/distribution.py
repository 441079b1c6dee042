"""Sampling distributions for the statistical verifier.

All distributions draw full feature vectors over R^n; the query region does
not condition the draw, it only classifies points afterwards. Streams are
reproducible: every distribution consumes a numpy Generator (PCG64) in a
fixed per-feature order, so a fixed seed yields a bit-identical sequence.

`sample` draws one point; `sample_block` draws n points as the rows of an
(n, d) array and leaves the stream where n calls of `sample` leave it.
`UniformBox` and `ProductPerFeature` spend exactly one double per feature:
draw i consumes doubles i*d .. i*d+d-1, so one `rng.random((n, d))` call
yields the doubles of n scalar draws in order, and `skip` jumps k draws
ahead with `advance`. `Empirical` spends a varying number of stream values
per draw (`integers`, then ziggurat `normal`), so it draws its blocks one
point at a time and skips by drawing and discarding.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

import numpy as np


class DistributionError(ValueError):
    pass


class Distribution:
    arity: int

    def sample(self, rng: np.random.Generator) -> tuple:
        raise NotImplementedError

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws as the rows of an (n, arity) float array."""
        raise NotImplementedError

    def skip(self, rng: np.random.Generator, k: int):
        """Move `rng` past k draws, to where k calls of `sample` leave it.

        Assumes one double per feature and draw; a distribution that draws
        otherwise overrides it.
        """
        if isinstance(rng.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
            # one 64-bit step per double
            rng.bit_generator.advance(k * self.arity)
        else:
            rng.random(k * self.arity)

    def point(self, row: np.ndarray) -> tuple:
        """One row of a block as the tuple `sample` would have returned."""
        return tuple(row.tolist())

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

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self._lo + rng.random((n, self.arity)) * self._span

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
        # per categorical column: the running sums `sample` compares against,
        # the values, and each value's own float object for `point`
        self._categorical = [
            (j, np.array(list(accumulate(spec[2]))), np.array(spec[1]), {v: v for v in spec[1]})
            for j, spec in enumerate(self.specs)
            if spec[0] == "categorical"
        ]

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

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        X = rng.random((n, self.arity))
        for j, spec in enumerate(self.specs):
            if spec[0] == "interval":
                _, lo, hi = spec
                X[:, j] = lo + X[:, j] * (hi - lo)
        for j, cum, values, _ in self._categorical:
            # first value whose running sum exceeds u; a u past a sum that
            # falls short of 1 takes the last value, as in `sample`
            k = np.searchsorted(cum, X[:, j], side="right")
            X[:, j] = values[np.minimum(k, len(values) - 1)]
        return X

    def point(self, row: np.ndarray) -> tuple:
        # share the categorical value objects, as `sample` does
        x = row.tolist()
        for j, _, _, own in self._categorical:
            x[j] = own[x[j]]
        return tuple(x)

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

    # The scalar loops below are the block layout: a draw's stream use
    # varies, so no array call reproduces n draws of `sample`.
    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        X = np.empty((n, self.arity))
        for i in range(n):
            X[i] = self.sample(rng)
        return X

    def skip(self, rng: np.random.Generator, k: int):
        for _ in range(k):
            self.sample(rng)

    def to_json(self) -> dict:
        if self.path is None:
            raise DistributionError(
                "empirical distribution built without a dataset path cannot be serialized"
            )
        return {"empirical": {"dataset": self.path, "sigma": self.sigma}}


def uniform_box(arity: int) -> UniformBox:
    return UniformBox([0.0] * arity, [1.0] * arity)


# ProductPerFeature keeps float keys as they are, so every distribution built
# from this dict draws the same two value objects, and the points of many
# runs share them
_FAIR_BOOLEAN = ("categorical", {0.0: 0.5, 1.0: 0.5})


def uniform_boolean(arity: int) -> ProductPerFeature:
    return ProductPerFeature([_FAIR_BOOLEAN] * arity)


def default_distribution(kinds: Sequence[str]) -> Distribution:
    """Uniform {0,1} per boolean feature, uniform [0,1] otherwise."""
    specs = []
    for kind in kinds:
        if kind == "bool":
            specs.append(_FAIR_BOOLEAN)
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
