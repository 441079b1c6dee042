"""Sampling distributions for the statistical verifier.

All distributions draw full feature vectors over R^n; the query region does
not condition the draw, it only classifies points afterwards. Streams are
reproducible: every distribution consumes a numpy Generator (PCG64) in a
fixed per-feature order, so a fixed seed yields a bit-identical sequence.

`sample` draws one point; `sample_block` draws n points as the rows of an
(n, d) array and leaves the stream where n calls of `sample` leave it.
`ProductPerFeature`, and `UniformBox`, its product of intervals, spend
exactly one double per feature: draw i consumes doubles i*d .. i*d+d-1, so
one `rng.random((n, d))` call yields the doubles of n scalar draws in
order. A [0, 1] interval keeps its doubles as drawn. A block maps a
categorical spec's doubles to values by compares against its running
sums; a spec over exactly 0.0 and 1.0 takes one in-place compare. A noisy `Empirical` draw spends a varying number of
stream values (`integers`, then ziggurat `normal`), so such a block makes
those two calls per row, then indexes the rows and adds and clamps the
noise once; a quiet one (σ = 0, or no real feature) spends one `integers`
value, so its block is one `integers` call.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .query import _finite_number


class DistributionError(ValueError):
    pass


class Distribution:
    arity: int

    def sample(self, rng: np.random.Generator) -> tuple:
        raise NotImplementedError

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws as the rows of an (n, arity) float array."""
        raise NotImplementedError

    def point(self, row: np.ndarray) -> tuple:
        """One row of a block as the tuple `sample` would have returned."""
        return tuple(row.tolist())

    def to_json(self) -> dict:
        raise NotImplementedError


def _categorical(k: int, weights: dict) -> tuple:
    """("categorical", values, probs) with each weight kept beside its value
    and the values sorted ascending as floats."""
    if not isinstance(weights, dict) or not weights:
        raise DistributionError(f"feature {k}: categorical needs a non-empty object")
    if not all(map(_finite_number, weights.values())):
        raise DistributionError(f"feature {k}: categorical weights must be finite numbers")
    total = float(sum(weights.values()))
    if total <= 0 or any(w < 0 for w in weights.values()):
        raise DistributionError(f"feature {k}: bad categorical weights")
    try:
        # float() returns a float key itself, so value objects stay shared
        pairs = sorted(((float(v), w) for v, w in weights.items()), key=lambda p: p[0])
    except (TypeError, ValueError):
        raise DistributionError(f"feature {k}: categorical values must be numbers")
    values = [v for v, _ in pairs]
    if not all(map(_finite_number, values)):
        raise DistributionError(f"feature {k}: categorical values must be finite")
    for a, b in zip(values, values[1:]):
        if a == b:
            raise DistributionError(f"feature {k}: two categorical keys name the value {a!r}")
    return ("categorical", values, [float(w) / total for _, w in pairs])


_ZERO_ONE = np.array([0.0, 1.0]).tobytes()


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
                if not (_finite_number(lo) and _finite_number(hi) and lo <= hi):
                    raise DistributionError(
                        f"feature {k}: interval needs finite numbers lo <= hi"
                    )
                self.specs.append(("interval", float(lo), float(hi)))
            elif kind == "categorical":
                self.specs.append(_categorical(k, spec[1]))
            else:
                raise DistributionError(f"feature {k}: unknown spec kind {kind!r}")
        self.arity = len(self.specs)
        # Columns with identical specs are drawn together: the intervals by
        # one `lo + u * span`, each distinct categorical spec by one pass of
        # compares against its running sums. A [0, 1] column is its u as
        # drawn, since 0.0 + u * 1.0 == u, and takes no arithmetic.
        intervals = [
            j for j, spec in enumerate(self.specs)
            if spec[0] == "interval" and spec[1:] != (0.0, 1.0)
        ]
        self._intervals = (
            self._columns(intervals),
            np.array([self.specs[j][1] for j in intervals]),
            np.array([self.specs[j][2] - self.specs[j][1] for j in intervals]),
        )
        groups = {}
        for j, spec in enumerate(self.specs):
            if spec[0] == "categorical":
                values = np.array(spec[1])
                # a u at or past the first L-1 running sums takes the next
                # value; the last sum is never compared, so a u past a sum
                # that falls short of 1 takes the last value, as in `sample`
                cuts = np.array(list(accumulate(spec[2]))[:-1])
                key = (values.tobytes(), cuts.tobytes())
                groups.setdefault(key, (values, cuts, []))[2].append(j)
        # a group over exactly the values 0.0 and 1.0 (by bytes, so a -0.0
        # key keeps the index) is drawn by one compare with its one cut
        self._categorical = [
            (self._columns(cols), cuts, None if values.tobytes() == _ZERO_ONE else values)
            for values, cuts, cols in groups.values()
        ]
        # each categorical column's own value objects, for `point`
        self._own = [
            (j, {v: v for v in spec[1]})
            for j, spec in enumerate(self.specs)
            if spec[0] == "categorical"
        ]

    def _columns(self, cols: list):
        """Index of a column group: a slice, a view of the block, when the
        group is every column."""
        return slice(None) if len(cols) == self.arity else np.array(cols, dtype=np.intp)

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
        cols, lo, span = self._intervals
        if len(lo):
            X[:, cols] = lo + X[:, cols] * span
        for cols, cuts, values in self._categorical:
            U = X[:, cols]  # a view of X when the group is every column, else a copy
            if values is None:
                np.greater_equal(U, cuts[0], out=U, casting="unsafe")
            else:
                index = np.zeros(U.shape, dtype=np.intp)
                for cut in cuts:
                    index += U >= cut
                # every index is in range; mode "raise" would copy `out` via a buffer
                np.take(values, index, out=U, mode="wrap")
            if U.base is not X:
                X[:, cols] = U
        return X

    def point(self, row: np.ndarray) -> tuple:
        # share the categorical value objects, as `sample` does
        x = row.tolist()
        for j, own in self._own:
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


class UniformBox(ProductPerFeature):
    """The product of the intervals [lo[j], hi[j]]."""

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        if not all(
            isinstance(b, (list, tuple)) and all(map(_finite_number, b)) for b in (lo, hi)
        ):
            raise DistributionError("lo and hi must be lists of finite numbers")
        self.lo = tuple(float(v) for v in lo)
        self.hi = tuple(float(v) for v in hi)
        if len(self.lo) != len(self.hi):
            raise DistributionError("lo and hi lengths differ")
        super().__init__([("interval", l, h) for l, h in zip(self.lo, self.hi)])

    def to_json(self) -> dict:
        return {"uniformBox": {"lo": list(self.lo), "hi": list(self.hi)}}


class Empirical(Distribution):
    """Dataset rows plus Gaussian noise on real features, clamped to [0, 1].

    Boolean features are never perturbed. Clamping (not rejection) keeps the
    per-sample draw count fixed, which keeps streams reproducible. Without
    noise a block is one `integers` call and one index into the stacked
    rows.
    """

    def __init__(self, dataset, sigma: float, path: Optional[str] = None):
        if not (_finite_number(sigma) and sigma >= 0):
            raise DistributionError("sigma must be a finite number >= 0")
        if not dataset.rows:
            raise DistributionError("empirical distribution needs a non-empty dataset")
        self.dataset = dataset
        self.sigma = float(sigma)
        self.path = path
        self.arity = dataset.arity
        self._real_idx = [j for j, kind in enumerate(dataset.kinds) if kind != "bool"]
        self._points = np.array([x for x, _ in dataset.rows], dtype=float)
        self._noisy = self.sigma > 0 and bool(self._real_idx)

    def sample(self, rng: np.random.Generator) -> tuple:
        k = int(rng.integers(len(self._points)))
        x = self._points[k].copy()
        if self._noisy:
            noise = rng.normal(0.0, self.sigma, size=len(self._real_idx))
            for j, nz in zip(self._real_idx, noise):
                x[j] = min(1.0, max(0.0, x[j] + nz))
        return tuple(x.tolist())

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # a quiet draw is one `integers` call, and n of them consume the
        # stream as one call of size n does; a noisy draw's stream use
        # varies, so no array call reproduces n of them, and each row makes
        # its own two calls
        if not self._noisy:
            return self._points[rng.integers(len(self._points), size=n)]
        rows = np.empty(n, dtype=np.intp)
        noise = np.empty((n, len(self._real_idx)))
        for i in range(n):
            rows[i] = rng.integers(len(self._points))
            noise[i] = rng.normal(0.0, self.sigma, size=len(self._real_idx))
        X = self._points[rows]
        v = X[:, self._real_idx] + noise
        # min(1.0, max(0.0, v)) as `sample` clamps: a NaN or a -0.0 becomes 0.0
        v = np.where(v > 0.0, v, 0.0)
        X[:, self._real_idx] = np.where(v < 1.0, v, 1.0)
        return X

    def to_json(self) -> dict:
        if self.path is None:
            raise DistributionError(
                "empirical distribution built without a dataset path cannot be serialized"
            )
        return {"empirical": {"dataset": self.path, "sigma": self.sigma}}


# ProductPerFeature keeps float keys as they are, so every distribution built
# from this dict draws the same two value objects, and the points of many
# runs share them
_FAIR_BOOLEAN = ("categorical", {0.0: 0.5, 1.0: 0.5})


def default_distribution(kinds: Sequence[str]) -> Distribution:
    """Uniform {0,1} per boolean feature, uniform [0,1] otherwise."""
    specs = []
    for kind in kinds:
        if kind == "bool":
            specs.append(_FAIR_BOOLEAN)
        else:
            specs.append(("interval", 0.0, 1.0))
    return ProductPerFeature(specs)


def distribution_from_json(obj: dict) -> Distribution:
    if not isinstance(obj, dict):
        raise DistributionError("distribution JSON must be an object")
    if "uniformBox" in obj:
        spec = obj["uniformBox"]
        if not isinstance(spec, dict) or "lo" not in spec or "hi" not in spec:
            raise DistributionError("uniformBox needs 'lo' and 'hi'")
        return UniformBox(spec["lo"], spec["hi"])
    if "product" in obj:
        if not isinstance(obj["product"], list):
            raise DistributionError("product needs a list of per-feature entries")
        specs = []
        for entry in obj["product"]:
            if not isinstance(entry, dict):
                raise DistributionError(f"unknown product entry {entry!r}")
            if "interval" in entry:
                bounds = entry["interval"]
                if not isinstance(bounds, list) or len(bounds) != 2:
                    raise DistributionError(f"interval needs [lo, hi], got {bounds!r}")
                specs.append(("interval", *bounds))
            elif "categorical" in entry:
                # keys stay text here, so two that name one value raise
                specs.append(("categorical", entry["categorical"]))
            else:
                raise DistributionError(f"unknown product entry {entry!r}")
        return ProductPerFeature(specs)
    if "empirical" in obj:
        spec = obj["empirical"]
        if not isinstance(spec, dict) or not isinstance(spec.get("dataset"), str):
            raise DistributionError("empirical needs a 'dataset' path")
        from .model import load_dataset

        data = load_dataset(spec["dataset"])
        return Empirical(data, spec.get("sigma", 0.0), path=spec["dataset"])
    raise DistributionError("distribution JSON needs uniformBox, product, or empirical")
