"""Deterministic, seedable sampling of exchange-amount distributions.

Draws come from NumPy's PCG64 generator (O'Neill's permuted congruential
generator, period 2^128).  Every (seed, stream_id) pair owns an independent
stream, and stream ids are derived from sub-process / flow names with a
stable hash, so adding or removing one flow never perturbs the draws of any
other flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DistributionError

# parameter names per family, in declaration order
_PARAM_NAMES = {
    "point": ("value",),
    "uniform": ("low", "high"),
    "normal": ("mean", "sd"),
    "triangular": ("low", "mode", "high"),
    "lognormal": ("mu", "sigma"),
}
DISTRIBUTION_KINDS = tuple(_PARAM_NAMES)


@dataclass(frozen=True)
class DistributionSpec:
    """One-dimensional distribution of an uncertain exchange amount.

    kind: "point", "uniform", "normal", "triangular" or "lognormal".
    parameters: family-specific values, see ``_PARAM_NAMES``.  For
    "lognormal", mu and sigma are the mean and standard deviation of the
    underlying normal.
    """

    kind: str
    parameters: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in _PARAM_NAMES:
            raise DistributionError(
                f"unknown distribution kind {self.kind!r}; "
                f"expected one of {', '.join(DISTRIBUTION_KINDS)}"
            )
        names = _PARAM_NAMES[self.kind]
        params = tuple(float(p) for p in self.parameters)
        object.__setattr__(self, "parameters", params)
        if len(params) != len(names):
            raise DistributionError(
                f"{self.kind} takes {len(names)} parameters "
                f"({', '.join(names)}), got {len(params)}"
            )
        if any(not math.isfinite(p) for p in params):
            raise DistributionError(f"{self.kind} parameters must be finite: {params}")
        if self.kind == "uniform":
            low, high = params
            if low > high:
                raise DistributionError(f"uniform requires low <= high, got {low} > {high}")
        elif self.kind == "normal":
            if params[1] <= 0:
                raise DistributionError(f"normal requires sd > 0, got {params[1]}")
        elif self.kind == "triangular":
            low, mode, high = params
            if not (low <= mode <= high):
                raise DistributionError(
                    f"triangular requires low <= mode <= high, got ({low}, {mode}, {high})"
                )
            if low == high:
                # numpy rejects a zero-width triangular; callers should use point
                raise DistributionError("triangular requires low < high; use point instead")
        elif self.kind == "lognormal":
            if params[1] <= 0:
                raise DistributionError(f"lognormal requires sigma > 0, got {params[1]}")

    def mean(self) -> float:
        """Analytic mean of the distribution; the program itself never calls it."""
        p = self.parameters
        if self.kind == "point":
            return p[0]
        if self.kind == "uniform":
            return (p[0] + p[1]) / 2.0
        if self.kind == "normal":
            return p[0]
        if self.kind == "triangular":
            return (p[0] + p[1] + p[2]) / 3.0
        return math.exp(p[0] + p[1] ** 2 / 2.0)


def stable_stream_id(*names: str) -> int:
    """Map a tuple of names to a 64-bit stream id, stable across runs.

    Uses BLAKE2b over the NUL-joined parts; independent of PYTHONHASHSEED.
    """
    import hashlib  # here, so that importing lcengine does not load OpenSSL

    digest = hashlib.blake2b("\x00".join(names).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


@dataclass(frozen=True)
class SamplerStream:
    """Independent random stream identified by (seed, stream_id).

    Equal pairs produce identical sequences.  A stream is a value type:
    every ``sample`` call restarts it, so one spec sampled twice with the
    same stream yields the same numbers.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        # mask the seed so negative seeds are accepted deterministically
        entropy = (int(self.seed) & 0xFFFFFFFFFFFFFFFF, int(self.stream_id) & 0xFFFFFFFFFFFFFFFF)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def stream_for_flow(seed: int, subprocess_name: str, flow_name: str) -> SamplerStream:
    """Stream for one flow's exchange amount."""
    return SamplerStream(seed, stable_stream_id("flow", subprocess_name, flow_name))


def stream_for_subprocess(seed: int, subprocess_name: str) -> SamplerStream:
    """Stream for a sub-process exchange amount (distinct from its flows)."""
    return SamplerStream(seed, stable_stream_id("subprocess", subprocess_name))


def sample(spec: DistributionSpec, n: int, stream: SamplerStream) -> np.ndarray:
    """Draw ``n`` i.i.d. values from ``spec`` on the given stream.

    Deterministic: equal (spec, n, stream) always returns the same array.
    """
    if n < 1:
        raise DistributionError(f"sample size must be >= 1, got {n}")
    p = spec.parameters
    if spec.kind == "point":
        return np.full(n, p[0], dtype=np.float64)
    rng = stream.generator()
    if spec.kind == "uniform":
        if p[0] == p[1]:
            return np.full(n, p[0], dtype=np.float64)
        return rng.uniform(p[0], p[1], size=n)
    if spec.kind == "normal":
        return rng.normal(p[0], p[1], size=n)
    if spec.kind == "triangular":
        return rng.triangular(p[0], p[1], p[2], size=n)
    return rng.lognormal(p[0], p[1], size=n)
