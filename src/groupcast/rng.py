"""Portable counter-based random number generator.

Every stochastic component in the package (dataset generation, weight
initialization, task sampling) draws from this generator rather than from
numpy's, so that identical seeds reproduce identical streams bit-for-bit
across runs and platforms.

Algorithm (SplitMix64 in counter form), written out so other
implementations can reproduce the streams exactly:

    gamma = 0x9E3779B97F4A7C15
    raw(seed, i) = mix(seed + (i + 1) * gamma)        # uint64, wrapping
    mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB
        return z ^ (z >> 31)

A stream is (state, counter); draw n values by evaluating raw(state,
counter .. counter+n-1) and advancing the counter. Derived quantities:

    uniform(i)  = (raw(i) >> 11) * 2**-53                  in [0, 1)
    normals     = Box-Muller on uniform pairs (u1, u2):
                  r = sqrt(-2 ln(1 - u1)),
                  z0 = r cos(2 pi u2), z1 = r sin(2 pi u2)
    integer     = min(floor(u * high), high - 1)          in [0, high)
    category    = first i with u * sum(w) < cumsum(w)[i] under
                  weights w >= 0, else the last index
    spawn(key)  = child stream with
                  state' = mix(state + (key + 1) * 0xD1B54A32D192ED03),
                  counter' = 0
"""

import numpy as np

from . import kernels

_SPAWN_GAMMA = np.uint64(0xD1B54A32D192ED03)

_TWO_NEG_53 = float(2.0**-53)


class PortableRng:
    """A deterministic stream addressed by (seed-derived state, counter)."""

    __slots__ = ("state", "counter")

    def __init__(self, seed: int, _state: np.uint64 | None = None):
        if _state is not None:
            self.state = np.uint64(_state)
        else:
            self.state = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0

    def spawn(self, key: int) -> "PortableRng":
        """Independent child stream; does not consume from this stream."""
        with np.errstate(over="ignore"):
            child = kernels.mix64(
                self.state + np.uint64((key + 1) & 0xFFFFFFFFFFFFFFFF) * _SPAWN_GAMMA
            )
        return PortableRng(0, _state=child)

    def raw64(self, n: int) -> np.ndarray:
        out = kernels.mix64_stream(self.state, self.counter, int(n))
        self.counter += int(n)
        return out

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) with 53 random bits each."""
        return (self.raw64(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53

    def normal(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller."""
        pairs = (n + 1) // 2
        u = self.uniform(2 * pairs)
        u1 = u[:pairs]
        u2 = u[pairs:]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        theta = (2.0 * np.pi) * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n]

    def student_t(self, n: int, df: int) -> np.ndarray:
        """n Student-t draws with integer df >= 1 (normal / sqrt(chi2/df))."""
        if df < 1:
            raise ValueError(f"student_t df must be >= 1, got {df}")
        z = self.normal(n)
        chi = self.normal(n * df).reshape(n, df)
        denom = np.sqrt(np.sum(chi * chi, axis=1) / float(df))
        denom = np.maximum(denom, 1e-300)
        return z / denom

    def integers(self, n: int, high: int) -> np.ndarray:
        """n ints uniform in [0, high) via floor(uniform * high)."""
        if high <= 0:
            raise ValueError(f"integers high must be positive, got {high}")
        return uniform_to_int(self.uniform(n), high)


def uniform_to_int(u: np.ndarray, high) -> np.ndarray:
    """Map uniforms to ints in [0, high): floor(u * high), capped at high - 1.

    high may be an array with one bound per uniform; every bound must be
    positive. This is the map ``PortableRng.integers`` applies.
    """
    vals = np.floor(u * high).astype(np.int64)
    return np.minimum(vals, np.asarray(high) - 1)


def uniform_to_category(u: np.ndarray, weights) -> np.ndarray:
    """Map uniforms to categorical indices under nonnegative weights.

    Index i is the first whose running weight sum exceeds u * sum(weights),
    or the last index when rounding leaves none; the weights need not be
    normalized.
    """
    w = np.asarray(weights, dtype=np.float64)
    total = float(w.sum())
    if total <= 0 or np.any(w < 0):
        raise ValueError(f"categorical weights must be nonnegative with a positive sum, got {weights}")
    idx = np.searchsorted(np.cumsum(w), u * total, side="right")
    return np.minimum(idx, w.size - 1)
