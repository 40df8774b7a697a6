"""Deterministic numerical primitives.

Distribution functions (chi-squared survival, Gaussian quantile), the lower
empirical quantile convention used throughout the package, and a reproducible
random source with derivable child streams.

``chi2_sf`` and ``gaussian_quantile`` are validated calls to scipy's
``chdtrc`` and ``ndtri``. ``RandomSource.normal`` draws through the quantile,
so a change of routine moves every simulated dataset: the switch to ``ndtri``
from a rational approximation with a Newton step moved draws by at most
8.6e-11. The test suite checks both against independent oracles: 1e-10
absolute for ``chi2_sf`` (x <= 200, k <= 100) and 1e-8 absolute for
``gaussian_quantile``.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import chdtrc, ndtri

__all__ = [
    "chi2_sf",
    "gaussian_quantile",
    "empirical_quantiles",
    "RandomSource",
]


# ---------------------------------------------------------------------------
# chi-squared survival function
# ---------------------------------------------------------------------------


def chi2_sf(x, k):
    """Upper-tail probability P(chi2_k > x), from ``scipy.special.chdtrc``.

    Accepts scalars (returning a float) or arrays that broadcast together,
    such as the p-values of a stack of splits; ``k`` is truncated to an
    integer.

    Raises:
        ValueError: unless every ``x >= 0`` and every ``k`` is finite and at
            least 1 (a NaN fails both), naming the first bad value.
    """
    xs = np.asarray(x, dtype=float)
    bad = ~(xs >= 0.0)
    if bad.any():
        raise ValueError(f"chi2_sf requires x >= 0, got {xs[bad].flat[0]}")
    kf = np.asarray(k, dtype=float)
    bad = ~(kf >= 1.0) | (kf == np.inf)
    if bad.any():
        raise ValueError(f"chi2_sf requires a finite k >= 1, got {kf[bad].flat[0]}")
    out = chdtrc(kf.astype(int), xs)  # exactly 1.0 at x = 0
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Gaussian quantile
# ---------------------------------------------------------------------------


def gaussian_quantile(p):
    """Inverse standard normal CDF, from ``scipy.special.ndtri``.

    Accepts scalars (returning a float) or arrays.

    Raises:
        ValueError: unless every input is finite and strictly inside (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("gaussian_quantile requires probabilities strictly in (0, 1)")
    out = ndtri(arr)
    return float(out) if arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Empirical quantiles (lower convention, fixed package-wide)
# ---------------------------------------------------------------------------


def empirical_quantiles(values, probs) -> np.ndarray:
    """Lower empirical quantiles of a sample.

    ``quantile(p)`` is the smallest sample value v such that at least a
    fraction p of the sample is <= v, i.e. ``sorted[ceil(n*p) - 1]``.

    Raises:
        ValueError: on an empty sample or probes outside (0, 1).
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise ValueError("empirical_quantiles requires a non-empty sample")
    ps = np.atleast_1d(np.asarray(probs, dtype=float))
    if np.any(ps <= 0.0) or np.any(ps >= 1.0):
        raise ValueError("probe probabilities must lie strictly in (0, 1)")
    srt = np.sort(v)
    return srt[_lower_quantile_index(srt.size, ps)]


def _lower_quantile_index(n: int, probs: np.ndarray) -> np.ndarray:
    """Positions in a sorted sample of size n of its lower ``probs`` quantiles."""
    # The small slack guards against 0.25 * 100 evaluating to 25.000000000000004.
    idx = np.ceil(n * probs - 1e-9).astype(int) - 1
    return np.minimum(np.maximum(idx, 0), n - 1)


# ---------------------------------------------------------------------------
# Random source
# ---------------------------------------------------------------------------


class RandomSource:
    """Reproducible random stream with derivable child streams.

    The raw bit stream is numpy's PCG64 seeded through ``SeedSequence``, which
    is stable across platforms and runs for a fixed seed. Distributional draws
    are built on that stream inside this class: uniforms are affine transforms
    of the raw stream, Gaussians are inverse-CDF transforms (``gaussian_quantile``),
    chi-squared variates are sums of squared Gaussians, and Bernoulli draws are
    threshold tests. Child streams are derived from (seed, label) so that e.g.
    replication r / split s can be reproduced in isolation.

    A RandomSource is single-owner: concurrent users must each hold their own
    child stream.
    """

    __slots__ = ("seed", "_key", "_bits")

    def __init__(self, seed: int, _key: tuple = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self._key = tuple(int(w) for w in _key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self._key)
        self._bits = np.random.Generator(np.random.PCG64(ss))

    def child(self, label) -> "RandomSource":
        """Derive an independent stream identified by (seed, path, label)."""
        digest = hashlib.blake2b(repr(label).encode("utf-8"), digest_size=8).digest()
        word = int.from_bytes(digest, "big")
        return RandomSource(self.seed, self._key + (word >> 32, word & 0xFFFFFFFF))

    # -- draws --------------------------------------------------------------

    def random(self, size=None):
        """Raw uniforms on [0, 1)."""
        return self._bits.random(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return low + (high - low) * self._bits.random(size)

    def normal(self, mean: float = 0.0, sd: float = 1.0, size=None):
        u = np.maximum(self._bits.random(size), 1e-300)
        return mean + sd * gaussian_quantile(u)

    def chisquare(self, df: int, size=None):
        df = int(df)
        if df < 1:
            raise ValueError("df must be a positive integer")
        shape = (df,) if size is None else (df,) + tuple(np.atleast_1d(size))
        z = self.normal(size=shape)
        total = np.sum(z * z, axis=0)
        return float(total) if size is None else total

    def bernoulli(self, p, size=None):
        draws = self._bits.random(size) < np.asarray(p, dtype=float)
        return int(draws) if size is None else draws.astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        return self._bits.permutation(int(n))
