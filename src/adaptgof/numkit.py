"""Deterministic numerical primitives.

Distribution functions (chi-squared survival, Gaussian quantile), the lower
empirical quantile convention used throughout the package, and a reproducible
random source with derivable child streams.

Both distribution functions are numpy code, so the package imports no scipy.
``gaussian_quantile`` is a port of Cephes ``ndtri`` (the routine behind
``scipy.special.ndtri``) that keeps its coefficients, branches and order of
operations and takes the logarithms of its tail branch from libm through
``math.log``: it equals ``ndtri`` bit for bit, so the simulated data, which
``RandomSource.normal`` draws through it, is the same as with scipy. ``chi2_sf``
sums the finite series of the chi-squared tail at integer degrees of freedom
(Abramowitz & Stegun 26.4.4-26.4.5), each term in log space: for k <= 1000
and x <= 3000 it is within 1e-12 relative of ``scipy.special.chdtrc``, and
within 2e-13 of the exact tail where ``chdtrc`` is within 8e-13. The test
suite checks both against scipy and against independent series oracles.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = [
    "chi2_sf",
    "gaussian_quantile",
    "empirical_quantiles",
    "RandomSource",
]


# ---------------------------------------------------------------------------
# chi-squared survival function
# ---------------------------------------------------------------------------

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# Stirling's error at a = 1/2, 1, ..., 15, below which its series is not used
_STIRLING_TABLE = np.array([math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _HALF_LOG_2PI
                            for a in (i / 2.0 for i in range(1, 31))])
# Terms summed on each side of the largest: with 10 sqrt(min(h, k/2)) + 25 of
# them the tail equalled the sum of all its terms in 3,000 random cases up to
# k = 20,000.
_SPREAD, _SPREAD_MIN = 10.0, 25
_ABOVE_MINUS_ONE = np.nextafter(-1.0, 0.0)


def _stirling_error(a: np.ndarray) -> np.ndarray:
    """lgamma(a + 1) - (a + 1/2) log a + a - log sqrt(2 pi) at half-integers a >= 1/2."""
    a2 = a * a
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / a2) / a2) / a2) / a2) / a
    table = _STIRLING_TABLE[np.minimum(2.0 * a, 30.0).astype(np.int64) - 1]
    return np.where(a <= 15.0, table, series)


def _poisson_log_pmf(a: np.ndarray, h: np.ndarray) -> np.ndarray:
    """log(h^a e^-h / Gamma(a + 1)) for half-integers a >= 1/2 and h > 0.

    In Loader's saddle-point form, -(a log(a/h) + h - a) - stirling(a) -
    log sqrt(2 pi a), with the deviance written as a log1p(d/h) - d for
    d = a - h: no large terms cancel, so the absolute error is a few ulps of
    |d| and of the result rather than of a log h or lgamma(a + 1).
    """
    d = a - h
    # d/h overflows only at h below 1e-308, where the term is below 1e-154
    # and the tail, at least e^-h or erfc(sqrt h), is 1 to double precision.
    # It rounds to -1 only where a < 1.2e-16 h, and h > 4e15 puts the term at 0.
    with np.errstate(over="ignore"):
        ratio = np.maximum(d / h, _ABOVE_MINUS_ONE)
    deviance = a * np.log1p(ratio) - d
    return -deviance - _stirling_error(a) - _HALF_LOG_2PI - 0.5 * np.log(a)


def chi2_sf(x, k):
    """Upper-tail probability P(chi2_k > x) at integer degrees of freedom.

    With h = x/2, the tail is a head term plus the terms h^a e^-h / Gamma(a + 1)
    for a = 1, 2, ..., k/2 - 1 and head e^-h at even k, and for a = 1/2,
    3/2, ..., k/2 - 1 and head erfc(sqrt h) at odd k. Each term is evaluated
    in log space (``_poisson_log_pmf``), so the tail is right where e^-h
    underflows and the tail does not. Only the terms within
    10 sqrt(min(h, k/2)) + 25 of the largest (at a = h, or at the last term
    when that comes first) are summed: O(sqrt k) terms per value, so k = 1e7
    takes about a millisecond.
    The sum is clamped to [0, 1], and x = 0 gives exactly 1.0, the head.

    Accuracy, against 40-digit arithmetic: within 2e-13 relative for
    k <= 1000 and x <= 3000 (1,500 random points). Beyond, the rounding of
    the terms' exponents grows with the distance between the summed terms
    and h: about 1.3e-13 at k = 1e4 and 1e5, 5e-13 at k = 1e6 and 1.3e-12 at
    k = 1e7, the largest errors in tails near 1e-295.

    Accepts scalars (returning a float) or arrays that broadcast together,
    such as the p-values of all splits of a test; ``k`` is truncated to an
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
    xs, kf = np.broadcast_arrays(xs, kf)
    h = xs.ravel() / 2.0
    ks = kf.ravel().astype(np.int64)
    odd = ks % 2 == 1
    head = np.exp(-h)
    head[odd] = np.fromiter(map(math.erfc, np.sqrt(h[odd]).tolist()), float, np.count_nonzero(odd))
    # term j of a value has a = first + j, for j < (k - 1) // 2; sum those
    # from lo on, none where h is 0 or infinite and the head is the tail
    first = np.where(odd, 0.5, 1.0)
    last = (ks - 1) // 2 - 1
    peak = np.maximum(np.minimum(np.floor(h - first), last), 0.0)
    spread = np.ceil(_SPREAD * np.sqrt(np.minimum(h, ks / 2.0)) + _SPREAD_MIN)
    lo = np.maximum(peak - spread, 0.0)
    count = (np.minimum(peak + spread, last) - lo + 1.0).astype(np.int64)
    count *= (h > 0.0) & (h < np.inf)
    owner = np.repeat(np.arange(h.size), count)
    a = (first + lo - np.cumsum(count) + count)[owner] + np.arange(owner.size)
    terms = np.exp(_poisson_log_pmf(a, h[owner]))
    out = np.minimum(head + np.bincount(owner, weights=terms, minlength=h.size), 1.0)
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


# ---------------------------------------------------------------------------
# Gaussian quantile
# ---------------------------------------------------------------------------

# Cephes ndtri: sqrt(2 pi), and rational approximations for |p - 1/2| <= 3/8
# (P0/Q0) and, in z = sqrt(-2 log p), for 2 <= z < 8 (P1/Q1) and z >= 8
# (P2/Q2). The Q's leading coefficient 1 is implied.
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes polevl: the polynomial with coefficients ``coef`` (highest first), by Horner."""
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes p1evl: ``_polevl`` with a leading coefficient 1 that ``coef`` leaves out."""
    out = x + coef[0]
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _libm_log(v: np.ndarray) -> np.ndarray:
    """Natural log of each entry through libm, as Cephes takes it.

    numpy's vectorised log can differ from libm's in the last bit: through it,
    236 of 4,000,000 seeded uniforms gave a different Gaussian draw.
    """
    return np.fromiter(map(math.log, v.tolist()), float, v.size)


def gaussian_quantile(p):
    """Inverse standard normal CDF: Cephes ``ndtri``, bit for bit.

    For exp(-2) < p <= 1 - exp(-2), a rational function of (p - 1/2)^2;
    otherwise x = sqrt(-2 log q) for q the smaller tail and x - log(x)/x
    minus a rational function of 1/x, with one set of coefficients below
    x = 8 and another above.

    Accepts scalars (returning a float) or arrays.

    Raises:
        ValueError: unless every input is finite and strictly inside (0, 1).
    """
    arr = np.asarray(p, dtype=float)
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise ValueError("gaussian_quantile requires probabilities strictly in (0, 1)")
    p0 = arr.ravel()
    upper = p0 > 1.0 - _EXP_M2
    q = np.where(upper, 1.0 - p0, p0)
    out = np.empty_like(q)
    centre = q > _EXP_M2
    v = q[centre] - 0.5
    v2 = v * v
    out[centre] = (v + v * (v2 * _polevl(v2, _P0) / _p1evl(v2, _Q0))) * _S2PI
    tail = ~centre
    x = np.sqrt(-2.0 * _libm_log(q[tail]))
    x0 = x - _libm_log(x) / x
    z = 1.0 / x
    near = x < 8.0
    x1 = np.empty_like(x)
    zn, zf = z[near], z[~near]
    x1[near] = zn * _polevl(zn, _P1) / _p1evl(zn, _Q1)
    x1[~near] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x = x0 - x1
    out[tail] = np.where(upper[tail], x, -x)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


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
