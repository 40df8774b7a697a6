"""Fixed reference kernels used to express timings in reference seconds.

The host's effective speed drifts by tens of percent over minutes, and CPU
time drifts with it, so raw seconds of one run are not comparable with raw
seconds of the next. Each kernel below does a fixed amount of the kind of
work a workload does and never imports ``adaptgof``, so a change to the
package cannot change it. Timing a kernel next to every stretch of units and
scaling the units by (nominal ÷ measured) cancels much of the drift.

Small and large arrays slow down differently when the host is busy, so each
workload is scaled by the kernel that matches its array sizes:

* ``small``: IRLS fits, cut scans and bincount group sums on 1,500 rows with
  Python loops over numpy scalars, like the n=500 experiment (and imports);
* ``large``: argsort/cumsum cut scans and IRLS steps on 18,000-row columns
  that allocate large temporaries, like a split of the 20,000-row CSV.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20191107)
_X = np.column_stack([np.ones(1500), _RNG.normal(size=(1500, 5))])
_BETA = np.array([-0.3, 0.5, -0.4, 0.3, 0.2, 0.1])
_Y = (_RNG.random(1500) < 1.0 / (1.0 + np.exp(-(_X @ _BETA)))).astype(float)
_COLS = _RNG.random((4, 18000))
_COL_Y = (_RNG.random(18000) < 0.4).astype(float)
_BIG_X = np.column_stack([np.ones(18000), _RNG.normal(size=(18000, 7))])


def small_kernel() -> float:
    """One pass of small-array work; returns a checksum so nothing is skipped."""
    acc = 0.0
    idx = np.arange(_Y.size)
    for rep in range(4):
        beta = np.zeros(_X.shape[1])
        for _ in range(6):
            p = 1.0 / (1.0 + np.exp(-(_X @ beta)))
            info = _X.T @ (_X * (p * (1.0 - p))[:, None])
            beta = beta + np.linalg.solve(info, _X.T @ (_Y - p))
        p = np.clip(1.0 / (1.0 + np.exp(-(_X @ beta))), 1e-10, 1.0 - 1e-10)
        r, v = _Y - p, p * (1.0 - p)
        for depth in range(4):
            sub = idx[idx % (depth + 2) != rep % (depth + 2)]
            for j in range(1, _X.shape[1]):
                order = np.argsort(_X[sub, j], kind="stable")
                srt = _X[sub, j][order]
                cr, cv = np.cumsum(r[sub][order]), np.cumsum(v[sub][order])
                for q in range(1, 10):
                    i = int(np.searchsorted(srt, srt[q * srt.size // 10], side="right")) - 1
                    acc += cr[i] ** 2 / cv[i] + (cr[-1] - cr[i]) ** 2 / (cv[-1] - cv[i])
        g = np.searchsorted(np.quantile(p, [0.2, 0.4, 0.6, 0.8]), p)
        acc += float(np.sum(np.bincount(g, weights=r) ** 2 / np.bincount(g, weights=v)))
    return acc


def large_kernel() -> float:
    """One pass of large-array work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for j in range(4):
        rows = np.flatnonzero(_COLS[(j + 1) % 4] < 0.9)
        col = _COLS[j][rows]
        order = np.argsort(col, kind="stable")
        srt, cum = col[order], np.cumsum(_COL_Y[rows][order])
        for q in range(1, 10):
            i = int(np.searchsorted(srt, q / 10, side="right")) - 1
            acc += cum[i] ** 2 / (i + 1)
    beta = np.zeros(_BIG_X.shape[1])
    for _ in range(3):
        p = np.clip(1.0 / (1.0 + np.exp(-(_BIG_X @ beta))), 1e-10, 1.0 - 1e-10)
        info = _BIG_X.T @ (_BIG_X * (p * (1.0 - p))[:, None])
        beta = beta + np.linalg.solve(info, _BIG_X.T @ (_COL_Y - p))
    return acc + float(beta[0])


KERNELS = {"small": small_kernel, "large": large_kernel}


def reference_block(kernel: str, seconds: float = 0.3, min_runs: int = 5) -> float:
    """Median raw seconds of one kernel over a block of about ``seconds``."""
    run = KERNELS[kernel]
    times = []
    end = time.perf_counter() + seconds
    while len(times) < min_runs or time.perf_counter() < end:
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
