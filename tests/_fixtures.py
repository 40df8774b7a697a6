"""Shipped numeric fixtures and independent oracle implementations.

The oracles here deliberately re-derive every quantity from scratch (direct
summation loops, alternative series, half-step Richardson differences) so the
library code paths they check are never exercised to produce the expected
values.
"""

import math
from collections import Counter, deque

import numpy as np
from scipy.linalg import lapack, solve_triangular

from adaptgof.glm import FittedGlm, RankDeficiencyError, SingleClassError
from adaptgof.partition import (
    AxisRule,
    Group,
    InfeasiblePartitionError,
    MissingColumnError,
    Partition,
    grouped_chi2,
)

# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

# 20-row logistic fixture: x drawn once from a fixed spread, y chosen by hand
# with an increasing trend so the MLE is interior and well conditioned.
LOGIT20_X = np.array([
    -2.9, -2.5, -2.2, -1.8, -1.4, -1.1, -0.8, -0.5, -0.2, 0.1,
    0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 2.2, 2.5, 2.8, 3.1,
])
LOGIT20_Y = np.array([0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1])

# 10 rows with distinct fitted probabilities for the quantile-binned test.
HL10_PHAT = np.array([0.08, 0.15, 0.22, 0.31, 0.40, 0.52, 0.61, 0.73, 0.84, 0.93])
HL10_Y = np.array([0, 0, 1, 0, 1, 0, 1, 1, 1, 1])

# 12 training rows in 3 groups for the partition criterion.
CRIT12_Y = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1])
CRIT12_PHAT = np.array([0.62, 0.35, 0.71, 0.55, 0.28, 0.44, 0.66, 0.31, 0.58, 0.49, 0.39, 0.77])
CRIT12_GROUPS = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2])

# 30 test rows in 3 groups for the held-out statistic.
_rng = np.random.default_rng(1234)
BAG30_PHAT = np.round(_rng.uniform(0.1, 0.9, size=30), 3)
BAG30_Y = (_rng.random(30) < BAG30_PHAT).astype(int)
BAG30_GROUPS = np.repeat([0, 1, 2], 10)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def hl_oracle(y, phat, bounds):
    """Direct re-summation of the quantile-binned statistic.

    ``bounds`` are the interval boundaries; interval j is [b_{j-1}, b_j) with
    the first interval starting at 0 and the last closed at 1.
    """
    y = list(map(float, y))
    p = list(map(float, phat))
    k = len(bounds) + 1
    total = 0.0
    for g in range(k):
        lo = -math.inf if g == 0 else bounds[g - 1]
        hi = math.inf if g == k - 1 else bounds[g]
        members = [i for i in range(len(p)) if (p[i] >= lo) and (p[i] < hi)]
        if not members:
            continue
        n_g = len(members)
        mean_p = sum(p[i] for i in members) / n_g
        resid = sum(y[i] - p[i] for i in members)
        total += resid * resid / (n_g * mean_p * (1.0 - mean_p))
    return total


def grouped_chi2_oracle(y, phat, groups):
    """Direct re-summation of the grouped statistic, one python loop per group."""
    total = 0.0
    for g in sorted(set(int(v) for v in groups)):
        num = 0.0
        den = 0.0
        any_row = False
        for yi, pi, gi in zip(y, phat, groups):
            if int(gi) == g:
                any_row = True
                num += float(yi) - float(pi)
                den += float(pi) * (1.0 - float(pi))
        if any_row:
            total += num * num / den
    return total


def richardson_gradient_oracle(f, beta, base_h=1e-5):
    """Half-step Richardson-refined central differences of a scalar function."""
    beta = np.asarray(beta, dtype=float)
    grad = np.empty_like(beta)
    for j in range(beta.size):
        h = base_h * (1.0 + abs(beta[j]))
        def diff(step):
            bp = beta.copy()
            bm = beta.copy()
            bp[j] += step
            bm[j] -= step
            return (f(bp) - f(bm)) / (2.0 * step)
        d1 = diff(h)
        d2 = diff(h / 2.0)
        grad[j] = (4.0 * d2 - d1) / 3.0
    return grad


def lower_gamma_series_oracle(a, x, terms=2000):
    """Lower regularized incomplete gamma via the Kummer-style series
    P(a, x) = x^a e^-x * sum_n x^n / Gamma(a + n + 1)."""
    if x <= 0:
        return 0.0
    log_prefix = a * math.log(x) - x
    total = 0.0
    for n in range(terms):
        term = math.exp(log_prefix + n * math.log(x) - math.lgamma(a + n + 1.0))
        total += term
        if term < total * 1e-17 and n > 2:
            break
    return total


def chi2_sf_oracle(x, k):
    return 1.0 - lower_gamma_series_oracle(k / 2.0, x / 2.0)


def erf_series_oracle(x, terms=500):
    """Error function by its Maclaurin series (adequate for |x| <= 5)."""
    term = float(x)
    total = 0.0
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -x * x / (n + 1)
        if abs(term) < 1e-18:
            break
    return 2.0 / math.sqrt(math.pi) * total


def gaussian_cdf_oracle(x):
    return 0.5 * (1.0 + erf_series_oracle(x / math.sqrt(2.0)))


def bisect(f, lo, hi, tol=1e-12, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(hi - lo) < tol:
            return mid
        if (flo <= 0) == (fm <= 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def logistic_loglik_oracle(x, y, beta):
    """Log-likelihood by direct summation (no clamping, stable form)."""
    total = 0.0
    for xi, yi in zip(x, y):
        eta = float(np.dot(xi, beta))
        total += yi * eta - math.log1p(math.exp(-abs(eta))) - max(eta, 0.0)
    return total


def grid_search_mle_oracle(x, y, spans, rounds=6, points=41):
    """Coarse-to-fine grid search for a 2-parameter logistic MLE."""
    centers = [0.0, 0.0]
    widths = [spans[0], spans[1]]
    best = None
    for _ in range(rounds):
        b0s = np.linspace(centers[0] - widths[0], centers[0] + widths[0], points)
        b1s = np.linspace(centers[1] - widths[1], centers[1] + widths[1], points)
        best = None
        for b0 in b0s:
            for b1 in b1s:
                ll = logistic_loglik_oracle(x, y, (b0, b1))
                if best is None or ll > best[0]:
                    best = (ll, b0, b1)
        centers = [best[1], best[2]]
        widths = [w * 2.0 / (points - 1) * 2.0 for w in widths]
    return np.array([best[1], best[2]])


def _thresholds_oracle(values, n_min):
    """The j/rho lower-quantile threshold rule, one searchsorted per candidate."""
    srt = np.sort(np.asarray(values, dtype=float))
    n0 = srt.size
    rho = n0 // n_min
    if n0 < 2 * n_min or rho < 2:
        return []
    out = []
    for j in range(1, rho):
        t = float(srt[min(max(math.ceil(n0 * (j / rho) - 1e-9) - 1, 0), n0 - 1)])
        if out and t <= out[-1]:
            continue
        left = int(np.searchsorted(srt, t, side="right"))
        if left >= n_min and n0 - left >= n_min:
            out.append(t)
    return out


def probability_partition_oracle(scores, k, source="score"):
    """Quantile intervals of a score sample, one loop per threshold and group.

    Thresholds are the deduplicated j/k lower quantiles that lie below the
    largest score; each group's count is a masked pass over the sample.
    """
    s = np.asarray(scores, dtype=float)
    srt = np.sort(s)
    n = srt.size
    thresholds = []
    for j in range(1, k):
        t = float(srt[min(max(math.ceil(n * (j / k) - 1e-9) - 1, 0), n - 1)])
        if not thresholds or t > thresholds[-1]:
            thresholds.append(t)
    thresholds = [t for t in thresholds if t < float(s.max())]
    if not thresholds:
        return Partition(groups=(Group(rules=(), train_count=n),), sources=(source,),
                         degenerate=True)
    groups = []
    for i in range(len(thresholds) + 1):
        rules = []
        if i > 0:
            rules.append(AxisRule(source, "gt", threshold=thresholds[i - 1]))
        if i < len(thresholds):
            rules.append(AxisRule(source, "le", threshold=thresholds[i]))
        lo = -np.inf if i == 0 else thresholds[i - 1]
        hi = np.inf if i == len(thresholds) else thresholds[i]
        groups.append(Group(rules=tuple(rules), train_count=int(np.sum((s > lo) & (s <= hi)))))
    return Partition(groups=tuple(groups), sources=(source,))


def discrete_splits_oracle(labels, n_min, residuals=None):
    """Label-set splits enumerated with python sets and a ``Counter``.

    The "in" side of each feasible split as a tuple sorted by ``str``. With
    m <= 6 labels every subset holding the smallest label, the others chosen
    in binary counting order; with m > 6 the prefixes of the labels ordered by
    (mean residual, ``str(label)``).
    """
    labs = np.asarray(labels)
    n0 = labs.size
    distinct = sorted(set(labs.tolist()))
    m = len(distinct)
    if m < 2:
        return []
    counts = Counter(labs.tolist())
    if m <= 6:
        first, rest = distinct[0], distinct[1:]
        subsets = []
        for bits in range(2 ** len(rest)):
            side = [first] + [lab for i, lab in enumerate(rest) if bits >> i & 1]
            if len(side) < m:
                subsets.append(side)
    else:
        if residuals is None:
            raise ValueError("residuals are required to order more than 6 distinct labels")
        r = np.asarray(residuals, dtype=float)
        means = {lab: float(r[labs == lab].mean()) for lab in distinct}
        ordered = sorted(distinct, key=lambda lab: (means[lab], str(lab)))
        subsets = [sorted(ordered[: i + 1]) for i in range(m - 1)]
    out = []
    for side in subsets:
        size = sum(counts[lab] for lab in side)
        if size >= n_min and n0 - size >= n_min:
            out.append(tuple(sorted(side, key=str)))
    return out


def discrete_cut_oracle(labs, r, v, n_min):
    """Best split of ``discrete_splits_oracle``: ``(B, labels)`` or None.

    Each side's sums run over its ``np.isin`` mask; ties keep the first.
    """
    best = None
    for side in discrete_splits_oracle(labs, n_min, residuals=r):
        mask = np.isin(labs, np.asarray(side))
        lr, lv = float(r[mask].sum()), float(v[mask].sum())
        b = lr**2 / lv + (float(r.sum()) - lr) ** 2 / (float(v.sum()) - lv)
        if best is None or b > best[0]:
            best = (float(b), side)
    return best


def greedy_partition_oracle(config, columns, y, phat):
    """The greedy covariate search with a fresh sort of every node and column.

    Every node re-sorts each continuous column, scores its candidates in a
    python loop, and the root is scanned for feasibility and again when it is
    split. Tie-breaks: larger B, then the lexicographically smaller source,
    then the smaller threshold or the earlier label set. Discrete cuts come
    from ``discrete_cut_oracle``.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(phat, dtype=float)
    resid = y - p
    var = p * (1.0 - p)
    n = y.size
    sources = sorted(set(config.continuous) | set(config.discrete))
    is_discrete = {s: s in set(config.discrete) for s in sources}
    cols = {}
    for s in sources:
        if s not in columns:
            raise MissingColumnError(s)
        cols[s] = np.asarray(columns[s]) if is_discrete[s] else np.asarray(columns[s], dtype=float)

    def continuous_cut(vals, r, v):
        cands = _thresholds_oracle(vals, config.n_min)
        if not cands:
            return None
        order = np.argsort(vals, kind="stable")
        vs = vals[order]
        cum_r = np.cumsum(r[order])
        cum_v = np.cumsum(v[order])
        best = None
        for t in cands:
            i = int(np.searchsorted(vs, t, side="right")) - 1
            b = cum_r[i] ** 2 / cum_v[i] + (cum_r[-1] - cum_r[i]) ** 2 / (cum_v[-1] - cum_v[i])
            if best is None or b > best[0]:
                best = (float(b), t)
        return best

    def discrete_cut(labs, r, v):
        return discrete_cut_oracle(labs, r, v, config.n_min)

    def best_split(idx):
        if idx.size < 2 * config.n_min:
            return None
        best = None
        for s in sources:
            cut = discrete_cut if is_discrete[s] else continuous_cut
            found = cut(cols[s][idx], resid[idx], var[idx])
            if found is not None and (best is None or found[0] > best[0]):
                best = (found[0], s, found[1])
        return best

    if best_split(np.arange(n)) is None:
        raise InfeasiblePartitionError("the root group admits no feasible split")
    queue = deque([(np.arange(n), ())])
    finished = []
    total = 1
    while queue and total < config.k:
        idx, rules = queue.popleft()
        found = best_split(idx)
        if found is None:
            finished.append((idx, rules))
            continue
        _, source, payload = found
        col = cols[source][idx]
        if is_discrete[source]:
            left = np.isin(col, np.asarray(payload))
            pair = (AxisRule(source, "in", labels=payload), AxisRule(source, "not-in", labels=payload))
        else:
            left = col <= payload
            pair = (AxisRule(source, "le", threshold=payload), AxisRule(source, "gt", threshold=payload))
        queue.append((idx[left], rules + (pair[0],)))
        queue.append((idx[~left], rules + (pair[1],)))
        total += 1
    nodes = finished + list(queue)
    groups = tuple(Group(rules=r, train_count=int(i.size)) for i, r in nodes)
    used = sorted({rule.source for g in groups for rule in g.rules})
    return Partition(groups=groups, sources=tuple(used))


# ---------------------------------------------------------------------------
# The IRLS fit before the single-kernel rewrite
# ---------------------------------------------------------------------------
#
# Masked logistic, np.clip, scipy's solve_triangular, and x @ beta evaluated
# again for every probability, log-likelihood and the final information. The
# fit, predict_prob and bag_gradient must agree with these to the tolerances
# that test_glm.TestFitMatchesOracle states.


def _logistic_oracle(eta):
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _clamp_oracle(p):
    return np.clip(p, 1e-10, 1.0 - 1e-10)


def _log_likelihood_oracle(x, y, beta):
    eta = x @ beta
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def _solve_spd_oracle(a, b):
    try:
        chol = np.linalg.cholesky(a)
        d = np.diagonal(chol)
        if d.min() ** 2 >= 1e-12 * d.max() ** 2:
            z = solve_triangular(chol, b, lower=True)
            return solve_triangular(chol.T, z, lower=False)
    except np.linalg.LinAlgError:
        pass

    tol = 1e-12 * max(float(np.max(np.diagonal(a))), np.finfo(float).tiny)
    c, piv, rank, _info = lapack.dpstrf(a, lower=1, tol=tol)
    if rank < a.shape[0]:
        raise RankDeficiencyError(
            f"weighted normal equations are numerically singular (rank {rank} of {a.shape[0]})"
        )
    perm = piv - 1
    lower = np.tril(c)
    z = solve_triangular(lower, b[perm], lower=True)
    z = solve_triangular(lower.T, z, lower=False)
    out = np.empty_like(z)
    out[perm] = z
    return out


def fit_logistic_oracle(x, y):
    """IRLS with step-halving, as ``fit_logistic`` computed it before the rewrite,
    plus the closing step: a fit that passes the gradient test takes one more
    Newton step and ends converged whether or not a halving of it is kept."""
    yv = np.asarray(y, dtype=float).ravel()
    xv = x.values
    n, p = xv.shape
    if yv.shape[0] != n:
        raise ValueError(f"response length {yv.shape[0]} does not match {n} design rows")
    if not np.all(np.isin(yv, (0.0, 1.0))):
        raise ValueError("response entries must be 0 or 1")
    if yv.min() == yv.max():
        raise SingleClassError("both response classes must be present")
    if n < p:
        raise ValueError(f"need at least as many rows ({n}) as columns ({p})")

    grad_tol = 1e-8 * n
    beta = np.zeros(p)
    ll = _log_likelihood_oracle(xv, yv, beta)
    ll_path = [ll]
    converged = False
    iterations = 0

    for _ in range(100):
        prob = _clamp_oracle(_logistic_oracle(xv @ beta))
        grad = xv.T @ (yv - prob)
        converged = bool(np.max(np.abs(grad)) <= grad_tol)
        iterations += 1
        w = prob * (1.0 - prob)
        info = xv.T @ (xv * w[:, None])
        try:
            delta = _solve_spd_oracle(info, grad)
        except RankDeficiencyError:
            if not converged:
                raise
            break  # a closing step that cannot be solved does not move

        step = 1.0
        accepted = False
        # the closing step tolerates the rounding of the log-likelihood: at the
        # MLE a full step's gain is below it
        floor = ll - 16 * np.finfo(float).eps * abs(ll) if converged else ll
        for _ in range(40):
            cand = beta + step * delta
            ll_new = _log_likelihood_oracle(xv, yv, cand)
            if ll_new >= floor:
                accepted = True
                break
            step *= 0.5
        if accepted and not (converged and np.array_equal(cand, beta)):
            beta = cand
            ll = ll_new
            ll_path.append(ll)
        if converged or not accepted:
            break

    prob = _clamp_oracle(_logistic_oracle(xv @ beta))
    w = prob * (1.0 - prob)
    info = xv.T @ (xv * w[:, None])
    info = 0.5 * (info + info.T)
    return FittedGlm(
        coef=beta,
        converged=converged,
        iterations=iterations,
        fisher_info=info,
        log_likelihood=_log_likelihood_oracle(xv, yv, beta),
        names=x.names,
        ll_path=tuple(ll_path),
        fitted_prob=prob,
    )


def predict_prob_oracle(model, x):
    return _clamp_oracle(_logistic_oracle(x.values @ model.coef))


def bag_gradient_oracle(model, x_test, y_test, group_idx, k):
    """Central differences of the statistic through the masked logistic and np.clip."""
    beta = np.asarray(model.coef, dtype=float)
    xv = x_test.values
    yv = np.asarray(y_test, dtype=float)
    g = np.asarray(group_idx, dtype=int)

    def stat_at(b):
        return grouped_chi2(yv, _clamp_oracle(_logistic_oracle(xv @ b)), g, k)[0]

    grad = np.empty_like(beta)
    for j in range(beta.size):
        h = 1e-5 * (1.0 + abs(beta[j]))
        bp = beta.copy()
        bm = beta.copy()
        bp[j] += h
        bm[j] -= h
        grad[j] = (stat_at(bp) - stat_at(bm)) / (2.0 * h)
    return grad
