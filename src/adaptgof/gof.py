"""Test statistics and decision procedures.

Four layers, bottom to top:

* ``hl_test``: the classical grouped chi-squared test that bins observations
  by quantiles of the fitted probabilities (K groups, K-2 degrees of freedom).
* ``bag_statistic`` / ``corrected_statistic``: the adaptive-grouping statistic
  on held-out test rows -- the sum over groups of squared standardized residual
  sums -- and its finite-sample correction, which subtracts a delta-method
  standard-error term before the chi-squared comparison. Both take their
  per-group sums from the one kernel ``partition._group_contributions``.
* ``single_split_test``: one train/test split end to end: fit the model on the
  training rows, choose a partition from training data only, evaluate the
  corrected statistic on the test rows against chi-squared with (realized)
  K degrees of freedom.
* ``multi_split_test``: s independent splits on child random streams, decided
  by comparing the median p-value to the alpha-quantile of N(0.5, 1/(12 s)).
  It works in stacks of at most ``max(1, _STACK_ROWS // max(n_train, n_test))``
  splits, evened out so that no short last stack pays a whole stack's
  overhead: the rows of a stack's splits are drawn from their own streams,
  the stack is fitted by one lockstep IRLS loop (``glm._fit_stack``) and
  scored by ``_score_stack``: one lockstep partition search
  (``partition._greedy_stack``) and one pass each for the test-row
  prediction, the group assignment (``partition._assign_stack``), the
  statistic (``_bag_values``), its gradient (``_gradients``), the
  correction's solve (``_corrections``) and the p-value. Each split's groups
  and outcome stay its own. Only the fit and the search fail a split alone:
  a partition tiles the space, so a row no group holds is a bug. Every layer
  gives a split what it would get alone, so the report does not depend on
  the stack size; ``single_split_test``, ``bag_statistic``,
  ``bag_gradient``, ``corrected_statistic`` and ``partition.assign_groups``
  are the one-split cases.

Underfit diagnosis: every rule of every selected group counts once for its
covariate ({x1 <= a & x2 > b & x2 <= c} counts x1 once and x2 twice);
``covariate_counts`` ranks covariates by those counts across splits, both over
all groups and over each split's largest-contribution group.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset
from .formula import Formula, design_matrix
from .glm import DesignMatrix, FittedGlm, _clamped_logistic, _fit_stack, _linear
from .numkit import RandomSource, chi2_sf, empirical_quantiles, gaussian_quantile
from .partition import (
    Partition,
    PartitionConfig,
    _assign_stack,
    _code_labels,
    _greedy_stack,
    _group_contributions,
    _tie_ranks,
    grouped_chi2,  # unused here, but bench/test_bench.py patches gof.grouped_chi2
    presort,
    probability_partition,
)

__all__ = [
    "HlResult",
    "BagValue",
    "CorrectionResult",
    "SplitOutcome",
    "TestConfig",
    "TestReport",
    "hl_test",
    "bag_statistic",
    "corrected_statistic",
    "bag_gradient",
    "single_split_test",
    "multi_split_test",
    "covariate_counts",
    "default_train_size",
    "decision_threshold",
    "aggregate_p_values",
    "report_to_dict",
]

_MTA_PROB_COLUMN = "_mta_prob"


# ---------------------------------------------------------------------------
# Hosmer-Lemeshow style baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HlResult:
    statistic: float
    k: int
    df: int
    p_value: float
    failed: bool = False
    reason: str | None = None


def hl_test(y, phat, k: int = 10) -> HlResult:
    """Grouped chi-squared test on quantile bins of the fitted probabilities.

    Observations are binned by the k-1 lower empirical quantiles of ``phat``
    with left-closed intervals ([0, q1), [q1, q2), ..., [q_{k-1}, 1]); the
    statistic uses the group-mean probability in the denominator and is
    referred to chi-squared with k - 2 degrees of freedom.

    A group whose mean probability is exactly 0 or 1 makes the statistic
    undefined; that is reported as a failed result, not an exception.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(phat, dtype=float)
    if y.shape != p.shape:
        raise ValueError("response and probability vectors must have equal length")
    if k < 3:
        raise ValueError("k must be at least 3")
    if y.size < k:
        raise ValueError("need at least k observations")

    bounds = empirical_quantiles(p, [j / k for j in range(1, k)])
    groups = np.searchsorted(bounds, p, side="right")
    counts = np.bincount(groups, minlength=k)
    live = counts > 0
    n_g = counts[live]
    mean_p = np.bincount(groups, weights=p, minlength=k)[live] / n_g
    resid = np.bincount(groups, weights=y - p, minlength=k)[live]
    degenerate = (mean_p <= 0.0) | (mean_p >= 1.0)
    if np.any(degenerate):
        return HlResult(
            statistic=math.nan, k=k, df=k - 2, p_value=math.nan, failed=True,
            reason=f"group mean probability {float(mean_p[degenerate][0])} is degenerate",
        )
    stat = float(np.sum(resid**2 / (n_g * mean_p * (1.0 - mean_p))))
    df = k - 2
    return HlResult(statistic=stat, k=k, df=df, p_value=chi2_sf(stat, df))


# ---------------------------------------------------------------------------
# Adaptive-grouping statistic and finite-sample correction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BagValue:
    statistic: float
    realized_k: int
    contributions: tuple  # each group's term, 0.0 for an empty group


def _bag_values(y, prob, groups, k) -> list:
    """``bag_statistic`` of each split of a stack, from one set of group sums.

    ``y``, ``prob`` and ``groups`` hold the splits' test rows (s x n, n >= 1)
    and ``k`` each split's group count; every probability lies strictly
    inside (0, 1), as the clamped predictions do, and every label below its
    split's count, as assigned. Each split's statistic sums its own live
    groups: a sum over a padded length could round differently.
    """
    contrib, live = _group_contributions(y, prob, groups, max(k))
    out = []
    for c, lv, size in zip(contrib, live, k):
        c, lv = c[:size], lv[:size]
        out.append(BagValue(statistic=float(np.sum(c[lv])), realized_k=int(lv.sum()),
                            contributions=tuple(c.tolist())))
    return out


def bag_statistic(y_test, phat_test, group_idx, k: int) -> BagValue:
    """Sum over groups of (sum of residuals)^2 / (sum of variances) on test rows.

    Empty groups contribute nothing and reduce ``realized_k`` accordingly; a
    label at or above ``k`` widens the result to reach it. The one-split case
    of ``_bag_values``.

    Raises:
        ValueError: if there are no test rows, or a probability is not
            strictly inside (0, 1).
    """
    p = np.asarray(phat_test, dtype=float)
    if p.size == 0:
        raise ValueError("empty test set")
    if not ((p > 0.0) & (p < 1.0)).all():
        raise ValueError("test probabilities must lie strictly in (0, 1)")
    g = np.asarray(group_idx, dtype=int)
    [bag] = _bag_values(np.asarray(y_test, dtype=float)[None], p[None], g[None],
                        [max(k, int(g.max(initial=-1)) + 1)])
    return bag


@dataclass(frozen=True)
class CorrectionResult:
    adjusted: float
    se: float
    skipped: bool = False


def _gradients(coef, xt, y, groups, k: int = 0) -> np.ndarray:
    """``bag_gradient`` of each split of a stack (s x p).

    ``coef`` holds the splits' coefficients (s x p), ``xt`` their transposed
    test designs (s x p x n), ``y`` and ``groups`` their test rows (s x n).
    All 2p perturbed coefficient vectors of all splits are scored in one
    pass: one stacked product with the test designs, one logistic and one
    set of group sums.
    """
    p = coef.shape[1]
    h = 1e-5 * (1.0 + np.abs(coef))
    steps = h[:, :, None] * np.eye(p)
    coefs = coef[:, None, :] + np.concatenate([steps, -steps], axis=1)  # + h_j e_j, then - h_j e_j
    prob = _clamped_logistic(coefs @ xt)
    contrib, live = _group_contributions(y[:, None, :], prob, groups[:, None, :], k)
    stat = np.array([c[:, lv].sum(axis=1) for c, lv in zip(contrib, live[:, 0])])
    return (stat[:, :p] - stat[:, p:]) / (2.0 * h)


def bag_gradient(model: FittedGlm, x_test: DesignMatrix, y_test, group_idx, k: int) -> np.ndarray:
    """Gradient of the statistic with respect to the coefficients.

    Central finite differences through the full test pipeline (re-evaluating
    test probabilities and the grouped statistic) with the partition and test
    rows held fixed; per-coordinate step 1e-5 * (1 + |beta_j|). The one-split
    case of ``_gradients``.
    """
    xt = np.asfortranarray(x_test.values).T  # p x n, a view of a column-major design
    return _gradients(np.asarray(model.coef, dtype=float)[None], xt[None],
                      np.asarray(y_test, dtype=float)[None],
                      np.asarray(group_idx, dtype=int)[None], k)[0]


_Z95 = 1.6448536269514722  # 0.95 standard normal quantile


def _corrections(stats, info, grad) -> list:
    """The correction of each split of a stack: statistics, J (s x p x p) and a (s x p).

    The stack's systems are solved in one call. When any is singular they are
    solved again one at a time, so that each singular J skips only its own
    correction.
    """
    rhs = grad[:, :, None]
    solvable = np.ones(len(stats), dtype=bool)
    try:
        solved = np.linalg.solve(info, rhs)
    except np.linalg.LinAlgError:
        solved = np.zeros_like(rhs)
        for i in range(len(stats)):
            try:
                solved[i] = np.linalg.solve(info[i], rhs[i])
            except np.linalg.LinAlgError:
                solvable[i] = False
    quad = (grad[:, None, :] @ solved)[:, 0, 0]
    out = []
    for stat, ok, q in zip(stats, solvable.tolist(), quad.tolist()):
        if not ok or not math.isfinite(q):
            out.append(CorrectionResult(adjusted=stat, se=0.0, skipped=True))
            continue
        se = math.sqrt(max(q, 0.0))
        out.append(CorrectionResult(adjusted=max(stat - se * _Z95, 0.0), se=se))
    return out


def corrected_statistic(
    bag: BagValue,
    model: FittedGlm,
    x_test: DesignMatrix,
    y_test,
    group_idx,
) -> CorrectionResult:
    """Finite-sample corrected statistic max(stat - se * z_0.95, 0).

    ``se`` is sqrt(a' J^-1 a) with a the finite-difference gradient from
    ``bag_gradient`` and J the observed Fisher information of the training
    fit. A singular J skips the correction (flagged) rather than failing.
    The one-split case of ``_corrections``.
    """
    grad = bag_gradient(model, x_test, y_test, group_idx, bag.realized_k)
    [corr] = _corrections([bag.statistic], np.asarray(model.fisher_info, dtype=float)[None],
                          grad[None])
    return corr


# ---------------------------------------------------------------------------
# Single split
# ---------------------------------------------------------------------------


def default_train_size(n: int, k: int) -> int:
    """Default training-set size for a given sample size and group count."""
    if k == 3 and n == 500:
        return 455
    if k == 3 and n == 1000:
        return 940
    table = {200: 150, 500: 425, 1000: 900}
    return table.get(n, int(math.floor(0.9 * n)))


@dataclass(frozen=True)
class TestConfig:
    """Configuration of the adaptive test.

    ``partition_by`` selects how the partition is built on training rows:
      * ``"covariates"``: greedy tree search over covariate columns;
      * ``"score"``: quantile intervals of the injected ``score_column``;
      * ``"mta-prob"``: quantile intervals of the training-set fitted
        probabilities of the model under assessment.
    """

    __test__ = False  # not a pytest class despite the name

    k: int = 5
    n_min: int | None = None          # defaults to n // 10
    train_size: int | None = None     # defaults to default_train_size(n, k)
    alpha: float = 0.05
    splits: int = 100
    partition_by: str = "covariates"
    score_column: str | None = None
    continuous: tuple | None = None   # defaults to all continuous columns
    discrete: tuple | None = None     # defaults to all discrete columns

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.n_min is not None and self.n_min < 1:
            raise ValueError("n_min must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.splits < 1:
            raise ValueError("splits must be at least 1")
        if self.partition_by not in ("covariates", "score", "mta-prob"):
            raise ValueError(f"unknown partition mode {self.partition_by!r}")
        if self.partition_by == "score" and not self.score_column:
            raise ValueError("partition_by='score' requires score_column")


@dataclass(frozen=True)
class SplitOutcome:
    """Everything recorded for one train/test split."""

    statistic: float
    adjusted: float
    se: float
    realized_k: int
    p_value: float
    partition: Partition | None
    counts_all: dict = field(default_factory=dict)
    counts_max_group: dict = field(default_factory=dict)
    converged: bool = True
    correction_skipped: bool = False
    train_n: int = 0
    test_n: int = 0
    failed: bool = False
    error: str | None = None

    @property
    def usable(self) -> bool:
        """Whether the split enters the median p-value and the covariate ranking."""
        return not self.failed and self.converged

    @classmethod
    def failure(cls, message: str) -> "SplitOutcome":
        return cls(
            statistic=math.nan, adjusted=math.nan, se=math.nan, realized_k=0,
            p_value=math.nan, partition=None, failed=True, error=message,
        )


def _rule_counts(groups) -> dict:
    return dict(Counter(rule.source for group in groups for rule in group.rules))


def _plan(config: TestConfig, dataset: Dataset, ncol: int) -> tuple:
    """What every split of one test shares.

    Returns ``(n_train, partition config, order, ties, coded, scores)``.
    Resolves the defaults and checks once what no split can change, so a
    configuration or a column that would fail the splits raises
    ``ValueError`` before the first split: sizes (among them a training set
    smaller than the design's ``ncol`` columns) and a non-finite value in a
    continuous search column. For the covariate search it also sorts and
    ranks each continuous column once over all rows (``order``, ``ties``)
    and codes each discrete column once (``coded``); each split filters its
    training rows out of those. For ``partition_by="score"`` it reads and
    range-checks the score column once (``scores``).
    """
    n = dataset.n
    n_min = config.n_min if config.n_min is not None else n // 10
    n_train = config.train_size if config.train_size is not None else default_train_size(n, config.k)
    if not 0 < n_train < n:
        raise ValueError(f"training size {n_train} must lie strictly between 0 and {n}")
    if n_train < 2 * n_min:
        raise ValueError(f"training size {n_train} is below 2 * n_min = {2 * n_min}")
    if n - n_train < config.k:
        raise ValueError(f"test size {n - n_train} is below k = {config.k}")
    if n_train < ncol:
        raise ValueError(f"training size {n_train} is below the model's {ncol} coefficients")
    if config.partition_by == "score":
        scores = dataset.numeric(config.score_column)
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ValueError(f"score column {config.score_column!r} must lie in [0, 1]")
        return n_train, None, None, None, None, scores
    if config.partition_by == "mta-prob":
        return n_train, None, None, None, None, None
    cont = config.continuous if config.continuous is not None else dataset.continuous_names
    disc = config.discrete if config.discrete is not None else dataset.discrete_names
    pcfg = PartitionConfig(k=config.k, n_min=n_min, continuous=cont, discrete=disc)
    order = presort(dataset.columns, pcfg.continuous)  # raises on a non-finite value
    return (n_train, pcfg, order, _tie_ranks(dataset.columns, order),
            _code_labels(dataset.columns, pcfg.discrete), None)


def _gather_rows(x: DesignMatrix, rows) -> np.ndarray:
    """Each split's rows of a design, transposed: s x p x m for s index arrays of length m."""
    xt_full = np.asfortranarray(x.values).T  # p x n, a view of a column-major design
    out = np.empty((len(rows), xt_full.shape[0], len(rows[0])))
    for o, idx in zip(out, rows):
        # the indices are in range; "clip" only skips the buffered bounds check
        np.take(xt_full, idx, axis=1, out=o, mode="clip")
    return out


# Rows per stack of splits, counted by the larger of a split's training and
# test halves (the training half, unless a split trains on fewer than half the
# rows). A stack is fitted by one lockstep IRLS loop and scored by one
# lockstep search, one group assignment and one pass per statistic layer, so
# their per-call overhead is paid once per stack. Measured on one experiment
# replication of setting 3 at n = 500 (425 training rows, 100 splits per test;
# benchmark reference seconds, one CPU, medians of 4 alternated 20 s runs):
# 0.147 s in stacks of 19 (8,192 rows), 0.119 s in stacks of 25 (12,288),
# 0.114 s in stacks of 34 (16,384) and 0.115 s in two of 50 (24,576), at a
# peak memory of 69.4, 69.7, 70.7 and 72.7 MB; 8 later alternated 30 s runs
# put 12,288 at 70.1 MB against 69.4 MB for 8,192. 12,288 is the largest of
# these within 1 MB of stacks of 19. Splits of 18,000 training rows stay one
# per stack below 36,000: two per stack made a test on 20,000 rows with the
# covariate search 8.8% slower. A constant, not an option: it only routes
# work, and no result depends on it.
_STACK_ROWS = 12288


def _fit_splits(dataset: Dataset, x_full: DesignMatrix, n_train: int, rngs) -> tuple:
    """Draw each split's rows from its own stream and fit all the splits as one stack.

    Returns ``(train, test, fits)``: each split's training and test rows in
    ascending order (s x n_train and s x n_test, read off one membership mask
    of the first n_train places of each permutation) and per split its
    ``FittedGlm`` or the exception fitting it alone raises.
    """
    n, s = dataset.n, len(rngs)
    member = np.zeros((s, n), dtype=bool)
    np.put_along_axis(member, np.stack([rng.permutation(n)[:n_train] for rng in rngs]), True,
                      axis=1)
    first = n * np.arange(s)[:, None]  # each split's first place in the flat mask
    train = np.flatnonzero(member).reshape(s, n_train) - first
    test = np.flatnonzero(~member).reshape(s, n - n_train) - first
    # the fit may overwrite the stack's gathered design; a float response
    # leaves no integer copy alive during the fit
    return train, test, _fit_stack(_gather_rows(x_full, train), dataset.y.astype(float)[train],
                                   x_full.names)


def _score_stack(dataset: Dataset, x_full: DesignMatrix, config: TestConfig, plan: tuple,
                 fitted: tuple) -> list:
    """Everything of a stack of splits after their fits, one stacked pass per layer.

    ``fitted`` is what ``_fit_splits`` returns. The test rows of all splits
    are gathered and predicted together, the covariate partitions are
    searched in lockstep (``partition._greedy_stack``), the test rows are
    assigned to their groups in one pass (``partition._assign_stack``), and
    the statistic, its gradient, the correction's solve and the p-value each
    run once for the stack. Each split's rule counts and outcome stay its
    own, and each stacked layer gives every split what it would get alone,
    so no result depends on the stack.

    Returns one entry per split: its ``SplitOutcome``, or the exception the
    split raises alone. Only two layers hand back failures that depend on the
    rows a split draws, each a ``ValueError``: the fit (a single response
    class, rank deficiency) and the search (an infeasible partition);
    ``_plan`` has ruled out the rest. Anything else (a ``CoverageError``,
    TypeError, IndexError, ...) is a bug and propagates instead of being
    counted as a failed split.
    """
    n = dataset.n
    n_train, pcfg, order, ties, coded, scores = plan
    train, test, results = fitted
    live = [i for i, r in enumerate(results) if not isinstance(r, Exception)]
    if not live:
        return results
    # a new list: the caller's ``fitted`` keeps the fits, and their memory at
    # the top of the heap, until the next stack is fitted. Freeing them here
    # let malloc trim the heap after every 18,000-row split: a 20,000-row
    # covariate test then took 61.7k minor page faults instead of 4.6k and
    # ran 8% slower.
    results = list(results)
    if len(live) < len(results):
        train, test = train[live], test[live]
    models = [results[i] for i in live]
    coef = np.stack([m.coef for m in models])
    xt_test = _gather_rows(x_full, test)
    phat_test = _clamped_logistic(_linear(coef, xt_test))

    if pcfg is not None:
        parts = _greedy_stack(pcfg, dataset.columns, order, ties, coded, train, dataset.y,
                              [m.fitted_prob for m in models])
    else:
        source = _MTA_PROB_COLUMN if scores is None else config.score_column
        train_scores = [m.fitted_prob for m in models] if scores is None else scores[train]
        parts = [probability_partition(t, config.k, source=source) for t in train_scores]
    at = []  # the splits with a partition, as places in the stack arrays
    for j, part in enumerate(parts):
        if isinstance(part, Exception):
            results[live[j]] = part
        else:
            at.append(j)
    if not at:
        return results
    if len(at) < len(live):
        coef, xt_test, phat_test, test = coef[at], xt_test[at], phat_test[at], test[at]
    if pcfg is None:
        values = {source: phat_test if scores is None else scores[test]}
    else:
        values = {src: dataset.columns[src][test]
                  for src in sorted({src for j in at for src in parts[j].sources})}
    groups = _assign_stack([parts[j] for j in at], values)
    y_test = dataset.y[test]
    bags = _bag_values(y_test, phat_test, groups, [parts[j].size for j in at])
    corrs = _corrections([b.statistic for b in bags],
                         np.stack([models[j].fisher_info for j in at]),
                         _gradients(coef, xt_test, y_test, groups))
    p_values = chi2_sf(np.array([c.adjusted for c in corrs]),
                       np.array([b.realized_k for b in bags])).tolist()
    for j, bag, corr, p_value in zip(at, bags, corrs, p_values):
        i, part = live[j], parts[j]
        max_group = int(np.argmax(bag.contributions))
        results[i] = SplitOutcome(
            statistic=bag.statistic,
            adjusted=corr.adjusted,
            se=corr.se,
            realized_k=bag.realized_k,
            p_value=p_value,
            partition=part,
            counts_all=_rule_counts(part.groups),
            counts_max_group=_rule_counts(part.groups[max_group:max_group + 1]),
            converged=models[j].converged,
            correction_skipped=corr.skipped,
            train_n=n_train,
            test_n=n - n_train,
        )
    return results


def single_split_test(
    dataset: Dataset,
    mta: Formula,
    config: TestConfig,
    rng: RandomSource,
) -> SplitOutcome:
    """Run one random train/test split of the adaptive test.

    The model under assessment is fit on the training rows, the partition is
    chosen from training data only, and the corrected statistic is evaluated
    on the held-out rows against chi-squared with the realized group count as
    degrees of freedom. Identical seed and configuration give an identical
    outcome. This is the one-split case of ``multi_split_test``'s stacks, but
    a failure raises instead of being recorded.
    """
    x_full = design_matrix(dataset, mta)
    plan = _plan(config, dataset, x_full.ncol)
    [out] = _score_stack(dataset, x_full, config, plan,
                         _fit_splits(dataset, x_full, plan[0], [rng]))
    if isinstance(out, Exception):
        raise out
    return out


# ---------------------------------------------------------------------------
# Multiple splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestReport:
    """Aggregated verdict over multiple random splits."""

    __test__ = False  # not a pytest class despite the name

    outcomes: tuple
    median_p: float
    threshold: float
    reject: bool | None
    inconclusive: bool
    n_failed: int
    ranking: tuple
    config: TestConfig
    seed: int | None = None


def decision_threshold(alpha: float, s: int) -> float:
    """The alpha-quantile of N(0.5, 1/(12 s)) used against the median p-value."""
    return 0.5 + gaussian_quantile(alpha) * math.sqrt(1.0 / (12.0 * s))


def _lower_median(values) -> float:
    srt = sorted(values)
    return srt[(len(srt) - 1) // 2]


def aggregate_p_values(p_values, s: int, alpha: float) -> tuple:
    """Combine split p-values into (median, threshold, reject).

    The median is the lower middle order statistic for even counts; the
    decision compares it to the alpha-quantile of N(0.5, 1/(12 s)).
    """
    if not p_values:
        return math.nan, decision_threshold(alpha, s), None
    median = _lower_median(p_values)
    threshold = decision_threshold(alpha, s)
    return median, threshold, bool(median < threshold)


def multi_split_test(
    dataset: Dataset,
    mta: Formula,
    config: TestConfig,
    rng: RandomSource,
    seed: int | None = None,
) -> TestReport:
    """Run the adaptive test with multiple random splits.

    Each split runs on its own child stream of ``rng``. Splits whose fit did
    not converge or that raised a split-dependent error (a ``ValueError`` of
    the fit or the search: ``SingleClassError``, ``RankDeficiencyError``,
    ``InfeasiblePartitionError``) are excluded from the median and counted as
    failed; when more than half the splits fail the report is inconclusive.
    Other exceptions propagate, a ``CoverageError`` among them.
    """
    x_full = design_matrix(dataset, mta)
    plan = _plan(config, dataset, x_full.ncol)
    # the larger half of a split sizes the stack: with a small training set on
    # a large file, the test rows are what a stack holds most of
    per_stack = max(1, _STACK_ROWS // max(plan[0], dataset.n - plan[0]))
    # stacks of even size: a short last stack would pay a whole stack's overhead
    per_stack = -(-config.splits // -(-config.splits // per_stack))
    outcomes = []
    for lo in range(0, config.splits, per_stack):
        rngs = [rng.child(("split", i)) for i in range(lo, min(lo + per_stack, config.splits))]
        fitted = _fit_splits(dataset, x_full, plan[0], rngs)
        for out in _score_stack(dataset, x_full, config, plan, fitted):
            if isinstance(out, Exception):
                out = SplitOutcome.failure(f"{type(out).__name__}: {out}")
            outcomes.append(out)

    usable = [o for o in outcomes if o.usable]
    n_failed = config.splits - len(usable)
    inconclusive = n_failed > config.splits / 2
    median_p, threshold, reject = aggregate_p_values(
        [o.p_value for o in usable], config.splits, config.alpha
    )
    if inconclusive:
        reject = None
    return TestReport(
        outcomes=tuple(outcomes),
        median_p=median_p,
        threshold=threshold,
        reject=reject,
        inconclusive=inconclusive,
        n_failed=n_failed,
        ranking=covariate_counts(outcomes),
        config=config,
        seed=seed,
    )


def covariate_counts(outcomes) -> tuple:
    """Rank covariates by rule appearances across the selected partitions.

    Only usable outcomes count. Returns ``(covariate, total_count,
    max_group_count)`` tuples, sorted by total count descending with
    lexicographic tie-break. ``total_count`` sums rule appearances over all
    groups of all selected partitions;
    ``max_group_count`` sums them over each split's largest-contribution
    group only.
    """
    total = Counter()
    max_grp = Counter()
    for o in outcomes:
        if o.usable:
            total.update(o.counts_all)
            max_grp.update(o.counts_max_group)
    names = sorted(set(total) | set(max_grp))
    ranked = sorted(names, key=lambda n: (-total[n], n))
    return tuple((n, int(total[n]), int(max_grp[n])) for n in ranked)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _outcome_to_dict(o: SplitOutcome, index: int) -> dict:
    out = {
        "split": index,
        "failed": o.failed,
    }
    if o.failed:
        out["error"] = o.error
        return out
    out.update(
        {
            "statistic": o.statistic,
            "adjusted": o.adjusted,
            "se": o.se,
            "realized_k": o.realized_k,
            "p_value": o.p_value,
            "converged": o.converged,
            "correction_skipped": o.correction_skipped,
            "train_n": o.train_n,
            "test_n": o.test_n,
            "covariate_counts": {k: o.counts_all[k] for k in sorted(o.counts_all)},
            "max_group_counts": {k: o.counts_max_group[k] for k in sorted(o.counts_max_group)},
            "partition": o.partition.to_json(),
        }
    )
    return out


def report_to_dict(report: TestReport) -> dict:
    """Deterministic JSON-ready view of a report (fixed key order, no timing)."""
    usable = [o for o in report.outcomes if o.usable]
    stats = sorted(o.adjusted for o in usable)
    summary = {
        "n_usable": len(usable),
        "adjusted_min": stats[0] if stats else None,
        "adjusted_median": _lower_median(stats) if stats else None,
        "adjusted_max": stats[-1] if stats else None,
    }
    return {
        "decision": {
            "reject": report.reject,
            "inconclusive": report.inconclusive,
            # no usable split leaves the median undefined; JSON has no NaN
            "median_p": None if math.isnan(report.median_p) else report.median_p,
            "threshold": report.threshold,
            "alpha": report.config.alpha,
            "splits": report.config.splits,
            "failed_splits": report.n_failed,
        },
        "statistic_summary": summary,
        "covariate_ranking": [
            {"covariate": n, "total": t, "max_group": m} for n, t, m in report.ranking
        ],
        "config": asdict(report.config),
        "seed": report.seed,
        "splits": [_outcome_to_dict(o, i) for i, o in enumerate(report.outcomes)],
    }
