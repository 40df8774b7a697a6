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
  the stack is fitted by one lockstep IRLS loop (``glm._fit_stack``),
  started from the coefficients of the one full-data fit in the ``_Plan``
  that ``_plan`` makes per test (from zero when that fit raises, does not
  converge or is clamped; the closing step of every fit makes the start not
  show), whose first pass is the full fit's minus that of the split's test
  rows. ``_score_stack`` scores the fitted ``_Stack`` one call per layer:
  the test-row prediction, the lockstep search (``_search``), the group
  assignment (``_assign``), the statistic (``_bag_values``), its gradient
  (``_gradients``) and the correction's solve (``_corrections``), on the
  splits that ``_narrow`` keeps after the fit and after the search. The
  p-values of all splits come from one ``chi2_sf`` call per test
  (``_with_p_values``). Each split's groups and outcome stay its own. Only
  the fit and the search fail a split alone: a partition tiles the space,
  so a row no group holds is a bug. Every layer gives a split what it would
  get alone, so the report does not depend on the stack size;
  ``single_split_test``, ``bag_statistic``, ``bag_gradient``,
  ``corrected_statistic`` and ``partition.assign_groups`` are the one-split
  cases.

Underfit diagnosis: every rule of every selected group counts once for its
covariate ({x1 <= a & x2 > b & x2 <= c} counts x1 once and x2 twice);
``covariate_counts`` ranks covariates by those counts across splits, both over
all groups and over each split's largest-contribution group.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .formula import Formula, design_matrix
from .glm import (PROB_CLAMP, DesignMatrix, FittedGlm, _check_response, _clamped_logistic,
                  _fit_stack, _gradient, _linear, _pass_at, fit_logistic)
from .numkit import RandomSource, chi2_sf, empirical_quantiles, gaussian_quantile
from .partition import (
    Partition,
    PartitionConfig,
    _assign_stack,
    _greedy_stack,
    _group_contributions,
    _search_index,
    grouped_chi2,  # unused here, but bench/test_bench.py patches gof.grouped_chi2
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

    Raises:
        ValueError: if the vectors differ in length, a response entry is not
            0 or 1 (NaN included), a probability lies outside [0, 1] (NaN
            included), k is below 3 or there are fewer than k observations.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(phat, dtype=float)
    if y.shape != p.shape:
        raise ValueError("response and probability vectors must have equal length")
    _check_response(y)
    if not ((p >= 0.0) & (p <= 1.0)).all():
        raise ValueError("fitted probabilities must lie in [0, 1]")
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
        ValueError: if there are no test rows, a probability is not strictly
            inside (0, 1), or a response entry is not 0 or 1 (NaN included).
    """
    p = np.asarray(phat_test, dtype=float)
    if p.size == 0:
        raise ValueError("empty test set")
    if not ((p > 0.0) & (p < 1.0)).all():
        raise ValueError("test probabilities must lie strictly in (0, 1)")
    y = np.asarray(y_test, dtype=float)
    _check_response(y)
    g = np.asarray(group_idx, dtype=int)
    [bag] = _bag_values(y[None], p[None], g[None], [max(k, int(g.max(initial=-1)) + 1)])
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


class _FullFit(NamedTuple):
    """The full-data fit, as every split's IRLS starts from it.

    Its coefficients and, at them, what an IRLS pass reads over all rows: the
    information X'WX, the gradient X'(y - p), the probabilities and the
    log-likelihood. A split's first pass takes its own as these minus those
    of its test rows.
    """

    coef: np.ndarray
    info: np.ndarray
    grad: np.ndarray
    prob: np.ndarray
    ll: float


def _full_fit_start(x_full: DesignMatrix, y) -> _FullFit | None:
    """What every split's IRLS starts from: the full-data fit.

    None, a start from zero, when that fit raises, does not converge or has a
    training probability at the clamp (separation, ROADMAP item 2): a
    separated fit's coefficients run off towards infinity along the
    separating direction, far from a split's own MLE.
    """
    try:
        fit = fit_logistic(x_full, y)
    except ValueError:
        return None
    prob = fit.fitted_prob
    if not fit.converged or ((prob <= PROB_CLAMP) | (prob >= 1.0 - PROB_CLAMP)).any():
        return None
    xt = np.asfortranarray(x_full.values).T  # p x n, a view of a column-major design
    grad = _gradient(xt[None], np.asarray(y, dtype=float)[None], prob[None])[0]
    return _FullFit(fit.coef, fit.fisher_info, grad, prob, fit.log_likelihood)


class _Plan(NamedTuple):
    """What every split of one test shares, as ``_plan`` makes it."""

    n_train: int
    index: object              # ``partition._search_index``; None unless partition_by="covariates"
    scores: np.ndarray | None  # the score column; None unless partition_by="score"
    full: _FullFit | None      # ``_full_fit_start``: None starts every split from zero


def _plan(config: TestConfig, dataset: Dataset, x_full: DesignMatrix) -> _Plan:
    """Resolve the defaults of one test and check once what no split can change.

    A configuration or a column that would fail the splits raises
    ``ValueError`` before the first split: sizes (among them a training set
    smaller than the design's columns) and a non-finite value in a continuous
    search column. It fits the model on all rows once, and every split's IRLS
    starts from that fit (``full``): the splits share most of their rows, so
    their MLEs lie close to it, and the closing step of ``glm._fit_stack``
    takes each split's fit to its own MLE wherever it started. For the
    covariate search it builds the one search index of the test over all
    rows, out of which each split filters its training rows; for
    ``partition_by="score"`` it reads and range-checks the score column once.
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
    if n_train < x_full.ncol:
        raise ValueError(
            f"training size {n_train} is below the model's {x_full.ncol} coefficients")
    index = scores = None
    if config.partition_by == "score":
        scores = dataset.numeric(config.score_column)
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ValueError(f"score column {config.score_column!r} must lie in [0, 1]")
    elif config.partition_by == "covariates":
        cont = config.continuous if config.continuous is not None else dataset.continuous_names
        disc = config.discrete if config.discrete is not None else dataset.discrete_names
        pcfg = PartitionConfig(k=config.k, n_min=n_min, continuous=cont, discrete=disc)
        index = _search_index(dataset.columns, pcfg)  # raises on a non-finite value
    return _Plan(n_train, index, scores, _full_fit_start(x_full, dataset.y))


def _gather_rows(x: DesignMatrix, rows) -> np.ndarray:
    """Each split's rows of a design, transposed: s x p x m for s index arrays of length m."""
    xt_full = np.asfortranarray(x.values).T  # p x n, a view of a column-major design
    out = np.empty((len(rows), xt_full.shape[0], len(rows[0])))
    for o, idx in zip(out, rows):
        # the indices are in range; "clip" only skips the buffered bounds check
        np.take(xt_full, idx, axis=1, out=o, mode="clip")
    return out


# Rows per stack of splits, counted by the larger of a split's training and
# test halves. A stack pays each layer's per-call overhead once, and 12,288
# rows was the fastest budget within 1 MB of the peak memory of smaller
# stacks; at 18,000 training rows a stack holds one split, as two were slower
# (timings in CHANGES.md). A constant, not an option: it only routes work,
# and no result depends on it.
_STACK_ROWS = 12288


class _Stack(NamedTuple):
    """A stack of s splits after their fits, as ``_fit_splits`` makes it."""

    train: np.ndarray    # each split's training rows in ascending order, s x n_train
    test: np.ndarray     # each split's test rows in ascending order, s x n_test
    xt_test: np.ndarray  # each split's transposed test design, s x p x n_test
    fits: list           # each split's ``FittedGlm``, or the exception fitting it alone raises


def _fit_splits(dataset: Dataset, x_full: DesignMatrix, plan: _Plan, rngs) -> _Stack:
    """Draw each split's rows from its own stream and fit all the splits as one stack,
    from the plan's full-data fit.

    Each split's first IRLS pass is the full fit's minus that of the split's
    test rows at the full fit's coefficients (the one-step case deletion of
    Pregibon, 1981): X'WX, the gradient and the log-likelihood are sums over
    rows, and the probabilities are the full fit's own. So that pass reads
    the test rows, a tenth of the rows at the default sizes, instead of the
    training rows; the test design is gathered for it and kept for
    ``_score_stack``. Each split's rows are read off one membership mask of
    the first n_train places of its permutation.
    """
    n, s, n_train, full = dataset.n, len(rngs), plan.n_train, plan.full
    member = np.zeros((s, n), dtype=bool)
    np.put_along_axis(member, np.stack([rng.permutation(n)[:n_train] for rng in rngs]), True,
                      axis=1)
    at = n * np.arange(s)[:, None]  # each split's first place in the flat mask
    train = np.flatnonzero(member).reshape(s, n_train) - at
    test = np.flatnonzero(~member).reshape(s, n - n_train) - at
    xt_test = _gather_rows(x_full, test)
    # the fit may overwrite the stack's gathered training design; a float
    # response leaves no integer copy alive during the fit
    xt, y = _gather_rows(x_full, train), dataset.y.astype(float)[train]
    if full is None:
        return _Stack(train, test, xt_test, _fit_stack(xt, y, x_full.names))
    _, ll, info, grad = _pass_at(xt_test, dataset.y[test], np.tile(full.coef, (s, 1)))
    # the first pass is handed over, not kept here: the fit frees its arrays
    # as its passes replace them
    return _Stack(train, test, xt_test, _fit_stack(xt, y, x_full.names, full.coef, (
        full.prob[train], full.ll - ll, full.info - info, full.grad - grad)))


def _narrow(places: list, *columns) -> tuple:
    """A stack's per-split ``columns`` (arrays and lists) at ``places``; the columns
    themselves when every split stays, so that one split per stack copies nothing."""
    if len(places) == len(columns[0]):
        return columns
    return tuple(c[places] if isinstance(c, np.ndarray) else [c[j] for j in places]
                 for c in columns)


def _search(dataset: Dataset, config: TestConfig, plan: _Plan, train, fits) -> list:
    """Each split's partition of its training rows: the lockstep covariate search, which
    hands back a split's infeasible search as its exception, or quantiles of one score."""
    prob = [fit.fitted_prob for fit in fits]
    if plan.index is not None:
        return _greedy_stack(plan.index, train, dataset.y, prob)
    source = _MTA_PROB_COLUMN if plan.scores is None else config.score_column
    values = prob if plan.scores is None else plan.scores[train]
    return [probability_partition(v, config.k, source=source) for v in values]


def _assign(dataset: Dataset, plan: _Plan, parts, prob, test) -> np.ndarray:
    """Each split's test rows assigned to its partition's groups in one pass (s x n_test)."""
    sources = sorted({src for part in parts for src in part.sources})
    if plan.index is None:  # one source: the fitted probabilities or the score column
        values = dict.fromkeys(sources, prob if plan.scores is None else plan.scores[test])
    else:
        values = {src: dataset.columns[src][test] for src in sources}
    return _assign_stack(parts, values)


def _score_stack(dataset: Dataset, config: TestConfig, plan: _Plan, stack: _Stack) -> list:
    """Everything of a stack of splits after their fits, one stacked pass per layer.

    Each layer runs once on the splits still in the stack, and gives every
    split what it would get alone, so no result depends on the stack.

    Returns one entry per split: its ``SplitOutcome`` with a NaN p-value,
    which ``_with_p_values`` fills in once per test, or the exception the
    split raises alone. Only two layers hand back failures that depend on the
    rows a split draws, each a ``ValueError``: the fit (a single response
    class, rank deficiency) and the search (an infeasible partition);
    ``_plan`` has ruled out the rest. Anything else (a ``CoverageError``,
    TypeError, IndexError, ...) is a bug and propagates instead of being
    counted as a failed split.
    """
    # a new list: the fits in ``stack`` must live until the next stack is fitted (malloc trimming)
    out = list(stack.fits)
    at = [i for i, fit in enumerate(out) if not isinstance(fit, Exception)]  # split of each place
    if not at:
        return out
    fits, train, test, xt_test = _narrow(at, stack.fits, stack.train, stack.test, stack.xt_test)
    coef = np.stack([fit.coef for fit in fits])
    prob = _clamped_logistic(_linear(coef, xt_test))
    parts = _search(dataset, config, plan, train, fits)
    for i, part in zip(at, parts):
        out[i] = part  # a failure stays; a partition gives way to the split's outcome
    keep = [j for j, part in enumerate(parts) if not isinstance(part, Exception)]
    if not keep:
        return out
    at, fits, parts, coef, xt_test, prob, test = _narrow(keep, at, fits, parts, coef, xt_test,
                                                         prob, test)
    groups = _assign(dataset, plan, parts, prob, test)
    y_test = dataset.y[test]
    bags = _bag_values(y_test, prob, groups, [part.size for part in parts])
    corrs = _corrections([bag.statistic for bag in bags],
                         np.stack([fit.fisher_info for fit in fits]),
                         _gradients(coef, xt_test, y_test, groups))
    for i, fit, part, bag, corr in zip(at, fits, parts, bags, corrs):
        max_group = int(np.argmax(bag.contributions))
        out[i] = SplitOutcome(
            statistic=bag.statistic,
            adjusted=corr.adjusted,
            se=corr.se,
            realized_k=bag.realized_k,
            p_value=math.nan,
            partition=part,
            counts_all=_rule_counts(part.groups),
            counts_max_group=_rule_counts(part.groups[max_group:max_group + 1]),
            converged=fit.converged,
            correction_skipped=corr.skipped,
            train_n=plan.n_train,
            test_n=dataset.n - plan.n_train,
        )
    return out


def _with_p_values(outcomes: list) -> list:
    """The outcomes with every scored split's p-value, from one ``chi2_sf`` call.

    Each split's p-value is the chi-squared tail of its adjusted statistic at
    its realized group count; ``chi2_sf`` sums each value's terms on their
    own, so a p-value does not depend on the others. Exceptions pass through.
    """
    scored = [i for i, o in enumerate(outcomes) if isinstance(o, SplitOutcome)]
    p_values = chi2_sf(np.array([outcomes[i].adjusted for i in scored]),
                       np.array([outcomes[i].realized_k for i in scored])).tolist()
    outcomes = list(outcomes)
    for i, p_value in zip(scored, p_values):
        outcomes[i] = replace(outcomes[i], p_value=p_value)
    return outcomes


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
    plan = _plan(config, dataset, x_full)
    [out] = _with_p_values(_score_stack(dataset, config, plan,
                                        _fit_splits(dataset, x_full, plan, [rng])))
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
    plan = _plan(config, dataset, x_full)
    # the larger half of a split sizes the stack: with a small training set on
    # a large file, the test rows are what a stack holds most of
    per_stack = max(1, _STACK_ROWS // max(plan.n_train, dataset.n - plan.n_train))
    # stacks of even size: a short last stack would pay a whole stack's overhead
    per_stack = -(-config.splits // -(-config.splits // per_stack))
    scored = []
    for lo in range(0, config.splits, per_stack):
        rngs = [rng.child(("split", i)) for i in range(lo, min(lo + per_stack, config.splits))]
        stack = _fit_splits(dataset, x_full, plan, rngs)
        scored += _score_stack(dataset, config, plan, stack)
    outcomes = [SplitOutcome.failure(f"{type(out).__name__}: {out}")
                if isinstance(out, Exception) else out for out in _with_p_values(scored)]

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
