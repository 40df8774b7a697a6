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
  It fits its splits in stacks of ``max(1, _STACK_ROWS // n_train)``: the
  rows of a stack's splits are drawn from their own streams, the stack is
  fitted by one lockstep IRLS loop (``glm._fit_stack``), and each split then
  runs its search, statistic and correction alone. A split's fit, and so the
  report, does not depend on the stack size; ``single_split_test`` is the
  one-split case.

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
from .glm import DesignMatrix, FittedGlm, _clamped_logistic, _fit_stack, predict_prob
from .numkit import RandomSource, chi2_sf, empirical_quantiles, gaussian_quantile
from .partition import (
    CoverageError,
    Partition,
    PartitionConfig,
    _group_contributions,
    assign_groups,
    greedy_partition,
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


def bag_statistic(y_test, phat_test, group_idx, k: int) -> BagValue:
    """Sum over groups of (sum of residuals)^2 / (sum of variances) on test rows.

    Empty groups contribute nothing and reduce ``realized_k`` accordingly.
    """
    p = np.asarray(phat_test, dtype=float)
    if p.size == 0:
        raise ValueError("empty test set")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("test probabilities must lie strictly in (0, 1)")
    contrib, live = _group_contributions(y_test, p, group_idx, k)
    return BagValue(statistic=float(np.sum(contrib[live])), realized_k=int(live.sum()),
                    contributions=tuple(contrib.tolist()))


@dataclass(frozen=True)
class CorrectionResult:
    adjusted: float
    se: float
    skipped: bool = False


def bag_gradient(model: FittedGlm, x_test: DesignMatrix, y_test, group_idx, k: int) -> np.ndarray:
    """Gradient of the statistic with respect to the coefficients.

    Central finite differences through the full test pipeline (re-evaluating
    test probabilities and the grouped statistic) with the partition and test
    rows held fixed; per-coordinate step 1e-5 * (1 + |beta_j|). All 2p
    perturbed coefficient vectors are scored in one pass: one product with
    the test design, one logistic and one set of group sums.
    """
    beta = np.asarray(model.coef, dtype=float)
    h = 1e-5 * (1.0 + np.abs(beta))
    steps = np.diag(h)
    coefs = beta + np.concatenate([steps, -steps])  # beta + h_j e_j, then beta - h_j e_j
    prob = _clamped_logistic(coefs @ x_test.values.T)
    contrib, live = _group_contributions(y_test, prob, group_idx, k)
    stat = contrib[:, live].sum(axis=1)
    return (stat[:beta.size] - stat[beta.size:]) / (2.0 * h)


_Z95 = 1.6448536269514722  # 0.95 standard normal quantile


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
    """
    info = np.asarray(model.fisher_info, dtype=float)
    grad = bag_gradient(model, x_test, y_test, group_idx, bag.realized_k)
    try:
        solved = np.linalg.solve(info, grad)
        quad = float(grad @ solved)
    except np.linalg.LinAlgError:
        return CorrectionResult(adjusted=bag.statistic, se=0.0, skipped=True)
    if not np.isfinite(quad):
        return CorrectionResult(adjusted=bag.statistic, se=0.0, skipped=True)
    se = math.sqrt(max(quad, 0.0))
    return CorrectionResult(adjusted=max(bag.statistic - se * _Z95, 0.0), se=se)


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


def _plan(config: TestConfig, dataset: Dataset) -> tuple:
    """What every split of one test shares: ``(n_train, partition config, order, scores)``.

    Resolves the defaults and checks the sizes once, so a configuration that
    no split can satisfy raises ``ValueError`` instead of failing every split.
    For the covariate search it also sorts each continuous column once over
    all rows (``order``); each split filters its training rows out of that.
    For ``partition_by="score"`` it reads and range-checks the score column
    once (``scores``).
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
    if config.partition_by == "score":
        scores = dataset.numeric(config.score_column)
        if not np.all((scores >= 0.0) & (scores <= 1.0)):
            raise ValueError(f"score column {config.score_column!r} must lie in [0, 1]")
        return n_train, None, None, scores
    if config.partition_by == "mta-prob":
        return n_train, None, None, None
    cont = config.continuous if config.continuous is not None else dataset.continuous_names
    disc = config.discrete if config.discrete is not None else dataset.discrete_names
    pcfg = PartitionConfig(k=config.k, n_min=n_min, continuous=cont, discrete=disc)
    return n_train, pcfg, presort(dataset.columns, pcfg.continuous), None


def _take_rows(x: DesignMatrix, idx: np.ndarray) -> DesignMatrix:
    """Rows ``idx`` of a column-major design, gathered into a column-major design."""
    return DesignMatrix(x.values.T.take(idx, axis=1).T, x.names)


# Training rows per stack of split fits. A stack is fitted by one lockstep IRLS
# loop, so the fit's per-call overhead is paid once per stack. Measured on
# setting 3 (425 training rows, 100 splits, one CPU): 0.146 s per test with one
# split per stack, 0.095 s in stacks of 9 (4,096 rows), 0.091 s in stacks of
# 19 (8,192 rows), 0.092 s in one stack of 100; larger stacks only hold more
# memory. A constant, not an option: it only routes work, and no result
# depends on it.
_STACK_ROWS = 8192


def _fit_splits(dataset: Dataset, x_full: DesignMatrix, n_train: int, rngs) -> list:
    """Draw each split's rows from its own stream and fit all the splits as one stack.

    Returns ``(train_idx, test_idx, fit)`` per stream, where ``fit`` is the
    split's ``FittedGlm`` or the exception fitting it alone raises.
    """
    n = dataset.n
    xt_full = np.asfortranarray(x_full.values).T  # p x n, a view of a column-major design
    rows = []
    for rng in rngs:
        perm = rng.permutation(n)
        rows.append((np.sort(perm[:n_train]), np.sort(perm[n_train:])))
    xt = np.empty((len(rows), xt_full.shape[0], n_train))
    for out, (train_idx, _) in zip(xt, rows):
        # the indices are in range; "clip" only skips the buffered bounds check
        np.take(xt_full, train_idx, axis=1, out=out, mode="clip")
    y = np.stack([dataset.y[train_idx] for train_idx, _ in rows])
    fits = _fit_stack(xt, y, x_full.names)
    return [(train_idx, test_idx, fit) for (train_idx, test_idx), fit in zip(rows, fits)]


def _score_split(
    dataset: Dataset,
    x_full: DesignMatrix,
    config: TestConfig,
    plan: tuple,
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    model: FittedGlm,
) -> SplitOutcome:
    """Everything of one split after its fit: partition, groups, statistic and p-value."""
    n = dataset.n
    n_train, pcfg, order, scores = plan
    x_test = _take_rows(x_full, test_idx)
    y_train = dataset.y[train_idx]
    y_test = dataset.y[test_idx]
    phat_train = model.fitted_prob
    phat_test = predict_prob(model, x_test)

    if pcfg is not None:
        # Rank of each training row among the training rows: the split's
        # sorted order follows from the shared one in O(n), with no sort.
        member = np.zeros(n, dtype=bool)
        member[train_idx] = True
        rank = np.cumsum(member) - 1
        train_order = {s: rank[np.compress(member[o], o)] for s, o in order.items()}
        train_cols = {s: dataset.columns[s][train_idx] for s in pcfg.continuous + pcfg.discrete}
        part = greedy_partition(pcfg, train_cols, y_train, phat_train, order=train_order)
        groups = assign_groups(part, {s: dataset.columns[s][test_idx] for s in part.sources})
    else:
        if scores is None:
            source, train_scores, test_scores = _MTA_PROB_COLUMN, phat_train, phat_test
        else:
            source = config.score_column
            train_scores, test_scores = scores[train_idx], scores[test_idx]
        part = probability_partition(train_scores, config.k, source=source)
        groups = assign_groups(part, {source: test_scores})

    bag = bag_statistic(y_test, phat_test, groups, part.size)
    corr = corrected_statistic(bag, model, x_test, y_test, groups)
    p_value = chi2_sf(corr.adjusted, bag.realized_k)
    max_group = int(np.argmax(bag.contributions))
    return SplitOutcome(
        statistic=bag.statistic,
        adjusted=corr.adjusted,
        se=corr.se,
        realized_k=bag.realized_k,
        p_value=p_value,
        partition=part,
        counts_all=_rule_counts(part.groups),
        counts_max_group=_rule_counts(part.groups[max_group:max_group + 1]),
        converged=model.converged,
        correction_skipped=corr.skipped,
        train_n=n_train,
        test_n=n - n_train,
    )


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
    plan = _plan(config, dataset)
    [(train_idx, test_idx, model)] = _fit_splits(dataset, x_full, plan[0], [rng])
    if isinstance(model, Exception):
        raise model
    return _score_split(dataset, x_full, config, plan, train_idx, test_idx, model)


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
    not converge or that raised a split-dependent error (``ValueError`` such
    as a single-class training set or an infeasible partition,
    ``CoverageError``, ``LinAlgError``) are excluded from the median and
    counted as failed; when more than half the splits fail the report is
    inconclusive. Other exceptions propagate.
    """
    x_full = design_matrix(dataset, mta)
    plan = _plan(config, dataset)
    per_stack = max(1, _STACK_ROWS // plan[0])
    outcomes = []
    for lo in range(0, config.splits, per_stack):
        rngs = [rng.child(("split", i)) for i in range(lo, min(lo + per_stack, config.splits))]
        for train_idx, test_idx, model in _fit_splits(dataset, x_full, plan[0], rngs):
            try:
                if isinstance(model, Exception):
                    raise model  # the fit failed for this split alone
                out = _score_split(dataset, x_full, config, plan, train_idx, test_idx, model)
            # Failures that depend on the rows a split draws: ValueError covers a
            # single response class, rank deficiency, an infeasible partition and
            # the bag_statistic checks. Anything else (TypeError, IndexError, ...)
            # is a bug and propagates instead of being counted as a failed split.
            except (ValueError, CoverageError, np.linalg.LinAlgError) as exc:
                out = SplitOutcome.failure(f"{type(exc).__name__}: {exc}")
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
