"""Covariate-space partitions and the greedy adaptive partition search.

A partition is an ordered list of disjoint groups whose union covers the whole
covariate space; each group is a conjunction of axis-aligned rules (threshold
rules on continuous columns, membership rules on discrete columns). The greedy
search grows a binary tree of such rules on training data, choosing at every
step the cut that maximizes the grouped chi-squared criterion of the two
children, until the target group count is reached or no feasible cut remains.

The continuous cut search works on presorted columns (the presorting of
CART, and the exact-greedy scan over sorted column blocks of XGBoost). Each
continuous column is sorted once per search -- or once per test, since
``greedy_partition`` accepts the stable order of every column as ``order`` --
and each child group's sorted rows are filtered from its parent's. All
continuous columns of a node have the same rows, so they share the ranks of
their candidate thresholds: one call per node, ``_best_threshold_cuts``,
gathers every column's running residual and variance sums at those ranks into
one (column, candidate) array and scores all pairs in one expression. A node
keeps one 1-D row order per column rather than a stacked (columns x rows)
array: at 18,000 rows the stacked arrays are large fresh allocations whose
page faults cost more than the per-column calls they save. Because a stable
sort of a subset equals the parent's stable order restricted to that subset,
the running sums are the ones a fresh per-node sort would give.

Each group's term of the grouped chi-squared value, (residual sum)^2 /
(variance sum), comes from one kernel, ``_group_contributions``, which
``grouped_chi2``, ``criterion_b``, ``gof.bag_statistic`` and
``gof.bag_gradient`` (all 2p perturbations at once) share.

Determinism matters here: ties in the cut search are broken first by larger
criterion value, then by lexicographically smaller source name, then by
smaller threshold (or the earlier label set in candidate order). The values
compared are the computed ones, so this holds only up to rounding: a
threshold cut's running sums and a membership cut's masked sums round
differently, so of two cuts with equal B in exact arithmetic the one with the
larger computed B wins, whatever the name order says.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .numkit import _lower_quantile_index

__all__ = [
    "AxisRule",
    "Group",
    "Partition",
    "PartitionConfig",
    "InfeasiblePartitionError",
    "MissingColumnError",
    "CoverageError",
    "criterion_b",
    "grouped_chi2",
    "candidate_thresholds",
    "candidate_discrete_splits",
    "presort",
    "greedy_partition",
    "assign_groups",
    "probability_partition",
]

# Beyond this many distinct labels, membership splits are restricted to
# contiguous splits of the residual-mean ordering (CART-style reduction)
# instead of full enumeration.
_ENUMERATION_LIMIT = 6


class InfeasiblePartitionError(ValueError):
    """The requested partition cannot be built (e.g. the root admits no split)."""


class MissingColumnError(KeyError):
    """Rows to assign lack a column referenced by the partition."""


class CoverageError(RuntimeError):
    """A row matched zero or several groups; the partition does not tile the space."""


@dataclass(frozen=True)
class AxisRule:
    """A single axis-aligned condition.

    ``op`` is one of:
      * ``"le"`` / ``"gt"``: threshold rule, value <= t or value > t;
      * ``"in"`` / ``"not-in"``: membership rule on a label set. The "not-in"
        side is the designated complement: labels never seen during training
        fail the "in" test and therefore fall to the complement side.
    """

    source: str
    op: str
    threshold: float | None = None
    labels: tuple = ()

    def __post_init__(self):
        if self.op in ("le", "gt"):
            if self.threshold is None or not np.isfinite(self.threshold):
                raise ValueError("threshold rules need a finite threshold")
        elif self.op in ("in", "not-in"):
            if not self.labels:
                raise ValueError("membership rules need a non-empty label set")
        else:
            raise ValueError(f"unknown rule op {self.op!r}")

    def matches(self, columns: dict) -> np.ndarray:
        if self.source not in columns:
            raise MissingColumnError(self.source)
        col = columns[self.source]
        if self.op == "le":
            return np.asarray(col, dtype=float) <= self.threshold
        if self.op == "gt":
            return np.asarray(col, dtype=float) > self.threshold
        inside = np.isin(col, np.asarray(self.labels))
        return inside if self.op == "in" else ~inside

    def to_json(self) -> dict:
        if self.op in ("le", "gt"):
            op = "<=" if self.op == "le" else ">"
            return {"source": self.source, "op": op, "value": self.threshold}
        op = "in" if self.op == "in" else "not in"
        return {"source": self.source, "op": op, "labels": list(self.labels)}


@dataclass(frozen=True)
class Group:
    """A conjunction of axis rules plus the training-row count it captured."""

    rules: tuple
    train_count: int

    def matches(self, columns: dict) -> np.ndarray:
        n = len(next(iter(columns.values())))
        mask = np.ones(n, dtype=bool)
        for rule in self.rules:
            mask &= rule.matches(columns)
        return mask

    def to_json(self) -> dict:
        return {"rules": [r.to_json() for r in self.rules], "train_count": self.train_count}


@dataclass(frozen=True)
class Partition:
    """An ordered list of disjoint, covering groups."""

    groups: tuple
    sources: tuple = ()
    degenerate: bool = False

    def __post_init__(self):
        if not self.groups:
            raise ValueError("a partition needs at least one group")

    @property
    def size(self) -> int:
        return len(self.groups)

    def to_json(self) -> dict:
        return {
            "groups": [g.to_json() for g in self.groups],
            "sources": list(self.sources),
            "degenerate": self.degenerate,
        }


@dataclass(frozen=True)
class PartitionConfig:
    """Search configuration: target group count, minimum group size, sources."""

    k: int
    n_min: int
    continuous: tuple = ()
    discrete: tuple = ()

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if self.n_min < 1:
            raise ValueError("n_min must be at least 1")
        if not (self.continuous or self.discrete):
            raise ValueError("at least one splitting source must be named")
        object.__setattr__(self, "continuous", tuple(self.continuous))
        object.__setattr__(self, "discrete", tuple(self.discrete))
        seen = set()
        for s in self.continuous + self.discrete:
            if s in seen:
                where = ("in both continuous and discrete"
                         if s in self.continuous and s in self.discrete else "twice")
                raise ValueError(f"splitting source {s!r} is listed {where}")
            seen.add(s)


# ---------------------------------------------------------------------------
# Grouped chi-squared criterion
# ---------------------------------------------------------------------------


def _group_contributions(y, p, g, n_groups: int):
    """Each group's (residual sum)^2 / (variance sum) and the non-empty groups.

    Returns ``(contrib, live)``; an empty group contributes 0. ``n_groups`` is
    only a minimum length: the arrays reach the largest label in ``g``.

    ``p`` may also stack m probability vectors of the same rows (m x n); then
    ``contrib`` is m x width, from one pair of weighted ``bincount`` calls in
    which vector c's labels are offset by c * width. A bin still adds its
    rows in row order, so each vector's sums are the ones it would get alone.
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=int)
    counts = np.bincount(g, minlength=n_groups)
    width = counts.size  # max(n_groups, largest label + 1)
    live = counts > 0
    m = math.prod(p.shape[:-1])  # 1 for a single vector
    labels = (g + width * np.arange(m)[:, None]).ravel()
    shape = (*p.shape[:-1], width)
    resid_sums = np.bincount(labels, weights=(np.asarray(y, dtype=float) - p).ravel(),
                             minlength=m * width).reshape(shape)
    var_sums = np.bincount(labels, weights=(p * (1.0 - p)).ravel(),
                           minlength=m * width).reshape(shape)
    contrib = np.divide(resid_sums**2, var_sums, out=np.zeros(shape), where=live)
    return contrib, live


def grouped_chi2(y, phat, group_idx, n_groups: int | None = None):
    """Sum over groups of (residual sum)^2 / (variance sum).

    Returns ``(statistic, realized)`` where ``realized`` counts non-empty
    groups; empty groups contribute zero.
    """
    if np.size(y) == 0:
        raise ValueError("no rows to group")
    contrib, live = _group_contributions(y, phat, group_idx, n_groups or 0)
    return float(np.sum(contrib[live])), int(live.sum())


def criterion_b(y, phat, group_idx, n_groups: int | None = None) -> float:
    """Training-set partition criterion: the grouped chi-squared value.

    ``phat`` must lie strictly inside (0, 1) so the variance sums are positive.
    """
    p = np.asarray(phat, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("fitted probabilities must lie strictly in (0, 1)")
    stat, _ = grouped_chi2(y, p, group_idx, n_groups)
    return stat


# ---------------------------------------------------------------------------
# Candidate cuts
# ---------------------------------------------------------------------------


def candidate_thresholds(values, n_min: int) -> list:
    """Feasible threshold candidates for one continuous column of one group.

    With n0 rows and rho = floor(n0 / n_min), the candidates are the j/rho
    lower empirical quantiles for j = 1..rho-1, deduplicated, keeping only
    thresholds that leave at least n_min rows on each side. Returns an empty
    list when no valid threshold exists.
    """
    if n_min < 1:
        raise ValueError("n_min must be at least 1")
    srt = np.sort(np.asarray(values, dtype=float))
    n0 = srt.size
    rho = n0 // n_min
    if rho < 2:
        return []
    left, qs = _quantile_cuts(srt, rho)
    return qs[(left >= n_min) & (n0 - left >= n_min)].tolist()


def _quantile_cuts(srt: np.ndarray, k: int) -> tuple:
    """The distinct j/k lower quantiles (j = 1..k-1) of an ascending sample.

    Returns ``(left, qs)``: ``qs`` ascending and ``left`` the number of
    values ``<=`` each. ``candidate_thresholds`` and ``probability_partition``
    both cut at these.
    """
    qs = srt[_lower_quantile_index(srt.size, np.arange(1, k) / k)]
    qs = qs[np.concatenate(([True], qs[1:] > qs[:-1]))]
    return np.searchsorted(srt, qs, side="right"), qs


def candidate_discrete_splits(labels, n_min: int, residuals=None) -> list:
    """Feasible binary label-set splits for one discrete column of one group.

    Each split is returned as the labels on the "in" side, sorted by ``str``;
    the other side is the complement. With m <= 6 distinct labels all
    2^(m-1) - 1 set splits are enumerated; with m > 6 the labels are ordered
    by within-group mean residual and only the m - 1 contiguous splits of
    that ordering are considered (``residuals`` is required then).
    """
    labels, _, sides = _label_sides(np.asarray(labels), n_min, residuals)
    return [tuple(sorted(labels[side].tolist(), key=str)) for side in sides]


def _label_sides(labs, n_min: int, residuals):
    """Code a group's labels once and list its feasible "in" sides.

    Returns ``(labels, codes, sides)``: the sorted distinct labels, each row's
    index into them, and a boolean (candidate x label) array of the sides
    that leave ``n_min`` rows on both sides, in candidate order: for m <= 6
    labels every subset holding the first label, counted in binary; for m > 6
    the prefixes of the labels ranked by (mean residual, ``str(label)``).
    """
    labels, codes = np.unique(labs, return_inverse=True)
    m = labels.size
    if m < 2:
        return labels, codes, np.empty((0, m), dtype=bool)
    if m <= _ENUMERATION_LIMIT:
        odd = 2 * np.arange(2 ** (m - 1) - 1) + 1  # bit 0, the first label, always set
        sides = (odd[:, None] >> np.arange(m) & 1).astype(bool)
    else:
        if residuals is None:
            raise ValueError("residuals are required to order more than "
                             f"{_ENUMERATION_LIMIT} distinct labels")
        r = np.asarray(residuals, dtype=float)
        keys = [(r[codes == c].mean(), str(lab)) for c, lab in enumerate(labels.tolist())]
        rank = np.argsort(sorted(range(m), key=keys.__getitem__))  # each label's place
        sides = rank < np.arange(1, m)[:, None]
    size = sides @ np.bincount(codes, minlength=m)
    return labels, codes, sides[(size >= n_min) & (codes.size - size >= n_min)]


# ---------------------------------------------------------------------------
# Greedy search
# ---------------------------------------------------------------------------


def _best_threshold_cuts(columns, orders, rv, n_min):
    """Best threshold cut over every continuous column of one node, or None.

    ``orders`` holds the node's rows in the ascending order of each of
    ``columns``, and ``rv`` stacks the residuals and variances of all rows.
    The columns share the node's n0 and hence the candidate ranks. Each
    column adds its running sums at its candidates' left ends (every run of
    ties goes left whole) to one (column, candidate) array, and one
    expression scores every pair.

    Returns ``(b, column, threshold)``: the children's B, the winning
    column's index and its threshold. The flat ``argmax`` keeps the first
    maximum in row-major order: the earlier column, then the smaller
    threshold. Equal thresholds have equal left counts and equal B, so
    duplicates need no removal.
    """
    n_cols, n0 = len(orders), orders[0].size
    rho = n0 // n_min
    ranks = _lower_quantile_index(n0, np.arange(1, rho) / rho)
    m = ranks.size
    last = np.empty((n_cols, m + 1), dtype=np.intp)  # last left row per cut, then row n0 - 1
    last[:, m] = n0 - 1
    sums = np.empty((n_cols, 2, m + 1))
    # ndarray methods: the np.* wrappers cost as much as the work at small n0
    for j, (col, o) in enumerate(zip(columns, orders)):
        vs = col.take(o)
        last[j, :m] = vs.searchsorted(vs[ranks], side="right") - 1
        cum = rv.take(o, axis=1)
        cum.cumsum(axis=1, out=cum)
        # mode="clip" writes straight into ``out``; "raise" would buffer it
        cum.take(last[j], axis=1, out=sums[j], mode="clip")
    ok = (last[:, :m] >= n_min - 1) & (last[:, :m] < n0 - n_min)
    lr, lv = sums[:, 0, :m], sums[:, 1, :m]
    tot_r, tot_v = sums[:, 0, m:], sums[:, 1, m:]
    b = np.divide((tot_r - lr) ** 2, tot_v - lv, out=np.full(ok.shape, -np.inf), where=ok)
    b += lr**2 / lv
    i = int(np.argmax(b))
    if not ok.flat[i]:
        return None
    j = i // m
    return float(b.flat[i]), j, float(columns[j][orders[j][ranks[i % m]]])


def _best_discrete_cut(labs, resid, var, n_min):
    """Best membership split for one column: (children B, label tuple) or None."""
    labels, codes, sides = _label_sides(labs, n_min, resid)
    tot_r, tot_v = float(resid.sum()), float(var.sum())
    best = None
    for side in sides:  # candidate order is deterministic; ties keep the first
        mask = side[codes]  # masked sums: bincount sums round differently, flipping near-ties
        lr, lv = float(resid[mask].sum()), float(var[mask].sum())
        b = lr**2 / lv + (tot_r - lr) ** 2 / (tot_v - lv)
        if best is None or b > best[0]:
            best = (float(b), side)
    return None if best is None else (best[0], tuple(sorted(labels[best[1]].tolist(), key=str)))


def presort(columns: dict, names) -> dict:
    """Stable ascending row order of each named column, keyed by name.

    ``greedy_partition`` takes this as its ``order`` argument; a test that
    runs many searches over subsets of the same rows computes it once.
    """
    return {s: np.argsort(np.asarray(columns[s], dtype=float), kind="stable") for s in names}


def greedy_partition(
    config: PartitionConfig, columns: dict, y, phat, order: dict | None = None
) -> Partition:
    """Tree-based greedy adaptive partition of the covariate space.

    Starting from the whole space, repeatedly scans the current group (queue
    order, breadth-first) for the best feasible cut across all sources and
    replaces it by its two children, until ``config.k`` groups exist or no
    group admits a cut. Every returned group holds at least ``config.n_min``
    training rows.

    ``order`` maps every continuous source to the stable ascending order of
    its rows, as ``presort`` returns it; it is computed here when not given.
    Each group's sorted rows are filtered from its parent's, so no column is
    sorted more than once per call, and each group's continuous cuts are
    scored in one call.

    Raises:
        InfeasiblePartitionError: when even the root cannot be split.
    """
    y = np.asarray(y, dtype=float)
    p = np.asarray(phat, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("fitted probabilities must lie strictly in (0, 1)")
    n = y.size
    resid = y - p
    var = p * (1.0 - p)

    for s in sorted(config.continuous + config.discrete):
        if s not in columns:
            raise MissingColumnError(s)
    ordered = sorted(config.continuous)
    discrete = sorted(config.discrete)
    continuous = [np.asarray(columns[s], dtype=float) for s in ordered]
    cols = dict(zip(ordered, continuous)) | {s: np.asarray(columns[s]) for s in discrete}
    if order is None:
        order = presort(cols, ordered)
    rv = np.stack([resid, var])

    # A node is (rows in ascending index order, rules, rows of the node in
    # each continuous column's ascending order). A stable sort of a subset
    # equals the parent's stable order filtered to that subset, so every
    # running sum and tie matches a fresh per-node sort.
    def best_split(node):
        idx, _, orders = node
        if idx.size < 2 * config.n_min:
            return None
        best = None  # (b, source, kind, payload)
        if ordered:
            found = _best_threshold_cuts(continuous, orders, rv, config.n_min)
            if found is not None:
                best = (found[0], ordered[found[1]], "le", found[2])
        for s in discrete:  # on equal B the lexicographically smaller source wins
            found = _best_discrete_cut(cols[s][idx], resid[idx], var[idx], config.n_min)
            if found is not None and (best is None or found[0] > best[0]
                                      or (found[0] == best[0] and s < best[1])):
                best = (found[0], s, "in", found[1])
        return best

    def children(node, found):
        idx, rules, orders = node
        _, source, kind, payload = found
        if kind == "le":
            pair = (AxisRule(source, "le", threshold=payload),
                    AxisRule(source, "gt", threshold=payload))
        else:
            pair = (AxisRule(source, "in", labels=payload),
                    AxisRule(source, "not-in", labels=payload))
        # the rule is evaluated on the node's rows only; rows outside the
        # node are never read from either side
        left = np.zeros(n, dtype=bool)
        left[idx] = pair[0].matches({source: cols[source][idx]})
        # compress gives what boolean indexing gives, several times
        # faster on scattered masks
        return [
            (idx.compress(side[idx]), rules + (rule,), [o.compress(side[o]) for o in orders])
            for side, rule in zip((left, ~left), pair)
        ]

    queue = deque([(np.arange(n), (), [np.asarray(order[s]) for s in ordered])])
    finished = []
    total = 1
    while queue and total < config.k:
        node = queue.popleft()
        found = best_split(node)
        if found is None:
            finished.append(node)
            continue
        queue.extend(children(node, found))
        total += 1
    if total == 1:
        raise InfeasiblePartitionError(
            "the root group admits no feasible split; lower n_min or provide more data"
        )

    nodes = finished + list(queue)
    groups = tuple(Group(rules=r, train_count=int(i.size)) for i, r, _ in nodes)
    used = sorted({rule.source for g in groups for rule in g.rules})
    return Partition(groups=groups, sources=tuple(used))


def assign_groups(partition: Partition, columns: dict) -> np.ndarray:
    """Map each row to the index of the group containing it (0-based).

    Raises:
        MissingColumnError: if a referenced column is absent.
        CoverageError: if any row matches zero or several groups.
    """
    n = len(next(iter(columns.values())))
    hits = np.zeros(n, dtype=int)
    idx = np.full(n, -1, dtype=int)
    for gi, group in enumerate(partition.groups):
        mask = group.matches(columns)
        hits += mask
        idx[mask & (idx < 0)] = gi
    if np.any(hits != 1):
        bad = int(np.flatnonzero(hits != 1)[0])
        raise CoverageError(f"row {bad} matched {int(hits[bad])} groups instead of 1")
    return idx


def probability_partition(scores, k: int, source: str = "score") -> Partition:
    """Partition the unit interval of a score column by its training quantiles.

    Thresholds sit at the j/k lower empirical quantiles of the training
    scores (j = 1..k-1, deduplicated); groups are the induced intervals
    (score <= t1 | t1 < score <= t2 | ... | score > t_last). All-equal scores
    collapse to a single group flagged as degenerate.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("empty score sample")
    if np.any(s < 0.0) or np.any(s > 1.0):
        raise ValueError("scores must lie in [0, 1]")
    left, qs = _quantile_cuts(np.sort(s), k)
    # A threshold at the max score would leave an empty top interval; drop it.
    keep = left < s.size
    thresholds = qs[keep].tolist()
    if not thresholds:
        return Partition(
            groups=(Group(rules=(), train_count=int(s.size)),),
            sources=(source,),
            degenerate=True,
        )
    counts = np.diff(left[keep], prepend=0, append=s.size).tolist()
    groups = []
    for i, count in enumerate(counts):
        rules = []
        if i > 0:
            rules.append(AxisRule(source, "gt", threshold=thresholds[i - 1]))
        if i < len(thresholds):
            rules.append(AxisRule(source, "le", threshold=thresholds[i]))
        groups.append(Group(rules=tuple(rules), train_count=count))
    return Partition(groups=tuple(groups), sources=(source,))
