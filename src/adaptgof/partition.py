"""Covariate-space partitions and the greedy adaptive partition search.

A partition is an ordered list of disjoint groups whose union covers the whole
covariate space; each group is a conjunction of axis-aligned rules (threshold
rules on continuous columns, membership rules on discrete columns). The greedy
search grows a binary tree of such rules on training data, choosing at every
step the cut that maximizes the grouped chi-squared criterion of the two
children, until the target group count is reached or no feasible cut remains.

The continuous cut search works on presorted columns (the presorting of
CART, and the exact-greedy scan over sorted column blocks of XGBoost). One
search index (``_search_index``) holds what the search reads of the columns:
each continuous column sorted and ranked, and each discrete column coded.
A test builds it once, over all its rows, for all its splits (``gof._plan``);
each split filters its training rows out of it, and each child group's
sorted rows are filtered from its parent's. Because a stable sort of a subset
equals the parent's stable order restricted to that subset, the running sums
are the ones a fresh per-node sort would give.

The search runs every split of a stack in lockstep (``_greedy_stack``;
``greedy_partition`` is its one-split case): each step pops the next queued
node of every split still growing and scores the threshold cuts of all of
them in one call, ``_best_threshold_cuts``. All continuous columns of a node
have the same rows, so they share the ranks of their candidate thresholds.
For each column, the step's nodes lie one per row of a zero-padded
(node x row) array, one complex ``cumsum`` gives every node's running
residual and variance sums, and one expression scores every (column, node,
candidate) triple. The layout keeps one such array per column and never one
(columns x rows) array per node: at 18,000 rows those per-node arrays are
large fresh allocations whose page faults cost more than the calls they
save. Membership cuts are scored node by node, from the index's label
codes. The held-out rows of every split of a stack are assigned to their
groups in one pass (``_assign_stack``; ``assign_groups`` is its one-split
case).

Each group's term of the grouped chi-squared value, (residual sum)^2 /
(variance sum), comes from one kernel, ``_group_contributions``, which
``grouped_chi2``, ``criterion_b`` and the statistic and its gradient in
``gof`` (every split of a stack, and all 2p perturbations of each, at once)
share.

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
            if self.threshold is None or not math.isfinite(self.threshold):
                raise ValueError("threshold rules need a finite threshold")
        elif self.op in ("in", "not-in"):
            if not self.labels:
                raise ValueError("membership rules need a non-empty label set")
        else:
            raise ValueError(f"unknown rule op {self.op!r}")

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

    ``p`` may also stack probability vectors (shape ... x n), with ``y`` and
    ``g`` broadcast against it: the splits of a stack, or the 2p perturbed
    vectors of each. Then ``contrib`` is ... x width and ``live`` has the
    leading shape of ``g``, from one set of ``bincount`` calls in which
    vector c's labels are offset by c * width. A bin still adds its rows in
    row order, so each vector's sums are the ones it would get alone.
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(g, dtype=int)
    width = max(n_groups, int(g.max(initial=-1)) + 1)
    sets = g.reshape(-1, g.shape[-1])  # the distinct label vectors
    live = np.bincount((sets + width * np.arange(len(sets))[:, None]).ravel(),
                       minlength=len(sets) * width).reshape(*g.shape[:-1], width) > 0
    lead = p.shape[:-1]
    m = math.prod(lead)  # 1 for a single vector
    labels = (g + width * np.arange(m).reshape(*lead, 1)).ravel()
    shape = (*lead, width)
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
    if not ((p > 0.0) & (p < 1.0)).all():
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
    labels, codes = np.unique(np.asarray(labels), return_inverse=True)
    sides = _label_sides(labels, codes, n_min, residuals)
    return [tuple(sorted(labels[side].tolist(), key=str)) for side in sides]


def _label_sides(labels, codes, n_min: int, residuals):
    """The feasible "in" sides of a group's coded labels.

    ``labels`` are the group's sorted distinct labels and ``codes`` each
    row's index into them. Returns a boolean (candidate x label) array of the
    sides that leave ``n_min`` rows on both sides, in candidate order: for
    m <= 6 labels every subset holding the first label, counted in binary;
    for m > 6 the prefixes of the labels ranked by (mean residual,
    ``str(label)``).
    """
    m = labels.size
    if m < 2:
        return np.empty((0, m), dtype=bool)
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
    return sides[(size >= n_min) & (codes.size - size >= n_min)]


# ---------------------------------------------------------------------------
# Greedy search
# ---------------------------------------------------------------------------


def _best_threshold_cuts(srcs, keys, rv, n0, n_min):
    """Best threshold cut over every continuous column of each of a nodes.

    The nodes' rows are concatenated: node t holds positions
    ``start[t]:start[t] + n0[t]`` of ``srcs[j]``, its flat rows in the
    ascending order of continuous column j. The nodes belong to distinct
    splits, in split order. ``keys[j]`` gives every flat row its tie key in
    column j: rows of one split with equal values share a key, keys ascend
    with the value within a split and from one split to the next. ``rv``
    gives every flat row its residual + 1j * variance, and 0 at the padding
    row.

    All nodes and columns share one set of array operations. The nodes' rows
    of a column are laid out one node per row of a zero-padded (node x row)
    array, and one complex ``cumsum`` gives every node's running residual and
    variance sums: each lane adds in row order, and padding after a node's
    end leaves its prefix sums as they are. A node's candidates are the ranks
    of its own n0 (padded to the longest list, and never feasible there);
    each candidate's left end is the last row of its run of ties, found by
    one ``searchsorted`` over the nodes' tie keys, which ascend across the
    concatenation. One expression scores every (column, node, candidate)
    triple.

    Returns ``(b, hit, col, rank, last)``, one entry per node: the best B,
    whether that cut is feasible, its column, the rank of its threshold row
    and the position of its last left row (both within the node's rows). The
    ``argmax`` over each node's (column, candidate) block keeps the first
    maximum: the earlier column, then the smaller threshold. Equal thresholds
    have equal left counts and equal B, so duplicates need no removal.
    """
    a, n_cols, width = n0.size, len(srcs), int(n0.max())
    start = np.cumsum(n0) - n0
    rho = n0 // n_min
    m = int(rho.max()) - 1
    j = np.arange(1, m + 1)
    ranks = _lower_quantile_index(n0[:, None], j / rho[:, None])
    at = start[:, None] + ranks  # each candidate's threshold row, as a position in srcs
    cell = np.arange(a)[:, None] * width  # each node's first cell of the padded array
    # Each column's rows go through one padded index array (a stack of one
    # split, or of equal nodes, needs no padding) into one buffer: per-column
    # arrays would hold a stack's rows several times over.
    padded = None
    if not (n0 == width).all():
        padded = np.full(a * width, rv.size - 1)
        pad = np.arange(n0.sum()) + np.repeat(cell[:, 0] - start, n0)
    cum = np.empty((a, width), dtype=complex)
    ends = np.empty((a, m + 1), dtype=np.intp)  # last left row per candidate, then the node's last
    ends[:, m] = n0 - 1
    last = np.empty((n_cols, a, m), dtype=np.intp)
    sums = np.empty((n_cols, a, m + 1), dtype=complex)
    # ndarray methods: the np.* wrappers cost as much as the work at small n0
    for c, (src, key) in enumerate(zip(srcs, keys)):
        tie = key.take(src)
        last[c] = tie.searchsorted(tie.take(at), side="right") - 1 - start[:, None]
        ends[:, :m] = last[c]
        if padded is not None:
            padded[pad] = src
        # mode="clip" writes straight into ``out``; "raise" would buffer it
        rv.take(src if padded is None else padded, out=cum.reshape(-1), mode="clip")
        cum.cumsum(axis=1, out=cum)
        cum.take(ends + cell, out=sums[c], mode="clip")
    ok = (j < rho[:, None]) & (last >= n_min - 1) & (last < (n0 - n_min)[:, None])
    lr, lv = sums[:, :, :m].real, sums[:, :, :m].imag
    tot_r, tot_v = sums[:, :, m:].real, sums[:, :, m:].imag
    b = np.divide((tot_r - lr) ** 2, tot_v - lv, out=np.full(ok.shape, -np.inf), where=ok)
    b += lr**2 / lv
    col, cand = np.divmod(b.transpose(1, 0, 2).reshape(a, n_cols * m).argmax(axis=1), m)
    node = np.arange(a)
    return (b[col, node, cand], ok[col, node, cand], col, ranks[node, cand],
            last[col, node, cand])


def _best_discrete_cut(labels, codes, resid, var, n_min):
    """Best membership split for one column: (children B, label tuple) or None.

    ``labels`` are the column's sorted distinct labels and ``codes`` each of
    the group's rows' index into them; labels the group lacks take no part.
    """
    present = np.bincount(codes, minlength=labels.size) > 0
    labels, codes = labels[present], (np.cumsum(present) - 1).take(codes)
    tot_r, tot_v = float(resid.sum()), float(var.sum())
    best = None
    for side in _label_sides(labels, codes, n_min, resid):  # ties keep the first
        mask = side[codes]  # masked sums: bincount sums round differently, flipping near-ties
        lr, lv = float(resid[mask].sum()), float(var[mask].sum())
        b = lr**2 / lv + (tot_r - lr) ** 2 / (tot_v - lv)
        if best is None or b > best[0]:
            best = (float(b), side)
    return None if best is None else (best[0], tuple(sorted(labels[best[1]].tolist(), key=str)))


def _search_index(columns: dict, config: PartitionConfig) -> tuple:
    """What the search reads of the columns, for every search over their rows.

    Returns ``(config, continuous, coded)``. ``continuous`` maps each
    continuous source to ``(values, order, ranks)``: its float values, their
    stable ascending row order, and their dense ranks, which rows with equal
    values share and which ascend with the value, so that the search finds
    the last row of a run of ties in a group by one integer ``searchsorted``.
    ``coded`` maps each discrete source to ``(labels, codes)``: its sorted
    distinct labels and each row's index into them, since ``np.unique`` over
    strings would cost most of a group's membership cuts. A search over a
    subset of the rows keeps their order, ties and codes.

    Raises:
        ValueError: if a continuous source holds a value that is not finite.
    """
    continuous = {}
    for s in config.continuous:
        v = np.asarray(columns[s], dtype=float)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"continuous column {s!r} is not finite at row {bad[0]}")
        order = np.argsort(v, kind="stable")
        srt = v.take(order)
        rank = np.zeros(order.size, dtype=np.intp)
        np.cumsum(srt[1:] != srt[:-1], out=rank[1:])
        ranks = np.empty_like(rank)
        ranks.put(order, rank)
        continuous[s] = (v, order, ranks)
    coded = {s: np.unique(np.asarray(columns[s]), return_inverse=True) for s in config.discrete}
    return config, continuous, coded


def greedy_partition(config: PartitionConfig, columns: dict, y, phat) -> Partition:
    """Tree-based greedy adaptive partition of the covariate space.

    Starting from the whole space, repeatedly scans the current group (queue
    order, breadth-first) for the best feasible cut across all sources and
    replaces it by its two children, until ``config.k`` groups exist or no
    group admits a cut. Every returned group holds at least ``config.n_min``
    training rows.

    This is the one-split case of the lockstep search of a stack of splits,
    ``_greedy_stack``. It builds the search index for its one search and
    uses it once; a test builds one index for all its splits.

    Raises:
        MissingColumnError: if a source is not in ``columns``.
        ValueError: if a continuous source holds a value that is not finite,
            or a probability is not strictly inside (0, 1).
        InfeasiblePartitionError: when even the root cannot be split.
    """
    for s in sorted(config.continuous + config.discrete):
        if s not in columns:
            raise MissingColumnError(s)
    index = _search_index(columns, config)
    p = np.asarray(phat, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise ValueError("fitted probabilities must lie strictly in (0, 1)")
    y = np.asarray(y, dtype=float)
    [part] = _greedy_stack(index, np.arange(y.size)[None], y, p[None])
    if isinstance(part, Exception):
        raise part
    return part


def _root_lanes(orders: list, rows: np.ndarray, discrete: bool) -> list:
    """Every split's training rows as flat rows, split after split, in each of
    the continuous columns' ``orders`` and then, with discrete sources, in row
    order: one array per lane.

    Each split's order follows from the shared one in O(n), with no sort.
    """
    s, n = rows.shape
    lanes = []
    if orders:
        member = np.zeros((s, orders[0].size), dtype=bool)
        np.put_along_axis(member, rows, True, axis=1)
        flat = (np.cumsum(member) - 1).reshape(member.shape)  # i * n + rank in split i
        for o in orders:
            lanes.append(flat.take(o, axis=1).compress(member.take(o, axis=1).ravel()))
    if discrete:
        lanes.append(np.arange(s * n))
    return lanes


def _greedy_stack(index: tuple, rows: np.ndarray, y: np.ndarray, phat) -> list:
    """The search of ``greedy_partition`` on every split of a stack, in lockstep.

    ``index`` is the ``_search_index`` of all rows' columns and ``y`` holds
    all rows' responses. ``rows`` lists each split's training rows, in
    ascending order (s x n), and ``phat`` their probabilities (s x n, or one
    array per split), each strictly inside (0, 1) as a fit's clamped
    probabilities are. The stack holds its responses and probabilities only
    as the running-sum lanes of ``rv``, and its tie keys as 32-bit integers
    where they fit: these, the node lanes and the rows are the search's
    largest arrays.

    Row r of split i is flat row i * n + r. A node's lanes are its flat rows
    in the ascending order of each continuous column and, when there are
    discrete sources, in ascending row order. Each step pops the next queued
    node of every split that is still growing, lays their lanes end to end
    (a view when they already are) and scores the threshold cuts of all of
    them at once (``_best_threshold_cuts``); the membership cuts are scored
    node by node. One mask of the left rows then splits every lane of every
    node, so a child's lanes are its parent's filtered in order: a stable
    sort of a subset is the parent's stable order restricted to it, and every
    running sum and tie is the one a fresh per-node sort gives. Every split
    sees the cuts, ties and sums it would see alone, so its partition does
    not depend on the stack.

    Returns one entry per split: its ``Partition``, or the
    ``InfeasiblePartitionError`` its search raises alone.
    """
    p = np.asarray(phat, dtype=float)
    s, n = p.shape
    rv = np.zeros(s * n + 1, dtype=complex)  # flat row s * n pads
    np.subtract(np.asarray(y, dtype=float).take(rows), p, out=rv.real[:-1].reshape(s, n))
    np.multiply(p, 1.0 - p, out=rv.imag[:-1].reshape(s, n))
    del p
    resid, var = rv.real, rv.imag
    config, continuous, coded = index
    n_min = config.n_min
    ordered = sorted(config.continuous)
    discrete = sorted(config.discrete)
    rows = np.asarray(rows)
    cols, orders, ties = ([continuous[name][j] for name in ordered] for j in range(3))
    roots = _root_lanes(orders, rows, bool(discrete))
    keys = []
    kind = np.int32 if cols and cols[0].size * s < 2**31 else np.intp
    for tie in ties:
        key = tie.take(rows).astype(kind)
        key += cols[0].size * np.arange(s, dtype=kind)[:, None]  # keys ascend across splits too
        keys.append(key.ravel())
    codes = {name: (labels, c.take(rows).ravel()) for name, (labels, c) in coded.items()}

    # A node is (rules, lanes, lo, hi): its flat rows are positions lo:hi of
    # each array in ``lanes``, which the children of one step share.
    queues = [deque([((), roots, i * n, (i + 1) * n)]) for i in range(s)]
    del roots  # the root nodes hold their lanes from here, and free them once split
    finished = [[] for _ in range(s)]  # (rules, row count): a finished node keeps no lanes
    total = [1] * s
    while True:
        popped = [(i, queues[i].popleft()) for i in range(s) if queues[i] and total[i] < config.k]
        if not popped:
            break
        nodes = []
        for i, (rules, lanes, lo, hi) in popped:
            if hi - lo < 2 * n_min:
                finished[i].append((rules, hi - lo))
            else:
                nodes.append((i, rules, lanes, lo, hi))
        if not nodes:
            continue
        n0 = np.array([hi - lo for *_, lo, hi in nodes])
        start = (np.cumsum(n0) - n0).tolist()
        lanes = nodes[0][2]
        if all(node[2] is lanes for node in nodes) and all(
                a[4] == b[3] for a, b in zip(nodes, nodes[1:])):
            # consecutive rows of the same lanes, as after a step that cut every node
            srcs = [lane[nodes[0][3]:nodes[-1][4]] for lane in lanes]
        else:
            srcs = [np.concatenate([node[2][j][node[3]:node[4]] for node in nodes])
                    for j in range(len(lanes))]

        # (b, source, kind, payload, where): where finds the cut's left rows, as
        # their count in the column's order or as the node's label codes
        found = [None] * len(nodes)
        if ordered:
            b, hit, col, rank, last = _best_threshold_cuts(
                srcs[:len(ordered)], keys, rv, n0, n_min)
            for t in np.flatnonzero(hit).tolist():
                c, at = int(col[t]), start[t]
                found[t] = (float(b[t]), ordered[c], "le",
                            float(cols[c][rows.flat[srcs[c][at + rank[t]]]]), int(last[t]) + 1)
        for t in range(len(nodes) if discrete else 0):
            idx = srcs[-1][start[t]:start[t] + n0[t]]
            r, v = resid.take(idx), var.take(idx)
            for name in discrete:  # on equal B the lexicographically smaller source wins
                labels, all_codes = codes[name]
                node_codes = all_codes.take(idx)
                cut = _best_discrete_cut(labels, node_codes, r, v, n_min)
                best = found[t]
                if cut is not None and (best is None or cut[0] > best[0]
                                        or (cut[0] == best[0] and name < best[1])):
                    found[t] = (cut[0], name, "in", cut[1], node_codes)

        # mark every winning cut's left rows, then split every lane of every node at once
        left = np.zeros(s * n + 1, dtype=bool)
        counts = [0] * len(nodes)
        pairs = [None] * len(nodes)
        for t, cut in enumerate(found):
            i, rules = nodes[t][:2]
            if cut is None:
                finished[i].append((rules, int(n0[t])))
                continue
            _, source, kind, payload, where = cut
            if kind == "le":
                pairs[t] = (AxisRule(source, "le", threshold=payload),
                            AxisRule(source, "gt", threshold=payload))
                chosen = srcs[ordered.index(source)][start[t]:start[t] + where]
            else:
                pairs[t] = (AxisRule(source, "in", labels=payload),
                            AxisRule(source, "not-in", labels=payload))
                # the "in" test on the column's labels, read through the node's codes
                idx = srcs[-1][start[t]:start[t] + n0[t]]
                chosen = idx[np.isin(codes[source][0], np.asarray(payload))[where]]
            left[chosen] = True
            counts[t] = chosen.size
        sides = [left.take(src) for src in srcs]
        goes_left = [src.compress(side) for src, side in zip(srcs, sides)]
        goes_right = [src.compress(~side) for src, side in zip(srcs, sides)]
        rest = n0 - counts
        left_at = (np.cumsum(counts) - counts).tolist()
        right_at = (np.cumsum(rest) - rest).tolist()
        for t, pair in enumerate(pairs):
            if pair is None:
                continue
            i, rules = nodes[t][:2]
            l0, r0 = left_at[t], right_at[t]
            queues[i].append((rules + (pair[0],), goes_left, l0, l0 + counts[t]))
            queues[i].append((rules + (pair[1],), goes_right, r0, r0 + int(rest[t])))
            total[i] += 1

    results = [None] * s
    for i in range(s):
        if total[i] == 1:
            results[i] = InfeasiblePartitionError(
                "the root group admits no feasible split; lower n_min or provide more data")
            continue
        groups = tuple(Group(rules=rules, train_count=int(size)) for rules, size in
                       finished[i] + [(rules, hi - lo) for rules, _, lo, hi in queues[i]])
        used = sorted({rule.source for g in groups for rule in g.rules})
        results[i] = Partition(groups=groups, sources=tuple(used))
    return results


def _assign_stack(parts: list, values: dict) -> np.ndarray:
    """``assign_groups`` for every split of a stack, in one pass.

    ``parts`` holds each split's ``Partition`` and ``values`` maps every
    source its rules name to the splits' values of the rows to assign
    (s x m): their columns, or their probabilities or scores.

    Each rule fills one row of a (rule place x group x split x row) mask of
    ones, so that one reduction over its first axis joins the rules of every
    group. A group with fewer rules keeps rows of ones, and a group a split
    lacks starts with a row of zeros. The threshold rules of one source are
    compared in one operation: v <= t is v < nextafter(t, inf) and v > t is
    -v < -t, both exact for a finite t, with a NaN in neither, so one gather
    from the values and their negations and one comparison serve both. A
    membership rule is one ``np.isin`` of its split's values in its label
    set, so a label never seen in training falls to "not in". (A
    ``logical_and.reduceat`` over rule rows makes one inner-loop call per
    group and row: 0.31 ms for the 412 rules of a stack of 34 setting-3
    splits, against 5 us for the reduction over the padded axis.)

    Returns each split's group index per row (0-based), as one s x m array.

    Raises:
        CoverageError: if a row of a split matches zero or several groups,
            with the message ``assign_groups`` gives for that split alone (the
            first such split, then its first such row).
    """
    s, m = np.shape(next(iter(values.values())))
    sizes = np.array([part.size for part in parts])
    width = int(sizes.max())
    depth = max([len(g.rules) for part in parts for g in part.groups] + [1])
    masks = np.ones((depth, width, s, m), dtype=bool)
    masks[0, np.arange(width)[:, None] >= sizes] = False  # the groups a split lacks
    flat = masks.reshape(-1, m)  # rule r of group g of split i is row (r * width + g) * s + i
    cuts = {}  # source -> (mask row, split, is "gt", threshold) of each of its threshold rules
    for i, part in enumerate(parts):
        for g, group in enumerate(part.groups):
            for r, rule in enumerate(group.rules):
                if rule.op in ("le", "gt"):
                    cuts.setdefault(rule.source, []).append(
                        ((r * width + g) * s + i, i, rule.op == "gt", rule.threshold))
                else:
                    flat[(r * width + g) * s + i] = np.isin(
                        values[rule.source][i], np.asarray(rule.labels), invert=rule.op == "not-in")
    for source, found in cuts.items():
        rows, splits, gt, t = map(np.array, zip(*found))
        vals = np.asarray(values[source], dtype=float)
        signed = np.concatenate([vals, -vals])  # row s + i negates split i
        flat[rows] = signed[splits + s * gt] < np.where(gt, -t, np.nextafter(t, np.inf))[:, None]
    member = np.logical_and.reduce(masks, axis=0)  # group x split x row
    hits = np.add.reduce(member, axis=0, dtype=np.intp)
    if (hits != 1).any():
        i, bad = np.argwhere(hits != 1)[0].tolist()  # the first split, then its first row
        raise CoverageError(f"row {bad} matched {int(hits[i, bad])} groups instead of 1")
    return member.argmax(axis=0)  # the one group of each row


def assign_groups(partition: Partition, columns: dict) -> np.ndarray:
    """Map each row to the index of the group containing it (0-based).

    The one-split case of ``_assign_stack``.

    Raises:
        MissingColumnError: if a referenced column is absent.
        ValueError: if ``columns`` is empty.
        CoverageError: if any row matches zero or several groups.
    """
    missing = [r.source for g in partition.groups for r in g.rules if r.source not in columns]
    if missing:
        raise MissingColumnError(missing[0])
    if not columns:
        raise ValueError("no columns given: the rows to assign are counted from them")
    return _assign_stack([partition], {s: np.asarray(c)[None] for s, c in columns.items()})[0]


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
    if not ((s >= 0.0) & (s <= 1.0)).all():
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
