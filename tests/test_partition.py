from pathlib import Path

import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaptgof import (
    AxisRule,
    CoverageError,
    Group,
    InfeasiblePartitionError,
    MissingColumnError,
    Partition,
    PartitionConfig,
    RandomSource,
    assign_groups,
    candidate_discrete_splits,
    candidate_thresholds,
    criterion_b,
    fit_logistic,
    greedy_partition,
    predict_prob,
    probability_partition,
)
from adaptgof.cli import parse_csv
from adaptgof.formula import design_matrix
from adaptgof.glm import DesignMatrix
from adaptgof.gof import TestConfig, default_train_size, single_split_test
from adaptgof.partition import (
    _assign_stack,
    _best_discrete_cut,
    _greedy_stack,
    _search_index,
    grouped_chi2,
)
from adaptgof.sim import SETTINGS, generate, make_setting

from _fixtures import (
    CRIT12_GROUPS,
    CRIT12_PHAT,
    CRIT12_Y,
    discrete_cut_oracle,
    discrete_splits_oracle,
    greedy_partition_oracle,
    grouped_chi2_oracle,
    probability_partition_oracle,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestCriterionB:
    def test_cancelling_residuals(self):
        assert criterion_b([1, 0], [0.5, 0.5], [0, 0]) == 0.0

    def test_hand_arithmetic(self):
        assert criterion_b([1, 1], [0.5, 0.5], [0, 0]) == pytest.approx(2.0)

    def test_fixture_matches_resummation_oracle(self):
        value = criterion_b(CRIT12_Y, CRIT12_PHAT, CRIT12_GROUPS, 3)
        oracle = grouped_chi2_oracle(CRIT12_Y, CRIT12_PHAT, CRIT12_GROUPS)
        assert abs(value - oracle) < 1e-12

    def test_rejects_degenerate_probabilities(self):
        with pytest.raises(ValueError):
            criterion_b([1, 0], [1.0, 0.5], [0, 0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            criterion_b([], [], [])

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            criterion_b([0, 1, 1], [0.5, np.nan, 0.4], [0, 0, 1])


class TestGroupedChi2:
    def test_group_count_is_a_minimum_length(self):
        # the correction passes realized_k, which an empty test group puts
        # below the largest label; every group present must still count
        y = np.array([1, 0, 1, 1, 0])
        p = np.array([0.2, 0.4, 0.6, 0.3, 0.7])
        g = np.array([0, 3, 3, 0, 3])
        full = grouped_chi2(y, p, g, 4)
        assert grouped_chi2(y, p, g, 2) == full
        assert grouped_chi2(y, p, g) == full
        assert full[1] == 2


class TestCandidateThresholds:
    def test_quarters_of_1_to_100(self):
        out = candidate_thresholds(np.arange(1.0, 101.0), n_min=25)
        assert out == [25.0, 50.0, 75.0]

    def test_exactly_two_groups_gives_median(self):
        values = np.arange(1.0, 51.0)
        out = candidate_thresholds(values, n_min=25)
        assert out == [25.0]

    def test_constant_column(self):
        assert candidate_thresholds(np.full(100, 3.0), n_min=10) == []

    def test_too_small_group(self):
        assert candidate_thresholds(np.arange(10.0), n_min=6) == []

    def test_both_sides_keep_n_min(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            values = rng.normal(size=rng.integers(20, 200))
            n_min = int(rng.integers(2, 15))
            for t in candidate_thresholds(values, n_min):
                assert np.sum(values <= t) >= n_min
                assert np.sum(values > t) >= n_min


class TestCandidateDiscreteSplits:
    def test_two_labels(self):
        labels = np.array(["A"] * 30 + ["B"] * 30)
        assert candidate_discrete_splits(labels, n_min=20) == [("A",)]

    def test_three_balanced_labels(self):
        labels = np.array(["A", "B", "C"] * 10)
        splits = candidate_discrete_splits(labels, n_min=5)
        assert sorted(splits) == [("A",), ("A", "B"), ("A", "C")]
        # as unordered set-pairs these are {A}|{BC}, {C}|{AB}, {B}|{AC}
        assert len(splits) == 3

    def test_eight_labels_contiguous_after_residual_ordering(self):
        rng = np.random.default_rng(1)
        labels = np.repeat([f"L{i}" for i in range(8)], 10)
        residuals = rng.normal(size=labels.size)
        splits = candidate_discrete_splits(labels, n_min=1, residuals=residuals)
        assert len(splits) == 7
        # each split must be a prefix of the residual-mean ordering
        means = {lab: residuals[labels == lab].mean() for lab in set(labels)}
        order = sorted(means, key=lambda lab: (means[lab], lab))
        for split in splits:
            assert set(split) == set(order[: len(split)])

    def test_requires_residuals_beyond_limit(self):
        labels = np.repeat([f"L{i}" for i in range(8)], 5)
        with pytest.raises(ValueError):
            candidate_discrete_splits(labels, n_min=1)

    def test_infeasible_returns_empty(self):
        labels = np.array(["A"] * 3 + ["B"] * 50)
        assert candidate_discrete_splits(labels, n_min=10) == []

    def test_single_label(self):
        assert candidate_discrete_splits(np.array(["A"] * 10), n_min=1) == []


class TestDiscreteCutsMatchOracle:
    """Coded labels give the sets, their order and the B of set enumeration."""

    @pytest.mark.parametrize("m", range(1, 11))
    @pytest.mark.parametrize("kind", ["int", "str"])
    def test_seeded_grid(self, kind, m):
        rng = np.random.default_rng(100 * m + len(kind))
        # two-digit and negative ints sort differently as numbers and as str
        pool = (np.arange(m) - 3) * 7 if kind == "int" else np.array(
            [f" l{i} " for i in range(m)], dtype=object)
        for n in (m, 3 * m, 40):
            codes = rng.integers(0, m, n)
            labs = pool[codes]
            p = rng.uniform(0.1, 0.9, n)
            var = p * (1.0 - p)
            counts = np.bincount(codes)
            edges = {1, int(counts[counts > 0].min()), int(counts[counts > 0].min()) + 1,
                     n // 2, n // 2 + 1}
            # free residuals, then residual means tied across labels
            for resid in (rng.normal(size=n), np.where(codes % 2 == 0, 0.25, -0.25)):
                for n_min in sorted(e for e in edges if e >= 1):
                    splits = candidate_discrete_splits(labs, n_min, residuals=resid)
                    expected = discrete_splits_oracle(labs, n_min, residuals=resid)
                    assert repr(splits) == repr(expected)
                    coded = np.unique(labs, return_inverse=True)
                    cut = _best_discrete_cut(*coded, resid, var, n_min)
                    assert repr(cut) == repr(discrete_cut_oracle(labs, resid, var, n_min))

    def test_mixed_types_near_tie_still_goes_to_city(self):
        # in exact arithmetic age <= 42 ties city in {london} on the node
        # age > 34 & smoker in {no}; the masked sums put city 4 ulps ahead
        ds = parse_csv(str(FIXTURES / "mixed_types.csv"), "outcome")
        phat = np.linspace(0.3, 0.7, ds.n)
        for k in (4, 6):
            cfg = PartitionConfig(k=k, n_min=2, continuous=ds.continuous_names,
                                  discrete=ds.discrete_names)
            part = greedy_partition(cfg, ds.columns, ds.y, phat)
            assert part.groups[2].rules[-1] == AxisRule("city", "in", labels=("london",))


def _scan_oracle(values, resid, var, n_min):
    """Independent exhaustive scan over the candidate thresholds."""
    best = None
    for t in candidate_thresholds(values, n_min):
        left = values <= t
        b = (resid[left].sum() ** 2 / var[left].sum()
             + resid[~left].sum() ** 2 / var[~left].sum())
        if best is None or b > best[0] + 1e-12:
            best = (b, t)
    return best


class TestPartitionConfig:
    def test_source_in_both_tuples_is_rejected(self):
        # the search used to cut such a column as discrete, one label per value
        with pytest.raises(ValueError, match="'x'.*both continuous and discrete"):
            PartitionConfig(k=3, n_min=10, continuous=("x",), discrete=("x",))

    @pytest.mark.parametrize("fields, message", [
        ({"k": 1, "n_min": 10, "continuous": ("x",)}, "k must be at least 2"),
        ({"k": 3, "n_min": 0, "continuous": ("x",)}, "n_min must be at least 1"),
        ({"k": 3, "n_min": 10}, "at least one splitting source must be named"),
    ])
    def test_rejects_each_bad_field(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PartitionConfig(**fields)

    @pytest.mark.parametrize("kind", ["continuous", "discrete"])
    def test_source_listed_twice_is_rejected(self, kind):
        with pytest.raises(ValueError, match="'x' is listed twice"):
            PartitionConfig(k=3, n_min=10, **{kind: ("x", "y", "x")})


class TestGreedyPartition:
    def test_rejects_nan_probability(self):
        rng = RandomSource(80)
        x, y = rng.normal(0, 1, size=100), rng.bernoulli(0.5, size=100)
        phat = np.full(100, 0.5)
        phat[7] = np.nan
        cfg = PartitionConfig(k=2, n_min=20, continuous=("x",))
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            greedy_partition(cfg, {"x": x}, y, phat)

    def test_rejects_non_finite_continuous_value(self):
        # a NaN row would match no rule of the returned partition
        rng = RandomSource(81)
        a, b = rng.normal(0, 1, size=200), rng.normal(0, 1, size=200)
        a[5] = np.nan
        y = rng.bernoulli(0.5, size=200)
        cfg = PartitionConfig(k=4, n_min=20, continuous=("a", "b"))
        with pytest.raises(ValueError, match=r"^continuous column 'a' is not finite at row 5$"):
            greedy_partition(cfg, {"a": a, "b": b}, y, np.full(200, 0.5))

    def test_sharp_sign_signal_splits_near_zero(self):
        rng = RandomSource(77)
        n = 2000
        x1 = rng.uniform(-3, 3, size=n)
        x2 = rng.normal(0, 1, size=n)
        y = rng.bernoulli(np.where(x1 > 0, 0.9, 0.1), size=n)
        phat = np.full(n, 0.5)
        cfg = PartitionConfig(k=2, n_min=200, continuous=("x1", "x2"))
        part = greedy_partition(cfg, {"x1": x1, "x2": x2}, y, phat)
        assert part.size == 2
        rule = part.groups[0].rules[0]
        assert rule.source == "x1"
        assert abs(rule.threshold) <= 0.3
        # the chosen cut must match an independent scan over the candidates
        oracle = _scan_oracle(x1, y - phat, phat * (1 - phat), 200)
        assert rule.threshold == pytest.approx(oracle[1])

    def test_forced_median_split(self):
        rng = RandomSource(78)
        n = 100
        x = rng.normal(0, 1, size=n)
        y = rng.bernoulli(0.5, size=n)
        cfg = PartitionConfig(k=2, n_min=50, continuous=("x",))
        part = greedy_partition(cfg, {"x": x}, y, np.full(n, 0.5))
        only = candidate_thresholds(x, 50)
        assert len(only) == 1
        assert part.groups[0].rules[0].threshold == pytest.approx(only[0])

    def test_pure_noise_respects_n_min(self):
        rng = RandomSource(79)
        for k in (2, 3, 5, 8):
            n = 400
            cols = {"a": rng.normal(0, 1, size=n), "b": rng.uniform(0, 1, size=n)}
            y = rng.bernoulli(0.5, size=n)
            part = greedy_partition(
                PartitionConfig(k=k, n_min=40, continuous=("a", "b")),
                cols, y, np.full(n, 0.5),
            )
            assert all(g.train_count >= 40 for g in part.groups)
            assert part.size <= k

    def test_group_sizes_match_assignments(self):
        rng = RandomSource(80)
        n = 300
        cols = {"a": rng.normal(0, 1, size=n)}
        y = rng.bernoulli(0.5, size=n)
        part = greedy_partition(
            PartitionConfig(k=4, n_min=30, continuous=("a",)), cols, y, np.full(n, 0.5)
        )
        idx = assign_groups(part, cols)
        counts = np.bincount(idx, minlength=part.size)
        assert counts.tolist() == [g.train_count for g in part.groups]

    def test_infeasible_root_raises(self):
        with pytest.raises(InfeasiblePartitionError):
            greedy_partition(
                PartitionConfig(k=2, n_min=60, continuous=("a",)),
                {"a": np.arange(100.0)}, np.tile([0, 1], 50), np.full(100, 0.5),
            )

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    def test_probabilities_on_the_edge_are_an_error(self, edge):
        phat = np.full(100, 0.5)
        phat[7] = edge
        cfg = PartitionConfig(k=2, n_min=10, continuous=("a",))
        with pytest.raises(ValueError) as raised:
            greedy_partition(cfg, {"a": np.arange(100.0)}, np.tile([0, 1], 50), phat)
        assert (type(raised.value), str(raised.value)) == (
            ValueError, "fitted probabilities must lie strictly in (0, 1)")
        # a missing source is reported first
        with pytest.raises(MissingColumnError):
            greedy_partition(cfg, {"b": np.arange(100.0)}, np.tile([0, 1], 50), phat)

    def test_constant_sources_are_infeasible(self):
        with pytest.raises(InfeasiblePartitionError):
            greedy_partition(
                PartitionConfig(k=2, n_min=10, continuous=("a",)),
                {"a": np.full(100, 1.0)}, np.tile([0, 1], 50), np.full(100, 0.5),
            )

    def test_children_criterion_never_below_parent(self):
        # splitting never decreases the criterion: (a+b)^2/(c+d) <= a^2/c + b^2/d
        rng = RandomSource(81)
        for _ in range(50):
            n = 120
            y = rng.bernoulli(0.4, size=n)
            p = rng.uniform(0.2, 0.8, size=n)
            parent = criterion_b(y, p, np.zeros(n, dtype=int), 1)
            cut = rng.uniform(0.3, 0.7)
            groups = (rng.random(size=n) > cut).astype(int)
            if groups.min() == groups.max():
                continue
            children = criterion_b(y, p, groups, 2)
            assert children >= parent - 1e-10

    def test_selection_consistency_on_missing_covariate(self):
        # with a missing-covariate signal the first greedy split should pick
        # the omitted covariate nearly always
        spec = make_setting("4", 500)
        rng = RandomSource(2024)
        hits = 0
        runs = 200
        for r in range(runs):
            ds = generate(spec, rng.child(("sel", r)))
            x = design_matrix(ds, spec.model_b)
            model = fit_logistic(x, ds.y)
            phat = predict_prob(model, x)
            part = greedy_partition(
                PartitionConfig(k=2, n_min=50, continuous=("x1", "x2")),
                ds.columns, ds.y, phat,
            )
            hits += part.groups[0].rules[0].source == "x2"
        assert hits / runs >= 0.9

    def test_tied_thresholds_keep_the_smaller(self):
        # +10 residual in rows 1-20, -10 in rows 81-100, cancelling pairs in
        # between: the cuts after row 20 and after row 80 tie exactly
        x = np.arange(1.0, 101.0)
        y = np.concatenate([np.ones(20), np.tile([0, 1], 30), np.zeros(20)])
        cfg = PartitionConfig(k=2, n_min=20, continuous=("x",))
        part = greedy_partition(cfg, {"x": x}, y, np.full(100, 0.5))
        assert part.groups[0].rules[0].threshold == 20.0
        assert part == greedy_partition_oracle(cfg, {"x": x}, y, np.full(100, 0.5))

    def test_deterministic_tie_break_prefers_lexicographic_source(self):
        # two identical columns: every cut ties, so the lexicographically
        # smaller name must win, on small and on large nodes
        for n in (200, 20000):
            rng = RandomSource(82)
            col = rng.normal(0, 1, size=n)
            y = rng.bernoulli(0.5, size=n)
            part = greedy_partition(
                PartitionConfig(k=2, n_min=n // 4, continuous=("b_col", "a_col")),
                {"a_col": col, "b_col": col.copy()}, y, np.full(n, 0.5),
            )
            assert part.groups[0].rules[0].source == "a_col", n


class TestPresortedSearchMatchesOracle:
    """The presorted scan returns exactly the partition of a per-node re-sort."""

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_seed_grid(self, setting):
        spec = make_setting(setting, 500)
        for seed in range(8):
            ds = generate(spec, RandomSource(seed).child("data"))
            x = design_matrix(ds, spec.model_b)
            phat = predict_prob(fit_logistic(x, ds.y), x)
            for k in (3, 5, 8):
                for discrete in sorted({ds.discrete_names, ()}):
                    cfg = PartitionConfig(k=k, n_min=50, continuous=ds.continuous_names,
                                          discrete=discrete)
                    expected = greedy_partition_oracle(cfg, ds.columns, ds.y, phat)
                    assert greedy_partition(cfg, ds.columns, ds.y, phat) == expected

    def test_mixed_types_fixture(self):
        ds = parse_csv(str(FIXTURES / "mixed_types.csv"), "outcome")
        phat = np.linspace(0.3, 0.7, ds.n)
        for k in (2, 3, 4, 6):
            for n_min in (1, 2, 3):
                cfg = PartitionConfig(k=k, n_min=n_min, continuous=ds.continuous_names,
                                      discrete=ds.discrete_names)
                expected = greedy_partition_oracle(cfg, ds.columns, ds.y, phat)
                assert greedy_partition(cfg, ds.columns, ds.y, phat) == expected

    def test_tie_ranks_only_where_values_tie(self):
        cols = {"t": np.array([2.0, 1.0, 2.0, 0.5]), "u": np.array([3.0, 1.0, 2.0, 0.5]),
                "one": np.array([7.0, 7.0, 7.0, 7.0])}
        _, continuous, _ = _search_index(cols, PartitionConfig(k=2, n_min=1,
                                                               continuous=tuple(cols)))
        assert continuous["t"][2].tolist() == [2, 1, 2, 0]
        assert continuous["one"][2].tolist() == [0, 0, 0, 0]
        assert continuous["u"][2] is None
        for name, size in (("empty", 0), ("single", 1)):
            cfg = PartitionConfig(k=2, n_min=1, continuous=(name,))
            _, continuous, _ = _search_index({name: np.ones(size)}, cfg)
            assert continuous[name][2] is None

    @pytest.mark.parametrize("n_min", [4, 5, 8])
    def test_tie_on_a_candidate_threshold_row(self, n_min):
        # 40 rows, 39 distinct values of t: the pair at sorted places 3 and 4
        # ties, so with n_min = 4 the first candidate (row 3) leaves 5 rows
        # on its left, not 4; u beside it has no ties
        rng = np.random.default_rng(29)
        t = np.arange(40.0)
        t[4] = 3.0
        perm = rng.permutation(40)
        cols = {"t": t[perm], "u": rng.permutation(40) + 0.25}
        y = (cols["t"] <= 3.0).astype(float)  # the tied pair sits inside the pure group
        phat = np.full(40, 0.5)
        for k in (2, 3, 5):
            cfg = PartitionConfig(k=k, n_min=n_min, continuous=("t", "u"))
            part = greedy_partition(cfg, cols, y, phat)
            assert part == greedy_partition_oracle(cfg, cols, y, phat)
            if n_min == 4:
                assert part.groups[0].rules[0] == AxisRule("t", "le", threshold=3.0)
                assert part.groups[0].train_count == 5

    @pytest.mark.parametrize("setting", ["1", "nn-example"])
    def test_split_order_derived_from_shared_presort(self, setting):
        # single_split_test filters the training rows out of one presort of
        # the full data; the oracle re-sorts the same training rows itself
        spec = make_setting(setting, 500)
        for seed in range(5):
            ds = generate(spec, RandomSource(seed).child("data"))
            out = single_split_test(ds, spec.model_b, TestConfig(), RandomSource(seed).child("s"))
            perm = RandomSource(seed).child("s").permutation(ds.n)
            train = np.sort(perm[:default_train_size(ds.n, 5)])
            full = design_matrix(ds, spec.model_b)
            x = DesignMatrix(full.values[train], full.names)
            phat = predict_prob(fit_logistic(x, ds.y[train]), x)
            cfg = PartitionConfig(k=5, n_min=ds.n // 10, continuous=ds.continuous_names,
                                  discrete=ds.discrete_names)
            train_cols = {name: col[train] for name, col in ds.columns.items()}
            assert out.partition == greedy_partition_oracle(cfg, train_cols, ds.y[train], phat)


@st.composite
def _search_inputs(draw):
    """Small searches with heavy ties: 1 to 5 integer-valued columns and, in
    some draws, one discrete column of 2 to 9 labels (past 6 labels only the
    residual-ordered splits are scored)."""
    n = draw(st.integers(20, 150))
    n_cols = draw(st.integers(1, 5))
    cols = {
        f"c{j}": np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)), dtype=float)
        for j in range(n_cols)
    }
    discrete = ()
    if draw(st.booleans()):
        m = draw(st.integers(2, 9))
        codes = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        # "c0d" sorts between c0 and c1, so the merge order matters
        cols["c0d"] = np.array([f"L{c}" for c in codes])
        discrete = ("c0d",)
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    phat = np.array(draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n)))
    cfg = PartitionConfig(k=draw(st.integers(2, 8)), n_min=draw(st.integers(1, n // 2)),
                          continuous=tuple(f"c{j}" for j in range(n_cols)), discrete=discrete)
    return cfg, cols, y, phat


_PROPERTY = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _partition_or_skip(cfg, cols, y, phat):
    try:
        return greedy_partition(cfg, cols, y, phat)
    except InfeasiblePartitionError:
        assume(False)


class TestPartitionProperties:
    @_PROPERTY
    @given(_search_inputs())
    def test_groups_tile_training_rows_with_n_min_each(self, inputs):
        cfg, cols, y, phat = inputs
        part = _partition_or_skip(cfg, cols, y, phat)
        idx = assign_groups(part, cols)  # raises CoverageError unless each row has one group
        assert 2 <= part.size <= cfg.k
        assert all(g.train_count >= cfg.n_min for g in part.groups)
        assert sum(g.train_count for g in part.groups) == y.size
        assert np.bincount(idx, minlength=part.size).tolist() == [
            g.train_count for g in part.groups]
        assert part == greedy_partition_oracle(cfg, cols, y, phat)

    @_PROPERTY
    @given(_search_inputs(), st.sampled_from([np.exp, lambda v: v**3 + v, lambda v: 3.0 * v - 7.0]))
    def test_membership_invariant_under_increasing_transform(self, inputs, transform):
        cfg, cols, y, phat = inputs
        part = _partition_or_skip(cfg, cols, y, phat)
        moved = dict(cols, c0=transform(cols["c0"]))
        assert np.array_equal(assign_groups(greedy_partition(cfg, moved, y, phat), moved),
                              assign_groups(part, cols))


@st.composite
def _stack_inputs(draw):
    """A stack of 1 to 25 searches, each over its own n of the same N rows, as
    the splits of one test draw them: 0 to 3 integer columns with ties (a tie
    range of 0 makes a column constant) and, in some draws, a discrete column
    of 2 to 9 labels that some splits may lack; n_min at 1, n // 4, n // 2 or
    n // 2 + 1."""
    s = draw(st.integers(1, 25))
    n = draw(st.integers(4, 60))
    total = n + draw(st.integers(0, 40))
    n_cols = draw(st.integers(0, 3))
    m = draw(st.integers(2, 9)) if n_cols == 0 or draw(st.booleans()) else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = {f"c{j}": rng.integers(-t, t + 1, size=total).astype(float)
            for j, t in enumerate(draw(st.lists(st.integers(0, 5), min_size=n_cols,
                                                max_size=n_cols)))}
    discrete = ()
    if m:
        # "c0d" sorts between c0 and c1, so the merge order matters
        cols["c0d"] = np.array([f"L{c}" for c in rng.integers(0, m, total)])
        discrete = ("c0d",)
    rows = np.sort(np.stack([rng.permutation(total)[:n] for _ in range(s)]), axis=1)
    y = rng.integers(0, 2, size=total)  # the responses of all rows
    phat = rng.uniform(0.05, 0.95, size=(s, n))
    n_min = max(1, draw(st.sampled_from([1, n // 4, n // 2, n // 2 + 1])))
    cfg = PartitionConfig(k=draw(st.integers(2, 8)), n_min=n_min,
                          continuous=tuple(f"c{j}" for j in range(n_cols)), discrete=discrete)
    return cfg, cols, rows, y, phat


def _search_alone(search, cfg, cols, y, phat):
    try:
        return search(cfg, cols, y, phat)
    except InfeasiblePartitionError as exc:
        return type(exc)


class TestLockstepSearch:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_stack_inputs())
    def test_each_split_gets_its_partition_alone(self, inputs):
        cfg, cols, rows, y, phat = inputs
        stacked = _greedy_stack(_search_index(cols, cfg), rows, y, phat)
        for i, got in enumerate(stacked):
            alone = {c: v[rows[i]] for c, v in cols.items()}
            expected = _search_alone(greedy_partition_oracle, cfg, alone, y[rows[i]], phat[i])
            assert _search_alone(greedy_partition, cfg, alone, y[rows[i]], phat[i]) == expected
            assert (type(got) if isinstance(got, Exception) else got) == expected

    @pytest.mark.parametrize("order", [[0, 1, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]])
    def test_splits_that_stop_early_beside_growing_ones(self, order):
        # a child's lanes are cut for every split of its step once one split
        # scans it; the splits that never read them must see no difference
        cfg, cols, rows, y = _uneven_stack()
        rows = rows[order]
        phat = np.full(rows.shape, 0.5)
        stacked = _greedy_stack(_search_index(cols, cfg), rows, y, phat)
        counts = {"A": [20, 20, 20], "B": [20, 20, 20], "C": [25, 35]}
        for i, got in enumerate(stacked):
            alone = {c: v[rows[i]] for c, v in cols.items()}
            assert got == greedy_partition_oracle(cfg, alone, y[rows[i]], phat[i])
            assert got == greedy_partition(cfg, alone, y[rows[i]], phat[i])
            assert [g.train_count for g in got.groups] == counts["ABC"[order[i]]]


def _uneven_stack():
    """Three splits of 60 rows each, on disjoint rows, searched at k = 3 and
    n_min = 20, whose trees differ in shape: A's root cut is 40 / 20 on u (pure
    groups), so A reaches k at its second step and never reads the right side
    of its root; B's is 20 / 40, so B's left child is too small to scan and
    its right child is cut at the third step; C's is 25 / 35 on the labels
    of d, so neither child is scanned and C finishes at 2 groups. t has ties
    and u none."""
    rng = np.random.default_rng(7)
    u = rng.permutation(180) + 0.5
    cols = {"t": np.round(rng.normal(size=180), 1), "u": u,
            "d": np.array(["p"] * 25 + ["q"] * 35 + list(rng.choice(["p", "q"], 120)))}
    cols["d"][:60] = rng.permutation(cols["d"][:60])
    block = np.arange(180) // 60  # C, A, B
    rank = np.argsort(np.argsort(u + 1000 * block)) % 60  # each row's place in u in its block
    y = np.where(block == 0, cols["d"] == "p", np.where(block == 1, rank < 40, rank < 20))
    rows = np.arange(180).reshape(3, 60)[[1, 2, 0]]  # A, B, C
    cfg = PartitionConfig(k=3, n_min=20, continuous=("t", "u"), discrete=("d",))
    return cfg, cols, rows, y.astype(float)


@st.composite
def _grouped_rows(draw):
    """Up to 60 rows with group labels 0..5."""
    n = draw(st.integers(1, 60))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    p = np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    return y, p, g


class TestGroupedChi2Properties:
    @_PROPERTY
    @given(_grouped_rows(), st.permutations(range(6)))
    def test_invariant_under_relabelling(self, rows, perm):
        y, p, g = rows
        stat, realized = grouped_chi2(y, p, g, 6)
        moved, moved_realized = grouped_chi2(y, p, np.array(perm)[g], 6)
        assert moved == pytest.approx(stat, rel=1e-12)
        assert moved_realized == realized

    @_PROPERTY
    @given(_grouped_rows(), _grouped_rows())
    def test_additive_over_disjoint_blocks(self, first, second):
        (y1, p1, g1), (y2, p2, g2) = first, second
        whole, realized = grouped_chi2(np.concatenate([y1, y2]), np.concatenate([p1, p2]),
                                       np.concatenate([g1, g2 + 6]))
        parts = [grouped_chi2(y1, p1, g1), grouped_chi2(y2, p2, g2)]
        assert whole == pytest.approx(parts[0][0] + parts[1][0], rel=1e-12)
        assert realized == parts[0][1] + parts[1][1]

    @_PROPERTY
    @given(_grouped_rows())
    def test_symmetric_under_swapping_the_classes(self, rows):
        y, p, g = rows
        # 1 - (1 - p) rounds, so a residual sum that cancels to ~1e-15 keeps
        # only an absolute agreement; every other case agrees to rel 1e-12
        assert grouped_chi2(1.0 - y, 1.0 - p, g)[0] == pytest.approx(
            grouped_chi2(y, p, g)[0], rel=1e-12, abs=1e-12)


class TestAxisRule:
    @pytest.mark.parametrize("op", ["le", "gt"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("inf"), np.nan])
    def test_non_finite_threshold_is_a_value_error(self, op, bad):
        with pytest.raises(ValueError, match="finite threshold"):
            AxisRule("x", op, threshold=bad)

    @pytest.mark.parametrize("bad", ["1.0", b"1", object()])
    def test_non_number_threshold_is_a_type_error(self, bad):
        with pytest.raises(TypeError):
            AxisRule("x", "le", threshold=bad)

    def test_missing_threshold_is_a_value_error(self):
        with pytest.raises(ValueError, match="finite threshold"):
            AxisRule("x", "gt")


class TestAssignGroups:
    def test_boundary_goes_left(self):
        part = Partition(groups=(
            Group(rules=(AxisRule("x1", "le", threshold=0.0),), train_count=1),
            Group(rules=(AxisRule("x1", "gt", threshold=0.0),), train_count=1),
        ))
        idx = assign_groups(part, {"x1": np.array([-1.0, 0.0, 1.0])})
        assert idx.tolist() == [0, 0, 1]

    def test_single_group(self):
        part = Partition(groups=(Group(rules=(), train_count=3),))
        assert assign_groups(part, {"x": np.arange(3.0)}).tolist() == [0, 0, 0]

    def test_no_columns_is_an_error(self):
        # a partition without rules reads no column, so none gives no row count
        part = Partition(groups=(Group(rules=(), train_count=3),))
        with pytest.raises(ValueError, match="no columns"):
            assign_groups(part, {})
        # a partition with rules names its first missing column instead
        part = Partition(groups=(
            Group(rules=(AxisRule("x1", "le", threshold=0.0),), train_count=1),
            Group(rules=(AxisRule("x1", "gt", threshold=0.0),), train_count=1),
        ))
        with pytest.raises(MissingColumnError):
            assign_groups(part, {})

    def test_matches_row_by_row_predicate_oracle(self):
        rng = RandomSource(83)
        n = 400
        cols = {
            "u": rng.uniform(-2, 2, size=n),
            "v": rng.normal(0, 1, size=n),
            "d": np.asarray(list("ABC"))[rng.bernoulli(0.5, size=n) + rng.bernoulli(0.5, size=n)],
        }
        y = rng.bernoulli(np.where(cols["u"] > 0, 0.7, 0.3), size=n)
        part = greedy_partition(
            PartitionConfig(k=4, n_min=40, continuous=("u", "v"), discrete=("d",)),
            cols, y, np.full(n, 0.5),
        )
        fresh = {
            "u": rng.uniform(-3, 3, size=50),
            "v": rng.normal(0, 2, size=50),
            "d": np.asarray(list("ABCD"))[rng.bernoulli(0.75, size=50) * 3],  # includes unseen "D"
        }
        got = assign_groups(part, fresh)

        def rule_holds(rule, row):
            val = fresh[rule.source][row]
            if rule.op == "le":
                return float(val) <= rule.threshold
            if rule.op == "gt":
                return float(val) > rule.threshold
            if rule.op == "in":
                return val in rule.labels
            return val not in rule.labels

        for row in range(50):
            matches = [gi for gi, g in enumerate(part.groups)
                       if all(rule_holds(r, row) for r in g.rules)]
            assert matches == [got[row]]

    def test_unseen_label_routes_to_complement(self):
        part = Partition(groups=(
            Group(rules=(AxisRule("d", "in", labels=("A",)),), train_count=1),
            Group(rules=(AxisRule("d", "not-in", labels=("A",)),), train_count=1),
        ))
        idx = assign_groups(part, {"d": np.array(["A", "B", "Z"], dtype=object)})
        assert idx.tolist() == [0, 1, 1]

    def test_missing_column(self):
        part = Partition(groups=(
            Group(rules=(AxisRule("x1", "le", threshold=0.0),), train_count=1),
            Group(rules=(AxisRule("x1", "gt", threshold=0.0),), train_count=1),
        ))
        with pytest.raises(MissingColumnError):
            assign_groups(part, {"other": np.arange(3.0)})

    def test_exact_cover_on_random_points(self):
        rng = RandomSource(84)
        n = 600
        cols = {"a": rng.normal(0, 1, size=n), "b": rng.uniform(-1, 1, size=n)}
        y = rng.bernoulli(0.5, size=n)
        part = greedy_partition(
            PartitionConfig(k=6, n_min=60, continuous=("a", "b")),
            cols, y, np.full(n, 0.5),
        )
        probe = {"a": rng.normal(0, 3, size=10_000), "b": rng.uniform(-5, 5, size=10_000)}
        idx = assign_groups(part, probe)  # raises CoverageError on any violation
        assert idx.min() >= 0 and idx.max() < part.size

    def test_overlapping_partition_detected(self):
        bad = Partition(groups=(
            Group(rules=(), train_count=1),
            Group(rules=(AxisRule("x", "gt", threshold=0.0),), train_count=1),
        ))
        with pytest.raises(CoverageError):
            assign_groups(bad, {"x": np.array([1.0])})


class TestAssignStack:
    def test_equals_one_assign_groups_per_split(self):
        rng = RandomSource(86)
        n, s, m = 300, 7, 80
        labels = np.asarray(list("ABCD"))
        cols = {
            "u": rng.normal(0, 1, size=n),
            "v": rng.uniform(-1, 1, size=n),
            "d": labels[rng.bernoulli(0.5, size=n) + rng.bernoulli(0.5, size=n)],  # no "D"
        }
        y = rng.bernoulli(np.where(cols["d"] == "B", 0.8, 0.3), size=n)
        cfg = PartitionConfig(k=5, n_min=20, continuous=("u", "v"), discrete=("d",))
        parts = []
        for i in range(s - 1):
            rows = rng.child(("rows", i)).permutation(n)[:200]
            parts.append(greedy_partition(cfg, {c: col[rows] for c, col in cols.items()},
                                          y[rows], np.full(200, 0.5)))
        # a split whose groups leave -0.5 < u <= 0.5 uncovered, among good splits
        parts.insert(3, Partition(groups=(
            Group(rules=(AxisRule("u", "le", threshold=-0.5),), train_count=1),
            Group(rules=(AxisRule("u", "gt", threshold=0.5), AxisRule("d", "not-in", labels=("A",))),
                  train_count=1),
            Group(rules=(AxisRule("u", "gt", threshold=0.5), AxisRule("d", "in", labels=("A",))),
                  train_count=1),
        )))
        values = {
            "u": rng.normal(0, 1, size=(s, m)),
            "v": rng.uniform(-1.5, 1.5, size=(s, m)),
            "d": labels[rng.bernoulli(0.5, size=(s, m)) * 3],  # "D" never seen in training
        }
        for i, part in enumerate(parts):  # values on a threshold itself go to its "le" side
            for c in ("u", "v"):
                on = [r.threshold for g in part.groups for r in g.rules if r.source == c]
                values[c][i, m - len(on):] = on
        rules = [r for part in parts for g in part.groups for r in g.rules]
        assert {r.op for r in rules} == {"le", "gt", "in", "not-in"}

        def oracle(part, i):
            def holds(rule, row):
                val = values[rule.source][i, row]
                return {"le": lambda: float(val) <= rule.threshold,
                        "gt": lambda: float(val) > rule.threshold,
                        "in": lambda: val in rule.labels,
                        "not-in": lambda: val not in rule.labels}[rule.op]()
            hits = [[g for g, group in enumerate(part.groups)
                     if all(holds(r, row) for r in group.rules)] for row in range(m)]
            bad = [row for row, h in enumerate(hits) if len(h) != 1]
            if bad:
                return f"row {bad[0]} matched {len(hits[bad[0]])} groups instead of 1"
            return [h[0] for h in hits]

        good = [i for i in range(s) if i != 3]
        got = _assign_stack([parts[i] for i in good], {c: v[good] for c, v in values.items()})
        assert got.shape == (s - 1, m)
        for out, i in zip(got, good):
            alone = assign_groups(parts[i], {c: v[i] for c, v in values.items()})
            assert alone.tolist() == oracle(parts[i], i)
            assert np.array_equal(out, alone) and out.dtype == alone.dtype
        # the stack raises what the first split that does not tile raises alone
        with pytest.raises(CoverageError) as alone:
            assign_groups(parts[3], {c: v[3] for c, v in values.items()})
        assert str(alone.value) == oracle(parts[3], 3)
        with pytest.raises(CoverageError, match=f"^{re.escape(str(alone.value))}$"):
            _assign_stack(parts, values)


class TestProbabilityPartition:
    def test_uniform_grid_thresholds(self):
        scores = np.round(np.arange(0.01, 1.005, 0.01), 2)
        part = probability_partition(scores, 5, source="score")
        thresholds = [g.rules[-1].threshold for g in part.groups[:-1]]
        assert_allclose(thresholds, [0.20, 0.40, 0.60, 0.80], atol=0.011)
        assert part.size == 5

    def test_two_point_masses(self):
        scores = np.array([0.1, 0.9] * 20)
        part = probability_partition(scores, 2, source="score")
        assert part.size == 2
        t = part.groups[0].rules[0].threshold
        assert 0.1 <= t < 0.9
        idx = assign_groups(part, {"score": scores})
        assert np.sum(idx == 0) == 20 and np.sum(idx == 1) == 20

    def test_rejects_nan_score(self):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            probability_partition([0.1, np.nan, 0.5, 0.7, 0.9, 0.3], 3)

    def test_all_equal_scores_degenerate(self):
        part = probability_partition(np.full(30, 0.5), 3, source="score")
        assert part.size == 1
        assert part.degenerate

    def test_interval_structure_covers(self):
        rng = RandomSource(85)
        scores = rng.uniform(0, 1, size=200)
        part = probability_partition(scores, 4, source="s")
        idx = assign_groups(part, {"s": rng.uniform(0, 1, size=5000)})
        assert idx.max() == part.size - 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            probability_partition(np.array([0.2, 1.4]), 3)

    @pytest.mark.parametrize("scores, k, message", [
        ([0.2, 0.4], 1, "k must be at least 2"),
        ([], 3, "empty score sample"),
    ])
    def test_rejects_each_bad_input(self, scores, k, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            probability_partition(np.array(scores), k)

    def test_matches_oracle_over_a_grid(self):
        # continuous, heavily tied, two-point and constant samples, and sizes
        # both below and far above k
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 7, 10, 50, 333):
            samples = [
                rng.uniform(0, 1, size=n),
                np.round(rng.uniform(0, 1, size=n), 1),
                rng.choice([0.0, 0.25, 1.0], size=n),
                np.full(n, 0.4),
            ]
            for scores in samples:
                for k in (2, 3, 4, 5, 7, 10, 13):
                    assert probability_partition(scores, k, "p") == \
                        probability_partition_oracle(scores, k, "p"), (n, k, scores)


class TestPartitionJson:
    def test_round_trippable_structure(self):
        part = Partition(
            groups=(
                Group(rules=(AxisRule("x1", "le", threshold=1.5),), train_count=10),
                Group(
                    rules=(
                        AxisRule("x1", "gt", threshold=1.5),
                        AxisRule("d", "in", labels=("A", "B")),
                    ),
                    train_count=12,
                ),
                Group(
                    rules=(
                        AxisRule("x1", "gt", threshold=1.5),
                        AxisRule("d", "not-in", labels=("A", "B")),
                    ),
                    train_count=9,
                ),
            ),
            sources=("d", "x1"),
        )
        js = part.to_json()
        assert js["sources"] == ["d", "x1"]
        assert js["groups"][0]["rules"][0] == {"source": "x1", "op": "<=", "value": 1.5}
        assert js["groups"][1]["rules"][1] == {"source": "d", "op": "in", "labels": ["A", "B"]}
        assert js["groups"][2]["train_count"] == 9
