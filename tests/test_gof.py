import dataclasses
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaptgof import (
    DesignMatrix,
    RandomSource,
    TestConfig,
    bag_statistic,
    corrected_statistic,
    covariate_counts,
    default_train_size,
    fit_logistic,
    hl_test,
    multi_split_test,
    report_to_dict,
    single_split_test,
)
from adaptgof import gof
from adaptgof.gof import (
    SplitOutcome,
    aggregate_p_values,
    bag_gradient,
    decision_threshold,
)
from adaptgof.numkit import chi2_sf, empirical_quantiles
from adaptgof.data import Dataset
from adaptgof.formula import design_matrix, parse_formula
from adaptgof.glm import RankDeficiencyError, SingleClassError
from adaptgof.partition import (
    AxisRule,
    CoverageError,
    Group,
    InfeasiblePartitionError,
    Partition,
)
from adaptgof.sim import generate, make_setting

from _fixtures import (
    BAG30_GROUPS,
    BAG30_PHAT,
    BAG30_Y,
    HL10_PHAT,
    HL10_Y,
    bag_gradient_oracle,
    grouped_chi2_oracle,
    hl_oracle,
    richardson_gradient_oracle,
)


class TestHlTest:
    def test_vanishing_residual_sums(self):
        y = np.tile([0, 1], 6)
        result = hl_test(y, np.full(12, 0.5), k=3)
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.df == 1

    def test_fixture_matches_resummation_oracle(self):
        k = 4
        result = hl_test(HL10_Y, HL10_PHAT, k=k)
        bounds = empirical_quantiles(HL10_PHAT, [j / k for j in range(1, k)])
        oracle = hl_oracle(HL10_Y, HL10_PHAT, list(bounds))
        assert abs(result.statistic - oracle) < 1e-12
        assert result.df == k - 2

    def test_boundary_observation_goes_right(self):
        # interval boundaries are left-closed: a fitted probability equal to a
        # quantile belongs to its own interval, not the one below
        phat = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.95])
        bounds = empirical_quantiles(phat, [1 / 3, 2 / 3])
        assert bounds.tolist() == [0.3, 0.7]
        groups = np.searchsorted(bounds, np.array([0.1, 0.3, 0.7, 0.9]), side="right")
        assert groups.tolist() == [0, 1, 2, 2]

    def test_degenerate_group_reports_failure(self):
        y = np.array([0] * 6 + [1] * 6)
        phat = np.concatenate([np.zeros(6), np.full(6, 0.7)])
        result = hl_test(y, phat, k=3)
        assert result.failed
        assert math.isnan(result.p_value)

    def test_reports_the_first_degenerate_group(self):
        y = np.array([0] * 4 + [1] * 4 + [1] * 4)
        phat = np.concatenate([np.zeros(4), np.full(4, 0.5), np.ones(4)])
        result = hl_test(y, phat, k=3)
        assert result.failed
        assert result.reason == "group mean probability 0.0 is degenerate"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hl_test([0, 1], [0.5, 0.5], k=2)
        with pytest.raises(ValueError):
            hl_test([0, 1], [0.5, 0.5, 0.5], k=3)
        with pytest.raises(ValueError):
            hl_test([0, 1], [0.4, 0.6], k=3)
        for bad in (np.nan, -0.5):
            with pytest.raises(ValueError, match=r"^fitted probabilities must lie in \[0, 1\]$"):
                hl_test([0, 1, 0, 1], [0.5, bad, 0.4, 0.6], k=3)

    @pytest.mark.parametrize("bad", [2, np.nan, 0.5, -1])
    def test_rejects_a_response_that_is_not_0_or_1(self, bad):
        # a 2 once gave p = 0.045 with failed=False
        with pytest.raises(ValueError, match="^response entries must be 0 or 1$"):
            hl_test([0, bad, 0, 1, 1, 0], [0.5, 0.3, 0.4, 0.6, 0.7, 0.2], k=3)


@st.composite
def _grouped_test_rows(draw):
    """Test rows for ``bag_statistic``: (y, p, groups, k)."""
    n = draw(st.integers(1, 60))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.integers(0, 7), min_size=n, max_size=n)))
    return y, p, g, draw(st.integers(1, 10))


class TestBagStatistic:
    def test_cancelling_residuals(self):
        out = bag_statistic([1, 0, 1, 0], [0.5] * 4, [0, 0, 0, 0], 1)
        assert out.statistic == 0.0
        assert out.realized_k == 1

    def test_hand_arithmetic(self):
        out = bag_statistic([1, 1], [0.5, 0.5], [0, 0], 1)
        assert out.statistic == pytest.approx(2.0)

    def test_fixture_matches_resummation_oracle(self):
        out = bag_statistic(BAG30_Y, BAG30_PHAT, BAG30_GROUPS, 3)
        oracle = grouped_chi2_oracle(BAG30_Y, BAG30_PHAT, BAG30_GROUPS)
        assert abs(out.statistic - oracle) < 1e-12
        assert out.realized_k == 3

    def test_empty_group_reduces_realized_k(self):
        out = bag_statistic([1, 0, 1], [0.4, 0.5, 0.6], [0, 0, 2], 4)
        assert out.realized_k == 2

    def test_rejects_nan_probability(self):
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            bag_statistic([0, 1, 1], [0.5, np.nan, 0.4], [0, 0, 1], 2)

    def test_group_permutation_invariance(self):
        rng = np.random.default_rng(5)
        perm = rng.permutation(30)
        base = bag_statistic(BAG30_Y, BAG30_PHAT, BAG30_GROUPS, 3)
        shuffled = bag_statistic(BAG30_Y[perm], BAG30_PHAT[perm], BAG30_GROUPS[perm], 3)
        assert shuffled.statistic == pytest.approx(base.statistic, rel=1e-12)
        relabeled = bag_statistic(BAG30_Y, BAG30_PHAT, (2 - BAG30_GROUPS), 3)
        assert relabeled.statistic == pytest.approx(base.statistic, rel=1e-12)

    def test_additivity_over_groups(self):
        total = bag_statistic(BAG30_Y, BAG30_PHAT, BAG30_GROUPS, 3).statistic
        parts = 0.0
        for g in range(3):
            mask = BAG30_GROUPS == g
            parts += bag_statistic(BAG30_Y[mask], BAG30_PHAT[mask],
                                   np.zeros(mask.sum(), dtype=int), 1).statistic
        assert parts == pytest.approx(total, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(_grouped_test_rows())
    # residuals that cancel: the second group's contribution is exactly 0
    @example((np.array([0] * 15 + [1]), np.full(16, 0.5), np.array([0] * 14 + [1, 1]), 2))
    def test_contributions_sum_to_statistic_and_vanish_on_empty_groups(self, rows):
        y, p, g, k = rows
        out = bag_statistic(y, p, g, k)
        contrib = np.array(out.contributions)
        present = np.bincount(g, minlength=k) > 0
        assert contrib.size == max(k, g.max() + 1)
        assert np.all(contrib[~present] == 0.0)
        for j in np.flatnonzero(present):
            rows_j = g == j
            resid = math.fsum(y[rows_j] - p[rows_j])
            var = math.fsum(p[rows_j] * (1.0 - p[rows_j]))
            assert contrib[j] >= 0.0
            assert contrib[j] == pytest.approx(resid**2 / var, rel=1e-12)
        assert contrib.sum() == pytest.approx(out.statistic, rel=1e-12)
        assert out.realized_k == present.sum()

    def test_validation(self):
        with pytest.raises(ValueError, match="^empty test set$"):
            bag_statistic([], [], [], 1)
        message = "test probabilities must lie strictly in (0, 1)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bag_statistic([1], [1.0], [0], 1)

    @pytest.mark.parametrize("bad", [2, np.nan, 0.5, -1])
    def test_rejects_a_response_that_is_not_0_or_1(self, bad):
        # a 2 once gave a statistic of 3.14, a NaN a statistic of nan
        with pytest.raises(ValueError, match="^response entries must be 0 or 1$"):
            bag_statistic([0, bad, 1], [0.5, 0.4, 0.6], [0, 0, 1], 2)


def _toy_model_and_test():
    """A converged 2-coefficient fit plus a held-out design and grouping."""
    rng = RandomSource(31)
    n = 400
    x = rng.normal(0, 1.5, size=n)
    prob = 1 / (1 + np.exp(-(0.4 + 0.8 * x)))
    y = rng.bernoulli(prob, size=n)
    dm = DesignMatrix(np.column_stack([np.ones(n), x]), ("(Intercept)", "x"))
    model = fit_logistic(dm, y)
    xt = rng.normal(0, 1.5, size=120)
    yt = rng.bernoulli(1 / (1 + np.exp(-(0.4 + 0.8 * xt))), size=120)
    dmt = DesignMatrix(np.column_stack([np.ones(120), xt]), ("(Intercept)", "x"))
    groups = (xt > 0).astype(int)
    return model, dmt, yt, groups


class TestCorrectedStatistic:
    def test_zero_gradient_keeps_statistic(self):
        # symmetric single-group test set at p = 1/2 has residual sum zero,
        # so the statistic is flat in the coefficients and the correction vanishes
        n = 10
        dm = DesignMatrix(np.ones((n, 1)), ("(Intercept)",))
        model = fit_logistic(dm, [1, 0] * 5)
        y_test = np.array([1, 0] * 3)
        dmt = DesignMatrix(np.ones((6, 1)), ("(Intercept)",))
        bag = bag_statistic(y_test, np.full(6, 0.5), np.zeros(6, dtype=int), 1)
        out = corrected_statistic(bag, model, dmt, y_test, np.zeros(6, dtype=int))
        assert out.se == pytest.approx(0.0, abs=1e-9)
        assert out.adjusted == pytest.approx(bag.statistic)

    def test_clamped_at_zero(self):
        # correction exceeding the statistic clamps the adjusted value at zero
        z95 = 1.6448536269514722
        assert max(1.0 - (2.5 / z95) * z95, 0.0) == 0.0
        model, dmt, yt, groups = _toy_model_and_test()
        bag = bag_statistic(yt, np.full(120, 0.5), groups, 2)
        out = corrected_statistic(bag, model, dmt, yt, groups)
        assert out.adjusted >= 0.0
        assert out.adjusted <= bag.statistic

    def test_gradient_matches_richardson_oracle(self):
        from adaptgof.partition import grouped_chi2

        model, dmt, yt, groups = _toy_model_and_test()
        grad = bag_gradient(model, dmt, yt, groups, 2)

        def stat_at(beta):
            eta = dmt.values @ beta
            p = np.clip(1 / (1 + np.exp(-eta)), 1e-10, 1 - 1e-10)
            return grouped_chi2(yt, p, groups, 2)[0]

        oracle = richardson_gradient_oracle(stat_at, model.coef)
        assert_allclose(grad, oracle, rtol=1e-3)

    def test_adjusted_below_raw(self):
        model, dmt, yt, groups = _toy_model_and_test()
        phat = np.clip(1 / (1 + np.exp(-(dmt.values @ model.coef))), 1e-10, 1 - 1e-10)
        bag = bag_statistic(yt, phat, groups, 2)
        out = corrected_statistic(bag, model, dmt, yt, groups)
        assert out.adjusted <= bag.statistic
        assert out.se > 0.0

    def test_runs_when_a_test_group_is_empty(self):
        # labels {0, 2} of a 3-group partition: realized_k = 2 reaches the
        # gradient below the largest label, and nothing may be cut off
        model, dmt, yt, groups = _toy_model_and_test()
        phat = np.clip(1 / (1 + np.exp(-(dmt.values @ model.coef))), 1e-10, 1 - 1e-10)
        bag = bag_statistic(yt, phat, 2 * groups, 3)
        assert bag.realized_k == 2
        assert bag.contributions[1] == 0.0
        out = corrected_statistic(bag, model, dmt, yt, 2 * groups)
        packed = bag_statistic(yt, phat, groups, 2)
        assert bag.statistic == packed.statistic
        assert out == corrected_statistic(packed, model, dmt, yt, groups)

    def test_gradient_when_a_middle_test_group_is_empty(self):
        # labels {0, 1, 3, 4} with realized_k = 4: the one-pass gradient offsets
        # each perturbation's labels by at least the largest label + 1, so no
        # group of one perturbation may spill into the next one's
        model, dmt, yt, _ = _toy_model_and_test()
        quarters = np.searchsorted(np.quantile(dmt.values[:, 1], [0.25, 0.5, 0.75]),
                                   dmt.values[:, 1])
        groups = np.array([0, 1, 3, 4])[quarters]
        bag = bag_statistic(yt, np.full(yt.size, 0.4), groups, 5)
        assert bag.realized_k == 4
        got = bag_gradient(model, dmt, yt, groups, bag.realized_k)
        want = bag_gradient_oracle(model, dmt, yt, groups, bag.realized_k)
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))

    def test_singular_information_skips_correction(self):
        model, dmt, yt, groups = _toy_model_and_test()
        object.__setattr__(model, "fisher_info", np.zeros((2, 2)))
        bag = bag_statistic(yt, np.full(120, 0.4), groups, 2)
        out = corrected_statistic(bag, model, dmt, yt, groups)
        assert out.skipped
        assert out.adjusted == bag.statistic

    def test_se_halves_when_training_quadruples(self):
        # the delta-method term scales like 1/sqrt(n1); a single draw is noisy
        # (the gradient moves with the fitted coefficients), so compare means
        # over fresh training draws against a fixed test fixture
        rng = RandomSource(32)
        xt = rng.normal(0, 1.5, size=200)
        yt = rng.bernoulli(1 / (1 + np.exp(-0.5 * xt)), size=200)
        dmt = DesignMatrix(np.column_stack([np.ones(200), xt]), ("(Intercept)", "x"))
        groups = (xt > 0).astype(int)
        mean_se = {}
        for n1 in (500, 2000):
            ses = []
            for r in range(40):
                x = rng.child(("x", n1, r)).normal(0, 1.5, size=n1)
                y = rng.child(("y", n1, r)).bernoulli(1 / (1 + np.exp(-0.5 * x)), size=n1)
                dm = DesignMatrix(np.column_stack([np.ones(n1), x]), ("(Intercept)", "x"))
                model = fit_logistic(dm, y)
                phat = np.clip(1 / (1 + np.exp(-(dmt.values @ model.coef))),
                               1e-10, 1 - 1e-10)
                bag = bag_statistic(yt, phat, groups, 2)
                ses.append(corrected_statistic(bag, model, dmt, yt, groups).se)
            mean_se[n1] = np.mean(ses)
        ratio = mean_se[2000] / mean_se[500]
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3


class TestSingleSplit:
    def test_deterministic_given_seed(self):
        spec = make_setting("1", 500, beta3=0.651)
        ds = generate(spec, RandomSource(3).child("data"))
        a = single_split_test(ds, spec.model_b, TestConfig(), RandomSource(3).child("split"))
        b = single_split_test(ds, spec.model_b, TestConfig(), RandomSource(3).child("split"))
        assert a == b

    def test_null_p_values_not_anticonservative(self):
        # correct model: single-split rejections at the 0.05 level stay <= 0.03
        spec = make_setting("1", 1000, beta3=0.651)
        rng = RandomSource(404)
        rejections = 0
        seeds = 200
        for r in range(seeds):
            ds = generate(spec, rng.child(("d", r)))
            out = single_split_test(ds, spec.model_a, TestConfig(), rng.child(("s", r)))
            rejections += out.p_value < 0.05
        assert rejections / seeds <= 0.03

    def test_power_against_missing_main_effect(self):
        # a lone split at the 0.05 level already rejects far above size; the
        # full multi-split procedure reaches the near-certain rejection rate
        # checked in the acceptance suite
        spec = make_setting("1", 1000, beta3=0.651)
        rng = RandomSource(405)
        rejections = 0
        p_values = []
        seeds = 100
        for r in range(seeds):
            ds = generate(spec, rng.child(("d", r)))
            out = single_split_test(ds, spec.model_b, TestConfig(), rng.child(("s", r)))
            p_values.append(out.p_value)
            rejections += out.p_value < 0.05
        assert rejections / seeds >= 0.5
        assert np.median(p_values) < 0.05

    def test_counts_follow_rules(self):
        spec = make_setting("1", 500, beta3=0.651)
        ds = generate(spec, RandomSource(6).child("data"))
        out = single_split_test(ds, spec.model_b, TestConfig(), RandomSource(6).child("s"))
        recounted = {}
        for group in out.partition.groups:
            for rule in group.rules:
                recounted[rule.source] = recounted.get(rule.source, 0) + 1
        assert recounted == out.counts_all

    def test_preconditions(self):
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(7).child("data"))
        with pytest.raises(ValueError):
            single_split_test(ds, spec.model_a, TestConfig(n_min=80), RandomSource(7))
        with pytest.raises(ValueError):
            single_split_test(ds, spec.model_a, TestConfig(train_size=199, k=5),
                              RandomSource(7))

    @pytest.mark.parametrize("failure", ["InfeasiblePartitionError", "SingleClassError"])
    def test_a_split_failure_raises(self, failure):
        # what multi_split_test counts as a failed split, the lone split raises
        if failure == "InfeasiblePartitionError":
            spec = make_setting("1", 200, beta3=0.651)
            ds = generate(spec, RandomSource(10).child("data"))
            ds = ds.with_column("flat", np.ones(ds.n))  # no cut can split a constant column
            mta, config, seed = spec.model_b, TestConfig(continuous=("flat",), discrete=()), 10
            error, message = InfeasiblePartitionError, "the root group admits no feasible split"
        else:
            y = np.zeros(40, dtype=int)
            y[:2] = 1  # seed 5 holds both positives out of its 30 training rows
            ds = Dataset(y=y, columns={"x1": np.linspace(-1.0, 1.0, 40)},
                         kinds={"x1": "continuous"})
            mta, config, seed = parse_formula("x1"), TestConfig(k=2, train_size=30), 5
            error, message = SingleClassError, "both response classes must be present"
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            single_split_test(ds, mta, config, RandomSource(seed))

    @pytest.mark.parametrize("run", [single_split_test, multi_split_test])
    @pytest.mark.parametrize("case", ["training-below-coefficients", "nan-in-search-column"])
    def test_split_independent_errors_raise_before_any_split(self, monkeypatch, run, case):
        # no draw of rows can mend these, so the test fails once instead of
        # counting failed splits
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))
        if case == "training-below-coefficients":
            config = TestConfig(train_size=2, n_min=1, splits=20)
            message = "training size 2 is below the model's 3 coefficients"
        else:
            x3 = ds.columns["x3"].copy()
            x3[:3] = np.nan  # x3 is searched but not in the model
            ds = ds.with_column("x3", x3)
            config = TestConfig(splits=20)
            message = "continuous column 'x3' is not finite at row 0"

        def no_split(*args):
            raise AssertionError("a split was drawn")

        monkeypatch.setattr(gof, "_fit_splits", no_split)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run(ds, spec.model_b, config, RandomSource(10).child("m"))

    def test_default_train_sizes(self):
        assert default_train_size(200, 5) == 150
        assert default_train_size(500, 5) == 425
        assert default_train_size(1000, 5) == 900
        assert default_train_size(500, 3) == 455
        assert default_train_size(1000, 3) == 940
        assert default_train_size(700, 5) == 630


class TestConfigChecks:
    @pytest.mark.parametrize("fields, message", [
        ({"k": 1}, "k must be at least 2"),
        ({"n_min": 0}, "n_min must be at least 1"),
        ({"alpha": 0.0}, "alpha must lie in (0, 1)"),
        ({"alpha": 1.0}, "alpha must lie in (0, 1)"),
        ({"splits": 0}, "splits must be at least 1"),
        ({"partition_by": "quantiles"}, "unknown partition mode 'quantiles'"),
        ({"partition_by": "score"}, "partition_by='score' requires score_column"),
    ])
    def test_rejects_each_bad_field(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TestConfig(**fields)


class TestMultiSplit:
    def test_threshold_s100(self):
        median, threshold, reject = aggregate_p_values([0.001] * 100, 100, 0.05)
        assert abs(threshold - 0.45252) < 1e-4
        assert reject is True

    def test_all_large_p_accepts(self):
        _, _, reject = aggregate_p_values([0.999] * 100, 100, 0.05)
        assert reject is False

    def test_single_split_threshold(self):
        threshold = decision_threshold(0.05, 1)
        assert abs(threshold - 0.0251) < 1e-3

    def test_lower_median_for_even_counts(self):
        median, _, _ = aggregate_p_values([0.1, 0.2, 0.3, 0.4], 4, 0.05)
        assert median == 0.2

    def test_decision_monotonicity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ps = rng.random(21).tolist()
            _, _, reject = aggregate_p_values(ps, 21, 0.05)
            lowered = [p * rng.random() for p in ps]
            _, _, reject_low = aggregate_p_values(lowered, 21, 0.05)
            if reject:
                assert reject_low

    def test_report_fields_and_determinism(self):
        spec = make_setting("1", 500, beta3=0.651)
        ds = generate(spec, RandomSource(9).child("data"))
        cfg = TestConfig(splits=10)
        rep1 = multi_split_test(ds, spec.model_b, cfg, RandomSource(9).child("m"), seed=9)
        rep2 = multi_split_test(ds, spec.model_b, cfg, RandomSource(9).child("m"), seed=9)
        assert json.dumps(report_to_dict(rep1)) == json.dumps(report_to_dict(rep2))
        assert rep1.threshold == decision_threshold(0.05, 10)
        assert rep1.n_failed == 0
        assert len(rep1.outcomes) == 10

    def test_majority_failures_inconclusive(self):
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))
        # the only splitting column is constant: every split's partition
        # search is infeasible
        ds = ds.with_column("flat", np.ones(ds.n))
        cfg = TestConfig(splits=6, continuous=("flat",), discrete=())
        report = multi_split_test(ds, spec.model_b, cfg, RandomSource(10).child("m"))
        assert report.inconclusive
        assert report.reject is None
        assert report.n_failed == 6

        def reject_constant(name):
            raise ValueError(f"{name} is not valid JSON")

        payload = json.loads(json.dumps(report_to_dict(report)), parse_constant=reject_constant)
        assert payload["decision"]["median_p"] is None
        assert [list(split) for split in payload["splits"]] == [["split", "failed", "error"]] * 6
        assert payload["splits"] == [
            {"split": i, "failed": True, "error": o.error} for i, o in enumerate(report.outcomes)
        ]

    @pytest.mark.parametrize("error", [ValueError, InfeasiblePartitionError, RankDeficiencyError])
    def test_split_dependent_errors_count_as_failed_splits(self, monkeypatch, error):
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))
        greedy_stack = gof._greedy_stack

        def fail_the_second_split(*args):
            # the stacked search hands back one split's failure in that split's place
            out = greedy_stack(*args)
            out[1] = error("raised by the layer")
            return out

        monkeypatch.setattr(gof, "_greedy_stack", fail_the_second_split)
        report = multi_split_test(ds, spec.model_b, TestConfig(splits=3),
                                  RandomSource(10).child("m"))
        assert report.n_failed == 1
        assert [o.failed for o in report.outcomes] == [False, True, False]
        assert report.outcomes[1].error == f"{error.__name__}: raised by the layer"

    def test_a_partition_with_a_gap_stops_the_run(self, monkeypatch):
        # a partition tiles the space by construction, so a row that no group
        # holds is a bug: it propagates instead of counting as a failed split
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))
        greedy_stack = gof._greedy_stack
        gap = Partition(groups=(
            Group(rules=(AxisRule("x1", "le", threshold=-10.0),), train_count=1),
            Group(rules=(AxisRule("x1", "gt", threshold=10.0),), train_count=1),
        ), sources=("x1",))

        def leave_a_gap_in_the_second_split(*args):
            out = greedy_stack(*args)
            out[1] = gap
            return out

        monkeypatch.setattr(gof, "_greedy_stack", leave_a_gap_in_the_second_split)
        with pytest.raises(CoverageError, match="^row 0 matched 0 groups instead of 1$"):
            multi_split_test(ds, spec.model_b, TestConfig(splits=3), RandomSource(10).child("m"))

    def test_nonconverged_splits_are_left_out(self, monkeypatch):
        spec = make_setting("1", 500, beta3=0.651)
        ds = generate(spec, RandomSource(11).child("data"))
        calls = []
        fit_stack = gof._fit_stack

        def every_other_nonconverged(*args, **kwargs):
            # the split loop fits its splits in stacks: mark every other fit
            fits = []
            for fit in fit_stack(*args, **kwargs):
                calls.append(None)
                fits.append(fit if len(calls) % 2 else dataclasses.replace(fit, converged=False))
            return fits

        monkeypatch.setattr(gof, "_fit_stack", every_other_nonconverged)
        splits = 10
        report = multi_split_test(ds, spec.model_b, TestConfig(splits=splits),
                                  RandomSource(11).child("m"))
        payload = report_to_dict(report)
        usable = report.outcomes[0::2]
        assert [o.converged for o in report.outcomes] == [True, False] * (splits // 2)
        assert not any(o.failed for o in report.outcomes)
        assert report.n_failed == payload["decision"]["failed_splits"] == splits // 2
        assert report.n_failed == splits - payload["statistic_summary"]["n_usable"]
        p_values = sorted(o.p_value for o in usable)
        assert report.median_p == p_values[(len(p_values) - 1) // 2]
        total, max_group = Counter(), Counter()
        for o in usable:
            total.update(o.counts_all)
            max_group.update(o.counts_max_group)
        assert sum(t for _, t, _ in report.ranking) == sum(total.values()) > 0
        assert {n: (t, m) for n, t, m in report.ranking} == {
            n: (total[n], max_group[n]) for n in total | max_group
        }

    @pytest.mark.parametrize("failure, mode", [
        pytest.param("RankDeficiencyError", "mta-prob", id="RankDeficiencyError"),
        pytest.param("SingleClassError", "mta-prob", id="SingleClassError"),
        pytest.param("InfeasiblePartitionError", "covariates", id="InfeasiblePartitionError"),
        pytest.param("RankDeficiencyError", "covariates", id="RankDeficiencyError-covariates"),
        pytest.param("SingleClassError", "score", id="SingleClassError-score"),
        pytest.param("RankDeficiencyError+InfeasiblePartitionError", "covariates",
                     id="fit-and-search-failures"),
    ])
    def test_reports_do_not_depend_on_the_stack_size(self, monkeypatch, failure, mode):
        # x2 is nonzero on two rows only, or y holds two positives: a split
        # that holds both rows out of training fails its fit alone. For the
        # covariate search, c is 0 and d is "u" on 48 rows, so a split with
        # fewer than n_min = 8 of the other 12 rows of each in training has no
        # feasible root cut and fails its search alone. With both, a stack
        # loses splits after the fit and again after the search.
        rng = np.random.default_rng(3)
        n = 60
        x1, x2 = rng.normal(size=n), rng.normal(size=n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-x1))).astype(int)
        columns = {"x1": x1, "x2": x2, "s": rng.uniform(size=n)}
        kinds = {"x1": "continuous", "x2": "continuous", "s": "continuous"}
        cfg = TestConfig(k=3, train_size=40, splits=40, partition_by=mode,
                         score_column="s" if mode == "score" else None,
                         continuous=("x1", "x2") if mode == "covariates" else None)
        if "RankDeficiencyError" in failure:
            x2 = np.zeros(n)
            x2[:2] = (1.0, 2.0)
            columns["x2"] = x2
        if failure == "SingleClassError":
            y = np.zeros(n, dtype=int)
            y[:2] = 1
        if "InfeasiblePartitionError" in failure:
            c = np.zeros(n)
            c[:12] = rng.uniform(1.0, 2.0, size=12)
            d = np.array(["u"] * n, dtype=object)
            d[20:32] = ["v", "w"] * 6
            columns |= {"c": c, "d": d}
            kinds |= {"c": "continuous", "d": "discrete"}
            cfg = TestConfig(k=3, n_min=8, train_size=40, splits=40,
                             continuous=("c",), discrete=("d",))
        ds = Dataset(y=y, columns=columns, kinds=kinds)
        fit_splits = gof._fit_splits
        stacks = []

        def record_stack(dataset, x_full, plan, rngs):
            stacks.append(len(rngs))
            return fit_splits(dataset, x_full, plan, rngs)

        monkeypatch.setattr(gof, "_fit_splits", record_stack)
        reports = []
        # one split per stack; budgets of 7 splits (stacks of 7, 7, 7, 7, 7
        # and 5) and of 15 (evened from 15, 15 and 10 to 14, 14 and 12); then
        # all 40 in one
        budgets = ((1, [1] * 40), (7 * 40, [7] * 5 + [5]), (15 * 40, [14, 14, 12]), (40 * 40, [40]))
        for rows, sizes in budgets:
            monkeypatch.setattr(gof, "_STACK_ROWS", rows)
            stacks.clear()
            report = multi_split_test(ds, parse_formula("x1 + x2"), cfg,
                                      RandomSource(5).child("m"))
            assert stacks == sizes
            reports.append(json.dumps(report_to_dict(report)))
        assert all(r == reports[0] for r in reports)
        errors = [o.error for o in report.outcomes if o.failed]
        assert errors and {e.split(": ")[0] for e in errors} == set(failure.split("+"))
        assert len(errors) < cfg.splits
        if "InfeasiblePartitionError" in failure:
            rules = {r.source for o in report.outcomes if not o.failed
                     for g in o.partition.groups for r in g.rules}
            assert rules == {"c", "d"}

    def test_the_larger_half_of_a_split_sizes_its_stack(self, monkeypatch):
        # 60 training and 140 test rows: a budget of 7 x 140 rows holds 7
        # splits (stacks of 7, 7, 7, 7, 7 and 5), not 16 of 60 training rows
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))
        fit_splits = gof._fit_splits
        stacks = []

        def record_stack(dataset, x_full, plan, rngs):
            stacks.append(len(rngs))
            return fit_splits(dataset, x_full, plan, rngs)

        monkeypatch.setattr(gof, "_fit_splits", record_stack)
        monkeypatch.setattr(gof, "_STACK_ROWS", 7 * 140 + 139)
        multi_split_test(ds, spec.model_b, TestConfig(train_size=60, splits=40),
                         RandomSource(10).child("m"))
        assert stacks == [7] * 5 + [5]

    def test_one_search_index_per_test(self, monkeypatch):
        # 100 splits of 150 training rows in stacks of at most 40 (stacks of
        # 34, 34 and 32) share the index built before the first split
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))
        fit_splits, search_index = gof._fit_splits, gof._search_index
        stacks, indexes = [], []

        def record_stack(dataset, x_full, plan, rngs):
            stacks.append(len(rngs))
            return fit_splits(dataset, x_full, plan, rngs)

        def record_index(*args):
            indexes.append(search_index(*args))
            return indexes[-1]

        monkeypatch.setattr(gof, "_fit_splits", record_stack)
        monkeypatch.setattr(gof, "_search_index", record_index)
        monkeypatch.setattr(gof, "_STACK_ROWS", 40 * 150)
        multi_split_test(ds, spec.model_b, TestConfig(splits=100), RandomSource(10).child("m"))
        assert stacks == [34, 34, 32]
        assert len(indexes) == 1

    def test_one_p_value_call_per_test(self, monkeypatch):
        # 100 splits of 150 training rows in stacks of 34, 34 and 32, with
        # every p-value bit for bit the tail of its split alone
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))
        calls = []

        def record_chi2_sf(x, k):
            calls.append(np.size(x))
            return chi2_sf(x, k)

        monkeypatch.setattr(gof, "chi2_sf", record_chi2_sf)
        monkeypatch.setattr(gof, "_STACK_ROWS", 40 * 150)
        report = multi_split_test(ds, spec.model_b, TestConfig(splits=100),
                                  RandomSource(10).child("m"))
        scored = [o for o in report.outcomes if not o.failed]
        assert calls == [len(scored)] and len(scored) > 90
        assert [o.p_value for o in scored] == [chi2_sf(o.adjusted, o.realized_k) for o in scored]

    def test_programming_errors_propagate(self, monkeypatch):
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))

        def broken(*args, **kwargs):
            raise TypeError("a bug, not a split failure")

        monkeypatch.setattr(gof, "_assign_stack", broken)
        with pytest.raises(TypeError, match="a bug"):
            multi_split_test(ds, spec.model_b, TestConfig(splits=3), RandomSource(10).child("m"))

    def test_split_rows_are_the_sorted_halves_of_each_permutation(self):
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(12).child("data"))
        rng = RandomSource(12).child("m")
        rngs = [rng.child(("split", i)) for i in range(7)]
        # a plan of 150 training rows and a start from zero
        x = design_matrix(ds, spec.model_b)
        plan = gof._Plan(n_train=150, index=None, scores=None, full=None)
        stack = gof._fit_splits(ds, x, plan, rngs)
        assert stack.train.shape == (7, 150) and stack.test.shape == (7, 50)
        assert len(stack.fits) == 7
        assert np.array_equal(stack.xt_test, x.values[stack.test].transpose(0, 2, 1))
        for i in range(7):
            perm = rng.child(("split", i)).permutation(ds.n)
            assert np.array_equal(stack.train[i], np.sort(perm[:150]))
            assert np.array_equal(stack.test[i], np.sort(perm[150:]))

    def test_narrowing_copies_nothing_when_every_split_stays(self):
        rows, fits = np.arange(12.0).reshape(3, 4), ["a", "b", "c"]
        kept = gof._narrow([0, 1, 2], rows, fits)
        assert kept[0] is rows and kept[1] is fits
        narrowed, names = gof._narrow([0, 2], rows, fits)
        assert np.array_equal(narrowed, rows[[0, 2]]) and names == ["a", "c"]

    def test_unsatisfiable_sizes_raise_before_any_split(self):
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(10).child("data"))
        # n_min too large for the training rows: no split could run
        with pytest.raises(ValueError, match="below 2 \\* n_min"):
            multi_split_test(ds, spec.model_b, TestConfig(splits=6, n_min=90),
                             RandomSource(10).child("m"))
        with pytest.raises(ValueError, match="test size 4 is below k = 5"):
            multi_split_test(ds, spec.model_b, TestConfig(splits=6, train_size=196),
                             RandomSource(10).child("m"))
        scored = ds.with_column("score", np.linspace(0.0, 1.5, ds.n))
        with pytest.raises(ValueError, match="must lie in"):
            multi_split_test(scored, spec.model_b,
                             TestConfig(splits=6, partition_by="score", score_column="score"),
                             RandomSource(10).child("m"))
        with pytest.raises(KeyError):
            multi_split_test(ds, spec.model_b,
                             TestConfig(splits=6, partition_by="score", score_column="absent"),
                             RandomSource(10).child("m"))


class TestCovariateCounts:
    def test_rule_counting_example(self):
        part = Partition(groups=(
            Group(rules=(AxisRule("x1", "le", threshold=0.0),), train_count=5),
            Group(rules=(AxisRule("x1", "gt", threshold=0.0),
                         AxisRule("x2", "le", threshold=1.0)), train_count=5),
        ))
        outcome = SplitOutcome(
            statistic=1.0, adjusted=1.0, se=0.0, realized_k=2, p_value=0.5,
            partition=part, counts_all={"x1": 2, "x2": 1}, counts_max_group={"x1": 1},
        )
        ranking = covariate_counts([outcome])
        assert ranking == (("x1", 2, 1), ("x2", 1, 0))

    def test_empty(self):
        assert covariate_counts([]) == ()

    def test_ties_break_lexicographically(self):
        outcome = SplitOutcome(
            statistic=1.0, adjusted=1.0, se=0.0, realized_k=2, p_value=0.5,
            partition=Partition(groups=(Group(rules=(), train_count=1),)),
            counts_all={"b": 3, "a": 3}, counts_max_group={},
        )
        assert covariate_counts([outcome]) == (("a", 3, 0), ("b", 3, 0))
