import time
import warnings

import numpy as np
import pytest
from scipy.special import chdtrc, ndtri
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaptgof import (
    RandomSource,
    chi2_sf,
    empirical_quantiles,
    gaussian_quantile,
)

from _fixtures import bisect, chi2_sf_oracle, gaussian_cdf_oracle, lower_gamma_series_oracle


class TestChi2Sf:
    def test_whole_mass_above_zero(self):
        assert chi2_sf(0.0, 5) == 1.0

    def test_critical_value_df5(self):
        # 0.95 quantile of chi2_5, located by bisection on the series oracle
        crit = bisect(lambda v: chi2_sf_oracle(v, 5) - 0.05, 0.1, 50.0)
        assert abs(crit - 11.0705) < 1e-3
        assert abs(chi2_sf(11.0705, 5) - 0.05) < 1e-4

    def test_critical_value_df1(self):
        # square of the 1.96 two-sided Gaussian critical value
        assert abs(chi2_sf(3.8415, 1) - 0.05) < 1e-4

    def test_matches_series_oracle(self):
        for k in (1, 2, 3, 5, 10, 30, 100):
            for x in (0.01, 0.5, 1.0, 3.0, 10.0, 50.0, 120.0, 200.0):
                assert abs(chi2_sf(x, k) - chi2_sf_oracle(x, k)) < 1e-10

    def test_complement_of_lower_tail_oracle(self):
        for k in (2, 7, 40):
            for x in (0.3, 4.0, 25.0, 90.0):
                lower = lower_gamma_series_oracle(k / 2.0, x / 2.0)
                assert abs(chi2_sf(x, k) + lower - 1.0) < 1e-9

    def test_strictly_decreasing_in_x(self):
        for k in (1, 4, 11):
            grid = [chi2_sf(x, k) for x in np.linspace(0.0, 60.0, 121)]
            assert all(a > b for a, b in zip(grid, grid[1:]))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 100), st.floats(0.0, 1e4), st.floats(0.0, 1e4))
    def test_non_increasing_in_x_and_a_probability(self, k, a, b):
        lo, hi = min(a, b), max(a, b)
        upper, lower = chi2_sf(lo, k), chi2_sf(hi, k)
        assert 0.0 <= lower <= 1.0 and 0.0 <= upper <= 1.0
        # the last ulp is rounding: of adjacent floats the larger x reads
        # higher about 8% of the time, so compare to rel 1e-12
        assert lower <= upper * (1.0 + 1e-12)

    def test_a_value_in_an_array_is_the_value_alone(self):
        # each value's terms are summed on their own, so the p-values of a
        # whole test, in one call, are bit for bit those of one call each
        rng = np.random.default_rng(7)
        ks = np.concatenate([rng.integers(1, 12, size=250), [1, 2, 3, 100, 1000, 10**6]])
        xs = np.concatenate([rng.exponential(8.0, size=250), [0.0, 1e-300, 3.8415, 150.0, 900.0,
                                                              1e6]])
        for size in (1, 2, 3, 7, 8, 9, 100, xs.size):
            got = chi2_sf(xs[:size], ks[:size])
            want = [chi2_sf(float(x), int(k)) for x, k in zip(xs[:size], ks[:size])]
            assert got.tolist() == want

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1, 3)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)
        with pytest.raises(ValueError, match=r"^chi2_sf requires x >= 0, got nan$"):
            chi2_sf(np.array([1.0, np.nan]), 3)
        for bad in ("nan", "inf"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # no cast of a non-finite k to an integer
                with pytest.raises(ValueError, match=f"^chi2_sf requires a finite k >= 1, got {bad}$"):
                    chi2_sf(1.0, np.array([3, float(bad)]))


class TestGaussianQuantile:
    def test_symmetry_at_half(self):
        assert gaussian_quantile(0.5) == 0.0

    def test_p95_against_erf_series_bisection(self):
        oracle = bisect(lambda v: gaussian_cdf_oracle(v) - 0.95, 0.0, 5.0)
        assert abs(oracle - 1.6449) < 1e-4
        assert abs(gaussian_quantile(0.95) - 1.6449) < 1e-4

    def test_p05_by_symmetry(self):
        assert abs(gaussian_quantile(0.05) + 1.6449) < 1e-4
        assert abs(gaussian_quantile(0.05) + gaussian_quantile(0.95)) < 1e-12

    def test_round_trip_through_cdf(self):
        for p in np.linspace(0.001, 0.999, 199):
            assert abs(gaussian_cdf_oracle(gaussian_quantile(p)) - p) < 1e-7

    def test_accuracy_against_series_cdf(self):
        # CDF-of-quantile against the independent series CDF in a range
        # where the Maclaurin series is well converged.
        for p in (0.01, 0.1, 0.3, 0.7, 0.9, 0.99):
            x = gaussian_quantile(p)
            assert abs(gaussian_cdf_oracle(x) - p) < 1e-8

    def test_vectorized(self):
        ps = np.array([0.2, 0.5, 0.8])
        out = gaussian_quantile(ps)
        assert out.shape == (3,)
        assert abs(out[0] + out[2]) < 1e-12

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                gaussian_quantile(bad)


class TestAgainstScipy:
    """``chi2_sf`` and ``gaussian_quantile`` against scipy, a reference the tests alone import."""

    def test_gaussian_quantile_is_ndtri_on_uniforms(self):
        # the draws RandomSource.normal feeds it, floored at 1e-300 as there
        u = np.maximum(np.random.default_rng(0).random(1_000_000), 1e-300)
        assert np.array_equal(gaussian_quantile(u), ndtri(u))

    def test_gaussian_quantile_is_ndtri_on_the_tails(self):
        tail = np.geomspace(1e-300, 0.5, 300_001)
        assert np.array_equal(gaussian_quantile(tail), ndtri(tail))
        upper = 1.0 - tail[tail > 1e-16]
        assert np.array_equal(gaussian_quantile(upper), ndtri(upper))

    def test_gaussian_quantile_is_ndtri_at_the_branch_points(self):
        points = []
        for edge in (np.exp(-2.0), 1.0 - np.exp(-2.0)):
            below = above = edge
            for _ in range(8):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
                points += [below, above]
            points.append(edge)
        points = np.array(points)
        assert np.array_equal(gaussian_quantile(points), ndtri(points))
        assert all(gaussian_quantile(p) == ndtri(p) for p in points.tolist())

    def test_chi2_sf_within_1e_12_of_chdtrc(self):
        # x past 1418 underflows e^(-x/2), not the tail at large k. Against
        # 50-digit arithmetic chi2_sf is within 1.3e-13 here: most of the
        # gap is chdtrc's own error, up to about 1e-12 near k = 870, x = 2260
        x = np.concatenate([np.linspace(0.0, 3000.0, 61), np.geomspace(1e-3, 3000.0, 40)])
        checked = underflowed = 0
        for ks in np.array_split(np.arange(1, 1001), 20):
            got, ref = chi2_sf(x, ks[:, None]), chdtrc(ks[:, None], x)
            seen = ref >= 1e-300
            assert np.all(np.abs(got - ref)[seen] <= 1e-12 * ref[seen])
            checked += seen.sum()
            underflowed += (seen & (np.exp(-x / 2) == 0.0)).sum()
        assert checked > 90_000 and underflowed > 20_000

    def test_chi2_sf_is_at_most_one(self):
        # an unclamped sum can round above 1 here
        assert chi2_sf(1.5, 33) <= 1.0

    def test_chi2_sf_at_zero_is_one_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi2_sf(0.0, 1) == 1.0
            assert chi2_sf(np.zeros(4), np.array([1, 2, 3, 1000])).tolist() == [1.0] * 4
            assert chi2_sf(np.array([0.0, 1e-308, 1e20, np.inf]), 3).tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_chi2_sf_broadcasts_a_stack(self):
        x = np.array([0.0, 0.7, 4.0, 30.0, 2500.0])
        k = np.array([1, 2, 7, 40])
        out = chi2_sf(x[:, None], k[None, :])
        assert out.shape == (5, 4)
        assert out.tolist() == [[chi2_sf(a, b) for b in k.tolist()] for a in x.tolist()]
        assert_allclose(out, chdtrc(k[None, :], x[:, None]), rtol=1e-12)

    def test_chi2_sf_large_k_is_fast(self):
        start = time.perf_counter()
        out = chi2_sf(np.array([9.9e6, 1e7, 1.01e7]), 10**7)
        assert time.perf_counter() - start < 1.0
        assert_allclose(out, chdtrc(10**7, np.array([9.9e6, 1e7, 1.01e7])), rtol=1e-10)


class TestEmpiricalQuantiles:
    def test_lower_median_convention(self):
        assert empirical_quantiles([1, 2, 3, 4], [0.5]).tolist() == [2]

    def test_single_sample(self):
        assert empirical_quantiles([5], [0.1, 0.9]).tolist() == [5, 5]

    def test_direct_count_on_1_to_100(self):
        out = empirical_quantiles(range(1, 101), [0.25, 0.75])
        assert out.tolist() == [25, 75]

    def test_counting_definition_holds(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=137)
        for p in (0.1, 0.33, 0.5, 0.9):
            q = empirical_quantiles(values, [p])[0]
            # smallest value with fraction >= p of the sample at or below it
            assert np.mean(values <= q) >= p
            below = values[values < q]
            if below.size:
                assert np.mean(values <= below.max()) < p

    def test_monotone_in_p(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=50)
        ps = np.linspace(0.05, 0.95, 19)
        qs = empirical_quantiles(values, ps)
        assert np.all(np.diff(qs) >= 0)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            empirical_quantiles([], [0.5])
        with pytest.raises(ValueError):
            empirical_quantiles([1.0], [0.0])


class TestRandomSource:
    def test_equal_seeds_equal_streams(self):
        a = RandomSource(123).random(10_000)
        b = RandomSource(123).random(10_000)
        assert np.array_equal(a, b)

    def test_children_are_reproducible(self):
        a = RandomSource(9).child(("rep", 3)).normal(size=50)
        b = RandomSource(9).child(("rep", 3)).normal(size=50)
        assert np.array_equal(a, b)

    def test_distinct_labels_diverge_immediately(self):
        a = RandomSource(9).child("a").random(100)
        b = RandomSource(9).child("b").random(100)
        assert not np.array_equal(a, b)
        # no shared prefix of length 100
        prefix = 0
        while prefix < 100 and a[prefix] == b[prefix]:
            prefix += 1
        assert prefix < 100

    def test_child_differs_from_parent(self):
        parent = RandomSource(9)
        child = parent.child("x")
        assert not np.array_equal(parent.random(100), child.random(100))

    def test_uniform_bounds_and_moments(self):
        draws = RandomSource(1).uniform(-3, 3, size=50_000)
        assert draws.min() >= -3 and draws.max() < 3
        assert abs(draws.mean()) < 0.05
        assert_allclose(draws.var(), 3.0, rtol=0.05)

    def test_gaussian_moments(self):
        draws = RandomSource(2).normal(1.0, 2.0, size=50_000)
        assert_allclose(draws.mean(), 1.0, atol=0.05)
        assert_allclose(draws.std(), 2.0, rtol=0.03)

    def test_chisquare_moments(self):
        draws = RandomSource(3).chisquare(4, size=50_000)
        assert_allclose(draws.mean(), 4.0, rtol=0.03)
        assert_allclose(draws.var(), 8.0, rtol=0.06)

    def test_bernoulli(self):
        draws = RandomSource(4).bernoulli(0.25, size=50_000)
        assert set(np.unique(draws)) <= {0, 1}
        assert abs(draws.mean() - 0.25) < 0.01

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RandomSource(-1)
        with pytest.raises(ValueError):
            RandomSource(2**64)

    def test_chisquare_df_validation(self):
        with pytest.raises(ValueError):
            RandomSource(5).chisquare(0)
