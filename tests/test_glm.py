import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaptgof import (
    DesignMatrix,
    FittedGlm,
    RandomSource,
    RankDeficiencyError,
    SingleClassError,
    design_matrix,
    fit_logistic,
    generate,
    make_setting,
    predict_prob,
)
from adaptgof import glm
from adaptgof.gof import bag_gradient
from adaptgof.sim import SETTINGS

from _fixtures import (
    LOGIT20_X,
    LOGIT20_Y,
    _solve_spd_oracle,
    bag_gradient_oracle,
    fit_logistic_oracle,
    grid_search_mle_oracle,
    logistic_loglik_oracle,
    predict_prob_oracle,
)


def intercept_only(n):
    return DesignMatrix(np.ones((n, 1)), ("(Intercept)",))


def with_slope(x):
    x = np.asarray(x, dtype=float)
    return DesignMatrix(np.column_stack([np.ones(x.size), x]), ("(Intercept)", "x"))


class TestFitLogistic:
    def test_intercept_only_balanced(self):
        fit = fit_logistic(intercept_only(8), [1, 0, 1, 0, 1, 0, 1, 0])
        assert abs(fit.coef[0]) < 1e-8
        assert fit.converged

    def test_intercept_only_quarter(self):
        fit = fit_logistic(intercept_only(8), [1, 0, 0, 0, 1, 0, 0, 0])
        assert abs(fit.coef[0] - math.log(1 / 3)) < 1e-6

    def test_fixture_matches_grid_search_mle(self):
        x = with_slope(LOGIT20_X)
        fit = fit_logistic(x, LOGIT20_Y)
        oracle = grid_search_mle_oracle(x.values, LOGIT20_Y, spans=(5.0, 5.0))
        assert_allclose(fit.coef, oracle, atol=1e-4)

    def test_gradient_small_at_optimum(self):
        x = with_slope(LOGIT20_X)
        fit = fit_logistic(x, LOGIT20_Y)
        p = predict_prob(fit, x)
        grad = x.values.T @ (LOGIT20_Y - p)
        assert np.max(np.abs(grad)) <= 1e-8 * x.n

    def test_loglik_nondecreasing_over_accepted_steps(self):
        x = with_slope(LOGIT20_X)
        fit = fit_logistic(x, LOGIT20_Y)
        assert all(a <= b + 1e-12 for a, b in zip(fit.ll_path, fit.ll_path[1:]))

    def test_relabel_symmetry(self):
        x = with_slope(LOGIT20_X)
        fit = fit_logistic(x, LOGIT20_Y)
        flipped = fit_logistic(x, 1 - LOGIT20_Y)
        assert_allclose(flipped.coef, -fit.coef, atol=1e-7)

    def test_single_class_error(self):
        with pytest.raises(SingleClassError):
            fit_logistic(intercept_only(5), [1, 1, 1, 1, 1])

    def test_bad_response_values(self):
        with pytest.raises(ValueError):
            fit_logistic(intercept_only(3), [0, 1, 2])

    def test_rank_deficient_design(self):
        x = np.column_stack([np.ones(10), np.arange(10.0), np.arange(10.0)])
        dm = DesignMatrix(x, ("(Intercept)", "a", "a_copy"))
        y = np.array([0, 1, 0, 1, 1, 0, 1, 0, 1, 1])
        with pytest.raises(RankDeficiencyError):
            fit_logistic(dm, y)

    def test_separated_data_never_raises(self):
        # perfectly separated: the MLE is at infinity; clamping turns the fit
        # into a finite extreme solution instead of an error
        x = with_slope(np.linspace(-2, 2, 30))
        y = (np.linspace(-2, 2, 30) > 0).astype(int)
        fit = fit_logistic(x, y)
        assert np.all(np.isfinite(fit.coef))
        assert fit.coef[1] > 50  # pushed to the clamped regime
        assert fit.iterations <= 100

    def test_design_validation(self):
        with pytest.raises(ValueError):
            DesignMatrix(np.array([[1.0, np.nan]]), ("a", "b"))
        with pytest.raises(ValueError):
            fit_logistic(DesignMatrix(np.ones((1, 2)), ("a", "b")), [1])


class TestPredictProb:
    def test_zero_coefficients_give_half(self):
        fit = fit_logistic(intercept_only(4), [1, 0, 1, 0])
        out = predict_prob(fit, intercept_only(6))
        assert_allclose(out, 0.5, atol=1e-9)

    def test_saturation_clamps(self):
        fit = fit_logistic(with_slope([-1.0, 1.0, -2.0, 2.0]), [0, 1, 0, 1])
        object.__setattr__(fit, "coef", np.array([0.0, 1.0]))
        out = predict_prob(fit, with_slope([40.0]))
        assert out[0] == 1.0 - 1e-10

    def test_direct_evaluation(self):
        fit = fit_logistic(with_slope([-1.0, 1.0, -2.0, 2.0]), [0, 1, 0, 1])
        object.__setattr__(fit, "coef", np.array([0.5, -1.0]))
        out = predict_prob(fit, with_slope([2.0]))
        assert abs(out[0] - 1.0 / (1.0 + math.exp(1.5))) < 1e-5

    def test_dimension_mismatch(self):
        fit = fit_logistic(intercept_only(4), [1, 0, 1, 0])
        with pytest.raises(ValueError):
            predict_prob(fit, with_slope([1.0, 2.0]))

    def test_downstream_variance_positive(self):
        fit = fit_logistic(with_slope(np.linspace(-2, 2, 20)),
                           (np.linspace(-2, 2, 20) > 0).astype(int))
        p = predict_prob(fit, with_slope(np.linspace(-500, 500, 101)))
        assert np.all(p * (1 - p) >= 1e-10 * (1 - 1e-10) - 1e-16)


class TestObservedInformation:
    def test_intercept_only_quarter_n(self):
        n = 12
        fit = fit_logistic(intercept_only(n), [1, 0] * 6)
        assert_allclose(fit.fisher_info, [[n / 4]], atol=1e-8)

    def test_matches_finite_difference_hessian(self):
        x = with_slope(LOGIT20_X)
        fit = fit_logistic(x, LOGIT20_Y)
        h = 1e-5
        beta = fit.coef
        hess = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                bpp, bpm, bmp, bmm = (beta.copy() for _ in range(4))
                bpp[[i, j]] += h
                bmm[[i, j]] -= h
                bpm[i] += h
                bpm[j] -= h
                bmp[i] -= h
                bmp[j] += h
                if i == j:
                    bpp, bpm, bmp, bmm = beta.copy(), beta.copy(), beta.copy(), beta.copy()
                    bpp[i] += 2 * h
                    bmm[i] -= 2 * h
                    f = lambda b: logistic_loglik_oracle(x.values, LOGIT20_Y, b)
                    hess[i, j] = -(f(bpp) - 2 * f(beta) + f(bmm)) / (4 * h * h)
                else:
                    f = lambda b: logistic_loglik_oracle(x.values, LOGIT20_Y, b)
                    hess[i, j] = -(f(bpp) - f(bpm) - f(bmp) + f(bmm)) / (4 * h * h)
        assert_allclose(fit.fisher_info, hess, rtol=1e-4)

    def test_duplicated_rows_double_information(self):
        fit = fit_logistic(with_slope(LOGIT20_X), LOGIT20_Y)
        doubled = fit_logistic(with_slope(np.concatenate([LOGIT20_X, LOGIT20_X])),
                               np.concatenate([LOGIT20_Y, LOGIT20_Y]))
        assert_allclose(doubled.fisher_info, 2 * fit.fisher_info, rtol=1e-12)

    def test_psd(self):
        x = with_slope(LOGIT20_X)
        fit = fit_logistic(x, LOGIT20_Y)
        eigvals = np.linalg.eigvalsh(fit.fisher_info)
        assert np.all(eigvals >= -1e-8)


def _fit_exit(fit):
    """How the IRLS loop ended: converged, iteration cap, or step-halving exhausted."""
    if fit.converged:
        return "converged"
    return "cap" if len(fit.ll_path) == fit.iterations + 1 else "halving"


def _separated_case(seed):
    """Linearly separated rows with three covariates on scales from 0.1 to 1000."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 41))
    cov = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-1, 3, size=3)
    x = DesignMatrix(np.column_stack([np.ones(n), cov]), ("(Intercept)", "a", "b", "c"))
    return x, (cov.sum(axis=1) > 0).astype(int)


class TestFitMatchesOracle:
    """The single-kernel fit reproduces the pre-rewrite fit bit for bit."""

    def assert_same(self, x_train, y_train, x_test=None, y_test=None):
        fit = fit_logistic(x_train, y_train)
        expected = fit_logistic_oracle(x_train, y_train)
        for f in dataclasses.fields(FittedGlm):
            got, want = getattr(fit, f.name), getattr(expected, f.name)
            if isinstance(want, np.ndarray):
                assert np.array_equal(got, want), f.name
            else:
                assert got == want, f.name
        if x_test is not None:
            assert np.array_equal(predict_prob(fit, x_test), predict_prob_oracle(expected, x_test))
            k = 5
            groups = np.arange(x_test.n) % k
            assert np.array_equal(
                bag_gradient(fit, x_test, y_test, groups, k),
                bag_gradient_oracle(expected, x_test, y_test, groups, k),
            )
        return fit

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_training_splits_of_every_setting(self, setting):
        spec = make_setting(setting, 500)
        for seed in range(4):
            ds = generate(spec, RandomSource(seed).child("data"))
            perm = RandomSource(seed).child("split").permutation(ds.n)
            train, test = np.sort(perm[:450]), np.sort(perm[450:])
            for formula in (spec.model_a, spec.model_b):
                full = design_matrix(ds, formula)
                self.assert_same(
                    DesignMatrix(full.values[train], full.names), ds.y[train],
                    DesignMatrix(full.values[test], full.names), ds.y[test],
                )

    def test_large_nn_example_split(self):
        spec = make_setting("nn-example", 20000)
        ds = generate(spec, RandomSource(1).child("data"))
        perm = RandomSource(1).child("split").permutation(ds.n)
        train, test = np.sort(perm[:18000]), np.sort(perm[18000:])
        full = design_matrix(ds, spec.model_b)
        self.assert_same(
            DesignMatrix(full.values[train], full.names), ds.y[train],
            DesignMatrix(full.values[test], full.names), ds.y[test],
        )

    def test_intercept_only(self):
        for y in ([1, 0, 0, 0, 1, 0, 0, 0], [1, 0] * 6, [0] * 29 + [1]):
            x = intercept_only(len(y))
            self.assert_same(x, y, intercept_only(3), [0, 1, 1])

    def test_separated_data_covers_every_exit(self):
        exits = set()
        cases = [_separated_case(seed) for seed in (1, 4, 305, 332)]
        line = np.linspace(-2, 2, 30)
        cases.append((with_slope(line), (line > 0).astype(int)))
        for x, y in cases:
            exits.add(_fit_exit(self.assert_same(x, y, x, y)))
        assert exits == {"converged", "cap", "halving"}

    def test_near_singular_design_raises_rank_deficiency(self):
        # the oracle reaches the same verdict through its pivoted fallback
        rng = np.random.default_rng(0)
        a = rng.normal(size=40)
        x = DesignMatrix(np.column_stack([np.ones(40), a, a + 1e-9 * rng.normal(size=40)]),
                         ("(Intercept)", "a", "a_near"))
        y = (rng.random(40) < 0.5).astype(int)
        with pytest.raises(RankDeficiencyError, match=r"pivot ratio below 1e-12"):
            fit_logistic(x, y)
        with pytest.raises(RankDeficiencyError):
            fit_logistic_oracle(x, y)

    def test_failed_cholesky_raises_rank_deficiency(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        with pytest.raises(RankDeficiencyError, match=r"numerically singular"):
            fit_logistic(with_slope(LOGIT20_X), LOGIT20_Y)


@st.composite
def near_singular_gram(draw):
    """Q diag(lam) Q' with condition number near 1/_PIVOT_RTOL, columns rescaled."""
    p = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(p, p)))
    log_cond = draw(st.floats(10.5, 13.5))
    lam = 10.0 ** np.concatenate([[0.0, -log_cond], rng.uniform(-log_cond, 0.0, p - 2)])
    scale = 10.0 ** np.array(draw(st.lists(st.floats(-7, 4), min_size=p, max_size=p)))
    a = (q * lam) @ q.T * np.outer(scale, scale)
    return 0.5 * (a + a.T)


class TestSolveSpd:
    @settings(max_examples=300, deadline=None)
    @given(near_singular_gram())
    def test_plain_check_solves_whatever_the_pivoted_fallback_solved(self, a):
        # the pivoted fallback of the oracle never rescues a system that the
        # plain check rejects, so dropping it changes no solved fit
        b = np.ones(a.shape[0])
        try:
            _solve_spd_oracle(a, b)
        except RankDeficiencyError:
            return
        glm._solve_spd(a, b)
