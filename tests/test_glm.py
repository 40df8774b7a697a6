import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaptgof import (
    Dataset,
    DesignMatrix,
    FittedGlm,
    RandomSource,
    RankDeficiencyError,
    SingleClassError,
    design_matrix,
    fit_logistic,
    generate,
    make_setting,
    parse_formula,
    predict_prob,
)
from adaptgof import glm, gof
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

    def test_input_errors_keep_their_order_and_messages(self):
        # length, then 0/1, then a single class, then rows below columns
        two_rows = DesignMatrix(np.ones((2, 3)), ("a", "b", "c"))
        for y, kind, message in [
            ([0, 1, 2], ValueError, "response length 3 does not match 2 design rows"),
            ([2, 2], ValueError, "response entries must be 0 or 1"),
            ([0.5, 1], ValueError, "response entries must be 0 or 1"),
            ([1, 1], SingleClassError, "both response classes must be present"),
            ([0, 1], ValueError, "need at least as many rows (2) as columns (3)"),
        ]:
            with pytest.raises(ValueError) as raised:
                fit_logistic(two_rows, y)
            assert (type(raised.value), str(raised.value)) == (kind, message), y

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


# Linear predictors whose logistic lies exactly at the clamp, and their neighbours.
_CLAMP_ETA = math.log(glm.PROB_CLAMP / (1.0 - glm.PROB_CLAMP))
_SPECIAL_ETA = (0.0, -0.0, 800.0, -800.0, _CLAMP_ETA, -_CLAMP_ETA,
                math.nextafter(_CLAMP_ETA, 0.0), math.nextafter(-_CLAMP_ETA, 0.0))


@st.composite
def etas_and_responses(draw):
    n = draw(st.integers(1, 40))
    eta = draw(st.lists(st.one_of(st.floats(-800.0, 800.0), st.sampled_from(_SPECIAL_ETA)),
                        min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(eta), np.array(y, dtype=float)


class TestProbAndLoglik:
    @settings(max_examples=300, deadline=None)
    @given(etas_and_responses())
    def test_matches_oracles_without_warnings(self, case):
        eta, y = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob, ll = glm._prob_and_loglik(eta, 1.0 - 2.0 * y)
        assert np.array_equal(prob, glm._clamped_logistic(eta))
        # the oracle's y*eta - max(eta, 0) cancels where y and eta agree,
        # losing up to eps |eta| per row; the kernel's own terms do not
        want = logistic_loglik_oracle(eta[:, None], y, np.ones(1))
        slack = 4 * np.finfo(float).eps * np.abs(eta).sum()
        assert abs(ll - want) <= 1e-13 * abs(want) + slack

    def test_log_likelihood_of_a_fit_matches_direct_summation(self):
        x = with_slope(LOGIT20_X)
        fit = fit_logistic(x, LOGIT20_Y)
        want = logistic_loglik_oracle(x.values, LOGIT20_Y, fit.coef)
        assert abs(fit.log_likelihood - want) <= 1e-13 * abs(want)
        assert np.array_equal(fit.fitted_prob, glm._clamped_logistic(fit.coef @ x.values.T))


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
    """How the IRLS loop ended: converged, iteration cap, or no step kept.

    "halving" covers both ways the last step can fail: every halving lowered
    the log-likelihood, or the candidate stopped differing from the
    coefficients.
    """
    if fit.converged:
        return "converged"
    return "cap" if len(fit.ll_path) == fit.iterations + 1 else "halving"


def _oracle_stalled(fit):
    """The oracle hit the cap repeating a step that changed nothing."""
    return fit.iterations == 100 and fit.ll_path[-1] == fit.ll_path[-2]


def _at_clamp(prob):
    return np.any((prob <= glm.PROB_CLAMP) | (prob >= 1.0 - glm.PROB_CLAMP))


def _separated_case(seed):
    """Linearly separated rows with three covariates on scales from 0.1 to 1000."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 41))
    cov = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-1, 3, size=3)
    x = DesignMatrix(np.column_stack([np.ones(n), cov]), ("(Intercept)", "a", "b", "c"))
    return x, (cov.sum(axis=1) > 0).astype(int)


def _assert_near(got, want, rtol):
    """Largest absolute difference within ``rtol`` of the largest entry of ``want``."""
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


class TestFitMatchesOracle:
    """The fused-kernel fit agrees with the pre-rewrite fit up to rounding.

    The oracle sums ``y*eta - logaddexp(0, eta)`` and keeps a step only when
    that sum does not fall; the fit sums per-row softplus terms and keeps a
    step that falls by rounding alone (16 eps |ll|). Stated tolerances:
    coefficients, information and probabilities 1e-12; the finite-difference
    ``bag_gradient`` 1e-8, because each central difference divides the
    statistic's rounding by 2h ~ 2e-5. The exit (converged, iterations,
    accepted steps) must be the same wherever the oracle did not stall.

    Both end a converged fit with the closing step, kept under the fit's
    rounding tolerance. Under the oracle's strict rule the closing step's
    gain, below the rounding of the summed log-likelihood at the MLE, was
    kept or halved at random, and the two fits differed by up to J^-1 times
    the gradient tolerance: 1.5e-7 relative over these training splits,
    against 2.1e-15 with the shared rule, inside the stated 1e-12.
    """

    def assert_same(self, x_train, y_train, x_test=None, y_test=None):
        fit = fit_logistic(x_train, y_train)
        expected = fit_logistic_oracle(x_train, y_train)
        if not _oracle_stalled(expected):
            assert (fit.converged, fit.iterations, len(fit.ll_path)) == (
                expected.converged, expected.iterations, len(expected.ll_path))
        assert fit.names == expected.names
        _assert_near(fit.coef, expected.coef, 1e-12)
        _assert_near(fit.fisher_info, expected.fisher_info, 1e-12)
        assert_allclose(fit.fitted_prob, expected.fitted_prob, rtol=1e-12, atol=0)
        # logaddexp cancels where y*eta ~ log(1 + e^eta): up to eps |eta| per row
        slack = 4 * np.finfo(float).eps * np.abs(x_train.values @ fit.coef).sum()
        assert abs(fit.log_likelihood - expected.log_likelihood) <= (
            1e-12 * abs(expected.log_likelihood) + slack)
        if x_test is not None:
            assert_allclose(predict_prob(fit, x_test), predict_prob_oracle(expected, x_test),
                            rtol=1e-12, atol=0)
            k = 5
            groups = np.arange(x_test.n) % k
            got = bag_gradient(fit, x_test, y_test, groups, k)
            want = bag_gradient_oracle(expected, x_test, y_test, groups, k)
            _assert_near(got, want, 1e-8)
        return fit

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_training_splits_of_every_setting(self, setting):
        spec = make_setting(setting, 500)
        for seed in range(40):
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
        cases = [_separated_case(seed) for seed in (1, 4)]
        line = np.linspace(-2, 2, 30)
        cases.append((with_slope(line), (line > 0).astype(int)))
        for x, y in cases:
            exits.add(_fit_exit(self.assert_same(x, y, x, y)))
        # seed 305 ends by halving on both sides, but its exit moves (below)
        exits.add(_fit_exit(fit_logistic(*_separated_case(305))))
        assert exits == {"converged", "cap", "halving"}

    @pytest.mark.parametrize("seed, oracle_exit, fit_exit", [
        (305, ("halving", 62), ("halving", 70)),
        (332, ("halving", 87), ("cap", 100)),
    ])
    def test_separated_fits_whose_exit_moves(self, seed, oracle_exit, fit_exit):
        # the listed fits whose exit differs from the oracle's: both sides run
        # towards infinite coefficients with every row at the clamp but one.
        # There the log-likelihood is about -3e-10 and the oracle's logaddexp
        # sum is off by about 5e-6 of it, so the two keep different steps and
        # stop at different points on the way
        x, y = _separated_case(seed)
        fit, expected = fit_logistic(x, y), fit_logistic_oracle(x, y)
        assert (_fit_exit(expected), expected.iterations) == oracle_exit
        assert (_fit_exit(fit), fit.iterations) == fit_exit
        assert _at_clamp(fit.fitted_prob) and _at_clamp(expected.fitted_prob)

    def test_step_that_cannot_move_the_coefficients_ends_the_fit(self, monkeypatch):
        # a Newton step below the resolution of the coefficients changes
        # nothing, so the fit stops instead of repeating it up to the cap
        solve = glm._solve_spd
        calls = []

        def vanishing_after_first(a, b):
            calls.append(None)
            return solve(a, b) * (1.0 if len(calls) == 1 else 1e-300)

        monkeypatch.setattr(glm, "_solve_spd", vanishing_after_first)
        fit = fit_logistic(with_slope(LOGIT20_X), LOGIT20_Y)
        assert not fit.converged
        assert (fit.iterations, len(fit.ll_path), len(calls)) == (2, 2, 2)
        assert _fit_exit(fit) == "halving"

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


_STACK_NAMES = ("(Intercept)", "a", "b", "c")


def _stack_of_every_outcome():
    """Equal-shape (20 x 4) splits: healthy fits, one single-class response, one
    rank-deficient design, two separated fits that run into the iteration cap
    and one that stops when no halving of its step is kept."""
    rng = np.random.default_rng(7)

    def healthy():
        cov = rng.normal(size=(20, 3))
        y = (rng.random(20) < 1.0 / (1.0 + np.exp(-cov @ [0.8, -0.5, 0.3]))).astype(int)
        return np.column_stack([np.ones(20), cov]), y

    single_x, _ = healthy()
    rank_x, rank_y = healthy()
    rank_x[:, 3] = rank_x[:, 2]
    cases = [healthy(), (single_x, np.ones(20, dtype=int)), healthy(), (rank_x, rank_y),
             healthy(), healthy()]
    for seed in (332, 61):
        x, y = _separated_case(seed)
        cases.insert(2 * len(cases) // 3, (x.values, y))
    x, y = _separated_case(1063)
    cases.insert(3, (x.values, y))
    return cases


def _assert_identical_fits(got, want):
    assert (got.converged, got.iterations, got.names, got.ll_path, got.log_likelihood) == (
        want.converged, want.iterations, want.names, want.ll_path, want.log_likelihood)
    for field in ("coef", "fisher_info", "fitted_prob"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


class TestFitStack:
    """A split fitted in a stack is bit for bit the split fitted alone."""

    def fit_stack(self, cases):
        xt = np.ascontiguousarray(np.stack([x.T for x, _ in cases]))
        return glm._fit_stack(xt, np.stack([y for _, y in cases]), _STACK_NAMES)

    def test_failures_stay_per_split(self):
        cases = _stack_of_every_outcome()
        fits = self.fit_stack(cases)
        kinds = []
        for (x, y), fit in zip(cases, fits):
            alone = DesignMatrix(x, _STACK_NAMES)
            if isinstance(fit, Exception):
                with pytest.raises(ValueError) as raised:
                    fit_logistic(alone, y)
                assert (type(raised.value), str(raised.value)) == (type(fit), str(fit))
                kinds.append(type(fit).__name__)
            else:
                _assert_identical_fits(fit, fit_logistic(alone, y))
                kinds.append(_fit_exit(fit))
        assert kinds.count("converged") == 4
        assert {"SingleClassError", "RankDeficiencyError", "cap", "halving"} <= set(kinds)
        assert kinds.count("cap") == 2

    def test_results_do_not_depend_on_the_stack(self):
        cases = _stack_of_every_outcome()
        whole = self.fit_stack(cases)
        reversed_fits = self.fit_stack(cases[::-1])[::-1]
        singles = [self.fit_stack([case])[0] for case in cases]
        for fits in (reversed_fits, singles):
            for got, want in zip(fits, whole):
                if isinstance(want, Exception):
                    assert (type(got), str(got)) == (type(want), str(want))
                else:
                    _assert_identical_fits(got, want)

    def test_each_split_exits_as_pinned(self):
        # the comparisons above hold if a split's exit moves in the stack and
        # alone alike; these literals do not
        fits = self.fit_stack(_stack_of_every_outcome())
        got = [(_exit(f),) if isinstance(f, Exception) else (_exit(f), f.iterations, len(f.ll_path))
               for f in fits]
        assert got == [
            ("converged", 5, 6), ("SingleClassError",), ("converged", 9, 10),
            ("halving", 75, 75), ("RankDeficiencyError",), ("cap", 100, 101),
            ("cap", 100, 101), ("converged", 5, 6), ("converged", 6, 7),
        ]

    def test_information_is_taken_at_the_final_coefficients(self):
        # every exit, the stopped split among converging ones included, takes
        # its information from X'WX at the coefficients it returns
        cases = _stack_of_every_outcome()
        fits = self.fit_stack(cases)
        assert _exit(fits[3]) == "halving"
        for (x, _), fit in zip(cases, fits):
            if isinstance(fit, Exception):
                continue
            xt = np.ascontiguousarray(x.T)[None]
            prob = glm._clamped_logistic(glm._linear(fit.coef[None], xt))
            assert np.array_equal(prob[0], fit.fitted_prob)
            gram = glm._weighted_gram(xt, prob)[0]
            assert np.array_equal(fit.fisher_info, 0.5 * (gram + gram.T))

    def test_a_stack_that_fails_entirely_returns_every_error(self):
        x, y = _stack_of_every_outcome()[1]
        fits = self.fit_stack([(x, y), (x, 1 - y)])
        assert [type(f) for f in fits] == [SingleClassError, SingleClassError]


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


def _split_streams(seed, draws):
    """The random streams of splits ``draws`` of a test, as ``multi_split_test`` makes them."""
    rng = RandomSource(seed).child("m")
    return [rng.child(("split", i)) for i in draws]


def _split_fit_case(setting, n, seed, draws):
    """The designs, responses and training rows of ``draws`` splits of a test on
    generated data, drawn as ``multi_split_test`` draws them."""
    spec = make_setting(setting, n)
    ds = generate(spec, RandomSource(seed))
    n_train = gof.default_train_size(n, 5)
    trains = [np.sort(r.permutation(n)[:n_train]) for r in _split_streams(seed, draws)]
    return spec, ds, trains


def _fit_stack_from(ds, x, streams, full, n_train=None):
    """The fits of the splits drawn from ``streams`` as ``gof._fit_splits`` makes them,
    from the plan's full-data fit ``full`` (None: from zero)."""
    n_train = gof.default_train_size(ds.n, 5) if n_train is None else n_train
    plan = gof._Plan(n_train=n_train, index=None, scores=None, full=full)
    return gof._fit_splits(ds, x, plan, streams).fits


def _fit_direct(x, y, trains, start):
    """``glm._fit_stack`` on the training rows from the coefficients ``start``, its
    first pass computed over those rows."""
    xt = np.ascontiguousarray(np.stack([x.values[t].T for t in trains]))
    return glm._fit_stack(xt, np.stack([y[t] for t in trains]).astype(float), x.names, start)


def _exit(fit):
    return type(fit).__name__ if isinstance(fit, Exception) else _fit_exit(fit)


class TestClosingStep:
    """A fit that passes the gradient test takes one more Newton step, then ends converged."""

    def closing_patched(self, monkeypatch, closing_delta):
        """``fit_logistic`` on LOGIT20, plain and with the closing step's Newton step replaced."""
        plain = fit_logistic(with_slope(LOGIT20_X), LOGIT20_Y)
        solve = glm._solve_spd

        def patched(a, b):
            if np.abs(b).max() <= 1e-8 * LOGIT20_Y.size:  # the split passed the test
                return closing_delta(solve(a, b))
            return solve(a, b)

        monkeypatch.setattr(glm, "_solve_spd", patched)
        return fit_logistic(with_slope(LOGIT20_X), LOGIT20_Y), plain

    def assert_ends_before_the_closing_step(self, fit, plain):
        assert fit.converged and fit.iterations == plain.iterations
        # the closing step appends to the path only when it is kept
        assert fit.ll_path == plain.ll_path[:-1]
        assert fit.log_likelihood == fit.ll_path[-1]
        xt = np.ascontiguousarray(with_slope(LOGIT20_X).values.T)[None]
        info = glm._weighted_gram(xt, fit.fitted_prob[None])[0]
        assert np.array_equal(fit.fisher_info, 0.5 * (info + info.T))
        assert np.array_equal(fit.fitted_prob, glm._clamped_logistic(fit.coef @ xt[0]))

    def test_closing_step_lands_at_the_mle(self):
        x = with_slope(LOGIT20_X)
        fit = fit_logistic(x, LOGIT20_Y)
        grad = x.values.T @ (LOGIT20_Y - fit.fitted_prob)
        assert fit.converged and np.max(np.abs(grad)) <= 1e-13 * x.n

    def test_a_step_that_is_not_kept_still_converges(self, monkeypatch):
        # every one of the 40 tries of a step of 1e6 in each coefficient lowers
        # the log-likelihood by more than its rounding
        self.assert_ends_before_the_closing_step(
            *self.closing_patched(monkeypatch, lambda delta: np.full_like(delta, 1e6)))

    def test_a_step_that_does_not_move_still_converges(self, monkeypatch):
        self.assert_ends_before_the_closing_step(
            *self.closing_patched(monkeypatch, lambda delta: delta * 1e-300))

    def test_a_system_that_cannot_be_solved_still_converges(self, monkeypatch):
        def singular(delta):
            raise RankDeficiencyError("forced")

        self.assert_ends_before_the_closing_step(*self.closing_patched(monkeypatch, singular))

    def test_the_cap_on_the_closing_pass_still_converges(self, monkeypatch):
        # the closing step is the last step the cap allows: the fit leaves the
        # loop without a further pass, with the same information
        plain = fit_logistic(with_slope(LOGIT20_X), LOGIT20_Y)
        monkeypatch.setattr(glm, "_MAX_ITER", plain.iterations)
        _assert_identical_fits(fit_logistic(with_slope(LOGIT20_X), LOGIT20_Y), plain)
        monkeypatch.setattr(glm, "_MAX_ITER", plain.iterations - 1)
        assert _fit_exit(fit_logistic(with_slope(LOGIT20_X), LOGIT20_Y)) == "cap"

    def test_a_quasi_separated_fit_stays_converged(self):
        # nn-example, model A, n = 500, data seed 6, split 18: training rows at
        # the clamp keep the gradient near 4.2e-7, so a stop of 1e-12 n = 4.25e-10
        # sent this fit to the cap; the gradient test of 1e-8 n ends it converged
        spec, ds, [train] = _split_fit_case("nn-example", 500, 6, [18])
        full = design_matrix(ds, spec.model_a)
        x, y = DesignMatrix(full.values[train], full.names), ds.y[train]
        fit = fit_logistic(x, y)
        grad = np.max(np.abs(x.values.T @ (y - fit.fitted_prob)))
        assert fit.converged and _at_clamp(fit.fitted_prob)
        assert 1e-12 * x.n < grad <= 1e-8 * x.n


class TestWarmStart:
    """A split's fit from the full-data fit is its fit from zero, to rounding."""

    def assert_downdated_is_direct(self, down, direct):
        assert (_exit(down), down.iterations) == (_exit(direct), direct.iterations)
        _assert_near(down.coef, direct.coef, 1e-12)
        _assert_near(down.fisher_info, direct.fisher_info, 1e-12)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_the_start_does_not_show(self, setting):
        started = 0
        for n, seed in ((500, 0), (1000, 1)):
            spec, ds, _ = _split_fit_case(setting, n, seed, range(5))
            for formula in (spec.model_a, spec.model_b):
                x = design_matrix(ds, formula)
                full = gof._full_fit_start(x, ds.y)
                started += full is not None
                warm = _fit_stack_from(ds, x, _split_streams(seed, range(5)), full)
                cold = _fit_stack_from(ds, x, _split_streams(seed, range(5)), None)
                for w, c in zip(warm, cold):
                    assert _exit(w) == _exit(c)
                    if not isinstance(c, Exception):
                        _assert_near(w.coef, c.coef, 1e-12)
        # only nn-example's model A, whose full fit is clamped, starts from zero
        assert started == (2 if setting == "nn-example" else 4)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_the_downdated_first_pass_is_the_direct_one(self, setting, monkeypatch):
        # the first pass from the full fit minus the test rows, against the
        # first pass over the training rows from the same coefficients
        passes = []

        def record(xt, y, names, start=None, first=None):
            if first is not None:
                passes.append((first, glm._pass_at(xt, y, np.tile(start, (len(xt), 1)))))
            return glm._fit_stack(xt, y, names, start, first)

        monkeypatch.setattr(gof, "_fit_stack", record)
        for n, seed in ((500, 0), (1000, 1)):
            spec, ds, trains = _split_fit_case(setting, n, seed, range(5))
            for formula in (spec.model_a, spec.model_b):
                x = design_matrix(ds, formula)
                full = gof._full_fit_start(x, ds.y)
                if full is None:
                    continue
                down = _fit_stack_from(ds, x, _split_streams(seed, range(5)), full)
                direct = _fit_direct(x, ds.y, trains, full.coef)
                for i, (d, w) in enumerate(zip(down, direct)):
                    self.assert_downdated_is_direct(d, w)
                    [alone] = _fit_stack_from(ds, x, _split_streams(seed, [i]), full)
                    _assert_identical_fits(alone, d)
        assert passes
        for first, want in passes:
            for got, arr in zip(first, want):
                _assert_near(got, arr, 1e-12)

    def test_a_single_class_split_in_a_warm_stack(self):
        # 3 ones in 60 rows and 30 training rows: splits 0, 2 and 4 of these
        # 12 draw no one, and leave the warm stack before its first pass
        rng = np.random.default_rng(3)
        x1 = rng.uniform(size=60)
        y = np.zeros(60, dtype=int)
        y[np.argsort(x1)[[20, 35, 50]]] = 1
        ds = Dataset(y=y, columns={"x1": x1}, kinds={"x1": "continuous"})
        x = design_matrix(ds, parse_formula("x1"))
        full = gof._full_fit_start(x, ds.y)
        assert full is not None
        down = _fit_stack_from(ds, x, _split_streams(10, range(12)), full, n_train=30)
        trains = [np.sort(r.permutation(60)[:30]) for r in _split_streams(10, range(12))]
        direct = _fit_direct(x, ds.y, trains, full.coef)
        single = [i for i, d in enumerate(down) if isinstance(d, SingleClassError)]
        assert single == [i for i, w in enumerate(direct) if isinstance(w, SingleClassError)]
        assert single == [0, 2, 4]
        for i, (d, w) in enumerate(zip(down, direct)):
            [alone] = _fit_stack_from(ds, x, _split_streams(10, [i]), full, n_train=30)
            if i in single:
                assert isinstance(alone, SingleClassError)
                continue
            self.assert_downdated_is_direct(d, w)
            _assert_identical_fits(alone, d)

    def test_a_clamped_full_fit_gives_no_start(self):
        spec, ds, trains = _split_fit_case("nn-example", 500, 0, range(5))
        x = design_matrix(ds, spec.model_a)
        full = fit_logistic(x, ds.y)
        assert full.converged and _at_clamp(full.fitted_prob)
        assert gof._full_fit_start(x, ds.y) is None
        plan = gof._plan(gof.TestConfig(partition_by="mta-prob"), ds, x)
        assert plan.full is None
        # started from the clamped fit, with its first pass downdated or
        # direct, split fits stop elsewhere on the flat likelihood of their
        # clamped rows
        xt = np.asfortranarray(x.values).T[None]
        grad = glm._gradient(xt, ds.y.astype(float)[None], full.fitted_prob[None])[0]
        clamped = gof._FullFit(full.coef, full.fisher_info, grad, full.fitted_prob,
                               full.log_likelihood)
        cold = _fit_stack_from(ds, x, _split_streams(0, range(5)), None)
        for warm in (_fit_stack_from(ds, x, _split_streams(0, range(5)), clamped),
                     _fit_direct(x, ds.y, trains, full.coef)):
            assert max(np.max(np.abs(w.coef - c.coef)) / np.max(np.abs(c.coef))
                       for w, c in zip(warm, cold)) > 1e-9
