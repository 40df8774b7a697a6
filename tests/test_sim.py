import numpy as np
import pytest
from numpy.testing import assert_allclose

from adaptgof import (
    Dataset,
    RandomSource,
    TestConfig,
    fit_logistic,
    multi_split_test,
    score_injection,
)
from adaptgof.formula import design_matrix
from adaptgof.sim import (
    DEFAULT_METHODS,
    SETTINGS,
    MethodSpec,
    default_variants,
    generate,
    make_setting,
    run_experiment,
    surface_table,
    true_probabilities,
)


class TestGenerate:
    def test_chisq_covariate_mean(self):
        spec = make_setting("1", 100_000, beta3=0.651)
        ds = generate(spec, RandomSource(1).child("data"))
        assert abs(ds.columns["x3"].mean() - 4.0) < 0.1

    def test_derived_square_column_exact(self):
        spec = make_setting("3", 5_000, chi2_df=4)
        ds = generate(spec, RandomSource(2).child("data"))
        assert np.array_equal(ds.columns["x4"], ds.columns["x1"] ** 2)

    def test_derived_product_column_exact(self):
        spec = make_setting("2", 5_000, beta3=0.8)
        ds = generate(spec, RandomSource(3).child("data"))
        assert np.array_equal(ds.columns["x3"], ds.columns["x1"] * ds.columns["x2"])

    def test_binned_response_frequencies_follow_logistic_curve(self):
        spec = make_setting("1", 100_000, beta3=0.651)
        rng = RandomSource(4)
        ds = generate(spec, rng.child("data"))
        prob = true_probabilities(spec, ds)
        logit = np.log(prob / (1 - prob))
        edges = np.quantile(logit, np.linspace(0, 1, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (logit >= lo) & (logit <= hi)
            assert abs(ds.y[mask].mean() - prob[mask].mean()) < 0.02

    def test_covariate_moments_within_three_se(self):
        n = 100_000
        cases = {
            # column -> (mean, var, fourth central moment)
            ("1", "x1"): (0.0, 3.0, 81 / 5),
            ("1", "x2"): (0.0, 2.25, 3 * 2.25**2),
            ("1", "x3"): (4.0, 8.0, 12 * 4**2 + 48 * 4),
            ("5", "x2"): (2.0, 4.0, 12 * 2**2 + 48 * 2),
            ("nn-example", "x7"): (0.0, 4.0, 3 * 16.0),
        }
        for (setting, col), (mean, var, mu4) in cases.items():
            spec = make_setting(setting, n)
            ds = generate(spec, RandomSource(5).child(("m", setting)))
            values = np.asarray(ds.columns[col], dtype=float)
            se_mean = np.sqrt(var / n)
            assert abs(values.mean() - mean) <= 3 * se_mean, (setting, col)
            se_var = np.sqrt((mu4 - var**2) / n)
            assert abs(values.var() - var) <= 3.5 * se_var, (setting, col)

    def test_nn_example_shape_and_terms(self):
        spec = make_setting("nn-example", 2_000)
        ds = generate(spec, RandomSource(6).child("data"))
        assert set(ds.columns) == {f"x{i}" for i in range(1, 8)}
        assert ds.kinds["x6"] == "discrete"
        assert set(np.unique(ds.columns["x6"])) <= {0, 1}
        assert abs(ds.columns["x6"].mean() - 0.5) < 0.05
        assert "x7^4" in spec.model_a.canonical()
        assert "x7^4" not in spec.model_b.canonical()

    def test_nn_example_true_logit_hand_computed(self):
        spec = make_setting("nn-example", 2_000)
        cols = {f"x{i}": np.array([v]) for i, v in
                enumerate([0.5, -1.0, 2.0, 0.0, 1.0, 1.0, -0.5], start=1)}
        ds = Dataset(y=np.array([0]), columns=cols,
                     kinds={name: "continuous" for name in cols})
        logit = (-0.15 + 0.3 * 0.5 + 0.3 * -1.0 + 0.1 * 2.0 + 0.2 * 0.0
                 + 0.2 * 1.0 + 0.3 * 1.0 + 0.3 * -0.5 + 3.0 * (-0.5) ** 4)
        assert_allclose(true_probabilities(spec, ds), 1 / (1 + np.exp(-logit)))

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_models_follow_the_true_terms(self, setting):
        spec = make_setting(setting, 500)
        assert [t.canonical() for t in spec.model_a.terms] == [t for t, _ in spec.true_terms]
        kept = tuple(t for t in spec.model_a.terms if t in spec.model_b.terms)
        assert kept == spec.model_b.terms
        assert len(spec.model_b.terms) == len(spec.model_a.terms) - 1
        ds = generate(spec, RandomSource(12).child("data"))
        beta = np.array([spec.beta0] + [c for _, c in spec.true_terms])
        logit = design_matrix(ds, spec.model_a).values @ beta
        assert_allclose(true_probabilities(spec, ds), 1 / (1 + np.exp(-logit)),
                        rtol=0, atol=1e-12)

    def test_determinism_byte_for_byte(self):
        spec = make_setting("2", 3_000, beta3=0.5)
        a = generate(spec, RandomSource(7).child("data"))
        b = generate(spec, RandomSource(7).child("data"))
        assert a.y.tobytes() == b.y.tobytes()
        for name in a.columns:
            assert a.columns[name].tobytes() == b.columns[name].tobytes()

    def test_unknown_setting(self):
        with pytest.raises(ValueError):
            make_setting("9", 500)

    @pytest.mark.parametrize("setting, params, name", [
        ("4", {"beta3": 0.9}, "beta3"),
        ("3", {"beta3": 0.9}, "beta3"),
        ("nn-example", {"chi2_df": 8}, "chi2_df"),
        ("1", {"beta3": 0.9, "chi2_df": 8}, "chi2_df"),
    ])
    def test_parameter_the_design_does_not_take(self, setting, params, name):
        with pytest.raises(ValueError, match=f"setting {setting} takes no {name}"):
            make_setting(setting, 500, **params)

    def test_variants(self):
        assert default_variants("1") == [{"beta3": 0.217}, {"beta3": 0.651}]
        assert default_variants("3") == [{"chi2_df": 4}, {"chi2_df": 8}]
        assert default_variants("4") == [{}]


class TestScoreInjection:
    def test_attaches_column(self):
        spec = make_setting("4", 500)
        ds = generate(spec, RandomSource(8).child("data"))
        scores = true_probabilities(spec, ds)
        injected = score_injection(ds, scores)
        assert "score" in injected.columns
        assert injected.kinds["score"] == "continuous"

    def test_length_and_range_validation(self):
        spec = make_setting("4", 100)
        ds = generate(spec, RandomSource(9).child("data"))
        with pytest.raises(ValueError):
            score_injection(ds, np.zeros(99))
        with pytest.raises(ValueError):
            score_injection(ds, np.full(100, 1.5))

    def test_constant_scores_degenerate_partition(self):
        spec = make_setting("4", 300)
        ds = generate(spec, RandomSource(10).child("data"))
        injected = score_injection(ds, np.full(300, 0.5))
        cfg = TestConfig(partition_by="score", score_column="score", splits=3)
        report = multi_split_test(injected, spec.model_b, cfg,
                                  RandomSource(10).child("m"))
        for outcome in report.outcomes:
            assert outcome.partition.degenerate
            assert outcome.partition.size == 1

    def test_true_probability_scores_give_power(self):
        # partitioning on the true success probabilities is at least as
        # informative as any auxiliary model's fitted probabilities
        spec = make_setting("nn-example", 1000)
        rng = RandomSource(11)
        cfg = TestConfig(k=3, partition_by="score", score_column="score", splits=100)
        rejections = 0
        reps = 100
        for r in range(reps):
            ds = generate(spec, rng.child(("d", r)))
            injected = score_injection(ds, true_probabilities(spec, ds))
            report = multi_split_test(injected, spec.model_b, cfg, rng.child(("t", r)))
            rejections += bool(report.reject)
        assert rejections / reps >= 0.9

    def test_own_fitted_probability_partition_has_no_power(self):
        # grouping by the assessed model's own fitted probabilities cannot
        # expose its misfit here (the quantile-bin pathology)
        spec = make_setting("nn-example", 500)
        rng = RandomSource(12)
        cfg = TestConfig(k=3, partition_by="mta-prob", splits=40)
        rejections = 0
        reps = 15
        for r in range(reps):
            ds = generate(spec, rng.child(("d", r)))
            report = multi_split_test(ds, spec.model_b, cfg, rng.child(("t", r)))
            rejections += bool(report.reject)
        assert rejections / reps <= 0.2


class TestRunExperiment:
    def test_structure_and_determinism(self):
        spec = make_setting("1", 200, beta3=0.651)
        methods = (MethodSpec("hl", "A"), MethodSpec("bag", "B", splits=5))
        results = run_experiment([spec], methods, reps=3, rng=RandomSource(13))
        again = run_experiment([spec], methods, reps=3, rng=RandomSource(13))
        assert [r.rate for r in results] == [r.rate for r in again]
        assert {r.method for r in results} == {"hl-a", "bag-b"}
        for r in results:
            assert r.reps == 3
            assert 0.0 <= r.rate <= 1.0 or np.isnan(r.rate)
            assert r.seed == 13

    def test_hl_null_rate_setting1(self):
        spec = make_setting("1", 500, beta3=0.651)
        results = run_experiment([spec], (MethodSpec("hl", "A"),), reps=500,
                                 rng=RandomSource(14))
        assert 0.02 <= results[0].rate <= 0.07

    def test_nonconverged_hl_fit_counts_as_failed(self):
        # at n=50 many nn-example full-data fits hit separation; like a bag
        # split whose fit did not converge, such a replication is not usable
        spec = make_setting("nn-example", 50)
        rng = RandomSource(1)
        reps = 20
        [result] = run_experiment([spec], (MethodSpec("hl", "A"),), reps=reps, rng=rng)
        unusable = 0
        for rep in range(reps):
            ds = generate(spec, rng.child(("data", spec.setting, spec.variant, spec.n, rep)))
            try:
                unusable += not fit_logistic(design_matrix(ds, spec.model_a), ds.y).converged
            except ValueError:
                unusable += 1
        assert unusable > 0
        assert result.failures >= unusable

    def test_reps_validation(self):
        spec = make_setting("1", 200, beta3=0.651)
        with pytest.raises(ValueError):
            run_experiment([spec], DEFAULT_METHODS, reps=0, rng=RandomSource(15))

    def test_adaptive_size_stays_conservative_across_settings(self):
        # correct-model rejection rate never materially exceeds the level
        rng = RandomSource(16)
        for setting, n in (("2", 500), ("3", 500), ("4", 500), ("5", 500)):
            spec = make_setting(setting, n)
            results = run_experiment([spec], (MethodSpec("bag", "A"),), reps=40,
                                     rng=rng.child(setting))
            assert results[0].rate <= 0.075, setting


class TestSurfaceTable:
    def test_columns_and_coverage(self):
        spec = make_setting("4", 500)
        table = surface_table(spec, RandomSource(17), grid=12)
        assert set(table) == {"x1", "x2", "true_p", "fitted_p", "group"}
        assert all(len(v) == 144 for v in table.values())
        assert np.all((table["true_p"] > 0) & (table["true_p"] < 1))
        assert np.all((table["fitted_p"] > 0) & (table["fitted_p"] < 1))
        assert table["group"].min() >= 0

    def test_rejects_multi_covariate_designs(self):
        with pytest.raises(ValueError):
            surface_table(make_setting("1", 500), RandomSource(18))
