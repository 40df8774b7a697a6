import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

from adaptgof import RandomSource, parse_formula
from adaptgof.cli import CliError, main, parse_csv
from adaptgof.sim import generate, make_setting

FIXTURES = Path(__file__).parent / "fixtures"


def write_dataset_csv(dataset, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = list(dataset.columns)
        writer.writerow(["y"] + names)
        for i in range(dataset.n):
            writer.writerow([dataset.y[i]] + [repr(float(dataset.columns[n][i]))
                                              for n in names])


def setting1_csv(tmp_path, n=1000, seed=21):
    spec = make_setting("1", n, beta3=0.651)
    ds = generate(spec, RandomSource(seed).child("data"))
    path = tmp_path / "s1.csv"
    write_dataset_csv(ds, path)
    return str(path)


class TestParseCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("y,x\n1,0.5\n0,1.5\n1,2.5\n")
        ds = parse_csv(str(path), "y")
        assert ds.n == 3
        assert ds.kinds == {"x": "continuous"}

    def test_non_binary_response_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x\n1,0.5\n2,1.5\n")
        with pytest.raises(CliError, match="row 3"):
            parse_csv(str(path), "y")

    def test_missing_values_name_rows(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("y,x\n1,0.5\n0,\n,2.0\n")
        with pytest.raises(CliError, match="rows: 3, 4"):
            parse_csv(str(path), "y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CliError, match="empty"):
            parse_csv(str(path), "y")

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("y,x\n1,0.5\n0\n")
        with pytest.raises(CliError, match="row 3"):
            parse_csv(str(path), "y")

    def test_mixed_types_golden_manifest(self):
        # hand-classified: age/bmi/visits numeric -> continuous,
        # smoker/city textual -> discrete
        ds = parse_csv(str(FIXTURES / "mixed_types.csv"), "outcome")
        assert ds.kinds == {
            "age": "continuous",
            "bmi": "continuous",
            "smoker": "discrete",
            "city": "discrete",
            "visits": "continuous",
        }
        assert ds.n == 8
        assert ds.y.tolist() == [1, 0, 0, 1, 1, 0, 1, 0]

    def test_mixed_types_columns(self):
        ds = parse_csv(str(FIXTURES / "mixed_types.csv"), "outcome")
        expected = {
            "age": [34.0, 51.0, 42.0, 29.0, 63.0, 47.0, 38.0, 55.0],
            "bmi": [22.5, 27.1, 31.0, 24.9, 28.4, 26.0, 23.3, 29.8],
            "smoker": ["yes", "no", "no", "yes", "no", "yes", "no", "yes"],
            "city": ["london", "paris", "london", "berlin", "paris", "berlin", "london", "paris"],
            "visits": [3.0, 0.0, 2.0, 5.0, 1.0, 4.0, 2.0, 0.0],
        }
        assert list(ds.columns) == list(expected)
        for name, values in expected.items():
            col = ds.columns[name]
            assert col.dtype == (object if ds.kinds[name] == "discrete" else np.float64)
            assert col.tolist() == values
        visits = parse_csv(str(FIXTURES / "mixed_types.csv"), "outcome",
                           overrides={"visits": "discrete"}).columns["visits"]
        assert visits.dtype == object
        assert visits.tolist() == ["3", "0", "2", "5", "1", "4", "2", "0"]

    def test_single_non_numeric_cell_names_its_row(self, tmp_path):
        path = tmp_path / "one_word.csv"
        rows = [f"{i % 2},{i * 0.5}" for i in range(8)]
        rows[4] = "0,four"
        path.write_text("y,x\n" + "\n".join(rows) + "\n")
        assert parse_csv(str(path), "y").kinds == {"x": "discrete"}
        with pytest.raises(CliError, match="'x' was declared continuous but row 6 "):
            parse_csv(str(path), "y", overrides={"x": "continuous"})

    def test_override_to_discrete(self):
        ds = parse_csv(str(FIXTURES / "mixed_types.csv"), "outcome",
                       overrides={"visits": "discrete"})
        assert ds.kinds["visits"] == "discrete"

    def test_bad_continuous_override(self):
        with pytest.raises(CliError, match="city"):
            parse_csv(str(FIXTURES / "mixed_types.csv"), "outcome",
                      overrides={"city": "continuous"})

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_values_name_rows(self, tmp_path, cell):
        path = tmp_path / "nonfinite.csv"
        rows = [f"{i % 2},{i * 0.1},{i * 0.2}" for i in range(30)]
        rows[4] = f"0,0.4,{cell}"
        rows[17] = f"1,{cell},1.7"
        path.write_text("y,x1,x2\n" + "\n".join(rows) + "\n")
        with pytest.raises(CliError, match=r"non-finite values .* rows: 6, 19$"):
            parse_csv(str(path), "y")

    def test_unknown_response(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("y,x\n1,0.5\n0,1.0\n")
        with pytest.raises(CliError, match="not found"):
            parse_csv(str(path), "label")


class TestFormulaRoundTrip:
    def test_canonical_is_fixed_point(self):
        for text in ("x1 + x2", "x1+x2+x1*x2", "x2 * x1 + x7^4", "a + a + b"):
            formula = parse_formula(text)
            canon = formula.canonical()
            assert parse_formula(canon).canonical() == canon

    def test_product_operands_sorted(self):
        assert parse_formula("b*a").canonical() == "a*b"


class TestTestCommand:
    def test_underfit_model_rejects(self, tmp_path, capsys):
        path = setting1_csv(tmp_path)
        out = tmp_path / "report.json"
        code = main(["test", "--input", path, "--response", "y",
                     "--formula", "x1 + x2", "--seed", "5",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["decision"]["reject"] is True
        assert payload["covariate_ranking"][0]["covariate"] == "x3"
        assert "REJECT" in capsys.readouterr().out

    def test_correct_model_accepts(self, tmp_path, capsys):
        path = setting1_csv(tmp_path)
        out = tmp_path / "report.json"
        code = main(["test", "--input", path, "--response", "y",
                     "--formula", "x1 + x2 + x3", "--seed", "5",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["decision"]["reject"] is False

    def test_fit_whose_last_newton_gain_is_rounding_converges(self, tmp_path):
        # split 11 reaches a point where the full Newton step gains less than
        # the rounding of the summed log-likelihood; a strict step test halved
        # that step to nothing and repeated it up to the iteration cap, so the
        # split counted as failed
        ds = generate(make_setting("3", 500), RandomSource(1).child("data"))
        path = tmp_path / "s3.csv"
        write_dataset_csv(ds, path)
        out = tmp_path / "report.json"
        assert main(["test", "--input", str(path), "--response", "y",
                     "--formula", "x1 + x2 + x3", "--seed", "3",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["splits"][11]["converged"] is True
        assert payload["decision"]["failed_splits"] == 0

    def test_reports_are_byte_identical(self, tmp_path):
        path = setting1_csv(tmp_path, n=200)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["test", "--input", path, "--response", "y",
                "--formula", "x1 + x2", "--splits", "20", "--seed", "11"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_operational_error_exit_code(self, tmp_path, capsys):
        code = main(["test", "--input", str(tmp_path / "nope.csv"),
                     "--response", "y", "--formula", "x1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_too_few_rows_for_k_is_an_error(self, tmp_path, capsys):
        # 12 rows leave 2 test rows, below the default k = 5: no split can
        # run, so the command fails once instead of reporting INCONCLUSIVE
        path = tmp_path / "tiny.csv"
        path.write_text("y,x1\n" + "".join(f"{i % 2},{i * 0.5}\n" for i in range(12)))
        code = main(["test", "--input", str(path), "--response", "y", "--formula", "x1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "test size 2 is below k = 5" in captured.err
        assert "INCONCLUSIVE" not in captured.out

    @pytest.mark.parametrize("partition", ["covariates", "mta-prob", "score:s"])
    def test_k_below_two_is_an_error(self, tmp_path, capsys, partition):
        # every split would fail the same way, so the command fails once
        # instead of reporting INCONCLUSIVE
        path = tmp_path / "scored.csv"
        path.write_text("y,x1,s\n" + "".join(f"{i % 2},{i * 0.1},{(i % 10) / 10}\n"
                                             for i in range(60)))
        code = main(["test", "--input", str(path), "--response", "y", "--formula", "x1",
                     "--k", "1", "--partition", partition, "--splits", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "k must be at least 2" in captured.err
        assert "INCONCLUSIVE" not in captured.out

    @pytest.mark.parametrize("partition", ["covariates", "mta-prob", "score:s"])
    def test_n_min_below_one_is_an_error(self, tmp_path, capsys, partition):
        path = tmp_path / "scored.csv"
        path.write_text("y,x1,s\n" + "".join(f"{i % 2},{i * 0.1},{(i % 10) / 10}\n"
                                             for i in range(60)))
        code = main(["test", "--input", str(path), "--response", "y", "--formula", "x1",
                     "--n-min", "-5", "--partition", partition, "--splits", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "n_min must be at least 1" in captured.err
        assert "decision" not in captured.out

    def test_nan_in_unused_covariate_is_an_error(self, tmp_path, capsys):
        spec = make_setting("1", 200, beta3=0.651)
        ds = generate(spec, RandomSource(8).child("data"))
        path = tmp_path / "nan.csv"
        write_dataset_csv(ds, path)
        lines = path.read_text().splitlines()
        cells = lines[50].split(",")
        cells[3] = "nan"  # x3, which the formula leaves out
        lines[50] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = main(["test", "--input", str(path), "--response", "y",
                     "--formula", "x1 + x2", "--splits", "20", "--seed", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "rows: 51" in captured.err
        assert "decision" not in captured.out

    def test_env_var_seed(self, tmp_path, monkeypatch):
        path = setting1_csv(tmp_path, n=200)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        monkeypatch.setenv("ADAPTGOF_SEED", "33")
        main(["test", "--input", path, "--response", "y", "--formula", "x1 + x2",
              "--splits", "10", "--output", str(out1)])
        main(["test", "--input", path, "--response", "y", "--formula", "x1 + x2",
              "--splits", "10", "--seed", "33", "--output", str(out2)])
        assert json.loads(out1.read_text()) == json.loads(out2.read_text())

    def test_bad_partition_flag(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=200)
        code = main(["test", "--input", path, "--response", "y",
                     "--formula", "x1", "--partition", "bogus"])
        assert code == 1

    def test_score_partition_mode(self, tmp_path):
        spec = make_setting("1", 500, beta3=0.651)
        ds = generate(spec, RandomSource(44).child("data"))
        # inject a usable score column: the true probabilities
        from adaptgof.sim import score_injection, true_probabilities

        injected = score_injection(ds, true_probabilities(spec, ds))
        path = tmp_path / "scored.csv"
        write_dataset_csv(injected, path)
        out = tmp_path / "report.json"
        code = main(["test", "--input", str(path), "--response", "y",
                     "--formula", "x1 + x2", "--partition", "score:score",
                     "--splits", "30", "--seed", "3", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["run_config"]["partition"] == "score:score"


    def test_train_size_with_train_fraction_is_an_error(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=200)
        code = main(["test", "--input", path, "--response", "y", "--formula", "x1 + x2",
                     "--splits", "5", "--train-size", "150", "--train-fraction", "0.6"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--train-size" in captured.err and "--train-fraction" in captured.err
        assert "decision" not in captured.out


class TestDiagnoseCommand:
    def test_prints_ranking(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=500)
        code = main(["diagnose", "--input", path, "--response", "y",
                     "--formula", "x1 + x2", "--splits", "30", "--seed", "2",
                     "--top", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top covariates" in out
        assert "x3" in out


class TestHlCommand:
    def test_smoke(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=500)
        out = tmp_path / "hl.json"
        code = main(["hl", "--input", path, "--response", "y",
                     "--formula", "x1 + x2 + x3", "--groups", "10",
                     "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["df"] == 8
        assert 0.0 <= payload["p_value"] <= 1.0
        assert "statistic" in capsys.readouterr().out

    def test_too_few_groups_is_an_error(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=200)
        code = main(["hl", "--input", path, "--response", "y",
                     "--formula", "x1 + x2", "--groups", "2"])
        assert code == 1
        assert "error: k must be at least 3" in capsys.readouterr().err

    def test_report_does_not_depend_on_seed_env(self, tmp_path, monkeypatch):
        # hl draws nothing: its report echoes and hashes its own flags only
        path = setting1_csv(tmp_path, n=200)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["hl", "--input", path, "--response", "y", "--formula", "x1 + x2"]
        monkeypatch.delenv("ADAPTGOF_SEED", raising=False)
        assert main(args + ["--output", str(out1)]) == 0
        monkeypatch.setenv("ADAPTGOF_SEED", "5")
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert list(payload["run_config"]) == ["input", "response", "formula", "groups"]


class TestRunConfig:
    # run_config lists a subcommand's flags in flag order, with the seed
    # resolved, and config_hash hashes them; both are pinned so that reports
    # of the same flags stay comparable across versions
    KEYS = ["input", "response", "formula", "k", "n_min", "splits", "alpha",
            "train_size", "train_fraction", "partition", "seed"]

    def test_test_command(self, tmp_path, monkeypatch):
        setting1_csv(tmp_path, n=200)
        monkeypatch.chdir(tmp_path)
        assert main(["test", "--input", "s1.csv", "--response", "y", "--formula", "x1 + x2",
                     "--splits", "10", "--seed", "4", "--partition", "mta-prob",
                     "--train-fraction", "0.6", "--output", "r.json"]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert list(payload["run_config"]) == self.KEYS
        assert payload["run_config"]["train_fraction"] == 0.6
        assert payload["config_hash"] == "f9ca2cc3d2f46d01"

    def test_diagnose_command_with_env_seed(self, tmp_path, monkeypatch):
        setting1_csv(tmp_path, n=200)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ADAPTGOF_SEED", "6")
        assert main(["diagnose", "--input", "s1.csv", "--response", "y", "--formula", "x1 + x2",
                     "--splits", "10", "--k", "4", "--top", "2", "--output", "r.json"]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert list(payload["run_config"]) == self.KEYS
        assert payload["run_config"]["seed"] == 6
        assert payload["config_hash"] == "0470ae64df8e86fc"


class TestExperimentCommand:
    def test_structural_csv_both_variants(self, tmp_path, capsys):
        outdir = tmp_path / "res"
        code = main(["experiment", "--setting", "2", "--reps", "2",
                     "--splits", "5", "--n", "200", "--seed", "7",
                     "--outdir", str(outdir)])
        assert code == 0
        rows = list(csv.DictReader(open(outdir / "rates.csv")))
        variants = {r["variant"] for r in rows}
        methods = {r["method"] for r in rows}
        assert variants == {"beta3=0.5", "beta3=0.8"}
        assert methods == {"hl-a", "hl-b", "bag-a", "bag-b"}
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["run_config"]["seed"] == 7
        assert "config_hash" in manifest

    def test_outputs_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["experiment", "--setting", "4", "--reps", "2", "--splits", "5",
                "--n", "200", "--seed", "9", "--methods", "bag-b"]
        assert main(args + ["--outdir", str(out1)]) == 0
        assert main(args + ["--outdir", str(out2)]) == 0
        assert (out1 / "rates.csv").read_bytes() == (out2 / "rates.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()

    def test_one_class_replication_counts_as_failed(self, tmp_path):
        # at n=50 some nn-example replications draw a single response class;
        # the full-data hl fit cannot run there and must not end the experiment
        outdir = tmp_path / "one-class"
        code = main(["experiment", "--setting", "nn-example", "--n", "50", "--reps", "300",
                     "--methods", "hl-a", "--seed", "1", "--outdir", str(outdir)])
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["failures"]["default/hl-a"] > 0

    def test_zero_reps_is_usage_error(self, tmp_path, capsys):
        code = main(["experiment", "--setting", "1", "--reps", "0",
                     "--outdir", str(tmp_path)])
        assert code == 1
        assert "reps" in capsys.readouterr().err

    def test_too_small_n_is_usage_error(self, tmp_path, capsys):
        code = main(["experiment", "--setting", "1", "--n", "20", "--reps", "1",
                     "--outdir", str(tmp_path)])
        assert code == 1
        assert "at least 50" in capsys.readouterr().err

    # hl methods never build a TestConfig, so these flags are checked up front
    @pytest.mark.parametrize("alpha", ["2", "0", "1", "-0.1", "nan"])
    def test_alpha_outside_unit_interval_is_usage_error(self, tmp_path, capsys, alpha):
        code = main(["experiment", "--setting", "4", "--n", "100", "--reps", "3",
                     "--methods", "hl-a", "--alpha", alpha, "--seed", "1",
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert "--alpha" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_splits_is_usage_error(self, tmp_path, capsys):
        code = main(["experiment", "--setting", "4", "--n", "100", "--reps", "3",
                     "--methods", "hl-a", "--splits", "0", "--seed", "1",
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert "--splits" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_setting(self, tmp_path, capsys):
        code = main(["experiment", "--setting", "12", "--reps", "2",
                     "--outdir", str(tmp_path)])
        assert code == 1
        assert "unknown setting" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, flags, name", [
        ("4", ["--beta3", "0.9"], "beta3"),
        ("1", ["--beta3", "0.9", "--chi2-df", "8"], "chi2_df"),
    ])
    def test_variant_flag_the_setting_does_not_take(self, tmp_path, capsys, setting, flags,
                                                    name):
        code = main(["experiment", "--setting", setting, "--n", "100", "--reps", "1",
                     "--splits", "2", "--methods", "hl-a", "--seed", "1", *flags,
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert f"setting {setting} takes no {name}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_power_at_paper_scale(self, tmp_path):
        # missing main effect, n=500: the adaptive test rejects nearly always
        outdir = tmp_path / "power"
        code = main(["experiment", "--setting", "1", "--reps", "200",
                     "--n", "500", "--beta3", "0.651", "--methods", "bag-b",
                     "--seed", "1", "--outdir", str(outdir)])
        assert code == 0
        rows = list(csv.DictReader(open(outdir / "rates.csv")))
        assert float(rows[0]["rate"]) >= 0.97
