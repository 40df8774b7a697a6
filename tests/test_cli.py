import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import adaptgof
from adaptgof import RandomSource, cli, parse_formula
from adaptgof.cli import CliError, _floats, main, parse_csv
from adaptgof.sim import generate, make_setting

FIXTURES = Path(__file__).parent / "fixtures"
# cells that numpy and Python's float may read differently
PINNED_CELLS = ["1_000", "\u0661\u0662\u0663", " 1.5\t", "infinity", "-NaN", "1e500", "0x1p3",
                "1__0", "nan(1)"]


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


def test_no_command_loads_scipy(tmp_path):
    # in a fresh interpreter, neither importing the package nor running an
    # experiment (simulated data, fits, the quantile-binned and adaptive
    # tests and their p-values: the code of every command) loads scipy
    script = f"""
import sys
import adaptgof, adaptgof.cli
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy on import"
code = adaptgof.cli.main(["experiment", "--setting", "3", "--n", "200", "--reps", "1",
                          "--splits", "2", "--seed", "1", "--outdir", {str(tmp_path)!r}])
assert code == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    src = str(Path(adaptgof.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


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

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n1,0.5\n0,1.5\n")
        ds = parse_csv(str(path), "y")
        assert list(ds.columns) == ["x"]
        assert ds.y.tolist() == [1, 0]

    def test_padded_cells(self, tmp_path):
        path = tmp_path / "padded.csv"
        path.write_text(" y , x ,  city\n 1 ,  0.5 , paris \n0,1.5,  london\n")
        ds = parse_csv(str(path), "y")
        assert ds.kinds == {"x": "continuous", "city": "discrete"}
        assert ds.y.tolist() == [1, 0]
        assert ds.columns["x"].tolist() == [0.5, 1.5]
        assert ds.columns["city"].tolist() == ["paris", "london"]

    def test_responses_spelled_as_floats(self, tmp_path):
        path = tmp_path / "floats.csv"
        path.write_text("y,x\n1.0,0.5\n0e0,1.5\n-0,2.5\n1e0,3.5\n")
        ds = parse_csv(str(path), "y")
        assert ds.y.dtype == np.int64
        assert ds.y.tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize("cell", PINNED_CELLS)
    def test_cells_convert_as_python_float_does(self, cell):
        # numpy's conversion is Python's float: the same value, sign and NaN
        # bits, or the same rejection (None), alone and inside a column
        try:
            want = np.array([float(cell)])
        except ValueError:
            want = None
        for cells, at in (([cell], 0), (["0.5", cell, "2"], 1)):
            got = _floats(cells)
            if want is None:
                assert got is None
            else:
                assert got.dtype == np.float64 and got.shape == (len(cells),)
                assert got[at:at + 1].tobytes() == want.tobytes()

    def test_quoted_commas(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('y,place,x\n1,"Paris, France",0.5\n0," Lyon, France ",1.5\n')
        ds = parse_csv(str(path), "y")
        assert ds.columns["place"].tolist() == ["Paris, France", "Lyon, France"]
        assert ds.columns["x"].tolist() == [0.5, 1.5]

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"y,x,city\r\n1,0.5,paris\r\n0,1.5,london\r\n")
        ds = parse_csv(str(path), "y")
        assert ds.y.tolist() == [1, 0]
        assert ds.columns["x"].tolist() == [0.5, 1.5]
        assert ds.columns["city"].tolist() == ["paris", "london"]

    def test_first_bad_response_row_wins(self, tmp_path):
        # a non-binary number before a non-number: the earlier row is named
        path = tmp_path / "bad2.csv"
        path.write_text("y,x\n1,0.5\n2,1.5\nyes,2.5\n")
        with pytest.raises(CliError, match="row 3: response value '2' is not 0 or 1"):
            parse_csv(str(path), "y")


def parse_outcome(path, **kw):
    """``parse_csv``'s dataset, or the text of its ``CliError``; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parse_csv(str(path), "y", **kw)
        except CliError as exc:
            return f"CliError: {exc}"


def assert_same_outcome(got, want):
    """Equal messages, or datasets with the same column order, kinds and bits."""
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    assert list(got.columns) == list(want.columns)
    assert got.kinds == want.kinds
    for a, b in [(got.y, want.y)] + [(got.columns[n], want.columns[n]) for n in want.columns]:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        if a.dtype == object:
            assert a.tolist() == b.tolist()
        else:
            assert a.tobytes() == b.tobytes()  # -0.0 included


def cell_parser_only(monkeypatch):
    monkeypatch.setattr(cli, "_numeric_dataset", lambda fh, response, overrides: None)


def one_pass_only(monkeypatch):
    def refuse(path, rows, response, overrides):
        raise AssertionError("the file went to the cell parser")

    monkeypatch.setattr(cli, "_cell_dataset", refuse)


WHOLE_FILES = {
    **{f"cell-{i}": f"y,x\n1,0.5\n0,{cell}\n1,2\n".encode() for i, cell in enumerate(PINNED_CELLS)},
    **{f"response-{i}": f"y,x\n1,0.5\n{cell},1.5\n".encode() for i, cell in enumerate(PINNED_CELLS)},
    "plain": b"y,x1,x2\n1,0.5,-0.0\n0,1.5,2e-310\n1,-2.5,3.0000000000000000000000001\n",
    "blank-line-mid-file": b"y,x\n1,0.5\n\n0,1.5\n",
    "blank-line-at-end": b"y,x\n1,0.5\n0,1.5\n\n",
    "blank-first-line": b"y,x\n\n1,0.5\n0,1.5\n",
    "whitespace-line": b"y,x\n1,0.5\n  \t\n0,1.5\n",
    "comment-line": b"y,x\n1,0.5\n# note\n0,1.5\n",
    "comment-cell": b"y,x\n1,0.5 # note\n0,1.5\n",
    "quoted-number": b'y,x\n1,"0.5"\n0,1.5\n',
    "quoted-header": b'"y","x"\n1,0.5\n0,1.5\n',
    "trailing-comma": b"y,x\n1,0.5,\n0,1.5,\n",
    "short-row": b"y,x\n1,0.5\n0\n",
    "long-row": b"y,x\n1,0.5\n0,1.5,2.5\n",
    "missing-cell": b"y,x\n1,0.5\n0, \n",
    "header-only": b"y,x\n",
    "empty": b"",
    "no-response": b"a,x\n1,0.5\n0,1.5\n",
    "duplicate-header": b"y,x,x\n1,0.5,1\n0,1.5,2\n",
    "padded-header": b" y , x \n1, 0.5 \n0,\t1.5\n",
    "byte-order-mark": b"\xef\xbb\xbfy,x\n1,0.5\n0,1.5\n",
    "crlf": b"y,x\r\n1,0.5\r\n0,1.5\r\n",
    "lone-cr": b"y,x\r1,0.5\r0,1.5\r",
    "no-final-newline": b"y,x\n1,0.5\n0,1.5",
    "responses-as-floats": b"y,x\n1.0,0.5\n0e0,1.5\n-0,2.5\n",
    "non-binary-response": b"y,x\n1,0.5\n2,1.5\n",
    "non-finite-covariate": b"y,x\n1,0.5\n0,inf\n",
    "text-column": b"y,x,c\n1,0.5,a\n0,1.5,b\n",
    "response-only": b"y\n1\n0\n",
    "not-utf-8": b"y,x\n1,0.5\n0,\xff\n",
    "over-long-field": b"y,x\n1,0.5\n1." + b"0" * 140_000 + b",1.5\n",
}


class TestOnePassRead:
    """A file of plain numbers is read in one numpy pass; the rest by cells."""

    @pytest.mark.parametrize("content", WHOLE_FILES.values(), ids=WHOLE_FILES.keys())
    def test_both_paths_give_the_same_outcome(self, tmp_path, monkeypatch, content):
        path = tmp_path / "in.csv"
        path.write_bytes(content)
        got = parse_outcome(path)
        cell_parser_only(monkeypatch)
        assert_same_outcome(got, parse_outcome(path))

    @pytest.mark.parametrize("overrides", [{"x": "continuous"}, {"x": "discrete"},
                                           {"y": "discrete"}, {"z": "discrete"}])
    def test_overrides_give_the_same_outcome(self, tmp_path, monkeypatch, overrides):
        path = tmp_path / "in.csv"
        path.write_bytes(b"y,x\n1,0.5\n0,1.5\n")
        got = parse_outcome(path, overrides=overrides)
        cell_parser_only(monkeypatch)
        assert_same_outcome(got, parse_outcome(path, overrides=overrides))

    def test_a_csv_writer_file_takes_one_pass(self, tmp_path, monkeypatch):
        # csv.writer ends rows with \r\n; a generated nn-example file of 3,000
        # rows spans many read blocks
        ds = generate(make_setting("nn-example", 3000), RandomSource(2))
        path = tmp_path / "nn.csv"
        write_dataset_csv(ds, path)
        want = parse_outcome(path)
        one_pass_only(monkeypatch)
        assert_same_outcome(parse_outcome(path), want)
        assert want.y.tolist() == ds.y.tolist()

    @pytest.mark.parametrize("line_end", ["\r\n", "\n"])
    def test_line_ends_across_read_blocks_take_one_pass(self, tmp_path, monkeypatch, line_end):
        # each row's line end starts on the last character of a 4,096-character
        # block, so a \r\n falls across every block boundary of every power-of-
        # two read size from 4,096 to 65,536 characters
        block, text, rows = 4096, f"y,x{line_end}", []
        for end in range(block - 1, 17 * block, block):
            while len(text) + 40 < end:
                text += f"{len(rows) % 2},0.25{line_end}"
                rows.append(0.25)
            digits = "5" * (end - len(text) - 4)  # "1,0." then the digits end at `end`
            text += f"{len(rows) % 2},0.{digits}{line_end}"
            rows.append(float(f"0.{digits}"))
            assert text[end] == line_end[0]
        path = tmp_path / "blocks.csv"
        path.write_bytes(text.encode())
        one_pass_only(monkeypatch)
        ds = parse_outcome(path)
        assert ds.columns["x"].tolist() == rows
        assert ds.y.tolist() == [i % 2 for i in range(len(rows))]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_is_read_by_cells(self, monkeypatch):
        # a pipe cannot be read twice, so it never takes the one-pass read
        read, write = os.pipe()
        try:
            os.write(write, b"y,x,c\n1,0.5,a\n0,1.5,b\n")
            os.close(write)
            ds = parse_csv(f"/dev/fd/{read}", "y")
        finally:
            os.close(read)
        assert ds.kinds == {"x": "continuous", "c": "discrete"}
        assert ds.columns["c"].tolist() == ["a", "b"]


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

    def test_training_size_below_the_coefficients_is_an_error(self, tmp_path, capsys):
        # 2 training rows cannot fit the 3 coefficients of x1 + x2 in any
        # split, so the command fails once instead of reporting INCONCLUSIVE
        path = setting1_csv(tmp_path, n=200)
        code = main(["test", "--input", path, "--response", "y", "--formula", "x1 + x2",
                     "--train-size", "2", "--n-min", "1", "--splits", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "training size 2 is below the model's 3 coefficients" in captured.err
        assert "decision" not in captured.out

    def test_most_splits_failing_alone_is_inconclusive(self, tmp_path, capsys):
        # two positive responses in 60 rows: most training sets of 6 rows hold
        # neither and fail their fit with one response class, a failure that
        # depends on the split's rows, so the run reports instead of stopping
        path = tmp_path / "two_positives.csv"
        path.write_text("y,x1\n" + "".join(f"{int(i in (10, 40))},{i * 0.1}\n"
                                           for i in range(60)))
        out = tmp_path / "report.json"
        code = main(["test", "--input", str(path), "--response", "y", "--formula", "x1",
                     "--train-size", "6", "--n-min", "1", "--splits", "20", "--seed", "1",
                     "--output", str(out)])
        assert code == 0
        assert "decision:   INCONCLUSIVE" in capsys.readouterr().out
        decision = json.loads(out.read_text())["decision"]
        assert decision["reject"] is None
        assert decision["inconclusive"] is True
        assert decision["failed_splits"] > 10

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
        assert "error: --k must be at least 2, got 1" in captured.err
        assert "INCONCLUSIVE" not in captured.out

    @pytest.mark.parametrize("command", ["test", "diagnose"])
    @pytest.mark.parametrize("flag, value, message", [
        ("--k", "1", "--k must be at least 2, got 1"),
        ("--n-min", "0", "--n-min must be at least 1, got 0"),
        ("--splits", "0", "--splits must be at least 1, got 0"),
        ("--alpha", "2", "--alpha must lie strictly between 0 and 1, got 2.0"),
    ])
    def test_bad_flag_is_named_before_the_input_is_read(self, tmp_path, capsys, command,
                                                          flag, value, message):
        code = main([command, "--input", str(tmp_path / "missing.csv"), "--response", "y",
                     "--formula", "x1", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("partition", ["covariates", "mta-prob", "score:s"])
    def test_n_min_below_one_is_an_error(self, tmp_path, capsys, partition):
        path = tmp_path / "scored.csv"
        path.write_text("y,x1,s\n" + "".join(f"{i % 2},{i * 0.1},{(i % 10) / 10}\n"
                                             for i in range(60)))
        code = main(["test", "--input", str(path), "--response", "y", "--formula", "x1",
                     "--n-min", "-5", "--partition", partition, "--splits", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: --n-min must be at least 1, got -5" in captured.err
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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_an_error(self, tmp_path, capsys, seed):
        path = setting1_csv(tmp_path, n=200)
        code = main(["test", "--input", path, "--response", "y", "--formula", "x1 + x2",
                     "--splits", "5", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 1
        assert "--seed" in captured.err
        assert "decision" not in captured.out

    @pytest.mark.parametrize("content, message", [
        (b"y,x1\n1,\xff\n0,2\n", "is not valid UTF-8"),
        (b"y,x1,x1\n1,2,3\n", "has duplicate column names"),
        (b"y,x1\n", "has a header but no data rows"),
    ], ids=["not-utf-8", "duplicate-columns", "no-data-rows"])
    def test_unreadable_csv_is_an_error(self, tmp_path, capsys, content, message):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        code = main(["test", "--input", str(path), "--response", "y", "--formula", "x1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {path} {message}")
        assert "decision" not in captured.out

    def test_non_integer_seed_variable_is_an_error(self, tmp_path, capsys, monkeypatch):
        path = setting1_csv(tmp_path, n=200)
        monkeypatch.setenv("ADAPTGOF_SEED", "abc")
        code = main(["test", "--input", path, "--response", "y", "--formula", "x1 + x2",
                     "--splits", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: ADAPTGOF_SEED must be an integer, got 'abc'\n"
        assert "decision" not in captured.out

    def test_malformed_formula_is_an_error(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=200)
        code = main(["test", "--input", path, "--response", "y", "--formula", "x1 +",
                     "--splits", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: empty term in formula 'x1 +'\n"
        assert "decision" not in captured.out

    def test_bad_partition_flag(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=200)
        code = main(["test", "--input", path, "--response", "y",
                     "--formula", "x1", "--partition", "bogus"])
        assert code == 1

    def test_field_over_the_csv_limit_is_an_error(self, tmp_path, capsys):
        # a response of 140,000 characters reads as 1.0, but csv rejects the field
        path = tmp_path / "long.csv"
        path.write_text("y,x1\n1,0.5\n1." + "0" * 140_000 + ",1.5\n")
        code = main(["test", "--input", str(path), "--response", "y", "--formula", "x1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (f"error: {path} line 3: field larger than field limit "
                                f"({csv.field_size_limit()})\n")
        assert "decision" not in captured.out

    def test_unknown_score_column_is_an_error(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=200)
        code = main(["test", "--input", path, "--response", "y", "--formula", "x1",
                     "--partition", "score:p", "--splits", "5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: unknown column 'p'\n"

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

    @pytest.mark.parametrize("fraction", ["nan", "inf", "0", "1", "-0.5", "1.5", "0.0001"])
    def test_train_fraction_outside_the_unit_interval_is_an_error(self, tmp_path, capsys,
                                                                 fraction):
        # nan and inf used to escape as a traceback from int(); 0.0001 of 300
        # rows leaves no training row
        path = setting1_csv(tmp_path, n=300)
        code = main(["test", "--input", path, "--response", "y", "--formula", "x1 + x2",
                     "--splits", "5", "--train-fraction", fraction])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: --train-fraction ")
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

    def test_negative_top_is_an_error(self, tmp_path, capsys):
        path = setting1_csv(tmp_path, n=200)
        code = main(["diagnose", "--input", path, "--response", "y", "--formula", "x1 + x2",
                     "--splits", "5", "--seed", "1", "--top", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--top" in captured.err
        assert "decision" not in captured.out


class TestHlCommand:
    def test_byte_order_mark_in_header(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        spec = make_setting("1", 200)
        write_dataset_csv(generate(spec, RandomSource(5).child("data")), path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code = main(["hl", "--input", str(path), "--response", "y", "--formula", "x1 + x2"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "statistic:" in captured.out

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
        assert "error: --groups must be at least 3, got 2" in capsys.readouterr().err

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


def _no_experiment(*args, **kwargs):
    raise AssertionError("the experiment ran")


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

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        code = main(["experiment", "--setting", "4", "--n", "100", "--reps", "1",
                     "--methods", "bag-b,bag-c", "--seed", "1",
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unknown method 'bag-c'; use hl-a, hl-b, bag-a, bag-b\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("methods", ["bag-b,bag-b", "hl-a,bag-b,BAG-B"])
    def test_repeated_method_is_usage_error(self, tmp_path, capsys, monkeypatch, methods):
        # rates are keyed by label: a repeat would count its replications twice
        monkeypatch.setattr(cli, "run_experiment", _no_experiment)
        code = main(["experiment", "--setting", "nn-example", "--n", "1000", "--reps", "2",
                     "--splits", "10", "--seed", "2", "--methods", methods,
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: --methods lists 'bag-b' more than once\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("outdir", ["file.csv", os.path.join("file.csv", "out"), ""])
    def test_outdir_that_cannot_be_created_is_an_error(self, tmp_path, capsys, monkeypatch,
                                                       outdir):
        # an existing file, a directory under a file and an empty path fail
        # before the first replication
        monkeypatch.chdir(tmp_path)
        Path("file.csv").write_text("y\n1\n")
        monkeypatch.setattr(cli, "run_experiment", _no_experiment)
        code = main(["experiment", "--setting", "4", "--n", "100", "--reps", "1",
                     "--methods", "hl-a", "--seed", "1", "--outdir", outdir])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot create {outdir}: ")
        assert Path("file.csv").read_text() == "y\n1\n"

    @pytest.mark.parametrize("flags, message", [
        (["--setting", "1", "--beta3", "nan", "--methods", "hl-a"], "--beta3 must be finite, got nan"),
        (["--setting", "1", "--beta3", "inf", "--methods", "bag-a"], "--beta3 must be finite, got inf"),
        (["--setting", "2", "--beta3=-inf"], "--beta3 must be finite, got -inf"),
        (["--setting", "3", "--chi2-df", "0"], "--chi2-df must be at least 1, got 0"),
        (["--setting", "3", "--chi2-df", "-3"], "--chi2-df must be at least 1, got -3"),
        (["--setting", "1", "--chi2-df", "0"], "--chi2-df must be at least 1, got 0"),
        (["--setting", "1", "--n", "10"], "--n must be at least 50, got 10"),
    ])
    def test_variant_flag_out_of_range_is_usage_error(self, tmp_path, capsys, monkeypatch,
                                                      flags, message):
        monkeypatch.setattr(cli, "run_experiment", _no_experiment)
        code = main(["experiment", *flags, "--reps", "1", "--splits", "5", "--seed", "1",
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_zero_splits_is_usage_error(self, tmp_path, capsys):
        code = main(["experiment", "--setting", "4", "--n", "100", "--reps", "3",
                     "--methods", "hl-a", "--splits", "0", "--seed", "1",
                     "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert "--splits" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_out_of_range_is_usage_error(self, tmp_path, capsys, seed):
        code = main(["experiment", "--setting", "4", "--n", "100", "--reps", "1",
                     "--methods", "hl-a", "--seed", seed, "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_env_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADAPTGOF_SEED", "-3")
        code = main(["experiment", "--setting", "4", "--n", "100", "--reps", "1",
                     "--methods", "hl-a", "--outdir", str(tmp_path / "out")])
        assert code == 1
        assert "ADAPTGOF_SEED" in capsys.readouterr().err
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
