"""The three workloads: inputs made from the seed, one unit each, output checks.

A unit is one call of the public CLI entry point ``adaptgof.cli.main``:

* ``nn20k-covariates``: ``adaptgof test`` with the default greedy covariate
  partition on a generated 20,000-row nn-example CSV, model B;
* ``nn20k-mtaprob``: the same call with ``--partition mta-prob``;
* ``exp-s3-n500``: ``adaptgof experiment`` for one replication of setting 3
  (n=500, chi2_df=4, all four methods).

Every unit gets its own ``--seed``, derived from the workload seed and the
unit index, so units never repeat a call. ``check_*`` return an error message,
or None when the output is consistent and, where a stored reference exists,
equal to it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from adaptgof import cli
from adaptgof.numkit import RandomSource
from adaptgof.sim import generate, make_setting

WORKLOADS = ("nn20k-covariates", "nn20k-mtaprob", "exp-s3-n500")
FORMULA_B = "x1 + x2 + x3 + x4 + x5 + x6 + x7"
METHODS = ("hl-a", "hl-b", "bag-a", "bag-b")


@dataclass(frozen=True)
class Size:
    """Problem size of a workload; ``FULL`` is what the benchmark measures."""

    rows: int        # rows of the nn-example CSV
    exp_n: int       # sample size of one experiment replication
    splits: int      # splits per adaptive test


FULL = Size(rows=20000, exp_n=500, splits=100)
SMOKE = Size(rows=600, exp_n=200, splits=4)


def unit_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**32


def write_nn_csv(path: Path, seed: int, rows: int) -> str | None:
    """Write the nn-example CSV for ``seed``; return an error if it does not round-trip."""
    ds = generate(make_setting("nn-example", rows), RandomSource(seed))
    names = list(ds.columns)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + names)
        cols = [[repr(float(v)) if ds.kinds[n] == "continuous" else str(v)
                 for v in ds.columns[n].tolist()] for n in names]
        for i, y in enumerate(ds.y.tolist()):
            writer.writerow([y] + [col[i] for col in cols])
    parsed = cli.parse_csv(str(path), "y")
    if not np.array_equal(parsed.y, ds.y):
        return "CSV round trip changed the response"
    for name in names:
        if not np.array_equal(np.asarray(parsed.columns[name], dtype=float),
                              np.asarray(ds.columns[name], dtype=float)):
            return f"CSV round trip changed column {name}"
    return None


def cli_call(argv) -> tuple:
    """Run ``adaptgof`` in-process; return (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def verdict_argv(csv_path: Path, report: Path, partition: str, seed: int, size: Size) -> list:
    return ["test", "--input", str(csv_path), "--response", "y", "--formula", FORMULA_B,
            "--partition", partition, "--splits", str(size.splits), "--seed", str(seed),
            "--output", str(report)]


def experiment_argv(outdir: Path, seed: int, size: Size) -> list:
    return ["experiment", "--setting", "3", "--n", str(size.exp_n), "--chi2-df", "4",
            "--methods", ",".join(METHODS), "--splits", str(size.splits), "--reps", "1",
            "--seed", str(seed), "--outdir", str(outdir)]


def verdict_summary(report: dict) -> dict:
    d = report["decision"]
    ranking = report["covariate_ranking"]
    return {
        "reject": d["reject"],
        "median_p": d["median_p"],
        "failed_splits": d["failed_splits"],
        "top": ranking[0]["covariate"] if ranking else None,
    }


def check_verdict(stdout: str, report_path: Path, splits: int, expected: dict | None) -> str | None:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    d = report["decision"]
    records = report["splits"]
    if d["splits"] != splits or len(records) != splits:
        return f"expected {splits} splits, report has {len(records)}"
    failed = sum(1 for r in records if r["failed"] or not r["converged"])
    if failed != d["failed_splits"]:
        return f"failed_splits {d['failed_splits']} but {failed} failed records"
    p_values = [r["p_value"] for r in records if not r["failed"]]
    if not all(0.0 <= p <= 1.0 for p in p_values):
        return "a split p-value lies outside [0, 1]"
    if d["inconclusive"]:
        verdict = "INCONCLUSIVE"
    else:
        if not 0.0 <= d["median_p"] <= 1.0:
            return f"median_p {d['median_p']} lies outside [0, 1]"
        if d["reject"] != (d["median_p"] < d["threshold"]):
            return "decision disagrees with median_p < threshold"
        verdict = "REJECT (lack of fit)" if d["reject"] else "NO REJECTION"
    if not stdout.startswith(f"decision:   {verdict}\n"):
        return "printed decision disagrees with the report"
    if expected is not None:
        got = verdict_summary(report)
        if not math.isclose(got["median_p"], expected["median_p"], rel_tol=1e-9, abs_tol=1e-300):
            return f"median_p {got['median_p']!r} != reference {expected['median_p']!r}"
        for key in ("reject", "failed_splits", "top"):
            if got[key] != expected[key]:
                return f"{key} {got[key]!r} != reference {expected[key]!r}"
    return None


def _experiment_outcome(outdir: Path) -> dict:
    """Per method: (rate, reps, failures) from the experiment's CSV and manifest."""
    manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
    failures = {key.split("/", 1)[1]: n for key, n in manifest["failures"].items()}
    with open(outdir / "rates.csv", newline="", encoding="utf-8") as fh:
        return {row["method"]: (float(row["rate"]), row["reps"], failures[row["method"]])
                for row in csv.DictReader(fh)}


def experiment_summary(outdir: Path) -> dict:
    return {method: {"rejects": int(rate == 1.0), "failures": failures}
            for method, (rate, _, failures) in _experiment_outcome(outdir).items()}


def check_experiment(outdir: Path, expected: dict | None) -> str | None:
    outcome = _experiment_outcome(outdir)
    if sorted(outcome) != sorted(METHODS):
        return f"methods {sorted(outcome)} != {sorted(METHODS)}"
    for method, (rate, reps, failures) in outcome.items():
        if reps != "1" or failures not in (0, 1):
            return f"{method}: expected one replication"
        if math.isnan(rate) != (failures == 1) or not (math.isnan(rate) or rate in (0.0, 1.0)):
            return f"{method}: rate {rate} inconsistent with {failures} failures"
    if expected is not None and experiment_summary(outdir) != expected:
        return f"per-method rejects/failures {experiment_summary(outdir)} != reference {expected}"
    return None


class Workload:
    """Prepares one workload's inputs in ``workdir`` and runs its units."""

    def __init__(self, name: str, seed: int, workdir: Path, size: Size = FULL,
                 expected: list | None = None):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.size = size
        self.expected = expected or []
        self.csv_path = workdir / "nn.csv"

    def prepare(self) -> str | None:
        """Write the inputs (outside any timed region); return an error or None."""
        if self.name.startswith("nn20k"):
            return write_nn_csv(self.csv_path, self.seed, self.size.rows)
        return None

    def argv(self, index: int, size: Size | None = None) -> list:
        size = size or self.size
        seed = unit_seed(self.seed, index)
        if self.name == "exp-s3-n500":
            return experiment_argv(self.workdir / f"exp-{index}", seed, size)
        partition = "covariates" if self.name == "nn20k-covariates" else "mta-prob"
        return verdict_argv(self.csv_path, self.workdir / f"report-{index}.json",
                            partition, seed, size)

    def call(self, index: int) -> tuple:
        """Run unit ``index``; return (exit code, captured stdout)."""
        return cli_call(self.argv(index))

    def warm_up(self) -> None:
        """One small call, so lazy imports and first-call costs stay untimed."""
        cli_call(self.argv(-1, Size(self.size.rows, self.size.exp_n, splits=2)))

    def check(self, index: int, code: int, stdout: str) -> str | None:
        if code != 0:
            return f"exit code {code}"
        expected = self.expected[index] if index < len(self.expected) else None
        if self.name == "exp-s3-n500":
            return check_experiment(self.workdir / f"exp-{index}", expected)
        return check_verdict(stdout, self.workdir / f"report-{index}.json",
                             self.size.splits, expected)

    def summary(self, index: int) -> dict:
        """The checked fields of unit ``index``, as stored in the references."""
        if self.name == "exp-s3-n500":
            return experiment_summary(self.workdir / f"exp-{index}")
        path = self.workdir / f"report-{index}.json"
        return verdict_summary(json.loads(path.read_text(encoding="utf-8")))
