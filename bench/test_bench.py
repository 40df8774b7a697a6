"""Tests of the benchmark itself: python3 -m pytest bench -q (about a minute)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, str(run.SRC))

import units  # noqa: E402  (needs the package sources on the path)
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NOMINAL = {k: float(SPEC["command"][SPEC["command"].index(f"--{k}-reference-s") + 1])
           for k in ("small", "large")}


def _package_bindings():
    return {(name, key): value for name, module in sys.modules.items()
            if name == "adaptgof" or name.startswith("adaptgof.")
            for key, value in vars(module).items()}


@pytest.mark.parametrize("workload", units.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(workload, trace):
    before = _package_bindings()
    result = run.run(workload, 3, 0.5, trace, NOMINAL, size=units.SMOKE)
    assert result["correct"], result["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    if trace:
        after = _package_bindings()
        assert before.keys() == after.keys()
        assert all(after[key] is value for key, value in before.items())


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, -1, "outer", 0.0, 10.0),
        (1, 0, "inner", 1.0, 4.0),
        (2, 1, "leaf", 2.0, 3.0),
        (3, 0, "inner", 5.0, 6.0),
    ]
    assert tracer.self_times(spans) == {
        "outer": (1, 6.0), "inner": (2, 3.0), "leaf": (1, 1.0)}


def test_wrapper_patches_every_binding_and_counts_cuts():
    from adaptgof import gof, partition

    t = tracer.Tracer()
    original = partition.grouped_chi2
    with tracer.installed(t) as absent:
        assert absent == []
        assert gof.grouped_chi2 is partition.grouped_chi2 is not original
        partition.criterion_b([0, 1, 1], [0.5, 0.4, 0.6], [0, 0, 1])
        partition.candidate_thresholds(list(range(40)), 10)
    assert partition.grouped_chi2 is original and gof.grouped_chi2 is original
    assert [s[2] for s in t.spans] == ["partition.grouped_chi2",
                                       "partition.candidate_thresholds"]
    assert t.counters.cuts_scored == 3


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(tracer, "WRAPPED", tracer.WRAPPED + ("gof.no_such_layer",))
    with tracer.installed(tracer.Tracer()) as absent:
        assert absent == ["gof.no_such_layer"]


def test_check_rejects_a_wrong_reference(tmp_path):
    workload = units.Workload("nn20k-mtaprob", 3, tmp_path, units.SMOKE)
    assert workload.prepare() is None
    code, stdout = workload.call(0)
    assert workload.check(0, code, stdout) is None
    good = workload.summary(0)
    workload.expected = [dict(good, median_p=good["median_p"] * 1.001 + 1e-12)]
    assert "median_p" in workload.check(0, code, stdout)
    workload.expected = [dict(good, top="nope")]
    assert "top" in workload.check(0, code, stdout)


def test_fails_without_package_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = SPEC["command"] + ["--workload", units.WORKLOADS[0], "--seed", "1",
                              "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_expected_references_cover_every_workload():
    expected = json.loads(run.EXPECTED.read_text(encoding="utf-8"))
    assert expected["seed"] == run.DEFAULT_SEED
    assert sorted(expected["units"]) == sorted(units.WORKLOADS)
    assert all(len(v) >= 5 for v in expected["units"].values())
