"""Benchmark of the adaptgof package: end-to-end timings or a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --small-reference-s 0.016 --large-reference-s 0.012 \
        --workload nn20k-covariates --seed 1 --seconds 30 --trace 0

Workloads are listed in ``units.py``; the README next to this file says why
each exists. The run is a closed loop with one client in one process: each
unit (one ``adaptgof`` CLI call) starts after the previous one ends, and no
unit starts that would end after ``--seconds``. Every unit's output is
checked. All times are reference seconds: raw seconds scaled by the nominal
time of the workload's reference kernel ÷ that kernel's time measured around
the unit.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each unit
once untraced and once traced and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One BLAS thread: units are single-client and the host has few cores, so a
# second BLAS thread only adds contention noise. Must precede the numpy import.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import refkernel
from tracer import WRAPPED, Tracer, installed, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 1

REF_EVERY_S = 2.0          # longest stretch of units between two reference blocks
SETUP_INTERPRETERS = 7     # fresh interpreters timed for setup_s

# The reference kernel whose array sizes match each workload's (refkernel.py).
# Imports in setup_s are scaled by the small kernel.
KERNEL = {"nn20k-covariates": "large", "nn20k-mtaprob": "large", "exp-s3-n500": "small"}


def measure(step, seconds: float, kernel: str, nominal: float) -> tuple:
    """Run ``step(i)`` for i = 0, 1, ... in a closed loop for about ``seconds``.

    A reference block runs before the first step and after every stretch of
    at least ``REF_EVERY_S`` seconds of steps. Each step's scale factor is
    ``nominal`` ÷ the mean of the two ``kernel`` blocks around its stretch. Returns
    ``([(factor, step result)], [block seconds])``.
    """
    out, batch, refs = [], [], [refkernel.reference_block(kernel)]

    def close_stretch():
        refs.append(refkernel.reference_block(kernel))
        factor = 2 * nominal / (refs[-2] + refs[-1])
        out.extend((factor, result) for result in batch)
        batch.clear()

    start = batch_start = time.perf_counter()
    last = 0.0
    while not out and not batch or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        batch.append(step(len(out) + len(batch)))
        last = time.perf_counter() - t
        if time.perf_counter() - batch_start >= REF_EVERY_S:
            close_stretch()
            batch_start = time.perf_counter()
    if batch:
        close_stretch()
    return out, refs


def timed_unit(workload, index: int) -> tuple:
    """Run and check one unit; return (raw seconds, error message or None)."""
    start = time.perf_counter()
    try:
        code, stdout = workload.call(index)
    except Exception as exc:  # noqa: BLE001 -- a raising unit is a failed unit
        raw = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return raw, f"raised {type(exc).__name__}: {exc}"
    raw = time.perf_counter() - start
    try:
        return raw, workload.check(index, code, stdout)
    except (OSError, ValueError, KeyError) as exc:
        return raw, f"unreadable output: {type(exc).__name__}: {exc}"


def setup_seconds(nominal: float) -> float:
    """Median reference seconds for a fresh interpreter to import ``adaptgof.cli``."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import adaptgof.cli"
    before = refkernel.reference_block("small")
    times = []
    for _ in range(SETUP_INTERPRETERS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    after = refkernel.reference_block("small")
    return statistics.median(times) * 2 * nominal / (before + after)


def blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS library, read through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                out[os.path.basename(path)] = getter()
                break
    return out


def machine_facts(kernel: str, refs) -> dict:
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in SRC.rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_sha": sha,
        "reference_kernel": kernel,
        "reference_kernel_s": statistics.median(refs),
        "src_lines": src_lines,
    }


def end_to_end(samples, setup_s: float) -> dict:
    ok = [factor * raw for factor, (raw, errors) in samples if errors == [None]]
    every = [factor * raw for factor, (raw, _) in samples]
    return {
        "unit_s": {"value": statistics.median(ok or every), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(samples, tracer, absent) -> dict:
    steps = len(samples)
    totals = {}
    for factor, (_, _, times, _) in samples:
        for name, (calls, self_s) in times.items():
            c, s = totals.get(name, (0, 0.0))
            totals[name] = (c + calls, s + factor * self_s)
    metrics = {}
    for name in WRAPPED:
        if name in absent:
            continue
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = {"value": calls / steps, "unit": "count/unit"}
        metrics[f"{name}.self_s"] = {"value": self_s / steps, "unit": "s/unit"}
    c = tracer.counters
    untraced = sum(f * raw for f, (raw, _, _, _) in samples)
    traced = sum(f * raw for f, (_, raw, _, _) in samples)
    metrics.update({
        "glm.irls_iters": {"value": _mean(c.irls_iters), "unit": "iters"},
        "glm.nonconverged": {"value": c.nonconverged / steps, "unit": "count/unit"},
        "partition.cuts_scored": {"value": c.cuts_scored / steps, "unit": "count/unit"},
        "partition.groups_per_k": {"value": _mean(c.groups_per_k), "unit": "ratio"},
        "gof.correction_skipped": {"value": c.correction_skipped / steps, "unit": "count/unit"},
        "gof.failed_splits": {"value": c.failed_splits / steps, "unit": "count/unit"},
        "trace.overhead_frac": {"value": traced / untraced - 1.0, "unit": "frac"},
    })
    return metrics


def run(workload_name: str, seed: int, seconds: float, trace: bool, nominal: dict,
        size=None) -> dict:
    """Run one workload; return the result object (plus ``facts`` and ``notes``).

    ``nominal`` maps each reference kernel's name to its nominal seconds.
    """
    import units  # needs the package sources on the path

    size = size or units.FULL
    expected = None
    if seed == DEFAULT_SEED and size == units.FULL and EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text(encoding="utf-8"))["units"][workload_name]
    workdir = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = units.Workload(workload_name, seed, workdir, size, expected)
        input_error = workload.prepare()
        setup_s = None if trace else setup_seconds(nominal["small"])
        workload.warm_up()
        tracer = Tracer()
        absent = []

        def plain_step(i):
            raw, error = timed_unit(workload, i)
            return raw, [error]

        def traced_step(i):
            # The same unit untraced, then traced: their ratio is the tracing overhead.
            plain_raw, plain_error = timed_unit(workload, i)
            first = len(tracer.spans)
            with installed(tracer) as missing:
                traced_raw, traced_error = timed_unit(workload, i)
            absent[:] = missing
            return plain_raw, traced_raw, self_times(tracer.spans[first:]), \
                [plain_error, traced_error]

        kernel = KERNEL[workload_name]
        samples, refs = measure(traced_step if trace else plain_step, seconds, kernel,
                                nominal[kernel])
        errors = [e for _, result in samples for e in result[-1]]
        failed_units = [e for e in errors if e is not None]
        notes = [f"input: {input_error}"] if input_error else []
        notes += [f"unit failed: {e}" for e in failed_units]
        if trace:
            metrics = per_layer(samples, tracer, absent)
            metrics["failed_frac"] = {"value": len(failed_units) / len(errors), "unit": "frac"}
            spans_path = WORK / f"spans-{workload_name}-{seed}.tsv"
            tracer.write(spans_path)
            notes += [f"absent from the package: {name}" for name in absent]
            notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(samples, setup_s)
        return {
            "correct": input_error is None and not failed_units,
            "attempted": len(errors),
            "failed": len(failed_units),
            "metrics": metrics,
            "facts": machine_facts(kernel, refs),
            "notes": notes,
            "units": len(samples),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    for kernel in refkernel.KERNELS:
        parser.add_argument(f"--{kernel}-reference-s", type=float, required=True,
                            help=f"nominal seconds of the {kernel} reference kernel "
                                 "(stored in BENCHMARK.json)")
    args = parser.parse_args(argv)

    if not (SRC / "adaptgof" / "__init__.py").is_file():
        print(f"error: no adaptgof sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import units

    if args.workload not in units.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(units.WORKLOADS)}", file=sys.stderr)
        return 2
    nominal = {k: getattr(args, f"{k}_reference_s") for k in refkernel.KERNELS}
    if args.seconds <= 0 or min(nominal.values()) <= 0:
        print("error: --seconds and the reference times must be positive", file=sys.stderr)
        return 2

    # Units, reference blocks and the setup interpreters (which inherit the
    # affinity) all run on one CPU, so a reference block measures the speed of
    # the CPU the units ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    seed = args.seed % 2**64  # the range RandomSource accepts
    result = run(args.workload, seed, args.seconds, bool(args.trace), nominal)
    print(f"workload {args.workload}, seed {seed}, trace {args.trace}: "
          f"{result['units']} units, {result['attempted']} attempted, {result['failed']} failed")
    print("facts: " + json.dumps(result["facts"], sort_keys=True))
    for note in result["notes"]:
        print(note)
    for name, m in result["metrics"].items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
