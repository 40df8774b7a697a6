"""Spans around the public functions of each ``adaptgof`` layer.

The tracer wraps named package functions from outside the package: every
module of ``adaptgof`` whose globals bind the original function object gets
the wrapper (``grouped_chi2``, for example, is bound in both ``partition``
and ``gof``), and ``installed`` puts every original back on exit. Spans stay
in memory as ``(id, parent, name, start, end)`` tuples and are written out
once, at the end of a run. Work counts are read from arguments and return
values by per-function observers; nothing inside the package changes.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# Public functions wrapped per layer (module of ``src/adaptgof``). ``data`` is
# a container with no timed work.
WRAPPED = (
    "cli.parse_csv",
    "formula.design_matrix",
    "glm.fit_logistic",
    "glm.predict_prob",
    "partition.greedy_partition",
    "partition.candidate_thresholds",
    "partition.candidate_discrete_splits",
    "partition.probability_partition",
    "partition.assign_groups",
    "partition.grouped_chi2",
    "gof.multi_split_test",
    "gof.bag_statistic",
    "gof.corrected_statistic",
    "gof.bag_gradient",
    "gof.hl_test",
    "gof.report_to_dict",
    "numkit.chi2_sf",
    "sim.generate",
    "sim.run_experiment",
)


class Counters:
    """Work counts read from the arguments and results of wrapped calls."""

    def __init__(self):
        self.irls_iters = []
        self.nonconverged = 0
        self.cuts_scored = 0
        self.groups_per_k = []
        self.correction_skipped = 0
        self.failed_splits = 0


def _fit(c, bound, result):
    c.irls_iters.append(result.iterations)
    c.nonconverged += not result.converged


def _cuts(c, bound, result):
    c.cuts_scored += len(result)


def _greedy(c, bound, result):
    c.groups_per_k.append(result.size / bound.arguments["config"].k)


def _prob_partition(c, bound, result):
    c.groups_per_k.append(result.size / bound.arguments["k"])


def _correction(c, bound, result):
    c.correction_skipped += bool(result.skipped)


def _multi_split(c, bound, result):
    c.failed_splits += result.n_failed


OBSERVERS = {
    "glm.fit_logistic": _fit,
    "partition.candidate_thresholds": _cuts,
    "partition.candidate_discrete_splits": _cuts,
    "partition.greedy_partition": _greedy,
    "partition.probability_partition": _prob_partition,
    "gof.corrected_statistic": _correction,
    "gof.multi_split_test": _multi_split,
}


class Tracer:
    """Records nested spans of wrapped calls and their work counts."""

    def __init__(self):
        self.spans = []
        self.counters = Counters()
        self._stack = []
        self._next_id = 0

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
            if observe is not None:
                observe(self.counters, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def self_times(spans) -> dict:
    """Per name: (calls, summed self seconds), self = duration minus direct children."""
    children = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    out = {}
    for span_id, _, name, start, end in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - children[span_id])
    return out


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == "adaptgof" or key.startswith("adaptgof."))]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every binding of each wrapped function; yield the absent names.

    A name in ``WRAPPED`` that the package no longer defines is reported as
    absent instead of being counted as zero.
    """
    patches = []
    absent = []
    try:
        for qualname in WRAPPED:
            module_name, attr = qualname.split(".")
            module = importlib.import_module(f"adaptgof.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                absent.append(qualname)
                continue
            wrapper = tracer.wrap(qualname, original)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patches.append((mod, key, original))
        yield absent
    finally:
        for mod, key, original in reversed(patches):
            setattr(mod, key, original)
