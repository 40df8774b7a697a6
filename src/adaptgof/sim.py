"""Data generators and a replication harness for the size/power experiments.

Six built-in designs generate logistic data with known truth:

=========  =====================================================  =====================
design     true logit                                             model under assessment
=========  =====================================================  =====================
1          b1*x1 + b2*x2 + b3*x3                                  drops x3
2          b1*x1 + b2*x2 + b3*x1*x2                               drops the interaction
3          -2 + .3*x1 + .3*x2 + .3*x3 + .3*x1^2                   drops the quadratic
4          .267*x1 + .267*x2                                      drops x2
5          -2 + .3*x1 + .3*x2 + .3*x1^2                           drops the quadratic
nn-example 7 covariates incl. a strong quartic in x7              drops the quartic
=========  =====================================================  =====================

Model "A" is the formula of the true terms (the correctly specified fit) and
model "B" omits one of them (the underfit variant). Covariate draws are
U(-3,3), N(0, variance), chi-squared, Bernoulli; designs 2 and 3 carry derived
columns (x3 = x1*x2, x4 = x1^2), each a formula term over the draws, that are
part of the dataset and therefore available to the partition search.

Training of auxiliary models (neural nets, random forests) is out of scope;
their fitted probabilities enter through ``score_injection``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CONTINUOUS, DISCRETE, Dataset
from .formula import Formula, design_matrix, parse_formula
from .gof import TestConfig, hl_test, multi_split_test, single_split_test
from .glm import fit_logistic, predict_prob
from .numkit import RandomSource
from .partition import assign_groups

__all__ = [
    "SettingSpec",
    "MethodSpec",
    "ExperimentResult",
    "make_setting",
    "default_variants",
    "generate",
    "true_probabilities",
    "run_experiment",
    "score_injection",
    "surface_table",
]

SETTINGS = ("1", "2", "3", "4", "5", "nn-example")


@dataclass(frozen=True)
class SettingSpec:
    """One simulation design: covariate draws, true terms, and both model formulas."""

    setting: str
    n: int
    variant: str
    covariates: tuple          # (name, kind, dist spec) in draw order
    derived: tuple             # (name, formula term string) computed after the draws
    beta0: float
    true_terms: tuple          # (formula term string, coefficient)
    model_a: Formula
    model_b: Formula


def default_variants(setting: str) -> list:
    """The variant keyword sets studied for a design (one empty set when none)."""
    if setting == "1":
        return [{"beta3": 0.217}, {"beta3": 0.651}]
    if setting == "2":
        return [{"beta3": 0.5}, {"beta3": 0.8}]
    if setting == "3":
        return [{"chi2_df": 4}, {"chi2_df": 8}]
    return [{}]


_UNIFORM = ("uniform", -3.0, 3.0)
_NORMAL = ("normal", 0.0, 2.25)


def _design(setting: str, n: int, variant: str, covariates: tuple, beta0: float,
            true_terms: tuple, omitted: str, derived: tuple = ()) -> SettingSpec:
    """A design whose model A is the formula of its true terms and whose model B omits one."""
    texts = [text for text, _ in true_terms]
    return SettingSpec(
        setting, n, variant, covariates=covariates, derived=derived, beta0=beta0,
        true_terms=true_terms,
        model_a=parse_formula(" + ".join(texts)),
        model_b=parse_formula(" + ".join(t for t in texts if t != omitted)),
    )


def make_setting(setting: str, n: int, *, beta3: float | None = None,
                 chi2_df: int | None = None) -> SettingSpec:
    """Resolve a design id plus variant parameters into a full specification.

    ``beta3`` belongs to settings 1 and 2 and ``chi2_df`` to setting 3; a
    parameter the design does not take, a non-finite ``beta3`` and a
    ``chi2_df`` below 1 raise ``ValueError``.
    """
    setting = str(setting)
    if n < 50:
        raise ValueError("n must be at least 50")
    if beta3 is not None and setting not in ("1", "2"):
        raise ValueError(f"setting {setting} takes no beta3 parameter (settings 1 and 2 do)")
    if chi2_df is not None and setting != "3":
        raise ValueError(f"setting {setting} takes no chi2_df parameter (setting 3 does)")
    if beta3 is not None and not math.isfinite(beta3):
        raise ValueError(f"beta3 must be finite, got {beta3}")
    if chi2_df is not None and chi2_df < 1:
        raise ValueError(f"chi2_df must be at least 1, got {chi2_df}")
    if setting == "1":
        b3 = 0.651 if beta3 is None else float(beta3)
        return _design(
            setting, n, f"beta3={b3}",
            (("x1", CONTINUOUS, _UNIFORM), ("x2", CONTINUOUS, _NORMAL),
             ("x3", CONTINUOUS, ("chisq", 4))),
            0.0, (("x1", 0.267), ("x2", 0.267), ("x3", b3)), omitted="x3",
        )
    if setting == "2":
        b3 = 0.8 if beta3 is None else float(beta3)
        return _design(
            setting, n, f"beta3={b3}",
            (("x1", CONTINUOUS, _UNIFORM), ("x2", CONTINUOUS, _UNIFORM)),
            0.0, (("x1", 0.3), ("x2", 0.3), ("x1*x2", b3)), omitted="x1*x2",
            derived=(("x3", "x1*x2"),),
        )
    if setting == "3":
        df = 4 if chi2_df is None else int(chi2_df)
        return _design(
            setting, n, f"chi2_df={df}",
            (("x1", CONTINUOUS, _UNIFORM), ("x2", CONTINUOUS, _NORMAL),
             ("x3", CONTINUOUS, ("chisq", df))),
            -2.0, (("x1", 0.3), ("x2", 0.3), ("x3", 0.3), ("x1^2", 0.3)), omitted="x1^2",
            derived=(("x4", "x1^2"),),
        )
    if setting == "4":
        return _design(
            setting, n, "",
            (("x1", CONTINUOUS, _NORMAL), ("x2", CONTINUOUS, ("chisq", 4))),
            0.0, (("x1", 0.267), ("x2", 0.267)), omitted="x2",
        )
    if setting == "5":
        return _design(
            setting, n, "",
            (("x1", CONTINUOUS, _UNIFORM), ("x2", CONTINUOUS, ("chisq", 2))),
            -2.0, (("x1", 0.3), ("x2", 0.3), ("x1^2", 0.3)), omitted="x1^2",
        )
    if setting == "nn-example":
        return _design(
            setting, n, "",
            (("x1", CONTINUOUS, _UNIFORM), ("x2", CONTINUOUS, _UNIFORM),
             ("x3", CONTINUOUS, _NORMAL), ("x4", CONTINUOUS, _NORMAL),
             ("x5", CONTINUOUS, ("chisq", 4)), ("x6", DISCRETE, ("bernoulli", 0.5)),
             ("x7", CONTINUOUS, ("normal", 0.0, 4.0))),
            -0.15,
            (("x1", 0.3), ("x2", 0.3), ("x3", 0.1), ("x4", 0.2),
             ("x5", 0.2), ("x6", 0.3), ("x7", 0.3), ("x7^4", 3.0)), omitted="x7^4",
        )
    raise ValueError(f"unknown setting {setting!r}")


def _draw(dist, rng: RandomSource, n: int) -> np.ndarray:
    kind = dist[0]
    if kind == "uniform":
        return rng.uniform(dist[1], dist[2], size=n)
    if kind == "normal":
        return rng.normal(dist[1], np.sqrt(dist[2]), size=n)  # second entry is a variance
    if kind == "chisq":
        return rng.chisquare(dist[1], size=n)
    if kind == "bernoulli":
        return rng.bernoulli(dist[1], size=n)
    raise ValueError(f"unknown distribution {kind!r}")


def true_probabilities(spec: SettingSpec, dataset: Dataset) -> np.ndarray:
    """True success probabilities of a dataset, recomputed from its columns."""
    # model A holds the true terms, parsed, in the order of true_terms
    logit = np.full(dataset.n, spec.beta0)
    for term, (_, coef) in zip(spec.model_a.terms, spec.true_terms):
        logit += coef * term.evaluate(dataset)
    return 1.0 / (1.0 + np.exp(-logit))


def generate(spec: SettingSpec, rng: RandomSource) -> Dataset:
    """Draw one dataset from a design; identical rng state gives identical bytes."""
    drawn = Dataset(y=np.zeros(spec.n, dtype=int),
                    columns={name: _draw(dist, rng, spec.n) for name, _, dist in spec.covariates},
                    kinds={name: kind for name, kind, _ in spec.covariates})
    for name, text in spec.derived:
        drawn = drawn.with_column(name, parse_formula(text).terms[0].evaluate(drawn))
    y = rng.bernoulli(true_probabilities(spec, drawn), size=spec.n)
    return Dataset(y=y, columns=drawn.columns, kinds=drawn.kinds)


def score_injection(dataset: Dataset, scores, name: str = "score") -> Dataset:
    """Attach an auxiliary probability column usable as a partitioning source."""
    s = np.asarray(scores, dtype=float)
    if s.shape != (dataset.n,):
        raise ValueError(f"score length {s.shape} does not match n = {dataset.n}")
    if np.any(s < 0.0) or np.any(s > 1.0) or not np.all(np.isfinite(s)):
        raise ValueError("scores must lie in [0, 1]")
    return dataset.with_column(name, s, CONTINUOUS)


# ---------------------------------------------------------------------------
# Replication harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MethodSpec:
    """One method column of the rejection-rate tables.

    ``kind`` is "hl" (quantile-binned baseline on the full-data fit) or "bag"
    (the multi-split adaptive test); ``model`` selects the fitted formula.
    """

    kind: str
    model: str = "B"
    k: int | None = None        # defaults: 10 for hl, 5 for bag
    splits: int = 100

    def __post_init__(self):
        if self.kind not in ("hl", "bag"):
            raise ValueError(f"unknown method kind {self.kind!r}")
        if self.model not in ("A", "B"):
            raise ValueError(f"model must be 'A' or 'B', got {self.model!r}")

    @property
    def label(self) -> str:
        return f"{self.kind}-{self.model.lower()}"


DEFAULT_METHODS = (
    MethodSpec("hl", "A"),
    MethodSpec("hl", "B"),
    MethodSpec("bag", "A"),
    MethodSpec("bag", "B"),
)


@dataclass(frozen=True)
class ExperimentResult:
    setting: str
    n: int
    variant: str
    method: str
    rate: float
    reps: int
    failures: int
    seed: int


def _run_method(method: MethodSpec, dataset: Dataset, spec: SettingSpec,
                alpha: float, rng: RandomSource):
    formula = spec.model_a if method.model == "A" else spec.model_b
    if method.kind == "hl":
        x = design_matrix(dataset, formula)
        try:
            model = fit_logistic(x, dataset.y)
        except ValueError:  # e.g. a replication with one response class
            return None
        # bag drops non-converged splits too; a separated fit can still end
        # converged=True with saturated probabilities (ROADMAP item 2)
        if not model.converged:
            return None
        result = hl_test(dataset.y, model.fitted_prob, k=method.k or 10)
        if result.failed:
            return None
        return bool(result.p_value < alpha)
    config = TestConfig(k=method.k or 5, splits=method.splits, alpha=alpha)
    report = multi_split_test(dataset, formula, config, rng)
    if report.inconclusive:
        return None
    return report.reject


def run_experiment(settings, methods, reps: int, rng: RandomSource,
                   alpha: float = 0.05) -> list:
    """Replicated rejection rates: generate, fit, test, aggregate.

    Every replication draws a fresh dataset on a child stream derived from
    (setting, variant, replication); all methods see the same data within a
    replication. Failed replications (a full-data fit that raises or does not
    converge, a degenerate or inconclusive test) are excluded from the rate
    and reported in ``failures``. Results are keyed by method label, so a
    label listed twice raises ``ValueError``.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    labels = [m.label for m in methods]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"method {label!r} is listed more than once")
    results = []
    for spec in settings:
        rejects = {m.label: 0 for m in methods}
        failures = {m.label: 0 for m in methods}
        for rep in range(reps):
            key = (spec.setting, spec.variant, spec.n, rep)
            dataset = generate(spec, rng.child(("data",) + key))
            for method in methods:
                verdict = _run_method(
                    method, dataset, spec, alpha, rng.child(("test", method.label) + key)
                )
                if verdict is None:
                    failures[method.label] += 1
                elif verdict:
                    rejects[method.label] += 1
        for method in methods:
            ok = reps - failures[method.label]
            rate = rejects[method.label] / ok if ok else float("nan")
            results.append(ExperimentResult(
                setting=spec.setting, n=spec.n, variant=spec.variant,
                method=method.label, rate=rate, reps=reps,
                failures=failures[method.label], seed=rng.seed,
            ))
    return results


# ---------------------------------------------------------------------------
# Plot-ready surface data
# ---------------------------------------------------------------------------


def surface_table(spec: SettingSpec, rng: RandomSource, grid: int = 25) -> dict:
    """Long-format surface data for a two-covariate design.

    Fits the underfit model on one generated dataset, selects a partition via
    a single adaptive split, and evaluates true probability, fitted
    probability and group membership on a grid over (x1, x2). Returns a dict
    of equal-length column arrays keyed x1, x2, true_p, fitted_p, group.
    """
    names = [c[0] for c in spec.covariates]
    if len(names) != 2 or spec.derived:
        raise ValueError("surface tables need a plain two-covariate design")

    dataset = generate(spec, rng.child("data"))
    config = TestConfig()
    outcome = single_split_test(dataset, spec.model_b, config, rng.child("split"))

    x_full = design_matrix(dataset, spec.model_b)
    model = fit_logistic(x_full, dataset.y)

    axes = [np.linspace(float(dataset.columns[n].min()), float(dataset.columns[n].max()), grid)
            for n in names]
    g1, g2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    cols = {names[0]: g1.ravel(), names[1]: g2.ravel()}
    grid_ds = Dataset(y=np.zeros(grid * grid, dtype=int),
                      columns=cols, kinds={n: CONTINUOUS for n in names})
    fitted = predict_prob(model, design_matrix(grid_ds, spec.model_b))
    truth = true_probabilities(spec, grid_ds)
    groups = assign_groups(outcome.partition, cols)
    return {
        names[0]: cols[names[0]],
        names[1]: cols[names[1]],
        "true_p": truth,
        "fitted_p": fitted,
        "group": groups,
    }
