"""Command-line entry point.

Subcommands:
  test        run the adaptive multi-split test on a CSV file
  diagnose    run the test and print the covariate ranking for underfit diagnosis
  hl          run the quantile-binned baseline test on a CSV file
  experiment  reproduce the built-in size/power experiments

Statistical rejection is not a process failure: completed runs exit 0
regardless of the verdict; nonzero exits signal operational problems only.
Every emitted file embeds the subcommand's flags (``run_config``), their hash
and the package version, and contains no timing, so reruns with identical
flags are byte-identical. The ADAPTGOF_SEED environment variable supplies the
default seed of the subcommands that draw (``test``, ``diagnose`` and
``experiment``); ``hl`` draws nothing, so its output holds no seed and its
hash does not depend on the environment.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
import numpy as np

from . import __version__
from .data import CONTINUOUS, DISCRETE, Dataset
from .formula import FormulaError, design_matrix, parse_formula
from .glm import fit_logistic
from .gof import TestConfig, hl_test, multi_split_test, report_to_dict
from .numkit import RandomSource
from .sim import DEFAULT_METHODS, SETTINGS, MethodSpec, default_variants, make_setting, run_experiment

__all__ = ["main", "parse_csv", "run_test_command", "run_experiment_command", "CliError"]

_SEED_ENV = "ADAPTGOF_SEED"


class CliError(Exception):
    """Operational failure with a user-facing message."""


# ---------------------------------------------------------------------------
# CSV input
# ---------------------------------------------------------------------------


def parse_csv(path: str, response: str, overrides: dict | None = None) -> Dataset:
    """Load a CSV file with a header row into a typed dataset.

    The response column is coerced to {0, 1}; every other column is typed
    automatically (all-numeric -> continuous, otherwise discrete) unless
    ``overrides`` maps the name to an explicit kind. Rows with missing values,
    non-finite numbers (``nan``, ``inf``) in continuous columns and non-binary
    responses are rejected with their row numbers (the header is row 1). A
    leading UTF-8 byte-order mark is dropped.

    A file of plain numbers is read in one numpy pass (``_numeric_dataset``);
    any other file, and every error, goes through the cell parser. Both give
    the same dataset, so neither results nor messages depend on the path.
    """
    overrides = overrides or {}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # the cell parser reads from the start again, so a pipe goes to it directly
            if fh.seekable():
                dataset = _numeric_dataset(fh, response, overrides)
                if dataset is not None:
                    return dataset
                fh.seek(0)
            reader = csv.reader(fh)
            try:
                rows = list(reader)
            except csv.Error as exc:
                raise CliError(f"{path} line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not valid UTF-8: {exc}") from exc
    return _cell_dataset(path, rows, response, overrides)


def _numeric_dataset(fh, response: str, overrides: dict) -> Dataset | None:
    """The dataset of a file of plain numbers, read in one ``np.loadtxt`` pass, or None.

    It returns only what ``_cell_dataset`` would return: a valid header, every
    body line a row of header-many numbers, responses 0 or 1, finite
    covariates and no discrete override. Otherwise it returns None and words
    no error. numpy parses a cell as ``float`` parses the stripped cell, or
    rejects it (``1_000``, Arabic-Indic digits). A quote fails that parse, so
    body lines are ``csv``'s records, and their count catches the blank lines
    that ``loadtxt`` skips. A line longer than ``csv``'s field limit is left
    to the cell parser, which raises on a field that long.
    """
    try:
        header = [h.strip() for h in next(csv.reader(fh), [])]
        first = next(fh, "")
    except (ValueError, csv.Error):  # a UnicodeDecodeError is a ValueError
        return None
    # a blank first line would leave loadtxt no row, and it warns on that
    if (response not in header or len(set(header)) != len(header) or not first.strip()
            or any(overrides.get(n, CONTINUOUS) != CONTINUOUS for n in header)):
        return None
    limit = csv.field_size_limit()
    lines = overlong = 0

    def body():
        nonlocal lines, overlong
        for line in itertools.chain((first,), fh):
            lines += 1
            overlong |= len(line) > limit
            yield line

    try:
        table = np.loadtxt(body(), delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:
        return None
    y = table[:, header.index(response)]
    if (overlong or table.shape != (lines, len(header)) or not ((y == 0.0) | (y == 1.0)).all()
            or not np.isfinite(table).all()):
        return None
    columns = {name: table[:, j].copy() for j, name in enumerate(header) if name != response}
    return Dataset(y=y, columns=columns, kinds=dict.fromkeys(columns, CONTINUOUS))


def _cell_dataset(path: str, rows: list, response: str, overrides: dict) -> Dataset:
    """The dataset of ``csv.reader``'s records, typed and checked cell by cell."""
    if not rows:
        raise CliError(f"{path} is empty")
    header = [h.strip() for h in rows[0]]
    if len(set(header)) != len(header):
        raise CliError(f"{path} has duplicate column names")
    if response not in header:
        raise CliError(f"response column {response!r} not found; columns are {', '.join(header)}")
    body = rows[1:]
    if not body:
        raise CliError(f"{path} has a header but no data rows")
    for i, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise CliError(f"{path} row {i}: expected {len(header)} fields, found {len(row)}")

    cells = {name: [c.strip() for c in col] for name, col in zip(header, zip(*body))}
    missing = sorted({i for values in cells.values() if "" in values
                      for i, v in enumerate(values, start=2) if not v})
    if missing:
        raise CliError(f"{path} has missing values in rows: {_row_list(missing)}")

    y = _floats(cells[response])
    if y is None or not ((y == 0.0) | (y == 1.0)).all():
        bad = _first_row(cells[response], lambda f: f in (0.0, 1.0))
        raise CliError(
            f"{path} row {bad}: response value {cells[response][bad - 2]!r} is not 0 or 1"
        )

    columns = {}
    kinds = {}
    finite = np.ones(len(body), dtype=bool)
    for name, values in cells.items():
        if name == response:
            continue
        numbers = _floats(values)
        kind = overrides.get(name, DISCRETE if numbers is None else CONTINUOUS)
        if kind == CONTINUOUS:
            if numbers is None:
                raise CliError(
                    f"column {name!r} was declared continuous but row {_first_row(values)} "
                    f"holds a non-numeric value"
                )
            columns[name] = numbers
            finite &= np.isfinite(numbers)
        else:
            columns[name] = np.array(values, dtype=object)
        kinds[name] = kind
    if not finite.all():
        bad = (np.flatnonzero(~finite) + 2).tolist()
        raise CliError(f"{path} has non-finite values (nan or inf) in rows: {_row_list(bad)}")
    return Dataset(y=y, columns=columns, kinds=kinds)


def _floats(values):
    """The cells as a float array, or None when ``float`` rejects one.

    numpy converts each cell with Python's own ``float``, in one C loop.
    """
    try:
        return np.array(values, dtype=float)
    except ValueError:
        return None


def _first_row(values, accept=lambda f: True) -> int:
    """Row number of the first cell that ``float`` rejects or ``accept`` refuses."""
    return next(i for i, v in enumerate(values, start=2)
                if (f := _floats([v])) is None or not accept(f[0]))


def _row_list(rows: list) -> str:
    """The first ten row numbers, then a count of the rest."""
    shown = ", ".join(str(r) for r in rows[:10])
    return shown if len(rows) <= 10 else f"{shown} (and {len(rows) - 10} more)"


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


def _run_config(args) -> dict:
    """The subcommand's flags in flag order: what its report echoes and hashes.

    ``command``, ``output`` and ``top`` only route the output and are left
    out; ``seed`` is resolved through ``_default_seed`` where the subcommand
    has one.
    """
    config = {k: v for k, v in vars(args).items() if k not in ("command", "output", "top")}
    if "seed" in config:
        config["seed"] = _default_seed(config["seed"])
    return config


def _config_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _default_seed(value) -> int:
    """``--seed``, else ``$ADAPTGOF_SEED``, else 0; a ``RandomSource`` takes [0, 2^64)."""
    name, seed = "--seed", value
    if value is None:
        name, seed = _SEED_ENV, os.environ.get(_SEED_ENV, "0")
        try:
            seed = int(seed)
        except ValueError as exc:
            raise CliError(f"{_SEED_ENV} must be an integer, got {seed!r}") from exc
    if not 0 <= seed < 2**64:
        raise CliError(f"{name} must lie in [0, 2^64), got {seed}")
    return int(seed)


def _at_least(flag: str, value, low: int) -> None:
    """Raise CliError naming ``flag`` unless ``value`` is None (its default) or at least ``low``."""
    if value is not None and value < low:
        raise CliError(f"{flag} must be at least {low}, got {value}")


def _check_alpha(alpha: float) -> None:
    # the negated test also catches nan
    if not 0.0 < alpha < 1.0:
        raise CliError(f"--alpha must lie strictly between 0 and 1, got {alpha}")


def _partition_settings(mode: str) -> tuple:
    """Split a --partition flag into (partition_by, score_column)."""
    if mode == "covariates":
        return "covariates", None
    if mode == "mta-prob":
        return "mta-prob", None
    if mode.startswith("score:") and len(mode) > len("score:"):
        return "score", mode.split(":", 1)[1]
    raise CliError(
        f"invalid partition mode {mode!r}; use covariates, score:<column> or mta-prob"
    )


def _write_json(path: str, payload: dict) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# test / diagnose
# ---------------------------------------------------------------------------


def run_test_command(args) -> int:
    """``test`` and ``diagnose``: ``diagnose`` always prints the ranking."""
    if args.train_size is not None and args.train_fraction is not None:
        raise CliError("--train-size and --train-fraction are alternatives; pass at most one")
    _at_least("--top", args.top, 0)
    _at_least("--k", args.k, 2)
    _at_least("--n-min", args.n_min, 1)
    _at_least("--splits", args.splits, 1)
    _check_alpha(args.alpha)
    if args.train_fraction is not None and not 0.0 < args.train_fraction < 1.0:
        raise CliError(f"--train-fraction must lie strictly between 0 and 1, "
                       f"got {args.train_fraction}")
    run_config = _run_config(args)
    dataset = parse_csv(args.input, args.response)
    try:
        formula = parse_formula(args.formula)
    except FormulaError as exc:
        raise CliError(str(exc)) from exc

    partition_by, score_column = _partition_settings(args.partition)
    train = args.train_size
    if args.train_fraction is not None:
        train = int(args.train_fraction * dataset.n)
        if not 0 < train < dataset.n:
            raise CliError(f"--train-fraction {args.train_fraction} gives {train} training "
                           f"rows of {dataset.n}; a split needs training and test rows")
    seed = run_config["seed"]
    try:
        test_config = TestConfig(
            k=args.k,
            n_min=args.n_min,
            train_size=train,
            alpha=args.alpha,
            splits=args.splits,
            partition_by=partition_by,
            score_column=score_column,
        )
        report = multi_split_test(dataset, formula, test_config, RandomSource(seed), seed=seed)
    except (ValueError, KeyError) as exc:
        # a KeyError's str() is its message in repr quotes
        raise CliError(exc.args[0] if isinstance(exc, KeyError) else str(exc)) from exc

    payload = report_to_dict(report)
    payload["artifact"] = {"name": "adaptgof", "version": __version__}
    payload["run_config"] = run_config
    payload["config_hash"] = _config_hash(run_config)
    if args.output:
        _write_json(args.output, payload)

    if report.inconclusive:
        verdict = "INCONCLUSIVE"
    else:
        verdict = "REJECT (lack of fit)" if report.reject else "NO REJECTION"
    print(f"decision:   {verdict}")
    print(f"median p:   {report.median_p:.6g}")
    cfg = report.config
    print(f"threshold:  {report.threshold:.6g}  (alpha={cfg.alpha}, splits={cfg.splits})")
    print(f"failed:     {report.n_failed} of {cfg.splits} splits")
    if args.command == "diagnose" or report.reject:
        print(f"top covariates on partition boundaries (of {len(report.ranking)}):")
        for name, total, max_grp in report.ranking[: args.top]:
            print(f"  {name:<16} total={total:<6} max-contribution-group={max_grp}")
    if args.output:
        print(f"report written to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# hl
# ---------------------------------------------------------------------------


def run_hl_command(args) -> int:
    _at_least("--groups", args.groups, 3)
    run_config = _run_config(args)
    dataset = parse_csv(args.input, args.response)
    try:
        formula = parse_formula(args.formula)
        x = design_matrix(dataset, formula)
        model = fit_logistic(x, dataset.y)
        result = hl_test(dataset.y, model.fitted_prob, k=args.groups)
    except (FormulaError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    payload = {
        "test": "quantile-binned chi-squared",
        "statistic": result.statistic,
        "groups": result.k,
        "df": result.df,
        "p_value": result.p_value,
        "failed": result.failed,
        "converged": model.converged,
        "run_config": run_config,
        "config_hash": _config_hash(run_config),
        "artifact": {"name": "adaptgof", "version": __version__},
    }
    if args.output:
        _write_json(args.output, payload)
    if result.failed:
        print(f"test failed: {result.reason}")
    else:
        print(f"statistic: {result.statistic:.6g}  df: {result.df}  p: {result.p_value:.6g}")
    return 0


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def run_experiment_command(args) -> int:
    if args.setting not in SETTINGS:
        raise CliError(f"unknown setting {args.setting!r}; choose from {', '.join(SETTINGS)}")
    _at_least("--n", args.n, 50)
    _at_least("--reps", args.reps, 1)
    _at_least("--splits", args.splits, 1)
    _at_least("--chi2-df", args.chi2_df, 1)
    if args.beta3 is not None and not math.isfinite(args.beta3):
        raise CliError(f"--beta3 must be finite, got {args.beta3}")
    _check_alpha(args.alpha)
    seed = _default_seed(args.seed)

    # every flag given goes to make_setting, which rejects one the design does not take
    given = {k: v for k, v in (("beta3", args.beta3), ("chi2_df", args.chi2_df)) if v is not None}
    variants = [given] if given else default_variants(args.setting)
    try:
        specs = [make_setting(args.setting, args.n, **kw) for kw in variants]
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    methods = []
    for label in args.methods.split(","):
        label = label.strip().lower()
        kind, _, model = label.partition("-")
        if kind not in ("hl", "bag") or model not in ("a", "b"):
            raise CliError(f"unknown method {label!r}; use hl-a, hl-b, bag-a, bag-b")
        if any(m.label == label for m in methods):
            raise CliError(f"--methods lists {label!r} more than once")
        methods.append(MethodSpec(kind, model.upper(), splits=args.splits))

    # before the first replication, so that a bad --outdir costs no run
    try:
        os.makedirs(args.outdir, exist_ok=True)
    except OSError as exc:
        raise CliError(f"cannot create {args.outdir}: {exc}") from exc
    rng = RandomSource(seed)
    try:
        results = run_experiment(specs, methods, reps=args.reps, rng=rng, alpha=args.alpha)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    csv_path = os.path.join(args.outdir, "rates.csv")
    manifest_path = os.path.join(args.outdir, "manifest.json")
    try:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["setting", "n", "variant", "method", "rate", "reps", "seed"])
            for r in results:
                writer.writerow([r.setting, r.n, r.variant, r.method,
                                 f"{r.rate:.6g}", r.reps, r.seed])
    except OSError as exc:
        raise CliError(f"cannot write {csv_path}: {exc}") from exc

    run_payload = {
        "setting": args.setting,
        "n": args.n,
        "reps": args.reps,
        "alpha": args.alpha,
        "splits": args.splits,
        "methods": [m.label for m in methods],
        "variants": [s.variant for s in specs],
        "seed": seed,
    }
    _write_json(manifest_path, {
        "artifact": {"name": "adaptgof", "version": __version__},
        "run_config": run_payload,
        "config_hash": _config_hash(run_payload),
        "failures": {f"{r.variant or 'default'}/{r.method}": r.failures for r in results},
    })

    labels = [m.label for m in methods]
    print(f"setting {args.setting}, n={args.n}, reps={args.reps}, alpha={args.alpha}")
    print(f"{'variant':<16}" + "".join(f"{lab:>10}" for lab in labels))
    by_variant = {}
    for r in results:
        by_variant.setdefault(r.variant, {})[r.method] = r.rate
    for variant in [s.variant for s in specs]:
        row = by_variant.get(variant, {})
        cells = "".join(f"{row.get(lab, float('nan')):>10.3f}" for lab in labels)
        print(f"{variant or '(none)':<16}{cells}")
    print(f"results written to {csv_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_test_flags(sub):
    sub.add_argument("--input", required=True, help="CSV file with a header row")
    sub.add_argument("--response", required=True, help="name of the binary response column")
    sub.add_argument("--formula", required=True,
                     help="model terms, e.g. 'x1 + x2 + x1*x2 + x3^2'")
    sub.add_argument("--k", type=int, default=5, help="target group count (default 5)")
    sub.add_argument("--n-min", type=int, default=None,
                     help="minimum training rows per group (default n/10)")
    sub.add_argument("--splits", type=int, default=100, help="number of random splits")
    sub.add_argument("--alpha", type=float, default=0.05, help="test level")
    sub.add_argument("--train-size", type=int, default=None, help="training rows per split")
    sub.add_argument("--train-fraction", type=float, default=None,
                     help="training fraction per split (alternative to --train-size)")
    sub.add_argument("--partition", default="covariates",
                     help="covariates | score:<column> | mta-prob")
    sub.add_argument("--seed", type=int, default=None,
                     help=f"random seed (default ${_SEED_ENV} or 0)")
    sub.add_argument("--output", default=None, help="path for the JSON report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaptgof",
        description="Adaptive-grouping goodness-of-fit tests for binary regression.",
    )
    parser.add_argument("--version", action="version", version=f"adaptgof {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    test = subs.add_parser("test", help="run the adaptive multi-split test on CSV data")
    _add_test_flags(test)
    test.set_defaults(top=5)  # ranking rows printed when the test rejects

    diag = subs.add_parser("diagnose", help="run the test and rank covariates by "
                                            "partition-boundary counts")
    _add_test_flags(diag)
    diag.add_argument("--top", type=int, default=5, help="ranking rows to print")

    hl = subs.add_parser("hl", help="run the quantile-binned baseline test on CSV data")
    hl.add_argument("--input", required=True)
    hl.add_argument("--response", required=True)
    hl.add_argument("--formula", required=True)
    hl.add_argument("--groups", type=int, default=10, help="number of bins (default 10)")
    hl.add_argument("--output", default=None)

    exp = subs.add_parser("experiment", help="reproduce the built-in size/power experiments")
    exp.add_argument("--setting", required=True, help="|".join(SETTINGS))
    exp.add_argument("--n", type=int, default=500, help="sample size per replication")
    exp.add_argument("--reps", type=int, default=500, help="number of replications")
    exp.add_argument("--beta3", type=float, default=None, help="run a single coefficient variant")
    exp.add_argument("--chi2-df", type=int, default=None, help="run a single chi-squared variant")
    method_labels = ",".join(m.label for m in DEFAULT_METHODS)
    exp.add_argument("--methods", default=method_labels, help=f"comma list of {method_labels}")
    exp.add_argument("--splits", type=int, default=100, help="splits per adaptive test")
    exp.add_argument("--alpha", type=float, default=0.05)
    exp.add_argument("--seed", type=int, default=None)
    exp.add_argument("--outdir", default="adaptgof-results", help="output directory")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = {"test": run_test_command, "diagnose": run_test_command,
           "hl": run_hl_command, "experiment": run_experiment_command}[args.command]
    try:
        return run(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
