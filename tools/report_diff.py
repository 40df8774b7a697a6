"""Field-level diff of adaptgof outputs.

Usage:
  python tools/report_diff.py OLD NEW

OLD and NEW are two ``test``/``diagnose``/``hl`` JSON reports, two
``experiment`` output directories, or two directory trees of such files,
paired by relative path. The script prints:

- for every numeric field that moved, its largest relative change
  |a - b| / max(|a|, |b|) over all pairs, with where it occurred; list
  positions collapse to ``[]`` so that e.g. every split's p-value counts as
  the one field ``splits[].p_value``;
- every change in a decision (``decision.reject``, ``decision.inconclusive``
  and the split counts), in a partition (anything but its cut values: rules,
  groups, training counts) and in an ``experiment`` rate;
- every other change that is not a float: strings, flags, counts, and keys,
  list entries or files present on one side only.

Exit status: 0 when nothing moved, 1 when something did, 2 on bad input.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

_MAX_LINES = 20


class _Rows(dict):
    """CSV rows keyed by their identity columns (else by position); keys render like list positions."""


def _load_rates(path: Path) -> _Rows:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    ident = [c for c in ("setting", "n", "variant", "method") if rows and c in rows[0]]
    out = _Rows()
    for i, row in enumerate(rows):
        key = " ".join(f"{c}={row[c]}" for c in ident) if ident else str(i)
        out[key] = {c: _number(v) for c, v in row.items() if c not in ident}
    return out


def _number(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _load_tree(path: Path) -> dict:
    """Map of relative file name -> parsed content for every output file under a directory."""
    if not path.is_dir():
        raise FileNotFoundError(f"{path} is not a directory")
    return {
        str(p.relative_to(path)): _parse(p)
        for p in sorted(path.rglob("*"))
        if p.is_file() and p.suffix in (".json", ".csv")
    }


def _parse(path: Path):
    if path.suffix == ".csv":
        return _load_rates(path)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _flatten(node, concrete: str, pattern: str, out: dict) -> None:
    """Leaves of a JSON tree as concrete path -> (field pattern, value)."""
    if isinstance(node, _Rows):
        for key, child in node.items():
            _flatten(child, f"{concrete}[{key}]", f"{pattern}[]", out)
    elif isinstance(node, dict):
        for key, child in node.items():
            sep = "." if concrete else ""
            _flatten(child, f"{concrete}{sep}{key}", f"{pattern}{sep}{key}", out)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            _flatten(child, f"{concrete}[{i}]", f"{pattern}[]", out)
        if not node:
            out[concrete] = (pattern, [])
    else:
        out[concrete] = (pattern, node)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _rel_change(a, b) -> float:
    if a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)):
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 and math.isfinite(scale) else math.inf


def _partition_root(concrete: str) -> str | None:
    head, found, _ = concrete.partition(".partition.")
    return head + ".partition" if found else None


def compare(old: dict, new: dict) -> dict:
    """Compare two loaded trees (file name -> content); see the module docstring."""
    moved = {}      # pattern -> (largest relative change, where)
    unchanged = set()
    decisions, partitions, rates, other = [], [], [], []
    for name in sorted(set(old) | set(new)):
        if name not in new or name not in old:
            other.append(f"{name}: only in {'old' if name in old else 'new'}")
            continue
        a, b = {}, {}
        _flatten(old[name], "", "", a)
        _flatten(new[name], "", "", b)
        for path in sorted(set(a) | set(b)):
            where = f"{name}: {path}"
            if path not in a or path not in b:
                other.append(f"{where}: only in {'old' if path in a else 'new'}")
                continue
            (pattern, va), (_, vb) = a[path], b[path]
            if _is_number(va) and _is_number(vb):
                rel = _rel_change(va, vb)
                if rel > moved.get(pattern, (0.0, None))[0]:
                    moved[pattern] = (rel, where)
                if rel == 0.0:
                    unchanged.add(pattern)
                    continue
            elif va == vb:
                continue
            line = f"{where}: {json.dumps(va)} -> {json.dumps(vb)}"
            if isinstance(old[name], _Rows) and pattern == "[].rate":
                rates.append(line)
            elif isinstance(va, float) and isinstance(vb, float):
                continue  # a moved float: reported in the table above
            elif (root := _partition_root(path)) is not None:
                if f"{name}: {root}" not in partitions:
                    partitions.append(f"{name}: {root}")
            elif path.startswith("decision."):
                decisions.append(line)
            else:
                other.append(line)
    return {
        "files": len(set(old) & set(new)),
        "moved": moved,
        "unchanged": unchanged - set(moved),
        "decisions": decisions,
        "partitions": partitions,
        "rates": rates,
        "other": other,
    }


def render(result: dict) -> str:
    lines = [f"compared {result['files']} file pair(s)"]
    moved = result["moved"]
    if moved:
        lines.append("numeric fields that moved (largest relative change, where):")
        width = max(len(p) for p in moved)
        for pattern in sorted(moved):
            rel, where = moved[pattern]
            lines.append(f"  {pattern:<{width}}  {rel:.2g}  {where}")
    else:
        lines.append("numeric fields that moved: none")
    lines.append(f"numeric fields unchanged: {len(result['unchanged'])}")
    for key, title in (("decisions", "decision changes"), ("partitions", "partitions changed"),
                       ("rates", "rate changes"), ("other", "other changes")):
        entries = result[key]
        lines.append(f"{title}: {len(entries) if entries else 'none'}")
        lines.extend(f"  {e}" for e in entries[:_MAX_LINES])
        if len(entries) > _MAX_LINES:
            lines.append(f"  ... and {len(entries) - _MAX_LINES} more")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    if len(args) != 2:
        print("usage: python tools/report_diff.py OLD NEW", file=sys.stderr)
        return 2
    old_path, new_path = (Path(a) for a in args)
    try:
        if old_path.is_file() and new_path.is_file():
            old, new = {new_path.name: _parse(old_path)}, {new_path.name: _parse(new_path)}
        else:
            old, new = _load_tree(old_path), _load_tree(new_path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = compare(old, new)
    print(render(result))
    keys = ("moved", "decisions", "partitions", "rates", "other")
    return 1 if any(result[k] for k in keys) else 0


if __name__ == "__main__":
    sys.exit(main())
