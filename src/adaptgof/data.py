"""Tabular data container shared by the fitting, partitioning and CLI layers."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset"]

CONTINUOUS = "continuous"
DISCRETE = "discrete"


@dataclass(frozen=True)
class Dataset:
    """A binary response plus typed covariate columns, row-indexed.

    ``kinds`` maps every column name to "continuous" or "discrete". Continuous
    columns are float arrays; discrete columns may hold integers or strings.
    """

    y: np.ndarray
    columns: dict = field(default_factory=dict)
    kinds: dict = field(default_factory=dict)

    def __post_init__(self):
        y = np.asarray(self.y)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("response must be a non-empty 1-D array")
        if not np.all(np.isin(y, (0, 1))):
            raise ValueError("response entries must be 0 or 1")
        object.__setattr__(self, "y", y.astype(np.int64))
        cols = {}
        for name, values in self.columns.items():
            arr = np.asarray(values)
            if arr.shape != (y.size,):
                raise ValueError(f"column {name!r} has length {arr.shape}, expected {y.size}")
            cols[name] = arr
        object.__setattr__(self, "columns", cols)
        if set(self.kinds) != set(cols):
            raise ValueError("kinds must name exactly the covariate columns")
        for name, kind in self.kinds.items():
            if kind not in (CONTINUOUS, DISCRETE):
                raise ValueError(f"column {name!r} has unknown kind {kind!r}")

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def continuous_names(self) -> tuple:
        return tuple(n for n, k in self.kinds.items() if k == CONTINUOUS)

    @property
    def discrete_names(self) -> tuple:
        return tuple(n for n, k in self.kinds.items() if k == DISCRETE)

    def numeric(self, name: str) -> np.ndarray:
        """Column values as floats; raises if the column is not numeric."""
        if name not in self.columns:
            raise KeyError(f"unknown column {name!r}")
        try:
            return np.asarray(self.columns[name], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"column {name!r} is not numeric") from exc

    def with_column(self, name: str, values, kind: str = CONTINUOUS) -> "Dataset":
        """A copy of this dataset with one column added or replaced."""
        cols = dict(self.columns)
        kinds = dict(self.kinds)
        cols[name] = np.asarray(values)
        kinds[name] = kind
        return Dataset(y=self.y, columns=cols, kinds=kinds)
