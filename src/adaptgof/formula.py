"""Model-term mini-language.

Formulas describe which terms enter the fitted logistic regression:
main effects (``x1``), integer powers (``x1^2``), and pairwise products
(``x1*x2``). That is the whole grammar; the link is always logit and an
intercept is always included. ``parse -> canonical -> parse`` is a fixed
point, which keeps serialized configurations stable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .glm import DesignMatrix

__all__ = ["Term", "Formula", "FormulaError", "parse_formula", "design_matrix"]

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


class FormulaError(ValueError):
    """A formula string does not fit the term grammar."""


@dataclass(frozen=True)
class Term:
    """One model term: a main effect, an integer power, or a pairwise product."""

    kind: str  # "main" | "power" | "product"
    names: tuple
    power: int = 1

    def canonical(self) -> str:
        if self.kind == "main":
            return self.names[0]
        if self.kind == "power":
            return f"{self.names[0]}^{self.power}"
        return "*".join(self.names)

    def evaluate(self, dataset: Dataset) -> np.ndarray:
        if self.kind == "main":
            return dataset.numeric(self.names[0])
        if self.kind == "power":
            return dataset.numeric(self.names[0]) ** self.power
        return dataset.numeric(self.names[0]) * dataset.numeric(self.names[1])


@dataclass(frozen=True)
class Formula:
    terms: tuple

    def canonical(self) -> str:
        return " + ".join(t.canonical() for t in self.terms)

    def column_names(self) -> tuple:
        seen = []
        for t in self.terms:
            for n in t.names:
                if n not in seen:
                    seen.append(n)
        return tuple(seen)


def _parse_factor(text: str):
    if "^" in text:
        base, _, exp = text.partition("^")
        base = base.strip()
        exp = exp.strip()
        if not _NAME_RE.match(base):
            raise FormulaError(f"invalid column name {base!r}")
        if not exp.isdigit() or int(exp) < 2:
            raise FormulaError(f"power must be an integer >= 2, got {exp!r}")
        return base, int(exp)
    if not _NAME_RE.match(text):
        raise FormulaError(f"invalid column name {text!r}")
    return text, 1


def parse_formula(text: str) -> Formula:
    """Parse a formula string such as ``"x1 + x2 + x1*x2 + x3^2"``.

    Duplicate terms are dropped (first occurrence wins); the order of the
    remaining terms is preserved.
    """
    if not text or not text.strip():
        raise FormulaError("empty formula")
    terms = []
    for raw in text.split("+"):
        piece = raw.strip()
        if not piece:
            raise FormulaError(f"empty term in formula {text!r}")
        factors = [f.strip() for f in piece.split("*")]
        if len(factors) == 1:
            name, power = _parse_factor(factors[0])
            if power == 1:
                term = Term("main", (name,))
            else:
                term = Term("power", (name,), power)
        elif len(factors) == 2:
            pair = []
            for f in factors:
                name, power = _parse_factor(f)
                if power != 1:
                    raise FormulaError(f"powers are not allowed inside products: {piece!r}")
                pair.append(name)
            term = Term("product", tuple(sorted(pair)))
        else:
            raise FormulaError(f"only pairwise products are supported: {piece!r}")
        if term not in terms:
            terms.append(term)
    return Formula(tuple(terms))


def design_matrix(dataset: Dataset, formula: Formula) -> DesignMatrix:
    """Build the intercept-plus-terms design matrix for a formula.

    The values are column-major: each term's column is contiguous, so the IRLS
    fit reads the transposed (p x n) design without a copy.
    """
    missing = [n for n in formula.column_names() if n not in dataset.columns]
    if missing:
        raise FormulaError(f"formula references unknown columns: {', '.join(missing)}")
    cols = [np.ones(dataset.n)]
    names = ["(Intercept)"]
    for term in formula.terms:
        cols.append(term.evaluate(dataset))
        names.append(term.canonical())
    return DesignMatrix(values=np.stack(cols).T, names=tuple(names))
