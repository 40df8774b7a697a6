"""Logistic regression fitting for the model under assessment.

Maximum likelihood via iteratively reweighted least squares (Newton steps with
step-halving), plus predictions; the fit carries its observed Fisher
information in ``FittedGlm.fisher_info``. The fit is deliberately plain: no
penalty, logit link only. Separation is not detected: once the fitted
probabilities saturate at the clamp the gradient test passes, so a separated
fit usually ends ``converged=True`` with extreme coefficients (40 rows with
y = (x >= 2) stop after 19 iterations at about (-486, 243), with 38 of the
40 probabilities at the clamp). Flagging such fits is ROADMAP item 1.

One kernel, ``_clamped_logistic``, turns linear predictors into clamped
probabilities for the fit, for ``predict_prob`` and for the statistic's
gradient in ``gof``. Each IRLS step evaluates ``x @ beta`` once per candidate
and carries the accepted candidate's predictor and log-likelihood forward.
Each step solves its normal equations by plain Cholesky factorisation; a
numerically singular system raises ``RankDeficiencyError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

__all__ = [
    "DesignMatrix",
    "FittedGlm",
    "SingleClassError",
    "RankDeficiencyError",
    "fit_logistic",
    "predict_prob",
    "PROB_CLAMP",
]

# Lower clamp for fitted probabilities; guarantees every variance term
# p(1-p) stays strictly positive downstream.
PROB_CLAMP = 1e-10

_MAX_ITER = 100
_PIVOT_RTOL = 1e-12


class SingleClassError(ValueError):
    """The response contains only one class; the likelihood has no interior optimum."""


class RankDeficiencyError(ValueError):
    """The weighted normal equations are numerically singular."""


@dataclass(frozen=True)
class DesignMatrix:
    """An n x (p+1) design with a leading intercept column of ones."""

    values: np.ndarray
    names: tuple

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError("design matrix must be 2-D with at least one column")
        if not np.all(np.isfinite(v)):
            raise ValueError("design matrix contains non-finite entries")
        if len(self.names) != v.shape[1]:
            raise ValueError("column name count does not match column count")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "names", tuple(self.names))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def ncol(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class FittedGlm:
    """A fitted logistic regression.

    ``fisher_info`` is the observed information X' W X with
    W_ii = p_i (1 - p_i) evaluated at the final coefficients.
    ``ll_path`` records the log-likelihood after each accepted step.
    """

    coef: np.ndarray
    converged: bool
    iterations: int
    fisher_info: np.ndarray
    log_likelihood: float
    names: tuple
    ll_path: tuple


def _clamped_logistic(eta: np.ndarray) -> np.ndarray:
    """logistic(eta) clamped to [PROB_CLAMP, 1 - PROB_CLAMP]: the package's one kernel.

    Branch-free: with e = exp(-|eta|), the logistic is 1 / (1 + e) where
    eta >= 0 and e / (1 + e) elsewhere, so no exponential overflows.
    """
    e = np.exp(-np.abs(eta))
    prob = np.where(eta >= 0, 1.0, e)
    prob /= 1.0 + e
    np.maximum(prob, PROB_CLAMP, out=prob)
    return np.minimum(prob, 1.0 - PROB_CLAMP, out=prob)


def _log_likelihood(y: np.ndarray, eta: np.ndarray) -> float:
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def _weighted_gram(x: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """X' W X with W_ii = p_i (1 - p_i)."""
    w = prob * (1.0 - prob)
    return x.T @ (x * w[:, None])


def _triangular_solves(upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve U' U z = b for an upper-triangular, Fortran-ordered U.

    These are the LAPACK calls ``scipy.linalg.solve_triangular`` makes for
    ``solve_triangular(U.T, b, lower=True)`` and then ``solve_triangular(U, z)``,
    without its per-call validation.
    """
    z, info = lapack.dtrtrs(upper, b, lower=0, trans=1)
    if info == 0:
        z, info = lapack.dtrtrs(upper, z, lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK info {info})")
    return z


def _solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-definite system by Cholesky factorisation.

    Raises RankDeficiencyError when the factorisation fails or the ratio of
    its smallest to its largest squared pivot is below ``_PIVOT_RTOL``.
    """
    try:
        chol = np.linalg.cholesky(a)
        d = np.diagonal(chol)
        if d.min() ** 2 >= _PIVOT_RTOL * d.max() ** 2:
            return _triangular_solves(chol.T, b)
    except np.linalg.LinAlgError:
        pass
    raise RankDeficiencyError(
        "weighted normal equations are numerically singular "
        f"(Cholesky pivot ratio below {_PIVOT_RTOL:g})"
    )


def fit_logistic(x: DesignMatrix, y) -> FittedGlm:
    """Fit a logistic regression by IRLS.

    Iterates Newton steps with step-halving until the gradient max-norm drops
    to 1e-8 * n or 100 iterations are spent; hitting the cap returns
    ``converged=False`` rather than raising.

    Raises:
        SingleClassError: if the response has only zeros or only ones.
        RankDeficiencyError: if the weighted normal equations are singular.
    """
    yv = np.asarray(y, dtype=float).ravel()
    xv = x.values
    n, p = xv.shape
    if yv.shape[0] != n:
        raise ValueError(f"response length {yv.shape[0]} does not match {n} design rows")
    if not np.all(np.isin(yv, (0.0, 1.0))):
        raise ValueError("response entries must be 0 or 1")
    if yv.min() == yv.max():
        raise SingleClassError("both response classes must be present")
    if n < p:
        raise ValueError(f"need at least as many rows ({n}) as columns ({p})")

    grad_tol = 1e-8 * n
    beta = np.zeros(p)
    # eta, ll and (at the top of each step) prob always belong to beta: an
    # accepted candidate hands its eta and ll on, so x @ beta is evaluated
    # once per candidate.
    eta = xv @ beta
    ll = _log_likelihood(yv, eta)
    ll_path = [ll]
    converged = False
    iterations = 0

    for _ in range(_MAX_ITER):
        prob = _clamped_logistic(eta)
        grad = xv.T @ (yv - prob)
        if np.abs(grad).max() <= grad_tol:
            converged = True
            break
        iterations += 1
        delta = _solve_spd(_weighted_gram(xv, prob), grad)

        step = 1.0
        accepted = False
        for _ in range(40):
            cand = beta + step * delta
            cand_eta = xv @ cand
            ll_new = _log_likelihood(yv, cand_eta)
            if ll_new >= ll:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break  # beta is unchanged, so prob is still its probabilities
        beta, eta, ll = cand, cand_eta, ll_new
        ll_path.append(ll)
    else:
        prob = _clamped_logistic(eta)  # the cap was reached after an accepted step

    info = _weighted_gram(xv, prob)
    return FittedGlm(
        coef=beta,
        converged=converged,
        iterations=iterations,
        fisher_info=0.5 * (info + info.T),
        log_likelihood=ll,
        names=x.names,
        ll_path=tuple(ll_path),
    )


def predict_prob(model: FittedGlm, x: DesignMatrix) -> np.ndarray:
    """Fitted probabilities logistic(x @ coef), clamped to [1e-10, 1 - 1e-10]."""
    if x.ncol != model.coef.shape[0]:
        raise ValueError(
            f"design has {x.ncol} columns but the model has {model.coef.shape[0]} coefficients"
        )
    return _clamped_logistic(x.values @ model.coef)
