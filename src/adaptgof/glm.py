"""Logistic regression fitting for the model under assessment.

Maximum likelihood via iteratively reweighted least squares (Newton steps with
step-halving), plus predictions; the fit carries its observed Fisher
information in ``FittedGlm.fisher_info``. The fit is deliberately plain: no
penalty, logit link only. Separation is not detected: once the fitted
probabilities saturate at the clamp the gradient test passes, so a separated
fit usually ends ``converged=True`` with extreme coefficients (40 rows with
y = (x >= 2) stop after 19 iterations at about (-486, 243), with 38 of the
40 probabilities at the clamp). Flagging such fits is ROADMAP item 1.

One logistic-plus-clamp, ``_logistic_from``, turns linear predictors into
clamped probabilities for the fit, for ``predict_prob`` and for the
statistic's gradient in ``gof``. The fit scores each candidate with
``_prob_and_loglik``: one exponential exp(-|eta|) gives both its
probabilities and its log-likelihood, a sum of one-signed per-row terms that
is accurate to a few ulps of itself. A candidate is kept when its
log-likelihood falls by no more than that rounding (``_LL_RTOL``); the fit
stops, unconverged, when no halving is kept or the candidate equals the
current coefficients. The accepted candidate's probabilities and
log-likelihood carry into the next step, and the final probabilities are
returned as ``FittedGlm.fitted_prob``.

The fit works on the transposed design, a row-contiguous p x n array, so the
candidate predictors, the gradient and X'WX are products over rows of length
n. ``formula.design_matrix`` builds its values column-major, which makes that
transpose a view; any other design is copied once per fit. Each step solves
its normal equations by plain Cholesky factorisation; a numerically singular
system raises ``RankDeficiencyError``.
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
# Log-likelihood fall a Newton step may show by rounding alone (see _halving_step).
_LL_RTOL = 16 * np.finfo(float).eps
_PIVOT_RTOL = 1e-12
# Rows per block of X'WX (see _weighted_gram); 64 KB of scratch at p = 8.
_GRAM_BLOCK = 1024


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
    ``fitted_prob`` holds the clamped probabilities of the training rows at
    ``coef``.
    """

    coef: np.ndarray
    converged: bool
    iterations: int
    fisher_info: np.ndarray
    log_likelihood: float
    names: tuple
    ll_path: tuple
    fitted_prob: np.ndarray


def _logistic_from(eta: np.ndarray, e: np.ndarray) -> np.ndarray:
    """logistic(eta) clamped to [PROB_CLAMP, 1 - PROB_CLAMP], given e = exp(-|eta|).

    Branch-free: the logistic is 1 / (1 + e) where eta >= 0 and e / (1 + e)
    elsewhere, so no exponential overflows. The package's one
    logistic-plus-clamp.
    """
    prob = np.where(eta >= 0, 1.0, e)
    prob /= 1.0 + e
    np.maximum(prob, PROB_CLAMP, out=prob)
    return np.minimum(prob, 1.0 - PROB_CLAMP, out=prob)


def _clamped_logistic(eta: np.ndarray) -> np.ndarray:
    """Clamped probabilities at the linear predictors ``eta``."""
    return _logistic_from(eta, np.exp(-np.abs(eta)))


def _prob_and_loglik(eta: np.ndarray, flip: np.ndarray) -> tuple:
    """Clamped probabilities and the log-likelihood at ``eta`` from one exponential.

    ``flip`` is 1 - 2y. Row i contributes -softplus(flip_i * eta_i), and
    softplus(z) = max(z, 0) + log1p(exp(-|z|)) shares e = exp(-|eta|) with
    the probabilities. The max term is exact, so every row's term carries one
    rounding and all terms have one sign: the sum is accurate to a few ulps of
    the log-likelihood itself, which is what the step test relies on.
    """
    e = np.exp(-np.abs(eta))
    prob = _logistic_from(eta, e)
    terms = flip * eta
    np.maximum(terms, 0.0, out=terms)
    terms += np.log1p(e, out=e)
    return prob, -float(terms.sum())


def _weighted_gram(xt: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """X' W X with W_ii = p_i (1 - p_i), from the transposed (p x n) design.

    Summed over blocks of ``_GRAM_BLOCK`` rows through one small scratch
    array. A whole p x n scratch array (1.15 MB at 18,000 x 8) is fresh memory
    in every call, which malloc hands back to the system between splits: the
    100 fits of a 20k-row mta-prob test paid about 53k page faults for it.
    """
    w = prob * (1.0 - prob)
    p, n = xt.shape
    work = np.empty((p, min(n, _GRAM_BLOCK)))
    gram = np.zeros((p, p))
    for lo in range(0, n, _GRAM_BLOCK):
        block = xt[:, lo:lo + _GRAM_BLOCK]
        scaled = np.multiply(block, w[lo:lo + _GRAM_BLOCK], out=work[:, :block.shape[1]])
        gram += scaled @ block.T
    return gram


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


def _halving_step(xt: np.ndarray, flip: np.ndarray, beta: np.ndarray, ll: float,
                  delta: np.ndarray) -> tuple | None:
    """The first of beta + delta, beta + delta / 2, ... (40 tries) that keeps ``ll``.

    A candidate keeps the log-likelihood when it falls by at most
    ``_LL_RTOL * |ll|``, the rounding noise of the summed log-likelihood: near
    the optimum the true gain of a full Newton step is below that noise, and a
    strict test would halve such a step away. Returns the candidate with its
    probabilities and log-likelihood, or None when no try is kept or the
    candidate no longer differs from ``beta``.
    """
    floor = ll - _LL_RTOL * abs(ll)
    step = 1.0
    for _ in range(40):
        cand = beta + step * delta
        if np.array_equal(cand, beta):
            return None
        prob, cand_ll = _prob_and_loglik(cand @ xt, flip)
        if cand_ll >= floor:
            return cand, prob, cand_ll
        step *= 0.5
    return None


def fit_logistic(x: DesignMatrix, y) -> FittedGlm:
    """Fit a logistic regression by IRLS.

    Iterates Newton steps with step-halving until the gradient max-norm drops
    to 1e-8 * n. Running into the cap of 100 iterations, or a step that no
    halving can keep or that no longer moves the coefficients, returns
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
    xt = np.asfortranarray(xv).T  # p x n, row-contiguous; a view when xv is column-major
    flip = 1.0 - 2.0 * yv
    beta = np.zeros(p)
    # prob and ll always belong to beta: an accepted candidate hands its own
    # on, so each candidate costs one x @ beta and one exponential.
    prob, ll = _prob_and_loglik(beta @ xt, flip)
    ll_path = [ll]
    converged = False
    iterations = 0

    for _ in range(_MAX_ITER):
        grad = xt @ (yv - prob)
        if np.abs(grad).max() <= grad_tol:
            converged = True
            break
        iterations += 1
        delta = _solve_spd(_weighted_gram(xt, prob), grad)
        accepted = _halving_step(xt, flip, beta, ll, delta)
        if accepted is None:
            break  # beta is unchanged, so prob is still its probabilities
        beta, prob, ll = accepted
        ll_path.append(ll)

    info = _weighted_gram(xt, prob)
    return FittedGlm(
        coef=beta,
        converged=converged,
        iterations=iterations,
        fisher_info=0.5 * (info + info.T),
        log_likelihood=ll,
        names=x.names,
        ll_path=tuple(ll_path),
        fitted_prob=prob,
    )


def predict_prob(model: FittedGlm, x: DesignMatrix) -> np.ndarray:
    """Fitted probabilities logistic(x @ coef), clamped to [1e-10, 1 - 1e-10]."""
    if x.ncol != model.coef.shape[0]:
        raise ValueError(
            f"design has {x.ncol} columns but the model has {model.coef.shape[0]} coefficients"
        )
    return _clamped_logistic(x.values @ model.coef)
