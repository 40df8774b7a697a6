"""Logistic regression fitting for the model under assessment.

Maximum likelihood via iteratively reweighted least squares (Newton steps with
step-halving), plus predictions; the fit carries its observed Fisher
information in ``FittedGlm.fisher_info``. The fit is deliberately plain: no
penalty, logit link only. Separation is not detected: once the fitted
probabilities saturate at the clamp the gradient test passes, so a separated
fit usually ends ``converged=True`` with extreme coefficients: with x = 0, 1,
2, 3 (ten rows each) and y = (x >= 2) it stops after 18 iterations at about
(-51.97, 34.65), with 20 of the 40 probabilities at the clamp. Flagging such
fits is ROADMAP item 2.

One logistic-plus-clamp, ``_logistic_from``, turns linear predictors into
clamped probabilities for the fit, for the predictions (``predict_prob`` and
``gof``'s stacked prediction of a stack's test rows, both through
``_linear``) and for the statistic's gradient in ``gof``. The fit scores each candidate with
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

There is one IRLS loop, ``_fit_stack``, written over a leading split axis: it
fits s splits of equal shape (s x p x n) in lockstep, so a test's split loop
(``gof.multi_split_test``) pays the per-call overhead of a step once per stack
rather than once per split. ``fit_logistic`` is its one-split case. Every
product is one per split in the stack's shape and every stop is per split, so
a split's fit does not depend on what else is in its stack. A split leaves the
stack when it converges, stops or fails, and only then are the remaining
splits' rows moved forward, in place; a one-split stack copies no rows while
it iterates. The stack's full Newton steps are scored together; the rare split
whose full step is not kept halves on its own.
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
    the log-likelihood itself, which is what the step test relies on. Over a
    stack of splits (``eta`` of shape s x n) it returns one log-likelihood per
    split.
    """
    e = np.exp(-np.abs(eta))
    prob = _logistic_from(eta, e)
    terms = flip * eta
    np.maximum(terms, 0.0, out=terms)
    terms += np.log1p(e, out=e)
    return prob, -terms.sum(axis=-1)


def _linear(beta: np.ndarray, xt: np.ndarray) -> np.ndarray:
    """Each split's linear predictors beta_j @ xt_j: (s, p) x (s, p, n) -> (s, n)."""
    return (beta[:, None, :] @ xt)[:, 0, :]


def _weighted_gram(xt: np.ndarray, prob: np.ndarray) -> np.ndarray:
    """Each split's X' W X with W_ii = p_i (1 - p_i), from its transposed (p x n) design.

    ``xt`` stacks the splits' designs (s x p x n) and ``prob`` their
    probabilities (s x n). Summed over blocks of ``_GRAM_BLOCK`` rows through
    one small scratch array. A whole p x n scratch array (1.15 MB at
    18,000 x 8) is fresh memory in every call, which malloc hands back to the
    system between splits: the 100 fits of a 20k-row mta-prob test paid about
    53k page faults for it.
    """
    w = prob * (1.0 - prob)
    s, p, n = xt.shape
    work = np.empty((s, p, min(n, _GRAM_BLOCK)))
    gram = np.zeros((s, p, p))
    for lo in range(0, n, _GRAM_BLOCK):
        block = xt[:, :, lo:lo + _GRAM_BLOCK]
        scaled = np.multiply(block, w[:, None, lo:lo + _GRAM_BLOCK],
                             out=work[:, :, :block.shape[2]])
        gram += scaled @ block.transpose(0, 2, 1)
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
    """Solve a symmetric positive-definite system, or a stack of them, by Cholesky.

    ``a`` is p x p or s x p x p, ``b`` p or s x p. The stack is factorised in
    one call; each factor is applied by its own pair of triangular solves, the
    arithmetic of a lone system. Raises RankDeficiencyError when any
    factorisation fails or the ratio of its smallest to its largest squared
    pivot is below ``_PIVOT_RTOL``.
    """
    try:
        chol = np.linalg.cholesky(a)
        d = np.diagonal(chol, axis1=-2, axis2=-1)
        if (d.min(axis=-1) ** 2 >= _PIVOT_RTOL * d.max(axis=-1) ** 2).all():
            p = b.shape[-1]
            pairs = zip(chol.reshape(-1, p, p), b.reshape(-1, p))
            return np.array([_triangular_solves(c.T, r) for c, r in pairs]).reshape(b.shape)
    except np.linalg.LinAlgError:
        pass
    raise RankDeficiencyError(
        "weighted normal equations are numerically singular "
        f"(Cholesky pivot ratio below {_PIVOT_RTOL:g})"
    )


def _halving_step(xt: np.ndarray, flip: np.ndarray, beta: np.ndarray, prob: np.ndarray,
                  ll: np.ndarray, delta: np.ndarray) -> tuple:
    """Per split, the first of beta + delta, beta + delta / 2, ... (40 tries) that keeps ``ll``.

    A candidate keeps the log-likelihood when it falls by at most
    ``_LL_RTOL * |ll|``, the rounding noise of the summed log-likelihood: near
    the optimum the true gain of a full Newton step is below that noise, and a
    strict test would halve such a step away. A split stops trying when a try
    is kept, or when its candidate no longer differs from its ``beta``. The
    full steps of the whole stack are scored together; a split whose full step
    is not kept, which is rare, then halves alone, through products over its
    own block ``xt[j:j + 1]``: the products its one-split stack makes.

    Returns ``(beta, prob, ll, moved)``: each split's kept candidate with its
    probabilities and log-likelihood, or its inputs where ``moved`` is False.
    The inputs are never written to.
    """
    floor = ll - _LL_RTOL * np.abs(ll)
    cand = beta + delta
    # eta is held until the return: freed as a temporary straight after the
    # scoring, it let the minor page faults of a 100-split test on 20,000 rows
    # jump from about 4k to between 5k and 58k, from run to run
    eta = _linear(cand, xt)
    cand_prob, cand_ll = _prob_and_loglik(eta, flip)
    moved = (cand_ll >= floor) & (cand != beta).any(axis=1)
    for j in np.flatnonzero(~moved).tolist():
        cand[j], cand_prob[j], cand_ll[j] = beta[j], prob[j], ll[j]
        step = 0.5
        for _ in range(39):
            half = beta[j:j + 1] + step * delta[j:j + 1]
            if (half == beta[j]).all():
                break
            half_prob, half_ll = _prob_and_loglik(_linear(half, xt[j:j + 1]), flip[j:j + 1])
            if half_ll[0] >= floor[j]:
                cand[j], cand_prob[j], cand_ll[j], moved[j] = half[0], half_prob[0], half_ll[0], True
                break
            step *= 0.5
    return cand, cand_prob, cand_ll, moved


def _fit_stack(xt: np.ndarray, y, names: tuple) -> list:
    """Fit one logistic regression per split of a stack by IRLS, in lockstep.

    ``xt`` holds the splits' transposed designs as one C-contiguous float
    stack (s x p x n, so that each p x n block is row-contiguous: a product
    over another layout can round differently) and ``y`` their responses
    (s x n) of 0s and 1s, with n >= p: the callers check those once, for
    every split. All splits take their Newton steps together, each
    with its own step-halving, gradient stop, no-move stop and iteration
    count. A split leaves the stack through ``leave`` whatever its exit: one
    response class, convergence, a singular system, no kept step or the
    iteration cap. Only then are the stack's rows gathered again, in place:
    each remaining split's block moves forward in ``xt``, so the fit may
    overwrite ``xt``; it never does for a one-split stack, whose split stays
    or leaves. Every product is one per split of the stack's shape, so a
    split's fit is bit for bit the same whatever else is in its stack.

    Returns one entry per split: its ``FittedGlm``, or the split's own
    failure, ``SingleClassError`` or ``RankDeficiencyError``, with the
    message ``fit_logistic`` raises for it.
    """
    s, p, n = xt.shape
    results = [None] * s
    split = np.arange(s)
    grad_tol = 1e-8 * n
    flip = 1.0 - 2.0 * y
    beta = np.zeros((s, p))
    # prob and ll always belong to beta: an accepted candidate hands its own
    # on, so each candidate costs one x @ beta and one exponential.
    prob, ll = _prob_and_loglik(_linear(beta, xt), flip)
    ll_path = [[v] for v in ll.tolist()]
    iterations = 0

    def leave(gone, info=None, converged=False):
        """Take the splits marked ``gone`` out of the stack, recording their fits if
        ``info``, and move the blocks of the splits that stay forward in ``xt``."""
        nonlocal split, xt, y, flip, beta, prob, ll
        if info is not None:
            for j in np.flatnonzero(gone):
                results[split[j]] = FittedGlm(
                    coef=beta[j],
                    converged=converged,
                    iterations=iterations,
                    fisher_info=0.5 * (info[j] + info[j].T),
                    log_likelihood=float(ll[j]),
                    names=names,
                    ll_path=tuple(ll_path[split[j]]),
                    # a copy: a view would keep the stack's whole array alive
                    fitted_prob=prob[j].copy(),
                )
        keep = ~gone
        for to, at in enumerate(np.flatnonzero(keep).tolist()):
            if to != at:
                xt[to] = xt[at]
        split, y, flip, beta, prob, ll = (arr[keep] for arr in (split, y, flip, beta, prob, ll))
        xt = xt[:split.size]
        return keep

    single = y.min(axis=1) == y.max(axis=1)
    if single.any():
        for j in np.flatnonzero(single).tolist():
            results[j] = SingleClassError("both response classes must be present")
        leave(single)
    for _ in range(_MAX_ITER):
        if split.size == 0:
            break
        grad = (xt @ (y - prob)[:, :, None])[:, :, 0]
        # also the information of a split that stops in this pass, whose prob
        # still belongs to its beta
        info = _weighted_gram(xt, prob)
        stay = np.abs(grad).max(axis=1) > grad_tol
        if not stay.all():
            keep = leave(~stay, info, converged=True)
            if split.size == 0:
                break
            grad, info = grad[keep], info[keep]
        iterations += 1
        try:
            delta = _solve_spd(info, grad)
        except RankDeficiencyError:
            # one system at a time, to find the singular ones
            delta = np.zeros_like(grad)
            failed = np.zeros(split.size, dtype=bool)
            for j in range(split.size):
                try:
                    delta[j] = _solve_spd(info[j], grad[j])
                except RankDeficiencyError as exc:
                    results[split[j]], failed[j] = exc, True
            keep = leave(failed)
            if split.size == 0:
                break
            delta, info = delta[keep], info[keep]
        beta, prob, ll, moved = _halving_step(xt, flip, beta, prob, ll, delta)
        if not moved.all():
            leave(~moved, info)  # no try kept: beta, prob and ll are unchanged
        for j, v in zip(split.tolist(), ll.tolist()):
            ll_path[j].append(v)
    else:
        leave(np.ones(split.size, dtype=bool), _weighted_gram(xt, prob))
    return results


def fit_logistic(x: DesignMatrix, y) -> FittedGlm:
    """Fit a logistic regression by IRLS: the one-split case of ``_fit_stack``.

    Iterates Newton steps with step-halving until the gradient max-norm drops
    to 1e-8 * n. Running into the cap of 100 iterations, or a step that no
    halving can keep or that no longer moves the coefficients, returns
    ``converged=False`` rather than raising.

    Raises:
        ValueError: if the response length differs from the design's rows, or
            an entry is not 0 or 1.
        SingleClassError: if the response has only zeros or only ones.
        ValueError: if the design has fewer rows than columns.
        RankDeficiencyError: if the weighted normal equations are singular.
    """
    yv = np.asarray(y, dtype=float).ravel()
    n, p = x.values.shape
    if yv.size != n:
        raise ValueError(f"response length {yv.size} does not match {n} design rows")
    if not ((yv == 0.0) | (yv == 1.0)).all():
        raise ValueError("response entries must be 0 or 1")
    if n < p and yv.min() < yv.max():  # a single class is the stack's failure, and comes first
        raise ValueError(f"need at least as many rows ({n}) as columns ({p})")
    # p x n, row-contiguous; a view when x.values is column-major, which the
    # one-split stack never writes to
    xt = np.asfortranarray(x.values).T
    [fit] = _fit_stack(xt[None], yv[None], x.names)
    if isinstance(fit, Exception):
        raise fit
    return fit


def predict_prob(model: FittedGlm, x: DesignMatrix) -> np.ndarray:
    """Fitted probabilities logistic(x @ coef), clamped to [1e-10, 1 - 1e-10].

    The one-split case of the stacked prediction ``gof`` makes for a stack of
    splits' test rows: ``_linear`` over the transposed design, which is a
    view of a column-major design and a copy of any other.
    """
    if x.ncol != model.coef.shape[0]:
        raise ValueError(
            f"design has {x.ncol} columns but the model has {model.coef.shape[0]} coefficients"
        )
    xt = np.asfortranarray(x.values).T
    return _clamped_logistic(_linear(model.coef[None], xt[None])[0])
