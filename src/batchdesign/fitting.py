"""Maximum-likelihood fitting of the working models.

Both models run one Fisher-scoring loop: Newton-type steps with the expected
information as the curvature matrix (for logistic regression this coincides
with the observed Hessian), halved until the likelihood does not fall.
Convergence means the max-norm of the score vector falls below FIT_TOL;
saturation, rank-deficient information, divergence or FIT_MAX_ITER
iterations without convergence raise FitDiverged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .criteria import is_singular
from .errors import FitDiverged
from .measures import _sorted_unique
from .models import CumulativeLinkSpec, _sigmoid, cumlink_parts

FIT_TOL = 1e-8        # max-norm of the score at convergence
FIT_MAX_ITER = 100    # scoring iterations before FitDiverged
_PARAM_CAP = 1e8      # any parameter beyond this counts as divergence


@dataclass
class LogisticFit:
    beta: np.ndarray
    loglik: float
    iterations: int


@dataclass
class CumlinkFit:
    beta: np.ndarray
    theta_cuts: np.ndarray
    categories: np.ndarray
    loglik: float
    iterations: int

    @property
    def spec(self) -> CumulativeLinkSpec:
        return CumulativeLinkSpec(self.beta, self.theta_cuts)


def _fisher_scoring(theta0: np.ndarray, evaluate, name: str):
    """Fisher scoring from theta0 with step halving; returns (theta, loglik,
    iterations).  evaluate(theta) gives the log-likelihood, the score, the
    expected information and each row's probability of its observed
    response; or None where some response has probability zero or theta
    leaves the parameter space."""
    theta, current = theta0, evaluate(theta0)
    if current is None:
        raise FitDiverged(f"initial {name} parameters give zero-probability responses")
    for it in range(FIT_MAX_ITER):
        ll, grad, info, own = current
        if np.max(np.abs(grad)) <= FIT_TOL:
            # a score this small with every probability saturated at its
            # response means separation, not a finite maximum
            if np.min(own) > 1.0 - 1e-6:
                raise FitDiverged("fitted probabilities match the responses exactly; "
                                  "data appear separated")
            return theta, ll, it
        lam = np.linalg.eigvalsh(info)
        if is_singular(lam):
            raise FitDiverged(
                f"information matrix is numerically singular (eig range "
                f"[{lam[0]:.3e}, {lam[-1]:.3e}]); data may be separable or collinear")
        step = np.linalg.solve(info, grad)
        scale = 1.0
        for _ in range(40):
            trial = theta + scale * step
            current = evaluate(trial)
            # a NaN log-likelihood fails the comparison too
            if current is not None and current[0] >= ll - 1e-10:
                break
            scale *= 0.5
        else:
            raise FitDiverged(f"{name} step halving failed to improve the likelihood")
        theta = trial
        if not np.all(np.isfinite(theta)) or np.max(np.abs(theta)) > _PARAM_CAP:
            raise FitDiverged(f"{name} parameters diverged")
    raise FitDiverged(f"no convergence in {FIT_MAX_ITER} {name} scoring iterations")


def fit_logistic(Z, y) -> LogisticFit:
    """Fisher-scoring (here Newton) fit of binary logistic regression."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != Z.shape[0]:
        raise FitDiverged("response length does not match the design matrix")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise FitDiverged("logistic responses must be coded 0/1")
    if y.size == 0 or y.min() == y.max():
        raise FitDiverged("response is constant; no logistic fit exists")

    def evaluate(beta: np.ndarray):
        t = Z @ beta
        pr = _sigmoid(t)
        resid = y - pr
        # log(1 + e^t) computed stably on both tails
        ll = float(y @ t - np.sum(np.logaddexp(0.0, t)))
        info = (Z * (pr * (1.0 - pr))[:, None]).T @ Z
        return ll, Z.T @ resid, info, 1.0 - np.abs(resid)

    beta, ll, it = _fisher_scoring(np.zeros(Z.shape[1]), evaluate, "logistic")
    return LogisticFit(beta, ll, it)


def fit_cumlink(Z, y) -> CumlinkFit:
    """Fisher-scoring fit of the proportional-odds model.

    Categories are the sorted distinct response values; at least two must be
    observed.  Cutpoints keep their strict ordering through step halving.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y).ravel()
    if y.shape[0] != Z.shape[0]:
        raise FitDiverged("response length does not match the design matrix")
    cats = _sorted_unique(y)
    J = cats.shape[0]
    if J < 2:
        raise FitDiverged("cumulative-link fit needs at least two observed categories")
    y_idx = np.searchsorted(cats, y)
    N, d = Z.shape

    cum = np.cumsum(np.bincount(y_idx, minlength=J))[:-1] / N
    cum = np.clip(cum, 1e-6, 1.0 - 1e-6)
    theta = np.log(cum / (1.0 - cum))
    theta = np.maximum.accumulate(theta + 1e-9 * np.arange(J - 1))
    rows = np.arange(N)

    def evaluate(params: np.ndarray):
        if not np.all(np.diff(params[d:]) > 0):
            return None
        pi, dpi = cumlink_parts(Z, CumulativeLinkSpec(params[:d], params[d:]))
        own = pi[rows, y_idx]
        if np.any(own <= 0):
            return None
        grad = np.sum(dpi[rows, y_idx] / own[:, None], axis=0)
        info = np.einsum("nj,nja,njb->ab", 1.0 / np.maximum(pi, 1e-300), dpi, dpi)
        return float(np.sum(np.log(own))), grad, info, own

    params, ll, it = _fisher_scoring(np.concatenate([np.zeros(d), theta]), evaluate,
                                     "cumulative-link")
    return CumlinkFit(params[:d], params[d:], cats, ll, it)
