"""Maximum-likelihood fitting of the working models.

Newton-type iterations with the expected information as the curvature
matrix (for logistic regression this coincides with the observed Hessian).
Convergence means the max-norm of the score vector falls below tol;
saturation, rank-deficient information, or iteration exhaustion raise
FitDiverged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitDiverged
from .models import CumulativeLinkSpec, _sigmoid, cumlink_parts
from .solvers import _sorted_unique

_COND_RTOL = 1e-12
_PARAM_CAP = 1e8


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


def _solve_scoring(info: np.ndarray, grad: np.ndarray) -> np.ndarray:
    lam = np.linalg.eigvalsh(info)
    if lam[-1] <= 0 or lam[0] < _COND_RTOL * lam[-1]:
        raise FitDiverged(
            f"information matrix is numerically singular (eig range "
            f"[{lam[0]:.3e}, {lam[-1]:.3e}]); data may be separable or collinear")
    return np.linalg.solve(info, grad)


def fit_logistic(Z, y, tol: float = 1e-8, max_iter: int = 100) -> LogisticFit:
    """Newton fit of binary logistic regression on the given design matrix."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    if y.shape[0] != Z.shape[0]:
        raise FitDiverged("response length does not match the design matrix")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise FitDiverged("logistic responses must be coded 0/1")
    if y.size == 0 or y.min() == y.max():
        raise FitDiverged("response is constant; no logistic fit exists")

    beta = np.zeros(Z.shape[1])

    def loglik(b: np.ndarray) -> float:
        t = Z @ b
        # log(1 + e^t) computed stably on both tails
        return float(y @ t - np.sum(np.logaddexp(0.0, t)))

    ll = loglik(beta)
    for it in range(1, max_iter + 1):
        pr = _sigmoid(Z @ beta)
        grad = Z.T @ (y - pr)
        if np.max(np.abs(grad)) <= tol:
            # a gradient this small with every probability saturated at its
            # response means separation, not a finite maximum
            if np.max(np.abs(y - pr)) < 1e-6:
                raise FitDiverged("fitted probabilities match the responses exactly; "
                                  "data appear separated")
            return LogisticFit(beta, ll, it - 1)
        wz = pr * (1.0 - pr)
        info = (Z * wz[:, None]).T @ Z
        step = _solve_scoring(info, grad)
        scale = 1.0
        for _ in range(40):
            cand = beta + scale * step
            ll_cand = loglik(cand)
            if np.isfinite(ll_cand) and ll_cand >= ll - 1e-10:
                break
            scale *= 0.5
        else:
            raise FitDiverged("logistic step halving failed to improve the likelihood")
        beta = beta + scale * step
        ll = loglik(beta)
        if not np.all(np.isfinite(beta)) or np.max(np.abs(beta)) > _PARAM_CAP:
            raise FitDiverged("logistic coefficients diverged")
    raise FitDiverged(f"no convergence in {max_iter} Newton iterations")


def fit_cumlink(Z, y, tol: float = 1e-8, max_iter: int = 100) -> CumlinkFit:
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
    d = Z.shape[1]
    N = Z.shape[0]

    cum = np.cumsum(np.bincount(y_idx, minlength=J))[:-1] / N
    cum = np.clip(cum, 1e-6, 1.0 - 1e-6)
    theta = np.log(cum / (1.0 - cum))
    theta = np.maximum.accumulate(theta + 1e-9 * np.arange(J - 1))
    beta = np.zeros(d)

    rows = np.arange(N)

    def parts(b: np.ndarray, th: np.ndarray):
        return cumlink_parts(Z, CumulativeLinkSpec(b, th))

    def loglik_from(pi: np.ndarray) -> float:
        own = pi[rows, y_idx]
        if np.any(own <= 0):
            return -np.inf
        return float(np.sum(np.log(own)))

    pi, dpi = parts(beta, theta)
    ll = loglik_from(pi)
    if not np.isfinite(ll):
        raise FitDiverged("initial cutpoints give zero-probability categories")

    for it in range(1, max_iter + 1):
        own = pi[rows, y_idx]
        grad = np.sum(dpi[rows, y_idx] / own[:, None], axis=0)
        if np.max(np.abs(grad)) <= tol:
            if np.min(own) > 1.0 - 1e-6:
                raise FitDiverged("fitted probabilities match the responses exactly; "
                                  "data appear separated")
            return CumlinkFit(beta, theta, cats, ll, it - 1)
        safe_pi = np.maximum(pi, 1e-300)
        info = np.einsum("nj,nja,njb->ab", 1.0 / safe_pi, dpi, dpi)
        step = _solve_scoring(info, grad)
        scale = 1.0
        for _ in range(40):
            cand = np.concatenate([beta, theta]) + scale * step
            b_c, th_c = cand[:d], cand[d:]
            if np.all(np.diff(th_c) > 0):
                pi_c, dpi_c = parts(b_c, th_c)
                ll_c = loglik_from(pi_c)
                if np.isfinite(ll_c) and ll_c >= ll - 1e-10:
                    beta, theta, pi, dpi, ll = b_c, th_c, pi_c, dpi_c, ll_c
                    break
            scale *= 0.5
        else:
            raise FitDiverged("cumulative-link step halving failed to improve the likelihood")
        if np.max(np.abs(np.concatenate([beta, theta]))) > _PARAM_CAP:
            raise FitDiverged("cumulative-link parameters diverged")
    raise FitDiverged(f"no convergence in {max_iter} scoring iterations")
