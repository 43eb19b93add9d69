"""Model adapters that turn raw feature rows into information atoms.

Logistic regression contributes rank-one atoms sqrt(p (1 - p)) z; the
cumulative-link (proportional odds) model contributes full matrix atoms
sum_j (1 / pi_j) (d pi_j) (d pi_j)^T over its J categories.  A generic
adapter accepts precomputed symmetric PSD matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import AtomSet
from .errors import DegenerateCategory, DimensionMismatch, ZeroVariance

# category probabilities at or below this underflow the 1/pi weight
PI_FLOOR = 1e-12


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp(-|t|) <= 1 never overflows, and is exp(-t) or exp(t) exactly
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _finite(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} has a non-finite entry: {values.tolist()}")
    return values


@dataclass(frozen=True)
class LogisticModelSpec:
    """Working coefficients for binary logistic information atoms."""

    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "beta", _finite("beta", self.beta))


@dataclass(frozen=True)
class CumulativeLinkSpec:
    """Working parameters of a proportional-odds (cumulative logit) model.

    beta are the d regression coefficients and theta_cuts the J - 1 strictly
    increasing cutpoints; P(Y <= j | z) = sigmoid(theta_j - z . beta).  The
    joint parameter order is (beta_1..beta_d, theta_1..theta_{J-1}).
    """

    beta: np.ndarray
    theta_cuts: np.ndarray

    def __post_init__(self):
        beta = _finite("beta", self.beta)
        cuts = _finite("theta_cuts", self.theta_cuts)
        if cuts.shape[0] < 1:
            raise ValueError("need at least one cutpoint (J >= 2)")
        if np.any(np.diff(cuts) <= 0):
            raise ValueError("cutpoints must be strictly increasing")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta_cuts", cuts)

    @property
    def n_categories(self) -> int:
        return self.theta_cuts.shape[0] + 1

    @property
    def k(self) -> int:
        return self.beta.shape[0] + self.theta_cuts.shape[0]

    @property
    def beta_selector(self) -> np.ndarray:
        """G = [I_d 0]: the transform of interest that keeps the regression
        coefficients and drops the cutpoints."""
        return np.eye(self.beta.shape[0], self.k)


def logistic_atoms(Z, spec: LogisticModelSpec) -> AtomSet:
    """Rank-one logistic information atoms sqrt(p_i (1 - p_i)) z_i."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    if Z.shape[1] != spec.beta.shape[0]:
        raise DimensionMismatch(
            f"{Z.shape[1]} feature columns for {spec.beta.shape[0]} coefficients")
    pr = _sigmoid(Z @ spec.beta)
    scale = np.sqrt(pr * (1.0 - pr))
    return AtomSet.from_vectors(scale[:, None] * Z)


def cumlink_parts(Z, spec: CumulativeLinkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Category probabilities and their parameter gradients per row.

    Returns (pi, dpi) with shapes (N, J) and (N, J, d + J - 1); dpi[i, j] is
    the gradient of pi_{j+1}(z_i) in the (beta, theta) parameter order.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    d = spec.beta.shape[0]
    if Z.shape[1] != d:
        raise DimensionMismatch(f"{Z.shape[1]} feature columns for {d} coefficients")
    J = spec.n_categories
    N = Z.shape[0]
    cdf = _sigmoid(spec.theta_cuts[None, :] - (Z @ spec.beta)[:, None])
    gamma = np.hstack([np.zeros((N, 1)), cdf, np.ones((N, 1))])
    pi = np.diff(gamma, axis=1)
    f = np.hstack([np.zeros((N, 1)), cdf * (1.0 - cdf), np.zeros((N, 1))])

    k = d + J - 1
    dpi = np.zeros((N, J, k))
    diff_f = f[:, 1:] - f[:, :-1]
    dpi[:, :, :d] = -diff_f[:, :, None] * Z[:, None, :]
    # cutpoint c moves pi_c up and pi_(c+1) down, by f[:, c]
    cuts = np.arange(J - 1)
    dpi[:, cuts, d + cuts] = f[:, 1:J]
    dpi[:, cuts + 1, d + cuts] -= f[:, 1:J]
    return pi, dpi


def cumlink_atoms(Z, spec: CumulativeLinkSpec) -> AtomSet:
    """Full-rank information atoms of the proportional-odds model."""
    pi, dpi = cumlink_parts(Z, spec)
    if np.any(pi <= PI_FLOOR):
        i, j = np.argwhere(pi <= PI_FLOOR)[0]
        raise DegenerateCategory(
            f"category {j + 1} has probability {pi[i, j]:.3e} at row {i}")
    mats = np.einsum("nj,nja,njb->nab", 1.0 / pi, dpi, dpi)
    return AtomSet.from_matrices(mats, validate=False)


@dataclass(frozen=True)
class StandardizeResult:
    Z: np.ndarray
    means: np.ndarray
    sds: np.ndarray


def standardize_features(Z, intercept_cols=()) -> StandardizeResult:
    """Center and scale columns by their population standard deviation.

    Columns listed in intercept_cols are passed through unchanged (recorded
    with mean 0 and sd 1).  A constant non-intercept column raises
    ZeroVariance.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    means = Z.mean(axis=0)
    sds = Z.std(axis=0)
    keep = np.zeros(Z.shape[1], dtype=bool)
    for c in intercept_cols:
        keep[int(c)] = True
    means[keep] = 0.0
    sds[keep] = 1.0
    bad = ~keep & (sds <= 1e-12 * np.maximum(1.0, np.abs(means)))
    if np.any(bad):
        raise ZeroVariance(f"column {int(np.flatnonzero(bad)[0])} is constant")
    return StandardizeResult((Z - means) / sds, means, sds)
