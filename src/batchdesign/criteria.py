"""Criterion evaluation for the Phi_p family.

For a weighting w of the pool, M(w) = sum_i w_i M_i is the normalized
information matrix and Sigma_g(w) = G M(w)^{-1} G^T the covariance of the
transform of interest.  The scalar objective is

    Phi_p(Sigma) = (Tr(Sigma^p) / q)^(1/p)        for p > 0,
    Phi_0(Sigma) = det(Sigma)^(1/q)               (the p -> 0 limit),

which we minimize over weightings.  p = 0 is the determinant criterion,
p = 1 the average-variance criterion.

The generalized leverage of a point is the negated partial derivative of
Phi_p with respect to that point's weight,

    phi_p(x, w) = (Phi_p / Tr(Sigma^p)) * Tr(Sigma^(p-1) G M^-1 M_x M^-1 G^T),

with Tr(Sigma^p) read as q when p = 0.  Weights times leverages sum back to
the criterion value, which anchors the optimality-gap computations here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .atoms import as_atom_set
from .errors import DimensionMismatch, SingularInformation

# eigenvalue floor applied before fractional powers of Sigma
EIG_FLOOR = 1e-14
# relative eigenvalue threshold below which M counts as singular
SINGULAR_RTOL = 1e-12
# step in alpha of the finite-difference curvature along a blend
TAU_STEP = 1e-4


@dataclass(frozen=True)
class CriterionSpec:
    """Criterion exponent p and the Jacobian of the transform of interest.

    G is a q x k matrix with full row rank (None means the identity: all k
    parameters are of interest).  p must be finite and nonnegative.
    """

    p: float
    G: np.ndarray | None = None

    def __post_init__(self):
        p = float(self.p)
        if not np.isfinite(p) or p < 0:
            raise ValueError(f"p must be finite and >= 0, got {self.p}")
        object.__setattr__(self, "p", p)
        if self.G is not None:
            G = np.atleast_2d(np.asarray(self.G, dtype=float))
            s = np.linalg.svd(G, compute_uv=False)
            if s[-1] <= 1e-10 * max(s[0], 1e-300) or G.shape[0] > G.shape[1]:
                raise ValueError("G must have full row rank")
            object.__setattr__(self, "G", G)

    def q_for(self, k: int) -> int:
        return k if self.G is None else self.G.shape[0]


@dataclass(frozen=True)
class InfoState:
    """Cached factorizations for one (atoms, weights, spec) evaluation point."""

    M: np.ndarray
    M_inv: np.ndarray
    Sigma: np.ndarray
    sigma_eigvals: np.ndarray
    sigma_eigvecs: np.ndarray
    phi_value: float
    identity_g: bool = field(default=True, repr=False)


def _phi_from_eigs(lam: np.ndarray, p: float, q: int) -> float:
    if p == 0.0:
        return float(np.exp(np.mean(np.log(lam))))
    if p == 1.0:
        return float(np.sum(lam) / q)
    logs = p * np.log(lam)
    peak = logs.max()
    log_tr = peak + np.log(np.sum(np.exp(logs - peak)))
    return float(np.exp((log_tr - np.log(q)) / p))


def info_state_from_m(M: np.ndarray, spec: CriterionSpec) -> InfoState:
    """Build an InfoState directly from an information matrix."""
    M = 0.5 * (M + M.T)
    lam, V = np.linalg.eigh(M)
    if lam[-1] <= 0 or lam[0] < SINGULAR_RTOL * lam[-1]:
        raise SingularInformation(
            f"information matrix is singular (eig range [{lam[0]:.3e}, {lam[-1]:.3e}])"
        )
    M_inv = (V / lam) @ V.T
    M_inv = 0.5 * (M_inv + M_inv.T)
    if spec.G is None:
        sig_lam = 1.0 / lam[::-1]
        sig_vec = V[:, ::-1]
        Sigma = M_inv
    else:
        if spec.G.shape[1] != M.shape[0]:
            raise DimensionMismatch(
                f"G has {spec.G.shape[1]} columns for a {M.shape[0]}-dim information matrix"
            )
        Sigma = spec.G @ M_inv @ spec.G.T
        Sigma = 0.5 * (Sigma + Sigma.T)
        sig_lam, sig_vec = np.linalg.eigh(Sigma)
    sig_lam = np.maximum(sig_lam, EIG_FLOOR)
    phi = _phi_from_eigs(sig_lam, spec.p, sig_lam.shape[0])
    return InfoState(M, M_inv, Sigma, sig_lam, sig_vec, phi, identity_g=spec.G is None)


def build_info_state(atoms, w, spec: CriterionSpec) -> InfoState:
    """Assemble M(w) from the pool and factorize it.

    Accepts a Measure or a bare weight vector.  Raises SingularInformation
    when the weighted information is rank deficient and DimensionMismatch
    when shapes disagree.
    """
    aset = as_atom_set(atoms)
    weights = np.asarray(getattr(w, "weights", w), dtype=float)
    if weights.shape[0] != len(aset):
        raise DimensionMismatch(f"{weights.shape[0]} weights for {len(aset)} atoms")
    return info_state_from_m(aset.weighted_sum(weights), spec)


def phi_p_scores(atoms, state: InfoState, spec: CriterionSpec) -> np.ndarray:
    """Generalized leverage of every pool point at the weighting behind state.

    phi_p(x, w) = coef * Tr(B M_x) with B = M^-1 G^T Sigma^(p-1) G M^-1; for
    the identity transform the Sigma eigenbasis collapses B to a single
    eigen-rescaling, and for p = 0 it is just M^-1.
    """
    aset = as_atom_set(atoms)
    lam = state.sigma_eigvals
    q = lam.shape[0]
    p = spec.p
    tr_p = float(q) if p == 0.0 else float(np.sum(lam**p))
    coef = state.phi_value / tr_p
    if state.identity_g != (spec.G is None):
        raise DimensionMismatch("the state and spec disagree on G; build the state with this spec")
    if spec.G is None:
        if p == 0.0:
            B = state.M_inv
        else:
            V = state.sigma_eigvecs
            B = (V * lam ** (p + 1.0)) @ V.T
    else:
        V = state.sigma_eigvecs
        W = (V * lam ** (p - 1.0)) @ V.T
        C = state.M_inv @ spec.G.T
        B = C @ W @ C.T
    return coef * aset.quad_forms(0.5 * (B + B.T))


def _tau_blend(M0: np.ndarray, M1: np.ndarray, spec: CriterionSpec, phi0: float) -> float:
    """Second derivative of the criterion along the blend (1 - alpha) M0 + alpha M1.

    Central second difference with step TAU_STEP on alpha -> Phi_p; phi0 is
    Phi_p(M0), which the caller already holds, so only the two probes are
    factorized.  Clamped below at zero.  If a probe is singular the step is
    reduced once by a factor of ten; if that probe is singular too, raises
    SingularInformation.
    """
    def value(alpha: float) -> float:
        return info_state_from_m((1.0 - alpha) * M0 + alpha * M1, spec).phi_value

    last_err = None
    for step in (TAU_STEP, TAU_STEP / 10.0):
        try:
            second = (value(step) - 2.0 * phi0 + value(-step)) / (step * step)
        except SingularInformation as err:
            last_err = err
            continue
        return max(0.0, float(second))
    raise SingularInformation(f"singular probe along the blend segment: {last_err}")
