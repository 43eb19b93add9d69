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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atoms import as_atom_set
from .errors import DimensionMismatch, SingularInformation

# eigenvalue floor applied before fractional powers of Sigma
EIG_FLOOR = 1e-14
# relative eigenvalue threshold below which M counts as singular
SINGULAR_RTOL = 1e-12


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


@dataclass(frozen=True)
class InfoState:
    """Cached factorizations of one evaluation point, and the spec they serve.

    Sigma's factor C = M^-1 G^T V (V its eigenvectors, G = I when spec.G is
    None) and tr = Tr(Sigma^p) (q at p = 0) are computed on first use."""

    M: np.ndarray
    M_inv: np.ndarray
    sigma_eigvals: np.ndarray
    sigma_eigvecs: np.ndarray
    phi_value: float
    spec: CriterionSpec

    @cached_property
    def sigma_factor(self) -> np.ndarray:
        G, V = self.spec.G, self.sigma_eigvecs
        return self.M_inv @ (V if G is None else G.T @ V)

    @cached_property
    def trace_p(self) -> float:
        lam, p = self.sigma_eigvals, self.spec.p
        return float(lam.shape[0]) if p == 0.0 else float(np.sum(lam**p))


def _phi_from_eigs(lam: np.ndarray, p: float, q: int) -> float:
    if p == 0.0:
        return float(np.exp(np.mean(np.log(lam))))
    if p == 1.0:
        return float(np.sum(lam) / q)
    logs = p * np.log(lam)
    peak = logs.max()
    log_tr = peak + np.log(np.sum(np.exp(logs - peak)))
    return float(np.exp((log_tr - np.log(q)) / p))


def is_singular(lam: np.ndarray) -> bool:
    """Whether ascending eigenvalues lam of an information matrix mark it singular."""
    return bool(lam[-1] <= 0 or lam[0] < SINGULAR_RTOL * lam[-1])


def info_state_from_m(M: np.ndarray, spec: CriterionSpec) -> InfoState:
    """Build an InfoState directly from an information matrix."""
    M = 0.5 * (M + M.T)
    lam, V = np.linalg.eigh(M)
    if is_singular(lam):
        raise SingularInformation(
            f"information matrix is singular (eig range [{lam[0]:.3e}, {lam[-1]:.3e}])"
        )
    M_inv = (V / lam) @ V.T
    M_inv = 0.5 * (M_inv + M_inv.T)
    if spec.G is None:
        sig_lam, sig_vec = 1.0 / lam[::-1], V[:, ::-1]
    else:
        if spec.G.shape[1] != M.shape[0]:
            raise DimensionMismatch(
                f"G has {spec.G.shape[1]} columns for a {M.shape[0]}-dim information matrix"
            )
        # Sigma = B B^T for B = G V Lambda^(-1/2): B's SVD gives its eigenpairs
        # without squaring B's condition, as an eigh of the formed Sigma would
        U, s, _ = np.linalg.svd((spec.G @ V) / np.sqrt(lam), full_matrices=False)
        sig_lam, sig_vec = s[::-1] ** 2, U[:, ::-1]
    sig_lam = np.maximum(sig_lam, EIG_FLOOR)
    phi = _phi_from_eigs(sig_lam, spec.p, sig_lam.shape[0])
    return InfoState(M, M_inv, sig_lam, sig_vec, phi, spec)


def build_info_state(atoms, w, spec: CriterionSpec) -> InfoState:
    """Assemble M(w) from the pool and factorize it.

    Accepts a Measure or a bare weight vector.  Raises SingularInformation
    when the weighted information is rank deficient and DimensionMismatch
    when shapes disagree.
    """
    weights = getattr(w, "weights", w)
    return info_state_from_m(as_atom_set(atoms).weighted_sum(weights), spec)


def phi_p_scores(atoms, state: InfoState) -> np.ndarray:
    """Generalized leverage of every pool point at the weighting and criterion of state.

    phi_p(x, w) = Phi_p / tr * Tr(B M_x) with B = M^-1 G^T Sigma^(p-1) G M^-1
    = C diag(lam^(p-1)) C^T, for every p and G.
    """
    S = state.sigma_factor * state.sigma_eigvals ** (0.5 * (state.spec.p - 1.0))
    return state.phi_value / state.trace_p * as_atom_set(atoms).quad_forms(S @ S.T)


def _blend_curvature(state: InfoState, M1: np.ndarray) -> float:
    """Second derivative at alpha = 0 of the criterion along (1 - alpha) M + alpha M1.

    In the Sigma eigenbasis, with C = M^-1 G^T V and D = M1 - M, Sigma moves by
    A = -C^T D C and B = 2 C^T D M^-1 D C.  With Gamma the divided differences
    of x^(p-1) on the eigenvalues (Daleckii-Krein), Tr(Sigma^p) / p (log det at
    p = 0) has derivatives T1 = sum lam^(p-1) A_ii and T2 = sum lam^(p-1) B_ii +
    sum Gamma_ij A_ij^2, so Phi_p'' = Phi_p (T2 / tr + (1 - p) (T1 / tr)^2) with
    C and tr read from the state.  Factorizes nothing; clamped at zero against
    roundoff.
    """
    lam, C, p, tr = state.sigma_eigvals, state.sigma_factor, state.spec.p, state.trace_p
    E = (M1 - state.M) @ C
    A = -C.T @ E
    b_diag = 2.0 * np.einsum("ij,ij->j", E, state.M_inv @ E)
    # (hi^a - lo^a) / (hi - lo) as hi^(a-1) expm1(a t) / expm1(t), t = log(lo / hi),
    # loses no digits near ties; at t = 0 it is the derivative a hi^(a-1)
    a, lo, hi = p - 1.0, np.minimum.outer(lam, lam), np.maximum.outer(lam, lam)
    t = np.log(lo / hi)
    gamma = hi ** (a - 1.0) * np.divide(np.expm1(a * t), np.expm1(t),
                                        out=np.full_like(t, a), where=t != 0.0)
    t1 = float(lam**a @ np.diag(A)) / tr
    t2 = float(lam**a @ b_diag + np.sum(gamma * A * A)) / tr
    return max(0.0, state.phi_value * (t2 + (1.0 - p) * t1 * t1))
