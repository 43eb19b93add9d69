"""Greedy determinant-criterion baselines: backward deletion and exchange.

Both operate on rank-one atoms and maintain the inverse of the unnormalized
sample information M(S) = sum_{i in S} x_i x_i^T through rank-one updates,
with periodic rebuilds to shed accumulated roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import as_atom_set
from .errors import SingularInformation
from .measures import SampleSet

# steps between from-scratch rebuilds of the maintained inverse
_REBUILD_EVERY = 512
# leverage denominators below this mark a deletion that would kill rank
_DEGENERATE = 1e-12
# exchange_select stops after this many accepted swaps
_MAX_SWEEPS = 20000


@dataclass
class BaselineResult:
    sample: SampleSet
    criterion_value: float
    iterations: int


def _leverages(X: np.ndarray, M_inv: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ni->n", X @ M_inv, X)


def _tied_argmin(values: np.ndarray, orig_idx: np.ndarray) -> int:
    """Position of the minimum; exact ties resolved by smallest original index."""
    best = values.min()
    ties = np.flatnonzero(values == best)
    if ties.size == 1:
        return int(ties[0])
    return int(ties[np.argmin(orig_idx[ties])])


def _sample_phi0(X: np.ndarray, idx: np.ndarray) -> float:
    """Determinant-criterion value of the uniform measure on the sample."""
    n = idx.shape[0]
    M = X[idx].T @ X[idx] / n
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0:
        raise SingularInformation("sample information matrix is singular")
    return float(np.exp(-logdet / X.shape[1]))


def _rank_first(X: np.ndarray, order: np.ndarray) -> list[int]:
    """The first k points of ``order`` that each raise the rank of those before.

    The pool must have full column rank k.  A point counts as raising the
    rank when its residual off the span of the points taken keeps more than
    sqrt(_DEGENERATE) of its norm, the singular-value counterpart of the
    eigenvalue test on M(S).
    """
    k = X.shape[1]
    basis = np.empty((0, k))
    taken = []
    for i in order:
        x = X[i]
        r = x - basis.T @ (basis @ x)
        r = r - basis.T @ (basis @ r)
        norm = np.linalg.norm(r)
        if norm > np.sqrt(_DEGENERATE) * np.linalg.norm(x):
            basis = np.vstack([basis, r / norm])
            taken.append(int(i))
            if len(taken) == k:
                break
    return taken


def backward_select(atoms, n: int) -> BaselineResult:
    """Delete the lowest-leverage point until n remain.

    Each step scans leverages x^T M(S)^-1 x over the current sample and
    removes the minimizer with a rank-one downdate of the inverse.
    """
    aset = as_atom_set(atoms)
    if aset.kind != "vector":
        raise ValueError("backward deletion requires rank-one atoms")
    X = aset.data
    N, k = X.shape
    if not k <= n <= N:
        raise ValueError(f"need k <= n <= N, got k={k}, n={n}, N={N}")

    Xa = np.array(X, copy=True)
    idx = np.arange(N)
    size = N
    M = Xa.T @ Xa
    lam = np.linalg.eigvalsh(M)
    if lam[0] < _DEGENERATE * max(lam[-1], 1e-300):
        raise SingularInformation("full pool information matrix is singular")
    M_inv = np.linalg.inv(M)

    steps = 0
    while size > n:
        lev = _leverages(Xa[:size], M_inv)
        j = _tied_argmin(lev, idx[:size])
        denom = 1.0 - lev[j]
        if denom <= _DEGENERATE:
            raise SingularInformation(
                f"removing point {idx[j]} would make the information singular")
        x = Xa[j]
        u = M_inv @ x
        M_inv = M_inv + np.outer(u, u) / denom
        size -= 1
        Xa[j], Xa[size] = Xa[size], Xa[j].copy()
        idx[j], idx[size] = idx[size], idx[j]
        steps += 1
        if steps % _REBUILD_EVERY == 0:
            M_inv = np.linalg.inv(Xa[:size].T @ Xa[:size])

    chosen = np.sort(idx[:size])
    return BaselineResult(sample=SampleSet(tuple(chosen)),
                          criterion_value=_sample_phi0(X, chosen),
                          iterations=steps)


def exchange_select(atoms, n: int) -> BaselineResult:
    """Swap lowest-leverage in-sample points for highest-leverage outsiders.

    Starts from the full-pool leverage order: the first k points that raise
    the rank, then the highest leverages up to n, so that copies of a few
    high-leverage rows cannot make the start singular.  A sweep performs one
    swap and is accepted only when it increases det M(S); the loop stops at
    the first non-improving proposal.
    """
    aset = as_atom_set(atoms)
    if aset.kind != "vector":
        raise ValueError("exchange requires rank-one atoms")
    X = aset.data
    N, k = X.shape
    if not k <= n <= N:
        raise ValueError(f"need k <= n <= N, got k={k}, n={n}, N={N}")

    M_pool = X.T @ X
    lam = np.linalg.eigvalsh(M_pool)
    if lam[0] < _DEGENERATE * max(lam[-1], 1e-300):
        raise SingularInformation("full pool information matrix is singular")
    lev_pool = _leverages(X, np.linalg.inv(M_pool))
    order = np.lexsort((np.arange(N), -lev_pool))
    in_mask = np.zeros(N, dtype=bool)
    start = _rank_first(X, order)
    in_mask[start] = True
    in_mask[order[~in_mask[order]][:n - len(start)]] = True

    M = X[in_mask].T @ X[in_mask]
    lam = np.linalg.eigvalsh(M)
    if lam[0] < _DEGENERATE * max(lam[-1], 1e-300):
        raise SingularInformation("initial exchange sample is singular")
    M_inv = np.linalg.inv(M)

    all_idx = np.arange(N)
    sweeps = 0
    while sweeps < _MAX_SWEEPS:
        lev = _leverages(X, M_inv)
        ins = np.flatnonzero(in_mask)
        outs = np.flatnonzero(~in_mask)
        if outs.size == 0:
            break
        i_out = ins[_tied_argmin(lev[ins], all_idx[ins])]
        j_in = outs[_tied_argmin(-lev[outs], all_idx[outs])]

        a = 1.0 - lev[i_out]
        if a <= _DEGENERATE:
            raise SingularInformation(
                f"removing point {i_out} would make the information singular")
        x_out = X[i_out]
        u = M_inv @ x_out
        M_inv_minus = M_inv + np.outer(u, u) / a
        x_in = X[j_in]
        b = 1.0 + float(x_in @ M_inv_minus @ x_in)
        if a * b <= 1.0 + 1e-12:
            break
        v = M_inv_minus @ x_in
        M_inv = M_inv_minus - np.outer(v, v) / b
        in_mask[i_out] = False
        in_mask[j_in] = True
        sweeps += 1
        if sweeps % _REBUILD_EVERY == 0:
            M_inv = np.linalg.inv(X[in_mask].T @ X[in_mask])

    chosen = np.flatnonzero(in_mask)
    return BaselineResult(sample=SampleSet(tuple(chosen)),
                          criterion_value=_sample_phi0(X, chosen),
                          iterations=sweeps)
