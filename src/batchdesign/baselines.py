"""Greedy determinant-criterion baselines: backward deletion and exchange.

Both operate on rank-one atoms and maintain the inverse of the unnormalized
sample information M(S) = sum_{i in S} x_i x_i^T through rank-one updates,
with periodic rebuilds to shed accumulated roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atoms import AtomSet, _tile_rows, _tiled_quad_forms, as_atom_set
from .criteria import CriterionSpec, build_info_state, is_singular
from .errors import SingularInformation
from .measures import SampleSet, measure_of_sample

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


def _tied_argmin(values: np.ndarray, orig_idx: np.ndarray) -> int:
    """Position of the minimum; exact ties resolved by smallest original index."""
    best = values.min()
    ties = np.flatnonzero(values == best)
    if ties.size == 1:
        return int(ties[0])
    return int(ties[np.argmin(orig_idx[ties])])


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


def _pool(atoms, n: int, method: str) -> tuple[AtomSet, np.ndarray]:
    """The pool as rank-one atoms with k <= n <= N and its information sum_i x_i x_i^T."""
    aset = as_atom_set(atoms)
    if aset.kind != "vector":
        raise ValueError(f"{method} requires rank-one atoms")
    N, k = aset.data.shape
    if not k <= n <= N:
        raise ValueError(f"need k <= n <= N, got k={k}, n={n}, N={N}")
    M = aset.data.T @ aset.data
    if is_singular(np.linalg.eigvalsh(M)):
        raise SingularInformation("full pool information matrix is singular")
    return aset, M


def _downdate(M_inv: np.ndarray, x: np.ndarray, lev: float, point: int) -> np.ndarray:
    """M(S)^-1 after point x leaves S (Sherman-Morrison); lev = x^T M(S)^-1 x."""
    denom = 1.0 - lev
    if denom <= _DEGENERATE:
        raise SingularInformation(
            f"removing point {point} would make the information singular")
    u = M_inv @ x
    return M_inv + np.outer(u, u) / denom


def _result(aset: AtomSet, chosen: np.ndarray, iterations: int) -> BaselineResult:
    """The sample with its determinant-criterion value Phi_0 at 1/n weights."""
    sample = SampleSet(tuple(chosen))
    phi0 = build_info_state(aset, measure_of_sample(sample, len(aset)), CriterionSpec(p=0.0))
    return BaselineResult(sample=sample, criterion_value=phi0.phi_value, iterations=iterations)


def backward_select(atoms, n: int) -> BaselineResult:
    """Delete the lowest-leverage point until n remain.

    Each step scans leverages x^T M(S)^-1 x over the current sample and
    removes the minimizer with a rank-one downdate of the inverse.
    """
    aset, M = _pool(atoms, n, "backward deletion")
    N = len(aset)
    # a writable copy whose first `size` rows are the current sample, scanned
    # through one tile buffer into one leverage array
    Xa = np.array(aset.rows)
    buf = np.empty((min(_tile_rows(aset.k), N), aset.k))
    lev_all = np.empty(N)
    idx = np.arange(N)
    size = N
    M_inv = np.linalg.inv(M)

    steps = 0
    while size > n:
        lev = _tiled_quad_forms(Xa[:size], M_inv, buf, lev_all)
        j = _tied_argmin(lev, idx[:size])
        M_inv = _downdate(M_inv, Xa[j], lev[j], idx[j])
        size -= 1
        Xa[j], Xa[size] = Xa[size], Xa[j].copy()
        idx[j], idx[size] = idx[size], idx[j]
        steps += 1
        if steps % _REBUILD_EVERY == 0:
            M_inv = np.linalg.inv(Xa[:size].T @ Xa[:size])

    return _result(aset, np.sort(idx[:size]), steps)


def exchange_select(atoms, n: int) -> BaselineResult:
    """Swap lowest-leverage in-sample points for highest-leverage outsiders.

    Starts from the full-pool leverage order: the first k points that raise
    the rank, then the highest leverages up to n, so that copies of a few
    high-leverage rows cannot make the start singular.  A sweep performs one
    swap and is accepted only when it increases det M(S); the loop stops at
    the first non-improving proposal.
    """
    aset, M_pool = _pool(atoms, n, "exchange")
    X = aset.data
    N = len(aset)
    lev_pool = aset.quad_forms(np.linalg.inv(M_pool))
    order = np.lexsort((np.arange(N), -lev_pool))
    in_mask = np.zeros(N, dtype=bool)
    start = _rank_first(X, order)
    in_mask[start] = True
    in_mask[order[~in_mask[order]][:n - len(start)]] = True

    M = X[in_mask].T @ X[in_mask]
    if is_singular(np.linalg.eigvalsh(M)):
        raise SingularInformation("initial exchange sample is singular")
    M_inv = np.linalg.inv(M)

    all_idx = np.arange(N)
    sweeps = 0
    while sweeps < _MAX_SWEEPS:
        lev = aset.quad_forms(M_inv)
        ins = np.flatnonzero(in_mask)
        outs = np.flatnonzero(~in_mask)
        if outs.size == 0:
            break
        i_out = ins[_tied_argmin(lev[ins], all_idx[ins])]
        j_in = outs[_tied_argmin(-lev[outs], all_idx[outs])]

        M_inv_minus = _downdate(M_inv, X[i_out], lev[i_out], i_out)
        x_in = X[j_in]
        b = 1.0 + float(x_in @ M_inv_minus @ x_in)
        if (1.0 - lev[i_out]) * b <= 1.0 + 1e-12:
            break
        v = M_inv_minus @ x_in
        M_inv = M_inv_minus - np.outer(v, v) / b
        in_mask[i_out] = False
        in_mask[j_in] = True
        sweeps += 1
        if sweeps % _REBUILD_EVERY == 0:
            M_inv = np.linalg.inv(X[in_mask].T @ X[in_mask])

    return _result(aset, np.flatnonzero(in_mask), sweeps)
