"""Information atoms: per-point contributions to the Fisher information.

A design point contributes either a rank-one term x x^T (stored as the vector
x) or a full symmetric PSD matrix when the per-point information has higher
rank (e.g. multi-category responses).  ``AtomSet`` keeps a whole pool in one
ndarray so that reductions over the pool stay vectorized; it is the only atom
type, and a single atom is a row (or slice) of its ``data``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteAtom, NotPSD

# relative eigenvalue slack below which a matrix atom still counts as PSD
PSD_RTOL = 1e-8


def _check_psd_stack(mats: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(mats)
    lam_min = eigs[..., 0]
    lam_max = eigs[..., -1]
    bad = lam_min < -PSD_RTOL * np.maximum(lam_max, 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NotPSD(f"atom {i} has eigenvalue {lam_min[i]:.3e} (max {lam_max[i]:.3e})")


def _check_finite(data) -> np.ndarray:
    data = np.atleast_1d(np.asarray(data, dtype=float))
    if not np.isfinite(data).all():
        first = tuple(np.argwhere(~np.isfinite(data))[0])
        raise NonFiniteAtom(f"atom {first[0]} has a non-finite entry ({data[first]})")
    return data


class AtomSet:
    """Homogeneous pool of atoms backed by a single array.

    kind == "vector": data has shape (N, k), atom i contributes x_i x_i^T.
    kind == "matrix": data has shape (N, k, k), symmetric PSD slices.
    """

    __slots__ = ("kind", "data", "k")

    def __init__(self, kind: str, data: np.ndarray, *, validate: bool = True):
        if kind not in ("vector", "matrix"):
            raise ValueError(f"unknown atom kind {kind!r}")
        data = np.asarray(data, dtype=float)
        if kind == "vector":
            if data.ndim != 2:
                raise DimensionMismatch("vector atom pool must have shape (N, k)")
        else:
            if data.ndim != 3 or data.shape[1] != data.shape[2]:
                raise DimensionMismatch("matrix atom pool must have shape (N, k, k)")
            data = 0.5 * (data + np.swapaxes(data, 1, 2))
            if validate and len(data):
                _check_psd_stack(data)
        self.kind = kind
        self.data = data
        self.k = data.shape[1]

    # A pool enters through these two constructors, which reject NaN and
    # infinite entries whatever ``validate`` says; subset() skips the check.
    @classmethod
    def from_vectors(cls, X) -> "AtomSet":
        return cls("vector", _check_finite(X))

    @classmethod
    def from_matrices(cls, mats, *, validate: bool = True) -> "AtomSet":
        return cls("matrix", _check_finite(mats), validate=validate)

    def __len__(self) -> int:
        return self.data.shape[0]

    def subset(self, idx) -> "AtomSet":
        return AtomSet(self.kind, self.data[idx], validate=False)

    def weighted_sum(self, w) -> np.ndarray:
        """Sum of w_i * atom_i as a (k, k) symmetric matrix.

        Sparse weight vectors (e.g. steepest-gradient measures) are reduced
        over their support only.
        """
        w = np.asarray(w, dtype=float)
        if w.shape[0] != len(self):
            raise DimensionMismatch(f"{w.shape[0]} weights for {len(self)} atoms")
        nz = np.flatnonzero(w)
        if nz.size < 0.5 * len(self):
            data = self.data[nz]
            w = w[nz]
        else:
            data = self.data
        if self.kind == "vector":
            M = (data * w[:, None]).T @ data
        else:
            M = np.tensordot(w, data, axes=(0, 0))
        return 0.5 * (M + M.T)

    def quad_forms(self, B: np.ndarray) -> np.ndarray:
        """Per-atom values of Tr(B @ atom_i) for a symmetric (k, k) matrix B."""
        if B.shape != (self.k, self.k):
            raise DimensionMismatch("B must be (k, k)")
        if self.kind == "vector":
            return np.einsum("ni,ni->n", self.data @ B, self.data)
        return np.tensordot(self.data, B, axes=([1, 2], [0, 1]))


def as_atom_set(atoms) -> AtomSet:
    """Return an AtomSet as is; wrap an array-like of shape (N, k) or (N, k, k)."""
    if isinstance(atoms, AtomSet):
        return atoms
    try:
        arr = np.asarray(atoms, dtype=float)
    except ValueError:  # ragged nesting
        raise DimensionMismatch("atoms have mixed shapes") from None
    if arr.ndim == 2:
        return AtomSet.from_vectors(arr)
    if arr.ndim == 3:
        return AtomSet.from_matrices(arr)
    raise DimensionMismatch(f"atom array must be (N, k) or (N, k, k), got shape {arr.shape}")
