"""Information atoms: per-point contributions to the Fisher information.

A design point contributes either a rank-one term x x^T (stored as the vector
x) or a full symmetric PSD matrix when the per-point information has higher
rank (e.g. multi-category responses).  ``AtomSet`` keeps a whole pool in one
ndarray, one row per atom, so that reductions over the pool stay vectorized;
it is the only atom type.  A matrix atom's row is its upper triangle, the
k(k+1)/2 entries in ``np.triu_indices(k)`` order, so that assembly and scores
are single matrix-vector products over the pool; ``data`` unpacks the pool
into (N, k, k) on each access.

``rows`` is read-only, because what is derived from a pool is kept: the
pool's uniform information, and the full-pool evaluation a solved measure
carries for efficiency_bounds.  ``from_vectors`` does not copy a float64
array: the pool is a read-only view of the caller's array, which must not be
modified after a solve on the pool.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NonFiniteAtom, NotPSD

# relative eigenvalue slack below which a matrix atom still counts as PSD
PSD_RTOL = 1e-8
# Vector pools are streamed through row tiles of TILE_BYTES, so that a tile's
# product with B (or its weighted copy) is still in cache when it is reduced,
# and no N x k temporary is allocated.  A tile is 1 024 rows at k = 50, 4 654
# at k = 11 and 10 240 at k = 5, so a narrow pool of a few thousand rows is
# one tile: on a 3 000 x 5 pool, 1 024-row tiles made quad_forms 29 -> 41 us
# a call, one tile 32 us.  A tile keeps at least TILE_ROWS rows: in shorter
# tiles the BLAS product rounds some rows differently from the one-shot
# product (by up to 6e-13 relative at k = 50 and 256 rows).
TILE_BYTES = 400 << 10
TILE_ROWS = 1024


def _check_psd_stack(mats: np.ndarray) -> None:
    eigs = np.linalg.eigvalsh(mats)
    lam_min = eigs[..., 0]
    lam_max = eigs[..., -1]
    bad = lam_min < -PSD_RTOL * np.maximum(lam_max, 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NotPSD(f"atom {i} has eigenvalue {lam_min[i]:.3e} (max {lam_max[i]:.3e})")


def _tile_rows(k: int) -> int:
    return max(TILE_ROWS, TILE_BYTES // (8 * max(k, 1)))  # k = 0: no columns


def _tiled_quad_forms(rows: np.ndarray, B: np.ndarray, buf: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
    """x^T B x for each row x of a vector pool, into out[:len(rows)].

    The rows go through tiles of _tile_rows(k) rows, each multiplied into
    buf, which holds at least min(_tile_rows(k), len(rows)) rows; a caller
    that scans shrinking prefixes of one pool can keep buf and out.
    """
    out, step = out[:len(rows)], _tile_rows(B.shape[0])
    for s in range(0, len(rows), step):
        x = rows[s:s + step]
        t = buf[:len(x)]
        np.matmul(x, B, out=t)
        np.einsum("ni,ni->n", t, x, out=out[s:s + step])
    return out


@lru_cache(maxsize=None)
def _triu(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packing of a k x k matrix's upper triangle, in np.triu_indices(k) order.

    Returns the flat (row-major) positions of the entries (i, j), i <= j,
    those of their mirrors (j, i), and the packed positions of the diagonal.
    """
    iu, ju = np.triu_indices(k)
    upper, lower, diag = iu * k + ju, ju * k + iu, np.flatnonzero(iu == ju)
    for a in (upper, lower, diag):
        a.setflags(write=False)
    return upper, lower, diag


def _unpack(packed: np.ndarray, k: int) -> np.ndarray:
    """Symmetric (..., k, k) matrices from their packed upper triangles."""
    upper, lower, _ = _triu(k)
    out = np.empty(packed.shape[:-1] + (k * k,))
    out[..., upper] = packed
    out[..., lower] = packed
    return out.reshape(packed.shape[:-1] + (k, k))


def _check_finite(data) -> np.ndarray:
    data = np.atleast_1d(np.asarray(data, dtype=float))
    if not np.isfinite(data).all():
        first = tuple(np.argwhere(~np.isfinite(data))[0])
        raise NonFiniteAtom(f"atom {first[0]} has a non-finite entry ({data[first]})")
    return data


class AtomSet:
    """Homogeneous pool of atoms backed by a single array of rows.

    kind == "vector": rows has shape (N, k), atom i contributes x_i x_i^T.
    kind == "matrix": rows has shape (N, k(k+1)/2), the upper triangle of
    symmetric PSD atom i; ``data`` gives the (N, k, k) matrices.
    """

    __slots__ = ("kind", "rows", "k", "_uniform")

    def __init__(self, kind: str, data: np.ndarray, *, validate: bool = True):
        if kind not in ("vector", "matrix"):
            raise ValueError(f"unknown atom kind {kind!r}")
        data = np.asarray(data, dtype=float)
        if kind == "vector":
            if data.ndim != 2:
                raise DimensionMismatch("vector atom pool must have shape (N, k)")
            rows = data.view()  # read-only here, the caller's array keeps its flags
        else:
            if data.ndim != 3 or data.shape[1] != data.shape[2]:
                raise DimensionMismatch("matrix atom pool must have shape (N, k, k)")
            # the entries of 0.5 (A + A^T), the same bits as symmetrizing in full
            k = data.shape[1]
            sym = (data + np.swapaxes(data, 1, 2)).reshape(len(data), k * k)
            rows = np.take(sym, _triu(k)[0], axis=1)
            rows *= 0.5
        rows.setflags(write=False)
        self.kind = kind
        self.rows = rows
        self.k = data.shape[1]
        self._uniform = None
        if kind == "matrix" and validate and len(rows):
            _check_psd_stack(self.data)

    # A pool enters through these two constructors, which reject NaN and
    # infinite entries whatever ``validate`` says; subset() skips the check.
    @classmethod
    def from_vectors(cls, X) -> "AtomSet":
        return cls("vector", _check_finite(X))

    @classmethod
    def from_matrices(cls, mats, *, validate: bool = True) -> "AtomSet":
        return cls("matrix", _check_finite(mats), validate=validate)

    @property
    def data(self) -> np.ndarray:
        """The atoms as an (N, k) array of vectors or a fresh (N, k, k) array of matrices."""
        return self.rows if self.kind == "vector" else _unpack(self.rows, self.k)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def subset(self, idx) -> "AtomSet":
        """The atoms at idx (a mask, indices or a slice, which gives a view)."""
        sub = object.__new__(AtomSet)
        rows = self.rows[idx]
        rows.setflags(write=False)
        sub.kind, sub.rows, sub.k, sub._uniform = self.kind, rows, self.k, None
        return sub

    def uniform_information(self) -> np.ndarray:
        """weighted_sum at the uniform weights 1/N, computed on first use and kept."""
        if self._uniform is None:
            M = self.weighted_sum(np.full(len(self), 1.0 / len(self)))
            M.setflags(write=False)
            self._uniform = M
        return self._uniform

    def weighted_sum(self, w) -> np.ndarray:
        """Sum of w_i * atom_i as a (k, k) symmetric matrix.

        Sparse weight vectors (e.g. steepest-gradient measures) are reduced
        over their support only.  A matrix pool (or its support) is one
        product w @ rows; a vector pool is streamed through row tiles of
        TILE_BYTES.
        """
        w = np.asarray(w, dtype=float)
        if w.shape[0] != len(self):
            raise DimensionMismatch(f"{w.shape[0]} weights for {len(self)} atoms")
        rows = self.rows
        if np.count_nonzero(w) < 0.5 * len(self):
            nz = np.flatnonzero(w)
            rows, w = rows[nz], w[nz]
        if self.kind == "matrix":
            return _unpack(w @ rows, self.k)
        M = np.zeros((self.k, self.k))
        step = _tile_rows(self.k)
        buf = np.empty((min(step, len(rows)), self.k))
        for s in range(0, len(rows), step):
            x = rows[s:s + step]
            t = buf[:len(x)]
            np.multiply(x, w[s:s + step, None], out=t)
            M += t.T @ x
        return 0.5 * (M + M.T)

    def quad_forms(self, B: np.ndarray) -> np.ndarray:
        """Per-atom values of Tr(B @ atom_i) for a (k, k) matrix B.

        A matrix pool is one product rows @ b, where b packs B with its
        off-diagonal pairs summed, b_ij = B_ij + B_ji.  A vector pool is
        streamed through row tiles of TILE_BYTES: each tile's product with B
        is reduced against the tile while both are in cache.
        """
        if B.shape != (self.k, self.k):
            raise DimensionMismatch("B must be (k, k)")
        rows = self.rows
        if self.kind == "matrix":
            upper, lower, diag = _triu(self.k)
            flat = B.ravel()
            b = flat[upper] + flat[lower]
            b[diag] *= 0.5
            return rows @ b
        buf = np.empty((min(_tile_rows(self.k), len(rows)), self.k))
        return _tiled_quad_forms(rows, B, buf, np.empty(len(rows)))


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
