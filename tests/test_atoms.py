import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import batchdesign.atoms as atoms_mod
from batchdesign import AtomSet, CriterionSpec, SolverConfig, as_atom_set, solve_hybrid
from batchdesign.errors import DimensionMismatch, NonFiniteAtom, NotPSD

from helpers import (
    matrix_quad_forms_loop,
    matrix_weighted_sum_loop,
    quad_forms_loop,
    weighted_sum_loop,
)


def test_matrix_atom_symmetrized_and_psd_checked():
    m = np.array([[1.0, 1e-12], [0.0, 2.0]])
    a = AtomSet.from_matrices(m[None]).data[0]
    assert np.array_equal(a, a.T)
    assert np.allclose(a, 0.5 * (m + m.T))
    with pytest.raises(NotPSD):
        AtomSet.from_matrices(np.diag([1.0, -0.1])[None])
    with pytest.raises(NotPSD):
        as_atom_set([np.eye(2), np.diag([1.0, -0.1])])


def test_atom_set_shapes():
    with pytest.raises(DimensionMismatch):
        AtomSet.from_vectors(np.ones(3))
    with pytest.raises(DimensionMismatch):
        AtomSet.from_matrices(np.ones((2, 3, 4)))
    aset = AtomSet.from_vectors(np.ones((5, 2)))
    assert len(aset) == 5 and aset.k == 2 and aset.kind == "vector"


def test_weighted_sum_matches_loop(rng):
    X = rng.standard_normal((12, 3))
    aset = AtomSet.from_vectors(X)
    w = rng.random(12)
    M = sum(wi * np.outer(x, x) for wi, x in zip(w, X))
    assert np.allclose(aset.weighted_sum(w), M)

    mats = np.einsum("ni,nj->nij", X, X)
    mset = AtomSet.from_matrices(mats)
    assert np.allclose(mset.weighted_sum(w), M)


def test_weighted_sum_sparse_support(rng):
    X = rng.standard_normal((30, 3))
    aset = AtomSet.from_vectors(X)
    w = np.zeros(30)
    w[[2, 17]] = [0.4, 0.6]
    M = 0.4 * np.outer(X[2], X[2]) + 0.6 * np.outer(X[17], X[17])
    assert np.allclose(aset.weighted_sum(w), M)
    with pytest.raises(DimensionMismatch):
        aset.weighted_sum(np.ones(29))


def test_quad_forms_matches_loop(rng):
    X = rng.standard_normal((9, 4))
    B = rng.standard_normal((4, 4))
    B = B + B.T
    aset = AtomSet.from_vectors(X)
    expect = np.array([x @ B @ x for x in X])
    assert np.allclose(aset.quad_forms(B), expect)

    mats = np.einsum("ni,nj->nij", X, X)
    mset = AtomSet.from_matrices(mats)
    assert np.allclose(mset.quad_forms(B), expect)


@pytest.mark.parametrize("layout", ["C", "F", "row-strided"])
@pytest.mark.parametrize("k", [1, 2, 5, 50])
@given(tile=st.integers(2, 9), offset=st.sampled_from(["-1", "0", "+1", "2x+3"]),
       sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_tiled_kernels_match_loop(k, layout, tile, offset, sparse, seed):
    # tiles of a few rows, so that pools of tens of rows span several tiles
    N = {"-1": tile - 1, "0": tile, "+1": tile + 1, "2x+3": 2 * tile + 3}[offset]
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((2 * N, k))[::2] if layout == "row-strided" else rng.standard_normal((N, k))
    if layout == "F":
        X = np.asfortranarray(X)
    aset = AtomSet.from_vectors(X)
    # the layout reaches the kernels uncopied, through a read-only view
    assert aset.data.ctypes.data == X.ctypes.data and aset.data.strides == X.strides
    B = rng.standard_normal((k, k))
    B = B + B.T
    # zeros and negative weights; fewer than N/2 nonzeros take the sparse branch
    w = np.zeros(N)
    support = rng.permutation(N)[: (N - 1) // 2 if sparse else N - N // 4]
    w[support] = rng.standard_normal(support.size)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(atoms_mod, "_tile_rows", lambda k: tile)
        q = aset.quad_forms(B)
        M = aset.weighted_sum(w)
    # the loop on absolute values bounds every term, so cancellation is allowed for
    scale_q = quad_forms_loop(np.abs(X), np.abs(B))
    scale_M = weighted_sum_loop(np.abs(X), np.abs(w))
    np.testing.assert_allclose(q, quad_forms_loop(X, B), rtol=1e-12, atol=1e-12 * scale_q.max())
    np.testing.assert_allclose(M, weighted_sum_loop(X, w), rtol=1e-12, atol=1e-12 * scale_M.max())


def test_vector_kernels_allocate_no_pool_sized_temporary(rng):
    X = rng.standard_normal((50_000, 50))
    aset = AtomSet.from_vectors(X)
    B = np.eye(50) + 0.1
    w = rng.random(50_000)
    for kernel in (lambda: aset.quad_forms(B), lambda: aset.weighted_sum(w)):
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 8


@pytest.mark.parametrize("k", [1, 2, 5, 9])
@given(N=st.integers(1, 14), sparse=st.booleans(), pick=st.sampled_from(["mask", "index", "slice"]),
       seed=st.integers(0, 2**32 - 1))
def test_matrix_kernels_match_loop(k, N, sparse, pick, seed):
    rng = np.random.default_rng(seed)
    F = rng.standard_normal((N, k, k))
    skew = rng.standard_normal((N, k, k))
    # PSD plus a skew part, which symmetrizing removes
    raw = F @ np.swapaxes(F, 1, 2) + (skew - np.swapaxes(skew, 1, 2))
    sym = 0.5 * (raw + np.swapaxes(raw, 1, 2))
    aset = AtomSet.from_matrices(raw)
    assert aset.rows.shape == (N, k * (k + 1) // 2)
    assert np.array_equal(aset.data, sym)
    idx = {"mask": rng.random(N) < 0.5,
           "index": rng.integers(0, N, size=int(rng.integers(1, N + 1))),
           "slice": slice(int(rng.integers(0, N)), None, int(rng.integers(1, 3)))}[pick]
    sub = aset.subset(idx)
    A = sym[idx]
    assert (sub.kind, sub.k, len(sub)) == ("matrix", k, len(A))
    assert np.array_equal(sub.data, A)
    B = rng.standard_normal((k, k))  # not symmetric
    # zeros and negative weights; fewer than half nonzero takes the sparse branch
    w = np.zeros(len(A))
    support = rng.permutation(len(A))[: (len(A) - 1) // 2 if sparse else len(A) - len(A) // 4]
    w[support] = rng.standard_normal(support.size)
    q, M = sub.quad_forms(B), sub.weighted_sum(w)
    assert np.array_equal(M, M.T)
    # the loop on absolute values bounds every term, so cancellation is allowed for
    scale_q = matrix_quad_forms_loop(np.abs(A), np.abs(B))
    scale_M = matrix_weighted_sum_loop(np.abs(A), np.abs(w))
    np.testing.assert_allclose(q, matrix_quad_forms_loop(A, B), rtol=1e-12,
                               atol=1e-12 * scale_q.max(initial=0.0))
    np.testing.assert_allclose(M, matrix_weighted_sum_loop(A, w), rtol=1e-12,
                               atol=1e-12 * scale_M.max())


def test_matrix_kernels_allocate_no_pool_sized_temporary(rng):
    N, k = 20_000, 9
    F = rng.standard_normal((N, k, 2))
    aset = AtomSet.from_matrices(F @ np.swapaxes(F, 1, 2), validate=False)
    B = np.eye(k) + 0.1
    w = rng.random(N)
    for kernel in (lambda: aset.quad_forms(B), lambda: aset.weighted_sum(w)):
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an (N, k, k) array would be 81 / 45 of the stored rows
        assert peak < aset.rows.nbytes / 8


def test_subset_and_iteration(rng):
    X = rng.standard_normal((6, 2))
    aset = AtomSet.from_vectors(X)
    sub = aset.subset([1, 3])
    assert len(sub) == 2
    assert np.allclose(sub.data[1], X[3])
    assert sub.kind == "vector" and sub.k == 2


@pytest.mark.parametrize("kind", ["vector", "matrix"])
def test_rows_are_read_only(rng, kind):
    # a pool keeps what it derives from its rows (its uniform information and
    # a solved measure's certificate), so writing a row must fail
    X = rng.standard_normal((12, 3))
    if kind == "vector":
        aset = AtomSet.from_vectors(X)
    else:
        aset = AtomSet.from_matrices(np.einsum("ni,nj->nij", X, X))
    for pool in (aset, aset.subset(np.arange(12) % 2 == 0), aset.subset([1, 4, 4]),
                 aset.subset(slice(None, None, 3))):
        with pytest.raises(ValueError, match="read-only"):
            pool.rows[0, 0] = 1.0
    # the caller's own array is not frozen with the pool's view of it
    assert X.flags.writeable
    X[0, 0] = 2.0


def test_uniform_information_is_kept_from_its_first_use(rng):
    aset = AtomSet.from_vectors(rng.standard_normal((40, 3)))
    assert aset._uniform is None  # not paid for at construction
    M = aset.uniform_information()
    assert np.array_equal(M, aset.weighted_sum(np.full(40, 1.0 / 40)))
    assert aset.uniform_information() is M and not M.flags.writeable
    sub = aset.subset(slice(0, 20))
    assert sub._uniform is None
    assert np.array_equal(sub.uniform_information(), sub.weighted_sum(np.full(20, 1.0 / 20)))


def test_as_atom_set_promotions(rng):
    X = rng.standard_normal((4, 3))
    assert as_atom_set(X).kind == "vector"
    assert np.array_equal(as_atom_set(list(X)).data, X)
    mats = np.stack([np.eye(3)] * 4)
    assert as_atom_set(mats).kind == "matrix"
    assert as_atom_set(list(mats)).kind == "matrix"
    aset = as_atom_set(X)
    assert as_atom_set(aset) is aset
    for bad in ([X[0], np.eye(3)], [np.ones(2), np.ones(3)], [], np.ones(3)):
        with pytest.raises(DimensionMismatch):
            as_atom_set(bad)


def test_non_finite_pools_raise_typed_error(rng):
    X = rng.standard_normal((20, 3))
    X[7, 1] = np.nan
    with pytest.raises(NonFiniteAtom, match="atom 7"):
        AtomSet.from_vectors(X)
    with pytest.raises(NonFiniteAtom, match="atom 7"):
        solve_hybrid(X, CriterionSpec(p=0.0), SolverConfig(epsilon=0.1))
    mats = np.stack([np.eye(3)] * 5)
    mats[3, 0, 0] = np.inf
    with pytest.raises(NonFiniteAtom, match="atom 3"):
        AtomSet.from_matrices(mats)
    with pytest.raises(NonFiniteAtom, match="atom 3"):
        AtomSet.from_matrices(mats, validate=False)
