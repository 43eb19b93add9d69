import numpy as np
import pytest

from batchdesign import AtomSet, CriterionSpec, SolverConfig, as_atom_set, solve_hybrid
from batchdesign.errors import DimensionMismatch, NonFiniteAtom, NotPSD


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


def test_subset_and_iteration(rng):
    X = rng.standard_normal((6, 2))
    aset = AtomSet.from_vectors(X)
    sub = aset.subset([1, 3])
    assert len(sub) == 2
    assert np.allclose(sub.data[1], X[3])
    assert sub.kind == "vector" and sub.k == 2


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
