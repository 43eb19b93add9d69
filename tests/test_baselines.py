import numpy as np
import pytest

from batchdesign import CriterionSpec, backward_select, exchange_select
from batchdesign.errors import SingularInformation

from helpers import best_subset, gaussian_pool, phi_of_subset


def naive_backward(X, n):
    """From-scratch reimplementation of lowest-leverage deletion."""
    idx = list(range(len(X)))
    while len(idx) > n:
        M_inv = np.linalg.inv(X[idx].T @ X[idx])
        lev = np.einsum("ni,ni->n", X[idx] @ M_inv, X[idx])
        j = min(range(len(idx)), key=lambda t: (lev[t], idx[t]))
        idx.pop(j)
    return tuple(sorted(idx))


def naive_exchange(X, n):
    """From-scratch reimplementation of the one-swap-per-sweep exchange."""
    N = len(X)
    lev_pool = np.einsum("ni,ni->n", X @ np.linalg.inv(X.T @ X), X)
    chosen = sorted(range(N), key=lambda i: (-lev_pool[i], i))[:n]
    in_set = set(chosen)
    dets = [np.linalg.det(X[sorted(in_set)].T @ X[sorted(in_set)])]
    while True:
        rows = sorted(in_set)
        M = X[rows].T @ X[rows]
        M_inv = np.linalg.inv(M)
        lev = np.einsum("ni,ni->n", X @ M_inv, X)
        i_out = min(in_set, key=lambda i: (lev[i], i))
        outs = [i for i in range(N) if i not in in_set]
        if not outs:
            break
        j_in = min(outs, key=lambda i: (-lev[i], i))
        a = 1.0 - lev[i_out]
        M_minus_inv = np.linalg.inv(M - np.outer(X[i_out], X[i_out]))
        b = 1.0 + float(X[j_in] @ M_minus_inv @ X[j_in])
        if a * b <= 1.0 + 1e-12:
            break
        in_set.discard(i_out)
        in_set.add(j_in)
        dets.append(np.linalg.det(X[sorted(in_set)].T @ X[sorted(in_set)]))
    return tuple(sorted(in_set)), dets


def test_backward_matches_naive_recompute(rng):
    for _ in range(3):
        X = gaussian_pool(rng, 40, 3)
        res = backward_select(X, 10)
        assert res.sample.indices == naive_backward(X, 10)
        assert res.iterations == 30


def test_backward_tie_breaks_frozen():
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 1.0]])
    res = backward_select(X, 3)
    # duplicated rows tie exactly; the smaller original index is deleted first
    assert res.sample.indices == (1, 3, 4)


def test_backward_criterion_value_is_phi_of_sample(rng):
    X = gaussian_pool(rng, 25, 3)
    res = backward_select(X, 8)
    want = phi_of_subset(X, res.sample.indices, CriterionSpec(p=0.0))
    assert res.criterion_value == pytest.approx(want, rel=1e-10)


def test_exchange_matches_naive_recompute(rng):
    for _ in range(3):
        X = gaussian_pool(rng, 60, 3)
        res = exchange_select(X, 12)
        sample, dets = naive_exchange(X, 12)
        assert res.sample.indices == sample
        assert res.iterations == len(dets) - 1
        # every accepted swap strictly increased the determinant
        assert all(b > a for a, b in zip(dets, dets[1:]))


def test_exchange_start_spans_duplicated_rows():
    # 20 distinct rows, each 20 times: the 60 highest leverages are copies of
    # 3 rows, so a top-n start would be singular
    X = np.repeat(gaussian_pool(np.random.default_rng(0), 20, 6), 20, axis=0)
    res = exchange_select(X, 60)
    assert len(res.sample.indices) == 60
    assert np.linalg.matrix_rank(X[list(res.sample.indices)]) == 6
    want = phi_of_subset(X, res.sample.indices, CriterionSpec(p=0.0))
    assert np.isfinite(want) and res.criterion_value == pytest.approx(want, rel=1e-10)


def test_exchange_with_n_equal_pool(rng):
    X = gaussian_pool(rng, 10, 3)
    res = exchange_select(X, 10)
    assert res.sample.indices == tuple(range(10))
    assert res.iterations == 0


def test_permutation_equivariance(rng):
    X = gaussian_pool(rng, 30, 3)
    perm = rng.permutation(30)
    for select in (lambda A: backward_select(A, 9), lambda A: exchange_select(A, 9)):
        base = select(X).sample.indices
        moved = select(X[perm]).sample.indices
        assert tuple(sorted(perm[list(moved)])) == base


def test_heuristics_cannot_beat_enumeration(rng):
    X = gaussian_pool(rng, 10, 2)
    _, best_phi, _ = best_subset(X, 4, CriterionSpec(p=0.0))
    for res in (backward_select(X, 4), exchange_select(X, 4)):
        assert res.criterion_value >= best_phi * (1.0 - 1e-12)


def test_validation_errors(rng):
    X = gaussian_pool(rng, 10, 3)
    with pytest.raises(ValueError):
        backward_select(X, 2)
    with pytest.raises(ValueError):
        exchange_select(X, 11)
    with pytest.raises(ValueError):
        backward_select(np.stack([np.eye(3)] * 5), 4)
    collinear = np.outer(np.arange(1.0, 7.0), np.ones(2))
    with pytest.raises(SingularInformation):
        backward_select(collinear, 3)
    with pytest.raises(SingularInformation):
        exchange_select(collinear, 3)
