import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from batchdesign import (
    AtomSet,
    CriterionSpec,
    build_info_state,
    phi_p_scores,
)
from batchdesign.criteria import info_state_from_m
from batchdesign.errors import DimensionMismatch, SingularInformation

from helpers import blend_phi, eta, gaussian_pool, phi_direct, random_feasible, tau


def test_spec_validation():
    with pytest.raises(ValueError):
        CriterionSpec(p=-1.0)
    with pytest.raises(ValueError):
        CriterionSpec(p=float("inf"))
    with pytest.raises(ValueError):
        CriterionSpec(p=0.0, G=np.array([[1.0, 0.0], [2.0, 0.0]]))
    spec = CriterionSpec(p=1.0, G=np.array([[1.0, 0.0, 0.0]]))
    assert spec.q_for(3) == 1
    assert CriterionSpec(p=2.0).q_for(5) == 5


def test_diagonal_values_by_hand():
    M = np.diag([1.0, 4.0])
    assert info_state_from_m(M, CriterionSpec(p=0.0)).phi_value == pytest.approx(0.5)
    assert info_state_from_m(M, CriterionSpec(p=1.0)).phi_value == pytest.approx(0.625)
    assert info_state_from_m(M, CriterionSpec(p=2.0)).phi_value == pytest.approx(
        np.sqrt((1.0 + 1.0 / 16.0) / 2.0)
    )
    # picking out the first coordinate makes the value 1/M_00 for every p
    G = np.array([[1.0, 0.0]])
    for p in (0.0, 1.0, 2.0, 3.5):
        assert info_state_from_m(M, CriterionSpec(p=p, G=G)).phi_value == pytest.approx(1.0)


def test_two_by_two_frozen_values():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    w = np.array([0.3, 0.3, 0.4])
    # M = [[0.7, 0.4], [0.4, 0.7]], det 0.33, trace of inverse 1.4/0.33
    s0 = build_info_state(X, w, CriterionSpec(p=0.0))
    assert s0.phi_value == pytest.approx(0.33**-0.5, rel=1e-12)
    s1 = build_info_state(X, w, CriterionSpec(p=1.0))
    assert s1.phi_value == pytest.approx(0.5 * 1.4 / 0.33, rel=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("with_g", [False, True])
def test_value_matches_naive_oracle(rng, p, with_g):
    for _ in range(5):
        X = gaussian_pool(rng, 20, 4)
        w = random_feasible(rng, 20, 0.2, measure=False)
        M = (X * w[:, None]).T @ X
        G = rng.standard_normal((2, 4)) if with_g else None
        spec = CriterionSpec(p=p, G=G)
        got = build_info_state(X, w, spec).phi_value
        assert got == pytest.approx(phi_direct(M, p, G), rel=1e-10)


@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([0.0, 1.0, 2.0, 2.5]))
def test_weights_dot_leverages_equals_value(seed, p):
    rng = np.random.default_rng(seed)
    X = gaussian_pool(rng, 15, 3)
    w = random_feasible(rng, 15, 0.25, measure=False)
    use_g = seed % 2 == 0
    G = rng.standard_normal((2, 3)) if use_g else None
    spec = CriterionSpec(p=p, G=G)
    state = build_info_state(X, w, spec)
    scores = phi_p_scores(X, state, spec)
    assert float(w @ scores) == pytest.approx(state.phi_value, rel=1e-10)


@pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("with_g", [False, True])
def test_leverage_is_negated_weight_derivative(rng, p, with_g):
    N, k = 10, 3
    X = gaussian_pool(rng, N, k)
    w = 0.5 + rng.random(N)
    G = rng.standard_normal((2, k)) if with_g else None
    spec = CriterionSpec(p=p, G=G)
    state = build_info_state(X, w, spec)
    scores = phi_p_scores(X, state, spec)
    h = 1e-6
    for i in range(N):
        wp = w.copy()
        wm = w.copy()
        wp[i] += h
        wm[i] -= h
        fd = (
            build_info_state(X, wp, spec).phi_value
            - build_info_state(X, wm, spec).phi_value
        ) / (2.0 * h)
        assert -fd == pytest.approx(scores[i], rel=2e-5, abs=1e-10)


def test_matrix_atoms_score_like_vector_atoms(rng):
    # the atoms x x^T as k x k matrices give the same leverages as the rows x
    X = gaussian_pool(rng, 8, 3)
    w = random_feasible(rng, 8, 0.3, measure=False)
    outer = AtomSet.from_matrices(np.einsum("ni,nj->nij", X, X))
    for G in (None, rng.standard_normal((2, 3))):
        spec = CriterionSpec(p=2.0, G=G)
        state = build_info_state(X, w, spec)
        scores = phi_p_scores(X, state, spec)
        assert np.allclose(phi_p_scores(outer, state, spec), scores, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
def test_eta_matches_directional_derivative(rng, p):
    spec = CriterionSpec(p=p)
    for _ in range(5):
        X = gaussian_pool(rng, 12, 3)
        w = random_feasible(rng, 12, 0.2)
        wp = random_feasible(rng, 12, 0.2)
        val = eta(wp, w, X, spec)
        h = 1e-5
        fd = (blend_phi(X, w, wp, h, spec) - blend_phi(X, w, wp, -h, spec)) / (2.0 * h)
        assert val == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
def test_tau_nonnegative_and_matches_raw_second_difference(rng, p):
    spec = CriterionSpec(p=p)
    for _ in range(5):
        X = gaussian_pool(rng, 12, 3)
        w = random_feasible(rng, 12, 0.2)
        wp = random_feasible(rng, 12, 0.2)
        t = tau(wp, w, X, spec)
        assert t >= 0.0
        h = 1e-4
        raw = (
            blend_phi(X, w, wp, h, spec)
            - 2.0 * blend_phi(X, w, wp, 0.0, spec)
            + blend_phi(X, w, wp, -h, spec)
        ) / (h * h)
        assert raw >= -1e-6
        # matrix-blend and weight-blend evaluations differ only by roundoff,
        # which the 1/h^2 factor amplifies to ~1e-6 relative
        assert t == pytest.approx(max(0.0, raw), rel=1e-4, abs=1e-6)


def test_tau_matches_symbolic_second_derivative():
    # diagonal family: atoms sqrt(c_i) e_i make M(w) = diag(w_i c_i), so the
    # criterion along a blend has a closed form sympy can differentiate
    c = [1.0, 2.0, 4.0]
    w = [0.5, 0.3, 0.2]
    wp = [0.2, 0.3, 0.5]
    X = np.diag(np.sqrt(c))
    alpha = sympy.Symbol("alpha")
    m = [((1 - alpha) * wi + alpha * wpi) * ci for wi, wpi, ci in zip(w, wp, c)]
    for p in (0.0, 1.0, 2.0):
        if p == 0.0:
            expr = (sympy.prod(m)) ** sympy.Rational(-1, 3)
        else:
            expr = (sum(mi ** (-p) for mi in m) / 3) ** (1 / sympy.Float(p))
        want = float(sympy.diff(expr, alpha, 2).subs(alpha, 0))
        got = tau(np.array(wp), np.array(w), X, CriterionSpec(p=p))
        assert got == pytest.approx(want, rel=1e-5)


def test_small_p_approaches_determinant_criterion(rng):
    X = gaussian_pool(rng, 10, 3)
    w = random_feasible(rng, 10, 0.3, measure=False)
    v0 = build_info_state(X, w, CriterionSpec(p=0.0)).phi_value
    v_eps = build_info_state(X, w, CriterionSpec(p=1e-6)).phi_value
    assert v_eps == pytest.approx(v0, rel=1e-4)


def test_singular_and_shape_errors(rng):
    X = gaussian_pool(rng, 6, 3)
    w = np.zeros(6)
    w[0] = 1.0
    with pytest.raises(SingularInformation):
        build_info_state(X, w, CriterionSpec(p=0.0))
    with pytest.raises(DimensionMismatch):
        build_info_state(X, np.ones(5) / 5.0, CriterionSpec(p=0.0))
    with pytest.raises(DimensionMismatch):
        info_state_from_m(np.eye(3), CriterionSpec(p=1.0, G=np.ones((1, 2))))


@pytest.mark.parametrize("p", [0.0, 2.0])
def test_scores_reject_a_state_built_with_another_g(rng, p):
    # a square G passes every shape check, so only the G flag catches it
    X = gaussian_pool(rng, 50, 3)
    w = np.full(50, 1.0 / 50)
    G = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    plain, with_g = CriterionSpec(p=p), CriterionSpec(p=p, G=G)
    with pytest.raises(DimensionMismatch):
        phi_p_scores(X, build_info_state(X, w, plain), with_g)
    with pytest.raises(DimensionMismatch):
        phi_p_scores(X, build_info_state(X, w, with_g), plain)


def test_tau_retries_at_smaller_step_when_probe_is_singular():
    # M0 = diag(1, 1e-5), M1 = I: the probe at alpha = -1e-4 has a negative
    # eigenvalue, the probes at +-1e-5 are positive definite
    X = np.eye(2)
    w, wp = np.array([1.0, 1e-5]), np.array([1.0, 1.0])
    spec = CriterionSpec(p=1.0)

    def value(alpha):
        return info_state_from_m(np.diag((1.0 - alpha) * w + alpha * wp), spec).phi_value

    with pytest.raises(SingularInformation):
        value(-1e-4)
    h = 1e-5
    want = max(0.0, (value(h) - 2.0 * value(0.0) + value(-h)) / (h * h))
    assert tau(wp, w, X, spec) == want


def test_tau_raises_when_both_probes_are_singular():
    X = np.eye(2)
    with pytest.raises(SingularInformation):
        tau(np.array([1.0, 1.0]), np.array([1.0, 1e-7]), X, CriterionSpec(p=1.0))
