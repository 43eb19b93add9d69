import numpy as np
import pytest

from batchdesign import (
    AtomSet,
    CumulativeLinkSpec,
    LogisticModelSpec,
    cumlink_atoms,
    logistic_atoms,
    standardize_features,
)
from batchdesign.models import _sigmoid, cumlink_parts
from batchdesign.errors import (
    DegenerateCategory,
    DimensionMismatch,
    NotPSD,
    ZeroVariance,
)

from helpers import cumlink_info_fd, cumlink_pi, gaussian_pool, sigmoid


def logistic_fisher_fd(z, beta, h=1e-4):
    """Negated finite-difference Hessian of the expected binary log-likelihood.

    h is sized for second differences: smaller steps let the 1/h^2 factor
    amplify float roundoff past the comparison tolerance."""
    z = np.asarray(z, dtype=float)
    beta = np.asarray(beta, dtype=float)
    p_true = sigmoid(float(z @ beta))
    k = beta.shape[0]

    def ell(b):
        p = sigmoid(float(z @ b))
        return p_true * np.log(p) + (1.0 - p_true) * np.log(1.0 - p)

    H = np.zeros((k, k))
    for a in range(k):
        for b_ in range(a, k):
            ea, eb = np.zeros(k), np.zeros(k)
            ea[a] = h
            eb[b_] = h
            H[a, b_] = H[b_, a] = (
                ell(beta + ea + eb) - ell(beta + ea - eb)
                - ell(beta - ea + eb) + ell(beta - ea - eb)
            ) / (4.0 * h * h)
    return -H


def _masked_sigmoid(t):
    """The two-branch form that _sigmoid replaced: exp of -t or t by a mask."""
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_form():
    rng = np.random.default_rng(3)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0, 1e-300])
    t = np.concatenate([scale * rng.standard_normal(50_000) for scale in (1.0, 30.0, 800.0)]
                       + [specials])
    got, want = _sigmoid(t), _masked_sigmoid(t)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and nan.sum() == 2
    # every number matches to the bit; a NaN stays a NaN, of either sign
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    assert _sigmoid(np.float64(-1000.0)) == 0.0 and _sigmoid(np.float64(1000.0)) == 1.0


def test_logistic_atoms_at_zero_coefficients(rng):
    Z = gaussian_pool(rng, 12, 3)
    aset = logistic_atoms(Z, LogisticModelSpec(beta=np.zeros(3)))
    assert np.allclose(aset.data, 0.5 * Z)


def test_logistic_scale_bounded_and_saturating(rng):
    Z = gaussian_pool(rng, 20, 2)
    beta = np.array([0.5, -1.0])
    aset = logistic_atoms(Z, LogisticModelSpec(beta=beta))
    norms = np.linalg.norm(aset.data, axis=1)
    assert np.all(norms <= 0.5 * np.linalg.norm(Z, axis=1) + 1e-12)
    far = logistic_atoms(np.array([[100.0, 0.0]]), LogisticModelSpec(beta=np.array([1.0, 0.0])))
    assert np.linalg.norm(far.data) < 1e-15


def test_logistic_intercept_and_shape_errors(rng):
    Z = rng.standard_normal((5, 2))
    aset = logistic_atoms(np.hstack([np.ones((5, 1)), Z]), LogisticModelSpec(beta=np.zeros(3)))
    assert aset.k == 3
    assert np.allclose(aset.data[:, 0], 0.5)
    with pytest.raises(DimensionMismatch):
        logistic_atoms(Z, LogisticModelSpec(beta=np.zeros(3)))


def test_logistic_atom_is_expected_information(rng):
    for _ in range(5):
        z = rng.standard_normal(3)
        beta = rng.standard_normal(3) * 0.7
        aset = logistic_atoms(z[None, :], LogisticModelSpec(beta=beta))
        got = np.outer(aset.data[0], aset.data[0])
        want = logistic_fisher_fd(z, beta)
        assert np.allclose(got, want, rtol=1e-5, atol=1e-8)


def _spec(beta, cuts):
    return CumulativeLinkSpec(beta=np.asarray(beta, float), theta_cuts=np.asarray(cuts, float))


def test_cumlink_spec_validation():
    with pytest.raises(ValueError):
        _spec([1.0], [])
    with pytest.raises(ValueError):
        _spec([1.0], [0.5, 0.5])
    spec = _spec([1.0, 2.0], [-1.0, 1.0])
    assert spec.n_categories == 3
    assert spec.k == 4
    assert np.array_equal(spec.beta_selector, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_non_finite_model_parameters_rejected():
    # a NaN cutpoint compares False, so the ordering check alone lets it through
    with pytest.raises(ValueError, match="theta_cuts"):
        _spec([1.0], [0.0, np.nan])
    with pytest.raises(ValueError, match="beta"):
        _spec([np.inf], [0.0, 1.0])
    with pytest.raises(ValueError, match="beta"):
        LogisticModelSpec(beta=[np.inf])
    with pytest.raises(ValueError, match="beta"):
        LogisticModelSpec(beta=[0.5, np.nan])


def test_cumlink_probabilities_match_direct_formula(rng):
    spec = _spec([0.8, -0.5], [-0.7, 0.4, 1.5])
    Z = rng.standard_normal((10, 2))
    pi, dpi = cumlink_parts(Z, spec)
    assert np.allclose(pi.sum(axis=1), 1.0)
    assert np.allclose(dpi.sum(axis=1), 0.0, atol=1e-14)
    for i in range(10):
        assert np.allclose(pi[i], cumlink_pi(Z[i], spec.beta, spec.theta_cuts))


def test_cumlink_probability_gradients_match_fd(rng):
    spec = _spec([0.8, -0.5], [-0.7, 0.4])
    Z = rng.standard_normal((4, 2))
    pi, dpi = cumlink_parts(Z, spec)
    h = 1e-6
    base = np.concatenate([spec.beta, spec.theta_cuts])
    for a in range(base.shape[0]):
        up, dn = base.copy(), base.copy()
        up[a] += h
        dn[a] -= h
        pi_up = np.stack([cumlink_pi(z, up[:2], up[2:]) for z in Z])
        pi_dn = np.stack([cumlink_pi(z, dn[:2], dn[2:]) for z in Z])
        assert np.allclose(dpi[:, :, a], (pi_up - pi_dn) / (2 * h), atol=1e-8)


def test_cumlink_atom_matches_fd_information(rng):
    for _ in range(5):
        z = rng.standard_normal(2)
        beta = rng.standard_normal(2) * 0.6
        cuts = np.sort(rng.standard_normal(2))
        if cuts[1] - cuts[0] < 0.1:
            cuts[1] = cuts[0] + 0.1
        atom = cumlink_atoms(z[None], _spec(beta, cuts)).data[0]
        want = cumlink_info_fd(z, beta, cuts)
        assert np.allclose(atom, want, rtol=1e-5, atol=1e-7)


def test_two_category_model_reduces_to_logistic(rng):
    # with one cutpoint, P(Y = 2) = sigmoid(z . beta - theta), which is binary
    # logistic regression on the augmented features (z, -1)
    for _ in range(5):
        z = rng.standard_normal(3)
        beta = rng.standard_normal(3) * 0.5
        theta = float(rng.standard_normal())
        atom = cumlink_atoms(z[None], _spec(beta, [theta])).data[0]
        p = sigmoid(float(z @ beta) - theta)
        aug = np.concatenate([z, [-1.0]])
        want = p * (1.0 - p) * np.outer(aug, aug)
        assert np.allclose(atom, want, rtol=1e-10, atol=1e-12)


def test_cumlink_atoms_psd_and_rank(rng):
    spec = _spec([1.2], [-0.5, 0.5])
    # a single point's atom cannot identify beta and both cuts
    one = cumlink_atoms(np.array([[0.3]]), spec)
    lam = np.linalg.eigvalsh(one.data[0])
    assert lam[0] >= -1e-12
    assert np.sum(lam > 1e-10) == 2
    # two distinct points together do
    both = cumlink_atoms(np.array([[0.3], [-1.1]]), spec)
    M = both.data.sum(axis=0)
    assert np.linalg.eigvalsh(M)[0] > 1e-8


def test_degenerate_category_raises():
    spec = _spec([20.0], [0.0, 0.1])
    with pytest.raises(DegenerateCategory, match="category 1"):
        cumlink_atoms(np.array([[10.0]]), spec)


def test_generic_atoms_wrap_and_validate():
    aset = AtomSet.from_matrices(np.eye(2)[None])
    assert len(aset) == 1 and aset.kind == "matrix"
    with pytest.raises(DimensionMismatch):
        AtomSet.from_matrices(np.ones((2, 2, 3)))
    with pytest.raises(NotPSD):
        AtomSet.from_matrices(np.diag([1.0, -1.0])[None])


def test_standardize_matches_numpy(rng):
    Z = rng.standard_normal((30, 3)) * np.array([1.0, 5.0, 0.2]) + np.array([0.0, -2.0, 7.0])
    res = standardize_features(Z)
    assert np.allclose(res.Z, (Z - Z.mean(axis=0)) / Z.std(axis=0))
    assert np.allclose(res.Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(res.Z.std(axis=0), 1.0)


def test_standardize_intercept_passthrough_and_zero_variance(rng):
    Z = np.hstack([np.ones((10, 1)), rng.standard_normal((10, 2))])
    res = standardize_features(Z, intercept_cols=(0,))
    assert np.allclose(res.Z[:, 0], 1.0)
    assert res.means[0] == 0.0 and res.sds[0] == 1.0
    flat = np.hstack([rng.standard_normal((10, 1)), np.full((10, 1), 3.0)])
    with pytest.raises(ZeroVariance, match="column 1"):
        standardize_features(flat)
