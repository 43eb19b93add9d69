import numpy as np
import pytest

from batchdesign import fit_cumlink, fit_logistic
from batchdesign.errors import FitDiverged

from helpers import cumlink_pi, gaussian_pool, sample_cumlink, sigmoid


def test_logistic_recovers_truth(rng):
    Z = gaussian_pool(rng, 4000, 3)
    beta_true = np.array([0.4, -0.8, 1.2])
    y = (rng.random(4000) < sigmoid(Z @ beta_true)).astype(float)
    fit = fit_logistic(Z, y)
    assert np.allclose(fit.beta, beta_true, atol=0.15)
    assert fit.iterations <= 25


def test_logistic_score_vanishes_at_fit(rng):
    Z = gaussian_pool(rng, 300, 3)
    y = (rng.random(300) < sigmoid(Z @ np.array([0.5, 0.5, -0.5]))).astype(float)
    fit = fit_logistic(Z, y)
    grad = Z.T @ (y - sigmoid(Z @ fit.beta))
    assert np.max(np.abs(grad)) <= 1e-8
    # the reported log-likelihood matches a direct evaluation
    t = Z @ fit.beta
    ll = float(y @ t - np.sum(np.log1p(np.exp(np.clip(t, -700, 700)))))
    assert fit.loglik == pytest.approx(ll, rel=1e-10)


def test_logistic_rejects_bad_responses(rng):
    Z = gaussian_pool(rng, 20, 2)
    with pytest.raises(FitDiverged):
        fit_logistic(Z, np.full(20, 1.0))
    with pytest.raises(FitDiverged):
        fit_logistic(Z, np.arange(20.0))
    with pytest.raises(FitDiverged):
        fit_logistic(Z, np.ones(19))


def test_logistic_separable_data_diverges():
    Z = np.column_stack([np.ones(20), np.linspace(-2.0, 2.0, 20)])
    y = (Z[:, 1] > 0).astype(float)
    with pytest.raises(FitDiverged):
        fit_logistic(Z, y)


def test_cumlink_recovers_truth(rng):
    beta_true = np.array([0.7, -0.4])
    theta_true = np.array([-0.8, 0.6])
    Z = rng.standard_normal((6000, 2))
    y = sample_cumlink(rng, Z, beta_true, theta_true)
    fit = fit_cumlink(Z, y)
    assert np.allclose(fit.beta, beta_true, atol=0.15)
    assert np.allclose(fit.theta_cuts, theta_true, atol=0.15)
    assert np.array_equal(fit.categories, np.array([0.0, 1.0, 2.0]))
    assert np.all(np.diff(fit.theta_cuts) > 0)


def test_cumlink_score_vanishes_at_fit(rng):
    beta_true = np.array([0.5])
    theta_true = np.array([-0.5, 0.7])
    Z = rng.standard_normal((500, 1))
    y = sample_cumlink(rng, Z, beta_true, theta_true)
    fit = fit_cumlink(Z, y)
    h = 1e-6
    base = np.concatenate([fit.beta, fit.theta_cuts])

    def ll(params):
        total = 0.0
        for zi, yi in zip(Z, y):
            total += np.log(cumlink_pi(zi, params[:1], params[1:])[int(yi)])
        return total

    for a in range(base.shape[0]):
        up, dn = base.copy(), base.copy()
        up[a] += h
        dn[a] -= h
        assert abs(ll(up) - ll(dn)) / (2 * h) <= 1e-4
    assert fit.loglik == pytest.approx(ll(base), rel=1e-10)


def test_cumlink_spec_roundtrip(rng):
    Z = rng.standard_normal((400, 1))
    y = sample_cumlink(rng, Z, np.array([0.6]), np.array([0.0]))
    fit = fit_cumlink(Z, y)
    spec = fit.spec
    assert np.allclose(spec.beta, fit.beta)
    assert spec.n_categories == 2


def test_cumlink_rejects_degenerate_responses(rng):
    Z = rng.standard_normal((30, 2))
    with pytest.raises(FitDiverged):
        fit_cumlink(Z, np.zeros(30))
    with pytest.raises(FitDiverged):
        fit_cumlink(Z, np.zeros(29))


def test_cumlink_separable_data_diverges():
    Z = np.linspace(-3.0, 3.0, 40)[:, None]
    y = (Z[:, 0] > 0).astype(float)
    with pytest.raises(FitDiverged):
        fit_cumlink(Z, y)
