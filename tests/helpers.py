"""Shared test oracles, coded independently of the library internals.

The exception is ``tau``: it runs criteria._tau_blend, the curvature the
boost step uses, so the tests of ``tau`` test that code.
"""

import csv
from itertools import combinations

import numpy as np

from batchdesign import (
    CriterionSpec,
    Measure,
    SampleSet,
    as_atom_set,
    build_info_state,
    measure_of_sample,
    phi_p_scores,
    project_capped_simplex,
)
from batchdesign.criteria import _tau_blend, info_state_from_m
from batchdesign.errors import SingularInformation
from batchdesign.measures import MASS_TOL


def gaussian_pool(rng, N, k, intercept=True):
    X = rng.standard_normal((N, k))
    if intercept:
        X[:, 0] = 1.0
    return X


def random_feasible(rng, N, eps, measure=True):
    """Uniformly-ish random point of the capped simplex via projection."""
    w = project_capped_simplex(rng.random(N), eps, 1.0)
    return Measure(w, eps) if measure else w


def greedy_linear_max_sorted(scores, epsilon, mass):
    """Reference for measures._greedy_linear_max: a full stable argsort."""
    n = scores.shape[0]
    order = np.argsort(-scores, kind="stable")
    full = min(int(np.floor(mass / epsilon + 1e-9)), n)
    u = np.zeros(n)
    u[order[:full]] = epsilon
    resid = mass - full * epsilon
    if resid > MASS_TOL:
        u[order[full]] = resid
    return u


def project_capped_simplex_sorted(v, epsilon, mass):
    """Reference for measures.project_capped_simplex on a feasible mass.

    Sorts the 2m breakpoints {v_i - eps, v_i} of the mass function
    g(lam) = sum_i clip(v_i - lam, 0, eps), interpolates lam on the linear
    segment that brackets the mass, then absorbs the interpolation roundoff
    with fixed-pattern Newton passes.
    """
    v = np.asarray(v, dtype=float)
    m = v.shape[0]
    cap = m * epsilon
    mass = min(max(mass, 0.0), cap)
    if mass == 0.0:
        return np.zeros(m)
    if mass == cap:
        return np.full(m, epsilon)
    vs = np.sort(v)
    prefix = np.concatenate(([0.0], np.cumsum(vs)))

    def g_at(lams):
        lo = np.searchsorted(vs, lams, side="right")
        hi = np.searchsorted(vs, lams + epsilon, side="left")
        return epsilon * (m - hi) + (prefix[hi] - prefix[lo]) - lams * (hi - lo)

    b = np.sort(np.concatenate((vs - epsilon, vs)))
    g = g_at(b)
    j = int(np.searchsorted(-g, -mass, side="left"))
    if j == 0:
        lam = float(b[0])
    else:
        g_lo, g_hi = float(g[j - 1]), float(g[j])
        b_lo, b_hi = float(b[j - 1]), float(b[j])
        if g_lo <= g_hi or b_hi <= b_lo:
            lam = b_lo
        else:
            lam = b_lo + (g_lo - mass) * (b_hi - b_lo) / (g_lo - g_hi)
    for _ in range(4):
        u = np.clip(v - lam, 0.0, epsilon)
        resid = float(u.sum()) - mass
        if abs(resid) <= MASS_TOL:
            break
        free = int(np.count_nonzero((u > 0.0) & (u < epsilon)))
        if free == 0:
            break
        lam += resid / free
    return np.clip(v - lam, 0.0, epsilon)


def quad_forms_loop(X, B):
    """Reference for AtomSet.quad_forms on vector atoms: x_i^T B x_i row by row."""
    return np.array([x @ B @ x for x in X])


def weighted_sum_loop(X, w):
    """Reference for AtomSet.weighted_sum on vector atoms: sum of w_i x_i x_i^T."""
    M = np.zeros((X.shape[1], X.shape[1]))
    for wi, x in zip(w, X):
        M += wi * np.outer(x, x)
    return M


def phi_of_subset(atoms, idx, spec):
    w = measure_of_sample(SampleSet(tuple(int(i) for i in idx)), len(atoms))
    try:
        return build_info_state(atoms, w, spec).phi_value
    except SingularInformation:
        return np.inf


def enumerate_subsets(atoms, n, spec):
    """All size-n subsets with their criterion values (inf when singular)."""
    out = {}
    for combo in combinations(range(len(atoms)), n):
        out[combo] = phi_of_subset(atoms, combo, spec)
    return out


def best_subset(atoms, n, spec):
    table = enumerate_subsets(atoms, n, spec)
    combo = min(table, key=table.get)
    return combo, table[combo], table


def phi_direct(M, p, G=None):
    """Criterion value computed the straightforward way (naive oracle)."""
    M_inv = np.linalg.inv(M)
    Sigma = M_inv if G is None else G @ M_inv @ G.T
    q = Sigma.shape[0]
    lam = np.linalg.eigvalsh(0.5 * (Sigma + Sigma.T))
    if p == 0:
        return float(np.prod(lam) ** (1.0 / q))
    return float((np.sum(lam**p) / q) ** (1.0 / p))


def blend_phi(atoms, w_a, w_b, alpha, spec):
    wts = (1.0 - alpha) * np.asarray(w_a.weights) + alpha * np.asarray(w_b.weights)
    return build_info_state(atoms, wts, spec).phi_value


def _weights(w):
    return np.asarray(getattr(w, "weights", w), dtype=float)


def eta(w_prime, w, atoms, spec):
    """Derivative of the criterion at alpha = 0 along (1-alpha) w + alpha w_prime.

    Equals -(sum_i w'_i phi_p(x_i, w) - Phi_p), so it is nonnegative for every
    feasible w_prime exactly when w is optimal.
    """
    state = build_info_state(atoms, w, spec)
    scores = phi_p_scores(atoms, state, spec)
    return float(state.phi_value - _weights(w_prime) @ scores)


def tau(w_prime, w, atoms, spec):
    """Second derivative of the criterion along the segment from w to w_prime,
    by the boost step's finite difference on the blend of information matrices."""
    aset = as_atom_set(atoms)
    M0 = aset.weighted_sum(_weights(w))
    M1 = aset.weighted_sum(_weights(w_prime))
    return _tau_blend(M0, M1, spec, info_state_from_m(M0, spec).phi_value)


def sigmoid(t):
    return 1.0 / (1.0 + np.exp(-np.clip(t, -700, 700)))


def cumlink_pi(z, beta, theta):
    """Category probabilities of the proportional-odds model, coded directly."""
    t = np.asarray(theta, dtype=float) - float(np.dot(z, beta))
    gamma = np.concatenate([[0.0], sigmoid(t), [1.0]])
    return np.diff(gamma)


def cumlink_info_fd(z, beta, theta, h=1e-4):
    """Fisher information as the negated finite-difference Hessian of the
    exact expected log-likelihood (expectation over the J categories)."""
    z = np.asarray(z, dtype=float)
    beta = np.asarray(beta, dtype=float)
    theta = np.asarray(theta, dtype=float)
    d, J1 = beta.shape[0], theta.shape[0]
    k = d + J1
    p_true = cumlink_pi(z, beta, theta)

    def ell(params):
        pj = cumlink_pi(z, params[:d], params[d:])
        return float(p_true @ np.log(pj))

    base = np.concatenate([beta, theta])
    H = np.zeros((k, k))
    for a in range(k):
        for b in range(a, k):
            ea, eb = np.zeros(k), np.zeros(k)
            ea[a] = h
            eb[b] = h
            val = (
                ell(base + ea + eb)
                - ell(base + ea - eb)
                - ell(base - ea + eb)
                + ell(base - ea - eb)
            ) / (4.0 * h * h)
            H[a, b] = H[b, a] = val
    return -H


def sample_cumlink(rng, Z, beta, theta):
    """Draw ordinal responses 0..J-1 from the proportional-odds model."""
    t = np.asarray(theta)[None, :] - (Z @ beta)[:, None]
    gamma = np.hstack([np.zeros((Z.shape[0], 1)), sigmoid(t), np.ones((Z.shape[0], 1))])
    pi = np.diff(gamma, axis=1)
    u = rng.random(Z.shape[0])
    return (u[:, None] > np.cumsum(pi, axis=1)).sum(axis=1).astype(float)


def spd_criterion(p):
    return CriterionSpec(p=float(p))


def round_to_sample_lexsort(w, n, scores, pinned=None):
    """Reference for measures.round_to_sample: the pinned points, then one
    lexsort of all the other points."""
    pinned = np.asarray([] if pinned is None else pinned, dtype=int)
    free_mask = np.ones(len(w), dtype=bool)
    free_mask[pinned] = False
    free_idx = np.flatnonzero(free_mask)
    order = np.lexsort((free_idx, -np.asarray(scores, dtype=float)[free_idx], -w.weights[free_idx]))
    return SampleSet(tuple(np.concatenate([pinned, free_idx[order[:n - pinned.size]]])))


def write_weights_csv_reference(path, weights, scores, selected):
    """Reference for data_io.write_weights_csv: one csv.writer row per point."""
    sel = np.zeros(len(weights), dtype=int)
    sel[np.asarray(list(selected), dtype=int)] = 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "weight", "score", "selected"])
        for i in range(len(weights)):
            writer.writerow([i, f"{weights[i]:.17g}", f"{scores[i]:.17g}", sel[i]])
