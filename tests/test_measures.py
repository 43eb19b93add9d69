import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from batchdesign import (
    Measure,
    SampleSet,
    measure_of_sample,
    project_capped_simplex,
    psg_measure,
    round_to_sample,
    sg_measure,
    trichotomy_check,
)
from batchdesign.errors import InfeasibleEpsilon, InfeasibleMass, PositivityRepairFailed
from batchdesign.measures import MASS_TOL, _greedy_linear_max, active_set_split

from helpers import greedy_linear_max_sorted, project_capped_simplex_sorted, round_to_sample_lexsort


def test_measure_validation():
    Measure(np.array([0.5, 0.5, 0.0]), 0.5)
    with pytest.raises(ValueError):
        Measure(np.array([0.6, 0.4, 0.0]), 0.5)
    with pytest.raises(ValueError):
        Measure(np.array([-0.1, 0.6, 0.5]), 0.6)
    with pytest.raises(ValueError):
        Measure(np.array([0.4, 0.4, 0.0]), 0.5)
    with pytest.raises(InfeasibleEpsilon):
        Measure(np.array([0.3, 0.3, 0.3]), 0.3)
    w = Measure(np.array([0.5, 0.5]), 0.5)
    with pytest.raises(ValueError):
        w.weights[0] = 0.2


def test_sample_set_normalizes():
    s = SampleSet((3, 1, 2))
    assert s.indices == (1, 2, 3)
    assert len(s) == 3
    with pytest.raises(ValueError):
        SampleSet((1, 1))
    with pytest.raises(ValueError):
        SampleSet((-1, 2))


def test_sg_measure_frozen_examples():
    # floor(1/0.4) = 2 points at the cap, residual 0.2 on the next;
    # the score tie between indices 1 and 2 resolves to the lower index first
    w = sg_measure(np.array([1.0, 2.0, 2.0, 0.0]), 0.4)
    assert np.allclose(w.weights, [0.2, 0.4, 0.4, 0.0])
    w = sg_measure(np.array([5.0, 1.0, 4.0, 3.0, 2.0]), 0.25)
    assert np.allclose(w.weights, [0.25, 0.0, 0.25, 0.25, 0.25])
    with pytest.raises(InfeasibleEpsilon):
        sg_measure(np.ones(3), 0.25)
    with pytest.raises(ValueError):
        sg_measure(np.array([1.0, np.nan]), 1.0)


@given(seed=st.integers(0, 2**32 - 1))
def test_sg_measure_maximizes_linear_objective(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(4, 12))
    eps = float(rng.uniform(1.05 / N, 0.6))
    scores = rng.standard_normal(N)
    w = sg_measure(scores, eps)
    res = linprog(
        -scores, A_eq=np.ones((1, N)), b_eq=[1.0], bounds=[(0.0, eps)] * N, method="highs"
    )
    assert res.status == 0
    assert float(scores @ w.weights) == pytest.approx(-res.fun, abs=1e-9)


def test_psg_repairs_singular_top_scores():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    scores = np.array([3.0, 2.0, 1.0])
    fallback = Measure(np.array([1.0, 1.0, 1.0]) / 3.0, 0.5)
    w = psg_measure(scores, 0.5, X, fallback)
    M = (X * w.weights[:, None]).T @ X
    assert np.linalg.eigvalsh(M)[0] > 0
    # the repair is a small blend toward the fallback
    sg = sg_measure(scores, 0.5)
    delta = w.weights[2] / fallback.weights[2]
    assert 0 < delta <= 1e-2
    assert np.allclose(w.weights, (1 - delta) * sg.weights + delta * fallback.weights)


def test_psg_keeps_plain_measure_when_already_pd():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    fallback = Measure(np.ones(3) / 3.0, 0.5)
    w = psg_measure(np.array([2.0, 1.0, 0.0]), 0.5, X, fallback)
    assert np.allclose(w.weights, [0.5, 0.5, 0.0])


def test_psg_gives_up_on_collinear_pool():
    X = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    fallback = Measure(np.ones(3) / 3.0, 0.5)
    with pytest.raises(PositivityRepairFailed):
        psg_measure(np.array([1.0, 2.0, 3.0]), 0.5, X, fallback)


def test_projection_frozen_example():
    u = project_capped_simplex(np.array([0.9, 0.5, 0.1]), 0.6, 1.0)
    assert np.allclose(u, [0.6, 0.4, 0.0], atol=1e-12)


def test_projection_edges():
    assert np.allclose(project_capped_simplex(np.array([1.0, 2.0]), 0.5, 1.0), [0.5, 0.5])
    assert np.allclose(project_capped_simplex(np.array([1.0, 2.0]), 0.7, 0.0), [0.0, 0.0])
    with pytest.raises(InfeasibleMass):
        project_capped_simplex(np.array([1.0, 2.0]), 0.4, 1.0)
    with pytest.raises(InfeasibleMass):
        project_capped_simplex(np.array([1.0, 2.0]), 0.4, -0.5)


@given(seed=st.integers(0, 2**32 - 1))
def test_projection_variational_inequality(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(3, 15))
    eps = float(rng.uniform(1.05 / N, 0.9))
    v = rng.standard_normal(N)
    u = project_capped_simplex(v, eps, 1.0)
    assert abs(u.sum() - 1.0) <= 1e-9
    assert u.min() >= -1e-15 and u.max() <= eps + 1e-12
    # optimality of the projection: (v - u) . (z - u) <= 0 for feasible z
    for _ in range(5):
        z = sg_measure(rng.standard_normal(N), eps).weights
        assert float((v - u) @ (z - u)) <= 1e-8
    # idempotency
    assert np.allclose(project_capped_simplex(u, eps, 1.0), u, atol=1e-9)


kernel_inputs = dict(
    seed=st.integers(0, 2**32 - 1),
    dist=st.sampled_from(["gaussian", "cauchy", "tied"]),
    scale=st.sampled_from([1e-8, 1e-4, 1.0, 1e3]),
    mass_kind=st.sampled_from(["interior", "below_cap", "full"]),
    pin=st.booleans(),
)


def _kernel_case(seed, dist, scale, mass_kind, pin):
    """Scores, cap and mass for the kernel-against-oracle properties.

    "tied" rounds Gaussian draws to a half-unit grid, so most values repeat;
    pinned points get max + 1, the way the solvers pin purchased points.
    """
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 200))
    if dist == "gaussian":
        v = rng.standard_normal(m)
    elif dist == "cauchy":
        v = rng.standard_cauchy(m)
    else:
        v = np.round(2.0 * rng.standard_normal(m)) / 2.0
    v = scale * v
    if pin:
        v[rng.random(m) < 0.3] = v.max() + 1.0
    eps = float(rng.uniform(0.01, 1.0))
    if mass_kind == "interior":
        mass = float(rng.uniform(0.0, m * eps))
    elif mass_kind == "below_cap":
        mass = float(rng.uniform(0.0, eps))
    else:
        mass = m * eps
    return v, eps, mass


@given(**kernel_inputs)
def test_greedy_linear_max_matches_stable_argsort(seed, dist, scale, mass_kind, pin):
    v, eps, mass = _kernel_case(seed, dist, scale, mass_kind, pin)
    assert np.array_equal(_greedy_linear_max(v, eps, mass), greedy_linear_max_sorted(v, eps, mass))


@given(**kernel_inputs)
def test_projection_matches_sorted_breakpoints(seed, dist, scale, mass_kind, pin):
    v, eps, mass = _kernel_case(seed, dist, scale, mass_kind, pin)
    u = project_capped_simplex(v, eps, mass)
    # the oracle's lam sits on the float grid of v, one spacing of max|v| apart
    tol = 1e-8 * eps + np.spacing(np.abs(v).max())
    assert np.max(np.abs(u - project_capped_simplex_sorted(v, eps, mass))) <= tol
    assert abs(float(u.sum()) - mass) <= MASS_TOL * max(1.0, mass)
    assert u.min() >= 0.0 and u.max() <= eps


def test_round_to_sample_tie_breaks():
    w = Measure(np.full(4, 0.25), 0.25)
    assert round_to_sample(w, 2, np.array([1.0, 3.0, 2.0, 0.0])).indices == (1, 2)
    assert round_to_sample(w, 2, np.zeros(4)).indices == (0, 1)
    # weight tie between 0 and 3 goes to the larger score at index 0
    big = Measure(np.array([0.1, 0.4, 0.4, 0.1]), 0.4)
    assert round_to_sample(big, 3, np.array([9.0, 0.0, 0.0, 1.0])).indices == (0, 1, 2)
    with pytest.raises(ValueError):
        round_to_sample(w, 0, np.zeros(4))
    with pytest.raises(ValueError):
        round_to_sample(w, 5, np.zeros(4))
    # pinned points come first, even at the lowest weight
    assert round_to_sample(big, 2, np.zeros(4), pinned=[3]).indices == (1, 3)
    with pytest.raises(ValueError, match="exceed the budget"):
        round_to_sample(w, 1, np.zeros(4), pinned=[0, 1])


@settings(max_examples=200)
@given(st.data())
def test_round_to_sample_matches_full_pool_lexsort(data):
    # few weight and score levels, so ties at the cap, in the scores and
    # among zeros are common; n runs up to N, past the nonzero count
    N = data.draw(st.integers(1, 40))
    levels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=N, max_size=N)), dtype=float)
    levels[0] += levels.sum() == 0
    weights = levels / levels.sum()
    w = Measure(weights, weights.max())
    scores = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=N, max_size=N)), dtype=float)
    n = data.draw(st.integers(1, N))
    assert round_to_sample(w, n, scores) == round_to_sample_lexsort(w, n, scores)
    # pinned points are taken first, whatever their weights
    pinned = np.array(data.draw(st.lists(st.integers(0, N - 1), max_size=n, unique=True)), dtype=int)
    got = round_to_sample(w, n, scores, pinned=pinned)
    assert got == round_to_sample_lexsort(w, n, scores, pinned)
    assert set(pinned.tolist()) <= set(got.indices)


def test_measure_of_sample_roundtrip():
    s = SampleSet((0, 3, 4))
    w = measure_of_sample(s, 6)
    assert w.epsilon == pytest.approx(1.0 / 3.0)
    assert np.allclose(w.weights, [1 / 3, 0.0, 0.0, 1 / 3, 1 / 3, 0.0])
    with pytest.raises(ValueError):
        measure_of_sample(SampleSet((7,)), 6)
    with pytest.raises(ValueError):
        measure_of_sample(SampleSet(()), 6)


def test_active_set_split():
    a = Measure(np.array([0.5, 0.5, 0.0, 0.0]), 0.5)
    b = Measure(np.array([0.5, 0.3, 0.2, 0.0]), 0.5)
    at_cap, at_zero = active_set_split(a, b)
    assert at_cap.tolist() == [True, False, False, False]
    assert at_zero.tolist() == [False, False, False, True]


def test_trichotomy_accepts_threshold_structure():
    w = Measure(np.array([0.4, 0.4, 0.2, 0.0]), 0.4)
    lev = np.array([2.0, 1.9, 1.5, 1.0])
    rep = trichotomy_check(w, lev, tol=1e-3)
    assert rep.passed and rep.violations == ()
    assert rep.c_low == pytest.approx(1.0)
    assert rep.c_high == pytest.approx(1.9)
    assert rep.c_interior == pytest.approx(1.5)


def test_trichotomy_flags_misordered_leverages():
    w = Measure(np.array([0.4, 0.4, 0.2, 0.0]), 0.4)
    lev = np.array([2.0, 1.0, 1.5, 1.8])
    rep = trichotomy_check(w, lev, tol=1e-3)
    assert not rep.passed
    assert 1 in rep.violations and 3 in rep.violations


def test_trichotomy_no_interior_cases():
    w = Measure(np.array([0.5, 0.5, 0.0, 0.0]), 0.5)
    good = trichotomy_check(w, np.array([2.0, 1.9, 1.0, 0.5]), tol=1e-3)
    assert good.passed
    bad = trichotomy_check(w, np.array([2.0, 0.5, 1.0, 1.9]), tol=1e-3)
    assert not bad.passed
    assert 1 in bad.violations and 3 in bad.violations
