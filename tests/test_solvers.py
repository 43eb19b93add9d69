from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchdesign import (
    CriterionSpec,
    CumulativeLinkSpec,
    Measure,
    SolverConfig,
    as_atom_set,
    build_info_state,
    cumlink_atoms,
    efficiency_bounds,
    measure_of_sample,
    phi_p_scores,
    round_to_sample,
    sg_measure,
    solve_hybrid,
)
from batchdesign import solvers
from batchdesign.errors import DimensionMismatch, InfeasibleEpsilon, SingularInformation

from helpers import best_subset, gaussian_pool, phi_of_subset, random_feasible, tau


def _cfg(eps, **kw):
    return SolverConfig(epsilon=eps, **kw)


def _boost(w, sg, X, spec):
    """One boost step from w toward sg: (w_next, alpha)."""
    aset = as_atom_set(X)
    ev = solvers._evaluate(aset, w, spec)
    ev = replace(ev, sg=sg, lin=float(sg.weights @ ev.scores))
    return solvers._boost_once(aset, w, ev, spec)


def test_config_validation_and_modes():
    for bad in (-0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            SolverConfig(epsilon=bad)
    with pytest.raises(ValueError):
        SolverConfig(v0=0.0)
    with pytest.raises(ValueError):
        SolverConfig(v=2.0)
    cfg = SolverConfig(v0=1e-3, v=1e-6)
    assert cfg.refine_enabled and cfg.target_gap == 1e-6
    assert not SolverConfig(v0=1e-3, v=1e-3).refine_enabled
    assert SolverConfig(v0=1e-3, v=1e-3).target_gap == 1e-3
    assert not SolverConfig(v0=1e-6, v=1e-3).refine_enabled


@pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
def test_relaxation_bound_transfers_to_every_subset(rng, p):
    spec = CriterionSpec(p=p)
    for _ in range(3):
        X = gaussian_pool(rng, 8, 2)
        n = 3
        res = solve_hybrid(X, spec, _cfg(1.0 / n, v=1e-9))
        assert res.converged
        certified = res.phi_value * (1.0 - max(res.gap_ratio, 0.0))
        combo, best_phi, table = best_subset(X, n, spec)
        # the relaxation optimum lower-bounds every feasible subset
        for value in table.values():
            assert value * (1.0 + 1e-9) >= certified
        assert best_phi * (1.0 + 1e-9) >= certified


def test_random_starts_agree(rng):
    # the boost target v0 sets where refinement takes over, so each v0 hands
    # the active-set phase a different start
    X = gaussian_pool(rng, 30, 3)
    spec = CriterionSpec(p=1.0)
    values = []
    for v0 in (0.9, 1e-2, 1e-4, 1e-6):
        res = solve_hybrid(X, spec, _cfg(0.1, v0=v0, v=1e-8))
        assert res.converged
        values.append(res.phi_value)
    values = np.array(values)
    assert values.max() - values.min() <= 1e-6 * values.min()


def test_determinant_solution_bounds_leverages(rng):
    # at a v-optimal weighting for p = 0 the best feasible average of raw
    # leverages x^T M^-1 x cannot exceed k (1 + v)
    X = gaussian_pool(rng, 200, 5)
    eps = 1.0 / 20.0
    v = 1e-6
    res = solve_hybrid(X, CriterionSpec(p=0.0), _cfg(eps, v=v))
    assert res.converged
    state = build_info_state(X, res.w, CriterionSpec(p=0.0))
    raw = np.einsum("ni,ni->n", X @ state.M_inv, X)
    best = sg_measure(raw, eps)
    lin = float(best.weights @ raw)
    assert 5.0 - 1e-9 <= lin <= 5.0 * (1.0 + v + 1e-9)


def test_trace_monotone_and_phases(rng):
    X = gaussian_pool(rng, 60, 4)
    res = solve_hybrid(X, CriterionSpec(p=2.0), _cfg(0.05, v=1e-7))
    assert res.converged
    assert res.trace.is_monotone()
    counts = res.trace.counts()
    assert counts.get("boost", 0) >= 1
    assert res.iterations["refine"] >= 0
    assert set(res.trace.phase_seconds()) <= {"boost", "refine"}


def test_boost_only_stops_at_coarse_gap(rng):
    # v = v0 is a boost-only solve
    X = gaussian_pool(rng, 40, 3)
    res = solve_hybrid(X, CriterionSpec(p=1.0), _cfg(0.1, v0=1e-3, v=1e-3))
    assert res.iterations["refine"] == 0
    assert res.converged
    assert res.gap_ratio <= 1e-3


def test_pinned_points_stay_at_cap(rng):
    X = gaussian_pool(rng, 25, 3)
    pinned = np.array([4, 11, 17])
    res = solve_hybrid(X, CriterionSpec(p=1.0), _cfg(0.08, v=1e-7), pinned=pinned)
    assert res.converged
    assert np.allclose(res.w.weights[pinned], 0.08, atol=1e-10)


def test_pinned_solution_optimal_among_constrained(rng):
    # with pins the certificate is against measures that keep the pins capped
    X = gaussian_pool(rng, 12, 2)
    pinned = np.array([0, 1])
    eps = 0.25
    spec = CriterionSpec(p=1.0)
    res = solve_hybrid(X, spec, _cfg(eps, v=1e-9), pinned=pinned)
    assert res.converged
    for _ in range(20):
        w = random_feasible(np.random.default_rng(_), 12, eps, measure=False)
        w[pinned] = eps
        w[~np.isin(np.arange(12), pinned)] *= (1.0 - 2 * eps) / w[
            ~np.isin(np.arange(12), pinned)
        ].sum()
        phi = build_info_state(X, w, spec).phi_value
        assert phi * (1.0 + 1e-9) >= res.phi_value * (1.0 - max(res.gap_ratio, 0.0))


def test_infeasible_epsilon_raises(rng):
    X = gaussian_pool(rng, 5, 2)
    with pytest.raises(InfeasibleEpsilon):
        solve_hybrid(X, CriterionSpec(p=0.0), _cfg(0.1))
    with pytest.raises(InfeasibleEpsilon):
        solve_hybrid(X, CriterionSpec(p=0.0), _cfg(0.5), pinned=np.arange(4))
    with pytest.raises(ValueError):
        solve_hybrid(X, CriterionSpec(p=0.0), SolverConfig())


def test_boost_step_is_stationary_at_fixed_point(rng):
    X = gaussian_pool(rng, 15, 3)
    spec = CriterionSpec(p=1.0)
    w = random_feasible(rng, 15, 0.2)
    w_next, alpha = _boost(w, w, X, spec)
    assert alpha == 0.0
    assert np.allclose(w_next.weights, w.weights)
    # one interior weight moved by 1e-12 is still a legal measure (SUM_TOL is
    # 1e-10); the directional derivative is then pure roundoff, not descent
    interior = np.flatnonzero((w.weights > 1e-9) & (w.weights < 0.2 - 1e-9))
    assert interior.size
    for i in interior:
        for delta in (1e-12, -1e-12):
            wts = w.weights.copy()
            wts[i] += delta
            moved = Measure(wts, 0.2)
            w_next, alpha = _boost(moved, moved, X, spec)
            assert alpha == 0.0, (i, delta)
            assert np.array_equal(w_next.weights, moved.weights)


def test_boost_step_descends(rng):
    X = gaussian_pool(rng, 20, 3)
    spec = CriterionSpec(p=0.0)
    w = Measure(np.full(20, 0.05), 0.1)
    aset = as_atom_set(X)
    ev = solvers._evaluate(aset, w, spec)
    w_next, alpha = solvers._boost_once(aset, w, ev, spec)
    assert 0.0 < alpha <= 0.25
    phi_after = build_info_state(X, w_next, spec).phi_value
    assert phi_after <= ev.state.phi_value + 1e-12


def test_boost_step_with_singular_curvature_probes_takes_capped_step():
    # w is nearly singular along e_2, so both curvature probes (alpha = -1e-4
    # and -1e-5) leave the PD cone; tau = 0 makes the step the cap r
    X = np.eye(2)
    spec = CriterionSpec(p=1.0)
    w = Measure(np.array([1.0 - 1e-7, 1e-7]), 1.0)
    sg = Measure(np.array([0.5, 0.5]), 1.0)
    with pytest.raises(SingularInformation):
        tau(sg, w, X, spec)
    w_next, alpha = _boost(w, sg, X, spec)
    assert alpha == 0.25
    assert np.allclose(w_next.weights, 0.75 * w.weights + 0.25 * sg.weights, rtol=1e-15)


def test_restricted_never_increases(rng):
    spec = CriterionSpec(p=2.0)
    for _ in range(5):
        X = gaussian_pool(rng, 18, 3)
        w = random_feasible(rng, 18, 0.15)
        aset = as_atom_set(X)
        ev = solvers._evaluate(aset, w, spec)
        w_new, phi_ret, _, _ = solvers._restricted(aset, w, ev.sg, spec, None, ev.state.phi_value)
        phi_new = build_info_state(X, w_new, spec).phi_value
        assert phi_new == pytest.approx(phi_ret, rel=1e-12)
        assert phi_new <= ev.state.phi_value + 1e-12


def test_inner_cap_hits_counted(rng, monkeypatch):
    X = gaussian_pool(rng, 40, 3)
    spec = CriterionSpec(p=1.0)
    with monkeypatch.context() as m:
        m.setattr(solvers, "INNER_MAX_ITERS", 1)
        m.setattr(solvers, "MAX_OUTER_ITERS", 5)
        capped = solve_hybrid(X, spec, _cfg(0.1, v=1e-9))
    assert capped.inner_iterations > 0
    assert 0 < capped.inner_cap_hits <= capped.iterations["refine"] == 5
    assert capped.trace.is_monotone()
    roomy = solve_hybrid(X, spec, _cfg(0.1, v=1e-9))
    assert roomy.converged and roomy.inner_cap_hits == 0


@pytest.mark.parametrize("p", [0.0, 2.0])
def test_each_iterate_evaluated_once(rng, monkeypatch, p):
    # the boost-to-refine hand-off iterate is evaluated and recorded once:
    # one evaluation for the start and one after every move
    calls = Counter()
    N = 0

    def count(fn, moved):
        def wrapped(aset, *args, **kwargs):
            out = fn(aset, *args, **kwargs)
            calls[fn.__name__] += 1
            calls["full-pool " + fn.__name__] += len(aset) == N
            calls["moves"] += moved(out)
            return out
        monkeypatch.setattr(solvers, fn.__name__, wrapped)

    count(solvers._evaluate, lambda out: 0)
    count(solvers._restricted, lambda out: 1)
    count(solvers._boost_once, lambda out: out[1] > 0.0)
    # N = 5 / eps runs the whole-pool loop; N = 10 / eps is screened
    for N in (150, 300):
        calls.clear()
        X = gaussian_pool(rng, N, 4)
        res = solve_hybrid(X, CriterionSpec(p=p), _cfg(1.0 / 30, v=1e-9))
        assert res.converged and res.iterations["refine"] >= 1
        assert res.iterations["refine"] == calls["_restricted"]
        if N == 150:
            assert res.working_set == N and res.iterations["screen"] == 0
            assert calls["_evaluate"] == calls["moves"] + 1 == len(res.trace)
            continue
        # every move is made on the working set, and the full pool is
        # evaluated only by the screen's checks
        assert res.working_set < N
        assert calls["full-pool _restricted"] == calls["full-pool _boost_once"] == 0
        checks = calls["full-pool _evaluate"]
        assert calls["_evaluate"] - checks == calls["moves"] + 1 == len(res.trace)
        assert checks == res.iterations["screen"] >= 2


def test_efficiency_bounds_bracket(rng):
    X = gaussian_pool(rng, 20, 3)
    spec = CriterionSpec(p=1.0)
    res = solve_hybrid(X, spec, _cfg(0.1, v=1e-9))
    eb_self = efficiency_bounds(res.w, res.w, X, spec)
    assert eb_self.ratio == pytest.approx(1.0, rel=1e-12)
    assert eb_self.certified_lower_bound <= 1.0
    assert eb_self.certified_lower_bound >= 1.0 - 2e-9
    # a deliberately bad candidate scores low but the bracket stays ordered
    bad = random_feasible(rng, 20, 0.1)
    eb = efficiency_bounds(bad, res.w, X, spec)
    assert eb.certified_lower_bound <= eb.ratio <= 1.0 + 1e-8
    phi_bad = build_info_state(X, bad, spec).phi_value
    assert phi_bad * eb.certified_lower_bound <= res.phi_value * (1.0 + 1e-12)


def test_efficiency_bounds_reject_a_candidate_above_the_cap(rng):
    X = gaussian_pool(rng, 12, 2)
    spec = CriterionSpec(p=0.0)
    res = solve_hybrid(X, spec, _cfg(0.1))
    sample = round_to_sample(res.w, 4, res.scores)
    with pytest.raises(InfeasibleEpsilon, match="exceeds the solved cap"):
        efficiency_bounds(measure_of_sample(sample, 12), res.w, X, spec)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_certificate_never_exceeds_brute_force_efficiency(rng, p):
    # at a cap below 1/n the n-point sample is outside the relaxation, whose
    # optimum can then beat every sample: a bound taken from it overshot the
    # true efficiency on every such instance tried, by up to 0.53
    n, spec = 4, CriterionSpec(p=p)
    for _ in range(10):
        X = gaussian_pool(rng, 12, 2)
        _, best_phi, _ = best_subset(X, n, spec)
        for eps in (0.1, 1.0 / n):
            res = solve_hybrid(X, spec, _cfg(eps, v=1e-9))
            sample = round_to_sample(res.w, n, res.scores)
            true_eff = best_phi / phi_of_subset(X, sample.indices, spec)
            try:
                eb = efficiency_bounds(measure_of_sample(sample, 12), res.w, X, spec)
            except InfeasibleEpsilon:
                assert eps < 1.0 / n
                continue
            assert eb.certified_lower_bound <= true_eff * (1.0 + 1e-9)


def test_rounding_certificate_on_tiny_instance(rng):
    # end to end: solve, round to n points, certify the sample's efficiency
    X = gaussian_pool(rng, 9, 2)
    n, spec = 3, CriterionSpec(p=1.0)
    res = solve_hybrid(X, spec, _cfg(1.0 / n, v=1e-9))
    sample = round_to_sample(res.w, n, res.scores)
    assert len(sample) == n
    w_s = measure_of_sample(sample, 9)
    eb = efficiency_bounds(w_s, res.w, X, spec)
    phi_s = phi_of_subset(X, sample.indices, spec)
    _, best_phi, _ = best_subset(X, n, spec)
    true_eff = best_phi / phi_s
    assert eb.certified_lower_bound <= true_eff * (1.0 + 1e-9)


def test_pinned_input_validated_up_front(rng):
    X = gaussian_pool(rng, 300, 4)
    spec, cfg = CriterionSpec(p=1.0), _cfg(1.0 / 30)
    for bad in ([5000], [-1], np.array([1.5]), np.zeros(10, dtype=bool), [[0, 1]]):
        with pytest.raises(DimensionMismatch):
            solve_hybrid(X, spec, cfg, pinned=bad)
    # a repeated index pins its point once: 31 copies fit under a cap of 1/30
    once = solve_hybrid(X, spec, cfg, pinned=[0])
    repeated = solve_hybrid(X, spec, cfg, pinned=[0] * 31)
    assert np.array_equal(once.w.weights, repeated.w.weights)
    assert once.w.weights[0] == pytest.approx(1.0 / 30, abs=1e-12)
    mask = np.zeros(300, dtype=bool)
    mask[[3, 7]] = True
    by_mask = solve_hybrid(X, spec, cfg, pinned=mask)
    assert np.array_equal(by_mask.w.weights, solve_hybrid(X, spec, cfg, pinned=[7, 3]).w.weights)
    # unsigned pins index the screened working set like signed ones
    unsigned = solve_hybrid(X, spec, cfg, pinned=np.array([3, 7], dtype=np.uint64))
    assert np.array_equal(by_mask.w.weights, unsigned.w.weights)


def _assert_full_pool_result(atoms, res, spec, v, pinned=None):
    # scores and gap of the returned weights, recomputed on the whole pool
    aset = as_atom_set(atoms)
    state = build_info_state(aset, res.w, spec)
    scores = phi_p_scores(aset, state, spec)
    ranked = scores.copy()
    if pinned is not None:
        ranked[pinned] = scores.max() + 1.0
        assert np.allclose(res.w.weights[pinned], res.w.epsilon, atol=1e-10)
    lin = float(sg_measure(ranked, res.w.epsilon).weights @ scores)
    gap = (lin - state.phi_value) / state.phi_value
    np.testing.assert_allclose(res.scores, scores, rtol=1e-9)
    assert res.phi_value == pytest.approx(state.phi_value, rel=1e-12)
    assert res.gap_ratio == pytest.approx(gap, rel=1e-6, abs=1e-12)
    assert res.converged and gap <= v


def _whole_pool(*args, **kwargs):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solvers, "SCREEN_FACTOR", 1e12)
        res = solve_hybrid(*args, **kwargs)
    assert res.iterations["screen"] == 0 and res.working_set == len(as_atom_set(args[0]))
    return res


def _assert_same_solve(a, b):
    assert np.array_equal(a.w.weights, b.w.weights)
    assert np.array_equal(a.scores, b.scores)
    fields = ("phase", "phi_value", "gap_ratio", "alpha", "t1_size", "t2_size")
    assert [[getattr(r, f) for f in fields] for r in a.trace.records] == \
        [[getattr(r, f) for f in fields] for r in b.trace.records]
    assert (a.iterations["boost"], a.iterations["refine"]) == \
        (b.iterations["boost"], b.iterations["refine"])


@settings(max_examples=25)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12), width=st.integers(6, 10),
       k=st.integers(2, 4), p=st.sampled_from([0.0, 1.0, 2.0]), pins=st.integers(0, 3))
def test_screened_solve_certifies_on_the_full_pool(seed, n, width, k, p, pins):
    # N >= 6 / eps, so the pool is screened; the result is a full-pool
    # solution at gap v, and its Phi_p agrees with the whole-pool solve's
    rng = np.random.default_rng(seed)
    N, v = width * n, 1e-6
    X = gaussian_pool(rng, N, k)
    pinned = rng.choice(N, size=pins, replace=False) if pins else None
    spec, cfg = CriterionSpec(p=p), _cfg(1.0 / n, v=v)
    res = solve_hybrid(X, spec, cfg, pinned=pinned)
    assert res.iterations["screen"] >= 1
    assert res.trace.is_monotone()
    _assert_full_pool_result(X, res, spec, v, pinned)
    whole = _whole_pool(X, spec, cfg, pinned=pinned)
    assert abs(res.phi_value / whole.phi_value - 1.0) <= v / (1.0 - v) + 1e-12


def test_screened_solve_on_matrix_atoms(rng):
    # a cumulative-link pool: k x k atoms, focused on the regression block
    Z = rng.standard_normal((400, 2))
    model = CumulativeLinkSpec(np.array([0.8, -0.5]), np.array([-0.5, 0.7]))
    atoms = cumlink_atoms(Z, model)
    v = 1e-6
    for spec in (CriterionSpec(p=2.0), CriterionSpec(p=1.0, G=model.beta_selector)):
        cfg = _cfg(1.0 / 20, v=v)
        res = solve_hybrid(atoms, spec, cfg)
        assert res.working_set < 400 and res.trace.is_monotone()
        _assert_full_pool_result(atoms, res, spec, v)
        whole = _whole_pool(atoms, spec, cfg)
        assert abs(res.phi_value / whole.phi_value - 1.0) <= v / (1.0 - v) + 1e-12


def test_heavy_tailed_pool_falls_back_to_the_whole_pool():
    # uniform-weight leverage misjudges a Cauchy pool: the boosted pilot's
    # full-pool gap is far above v0, and today's whole-pool solve runs instead
    rng = np.random.default_rng(3)
    X = np.hstack([np.ones((200, 1)), rng.standard_cauchy((200, 2))])
    spec, cfg = CriterionSpec(p=1.0), _cfg(1.0 / 10)
    res = solve_hybrid(X, spec, cfg)
    assert res.working_set == 200 and res.iterations["screen"] == 1
    _assert_same_solve(res, _whole_pool(X, spec, cfg))
    _assert_full_pool_result(X, res, spec, cfg.v)


def test_undersized_working_set_falls_back_to_the_whole_pool(monkeypatch):
    # a working set of 1.5 / eps points passes the pilot but misses points of
    # the optimum, so the refined iterate's full-pool check falls short and
    # the whole-pool solve runs from its usual start
    X = gaussian_pool(np.random.default_rng(0), 300, 4)
    spec, cfg = CriterionSpec(p=1.0), _cfg(1.0 / 30)
    whole = _whole_pool(X, spec, cfg)
    monkeypatch.setattr(solvers, "SCREEN_FACTOR", 1.5)
    res = solve_hybrid(X, spec, cfg)
    assert res.iterations["screen"] == 2 and res.working_set == 300
    assert res.trace.is_monotone()
    _assert_same_solve(res, whole)
    _assert_full_pool_result(X, res, spec, cfg.v)


@pytest.mark.parametrize("N, n", [(150, 30), (3000, 600), (151, 30)])
def test_whole_pool_up_to_five_over_epsilon(N, n):
    # 5 / eps lands on N exactly in floating point for both caps; such a pool
    # runs the whole-pool loop with no full-pool check, one point more is screened
    X = gaussian_pool(np.random.default_rng(N), N, 3)
    spec, cfg = CriterionSpec(p=0.0), _cfg(1.0 / n)
    res = solve_hybrid(X, spec, cfg)
    _assert_full_pool_result(X, res, spec, cfg.v)
    if N <= 5 * n:
        assert res.iterations["screen"] == 0 and res.working_set == N
        _assert_same_solve(res, _whole_pool(X, spec, cfg))
    else:
        assert res.iterations["screen"] >= 1
