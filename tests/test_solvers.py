import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from batchdesign import (
    AtomSet,
    CriterionSpec,
    CumulativeLinkSpec,
    LogisticModelSpec,
    Measure,
    SolverConfig,
    as_atom_set,
    build_info_state,
    cumlink_atoms,
    efficiency_bounds,
    logistic_atoms,
    measure_of_sample,
    phi_p_scores,
    round_to_sample,
    sg_measure,
    solve_hybrid,
    two_stage_select,
)
from batchdesign import solvers
from batchdesign.errors import DimensionMismatch, InfeasibleEpsilon, SingularInformation

from helpers import (
    best_subset,
    gaussian_pool,
    is_monotone,
    phase_counts,
    phi_of_subset,
    random_feasible,
)


# the pins of an unpinned solve, as solvers._check_pinned gives them
NO_PINS = np.zeros(0, dtype=np.intp)


def _cfg(eps, **kw):
    return SolverConfig(epsilon=eps, **kw)


def _boost(w, sg, X, spec):
    """One boost step from w toward sg: (w_next, alpha)."""
    aset = as_atom_set(X)
    ev = solvers._evaluate(aset, w, spec, NO_PINS)
    ev = replace(ev, sg=sg, lin=float(sg.weights @ ev.scores))
    w_next, alpha, state = solvers._boost_once(aset, ev)
    # a zero step hands back the evaluation's own measure and state
    assert alpha > 0.0 or (w_next is w and state is ev.state)
    return w_next, alpha


def _run():
    """Empty trace and counters for calling one move outside a solve."""
    return solvers._Run(solvers.SolveTrace(), 0.0, {"boost": 0, "refine": 0, "screen": 0})


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
    assert is_monotone(res.trace)
    counts = phase_counts(res.trace)
    assert counts.get("boost", 0) >= 1
    assert res.iterations["refine"] >= 0
    assert set(res.trace.phase_seconds()) <= {"boost", "refine"}


@pytest.mark.parametrize("N, working_set", [(60, 60), (4000, 200)])
def test_phase_seconds_cover_the_whole_solve(monkeypatch, N, working_set):
    # a clock that advances one unit per scores pass, which every solve step
    # makes: the uniform start's, the moves', the gate's and the final check's
    clock = [0.0]
    scores = solvers.phi_p_scores

    def counted(*args):
        clock[0] += 1.0
        return scores(*args)

    monkeypatch.setattr(solvers, "phi_p_scores", counted)
    monkeypatch.setattr(solvers, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    X = gaussian_pool(np.random.default_rng(0), N, 4)
    res = solve_hybrid(X, CriterionSpec(p=1.0), _cfg(1.0 / 40, v=1e-7))
    assert res.converged and res.working_set == working_set
    assert sum(res.trace.phase_seconds().values()) == clock[0] > 0.0


def test_boost_only_stops_at_coarse_gap(rng):
    # v = v0 is a boost-only solve
    X = gaussian_pool(rng, 40, 3)
    res = solve_hybrid(X, CriterionSpec(p=1.0), _cfg(0.1, v0=1e-3, v=1e-3))
    assert res.iterations["refine"] == 0
    assert res.converged
    assert res.gap_ratio <= 1e-3


def _boost_gaps(res):
    """Gaps of the records before the first refine record: the boost phase, or a screen's pilot."""
    recs = res.trace.records
    end = next((i for i, r in enumerate(recs) if r.phase == "refine"), len(recs))
    return np.array([r.gap_ratio for r in recs[:end]])


def _toy_cumlink_pool():
    Z = np.random.default_rng(1).standard_normal((100, 2))
    return cumlink_atoms(Z, CumulativeLinkSpec(np.array([0.8, -0.5]), np.array([-0.5, 0.7])))


def test_boost_phase_ends_at_the_first_boost_that_raises_the_gap():
    # a whole-pool cumulative-link solve (N = 5 / eps) whose boosts zigzag:
    # with refinement to follow, the phase ends at the first boost that
    # raises the gap, far above v0, and keeps that iterate
    atoms, spec, v0 = _toy_cumlink_pool(), CriterionSpec(p=2.0), 1e-3
    res = solve_hybrid(atoms, spec, _cfg(1.0 / 20, v0=v0))
    gaps = _boost_gaps(res)
    assert res.converged and res.working_set == 100 and res.iterations["refine"] >= 1
    assert res.iterations["boost"] == len(gaps) - 1
    assert np.all(np.diff(gaps[:-1]) <= 0.0) and gaps[-1] > gaps[-2] > v0
    assert is_monotone(res.trace)


def test_boost_only_solve_and_screen_pilot_boost_through_rises_to_v0():
    # the rising-gap exit needs refinement to follow the boost phase: a
    # boost-only solve of the same pool, and the pilot of a screened pool
    # (whose refine phase follows only after the gate), boost through rises
    # of the gap until it reaches v0, with no zero step and under MAX_BOOST_ITERS
    atoms, spec, v0 = _toy_cumlink_pool(), CriterionSpec(p=2.0), 1e-3
    boost_only = solve_hybrid(atoms, spec, _cfg(1.0 / 20, v0=v0, v=v0))
    X = gaussian_pool(np.random.default_rng(0), 1000, 4)
    screened = solve_hybrid(X, spec, _cfg(1.0 / 40, v0=v0))
    assert boost_only.iterations["refine"] == 0
    assert screened.working_set < 1000 and screened.iterations["refine"] >= 1
    for res in (boost_only, screened):
        gaps = _boost_gaps(res)
        assert res.iterations["boost"] == len(gaps) - 1 < solvers.MAX_BOOST_ITERS
        assert np.any(np.diff(gaps) > 0.0)
        assert gaps[-1] <= v0 < gaps[:-1].min()


@settings(max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4), extra=st.integers(0, 8),
       width=st.integers(1, 5), p=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
       g_rows=st.integers(0, 4), pins=st.integers(0, 2))
def test_whole_pool_solve_agrees_with_a_tight_reference(seed, k, extra, width, p, g_rows, pins):
    # N <= 5 / eps, so the whole pool boosts, leaves at its gap target or the
    # first rise of the gap, and refines to v; its Phi_p is within v / (1 - v)
    # of a solve to 1e-10
    rng = np.random.default_rng(seed)
    n = k + extra
    N, v = width * n, 1e-6
    X = gaussian_pool(rng, N, k)
    G = rng.standard_normal((g_rows, k)) if 0 < g_rows <= k else None
    pinned = rng.choice(N, size=pins, replace=False) if pins else None
    spec = CriterionSpec(p=p, G=G)
    res = solve_hybrid(X, spec, _cfg(1.0 / n, v=v), pinned=pinned)
    assert res.working_set == N and res.converged
    assert is_monotone(res.trace)
    ref = solve_hybrid(X, spec, _cfg(1.0 / n, v=1e-10), pinned=pinned)
    assert abs(res.phi_value / ref.phi_value - 1.0) <= v / (1.0 - v) + 1e-12


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


@pytest.mark.parametrize("N", [3, 1000])
@pytest.mark.parametrize("short", [1e-10, 1e-13])
def test_capacity_just_short_of_one_raises_typed_error(N, short):
    # one feasibility rule for the measure, the steepest-gradient fill and the solver
    eps = (1.0 - short) / N
    assert N * eps < 1.0
    with pytest.raises(InfeasibleEpsilon):
        Measure(np.full(N, 1.0 / N), eps)
    with pytest.raises(InfeasibleEpsilon):
        sg_measure(np.arange(float(N)), eps)
    with pytest.raises(InfeasibleEpsilon):
        solve_hybrid(gaussian_pool(np.random.default_rng(N), N, 2), CriterionSpec(p=0.0), _cfg(eps))


@pytest.mark.parametrize("N", [4, 5])
def test_capacity_just_above_one_solves(N):
    # mass / eps = N (1 - 1e-10) must not count as N points at the cap
    eps = (1.0 + 1e-10) / N
    w = sg_measure(np.arange(float(N)), eps)
    assert abs(float(w.weights.sum()) - 1.0) <= 1e-15 * N
    assert np.count_nonzero(w.weights == eps) == N - 1
    res = solve_hybrid(gaussian_pool(np.random.default_rng(N), N, 2), CriterionSpec(p=0.0), _cfg(eps))
    assert res.converged


@pytest.mark.parametrize("N", [49, 98])
def test_epsilon_one_over_pool_size_solves_when_the_product_rounds_low(N):
    eps = 1.0 / N
    assert N * eps < 1.0
    assert np.array_equal(sg_measure(np.arange(float(N)), eps).weights, np.full(N, eps))
    res = solve_hybrid(gaussian_pool(np.random.default_rng(N), N, 2), CriterionSpec(p=0.0), _cfg(eps))
    assert res.converged
    assert np.allclose(res.w.weights, eps, rtol=0.0, atol=1e-15)


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
    ev = solvers._evaluate(aset, w, spec, NO_PINS)
    w_next, alpha, _ = solvers._boost_once(aset, ev)
    assert 0.0 < alpha <= 1.0
    phi_after = build_info_state(X, w_next, spec).phi_value
    assert phi_after <= ev.state.phi_value + 1e-12


def test_boost_step_from_near_singular_start_takes_newton_step():
    # w is nearly singular along e_2; the exact curvature is large there, so
    # the step -eta / tau is far below the segment's end and already descends
    X = np.eye(2)
    spec = CriterionSpec(p=1.0)
    w = Measure(np.array([1.0 - 1e-7, 1e-7]), 1.0)
    sg = Measure(np.array([0.5, 0.5]), 1.0)
    w_next, alpha = _boost(w, sg, X, spec)
    assert 0.0 < alpha < 1.0
    assert alpha == pytest.approx(1e-7, rel=1e-2)
    assert build_info_state(X, w_next, spec).phi_value < build_info_state(X, w, spec).phi_value


def test_boost_step_halves_a_step_that_would_increase_the_criterion(monkeypatch):
    # with the curvature taken as zero the step is the whole segment, whose
    # end is singular; the halving guard brings it back to 0.03125
    monkeypatch.setattr(solvers, "_blend_curvature", lambda state, M1: 0.0)
    X = np.eye(2)
    spec = CriterionSpec(p=1.0)
    w = Measure(np.array([0.51, 0.49]), 1.0)
    aset = as_atom_set(X)
    ev = solvers._evaluate(aset, w, spec, NO_PINS)
    w_next, alpha, _ = solvers._boost_once(aset, ev)
    assert 0.0 < alpha < 1.0
    assert alpha == 0.03125
    assert build_info_state(X, w_next, spec).phi_value <= ev.state.phi_value


def test_restricted_never_increases(rng):
    spec = CriterionSpec(p=2.0)
    for _ in range(5):
        X = gaussian_pool(rng, 18, 3)
        w = random_feasible(rng, 18, 0.15)
        aset = as_atom_set(X)
        ev = solvers._evaluate(aset, w, spec, NO_PINS)
        w_new, state = solvers._restricted(aset, ev, NO_PINS, _run())
        phi_new = build_info_state(X, w_new, spec).phi_value
        assert phi_new == pytest.approx(state.phi_value, rel=1e-12)
        assert phi_new <= ev.state.phi_value + 1e-12


def test_restricted_stops_at_the_forcing_fraction_of_the_outer_gap(monkeypatch):
    # record the restricted gap and Phi_p that each SPG step tests, from the
    # loop's own iterate
    steps = []
    greedy = solvers._greedy_linear_max

    def spy(grad, eps, mass):
        u = greedy(grad, eps, mass)
        loop = sys._getframe(1).f_locals
        steps.append((float((u - loop["wf"]) @ grad), loop["state"].phi_value))
        return u

    monkeypatch.setattr(solvers, "_greedy_linear_max", spy)
    X = gaussian_pool(np.random.default_rng(0), 400, 5)
    spec, eps = CriterionSpec(p=2.0), 1.0 / 40
    aset = as_atom_set(X)
    # a refine round's start: the boost phase's iterate, at a gap near v0
    w = solve_hybrid(X, spec, _cfg(eps, v=1e-3)).w
    ev = solvers._evaluate(aset, w, spec, NO_PINS)
    g = ev.gap_ratio
    assert solvers.INNER_FORCING * g > solvers.INNER_TOL
    # an evaluation at gap 0 solves to INNER_TOL
    exact_run, forced_run = _run(), _run()
    solvers._restricted(aset, replace(ev, gap_ratio=0.0), NO_PINS, exact_run)
    exact_steps, steps[:] = list(steps), []
    solvers._restricted(aset, ev, NO_PINS, forced_run)
    exact, forced = exact_run.inner, forced_run.inner
    # the same iterates, cut at the first one within the forcing fraction
    assert steps == exact_steps[:forced]
    first = next(i for i, (gap, phi) in enumerate(exact_steps, start=1)
                 if gap <= solvers.INNER_FORCING * g * phi)
    assert forced == first < exact


def _force_exit(monkeypatch, exit_):
    """Patch the solver so that a move takes exit_; returns the list of
    factorizations made to fail or replaced so far."""
    factor, seen = solvers.info_state_from_m, []
    # (caller of info_state_from_m, its forced calls, replacement factorization)
    caller, calls, make = {
        "singular start": ("assemble", (1,), None),
        "singular close": ("assemble", (2,), None),
        "closing phi above the reference":
            ("assemble", (2,), lambda M, spec: factor(1e-6 * M, spec)),
        "halvings exhausted": ("_boost_once", range(1, 22), None),
    }.get(exit_, (None, (), None))

    def patched(M, spec):
        if sys._getframe(1).f_code.co_name == caller:
            seen.append(M)
            if len(seen) in calls:
                if make is None:
                    raise SingularInformation("forced")
                return make(M, spec)
        return factor(M, spec)
    monkeypatch.setattr(solvers, "info_state_from_m", patched)
    if exit_ == "renormalized":
        # every capped-simplex projection of _restricted is 1e-11 heavy
        project = solvers.project_capped_simplex

        def heavy(v, eps, mass):
            u = project(v, eps, mass)
            u[np.argmin(u)] += 1e-11
            return u
        monkeypatch.setattr(solvers, "project_capped_simplex", heavy)
    return seen


CLOSING_EXITS = ("singular close", "closing phi above the reference")


@pytest.mark.parametrize("exit_", ["no free point", "negative mass", "singular start",
                                   *CLOSING_EXITS])
def test_restricted_exits_hand_back_the_evaluation(rng, monkeypatch, exit_):
    # every exit that keeps w returns the evaluation's own measure and state
    aset, spec = as_atom_set(gaussian_pool(np.random.default_rng(3), 12, 3)), CriterionSpec(p=2.0)
    # four points at the cap 1/4, the rest at zero
    w = Measure(np.r_[np.full(4, 0.25), np.zeros(8)], 0.25)
    ev = solvers._evaluate(aset, w, spec, NO_PINS)
    pinned = NO_PINS
    if exit_ == "no free point":
        ev = replace(ev, sg=ev.w)
    elif exit_ == "negative mass":
        # points 3 and 4 are free, and pinning 5 and 6 leaves mass 1 - 5 / 4
        ev = replace(ev, sg=Measure(np.r_[np.full(3, 0.25), 0.0, 0.25, np.zeros(7)], 0.25))
        pinned = np.array([5, 6])
    elif exit_ in CLOSING_EXITS:
        aset = as_atom_set(gaussian_pool(rng, 18, 3))
        ev = solvers._evaluate(aset, random_feasible(rng, 18, 0.15), spec, NO_PINS)
    seen = _force_exit(monkeypatch, exit_)
    run = _run()
    w_new, state = solvers._restricted(aset, ev, pinned, run)
    assert w_new is ev.w and state is ev.state
    assert len(seen) == {"singular start": 1, **dict.fromkeys(CLOSING_EXITS, 2)}.get(exit_, 0)
    # the SPG steps taken before a closing exit still count
    assert (run.inner > 0) == (exit_ in CLOSING_EXITS)


def test_renormalized_restricted_exit_returns_a_fresh_assembly(rng, monkeypatch):
    _force_exit(monkeypatch, "renormalized")
    aset, spec = as_atom_set(gaussian_pool(rng, 18, 3)), CriterionSpec(p=2.0)
    ev = solvers._evaluate(aset, random_feasible(rng, 18, 0.15), spec, NO_PINS)
    w_new, state = solvers._restricted(aset, ev, NO_PINS, _run())
    assert w_new is not ev.w and abs(w_new.weights.sum() - 1.0) <= 1e-15
    fresh = build_info_state(aset, w_new, spec)
    assert abs(state.phi_value / fresh.phi_value - 1.0) <= 1e-12
    np.testing.assert_allclose(state.M, fresh.M, rtol=1e-12, atol=0.0)
    assert state.phi_value <= ev.state.phi_value + solvers.PHI_SLACK


def test_boost_step_exhausts_its_halvings(rng, monkeypatch):
    # every trial of the step is singular: after 21 halvings the step is zero
    aset, spec = as_atom_set(gaussian_pool(rng, 20, 3)), CriterionSpec(p=1.0)
    ev = solvers._evaluate(aset, Measure(np.full(20, 0.05), 0.1), spec, NO_PINS)
    trials = _force_exit(monkeypatch, "halvings exhausted")
    w_next, alpha, state = solvers._boost_once(aset, ev)
    assert len(trials) == 21
    assert alpha == 0.0 and w_next is ev.w and state is ev.state


@pytest.mark.parametrize("exit_", ["singular start", *CLOSING_EXITS, "renormalized",
                                   "halvings exhausted"])
def test_solve_through_a_forced_exit_records_one_evaluation_per_move(rng, monkeypatch, exit_):
    # a whole-pool solve (N = 5 / eps) whose first restricted solve or first
    # boost takes the exit, or every restricted solve the renormalized one,
    # still evaluates and records each move's iterate once
    seen, calls = _force_exit(monkeypatch, exit_), Counter()
    restricted, boost_once, evaluate = solvers._restricted, solvers._boost_once, solvers._evaluate
    build = solvers.build_info_state

    def counted_restricted(aset, ev, *args):
        before = calls["assemblies"]
        out = restricted(aset, ev, *args)
        calls["moves"] += 1
        calls["kept"] += out[0] is ev.w and out[1] is ev.state
        calls["renormalized"] += calls["assemblies"] - before
        return out

    def counted_boost(*args):
        out = boost_once(*args)
        calls["moves"] += out[1] > 0.0
        return out

    def counted_evaluate(*args):
        calls["evaluations"] += 1
        return evaluate(*args)

    def counted_build(*args):
        calls["assemblies"] += 1
        return build(*args)
    monkeypatch.setattr(solvers, "_restricted", counted_restricted)
    monkeypatch.setattr(solvers, "_boost_once", counted_boost)
    monkeypatch.setattr(solvers, "_evaluate", counted_evaluate)
    monkeypatch.setattr(solvers, "build_info_state", counted_build)
    X = gaussian_pool(rng, 150, 4)
    res = solve_hybrid(X, CriterionSpec(p=1.0), _cfg(1.0 / 30, v=1e-9))
    assert res.working_set == 150 and res.converged
    assert calls["evaluations"] == calls["moves"] + 1 == len(res.trace)
    if exit_ == "renormalized":
        assert calls["renormalized"] == res.iterations["refine"] >= 1
    elif exit_ == "halvings exhausted":
        # the first boost is zero, so the boost phase hands its start to the refine phase
        assert len(seen) >= 21 and [r.phase for r in res.trace.records[:2]] == ["boost", "refine"]
    else:
        assert len(seen) >= (1 if exit_ == "singular start" else 2) and calls["kept"] >= 1
    _assert_full_pool_result(X, res, CriterionSpec(p=1.0), 1e-9)


@pytest.mark.parametrize("seed", [0, 1])
def test_heavy_tailed_regression_refines_without_capping(seed):
    # Cauchy columns leave a long restricted tail that a solve to INNER_TOL
    # ran to the step cap; rounds stopped at the forcing fraction do not
    rng = np.random.default_rng(seed)
    X = np.hstack([np.ones((5000, 1)), rng.standard_cauchy((5000, 7))])
    res = solve_hybrid(X, CriterionSpec(p=2.0), _cfg(1.0 / 200))
    assert res.converged and res.inner_cap_hits == 0
    assert res.inner_iterations < 100


def test_inner_cap_hits_counted(rng, monkeypatch):
    X = gaussian_pool(rng, 40, 3)
    spec = CriterionSpec(p=1.0)
    with monkeypatch.context() as m:
        m.setattr(solvers, "INNER_MAX_ITERS", 1)
        m.setattr(solvers, "MAX_OUTER_ITERS", 5)
        capped = solve_hybrid(X, spec, _cfg(0.1, v=1e-9))
    assert capped.inner_iterations > 0
    assert 0 < capped.inner_cap_hits <= capped.iterations["refine"] == 5
    assert is_monotone(capped.trace)
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
            before = calls["build_info_state"]
            out = fn(aset, *args, **kwargs)
            calls[fn.__name__] += 1
            calls["full-pool " + fn.__name__] += len(aset) == N
            calls["moves"] += moved(out, *args, assembled=calls["build_info_state"] - before)
            return out
        monkeypatch.setattr(solvers, fn.__name__, wrapped)

    def evaluated(out, w, spec, pinned, state=None, assembled=0):
        # an evaluation handed no state assembles M(w) itself
        calls["fresh _evaluate"] += state is None
        return 0

    def restricted_moved(out, ev, *_, assembled):
        # a restricted solve assembles only the renormalized weights it returns
        if assembled:
            calls["renormalized"] += assembled
            assert assembled == 1 and out[0] is not ev.w and out[1] is not ev.state
        return 1

    count(solvers._evaluate, evaluated)
    count(solvers._restricted, restricted_moved)
    count(solvers._boost_once, lambda out, *_, **__: out[1] > 0.0)
    # the start is the one positivity-repaired measure; refine rounds split
    # against the evaluation's own steepest-gradient measure
    count(solvers.psg_measure, lambda out, *_, **__: 0)
    # every move hands its factorization to its iterate's evaluation, so only
    # starts, full-pool checks and renormalized restricted exits assemble M
    count(solvers.build_info_state, lambda out, *_, **__: 0)
    # N = 5 / eps runs the whole-pool loop; N = 10 / eps is screened
    for N in (150, 300):
        calls.clear()
        X = gaussian_pool(rng, N, 4)
        res = solve_hybrid(X, CriterionSpec(p=p), _cfg(1.0 / 30, v=1e-9))
        assert res.converged and res.iterations["refine"] >= 1
        assert res.iterations["refine"] == calls["_restricted"]
        assert calls["psg_measure"] == 1
        if N == 150:
            assert res.working_set == N and res.iterations["screen"] == 0
            assert calls["_evaluate"] == calls["moves"] + 1 == len(res.trace)
            assert calls["fresh _evaluate"] == 1
            assert calls["build_info_state"] == 1 + calls["renormalized"]
            continue
        # every move is made on the working set, and the full pool is
        # evaluated only by the refine round's certifying check: the pilot
        # is judged on a sample, and still counts as a screen check
        assert res.working_set < N
        assert calls["full-pool _restricted"] == calls["full-pool _boost_once"] == 0
        checks = calls["full-pool _evaluate"]
        assert calls["_evaluate"] - checks == calls["moves"] + 1 == len(res.trace)
        assert checks == 1 and res.iterations["screen"] == 2
        assert calls["full-pool build_info_state"] == checks
        assert calls["fresh _evaluate"] == 1 + checks
        assert calls["build_info_state"] == 1 + checks + calls["renormalized"]


@pytest.mark.parametrize("p", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("with_g", [False, True])
@pytest.mark.parametrize("pins", [0, 3])
def test_carried_evaluations_match_a_fresh_assembly(monkeypatch, p, with_g, pins):
    # an evaluation handed a move's factorization gives the Phi_p and scores
    # that assembling and factorizing its weights afresh gives
    carried = []
    evaluate = solvers._evaluate

    def spy(aset, w, spec, pinned, state=None):
        out = evaluate(aset, w, spec, pinned, state)
        if state is not None:
            fresh = build_info_state(aset, w, spec)
            carried.append((out.state.phi_value, fresh.phi_value, out.scores,
                            phi_p_scores(aset, fresh)))
        return out

    monkeypatch.setattr(solvers, "_evaluate", spy)
    rng = np.random.default_rng([int(p), with_g, pins])
    n, k = 20, 4
    # a whole-pool solve and a screened one (N > 5 / eps)
    for N in (6 * n, 15 * n):
        X = gaussian_pool(rng, N, k)
        G = rng.standard_normal((2, k)) if with_g else None
        pinned = rng.choice(N, size=pins, replace=False) if pins else None
        res = solve_hybrid(X, CriterionSpec(p=p, G=G), _cfg(1.0 / n, v=1e-9), pinned=pinned)
        assert res.converged
    assert len(carried) >= 10
    for phi, phi_fresh, scores, scores_fresh in carried:
        assert abs(phi / phi_fresh - 1.0) <= 1e-12
        assert np.allclose(scores, scores_fresh, rtol=1e-10, atol=1e-10 * np.abs(scores).max())


def test_uncapped_boost_reaches_past_the_paper_cap_on_a_pinned_logistic_pool():
    # a bootstrap replicate's second stage: 1 900 distinct logistic records,
    # 240 of them pinned by the first stage, n = 600 and p = 1.  The model's
    # step asks for more than r = 0.25 along a criterion that is nearly
    # linear toward the vertex; the solve with steps capped at r took 12 boosts
    rng = np.random.default_rng(1)
    N = 1900
    Z = np.hstack([np.ones((N, 1)), rng.standard_normal((N, 4))])
    atoms = logistic_atoms(Z, LogisticModelSpec(np.array([-0.5, 1.0, -0.8, 0.6, 0.4])))
    pinned = rng.choice(N, size=240, replace=False)
    res = solve_hybrid(atoms, CriterionSpec(p=1.0), _cfg(1.0 / 600), pinned=pinned)
    assert res.converged and res.working_set == N
    recs = res.trace.records
    long_steps = [(prev.phi_value, rec.phi_value) for prev, rec in zip(recs, recs[1:])
                  if rec.phase == "boost" and rec.alpha > 0.25]
    assert long_steps
    assert all(phi <= phi_prev + solvers.PHI_SLACK for phi_prev, phi in long_steps)
    assert res.iterations["boost"] < 12


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


@pytest.mark.parametrize("v", [1e-3, 1e-6])
def test_certified_bound_is_the_ratio_times_one_minus_the_gap(rng, v):
    # certified = ratio * (1 - max(gap, 0)) on the carried route (the solved
    # measure) and the fresh one (a bare copy of its weights), with the gap
    # recomputed here from a fresh assembly, the scores and a linear maximum
    X = gaussian_pool(rng, 40, 3)
    spec, eps = CriterionSpec(p=1.0), 0.1
    res = solve_hybrid(X, spec, _cfg(eps, v0=1e-3, v=v))
    aset = as_atom_set(X)
    state = build_info_state(aset, res.w, spec)
    scores = phi_p_scores(aset, state)
    lin = float(solvers._greedy_linear_max(scores, eps, 1.0) @ scores)
    gap = (lin - state.phi_value) / state.phi_value
    assert 0.0 < gap <= v
    cand = measure_of_sample(round_to_sample(res.w, 10, res.scores), 40)
    phi_cand = build_info_state(aset, cand, spec).phi_value
    for solved in (res.w, Measure(res.w.weights, eps)):
        eb = efficiency_bounds(cand, solved, aset, spec)
        assert eb.solved_gap_ratio == pytest.approx(gap, rel=1e-6, abs=1e-12)
        assert eb.ratio == pytest.approx(state.phi_value / phi_cand, rel=1e-12)
        expected = eb.ratio * (1.0 - max(eb.solved_gap_ratio, 0.0))
        assert eb.certified_lower_bound == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_converged_exactly_when_the_gap_reaches_the_target(monkeypatch):
    # solves cut short by the refine-round cap leave gaps just above the
    # target, some of them within ten times it; none of those is converged
    X = gaussian_pool(np.random.default_rng(2), 60, 4)
    cfg = _cfg(1.0 / 10, v=1e-9)
    near = 0
    for rounds in range(1, 9):
        monkeypatch.setattr(solvers, "MAX_OUTER_ITERS", rounds)
        res = solve_hybrid(X, CriterionSpec(p=0.0), cfg)
        assert res.converged == (res.gap_ratio <= cfg.target_gap)
        near += cfg.target_gap < res.gap_ratio <= 10.0 * cfg.target_gap
    assert near >= 1
    monkeypatch.undo()
    res = solve_hybrid(X, CriterionSpec(p=0.0), cfg)
    assert res.converged and res.gap_ratio <= cfg.target_gap


def test_rescaled_pool_solves_to_the_same_criterion_value():
    # Phi_1 scales as 1 / s^2 with the rows; the s = 1e6 pool falls back from
    # the screen to the whole pool
    X = np.random.default_rng(0).standard_normal((3000, 6))
    spec, cfg = CriterionSpec(p=1.0), _cfg(0.01)
    base = solve_hybrid(X, spec, cfg)
    assert base.converged
    for s in (1e2, 1e4, 1e6):
        res = solve_hybrid(X * s, spec, cfg)
        assert res.converged, s
        assert abs(res.phi_value * s * s / base.phi_value - 1.0) <= 1e-9, s


def test_screened_solve_makes_two_full_pool_passes(monkeypatch):
    # per screened solve: the uniform start's scores and the refine round's
    # certifying check, with the pilot judged on the working set and a strided
    # tenth of the pool; efficiency_bounds reuses the solve's evaluation, and
    # the pool's uniform information is assembled once for both criteria
    N, n = 4000, 50
    aset = AtomSet.from_vectors(gaussian_pool(np.random.default_rng(7), N, 5))
    log = []

    def spy(name):
        kernel = getattr(AtomSet, name)

        def wrapped(self, arg):
            if len(self) in (N, N // 10):
                dense = name == "weighted_sum" and np.count_nonzero(arg) >= 0.5 * len(self)
                log.append((name, len(self), dense))
            return kernel(self, arg)
        monkeypatch.setattr(AtomSet, name, wrapped)

    spy("quad_forms")
    spy("weighted_sum")
    for p in (0.0, 1.0):
        spec = CriterionSpec(p=p)
        log.clear()
        res = solve_hybrid(aset, spec, _cfg(1.0 / n))
        solve = Counter(log)
        assert res.converged and res.working_set < N and res.iterations["screen"] == 2
        sample = round_to_sample(res.w, n, res.scores)
        log.clear()
        efficiency_bounds(measure_of_sample(sample, N), res.w, aset, spec)
        assert solve == {("quad_forms", N, False): 2, ("quad_forms", N // 10, False): 1,
                         ("weighted_sum", N, False): 1, **({("weighted_sum", N, True): 1}
                                                           if p == 0.0 else {})}
        # the candidate's information is the one full-pool pass left
        assert Counter(log) == {("weighted_sum", N, False): 1}


def _two_stage_on_a_logistic_pool(cfg):
    # the 400-point pool and two-stage run of the CLI's import test
    # (test_reports.py), with the intercept column it adds
    rng = np.random.default_rng(5)
    Z = np.hstack([np.ones((400, 1)), rng.standard_normal((400, 2))])
    y = (rng.random(400) < 1.0 / (1.0 + np.exp(-Z[:, 1]))).astype(int)
    return two_stage_select(Z, y, "logistic", 30, 0.4, 0.0, cfg, np.random.default_rng(0))


def test_efficiency_bounds_reuse_the_solve_evaluation(monkeypatch):
    # a solved measure carries its full-pool evaluation; the bounds taken from
    # it equal, bit for bit, those of a copy that must be evaluated, for a
    # pinned two-stage solve and an unpinned one on the same pool
    spec, cfg = CriterionSpec(p=0.0), _cfg(1.0 / 30)
    pinned = _two_stage_on_a_logistic_pool(cfg).solve
    atoms = pinned.w.certificate.atoms
    free = solve_hybrid(atoms, spec, cfg)
    assemblies = Counter()
    build = solvers.build_info_state

    def counted(aset, *args, **kwargs):
        assemblies["full pool"] += len(aset) == 400
        return build(aset, *args, **kwargs)
    monkeypatch.setattr(solvers, "build_info_state", counted)
    for res in (pinned, free):
        cand = measure_of_sample(round_to_sample(res.w, 30, res.scores), 400)
        bare = Measure(res.w.weights, res.w.epsilon)
        assert bare.certificate is None and np.array_equal(bare.weights, res.w.weights)
        # the candidate's information is assembled on either route
        assemblies.clear()
        held = efficiency_bounds(cand, res.w, atoms, spec)
        assert assemblies["full pool"] == 1
        assert held == efficiency_bounds(cand, bare, atoms, spec)
        assert assemblies["full pool"] == 3
        # another pool object over the same rows, or another p or G, is assembled
        assemblies.clear()
        assert efficiency_bounds(cand, res.w, AtomSet.from_vectors(atoms.rows), spec) == held
        others = (CriterionSpec(p=1.0), CriterionSpec(p=0.0, G=np.eye(3)[1:]))
        for other in others:
            assert efficiency_bounds(cand, res.w, atoms, other) == \
                efficiency_bounds(cand, bare, atoms, other)
        assert assemblies["full pool"] == 2 * (1 + 2 * len(others))


def test_sampled_pilot_miss_is_confirmed_on_the_full_pool(monkeypatch):
    # on the 400-point logistic two-stage pool the pilot's linear maximum
    # lies in its working set, so the sampled estimate is its full-pool gap
    # and the pilot is not evaluated on the full pool.  A sample that misses
    # is confirmed by the full-pool check, which passes here: the solve
    # stays screened, with the same outputs
    cfg = _cfg(1.0 / 30)
    estimates, full_gaps = [], []
    sampled_gap, evaluate = solvers._sampled_gap, solvers._evaluate

    def estimated(*args):
        estimates.append(sampled_gap(*args))
        return estimates[-1]

    def evaluated(aset, *args, **kwargs):
        ev = evaluate(aset, *args, **kwargs)
        if len(aset) == 400:
            full_gaps.append(ev.gap_ratio)
        return ev
    monkeypatch.setattr(solvers, "_sampled_gap", estimated)
    monkeypatch.setattr(solvers, "_evaluate", evaluated)

    def run():
        estimates.clear()
        full_gaps.clear()
        return _two_stage_on_a_logistic_pool(cfg)

    passed = run()
    assert len(estimates) == 1 and estimates[0] <= solvers.SCREEN_MISS * cfg.v0
    assert len(full_gaps) == 1  # the refine round's check
    estimate = estimates[0]
    monkeypatch.setattr(solvers, "_sampled_gap", lambda *args: np.inf)
    missed = run()
    assert len(full_gaps) == 2 and full_gaps[0] == pytest.approx(estimate, rel=1e-9)
    for ts in (passed, missed):
        assert ts.solve.working_set < 400 and ts.solve.iterations["screen"] == 2
    _assert_same_solve(passed.solve, missed.solve)
    assert passed.solve.iterations == missed.solve.iterations
    assert passed.combined == missed.combined


def test_efficiency_bounds_reject_a_candidate_above_the_cap(rng):
    X = gaussian_pool(rng, 12, 2)
    spec = CriterionSpec(p=0.0)
    res = solve_hybrid(X, spec, _cfg(0.1))
    sample = round_to_sample(res.w, 4, res.scores)
    with pytest.raises(InfeasibleEpsilon, match="exceeds the solved cap"):
        efficiency_bounds(measure_of_sample(sample, 12), res.w, X, spec)

    # a weight at the cap is covered by the certificate; 1e-10 above it is not
    def candidate(top):
        w = np.zeros(12)
        w[0], w[1:11] = top, (1.0 - top) / 10
        return Measure(w, 0.2)

    efficiency_bounds(candidate(0.1), res.w, X, spec)
    with pytest.raises(InfeasibleEpsilon, match="exceeds the solved cap"):
        efficiency_bounds(candidate(0.1 + 1e-10), res.w, X, spec)


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
    scores = phi_p_scores(aset, state)
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
    assert is_monotone(res.trace)
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
        assert res.working_set < 400 and is_monotone(res.trace)
        _assert_full_pool_result(atoms, res, spec, v)
        whole = _whole_pool(atoms, spec, cfg)
        assert abs(res.phi_value / whole.phi_value - 1.0) <= v / (1.0 - v) + 1e-12


def test_heavy_tailed_pool_falls_back_to_the_whole_pool(monkeypatch):
    # uniform-weight leverage misjudges a Cauchy pool: the boosted pilot's
    # sampled gap misses, its one full-pool check is far above v0, and
    # today's whole-pool solve runs instead
    rng = np.random.default_rng(3)
    X = np.hstack([np.ones((200, 1)), rng.standard_cauchy((200, 2))])
    spec, cfg = CriterionSpec(p=1.0), _cfg(1.0 / 10)
    calls = Counter()
    evaluate, screen = solvers._evaluate, solvers._screen

    def evaluated(aset, *args, **kwargs):
        calls["full pool"] += len(aset) == 200
        return evaluate(aset, *args, **kwargs)

    def screened(*args, **kwargs):
        out = screen(*args, **kwargs)
        calls["screen's full pool"] = calls["full pool"]
        return out
    monkeypatch.setattr(solvers, "_evaluate", evaluated)
    monkeypatch.setattr(solvers, "_screen", screened)
    res = solve_hybrid(X, spec, cfg)
    assert res.working_set == 200 and res.iterations["screen"] == 1
    assert calls["screen's full pool"] == 1
    _assert_same_solve(res, _whole_pool(X, spec, cfg))
    _assert_full_pool_result(X, res, spec, cfg.v)


def test_pilot_at_the_target_is_checked_on_the_full_pool_once(monkeypatch):
    # a pilot already at the target on its working set goes straight to the
    # certifying check; when that check misses, the screen falls back after
    # one full-pool evaluation, not a second one of the same weights
    X = gaussian_pool(np.random.default_rng(0), 300, 4)
    spec, cfg = CriterionSpec(p=1.0), _cfg(1.0 / 30)
    boost_phase, evaluate = solvers._boost_phase, solvers._evaluate
    full_gaps = []

    def pilot_at_target(*args, until_rise):
        ev = boost_phase(*args, until_rise=until_rise)
        return ev if until_rise else replace(ev, gap_ratio=0.0)

    def evaluated(aset, *args, **kwargs):
        ev = evaluate(aset, *args, **kwargs)
        if len(aset) == 300:
            full_gaps.append(ev.gap_ratio)
        return ev
    monkeypatch.setattr(solvers, "_boost_phase", pilot_at_target)
    monkeypatch.setattr(solvers, "_evaluate", evaluated)
    monkeypatch.setattr(solvers, "_sampled_gap", lambda *args: pytest.fail("no gate"))
    res = solve_hybrid(X, spec, cfg)
    # the check misses the target but not SCREEN_MISS * v0, the case that
    # once refined the unchanged pilot and checked it again
    assert cfg.target_gap < full_gaps[0] <= solvers.SCREEN_MISS * cfg.v0
    assert res.working_set == 300 and res.iterations["screen"] == 1
    assert len(full_gaps) - len(res.trace) == 1
    monkeypatch.undo()
    _assert_same_solve(res, _whole_pool(X, spec, cfg))


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
    assert is_monotone(res.trace)
    _assert_same_solve(res, whole)
    _assert_full_pool_result(X, res, spec, cfg.v)


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_singular_working_set_falls_back_to_the_whole_pool(p):
    # the 500 best-scored points lie on a circle in the (x1, x2) plane, so the
    # working set spans two of three directions and its start cannot be made
    # positive definite; the screen gives up before it counts an iteration
    angle = np.linspace(0.0, 2.0 * np.pi, 1000, endpoint=False)
    circle = np.column_stack([10.0 * np.cos(angle), 10.0 * np.sin(angle), np.zeros(1000)])
    axis = np.zeros((4000, 3))
    axis[:, 2] = np.repeat([1.0, -1.0], 2000)
    X = np.vstack([circle, axis])
    spec, cfg = CriterionSpec(p=p), _cfg(1.0 / 100)
    res = solve_hybrid(X, spec, cfg)
    assert res.working_set == 5000 and res.iterations["screen"] == 0
    assert res.converged
    _assert_same_solve(res, _whole_pool(X, spec, cfg))


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
