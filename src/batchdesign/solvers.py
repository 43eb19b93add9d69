"""Relaxation solvers over the capped simplex.

Three cooperating pieces:

* boost steps: damped line moves toward the steepest-gradient measure, with
  the step size from a quadratic model of the criterion along the segment;
* restricted minimization: coordinates agreeing with the steepest-gradient
  measure at a bound are pinned there, the rest are optimized inside the
  capped box by a nonmonotone spectral projected gradient (SPG; Birgin,
  Martinez & Raydan 2000): one projection per iteration with a
  Barzilai-Borwein step, and a line search along the segment to the
  projected point that runs on k x k information matrices only;
* the hybrid driver: boost until the relative optimality gap reaches v0,
  then alternate steepest-gradient classification with restricted solves
  until the gap reaches v.

The relative gap (sum_i sg_i phi_i - Phi_p) / Phi_p is an exact optimality
certificate: value * (1 - gap) lower-bounds the optimal criterion value, so
every run yields a computable efficiency bound for any candidate sample.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .atoms import AtomSet, as_atom_set
from .criteria import (
    CriterionSpec,
    InfoState,
    _tau_blend,
    build_info_state,
    info_state_from_m,
    phi_p_scores,
)
from .errors import InfeasibleEpsilon, SingularInformation
from .measures import (
    CAP_BAND,
    ZERO_BAND,
    Measure,
    _greedy_linear_max,
    active_set_split,
    project_capped_simplex,
    psg_measure,
    sg_measure,
)

# objective increases below this absolute slack are treated as ties
PHI_SLACK = 1e-12
# relative outer-loop improvement under which a safeguard boost is inserted
STALL_RTOL = 1e-14
# inner loop: a trial is accepted against the largest criterion value of the
# last NONMONOTONE_WINDOW accepted iterates, with Armijo constant ARMIJO
NONMONOTONE_WINDOW = 10
ARMIJO = 1e-4
# the spectral step is capped at ALPHA_MAX and grows by BB_GROW when s^T y <= 0
ALPHA_MAX = 1e30
BB_GROW = 10.0
_ROUNDOFF = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps for the relaxation solvers.

    epsilon is the per-point weight cap (1/n makes every size-n subset
    feasible); v0 is the boost-phase gap target, v the final gap target.
    r caps the boost step and u regularizes its curvature denominator.
    """

    epsilon: float | None = None
    v0: float = 1e-3
    v: float = 1e-6
    r: float = 0.25
    u: float = 1e-12
    max_boost_iters: int = 5000
    max_outer_iters: int = 200
    inner_tol: float = 1e-10
    inner_max_iters: int = 10000
    skip_refine: bool = False

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.v0 < 1 or not 0 < self.v < 1:
            raise ValueError("gap targets v0 and v must lie in (0, 1)")
        if not 0 < self.r < 1:
            raise ValueError("step cap r must lie in (0, 1)")
        if not self.u > 0:
            raise ValueError("curvature regularizer u must be positive")
        for name in ("max_boost_iters", "max_outer_iters", "inner_max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if not self.inner_tol > 0:
            raise ValueError("inner_tol must be positive")

    @property
    def refine_enabled(self) -> bool:
        return self.v < self.v0 and not self.skip_refine

    @property
    def target_gap(self) -> float:
        return self.v if self.refine_enabled else self.v0


@dataclass(frozen=True)
class TraceRecord:
    phase: str
    phi_value: float
    gap_ratio: float
    alpha: float
    t1_size: int
    t2_size: int
    wall_time: float


class SolveTrace:
    """Accepted-iterate history of a solve."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def add(self, **kw) -> None:
        self.records.append(TraceRecord(**kw))

    def __len__(self) -> int:
        return len(self.records)

    def phi_values(self) -> np.ndarray:
        return np.array([r.phi_value for r in self.records])

    def is_monotone(self, slack: float = PHI_SLACK) -> bool:
        phis = self.phi_values()
        if phis.size < 2:
            return True
        return bool(np.all(np.diff(phis) <= slack + slack * np.abs(phis[:-1])))

    def phase_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        prev = 0.0
        for rec in self.records:
            out[rec.phase] = out.get(rec.phase, 0.0) + max(rec.wall_time - prev, 0.0)
            prev = rec.wall_time
        return out

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for rec in self.records:
            out[rec.phase] = out.get(rec.phase, 0) + 1
        return out


@dataclass
class GapResult:
    gap_ratio: float
    sg: Measure
    phi_value: float
    scores: np.ndarray


@dataclass
class BoostStep:
    w_next: Measure
    alpha: float


@dataclass
class SolveResult:
    w: Measure
    trace: SolveTrace
    converged: bool
    gap_ratio: float
    phi_value: float
    scores: np.ndarray
    iterations: dict[str, int]
    inner_iterations: int = 0
    # restricted solves that stopped at cfg.inner_max_iters
    inner_cap_hits: int = 0


@dataclass
class EfficiencyBounds:
    """Bracketing efficiency estimates for a candidate measure.

    ratio = Phi_p(w_solved) / Phi_p(w_candidate) overestimates the candidate's
    efficiency relative to the exact relaxation optimum;
    certified_lower_bound = ratio * (1 - gap(w_solved)) underestimates it, and
    therefore also underestimates efficiency relative to the best sample.
    """

    ratio: float
    certified_lower_bound: float
    solved_gap_ratio: float


@dataclass
class _Eval:
    state: InfoState
    scores: np.ndarray
    sg: Measure
    lin: float
    gap_ratio: float


def _pin_scores(scores: np.ndarray, pinned: np.ndarray | None) -> np.ndarray:
    if pinned is None:
        return scores
    doctored = scores.copy()
    doctored[pinned] = float(scores.max()) + 1.0
    return doctored


def _evaluate(aset: AtomSet, w: Measure, spec: CriterionSpec,
              pinned: np.ndarray | None = None, sg: Measure | None = None) -> _Eval:
    state = build_info_state(aset, w, spec)
    scores = phi_p_scores(aset, state, spec)
    if sg is None:
        sg = sg_measure(_pin_scores(scores, pinned), w.epsilon)
    lin = float(sg.weights @ scores)
    gap_ratio = (lin - state.phi_value) / state.phi_value
    return _Eval(state, scores, sg, lin, gap_ratio)


def optimality_gap(w: Measure, atoms, spec: CriterionSpec) -> GapResult:
    """Relative equivalence gap of w and the maximizing steepest-gradient measure."""
    ev = _evaluate(as_atom_set(atoms), w, spec)
    return GapResult(ev.gap_ratio, ev.sg, ev.state.phi_value, ev.scores)


def boost_alpha(eta_value: float, tau_value: float, r: float, u: float) -> float:
    """Step size from the quadratic model: min(r, max(0, -eta / (tau + u)))."""
    return min(r, max(0.0, -eta_value / (tau_value + u)))


def _boost_once(aset: AtomSet, w: Measure, ev: _Eval, spec: CriterionSpec,
                cfg: SolverConfig) -> tuple[Measure, float]:
    eta_value = ev.state.phi_value - ev.lin
    # a directional derivative within roundoff of zero is stationary
    if eta_value >= -PHI_SLACK * (1.0 + abs(ev.state.phi_value)):
        return w, 0.0
    M_sg = aset.weighted_sum(ev.sg.weights)
    try:
        tau_value = _tau_blend(ev.state.M, M_sg, spec)
    except SingularInformation:
        # both curvature probes left the PD cone: the step cap and the
        # halving line search below still bound the move
        tau_value = 0.0
    alpha = boost_alpha(eta_value, tau_value, cfg.r, cfg.u)
    if alpha <= 0.0:
        return w, 0.0
    phi0 = ev.state.phi_value
    for _ in range(21):
        try:
            phi_a = info_state_from_m((1.0 - alpha) * ev.state.M + alpha * M_sg, spec).phi_value
        except SingularInformation:
            phi_a = np.inf
        if phi_a <= phi0 + PHI_SLACK:
            break
        alpha *= 0.5
    else:
        return w, 0.0
    wts = (1.0 - alpha) * w.weights + alpha * ev.sg.weights
    wts = wts / wts.sum()
    return Measure(wts, w.epsilon), alpha


def boost_step(w: Measure, sg: Measure, atoms, spec: CriterionSpec,
               cfg: SolverConfig) -> BoostStep:
    """One damped move from w toward sg; alpha = 0 is a legal outcome."""
    aset = as_atom_set(atoms)
    ev = _evaluate(aset, w, spec, sg=sg)
    w_next, alpha = _boost_once(aset, w, ev, spec, cfg)
    return BoostStep(w_next, alpha)


def restricted_minimize(w: Measure, sg: Measure, atoms, spec: CriterionSpec,
                        cfg: SolverConfig, pinned: np.ndarray | None = None) -> Measure:
    """Minimize the criterion with bound-agreeing coordinates pinned.

    Points at the cap in both w and sg stay at the cap, points at zero in
    both stay at zero; the rest move inside the capped box with the leftover
    mass, by nonmonotone spectral projected gradient (the gradient
    coordinate is the negated leverage).  Each iteration projects once, at
    the Barzilai-Borwein step s^T s / s^T y, and searches the segment from
    the iterate to that projection in information space: a trial costs one
    k x k factorization of M + t * M_d.  A trial is accepted under an Armijo
    rule against the largest criterion value of the last NONMONOTONE_WINDOW
    iterates, so single steps may go uphill; the best iterate is returned,
    and the result never has a larger criterion value than w.
    """
    measure, _, _, _ = _restricted(as_atom_set(atoms), w, sg, spec, cfg, pinned, phi_ref=None)
    return measure


def _restricted(aset: AtomSet, w: Measure, sg: Measure, spec: CriterionSpec,
                cfg: SolverConfig, pinned: np.ndarray | None,
                phi_ref: float | None) -> tuple[Measure, float, int, bool]:
    eps = w.epsilon
    t1, t2 = active_set_split(w, sg)
    if pinned is not None:
        t1 = t1.copy()
        t1[pinned] = True
        t2 = t2 & ~t1
    free = ~(t1 | t2)
    if phi_ref is None:
        phi_ref = build_info_state(aset, w, spec).phi_value
    if not free.any():
        return w, phi_ref, 0, False

    mass = 1.0 - eps * int(t1.sum())
    if mass < -1e-9:
        return w, phi_ref, 0, False
    mass = max(mass, 0.0)
    M_fixed = eps * aset.weighted_sum(t1.astype(float)) if t1.any() else np.zeros((aset.k, aset.k))
    free_atoms = aset.subset(free)
    wf = project_capped_simplex(w.weights[free], eps, mass)

    def assemble(u: np.ndarray) -> InfoState:
        return info_state_from_m(M_fixed + free_atoms.weighted_sum(u), spec)

    try:
        state = assemble(wf)
    except SingularInformation:
        return w, phi_ref, 0, False

    # nonmonotone spectral projected gradient (Birgin, Martinez & Raydan 2000)
    # on the free coordinates; grad holds the scores, the negated gradient
    grad = phi_p_scores(free_atoms, state, spec)
    recent = deque([state.phi_value], maxlen=NONMONOTONE_WINDOW)
    best_wf, best_phi = wf, state.phi_value
    alpha = eps / max(float(grad.max() - grad.min()), 1e-12)
    cap_hit = False
    inner = 0
    for inner in range(1, cfg.inner_max_iters + 1):
        u_best = _greedy_linear_max(grad, eps, mass)
        res_gap = float((u_best - wf) @ grad)
        if res_gap <= cfg.inner_tol * max(state.phi_value, 1e-300):
            break
        d = project_capped_simplex(wf + alpha * grad, eps, mass) - wf
        slope = float(grad @ d)
        if not slope > 0.0:  # the step vanished in roundoff
            break
        # the criterion along the segment wf + t d needs only the k x k matrices
        M_d = free_atoms.weighted_sum(d)
        phi0 = state.phi_value
        phi_max = max(recent)
        t = 1.0
        accepted = None
        # give up once the predicted decrease is below the roundoff of phi
        while t * slope > _ROUNDOFF * abs(phi0):
            try:
                trial = info_state_from_m(state.M + t * M_d, spec)
            except SingularInformation:
                t *= 0.5
                continue
            if trial.phi_value <= phi_max - ARMIJO * t * slope:
                accepted = trial
                break
            # safeguarded minimizer of the quadratic through phi0, slope and the trial
            curv = trial.phi_value - phi0 + t * slope
            t_next = 0.5 * slope * t * t / curv if curv > 0.0 else 0.5 * t
            t = min(max(t_next, 0.1 * t), 0.5 * t)
        if accepted is None:
            break
        s_step = t * d
        grad_next = phi_p_scores(free_atoms, accepted, spec)
        sty = float(s_step @ (grad - grad_next))
        alpha = min(float(s_step @ s_step) / sty if sty > 0.0 else alpha * BB_GROW, ALPHA_MAX)
        wf, state, grad = wf + s_step, accepted, grad_next
        recent.append(state.phi_value)
        if state.phi_value < best_phi:
            best_wf, best_phi = wf, state.phi_value
    else:
        cap_hit = True

    # one fresh assembly: the line searches updated M incrementally
    wf = np.clip(best_wf, 0.0, eps)
    try:
        state = assemble(wf)
    except SingularInformation:
        return w, phi_ref, inner, cap_hit
    if state.phi_value > phi_ref + PHI_SLACK:
        return w, phi_ref, inner, cap_hit
    full = np.array(w.weights, dtype=float, copy=True)
    full[t1] = eps
    full[t2] = 0.0
    full[free] = wf
    total = full.sum()
    if abs(total - 1.0) > 1e-13:
        full = full / total
    return Measure(full, eps), float(state.phi_value), inner, cap_hit


def _refine_loop(aset: AtomSet, w: Measure, spec: CriterionSpec, cfg: SolverConfig,
                 pinned: np.ndarray | None, trace: SolveTrace, t0: float,
                 phase: str = "refine") -> tuple[Measure, bool, _Eval, int, int, int]:
    pending_boost = False
    inner_total = 0
    cap_hits = 0
    outer = 0
    for outer in range(1, cfg.max_outer_iters + 1):
        ev = _evaluate(aset, w, spec, pinned)
        t1, t2 = active_set_split(w, ev.sg)
        trace.add(phase=phase, phi_value=ev.state.phi_value, gap_ratio=ev.gap_ratio,
                  alpha=0.0, t1_size=int(t1.sum()), t2_size=int(t2.sum()),
                  wall_time=time.perf_counter() - t0)
        if ev.gap_ratio <= cfg.v:
            return w, True, ev, outer, inner_total, cap_hits
        if pending_boost:
            w_b, alpha = _boost_once(aset, w, ev, spec, cfg)
            pending_boost = False
            if alpha > 0.0:
                w = w_b
                ev = _evaluate(aset, w, spec, pinned)
                trace.add(phase="boost", phi_value=ev.state.phi_value, gap_ratio=ev.gap_ratio,
                          alpha=alpha, t1_size=int(t1.sum()), t2_size=int(t2.sum()),
                          wall_time=time.perf_counter() - t0)
                if ev.gap_ratio <= cfg.v:
                    return w, True, ev, outer, inner_total, cap_hits
        sg_pd = ev.sg
        try:
            sg_pd = psg_measure(_pin_scores(ev.scores, pinned), w.epsilon, aset, fallback=w)
        except SingularInformation:
            pass
        w_new, phi_new, inner, cap_hit = _restricted(aset, w, sg_pd, spec, cfg, pinned,
                                                     phi_ref=ev.state.phi_value)
        inner_total += inner
        cap_hits += cap_hit
        improve = ev.state.phi_value - phi_new
        pending_boost = improve < STALL_RTOL * abs(ev.state.phi_value)
        w = w_new
    ev = _evaluate(aset, w, spec, pinned)
    trace.add(phase=phase, phi_value=ev.state.phi_value, gap_ratio=ev.gap_ratio,
              alpha=0.0, t1_size=0, t2_size=0, wall_time=time.perf_counter() - t0)
    return w, bool(ev.gap_ratio <= cfg.v), ev, outer, inner_total, cap_hits


def solve_active_set(w0: Measure, atoms, spec: CriterionSpec, cfg: SolverConfig,
                     pinned: np.ndarray | None = None) -> SolveResult:
    """Active-set iteration from a feasible start until the gap reaches v."""
    aset = as_atom_set(atoms)
    t0 = time.perf_counter()
    trace = SolveTrace()
    w, converged, ev, outer, inner_total, cap_hits = _refine_loop(
        aset, w0, spec, cfg, pinned, trace, t0)
    return SolveResult(w=w, trace=trace, converged=converged, gap_ratio=ev.gap_ratio,
                       phi_value=ev.state.phi_value, scores=ev.scores,
                       iterations={"boost": 0, "refine": outer},
                       inner_iterations=inner_total, inner_cap_hits=cap_hits)


def solve_hybrid(atoms, spec: CriterionSpec, cfg: SolverConfig,
                 pinned: np.ndarray | None = None) -> SolveResult:
    """Boost-then-refine solve of the capped-simplex relaxation.

    Starts from the steepest-gradient measure of the uniform weighting,
    boosts until the gap reaches v0, then runs the active-set refinement to v
    (skipped when v >= v0 or skip_refine is set).  ``pinned`` indices are held
    at the cap throughout, which is how already-purchased points enter.
    """
    aset = as_atom_set(atoms)
    if cfg.epsilon is None:
        raise ValueError("cfg.epsilon must be set")
    eps = float(cfg.epsilon)
    N = len(aset)
    if N * eps < 1.0 - 1e-9:
        raise InfeasibleEpsilon(f"N * epsilon = {N * eps:.6g} < 1")
    pinned_idx = None
    if pinned is not None:
        pinned_idx = np.asarray(pinned)
        if pinned_idx.dtype == bool:
            pinned_idx = np.flatnonzero(pinned_idx)
        if pinned_idx.size * eps > 1.0 + 1e-9:
            raise InfeasibleEpsilon("pinned points alone exceed total mass one")

    t0 = time.perf_counter()
    trace = SolveTrace()

    uniform = Measure(np.full(N, 1.0 / N), eps)
    state_u = build_info_state(aset, uniform, spec)
    scores_u = phi_p_scores(aset, state_u, spec)
    w = psg_measure(_pin_scores(scores_u, pinned_idx), eps, aset, fallback=uniform)

    n_boost = 0
    ev = None
    for _ in range(cfg.max_boost_iters):
        ev = _evaluate(aset, w, spec, pinned_idx)
        t1, t2 = active_set_split(w, ev.sg)
        trace.add(phase="boost", phi_value=ev.state.phi_value, gap_ratio=ev.gap_ratio,
                  alpha=np.nan, t1_size=int(t1.sum()), t2_size=int(t2.sum()),
                  wall_time=time.perf_counter() - t0)
        if ev.gap_ratio <= cfg.v0:
            break
        w_next, alpha = _boost_once(aset, w, ev, spec, cfg)
        n_boost += 1
        if alpha <= 0.0:
            break
        w = w_next
        ev = None
    if ev is None:
        ev = _evaluate(aset, w, spec, pinned_idx)
        trace.add(phase="boost", phi_value=ev.state.phi_value, gap_ratio=ev.gap_ratio,
                  alpha=np.nan, t1_size=0, t2_size=0, wall_time=time.perf_counter() - t0)

    if cfg.refine_enabled and ev.gap_ratio > cfg.v:
        w, converged, ev, outer, inner_total, cap_hits = _refine_loop(
            aset, w, spec, cfg, pinned_idx, trace, t0)
    else:
        converged = ev.gap_ratio <= cfg.target_gap
        outer = 0
        inner_total = 0
        cap_hits = 0
    return SolveResult(w=w, trace=trace, converged=converged, gap_ratio=ev.gap_ratio,
                       phi_value=ev.state.phi_value, scores=ev.scores,
                       iterations={"boost": n_boost, "refine": outer},
                       inner_iterations=inner_total, inner_cap_hits=cap_hits)


def efficiency_bounds(w_candidate: Measure, w_solved: Measure, atoms,
                      spec: CriterionSpec) -> EfficiencyBounds:
    """Efficiency bracket of a candidate measure against a solved relaxation.

    Requires the candidate to be feasible for the solved relaxation's cap so
    the certified bound transfers (epsilon = 1/n covers every size-n sample).
    """
    aset = as_atom_set(atoms)
    phi_candidate = build_info_state(aset, w_candidate, spec).phi_value
    gap = optimality_gap(w_solved, aset, spec)
    ratio = gap.phi_value / phi_candidate
    certified = gap.phi_value * (1.0 - max(gap.gap_ratio, 0.0)) / phi_candidate
    return EfficiencyBounds(ratio=float(ratio), certified_lower_bound=float(certified),
                            solved_gap_ratio=float(gap.gap_ratio))
