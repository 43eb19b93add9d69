"""Relaxation solvers over the capped simplex.

Four cooperating pieces:

* boost steps: damped line moves toward the steepest-gradient measure, with
  the step size from a quadratic model of the criterion along the segment;
* restricted minimization: coordinates agreeing with the steepest-gradient
  measure at a bound are pinned there, the rest are optimized inside the
  capped box by a nonmonotone spectral projected gradient (SPG; Birgin,
  Martinez & Raydan 2000): one projection per iteration with a
  Barzilai-Borwein step, and a line search along the segment to the
  projected point that runs on k x k information matrices only;
* one solve loop for both phases: boost until the relative optimality gap
  reaches v0, then alternate steepest-gradient classification with
  restricted solves until the gap reaches v;
* a screen for wide pools: the loop runs on a working set of the points
  best scored at the uniform weighting, and its iterates are checked on the
  full pool; a check that falls short sends the solve to the whole pool.

The relative gap (sum_i sg_i phi_i - Phi_p) / Phi_p is an exact optimality
certificate: value * (1 - gap) lower-bounds the optimal criterion value, so
every run yields a computable efficiency bound for any candidate sample.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, replace

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
from .errors import (
    DimensionMismatch,
    InfeasibleEpsilon,
    PositivityRepairFailed,
    SingularInformation,
)
from .measures import (
    CAP_SLACK,
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
# boost step size min(BOOST_STEP_CAP, -eta / (tau + BOOST_CURVATURE_REG)):
# the paper's step cap r and curvature regularizer u
BOOST_STEP_CAP = 0.25
BOOST_CURVATURE_REG = 1e-12
# iteration caps: boost steps, restricted solves, and SPG steps per solve
MAX_BOOST_ITERS = 5000
MAX_OUTER_ITERS = 200
INNER_MAX_ITERS = 10000
# a pool of more than SCREEN_FACTOR / eps points is solved on a working set:
# the pinned points and the SCREEN_FACTOR / eps best scored at the uniform
# weighting.  The solve falls back to the whole pool from its usual start
# when the boosted pilot's full-pool gap exceeds SCREEN_MISS * v0, or when the
# screen's last full-pool gap is above the target
SCREEN_FACTOR = 5.0
SCREEN_MISS = 2.0
# a restricted solve stops once its linearized gap is below INNER_TOL * Phi_p
INNER_TOL = 1e-10
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
    """Weight cap and gap targets of a relaxation solve.

    epsilon is the per-point weight cap (1/n makes every size-n subset
    feasible; a cap of 1 or more binds no weight); v0 is the boost-phase gap
    target, v the final gap target, so v >= v0 stops after the boost phase.
    Step sizes, tolerances and iteration caps are the module constants above.
    """

    epsilon: float | None = None
    v0: float = 1e-3
    v: float = 1e-6

    def __post_init__(self):
        if self.epsilon is not None and not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if not 0 < self.v0 < 1 or not 0 < self.v < 1:
            raise ValueError("gap targets v0 and v must lie in (0, 1)")

    @property
    def refine_enabled(self) -> bool:
        return self.v < self.v0

    @property
    def target_gap(self) -> float:
        return min(self.v, self.v0)


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
class SolveResult:
    w: Measure
    trace: SolveTrace
    converged: bool
    gap_ratio: float
    phi_value: float
    scores: np.ndarray
    # boost-phase steps taken, restricted solves run and full-pool checks of
    # a screened solve ("boost", "refine", "screen")
    iterations: dict[str, int]
    # points the final iterate was solved on: N unless the screen certified it
    working_set: int
    inner_iterations: int = 0
    # restricted solves that stopped at INNER_MAX_ITERS
    inner_cap_hits: int = 0


@dataclass
class EfficiencyBounds:
    """Bracketing efficiency estimates for a candidate measure.

    ratio = Phi_p(w_solved) / Phi_p(w_candidate) overestimates the candidate's
    efficiency relative to the exact relaxation optimum;
    certified_lower_bound = ratio * (1 - gap(w_solved)) underestimates it, and
    therefore also underestimates efficiency relative to the best sample.
    phi_candidate is Phi_p(w_candidate) itself.
    """

    ratio: float
    certified_lower_bound: float
    solved_gap_ratio: float
    phi_candidate: float


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
              pinned: np.ndarray | None = None) -> _Eval:
    state = build_info_state(aset, w, spec)
    scores = phi_p_scores(aset, state, spec)
    sg = sg_measure(_pin_scores(scores, pinned), w.epsilon)
    lin = float(sg.weights @ scores)
    gap_ratio = (lin - state.phi_value) / state.phi_value
    return _Eval(state, scores, sg, lin, gap_ratio)


def _boost_once(aset: AtomSet, w: Measure, ev: _Eval, spec: CriterionSpec) -> tuple[Measure, float]:
    eta_value = ev.state.phi_value - ev.lin
    # a directional derivative within roundoff of zero is stationary
    if eta_value >= -PHI_SLACK * (1.0 + abs(ev.state.phi_value)):
        return w, 0.0
    M_sg = aset.weighted_sum(ev.sg.weights)
    try:
        tau_value = _tau_blend(ev.state.M, M_sg, spec, ev.state.phi_value)
    except SingularInformation:
        # both curvature probes left the PD cone: the step cap and the
        # halving line search below still bound the move
        tau_value = 0.0
    alpha = min(BOOST_STEP_CAP, max(0.0, -eta_value / (tau_value + BOOST_CURVATURE_REG)))
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


def _restricted(aset: AtomSet, w: Measure, sg: Measure, spec: CriterionSpec,
                pinned: np.ndarray | None, phi_ref: float) -> tuple[Measure, float, int, bool]:
    """Minimize the criterion with bound-agreeing coordinates pinned.

    Points at the cap in both w and sg stay at the cap, points at zero in
    both stay at zero; the rest move inside the capped box with the leftover
    mass, by nonmonotone spectral projected gradient (the gradient
    coordinate is the negated leverage).  Each iteration projects once, at
    the Barzilai-Borwein step s^T s / s^T y, and searches the segment from
    the iterate to that projection in information space: a trial costs one
    k x k factorization of M + t * M_d.  A trial is accepted under an Armijo
    rule against the largest criterion value of the last NONMONOTONE_WINDOW
    iterates, so single steps may go uphill; the best iterate is kept, and
    the result never has a larger criterion value than phi_ref = Phi_p(w).
    Returns (measure, its criterion value, SPG steps, whether the step cap
    was hit).
    """
    eps = w.epsilon
    t1, t2 = active_set_split(w, sg)
    if pinned is not None:
        t1 = t1.copy()
        t1[pinned] = True
        t2 = t2 & ~t1
    free = ~(t1 | t2)
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
    for inner in range(1, INNER_MAX_ITERS + 1):
        u_best = _greedy_linear_max(grad, eps, mass)
        res_gap = float((u_best - wf) @ grad)
        if res_gap <= INNER_TOL * max(state.phi_value, 1e-300):
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


def _check_pinned(pinned, N: int) -> np.ndarray | None:
    """Pinned points as sorted distinct indices; None when there are none.

    A boolean mask must have one entry per point.  Indices must be integers
    in [0, N); a repeated index pins its point once.
    """
    if pinned is None:
        return None
    pinned = np.atleast_1d(np.asarray(pinned))
    if pinned.dtype == bool:
        if pinned.shape != (N,):
            raise DimensionMismatch(f"pinned mask has shape {pinned.shape} for {N} points")
        pinned = np.flatnonzero(pinned)
    elif pinned.size == 0:
        return None
    elif pinned.ndim != 1 or pinned.dtype.kind not in "iu":
        raise DimensionMismatch(
            f"pinned must be a mask or a vector of integer indices, got {pinned.dtype} "
            f"with shape {pinned.shape}")
    elif pinned.min() < 0 or pinned.max() >= N:
        bad = pinned[(pinned < 0) | (pinned >= N)][0]
        raise DimensionMismatch(f"pinned index {bad} outside [0, {N})")
    # intp, so that joining them to other indices keeps an integer dtype
    pinned = _sorted_unique(pinned).astype(np.intp, copy=False)
    return pinned if pinned.size else None


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a vector, without the numpy.ma import np.unique makes."""
    a = np.sort(a)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _count(x: float) -> int:
    """ceil(x) for a point count such as 5 / eps, forgiving the rounding of x."""
    return int(np.ceil(x * (1.0 - 1e-12)))


@dataclass
class _Run:
    """Trace and counters shared by the rounds of one solve."""

    trace: SolveTrace
    t0: float
    iterations: dict[str, int]
    inner: int = 0
    cap_hits: int = 0


def _descend(aset: AtomSet, spec: CriterionSpec, cfg: SolverConfig, pinned: np.ndarray | None,
             run: _Run, w: Measure, boosting: bool,
             ev: _Eval | None = None) -> tuple[Measure, _Eval]:
    """The solve loop on one atom set, from w; returns w and its _Eval.

    Each pass evaluates, records and tests the iterate, then makes one move.
    The move is a boost step while boosting, until the gap reaches v0, a step
    is zero or MAX_BOOST_ITERS steps were taken; the loop then returns if
    refinement is off.  After that it is a restricted solve
    on the projected steepest-gradient split until the gap reaches v, except
    that a restricted solve which stalled is followed by one boost step.  A
    given ev is w's evaluation, already recorded.
    """
    phase, alpha, stalled = "boost", np.nan, False
    while True:
        if ev is None:
            ev = _evaluate(aset, w, spec, pinned)
            t1, t2 = active_set_split(w, ev.sg)
            run.trace.add(phase=phase, phi_value=ev.state.phi_value, gap_ratio=ev.gap_ratio,
                          alpha=alpha, t1_size=int(t1.sum()), t2_size=int(t2.sum()),
                          wall_time=time.perf_counter() - run.t0)
        if boosting:
            if ev.gap_ratio > cfg.v0 and run.iterations["boost"] < MAX_BOOST_ITERS:
                w_next, alpha = _boost_once(aset, w, ev, spec)
                run.iterations["boost"] += 1
                if alpha > 0.0:
                    w, ev = w_next, None
                    continue
            boosting = False
            if not cfg.refine_enabled:
                return w, ev
        if ev.gap_ratio <= cfg.v or run.iterations["refine"] == MAX_OUTER_ITERS:
            return w, ev
        if stalled:
            stalled = False
            w_next, alpha = _boost_once(aset, w, ev, spec)
            if alpha > 0.0:
                w, ev, phase = w_next, None, "boost"
                continue
        sg_pd = psg_measure(_pin_scores(ev.scores, pinned), w.epsilon, aset, fallback=w)
        phi_old = ev.state.phi_value
        w, phi_new, inner, cap_hit = _restricted(aset, w, sg_pd, spec, pinned, phi_ref=phi_old)
        run.iterations["refine"] += 1
        run.inner += inner
        run.cap_hits += cap_hit
        stalled = phi_old - phi_new < STALL_RTOL * abs(phi_old)
        phase, alpha, ev = "refine", 0.0, None


def _screen(aset: AtomSet, spec: CriterionSpec, cfg: SolverConfig, eps: float,
            pinned: np.ndarray | None, scores_u: np.ndarray,
            run: _Run) -> tuple[Measure, _Eval, int] | None:
    """Solve on a working set, checking its iterates on the full pool.

    A boost-only pilot on the working set is checked first; None (fall back
    to the whole pool) if its full-pool gap exceeds SCREEN_MISS * v0.  Then
    one refine round on the working set, warm-started, is checked the same
    way.  Returns the zero-padded iterate, its full-pool _Eval and the
    working-set size, or None when the last full-pool gap is above the target.
    """
    N, m = len(aset), _count(SCREEN_FACTOR / eps)
    ws = np.argpartition(-scores_u, m - 1)[:m]
    ws = _sorted_unique(np.concatenate([ws, pinned])) if pinned is not None else np.sort(ws)
    sub = aset.subset(ws)
    pin_sub = None if pinned is None else np.searchsorted(ws, pinned)

    def check(w_sub):
        wts = np.zeros(N)
        wts[ws] = w_sub.weights
        w = Measure(wts, eps)
        run.iterations["screen"] += 1
        return w, _evaluate(aset, w, spec, pinned)

    start = psg_measure(_pin_scores(scores_u[ws], pin_sub), eps, sub,
                        fallback=Measure(np.full(ws.size, 1.0 / ws.size), eps))
    w_sub, ev_sub = _descend(sub, spec, replace(cfg, v=cfg.v0), pin_sub, run, start, boosting=True)
    w, ev = check(w_sub)
    if ev.gap_ratio > SCREEN_MISS * cfg.v0:
        return None
    if ev.gap_ratio > cfg.target_gap and cfg.refine_enabled:
        w_sub, _ = _descend(sub, spec, cfg, pin_sub, run, w_sub, boosting=False, ev=ev_sub)
        w, ev = check(w_sub)
    return (w, ev, ws.size) if ev.gap_ratio <= cfg.target_gap else None


def solve_hybrid(atoms, spec: CriterionSpec, cfg: SolverConfig,
                 pinned: np.ndarray | None = None) -> SolveResult:
    """Boost-then-refine solve of the capped-simplex relaxation.

    Starts from the projected steepest-gradient measure of the uniform
    weighting and runs the solve loop (see _descend): boost steps until the
    gap reaches v0, then restricted solves until it reaches v (skipped when
    v >= v0).  A pool of more than SCREEN_FACTOR / eps points is first solved
    on a working set (see _screen), and on the whole pool when that falls
    short; the returned weights, scores and gap are always those of the full
    pool.  ``pinned`` points (a mask or integer indices) are held at the cap
    throughout, which is how already-purchased points enter.
    """
    aset = as_atom_set(atoms)
    if cfg.epsilon is None:
        raise ValueError("cfg.epsilon must be set")
    # the weights sum to one, so a cap above one binds none of them, and a
    # cap near the float limit overflows the capped-simplex projection
    eps = min(float(cfg.epsilon), 1.0)
    N = len(aset)
    if N * eps < 1.0 - 1e-9:
        raise InfeasibleEpsilon(f"N * epsilon = {N * eps:.6g} < 1")
    pinned = _check_pinned(pinned, N)
    if pinned is not None and pinned.size * eps > 1.0 + 1e-9:
        raise InfeasibleEpsilon("pinned points alone exceed total mass one")

    uniform = Measure(np.full(N, 1.0 / N), eps)
    state_u = build_info_state(aset, uniform, spec)
    scores_u = phi_p_scores(aset, state_u, spec)
    run = _Run(SolveTrace(), time.perf_counter(), {"boost": 0, "refine": 0, "screen": 0})
    screened = None
    if _count(SCREEN_FACTOR / eps) < N:
        try:
            screened = _screen(aset, spec, cfg, eps, pinned, scores_u, run)
        except (SingularInformation, PositivityRepairFailed):
            pass
    if screened is None:
        # the whole pool from the usual start; a failed screen keeps only its count
        run = _Run(SolveTrace(), run.t0, {"boost": 0, "refine": 0,
                                          "screen": run.iterations["screen"]})
        w = psg_measure(_pin_scores(scores_u, pinned), eps, aset, fallback=uniform)
        w, ev = _descend(aset, spec, cfg, pinned, run, w, boosting=True)
        working_set = N
    else:
        w, ev, working_set = screened
    converged = bool(ev.gap_ratio <= cfg.target_gap)
    return SolveResult(w=w, trace=run.trace, converged=converged, gap_ratio=ev.gap_ratio,
                       phi_value=ev.state.phi_value, scores=ev.scores,
                       iterations=run.iterations, working_set=working_set,
                       inner_iterations=run.inner, inner_cap_hits=run.cap_hits)


def efficiency_bounds(w_candidate: Measure, w_solved: Measure, atoms,
                      spec: CriterionSpec) -> EfficiencyBounds:
    """Efficiency bracket of a candidate measure against a solved relaxation.

    The certified bound transfers only to a candidate that is feasible for
    the solved relaxation's cap (epsilon = 1/n covers every size-n sample);
    a candidate weight above that cap raises InfeasibleEpsilon.
    """
    aset = as_atom_set(atoms)
    top = float(w_candidate.weights.max())
    if top > w_solved.epsilon + CAP_SLACK:
        raise InfeasibleEpsilon(
            f"candidate weight {top:.6g} exceeds the solved cap epsilon = "
            f"{w_solved.epsilon:.6g}, so the certificate does not apply")
    phi_candidate = build_info_state(aset, w_candidate, spec).phi_value
    ev = _evaluate(aset, w_solved, spec)
    phi = ev.state.phi_value
    ratio = phi / phi_candidate
    certified = phi * (1.0 - max(ev.gap_ratio, 0.0)) / phi_candidate
    return EfficiencyBounds(ratio=float(ratio), certified_lower_bound=float(certified),
                            solved_gap_ratio=float(ev.gap_ratio),
                            phi_candidate=float(phi_candidate))
