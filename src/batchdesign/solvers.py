"""Relaxation solvers over the capped simplex.

Four cooperating pieces:

* boost steps: line moves toward the steepest-gradient measure, sized by a
  quadratic model of the criterion along the segment up to its end, the
  measure itself, and halved only where the criterion would rise;
* restricted minimization: coordinates agreeing with the steepest-gradient
  measure at a bound are pinned there, the rest are optimized inside the
  capped box by a nonmonotone spectral projected gradient (SPG; Birgin,
  Martinez & Raydan 2000): one projection per iteration with a
  Barzilai-Borwein step, and a line search along the segment to the
  projected point that runs on k x k information matrices only;
* two phases: boost until the relative optimality gap reaches v0, then
  alternate steepest-gradient classification with restricted solves until
  the gap reaches v.  When refinement follows, the boost phase also ends at
  the first boost that raises the gap, where the vertex-directed steps
  start to zigzag (Lacoste-Julien & Jaggi 2015); its iterate, whose
  criterion value the step did not raise, is kept.  Each restricted solve
  is inexact: it stops once its own gap is INNER_FORCING times the outer
  gap it started from (the forcing term of inexact Newton methods; Dembo,
  Eisenstat & Steihaug 1982), or INNER_TOL if that is larger, so rounds far
  from the target do not solve their face to roundoff;
* a screen for wide pools: a boost phase (the pilot) on a working set of
  the points best scored at the uniform weighting, a gate that judges the
  pilot on a sample of the pool first, a refine phase on the working set,
  then one certifying check on the full pool; a gate or check that falls
  short sends the solve to the whole pool.

Both moves take their iterate's evaluation and return (measure, InfoState),
and that state serves the new iterate's evaluation; only a start, the
screen's full-pool checks and the iterate that closes a restricted solve are
assembled afresh.

The relative gap (sum_i sg_i phi_i - Phi_p) / Phi_p is an exact optimality
certificate: value * (1 - gap) lower-bounds the optimal criterion value, so
every run yields a computable efficiency bound for any candidate sample.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .atoms import AtomSet, as_atom_set
from .criteria import (
    CriterionSpec,
    InfoState,
    _blend_curvature,
    build_info_state,
    info_state_from_m,
    phi_p_scores,
)
from .errors import InfeasibleEpsilon, PositivityRepairFailed, SingularInformation
from .measures import (
    CAP_SLACK,
    Measure,
    _check_capacity,
    _check_pinned,
    _greedy_linear_max,
    _sorted_unique,
    active_set_split,
    project_capped_simplex,
    psg_measure,
    sg_measure,
)

# objective increases below this absolute slack are treated as ties
PHI_SLACK = 1e-12
# relative outer-loop improvement under which a safeguard boost is inserted
STALL_RTOL = 1e-14
# boost step size min(1, -eta / (tau + BOOST_CURVATURE_REG)), at most the
# whole segment: the paper's curvature regularizer u
BOOST_CURVATURE_REG = 1e-12
# iteration caps: boost steps, restricted solves, and SPG steps per solve
MAX_BOOST_ITERS = 5000
MAX_OUTER_ITERS = 200
INNER_MAX_ITERS = 10000
# a pool of more than SCREEN_FACTOR / eps points is solved on a working set:
# the pinned points and the SCREEN_FACTOR / eps best scored at the uniform
# weighting.  The solve falls back to the whole pool from its usual start
# when the boosted pilot's full-pool gap exceeds SCREEN_MISS * v0, or when the
# screen's last full-pool gap is above the target.  Before a refine round the
# pilot's gap is first estimated from the working set and every
# PILOT_SAMPLE_STRIDE-th point outside it; only an estimate above
# SCREEN_MISS * v0 pays for the full-pool check
SCREEN_FACTOR = 5.0
SCREEN_MISS = 2.0
PILOT_SAMPLE_STRIDE = 10
# a restricted solve started at relative outer gap g stops once its
# linearized gap is below max(INNER_TOL, INNER_FORCING * g) * Phi_p
INNER_TOL = 1e-10
INNER_FORCING = 0.1
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
    """Accepted-iterate history of a solve; wall times count from its entry,
    and wall_time is the solve's own."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self.wall_time = 0.0

    def add(self, **kw) -> None:
        self.records.append(TraceRecord(**kw))

    def __len__(self) -> int:
        return len(self.records)

    def phase_seconds(self) -> dict[str, float]:
        """Seconds per phase, summing to wall_time: each record's phase is
        charged the time since the one before, the last also the time after."""
        out: dict[str, float] = {}
        prev = 0.0
        for rec in self.records:
            out[rec.phase] = out.get(rec.phase, 0.0) + max(rec.wall_time - prev, 0.0)
            prev = rec.wall_time
        if self.records:
            out[self.records[-1].phase] += max(self.wall_time - prev, 0.0)
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


@dataclass(frozen=True)
class _Certificate:
    """A solve's last full-pool evaluation, carried by the measure it returns:
    the InfoState of that measure on atoms, which holds its criterion and
    Phi_p, and its scores."""

    atoms: AtomSet
    state: InfoState
    scores: np.ndarray


def _same_criterion(a: CriterionSpec, b: CriterionSpec) -> bool:
    return a.p == b.p and (a.G is None) == (b.G is None) and (
        a.G is None or np.array_equal(a.G, b.G))


@dataclass
class _Eval:
    w: Measure
    state: InfoState
    scores: np.ndarray
    sg: Measure
    lin: float
    gap_ratio: float

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        """active_set_split(w, sg), made only for the trace and the restricted solve."""
        return active_set_split(self.w, self.sg)


def _pin_scores(scores: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    doctored = scores.copy()
    doctored[pinned] = float(scores.max()) + 1.0
    return doctored


def _evaluate(aset: AtomSet, w: Measure, spec: CriterionSpec, pinned: np.ndarray,
              state: InfoState | None = None) -> _Eval:
    """Evaluate w; a given state, made by the move to w, stands for M(w)'s assembly."""
    if state is None:
        state = build_info_state(aset, w, spec)
    scores = phi_p_scores(aset, state)
    sg = sg_measure(_pin_scores(scores, pinned), w.epsilon)
    lin = float(sg.weights @ scores)
    gap_ratio = (lin - state.phi_value) / state.phi_value
    return _Eval(w, state, scores, sg, lin, gap_ratio)


def _boost_once(aset: AtomSet, ev: _Eval) -> tuple[Measure, float, InfoState]:
    """Step from ev.w toward ev.sg by the quadratic model's alpha, at most 1,
    halved until Phi_p does not rise: (measure, alpha, the accepted trial's
    InfoState of (1 - alpha) M + alpha M_sg), or (ev.w, 0, ev.state)."""
    eta_value = ev.state.phi_value - ev.lin
    # a directional derivative within roundoff of zero is stationary
    if eta_value >= -PHI_SLACK * (1.0 + abs(ev.state.phi_value)):
        return ev.w, 0.0, ev.state
    M_sg = aset.weighted_sum(ev.sg.weights)
    # eta < 0 and tau >= 0 here, so the step is positive
    tau_value = _blend_curvature(ev.state, M_sg)
    alpha = min(1.0, -eta_value / (tau_value + BOOST_CURVATURE_REG))
    phi0 = ev.state.phi_value
    for _ in range(21):
        try:
            trial = info_state_from_m((1.0 - alpha) * ev.state.M + alpha * M_sg, ev.state.spec)
            if trial.phi_value <= phi0 + PHI_SLACK:
                break
        except SingularInformation:
            pass
        alpha *= 0.5
    else:
        return ev.w, 0.0, ev.state
    wts = (1.0 - alpha) * ev.w.weights + alpha * ev.sg.weights
    wts = wts / wts.sum()
    return Measure(wts, ev.w.epsilon), alpha, trial


def _restricted(aset: AtomSet, ev: _Eval, pinned: np.ndarray,
                run: _Run) -> tuple[Measure, InfoState]:
    """Minimize the criterion with bound-agreeing coordinates pinned.

    Against ev.split, for ev's iterate w and steepest-gradient measure sg:
    points at the cap in both w and sg stay at the cap, points at zero in
    both stay at zero; the rest move inside the capped box with the leftover
    mass, by nonmonotone spectral projected gradient (the gradient
    coordinate is the negated leverage).  The solve starts from ev itself:
    M(w) is ev.state's and the free points' scores are ev's.  Each
    iteration projects once, at the Barzilai-Borwein step s^T s / s^T y,
    and searches the segment from the iterate to that projection in
    information space: a trial costs one k x k factorization of M + t * M_d.
    A trial is accepted under an Armijo rule against the largest criterion
    value of the last NONMONOTONE_WINDOW iterates, so single steps may go
    uphill; the best iterate is kept.  The solve is inexact: it stops at the
    first iterate whose restricted gap is at most max(INNER_TOL,
    INNER_FORCING * g) times its criterion value, for ev's relative gap g.
    Adds its SPG steps and a step-cap hit to run.  Returns (w, ev.state)
    when w is kept, else the best iterate's weights (capped points at eps,
    zero points at 0, free points clipped to [0, eps], all divided by their
    sum) and one fresh assembly of them, whose Phi_p is not above Phi_p(w).
    """
    w, eps, spec = ev.w, ev.w.epsilon, ev.state.spec
    t1, t2 = ev.split
    t1 = t1.copy()
    t1[pinned] = True
    t2 = t2 & ~t1
    free = ~(t1 | t2)
    if not free.any():
        return w, ev.state
    mass = 1.0 - eps * int(t1.sum())
    if mass < -1e-9:
        return w, ev.state
    mass = max(mass, 0.0)
    free_atoms = aset.subset(free)
    wf = project_capped_simplex(w.weights[free], eps, mass)

    # nonmonotone spectral projected gradient (Birgin, Martinez & Raydan 2000)
    # on the free coordinates; grad holds the scores, the negated gradient
    state, grad = ev.state, ev.scores[free]
    recent = deque([state.phi_value], maxlen=NONMONOTONE_WINDOW)
    best_wf, best_phi = wf, state.phi_value
    alpha = eps / max(float(grad.max() - grad.min()), 1e-12)
    tol = max(INNER_TOL, INNER_FORCING * ev.gap_ratio)
    inner = 0
    for inner in range(1, INNER_MAX_ITERS + 1):
        u_best = _greedy_linear_max(grad, eps, mass)
        res_gap = float((u_best - wf) @ grad)
        if res_gap <= tol * max(state.phi_value, 1e-300):
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
        grad_next = phi_p_scores(free_atoms, accepted)
        sty = float(s_step @ (grad - grad_next))
        alpha = min(float(s_step @ s_step) / sty if sty > 0.0 else alpha * BB_GROW, ALPHA_MAX)
        wf, state, grad = wf + s_step, accepted, grad_next
        recent.append(state.phi_value)
        if state.phi_value < best_phi:
            best_wf, best_phi = wf, state.phi_value
    else:
        run.cap_hits += 1
    run.inner += inner

    # one fresh assembly of the weights returned: the line searches updated M
    # incrementally from M(w)
    full = w.weights.copy()
    full[t1] = eps
    full[t2] = 0.0
    full[free] = np.clip(best_wf, 0.0, eps)
    w_new = Measure(full / full.sum(), eps)
    try:
        state = build_info_state(aset, w_new, spec)
    except SingularInformation:
        return w, ev.state
    if state.phi_value > ev.state.phi_value + PHI_SLACK:
        return w, ev.state
    return w_new, state


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


def _record(aset: AtomSet, spec: CriterionSpec, pinned: np.ndarray, run: _Run,
            phase: str, alpha: float, w: Measure, state: InfoState | None = None) -> _Eval:
    """Evaluate the iterate w, from the InfoState the move to it made when
    given, and append its trace record."""
    ev = _evaluate(aset, w, spec, pinned, state)
    t1, t2 = ev.split
    run.trace.add(phase=phase, phi_value=ev.state.phi_value, gap_ratio=ev.gap_ratio,
                  alpha=alpha, t1_size=int(t1.sum()), t2_size=int(t2.sum()),
                  wall_time=time.perf_counter() - run.t0)
    return ev


def _boost_phase(aset: AtomSet, spec: CriterionSpec, cfg: SolverConfig,
                 pinned: np.ndarray, run: _Run, ev: _Eval, until_rise: bool) -> _Eval:
    """Boost from the recorded evaluation ev while the gap is above v0 and
    fewer than MAX_BOOST_ITERS steps were taken, up to a zero step; with
    until_rise, also up to the first boost whose gap rose above its start's,
    a zigzag whose iterate is kept.  Returns the last iterate's evaluation."""
    gap_from = np.inf
    # with refinement to follow, a boost that raised the gap is zigzagging
    while (ev.gap_ratio > cfg.v0 and run.iterations["boost"] < MAX_BOOST_ITERS
           and not (until_rise and ev.gap_ratio > gap_from)):
        gap_from = ev.gap_ratio
        w, alpha, state = _boost_once(aset, ev)
        run.iterations["boost"] += 1
        if alpha == 0.0:
            break
        ev = _record(aset, spec, pinned, run, "boost", alpha, w, state)
    return ev


def _refine_phase(aset: AtomSet, spec: CriterionSpec, cfg: SolverConfig,
                  pinned: np.ndarray, run: _Run, ev: _Eval) -> _Eval:
    """Restricted solves (see _restricted) from the recorded evaluation ev
    while the gap is above v and fewer than MAX_OUTER_ITERS rounds have run;
    a round that stalled is followed by one boost step.  Returns the last
    iterate's evaluation."""
    stalled = False
    while ev.gap_ratio > cfg.v and run.iterations["refine"] < MAX_OUTER_ITERS:
        if stalled:
            stalled = False
            w, alpha, state = _boost_once(aset, ev)
            if alpha > 0.0:
                ev = _record(aset, spec, pinned, run, "boost", alpha, w, state)
                continue
        phi_old = ev.state.phi_value
        move = _restricted(aset, ev, pinned, run)
        ev = _record(aset, spec, pinned, run, "refine", 0.0, *move)
        run.iterations["refine"] += 1
        stalled = phi_old - ev.state.phi_value < STALL_RTOL * abs(phi_old)
    return ev


def _sampled_gap(aset: AtomSet, ws: np.ndarray, ev_sub: _Eval, eps: float,
                 pin_sub: np.ndarray) -> float:
    """Estimated full-pool gap of a working-set iterate with evaluation ev_sub.

    The working set keeps the scores ev_sub holds; every PILOT_SAMPLE_STRIDE-th
    pool point outside it is scored through a strided view of the pool, with
    no copy, and stands for PILOT_SAMPLE_STRIDE points in the linear maximum.
    """
    stride = PILOT_SAMPLE_STRIDE
    sample = aset.subset(slice(None, None, stride))
    outside = np.ones(len(sample), dtype=bool)
    outside[ws[ws % stride == 0] // stride] = False
    sampled = phi_p_scores(sample, ev_sub.state)[outside]
    scores = np.concatenate([ev_sub.scores, np.repeat(sampled, stride)])
    u = _greedy_linear_max(_pin_scores(scores, pin_sub), eps, 1.0)
    phi = ev_sub.state.phi_value
    return (float(u @ scores) - phi) / phi


def _screen(aset: AtomSet, spec: CriterionSpec, cfg: SolverConfig, eps: float,
            pinned: np.ndarray, scores_u: np.ndarray,
            run: _Run) -> tuple[_Eval, int] | None:
    """Solve on a working set, certifying the result on the full pool.

    The pilot is a boost phase on the working set that boosts through rises
    of the gap.  When a refine phase follows, the pilot is gated first: the
    screen ends (None, fall back to the whole pool) when its gap estimated
    on a sample (_sampled_gap) and then its full-pool gap are both above
    SCREEN_MISS * v0; only an estimate above that pays for the full-pool
    check.  The refine phase then runs on the working set, warm-started.
    One check of the last iterate on the full pool certifies it.
    iterations["screen"] counts the pilot and the refine phase.  Returns
    the zero-padded iterate's full-pool _Eval and the working-set size, or
    None when its gap is above the target.
    """
    N, m = len(aset), _count(SCREEN_FACTOR / eps)
    ws = np.argpartition(-scores_u, m - 1)[:m]
    ws = _sorted_unique(np.concatenate([ws, pinned]))
    sub = aset.subset(ws)
    pin_sub = np.searchsorted(ws, pinned)

    def check(ev_sub):
        wts = np.zeros(N)
        wts[ws] = ev_sub.w.weights
        return _evaluate(aset, Measure(wts, eps), spec, pinned)

    start = psg_measure(_pin_scores(scores_u[ws], pin_sub), eps, sub)
    ev_sub = _record(sub, spec, pin_sub, run, "boost", np.nan, start)
    ev_sub = _boost_phase(sub, spec, cfg, pin_sub, run, ev_sub, until_rise=False)
    run.iterations["screen"] += 1
    if cfg.refine_enabled and ev_sub.gap_ratio > cfg.target_gap:
        miss = SCREEN_MISS * cfg.v0
        if (_sampled_gap(aset, ws, ev_sub, eps, pin_sub) > miss
                and check(ev_sub).gap_ratio > miss):
            return None
        ev_sub = _refine_phase(sub, spec, cfg, pin_sub, run, ev_sub)
        run.iterations["screen"] += 1
    ev = check(ev_sub)
    return (ev, ws.size) if ev.gap_ratio <= cfg.target_gap else None


def solve_hybrid(atoms, spec: CriterionSpec, cfg: SolverConfig,
                 pinned: np.ndarray | None = None) -> SolveResult:
    """Boost-then-refine solve of the capped-simplex relaxation.

    Starts from the projected steepest-gradient measure of the uniform
    weighting and runs the boost phase until the gap reaches v0, then the
    refine phase until it reaches v (skipped when v >= v0).  A pool of more
    than SCREEN_FACTOR / eps points is first solved on a working set (see
    _screen), and on the whole pool when that falls short; the returned
    weights, scores and gap are always those of the full pool.  ``pinned``
    points (a mask or integer indices) are held at the cap throughout, which
    is how already-purchased points enter.  The returned measure carries its
    full-pool evaluation (Phi_p and the read-only scores, with the pool and
    criterion), which efficiency_bounds reuses.
    """
    t0 = time.perf_counter()
    aset = as_atom_set(atoms)
    if cfg.epsilon is None:
        raise ValueError("cfg.epsilon must be set")
    # the weights sum to one, so a cap above one binds none of them, and a
    # cap near the float limit overflows the capped-simplex projection
    eps = min(float(cfg.epsilon), 1.0)
    N = len(aset)
    _check_capacity(N, eps)
    pinned = _check_pinned(pinned, N)
    if pinned.size * eps > 1.0 + 1e-9:
        raise InfeasibleEpsilon("pinned points alone exceed total mass one")

    state_u = info_state_from_m(aset.uniform_information(), spec)
    scores_u = phi_p_scores(aset, state_u)
    run = _Run(SolveTrace(), t0, {"boost": 0, "refine": 0, "screen": 0})
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
        start = psg_measure(_pin_scores(scores_u, pinned), eps, aset)
        ev = _record(aset, spec, pinned, run, "boost", np.nan, start)
        ev = _boost_phase(aset, spec, cfg, pinned, run, ev, until_rise=cfg.refine_enabled)
        if cfg.refine_enabled:
            ev = _refine_phase(aset, spec, cfg, pinned, run, ev)
        working_set = N
    else:
        ev, working_set = screened
    converged = bool(ev.gap_ratio <= cfg.target_gap)
    ev.scores.setflags(write=False)
    w = Measure(ev.w.weights, eps, _Certificate(aset, ev.state, ev.scores))
    run.trace.wall_time = time.perf_counter() - t0
    return SolveResult(w=w, trace=run.trace, converged=converged, gap_ratio=ev.gap_ratio,
                       phi_value=ev.state.phi_value, scores=ev.scores,
                       iterations=run.iterations, working_set=working_set,
                       inner_iterations=run.inner, inner_cap_hits=run.cap_hits)


def efficiency_bounds(w_candidate: Measure, w_solved: Measure, atoms,
                      spec: CriterionSpec) -> EfficiencyBounds:
    """Efficiency bracket of a candidate measure against a solved relaxation.

    The certified bound transfers only to a candidate that is feasible for
    the solved relaxation's cap (epsilon = 1/n covers every size-n sample);
    a candidate weight above that cap raises InfeasibleEpsilon.  When
    w_solved is a solve_hybrid result on this same AtomSet object, under a
    criterion of the same p and G, its Phi_p and scores are taken from the
    evaluation it carries, else from one assembly of w_solved on the pool;
    the gap is one linear maximum over those scores, with no pinned points.
    """
    aset = as_atom_set(atoms)
    top = float(w_candidate.weights.max())
    if top > w_solved.epsilon + CAP_SLACK:
        raise InfeasibleEpsilon(
            f"candidate weight {top:.6g} exceeds the solved cap epsilon = "
            f"{w_solved.epsilon:.6g}, so the certificate does not apply")
    phi_candidate = build_info_state(aset, w_candidate, spec).phi_value
    cert = w_solved.certificate
    if cert is not None and cert.atoms is aset and _same_criterion(cert.state.spec, spec):
        phi, scores = cert.state.phi_value, cert.scores
    else:
        state = build_info_state(aset, w_solved, spec)
        phi, scores = state.phi_value, phi_p_scores(aset, state)
    lin = float(sg_measure(scores, w_solved.epsilon).weights @ scores)
    gap = (lin - phi) / phi
    ratio = phi / phi_candidate
    certified = phi * (1.0 - max(gap, 0.0)) / phi_candidate
    return EfficiencyBounds(ratio=float(ratio), certified_lower_bound=float(certified),
                            solved_gap_ratio=float(gap),
                            phi_candidate=float(phi_candidate))
