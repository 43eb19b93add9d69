"""Two-stage sampling workflow and its bootstrap evaluation.

Stage one draws a simple random subset and fits working parameters; stage
two builds information atoms at those parameters and solves the relaxation
with the stage-one points pinned at the cap (they are already paid for),
then rounds the free mass to fill the budget.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .atoms import AtomSet
from .criteria import CriterionSpec
from .errors import FitDiverged
from .fitting import fit_cumlink, fit_logistic
from .measures import SampleSet, _sorted_unique, round_to_sample
from .models import CumulativeLinkSpec, LogisticModelSpec, cumlink_atoms, logistic_atoms
from .solvers import SolveResult, SolverConfig, solve_hybrid

MODEL_NAMES = ("logistic", "cumlink")
BOOTSTRAP_METHODS = ("two-stage", "random")


def _fit_model(model: str, Z: np.ndarray, y: np.ndarray):
    if model == "logistic":
        return fit_logistic(Z, y)
    if model == "cumlink":
        return fit_cumlink(Z, y)
    raise ValueError(f"unknown model {model!r}; available: {MODEL_NAMES}")


def _check_budget(n: int, N: int, r_frac: float) -> None:
    if not 0 < n <= N:
        raise ValueError(f"budget n = {n} outside (0, {N}]")
    if not 0 < r_frac <= 1:
        raise ValueError(f"stage-one fraction r = {r_frac} must lie in (0, 1]")


def model_atoms(model: str, Z, beta=None, theta_cuts=None, focus: str = "all"):
    """(atoms, G) of a model ("none": rows of Z as regression vectors) at its
    working parameters; G, the transform of interest, is the regression block
    of a cumulative-link model when focus is "beta", else None (all)."""
    if model == "none":
        return AtomSet.from_vectors(Z), None
    if model == "logistic":
        return logistic_atoms(Z, LogisticModelSpec(beta)), None
    if model == "cumlink":
        spec = CumulativeLinkSpec(beta, theta_cuts)
        return cumlink_atoms(Z, spec), spec.beta_selector if focus == "beta" else None
    raise ValueError(f"unknown model {model!r}; available: none, {', '.join(MODEL_NAMES)}")


@dataclass
class TwoStageResult:
    stage1: SampleSet
    combined: SampleSet
    fit: object | None
    solve: SolveResult | None


def two_stage_select(Z, y, model: str, n: int, r_frac: float, p: float,
                     cfg: SolverConfig, rng: np.random.Generator) -> TwoStageResult:
    """Random pilot, working fit, then pinned relaxation solve and rounding."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y).ravel()
    N = Z.shape[0]
    _check_budget(n, N, r_frac)
    n1 = min(max(int(round(r_frac * n)), 1), n)
    stage1_idx = np.sort(rng.choice(N, size=n1, replace=False))
    stage1 = SampleSet(stage1_idx)
    if n1 == n:
        # pure random sample; nothing left to design
        return TwoStageResult(stage1, stage1, None, None)

    fit = _fit_model(model, Z[stage1_idx], y[stage1_idx])
    # the regression block is what the refit estimates
    atoms, G = model_atoms(model, Z, fit.beta, getattr(fit, "theta_cuts", None), focus="beta")
    spec = CriterionSpec(p=p, G=G)
    if cfg.epsilon is None:
        cfg = replace(cfg, epsilon=1.0 / n)
    res = solve_hybrid(atoms, spec, cfg, pinned=stage1_idx)

    # stage-one points are kept; the rest of the budget goes to the largest free weights
    combined = round_to_sample(res.w, n, res.scores, pinned=stage1_idx)
    return TwoStageResult(stage1, combined, fit, res)


@dataclass
class MethodStats:
    name: str
    total_mse: float
    component_mse: np.ndarray
    failures: int


@dataclass
class BootstrapResult:
    reference_beta: np.ndarray
    methods: list[MethodStats]
    replicates: int
    used_replicates: int
    failed_replicates: int
    # kept replicates whose two-stage solve stopped above its target gap
    missed_replicates: int = 0

    def ratio_to_random(self, name: str) -> float:
        by_name = {m.name: m for m in self.methods}
        if "random" not in by_name:
            raise ValueError("no random method in this evaluation")
        return by_name[name].total_mse / by_name["random"].total_mse


def _one_replicate(args):
    """(refit coefficients by method, whether the solve met its target), or None if a fit failed."""
    (Z, y, model, methods, n, r_frac, p, cfg, child_seed) = args
    rng = np.random.default_rng(child_seed)
    N = Z.shape[0]
    rows = rng.integers(0, N, size=N)
    devs, converged = {}, True
    for method in methods:
        try:
            if method == "random":
                pick = rng.choice(N, size=n, replace=False)
                rr = rows[pick]
                fit = _fit_model(model, Z[rr], y[rr])
            elif method == "two-stage":
                # a record drawn several times is still one observation: the
                # design must not pay for the same response twice, so the
                # candidate pool is the distinct resampled records
                uniq = _sorted_unique(rows)
                if uniq.size < n:
                    raise ValueError(f"a bootstrap replicate has {uniq.size} distinct records, "
                                     f"fewer than the budget n = {n}")
                ts = two_stage_select(Z[uniq], y[uniq], model, n, r_frac, p, cfg, rng)
                converged = ts.solve is None or ts.solve.converged
                pick = uniq[np.array(ts.combined.indices)]
                fit = _fit_model(model, Z[pick], y[pick])
            else:
                raise ValueError(f"unknown method {method!r}")
            devs[method] = fit.beta
        except FitDiverged:
            return None
    return devs, converged


def bootstrap_evaluate(Z, y, model: str, methods, n: int, r_frac: float, p: float,
                       B: int, cfg: SolverConfig, seed: int,
                       threads: int = 1) -> BootstrapResult:
    """Resample the pool B times and compare refit error across methods.

    The reference is the full-data fit; each method's score is the mean
    squared deviation of its replicate refits from the reference
    coefficients.  Designed methods see the distinct records of each
    resample as their candidate pool (a duplicated record carries one
    response, not several independent ones).  A replicate failing for any
    method is dropped for all (paired comparison); more than 5% failures
    abort the run.
    """
    if B < 1:
        raise ValueError(f"B = {B} must be >= 1")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.asarray(y).ravel()
    _check_budget(n, Z.shape[0], r_frac)
    methods = list(methods)
    ref_fit = _fit_model(model, Z, y)
    ref_beta = ref_fit.beta

    children = np.random.SeedSequence(seed).spawn(B)
    jobs = [(Z, y, model, methods, n, r_frac, p, cfg, children[b]) for b in range(B)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_one_replicate, jobs))
    else:
        results = [_one_replicate(job) for job in jobs]

    kept = [r for r in results if r is not None]
    failed = B - len(kept)
    # an empty kept fails here too: failed = B > 0.05 * B
    if failed > 0.05 * B:
        raise FitDiverged(f"{failed} of {B} bootstrap replicates failed to fit")

    stats = []
    for method in methods:
        d = np.stack([devs[method] - ref_beta for devs, _ in kept])
        comp = np.mean(d * d, axis=0)
        stats.append(MethodStats(name=method, total_mse=float(comp.sum()),
                                 component_mse=comp, failures=failed))
    return BootstrapResult(reference_beta=ref_beta, methods=stats, replicates=B,
                           used_replicates=len(kept), failed_replicates=failed,
                           missed_replicates=sum(not ok for _, ok in kept))
