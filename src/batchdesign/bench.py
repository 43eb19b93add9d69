"""Benchmark harness: timed method comparisons and criteria cross tables."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .atoms import AtomSet
from .baselines import backward_select, exchange_select
from .criteria import CriterionSpec
from .measures import Measure, measure_of_sample, round_to_sample
from .solvers import SolverConfig, efficiency_bounds, solve_hybrid

REFERENCE_GAP = 1e-8
BENCH_METHODS = ("hybrid", "exchange", "backward")
# backward_select takes about BACKWARD_SECONDS_PER_OP * N * (N - n) * k
# seconds: 1.4e-9 to 2.8e-9 measured at N = 3 000 and 6 000, k = 5, 10, 20,
# n = N / 10 (numpy 2.4.6, one BLAS thread, 2 vCPUs); the top of the range
# is used so that a run predicted to fit the budget does
BACKWARD_SECONDS_PER_OP = 3e-9


def make_gaussian_pool(N: int, k: int, rng: np.random.Generator) -> AtomSet:
    """Regression pool with an intercept and k-1 standard normal features."""
    X = np.empty((N, k))
    X[:, 0] = 1.0
    X[:, 1:] = rng.standard_normal((N, k - 1))
    return AtomSet.from_vectors(X)


def _solve_reference(atoms: AtomSet, spec: CriterionSpec, n: int) -> Measure:
    cfg = SolverConfig(epsilon=1.0 / n, v=REFERENCE_GAP)
    return solve_hybrid(atoms, spec, cfg).w


@dataclass
class BenchRow:
    """One method's outcome; status is "ok", "skipped", "failed" or "nonconverged"."""

    method: str
    seconds: float
    efficiency: float
    certified: float
    phi_value: float
    note: str = ""
    status: str = "ok"


@dataclass
class BenchResult:
    N: int
    k: int
    n: int
    p: float
    rows: list[BenchRow] = field(default_factory=list)


def run_bench(atoms: AtomSet, n: int, solver_cfg: SolverConfig, p: float = 0.0,
              methods=BENCH_METHODS,
              time_budget: float | None = None) -> BenchResult:
    """Time each selection method and certify it against a tightly solved
    relaxation of the same instance.

    Methods expected to exceed ``time_budget`` seconds (when given) are
    skipped with an explanatory note instead of blocking the run.  A method
    that raises, in selection or in certification, and a hybrid solve that
    misses its gap target, are recorded with a note and a status rather
    than stopping the run.  ``solver_cfg`` configures the hybrid method;
    every method is certified against a relaxation solved at epsilon = 1/n
    to REFERENCE_GAP, whatever that config's epsilon.
    """
    spec = CriterionSpec(p=p)
    N = len(atoms)
    w_ref = _solve_reference(atoms, spec, n)
    result = BenchResult(N=N, k=atoms.k, n=n, p=p)

    for method in methods:
        t0 = time.perf_counter()
        status, note = "ok", ""
        try:
            if method == "hybrid":
                res = solve_hybrid(atoms, spec, solver_cfg)
                sample = round_to_sample(res.w, n, res.scores)
                if not res.converged:
                    status = "nonconverged"
                    note = f"not converged: gap {res.gap_ratio:.3g} > {solver_cfg.target_gap:.3g}"
            elif method == "exchange":
                sample = exchange_select(atoms, n).sample
            elif method == "backward":
                predicted = BACKWARD_SECONDS_PER_OP * N * (N - n) * atoms.k
                if time_budget is not None and predicted > time_budget:
                    result.rows.append(BenchRow(method, float("nan"), float("nan"),
                                                float("nan"), float("nan"),
                                                note=f"skipped: predicted {predicted:.3g}s "
                                                     f"over time budget {time_budget:.3g}s",
                                                status="skipped"))
                    continue
                sample = backward_select(atoms, n).sample
            else:
                raise ValueError(f"unknown method {method!r}")
            seconds = time.perf_counter() - t0
            bounds = efficiency_bounds(measure_of_sample(sample, N), w_ref, atoms, spec)
        except Exception as exc:  # record, keep benchmarking the rest
            result.rows.append(BenchRow(method, time.perf_counter() - t0,
                                        float("nan"), float("nan"), float("nan"),
                                        note=f"failed: {type(exc).__name__}",
                                        status="failed"))
            continue
        result.rows.append(BenchRow(method=method, seconds=seconds,
                                    efficiency=bounds.ratio,
                                    certified=bounds.certified_lower_bound,
                                    phi_value=bounds.phi_candidate,
                                    note=note, status=status))
    return result


@dataclass
class CrossCriteriaRow:
    n: int
    a_eff_of_d: float
    d_eff_of_a: float


def run_cross_criteria(atoms: AtomSet, ns, v: float = REFERENCE_GAP) -> list[CrossCriteriaRow]:
    """How well does each criterion's optimum score under the other one?

    For each budget, solve the trace criterion (p = 1) and the determinant
    criterion (p = 0), then report the cross efficiencies; both are below
    one and climb toward it as the cap loosens.
    """
    d_spec = CriterionSpec(p=0.0)
    a_spec = CriterionSpec(p=1.0)
    rows = []
    for n in ns:
        cfg = SolverConfig(epsilon=1.0 / n, v=v)
        w_d = solve_hybrid(atoms, d_spec, cfg).w
        w_a = solve_hybrid(atoms, a_spec, cfg).w
        a_eff = efficiency_bounds(w_d, w_a, atoms, a_spec).ratio
        d_eff = efficiency_bounds(w_a, w_d, atoms, d_spec).ratio
        rows.append(CrossCriteriaRow(n=int(n), a_eff_of_d=a_eff, d_eff_of_a=d_eff))
    return rows
