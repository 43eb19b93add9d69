"""Workloads, timed passes and output checks of the batchdesign benchmark.

Each workload draws instances 0, 1, 2, ... from the run's seed and makes one
pass over every instance's jobs, for at least a minimum number of instances
and then for as long as the run's seconds allow.  wall_s is the median pass:
the solver's iteration counts, and so its time, vary a lot and with a heavy
tail from one instance to the next, and the host's speed drifts by 10-20 %
within a minute, so a median over several instances is what stays steady.

A job is timed from the call into the program until its result is back (for
the CLI, the wall time of the child process); the checks on its output run
after the clock stops.  The model parameters are constants of the workload;
the seed draws the features, the responses and the program's own seeds.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from jsonschema import ValidationError

from batchdesign import (
    AtomSet,
    CriterionSpec,
    CumulativeLinkSpec,
    LogisticModelSpec,
    SolverConfig,
    bootstrap_evaluate,
    cumlink_atoms,
    efficiency_bounds,
    logistic_atoms,
    measure_of_sample,
    round_to_sample,
    solve_hybrid,
)
from batchdesign.reports import validate_report

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("linear-wide", "ordinal-deep", "bootstrap-small", "cli-select")

# generating parameters; the seed draws everything else
ORDINAL_BETA = np.array([0.6, -0.5, 0.4, -0.3, 0.2, -0.1])
ORDINAL_CUTS = np.array([-1.0, 0.0, 1.0])
LOGIT_BETA = np.array([-0.5, 1.0, -0.8, 0.6, 0.4])  # intercept first
STAGE_ONE_FRAC = 0.4

FULL = {
    "linear-wide": {"min_instances": 3, "N": 100_000, "k": 50, "n": 2_000, "import_probes": 5},
    "ordinal-deep": {"min_instances": 3, "N": 5_000, "n": 2_500, "import_probes": 5},
    "bootstrap-small": {"min_instances": 3, "N": 3_000, "n": 600, "B": 4, "import_probes": 5},
    "cli-select": {"min_instances": 3, "N_select": 50_000, "k_select": 10, "n_select": 1_000,
                   "N_two": 20_000, "n_two": 1_000, "import_probes": 5},
}
# the same jobs at sizes that finish in seconds, for the benchmark's tests
TOY = {
    "linear-wide": {"min_instances": 1, "N": 2_000, "k": 6, "n": 100, "import_probes": 1},
    "ordinal-deep": {"min_instances": 1, "N": 800, "n": 80, "import_probes": 1},
    "bootstrap-small": {"min_instances": 1, "N": 800, "n": 120, "B": 4, "import_probes": 1},
    "cli-select": {"min_instances": 1, "N_select": 1_500, "k_select": 4, "n_select": 100,
                   "N_two": 1_500, "n_two": 150, "import_probes": 1},
}


@dataclass
class Outcome:
    """What one job returned, as far as the metrics and checks need it."""

    job: str
    seconds: float = 0.0
    failures: list[str] = field(default_factory=list)
    phi: float | None = None  # relaxed Phi_p, compared with the reference
    v: float | None = None  # gap target of that solve
    ratio: float | None = None  # Phi_p(relaxed) / Phi_p(sample)
    certified: float | None = None
    mse_ratio: float | None = None
    info: dict = field(default_factory=dict)


@dataclass
class Job:
    id: str
    run: Callable  # run(tracer or None) -> raw result; timed
    check: Callable  # check(raw, outcome) fills the outcome; untimed


@dataclass
class Instance:
    jobs: list[Job]
    setup: Callable | None = None  # program-side set-up, timed into setup_s
    cleanup: Callable | None = None


@dataclass
class PassResult:
    walls: list[float] = field(default_factory=list)  # timed jobs, per instance
    setups: list[float] = field(default_factory=list)
    imports: list[float] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)


def _rng(seed: int, workload: str, instance: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), instance])


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def child_env() -> dict:
    """Environment for child processes: the checkout's sources, pinned BLAS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(cmd: list[str], timeout: float, capture: bool = False):
    """Run a child process to its end; return it and its wall seconds.

    The wait blocks until the child exits, and a timer kills a child that
    overruns.  subprocess's own timeout polls instead, every 50 ms once the
    child has run for a while, and would round each timing up to a multiple
    of 50 ms.
    """
    pipe = subprocess.PIPE if capture else None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), stdout=pipe, stderr=pipe, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        stdout, stderr = proc.communicate()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - t0
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr), seconds


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas_name,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in THREAD_VARS}, "seed": seed}


# ---------------------------------------------------------------- checks

def _check_sample(indices, N: int, n: int) -> list[str]:
    idx = np.asarray(indices, dtype=int)
    out = []
    if idx.shape != (n,):
        out.append(f"sample has {idx.size} indices, expected {n}")
    if np.unique(idx).size != idx.size:
        out.append("sample indices repeat")
    if idx.size and (idx.min() < 0 or idx.max() >= N):
        out.append(f"sample index outside [0, {N})")
    return out


def _check_certificate(certified: float, ratio: float, gap: float) -> list[str]:
    upper = 1.0 / (1.0 - max(gap, 0.0))
    if certified <= ratio * (1 + 1e-12) and ratio <= upper * (1 + 1e-12):
        return []
    return [f"certificate out of order: certified {certified!r}, ratio {ratio!r}, "
            f"1/(1-gap) {upper!r}"]


def _check_reference(out: Outcome, recorded: dict) -> None:
    ref = recorded.get(out.job)
    if ref is None or out.phi is None:
        return
    # both values lie in [Phi*, Phi* / (1 - v)] when both solves reached gap v
    tol = out.v / (1.0 - out.v) + 1e-12
    if abs(out.phi / ref - 1.0) > tol:
        out.failures.append(f"relaxed Phi_p {out.phi!r} differs from the recorded {ref!r} "
                            f"by more than {tol:.3g}")


def mse_ratio(data: np.ndarray, G, indices) -> float:
    """tr(G M_S^-1 G') / tr(G M_U^-1 G') with M the mean information.

    S is the sample and U the whole pool, so this is the asymptotic MSE of
    the sample's estimator over that of a uniform random sample of the same
    size.  data holds rank-one rows (N, k) or matrix atoms (N, k, k) at the
    generating parameters.
    """
    def info(rows):
        return rows.T @ rows / len(rows) if rows.ndim == 2 else rows.mean(axis=0)

    def a_value(M):
        C = np.linalg.inv(M)
        return np.trace(C) if G is None else np.trace(G @ C @ G.T)

    return float(a_value(info(data[np.asarray(indices, dtype=int)])) / a_value(info(data)))


# ---------------------------------------------------------------- jobs

def _select_job(job_id: str, state: dict, spec: CriterionSpec, n: int) -> Job:
    """Solve, round and certify: time to a certified size-n sample."""

    def run(tracer):
        atoms = state["atoms"]
        cfg = SolverConfig(epsilon=1.0 / n)
        res = solve_hybrid(atoms, spec, cfg)
        sample = round_to_sample(res.w, n, res.scores)
        bounds = efficiency_bounds(measure_of_sample(sample, len(atoms)), res.w, atoms, spec)
        return cfg, res, sample, bounds

    def check(raw, out: Outcome):
        cfg, res, sample, bounds = raw
        atoms = state["atoms"]
        out.failures += _check_sample(sample.indices, len(atoms), n)
        if not res.converged:
            out.failures.append(f"solve did not converge (gap {res.gap_ratio:.3e})")
        out.failures += _check_certificate(bounds.certified_lower_bound, bounds.ratio,
                                           bounds.solved_gap_ratio)
        out.phi, out.v = float(res.phi_value), cfg.v
        out.ratio, out.certified = bounds.ratio, bounds.certified_lower_bound
        out.mse_ratio = mse_ratio(atoms.data, spec.G, sample.indices)

    return Job(job_id, run, check)


def _bootstrap_job(job_id: str, state: dict, Z, y, n: int, B: int, seed: int,
                   threads: int) -> Job:
    def run(tracer):
        return bootstrap_evaluate(Z, y, "logistic", ("two-stage", "random"), n, STAGE_ONE_FRAC,
                                  1.0, B, SolverConfig(epsilon=1.0 / n), seed, threads=threads)

    def check(boot, out: Outcome):
        if boot.failed_replicates > 0.05 * B:
            out.failures.append(f"{boot.failed_replicates} of {B} replicates failed")
        totals = {m.name: m.total_mse for m in boot.methods}
        out.info.update(threads=threads, mse_two_stage=totals["two-stage"],
                        mse_random=totals["random"])
        comps = [m.component_mse for m in boot.methods]
        serial = state.setdefault("bootstrap", comps)
        if serial is not comps and not all(np.array_equal(a, b) for a, b in zip(serial, comps)):
            out.failures.append(f"threads={threads} gives other MSEs than the serial run")

    return Job(job_id, run, check)


def _cli_job(job_id: str, argv: list[str], out_dir: Path, verify: Callable) -> Job:
    """One `batchdesign` process; traced runs go through cli_traced.py."""

    def run(tracer):
        args = [*argv, "--output-dir", str(out_dir)]
        spans_path = out_dir.with_suffix(".spans")
        if tracer is None:
            cmd = [sys.executable, "-m", "batchdesign.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "cli_traced.py"), str(spans_path), *args]
        proc, wall = run_child(cmd, timeout=170, capture=True)
        if tracer is not None and spans_path.exists():
            tracer.adopt(tracing.load_spans(spans_path), job_id)
        return proc, wall

    def check(raw, out: Outcome):
        proc, wall = raw
        out.info["process_s"] = wall
        if proc.returncode != 0:
            out.failures.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-400:]}")
            return
        report = json.loads((out_dir / "report.json").read_text())
        try:
            validate_report(report)
        except ValidationError as exc:
            out.failures.append(f"report.json fails its schema: {exc.message}")
        if report.get("converged") is not True:
            out.failures.append("report says the solve did not converge")
        out.v = float(report["params"]["v"])
        verify(report["results"], out)

    return Job(job_id, run, check)


# ---------------------------------------------------------------- workloads

def _linear_wide(sz: dict, seed: int, i: int, work: Path) -> Instance:
    rng = _rng(seed, "linear-wide", i)
    N, k, n = sz["N"], sz["k"], sz["n"]
    X = np.empty((N, k))
    X[:, 0] = 1.0
    X[:, 1:] = rng.standard_normal((N, k - 1))
    state: dict = {}

    def setup():
        state["atoms"] = AtomSet.from_vectors(X)

    jobs = [_select_job(f"i{i}.p{p:g}", state, CriterionSpec(p=p), n) for p in (0.0, 1.0)]
    return Instance(jobs, setup)


def _ordinal_deep(sz: dict, seed: int, i: int, work: Path) -> Instance:
    rng = _rng(seed, "ordinal-deep", i)
    N, n = sz["N"], sz["n"]
    d = ORDINAL_BETA.shape[0]
    Z = rng.standard_normal((N, d))
    model = CumulativeLinkSpec(ORDINAL_BETA, ORDINAL_CUTS)
    G_beta = np.hstack([np.eye(d), np.zeros((d, model.k - d))])
    state: dict = {}

    def setup():
        state["atoms"] = cumlink_atoms(Z, model)

    jobs = [_select_job(f"i{i}.p2", state, CriterionSpec(p=2.0), n),
            _select_job(f"i{i}.p1-beta", state, CriterionSpec(p=1.0, G=G_beta), n)]
    return Instance(jobs, setup)


def _bootstrap_small(sz: dict, seed: int, i: int, work: Path) -> Instance:
    rng = _rng(seed, "bootstrap-small", i)
    N, n, B = sz["N"], sz["n"], sz["B"]
    Z = np.hstack([np.ones((N, 1)), rng.standard_normal((N, LOGIT_BETA.shape[0] - 1))])
    y = (rng.random(N) < _sigmoid(Z @ LOGIT_BETA)).astype(float)
    boot_seed = int(rng.integers(2**31))
    state: dict = {}

    def setup():
        state["atoms"] = logistic_atoms(Z, LogisticModelSpec(LOGIT_BETA))

    jobs = [_select_job(f"i{i}.select", state, CriterionSpec(p=1.0), n),
            _bootstrap_job(f"i{i}.boot-serial", state, Z, y, n, B, boot_seed, threads=1),
            _bootstrap_job(f"i{i}.boot-threads2", state, Z, y, n, B, boot_seed, threads=2)]
    return Instance(jobs, setup)


def _write_csv(path: Path, header: list[str], data: np.ndarray, fmt) -> None:
    np.savetxt(path, data, delimiter=",", header=",".join(header), comments="", fmt=fmt)


def _cli_select(sz: dict, seed: int, i: int, work: Path) -> Instance:
    rng = _rng(seed, "cli-select", i)
    inst_dir = work / f"i{i}"
    inst_dir.mkdir(parents=True, exist_ok=True)

    Ns, ks, ns = sz["N_select"], sz["k_select"], sz["n_select"]
    X = rng.standard_normal((Ns, ks))
    select_csv = inst_dir / "select.csv"
    _write_csv(select_csv, [f"x{j + 1}" for j in range(ks)], X, "%.17g")
    X1 = np.hstack([np.ones((Ns, 1)), X])

    Nt, nt = sz["N_two"], sz["n_two"]
    d = LOGIT_BETA.shape[0] - 1
    Z1 = np.hstack([np.ones((Nt, 1)), rng.standard_normal((Nt, d))])
    prob = _sigmoid(Z1 @ LOGIT_BETA)
    y = (rng.random(Nt) < prob).astype(float)
    two_csv = inst_dir / "two.csv"
    _write_csv(two_csv, [f"x{j + 1}" for j in range(d)] + ["y"], np.column_stack([Z1[:, 1:], y]),
               ["%.17g"] * d + ["%d"])
    logit_rows = np.sqrt(prob * (1.0 - prob))[:, None] * Z1
    cli_seed = int(rng.integers(2**31))

    def verify_select(res: dict, out: Outcome):
        out.failures += _check_sample(res["selected_indices"], Ns, ns)
        out.failures += _check_certificate(res["certified_lower_bound"], res["efficiency_ratio"],
                                           res["gap_ratio"])
        out.phi = float(res["phi_relaxed"])
        out.ratio, out.certified = res["efficiency_ratio"], res["certified_lower_bound"]
        out.mse_ratio = mse_ratio(X1, None, res["selected_indices"])

    def verify_two_stage(res: dict, out: Outcome):
        out.failures += _check_sample(res["combined_indices"], Nt, nt)
        if not set(res["stage1_indices"]) <= set(res["combined_indices"]):
            out.failures.append("stage-one points missing from the combined sample")
        out.phi = float(res["phi_relaxed"])
        out.mse_ratio = mse_ratio(logit_rows, None, res["combined_indices"])

    jobs = [
        _cli_job(f"i{i}.select", ["select", "--input", str(select_csv), "--add-intercept",
                                  "--p", "1", "--n", str(ns)],
                 inst_dir / "select-out", verify_select),
        _cli_job(f"i{i}.two-stage", ["two-stage", "--input", str(two_csv), "--response", "y",
                                     "--model", "logistic", "--add-intercept", "--n", str(nt),
                                     "--seed", str(cli_seed)],
                 inst_dir / "two-stage-out", verify_two_stage),
    ]
    return Instance(jobs, cleanup=lambda: shutil.rmtree(inst_dir, ignore_errors=True))


BUILDERS = {"linear-wide": _linear_wide, "ordinal-deep": _ordinal_deep,
            "bootstrap-small": _bootstrap_small, "cli-select": _cli_select}


# ---------------------------------------------------------------- passes

def _run_job(job: Job, tracer) -> Outcome:
    out = Outcome(job.id)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = job.run(None)
        else:
            tracer.job = job.id
            raw = tracer.call("job", job.run, (tracer,))
    except Exception as exc:  # a failed job is counted, the run goes on
        out.seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        out.failures.append(f"raised {type(exc).__name__}: {exc}")
        return out
    out.seconds = time.perf_counter() - t0
    try:
        job.check(raw, out)
    except Exception as exc:  # a malformed result fails its job
        traceback.print_exc(file=sys.stderr)
        out.failures.append(f"output check raised {type(exc).__name__}: {exc}")
    return out


def run_instances(workload: str, sz: dict, seed: int, work: Path, seconds: float = 0.0,
                  count: int | None = None, tracer=None, probe: bool = False) -> PassResult:
    """Run one pass over each of the instances 0, 1, 2, ...

    With count, exactly that many; otherwise at least sz["min_instances"]
    and then more while the next one is expected to end within `seconds`.
    With probe, also time sz["import_probes"] fresh imports, spread evenly
    over the run: their median rides out a slow spell of the host.
    """
    result = PassResult()
    t_start = time.perf_counter()
    i = 0
    while True:
        t_inst = time.perf_counter()
        if probe and t_inst - t_start >= len(result.imports) * seconds / sz["import_probes"]:
            result.imports.append(_import_probe(workload))
        inst = BUILDERS[workload](sz, seed, i, work)
        try:
            if inst.setup is not None:
                t0 = time.perf_counter()
                if tracer is None:
                    inst.setup()
                else:
                    tracer.job = f"i{i}.setup"
                    tracer.call("setup", inst.setup)
                result.setups.append(time.perf_counter() - t0)
            wall = 0.0
            for job in inst.jobs:
                out = _run_job(job, tracer)
                wall += out.seconds
                result.outcomes.append(out)
            result.walls.append(wall)
        finally:
            if inst.cleanup is not None:
                inst.cleanup()
        i += 1
        now = time.perf_counter()
        if count is not None:
            if i >= count:
                break
        elif i >= sz["min_instances"] and now - t_start + (now - t_inst) > seconds:
            break
    while probe and len(result.imports) < sz["import_probes"]:
        result.imports.append(_import_probe(workload))
    return result


def _import_probe(workload: str) -> float:
    """Wall time of a fresh interpreter that imports the package."""
    module = "batchdesign.cli" if workload == "cli-select" else "batchdesign"
    proc, seconds = run_child([sys.executable, "-c", f"import {module}"], timeout=120)
    if proc.returncode != 0:
        raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return seconds


def load_reference(workload: str, seed: int) -> dict:
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), {})


@dataclass
class RunResult:
    untraced: PassResult
    traced: PassResult | None
    spans: list

    @property
    def outcomes(self) -> list[Outcome]:
        runs = [self.untraced] + ([self.traced] if self.traced else [])
        return [o for p in runs for o in p.outcomes]


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict = FULL,
        reference: dict | None = None) -> RunResult:
    """Measure one workload for about `seconds`; with trace, run the minimum
    number of instances untraced and then the same instances traced."""
    sz = sizes[workload]
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    traced, spans = None, []
    try:
        count = sz["min_instances"] if trace else None
        untraced = run_instances(workload, sz, seed, work, seconds, count, probe=True)
        if trace:
            tracer = tracing.Tracer(workload)
            tracer.install(also=[sys.modules[__name__]])
            try:
                traced = run_instances(workload, sz, seed, work, count=count, tracer=tracer)
            finally:
                tracer.restore()
            tracer.dump(WORK / f"spans-{workload}-s{seed}.jsonl")
            spans = tracer.spans
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = RunResult(untraced, traced, spans)
    for out in result.outcomes:
        _check_reference(out, reference or {})
    return result


# ---------------------------------------------------------------- metrics

def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(workload: str, res: RunResult) -> dict[str, float | None]:
    outs = res.outcomes
    who = resource.RUSAGE_CHILDREN if workload == "cli-select" else resource.RUSAGE_SELF
    certified = [o.certified for o in outs if o.certified is not None]
    ratios = [o.ratio for o in outs if o.ratio is not None]
    mses = [o.mse_ratio for o in outs if o.mse_ratio is not None]
    return {
        "wall_s": statistics.median(res.untraced.walls),
        "setup_s": statistics.median(res.untraced.imports) + median_or_zero(res.untraced.setups),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "certified_lb.min": min(certified) if certified else None,
        "efficiency.min": min(ratios) if ratios else None,
        "mse_ratio": statistics.fmean(mses) if mses else None,
    }


def per_layer(res: RunResult) -> dict[str, float]:
    agg = tracing.summarize(res.spans)

    def get(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for name in ("atoms.weighted_sum", "atoms.quad_forms"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.gb"] = get(name, "bytes") / 1e9
    m["criteria.info_state_from_m.calls"] = get("criteria.info_state_from_m", "calls")
    m["criteria.info_state_from_m.self_s"] = get("criteria.info_state_from_m", "self_s")
    m["criteria.phi_p_scores.self_s"] = get("criteria.phi_p_scores", "self_s")
    for name in ("measures.greedy_linear_max", "measures.project_capped_simplex",
                 "measures.psg_measure"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    m["measures.round_to_sample.self_s"] = get("measures.round_to_sample", "self_s")
    m["solvers.solve_hybrid.self_s"] = get("solvers.solve_hybrid", "self_s")
    m["solvers.efficiency_bounds.self_s"] = get("solvers.efficiency_bounds", "self_s")
    m["solvers.boost_iters"] = get("solvers.solve_hybrid", "boost")
    m["solvers.outer_iters"] = get("solvers.solve_hybrid", "outer")
    m["solvers.inner_iters"] = get("solvers.solve_hybrid", "inner")
    projections = tracing.count_under(res.spans, "measures.project_capped_simplex",
                                      "solvers.solve_hybrid")
    m["solvers.ls_accept_ratio"] = m["solvers.inner_iters"] / projections if projections else 0.0
    m["models.cumlink_atoms.s"] = get("models.cumlink_atoms", "total_s")
    m["models.logistic_atoms.s"] = get("models.logistic_atoms", "total_s")
    m["fitting.fit_logistic.calls"] = get("fitting.fit_logistic", "calls")
    m["fitting.fit_logistic.s"] = get("fitting.fit_logistic", "total_s")
    m["pipeline.two_stage_select.self_s"] = get("pipeline.two_stage_select", "self_s")
    m["pipeline.bootstrap_evaluate.self_s"] = get("pipeline.bootstrap_evaluate", "self_s")

    boots = [o for o in res.untraced.outcomes if "threads" in o.info]
    serial = sum(o.seconds for o in boots if o.info["threads"] == 1)
    threaded = sum(o.seconds for o in boots if o.info["threads"] > 1)
    m["pipeline.threads_speedup"] = serial / threaded if threaded else 0.0
    random_mse = sum(o.info["mse_random"] for o in boots if o.info["threads"] == 1)
    m["pipeline.bootstrap_mse_ratio"] = (
        sum(o.info["mse_two_stage"] for o in boots if o.info["threads"] == 1) / random_mse
        if random_mse else 0.0)

    read_s = get("data_io.read_dataset", "total_s")
    m["data_io.read_dataset.s"] = read_s
    m["data_io.read_dataset.mb_per_s"] = (
        get("data_io.read_dataset", "file_bytes") / 1e6 / read_s if read_s else 0.0)
    m["data_io.write_weights_csv.s"] = get("data_io.write_weights_csv", "total_s")
    m["reports.make_report.s"] = get("reports.make_report", "total_s")
    m["reports.write_report.s"] = get("reports.write_report", "total_s")
    m["cli.import_s"] = get("cli.import", "total_s")
    m["cli.main.self_s"] = get("cli.main", "self_s")
    process_s = sum(o.info.get("process_s", 0.0) for o in res.traced.outcomes)
    m["cli.process_overhead_s"] = process_s - get("cli.main", "total_s") if process_s else 0.0
    m["trace.overhead_s"] = sum(res.traced.walls) - sum(res.untraced.walls)
    return m
