"""Command-line front end.

Subcommands: select, efficiency, bench, cross-criteria, two-stage,
bootstrap-eval.  Every run writes ``report.json`` into the output
directory; selection commands add ``weights.csv`` and table commands add
``table.csv``.

Exit codes: 0 ok, 2 input error, 3 singular or degenerate instance,
4 non-convergence (report still written), 5 model fit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .atoms import AtomSet
from .bench import REFERENCE_GAP, make_gaussian_pool, run_bench, run_cross_criteria
from .criteria import CriterionSpec, build_info_state
from .data_io import INTERCEPT_NAME, expand_interactions, read_dataset, write_table_csv, write_weights_csv
from .errors import (
    DegenerateCategory,
    DimensionMismatch,
    EmptyInput,
    FitDiverged,
    InfeasibleEpsilon,
    InfeasibleMass,
    NonFiniteAtom,
    NotPSD,
    ParseError,
    PositivityRepairFailed,
    SingularInformation,
    ZeroVariance,
)
from .measures import SampleSet, measure_of_sample, round_to_sample
from .models import CumulativeLinkSpec, LogisticModelSpec, cumlink_atoms, logistic_atoms, standardize_features
from .pipeline import bootstrap_evaluate, two_stage_select
from .reports import make_report, write_report
from .solvers import SolverConfig, efficiency_bounds, solve_hybrid

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NONCONVERGED = 4
EXIT_FIT = 5

_DEGENERATE_ERRORS = (
    SingularInformation,
    NotPSD,
    DegenerateCategory,
    PositivityRepairFailed,
    ZeroVariance,
    InfeasibleEpsilon,
    InfeasibleMass,
    DimensionMismatch,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="batchdesign",
        description="Select an informative batch of points from a candidate pool.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input CSV with a header row")
        p.add_argument("--output-dir", help="directory for report.json and CSV artifacts (default .)")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--config", help="JSON file mirroring the flags; explicit flags win")
        p.add_argument("--threads", type=int, help="worker threads for independent jobs (default 1)")

    def add_data(p: argparse.ArgumentParser) -> None:
        p.add_argument("--response", help="response column name (excluded from features)")
        p.add_argument("--add-intercept", action=argparse.BooleanOptionalAction,
                       help="prepend an all-ones column")
        p.add_argument("--interactions", help="comma list of product columns, e.g. 'x1:x2,x3:x4'")
        p.add_argument("--standardize", action=argparse.BooleanOptionalAction,
                       help="center/scale non-intercept columns before use")

    def add_criterion(p: argparse.ArgumentParser) -> None:
        p.add_argument("--p", type=float, help="criterion order p >= 0 (default 0, determinant)")
        p.add_argument("--n", type=int, help="sample budget")
        p.add_argument("--epsilon", type=float, help="weight cap (default 1/n)")
        p.add_argument("--v", type=float, help="target gap ratio (default 1e-6)")
        p.add_argument("--v0", type=float, help="boost-phase gap ratio (default 1e-3)")
        p.add_argument("--skip-refine", action=argparse.BooleanOptionalAction,
                       help="stop after the boost phase")

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=["none", "logistic", "cumlink"],
                       help="atom model (default none: rows are regression vectors)")
        p.add_argument("--params", help="JSON file with working parameters (beta, theta_cuts)")
        p.add_argument("--focus", choices=["all", "beta"],
                       help="parameters of interest (beta restricts to regression coefficients)")

    p_select = sub.add_parser("select", help="solve the relaxation and round to a sample")
    for add in (add_common, add_data, add_criterion, add_model):
        add(p_select)

    p_eff = sub.add_parser("efficiency", help="certify a given candidate sample")
    for add in (add_common, add_data, add_criterion, add_model):
        add(p_eff)
    p_eff.add_argument("--candidate", help="file listing candidate indices, one per line")

    p_bench = sub.add_parser("bench", help="time selection methods on one instance")
    add_common(p_bench)
    add_criterion(p_bench)
    p_bench.add_argument("--N", type=int, help="pool size for synthetic data (default 10000)")
    p_bench.add_argument("--k", type=int, help="dimension for synthetic data (default 11)")
    p_bench.add_argument("--methods", help="comma list from hybrid,exchange,backward")
    p_bench.add_argument("--time-budget", type=float, help="skip methods expected to exceed this many seconds")

    p_cross = sub.add_parser("cross-criteria", help="score each criterion's sample under the other")
    add_common(p_cross)
    p_cross.add_argument("--N", type=int, help="pool size for synthetic data (default 10000)")
    p_cross.add_argument("--k", type=int, help="dimension for synthetic data (default 11)")
    p_cross.add_argument("--ns", help="comma list of budgets (default 500,1000,3000,5000)")
    p_cross.add_argument("--v", type=float, help="solve tolerance (default 1e-8)")

    p_two = sub.add_parser("two-stage", help="random pilot, fit, then designed completion")
    for add in (add_common, add_data, add_criterion):
        add(p_two)
    p_two.add_argument("--model", choices=["logistic", "cumlink"], help="model fitted on stage one")
    p_two.add_argument("--r", type=float, help="stage-one fraction of the budget (default 0.4)")

    p_boot = sub.add_parser("bootstrap-eval", help="bootstrap MSE comparison of sampling methods")
    for add in (add_common, add_data, add_criterion):
        add(p_boot)
    p_boot.add_argument("--model", choices=["logistic", "cumlink"], help="model fitted on each sample")
    p_boot.add_argument("--r", type=float, help="stage-one fraction for two-stage (default 0.4)")
    p_boot.add_argument("--B", type=int, help="bootstrap replicates (default 200)")
    p_boot.add_argument("--methods", help="comma list from two-stage,random")
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    try:
        with open(args.config) as fh:
            loaded = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.config}: invalid JSON ({exc})") from None
    if not isinstance(loaded, dict):
        raise ParseError(f"{args.config}: expected a JSON object of option values")
    for key, value in loaded.items():
        attr = key.replace("-", "_").lstrip("_")
        if not hasattr(args, attr):
            raise ParseError(f"{args.config}: unknown option {key!r}")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _resolved(args, name, default):
    value = getattr(args, name, None)
    return default if value is None else value


def _load_features(args):
    if not args.input:
        raise ParseError("--input is required for this command")
    ds = read_dataset(args.input, response_col=getattr(args, "response", None),
                      add_intercept=bool(_resolved(args, "add_intercept", False)))
    Z, names = expand_interactions(ds.Z, ds.feature_names, getattr(args, "interactions", None))
    if _resolved(args, "standardize", False):
        keep = tuple(i for i, name in enumerate(names) if name == INTERCEPT_NAME)
        Z = standardize_features(Z, intercept_cols=keep).Z
    return Z, names, ds.y


def _load_params(args) -> dict:
    if not getattr(args, "params", None):
        raise ParseError(f"--model {args.model} needs --params with working parameter values")
    with open(args.params) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.params}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ParseError(f"{args.params}: expected a JSON object")
    return raw


def _build_atoms(args, Z: np.ndarray):
    """Returns (atoms, G, model_info) for the resolved model choice."""
    model = _resolved(args, "model", "none")
    if model == "none":
        return AtomSet.from_vectors(Z), None, {"model": "none"}
    raw = _load_params(args)
    if "beta" not in raw:
        raise ParseError(f"{args.params}: missing 'beta'")
    beta = np.asarray(raw["beta"], dtype=float)
    if model == "logistic":
        atoms = logistic_atoms(Z, LogisticModelSpec(beta))
        return atoms, None, {"model": "logistic", "beta": beta.tolist()}
    if "theta_cuts" not in raw:
        raise ParseError(f"{args.params}: cumlink model needs 'theta_cuts'")
    theta = np.asarray(raw["theta_cuts"], dtype=float)
    spec = CumulativeLinkSpec(beta, theta)
    atoms = cumlink_atoms(Z, spec)
    G = None
    if _resolved(args, "focus", "all") == "beta":
        d = beta.shape[0]
        G = np.hstack([np.eye(d), np.zeros((d, spec.k - d))])
    return atoms, G, {"model": "cumlink", "beta": beta.tolist(), "theta_cuts": theta.tolist()}


def _solver_config(args, n: int) -> SolverConfig:
    eps = _resolved(args, "epsilon", 1.0 / n)
    return SolverConfig(
        epsilon=float(eps),
        v0=float(_resolved(args, "v0", 1e-3)),
        v=float(_resolved(args, "v", 1e-6)),
        skip_refine=bool(_resolved(args, "skip_refine", False)),
    )


def _require_budget(n, N, allow_full=False) -> int:
    if n is None:
        raise ParseError("--n is required for this command")
    n = int(n)
    hi = N if allow_full else N - 1
    if not 0 < n <= hi:
        raise ParseError(f"budget n = {n} must lie in [1, {hi}] for a pool of {N}")
    return n


def _out_dir(args) -> str:
    out = _resolved(args, "output_dir", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _phi_of_measure(atoms, w, spec) -> float:
    return build_info_state(atoms, w.weights, spec).phi_value


def _select_like_results(atoms, spec, cfg, n, res, sample):
    w_sample = measure_of_sample(sample, len(atoms))
    ref = res.w
    bounds = efficiency_bounds(w_sample, ref, atoms, spec)
    return {
        "N": len(atoms),
        "k": atoms.k,
        "n": n,
        "p": spec.p,
        "epsilon": cfg.epsilon,
        "target_gap": cfg.target_gap,
        "selected_indices": [int(i) for i in sample.indices],
        "phi_relaxed": float(res.phi_value),
        "phi_sample": float(_phi_of_measure(atoms, w_sample, spec)),
        "gap_ratio": float(res.gap_ratio),
        "efficiency_ratio": float(bounds.ratio),
        "certified_lower_bound": float(bounds.certified_lower_bound),
        "iterations": {k: int(v) for k, v in res.iterations.items()},
        "inner_iterations": int(res.inner_iterations),
    }


def cmd_select(args) -> int:
    t0 = time.perf_counter()
    Z, names, _ = _load_features(args)
    atoms, G, model_info = _build_atoms(args, Z)
    n = _require_budget(args.n, len(atoms))
    spec = CriterionSpec(p=float(_resolved(args, "p", 0.0)), G=G)
    cfg = _solver_config(args, n)
    t_solve = time.perf_counter()
    res = solve_hybrid(atoms, spec, cfg)
    solve_seconds = time.perf_counter() - t_solve
    sample = round_to_sample(res.w, n, res.scores)

    out = _out_dir(args)
    weights_path = os.path.join(out, "weights.csv")
    write_weights_csv(weights_path, res.w.weights, res.scores, sample.indices)
    results = _select_like_results(atoms, spec, cfg, n, res, sample)
    timings = {"total_seconds": time.perf_counter() - t0, "solve_seconds": solve_seconds}
    timings.update({f"{k}_seconds": v for k, v in res.trace.phase_seconds().items()})
    report = make_report(
        command="select",
        params={"input": args.input, "feature_names": list(names), **model_info,
                "n": n, "p": spec.p, "epsilon": cfg.epsilon, "v": cfg.v, "v0": cfg.v0},
        results=results,
        timings=timings,
        seed=_resolved(args, "seed", 0),
        converged=bool(res.converged),
        artifacts={"weights": weights_path},
    )
    write_report(os.path.join(out, "report.json"), report)
    print(f"selected {n} of {len(atoms)} points; gap_ratio {res.gap_ratio:.3e}; "
          f"certified efficiency >= {results['certified_lower_bound']:.6f}")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def _read_candidate_indices(path, N: int) -> list[int]:
    try:
        with open(path) as fh:
            tokens = fh.read().replace(",", " ").split()
    except OSError as exc:
        raise ParseError(f"cannot read candidate file: {exc}") from None
    if tokens and tokens[0].lower() == "index":
        tokens = tokens[1:]
    if not tokens:
        raise EmptyInput(f"{path}: no candidate indices")
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ParseError(f"{path}: {tok!r} is not an index") from None
    if len(set(out)) != len(out):
        raise ParseError(f"{path}: duplicate candidate indices")
    bad = [i for i in out if not 0 <= i < N]
    if bad:
        raise ParseError(f"{path}: indices out of range [0, {N}): {bad[:5]}")
    return sorted(out)


def cmd_efficiency(args) -> int:
    t0 = time.perf_counter()
    Z, names, _ = _load_features(args)
    atoms, G, model_info = _build_atoms(args, Z)
    if not getattr(args, "candidate", None):
        raise ParseError("--candidate is required for the efficiency command")
    indices = _read_candidate_indices(args.candidate, len(atoms))
    n = len(indices)
    spec = CriterionSpec(p=float(_resolved(args, "p", 0.0)), G=G)
    cfg = _solver_config(args, n)
    cfg = replace(cfg, v=float(_resolved(args, "v", REFERENCE_GAP)))
    t_solve = time.perf_counter()
    res = solve_hybrid(atoms, spec, cfg)
    solve_seconds = time.perf_counter() - t_solve
    w_cand = measure_of_sample(SampleSet(tuple(indices)), len(atoms))
    bounds = efficiency_bounds(w_cand, res.w, atoms, spec)

    out = _out_dir(args)
    results = {
        "N": len(atoms), "k": atoms.k, "n": n, "p": spec.p, "epsilon": cfg.epsilon,
        "candidate_indices": indices,
        "phi_candidate": float(_phi_of_measure(atoms, w_cand, spec)),
        "phi_relaxed": float(res.phi_value),
        "solved_gap_ratio": float(bounds.solved_gap_ratio),
        "efficiency_ratio": float(bounds.ratio),
        "certified_lower_bound": float(bounds.certified_lower_bound),
    }
    report = make_report(
        command="efficiency",
        params={"input": args.input, "candidate": args.candidate, **model_info,
                "n": n, "p": spec.p, "epsilon": cfg.epsilon, "v": cfg.v},
        results=results,
        timings={"total_seconds": time.perf_counter() - t0, "solve_seconds": solve_seconds},
        seed=_resolved(args, "seed", 0),
        converged=bool(res.converged),
    )
    write_report(os.path.join(out, "report.json"), report)
    print(f"efficiency {bounds.ratio:.6f} (certified >= {bounds.certified_lower_bound:.6f})")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def _bench_pool(args):
    if args.input:
        Z, _, _ = _load_features(args)
        return AtomSet.from_vectors(Z), {"input": args.input}
    N = int(_resolved(args, "N", 10000))
    k = int(_resolved(args, "k", 11))
    rng = np.random.default_rng(_resolved(args, "seed", 0))
    return make_gaussian_pool(N, k, rng), {"synthetic": True, "N": N, "k": k}


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    atoms, source = _bench_pool(args)
    n = _require_budget(args.n, len(atoms), allow_full=True)
    methods = [m.strip() for m in _resolved(args, "methods", "hybrid,exchange,backward").split(",") if m.strip()]
    cfg = replace(_solver_config(args, n), v=float(_resolved(args, "v", 1e-3)))
    bench = run_bench(atoms, n, p=float(_resolved(args, "p", 0.0)), methods=methods,
                      time_budget=getattr(args, "time_budget", None), solver_cfg=cfg)

    out = _out_dir(args)
    table_path = os.path.join(out, "table.csv")
    write_table_csv(table_path,
                    ["method", "seconds", "efficiency", "certified_lower_bound", "phi_sample", "note"],
                    [[r.method, float(r.seconds), float(r.efficiency), float(r.certified),
                      float(r.phi_value), r.note] for r in bench.rows])
    results = {
        "N": bench.N, "k": bench.k, "n": bench.n, "p": bench.p,
        "rows": [{"method": r.method,
                  "efficiency": None if np.isnan(r.efficiency) else float(r.efficiency),
                  "certified_lower_bound": None if np.isnan(r.certified) else float(r.certified),
                  "phi_sample": None if np.isnan(r.phi_value) else float(r.phi_value),
                  "note": r.note} for r in bench.rows],
    }
    timings = {"total_seconds": time.perf_counter() - t0}
    timings.update({f"{r.method}_seconds": float(r.seconds) for r in bench.rows if np.isfinite(r.seconds)})
    statuses = {r.status for r in bench.rows}
    report = make_report(
        command="bench",
        params={**source, "n": n, "p": float(_resolved(args, "p", 0.0)), "methods": methods,
                "v": cfg.v, "epsilon": cfg.epsilon},
        results=results,
        timings=timings,
        seed=_resolved(args, "seed", 0),
        converged="nonconverged" not in statuses,
    )
    write_report(os.path.join(out, "report.json"), report)
    for r in bench.rows:
        print(f"{r.method:>9}: {r.seconds:8.3f}s  efficiency {r.efficiency:.7f}  {r.note}")
        if r.status in ("failed", "nonconverged"):
            print(f"error: {r.method}: {r.note}", file=sys.stderr)
    if "failed" in statuses:
        return EXIT_DEGENERATE
    return EXIT_NONCONVERGED if "nonconverged" in statuses else EXIT_OK


def cmd_cross_criteria(args) -> int:
    t0 = time.perf_counter()
    atoms, source = _bench_pool(args)
    ns = [int(x) for x in str(_resolved(args, "ns", "500,1000,3000,5000")).replace(",", " ").split()]
    bad = [n for n in ns if not 0 < n <= len(atoms)]
    if bad:
        raise ParseError(f"budgets out of range (0, {len(atoms)}]: {bad}")
    rows = run_cross_criteria(atoms, ns, v=float(_resolved(args, "v", REFERENCE_GAP)))

    out = _out_dir(args)
    table_path = os.path.join(out, "table.csv")
    write_table_csv(table_path, ["n", "a_eff_of_d", "d_eff_of_a"],
                    [[r.n, float(r.a_eff_of_d), float(r.d_eff_of_a)] for r in rows])
    report = make_report(
        command="cross-criteria",
        params={**source, "ns": ns},
        results={"rows": [{"n": r.n, "a_eff_of_d": float(r.a_eff_of_d),
                           "d_eff_of_a": float(r.d_eff_of_a)} for r in rows]},
        timings={"total_seconds": time.perf_counter() - t0},
        seed=_resolved(args, "seed", 0),
        converged=True,
        artifacts={"table": table_path},
    )
    write_report(os.path.join(out, "report.json"), report)
    for r in rows:
        print(f"n={r.n:>6}  A-eff of D-sample {r.a_eff_of_d:.4f}  D-eff of A-sample {r.d_eff_of_a:.4f}")
    return EXIT_OK


def _labeled_data(args):
    if not getattr(args, "response", None):
        raise ParseError("--response is required for model fitting commands")
    Z, names, y = _load_features(args)
    if y is None:
        raise ParseError("input has no response column")
    return Z, names, y


def cmd_two_stage(args) -> int:
    t0 = time.perf_counter()
    Z, names, y = _labeled_data(args)
    model = _resolved(args, "model", None)
    if model is None:
        raise ParseError("--model is required for the two-stage command")
    n = _require_budget(args.n, Z.shape[0])
    r_frac = float(_resolved(args, "r", 0.4))
    if not 0 < r_frac <= 1:
        raise ParseError(f"stage-one fraction r = {r_frac} must lie in (0, 1]")
    p = float(_resolved(args, "p", 0.0))
    cfg = _solver_config(args, n)
    rng = np.random.default_rng(_resolved(args, "seed", 0))
    t_solve = time.perf_counter()
    ts = two_stage_select(Z, y, model, n, r_frac, p, cfg, rng)
    solve_seconds = time.perf_counter() - t_solve

    out = _out_dir(args)
    artifacts = {}
    if ts.solve is not None:
        weights_path = os.path.join(out, "weights.csv")
        write_weights_csv(weights_path, ts.solve.w.weights, ts.solve.scores, ts.combined.indices)
        artifacts["weights"] = weights_path
    results = {
        "N": Z.shape[0], "n": n, "r": r_frac, "p": p, "model": model,
        "n_stage1": len(ts.stage1.indices),
        "stage1_indices": [int(i) for i in ts.stage1.indices],
        "combined_indices": [int(i) for i in ts.combined.indices],
    }
    converged = True
    if ts.fit is not None:
        results["beta_hat"] = np.asarray(ts.fit.beta, dtype=float).tolist()
        if hasattr(ts.fit, "theta_cuts"):
            results["theta_hat"] = np.asarray(ts.fit.theta_cuts, dtype=float).tolist()
        results["fit_iterations"] = int(ts.fit.iterations)
    if ts.solve is not None:
        results["phi_relaxed"] = float(ts.solve.phi_value)
        results["gap_ratio"] = float(ts.solve.gap_ratio)
        converged = bool(ts.solve.converged)
    report = make_report(
        command="two-stage",
        params={"input": args.input, "response": args.response, "model": model,
                "n": n, "r": r_frac, "p": p, "epsilon": cfg.epsilon, "v": cfg.v},
        results=results,
        timings={"total_seconds": time.perf_counter() - t0, "solve_seconds": solve_seconds},
        seed=_resolved(args, "seed", 0),
        converged=converged,
        artifacts=artifacts,
    )
    write_report(os.path.join(out, "report.json"), report)
    print(f"two-stage sample: {len(ts.stage1.indices)} random + "
          f"{len(ts.combined.indices) - len(ts.stage1.indices)} designed of {Z.shape[0]}")
    return EXIT_OK if converged else EXIT_NONCONVERGED


def cmd_bootstrap_eval(args) -> int:
    t0 = time.perf_counter()
    Z, names, y = _labeled_data(args)
    model = _resolved(args, "model", None)
    if model is None:
        raise ParseError("--model is required for the bootstrap-eval command")
    n = _require_budget(args.n, Z.shape[0])
    B = int(_resolved(args, "B", 200))
    if B < 1:
        raise ParseError(f"B = {B} must be >= 1")
    r_frac = float(_resolved(args, "r", 0.4))
    p = float(_resolved(args, "p", 0.0))
    methods = [m.strip() for m in _resolved(args, "methods", "two-stage,random").split(",") if m.strip()]
    cfg = _solver_config(args, n)
    seed = int(_resolved(args, "seed", 0))
    threads = int(_resolved(args, "threads", 1))

    boot = bootstrap_evaluate(Z, y, model, methods, n, r_frac, p, B, cfg, seed, threads=threads)

    out = _out_dir(args)
    table_path = os.path.join(out, "table.csv")
    has_random = any(m.name == "random" for m in boot.methods)
    write_table_csv(
        table_path,
        ["method", "total_mse", "ratio_to_random", "failed_replicates"],
        [[m.name, float(m.total_mse),
          float(boot.ratio_to_random(m.name)) if has_random else None,
          m.failures] for m in boot.methods])
    comp_path = os.path.join(out, "components.csv")
    write_table_csv(
        comp_path,
        ["method", "component", "mse"],
        [[m.name, j, float(v)] for m in boot.methods for j, v in enumerate(m.component_mse)])
    results = {
        "N": Z.shape[0], "n": n, "B": B, "r": r_frac, "p": p, "model": model,
        "used_replicates": boot.used_replicates,
        "failed_replicates": boot.failed_replicates,
        "reference_beta": boot.reference_beta.tolist(),
        "methods": [{"name": m.name, "total_mse": float(m.total_mse),
                     "component_mse": m.component_mse.tolist(),
                     "ratio_to_random": float(boot.ratio_to_random(m.name)) if has_random else None}
                    for m in boot.methods],
    }
    report = make_report(
        command="bootstrap-eval",
        params={"input": args.input, "response": args.response, "model": model,
                "n": n, "B": B, "r": r_frac, "p": p, "methods": methods,
                "epsilon": cfg.epsilon, "threads": threads},
        results=results,
        timings={"total_seconds": time.perf_counter() - t0},
        seed=seed,
        converged=True,
        artifacts={"table": table_path, "components": comp_path},
    )
    write_report(os.path.join(out, "report.json"), report)
    for m in boot.methods:
        ratio = f"  ratio {boot.ratio_to_random(m.name):.4f}" if has_random else ""
        print(f"{m.name:>10}: total MSE {m.total_mse:.6g}{ratio}")
    return EXIT_OK


_HANDLERS = {
    "select": cmd_select,
    "efficiency": cmd_efficiency,
    "bench": cmd_bench,
    "cross-criteria": cmd_cross_criteria,
    "two-stage": cmd_two_stage,
    "bootstrap-eval": cmd_bootstrap_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        return _HANDLERS[args.command](args)
    except (ParseError, EmptyInput, NonFiniteAtom, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except _DEGENERATE_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except FitDiverged as exc:
        print(f"error: model fit failed: {exc} (a larger stage-one fraction may help)",
              file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
