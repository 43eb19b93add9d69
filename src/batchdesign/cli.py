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

import numpy as np

from .atoms import AtomSet
from .bench import BENCH_METHODS, REFERENCE_GAP, make_gaussian_pool, run_bench, run_cross_criteria
from .criteria import CriterionSpec
from .data_io import INTERCEPT_NAME, expand_interactions, read_dataset, write_table_csv, write_weights_csv
from .errors import DesignError, EmptyInput, FitDiverged, NonFiniteAtom, ParseError
from .measures import SampleSet, measure_of_sample, round_to_sample
from .models import CumulativeLinkSpec, LogisticModelSpec, cumlink_atoms, logistic_atoms, standardize_features
from .pipeline import BOOTSTRAP_METHODS, MODEL_NAMES, bootstrap_evaluate, two_stage_select
from .reports import make_report, write_report
from .solvers import SolverConfig, efficiency_bounds, solve_hybrid

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_NONCONVERGED = 4
EXIT_FIT = 5


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """Every option's default is declared on its flag; ``config`` values replace them."""
    parser = argparse.ArgumentParser(
        prog="batchdesign",
        description="Select an informative batch of points from a candidate pool.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", help="input CSV with a header row")
        p.add_argument("--output-dir", default=".", help="directory for report.json and CSV artifacts")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument("--config", help="JSON file mirroring the flags; explicit flags win")

    def add_data(p: argparse.ArgumentParser) -> None:
        p.add_argument("--response", help="response column name (excluded from features)")
        p.add_argument("--add-intercept", action=argparse.BooleanOptionalAction, default=False,
                       help="prepend an all-ones column")
        p.add_argument("--interactions", help="comma list of product columns, e.g. 'x1:x2,x3:x4'")
        p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=False,
                       help="center/scale non-intercept columns before use")

    def add_criterion(p: argparse.ArgumentParser, v: float = 1e-6) -> None:
        p.add_argument("--p", type=float, default=0.0, help="criterion order p >= 0 (0: determinant)")
        p.add_argument("--n", type=int, help="sample budget")
        p.add_argument("--epsilon", type=float, help="weight cap; None means 1/n")
        p.add_argument("--v", type=float, default=v, help="target gap ratio")
        p.add_argument("--v0", type=float, default=1e-3,
                       help="boost-phase gap ratio; --v at or above it stops after the boost phase")

    def add_model(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=["none", "logistic", "cumlink"], default="none",
                       help="atom model (none: rows are regression vectors)")
        p.add_argument("--params", help="JSON file with working parameters (beta, theta_cuts)")
        p.add_argument("--focus", choices=["all", "beta"], default="all",
                       help="parameters of interest (beta restricts to regression coefficients)")

    def add_pool(p: argparse.ArgumentParser) -> None:
        p.add_argument("--N", type=int, default=10000, help="pool size for synthetic data")
        p.add_argument("--k", type=int, default=11, help="dimension for synthetic data")

    def add_fit(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", choices=MODEL_NAMES, help="model fitted to the labelled sample")
        p.add_argument("--r", type=float, default=0.4, help="stage-one fraction of the budget")

    p_select = sub.add_parser("select", help="solve the relaxation and round to a sample")
    for add in (add_common, add_data, add_criterion, add_model):
        add(p_select)

    p_eff = sub.add_parser("efficiency", help="certify a given candidate sample")
    for add in (add_common, add_data, lambda p: add_criterion(p, v=REFERENCE_GAP), add_model):
        add(p_eff)
    p_eff.add_argument("--candidate", help="file listing candidate indices, one per line")

    p_bench = sub.add_parser("bench", help="time selection methods on one instance")
    for add in (add_common, lambda p: add_criterion(p, v=1e-3), add_pool):
        add(p_bench)
    p_bench.add_argument("--methods", default=",".join(BENCH_METHODS), help="comma list of methods")
    p_bench.add_argument("--time-budget", type=float, help="skip methods expected to exceed this many seconds")

    p_cross = sub.add_parser("cross-criteria", help="score each criterion's sample under the other")
    for add in (add_common, add_pool):
        add(p_cross)
    p_cross.add_argument("--ns", default="500,1000,3000,5000", help="comma list of budgets")
    p_cross.add_argument("--v", type=float, default=REFERENCE_GAP, help="solve tolerance")

    p_two = sub.add_parser("two-stage", help="random pilot, fit, then designed completion")
    for add in (add_common, add_data, add_criterion, add_fit):
        add(p_two)

    p_boot = sub.add_parser("bootstrap-eval", help="bootstrap MSE comparison of sampling methods")
    for add in (add_common, add_data, add_criterion, add_fit):
        add(p_boot)
    p_boot.add_argument("--B", type=int, default=200, help="bootstrap replicates")
    p_boot.add_argument("--methods", default=",".join(BOOTSTRAP_METHODS), help="comma list of methods")
    p_boot.add_argument("--threads", type=int, default=1, help="worker threads for the replicates")
    for p in sub.choices.values():
        p.formatter_class = argparse.ArgumentDefaultsHelpFormatter
        p.set_defaults(**(config or {}))
    return parser


def _load_config(args: argparse.Namespace) -> dict:
    """The --config file's option values by flag dest, without the nulls."""
    try:
        with open(args.config) as fh:
            loaded = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{args.config}: invalid JSON ({exc})") from None
    if not isinstance(loaded, dict):
        raise ParseError(f"{args.config}: expected a JSON object of option values")
    values = {}
    for key, value in loaded.items():
        attr = key.replace("-", "_").lstrip("_")
        if not hasattr(args, attr):
            raise ParseError(f"{args.config}: unknown option {key!r}")
        # the subcommand is always given on the command line, so it wins
        if value is not None and attr != "command":
            values[attr] = value
    return values


def _load_features(args):
    if not args.input:
        raise ParseError("--input is required for this command")
    # bench and cross-criteria take --input without the feature-transform flags
    ds = read_dataset(args.input, response_col=getattr(args, "response", None),
                      add_intercept=bool(getattr(args, "add_intercept", False)))
    Z, names = expand_interactions(ds.Z, ds.feature_names, getattr(args, "interactions", None))
    if getattr(args, "standardize", False):
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
    """Returns (atoms, G, model_info) for the chosen model."""
    if args.model == "none":
        return AtomSet.from_vectors(Z), None, {"model": "none"}
    raw = _load_params(args)
    if "beta" not in raw:
        raise ParseError(f"{args.params}: missing 'beta'")
    beta = np.asarray(raw["beta"], dtype=float)
    if args.model == "logistic":
        atoms = logistic_atoms(Z, LogisticModelSpec(beta))
        return atoms, None, {"model": "logistic", "beta": beta.tolist()}
    if "theta_cuts" not in raw:
        raise ParseError(f"{args.params}: cumlink model needs 'theta_cuts'")
    theta = np.asarray(raw["theta_cuts"], dtype=float)
    spec = CumulativeLinkSpec(beta, theta)
    G = spec.beta_selector if args.focus == "beta" else None
    return cumlink_atoms(Z, spec), G, {"model": "cumlink", "beta": beta.tolist(),
                                       "theta_cuts": theta.tolist()}


def _solver_config(args, n: int) -> SolverConfig:
    return SolverConfig(
        epsilon=float(1.0 / n if args.epsilon is None else args.epsilon),
        v0=float(args.v0),
        v=float(args.v),
    )


def _require_budget(n, N, allow_full=False) -> int:
    if n is None:
        raise ParseError("--n is required for this command")
    n = int(n)
    hi = N if allow_full else N - 1
    if not 0 < n <= hi:
        raise ParseError(f"budget n = {n} must lie in [1, {hi}] for a pool of {N}")
    return n


def _require_rank(atoms: AtomSet, n: int) -> None:
    """Reject budgets whose samples cannot have a nonsingular information matrix."""
    # n rank-one atoms span at most n directions; a matrix atom can span more
    if atoms.kind == "vector" and n < atoms.k:
        raise ParseError(f"n = {n} points are fewer than the k = {atoms.k} parameters, "
                         "so the sample's information matrix is singular")


def _comma_list(value, flag: str, allowed=None) -> list:
    """Items of a comma-list flag: names from ``allowed``, or integers when it is None."""
    tokens = str(value).replace(",", " ").split()
    try:
        items = [tok if allowed else int(tok) for tok in tokens]
    except ValueError:
        items = []
    if not items or len(set(items)) < len(items) or (allowed and not set(items) <= set(allowed)):
        expected = f"distinct names from {','.join(allowed)}" if allowed else "distinct integers"
        raise ParseError(f"{flag} {value!r}: expected a comma list of {expected}")
    return items


def _out_dir(args) -> str:
    os.makedirs(args.output_dir, exist_ok=True)
    return args.output_dir


def _write_report(args, t0: float, params: dict, results: dict, timings: dict | None = None,
                  converged: bool = True, artifacts: dict | None = None) -> None:
    """Stamp the command, seed and total time since t0, and write report.json."""
    timings = {"total_seconds": time.perf_counter() - t0, **(timings or {})}
    report = make_report(args.command, params, results, timings, args.seed, converged, artifacts)
    write_report(os.path.join(_out_dir(args), "report.json"), report)


def _solve_for_sample(args, atoms: AtomSet, G, n: int):
    """Solve the relaxation that certifies size-n samples: (spec, cfg, result, seconds)."""
    _require_rank(atoms, n)
    cfg = _solver_config(args, n)
    if cfg.epsilon < 1.0 / n:
        raise ParseError(f"--epsilon {cfg.epsilon:g} is below 1/n = {1.0 / n:g}: a size-{n} sample "
                         "is not feasible for that relaxation, so it cannot be certified")
    spec = CriterionSpec(p=float(args.p), G=G)
    t_solve = time.perf_counter()
    res = solve_hybrid(atoms, spec, cfg)
    return spec, cfg, res, time.perf_counter() - t_solve


def _solve_counts(res) -> dict:
    """The report results that show how a solve went: iterations and working-set size."""
    return {"iterations": {k: int(v) for k, v in res.iterations.items()},
            "inner_iterations": int(res.inner_iterations),
            "working_set": int(res.working_set)}


def cmd_select(args) -> int:
    t0 = time.perf_counter()
    Z, names, _ = _load_features(args)
    atoms, G, model_info = _build_atoms(args, Z)
    n = _require_budget(args.n, len(atoms))
    spec, cfg, res, solve_seconds = _solve_for_sample(args, atoms, G, n)
    sample = round_to_sample(res.w, n, res.scores)

    weights_path = os.path.join(_out_dir(args), "weights.csv")
    write_weights_csv(weights_path, res.w.weights, res.scores, sample.indices)
    bounds = efficiency_bounds(measure_of_sample(sample, len(atoms)), res.w, atoms, spec)
    timings = {"solve_seconds": solve_seconds}
    timings.update({f"{k}_seconds": v for k, v in res.trace.phase_seconds().items()})
    _write_report(
        args, t0,
        params={"input": args.input, "feature_names": list(names), **model_info,
                "n": n, "p": spec.p, "epsilon": cfg.epsilon, "v": cfg.v, "v0": cfg.v0},
        results={
            "N": len(atoms), "k": atoms.k, "n": n, "p": spec.p,
            "epsilon": cfg.epsilon, "target_gap": cfg.target_gap,
            "selected_indices": [int(i) for i in sample.indices],
            "phi_relaxed": float(res.phi_value),
            "phi_sample": bounds.phi_candidate,
            "gap_ratio": float(res.gap_ratio),
            "efficiency_ratio": bounds.ratio,
            "certified_lower_bound": bounds.certified_lower_bound,
            **_solve_counts(res),
        },
        timings=timings,
        converged=bool(res.converged),
        artifacts={"weights": weights_path},
    )
    print(f"selected {n} of {len(atoms)} points; gap_ratio {res.gap_ratio:.3e}; "
          f"certified efficiency >= {bounds.certified_lower_bound:.6f}")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def _read_candidate_indices(path, N: int) -> list[int]:
    try:
        with open(path, encoding="utf-8-sig") as fh:
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
    if not args.candidate:
        raise ParseError("--candidate is required for the efficiency command")
    indices = _read_candidate_indices(args.candidate, len(atoms))
    n = len(indices)
    spec, cfg, res, solve_seconds = _solve_for_sample(args, atoms, G, n)
    w_cand = measure_of_sample(SampleSet(tuple(indices)), len(atoms))
    bounds = efficiency_bounds(w_cand, res.w, atoms, spec)

    _write_report(
        args, t0,
        params={"input": args.input, "candidate": args.candidate, **model_info,
                "n": n, "p": spec.p, "epsilon": cfg.epsilon, "v": cfg.v},
        results={
            "N": len(atoms), "k": atoms.k, "n": n, "p": spec.p, "epsilon": cfg.epsilon,
            "candidate_indices": indices,
            "phi_candidate": bounds.phi_candidate,
            "phi_relaxed": float(res.phi_value),
            "solved_gap_ratio": bounds.solved_gap_ratio,
            "efficiency_ratio": bounds.ratio,
            "certified_lower_bound": bounds.certified_lower_bound,
        },
        timings={"solve_seconds": solve_seconds},
        converged=bool(res.converged),
    )
    print(f"efficiency {bounds.ratio:.6f} (certified >= {bounds.certified_lower_bound:.6f})")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def _bench_pool(args):
    if args.input:
        Z, _, _ = _load_features(args)
        return AtomSet.from_vectors(Z), {"input": args.input}
    N, k = int(args.N), int(args.k)
    rng = np.random.default_rng(args.seed)
    return make_gaussian_pool(N, k, rng), {"synthetic": True, "N": N, "k": k}


def cmd_bench(args) -> int:
    t0 = time.perf_counter()
    methods = _comma_list(args.methods, "--methods", BENCH_METHODS)
    atoms, source = _bench_pool(args)
    n = _require_budget(args.n, len(atoms), allow_full=True)
    _require_rank(atoms, n)
    cfg = _solver_config(args, n)
    bench = run_bench(atoms, n, solver_cfg=cfg, p=float(args.p), methods=methods,
                      time_budget=args.time_budget)

    table_path = os.path.join(_out_dir(args), "table.csv")
    write_table_csv(table_path,
                    ["method", "seconds", "efficiency", "certified_lower_bound", "phi_sample", "note"],
                    [[r.method, float(r.seconds), float(r.efficiency), float(r.certified),
                      float(r.phi_value), r.note] for r in bench.rows])
    statuses = {r.status for r in bench.rows}
    _write_report(
        args, t0,
        params={**source, "n": n, "p": float(args.p), "methods": methods,
                "v": cfg.v, "epsilon": cfg.epsilon},
        results={
            "N": bench.N, "k": bench.k, "n": bench.n, "p": bench.p,
            "rows": [{"method": r.method,
                      "efficiency": None if np.isnan(r.efficiency) else float(r.efficiency),
                      "certified_lower_bound": None if np.isnan(r.certified) else float(r.certified),
                      "phi_sample": None if np.isnan(r.phi_value) else float(r.phi_value),
                      "note": r.note} for r in bench.rows],
        },
        timings={f"{r.method}_seconds": float(r.seconds) for r in bench.rows if np.isfinite(r.seconds)},
        converged="nonconverged" not in statuses,
        artifacts={"table": table_path},
    )
    for r in bench.rows:
        print(f"{r.method:>9}: {r.seconds:8.3f}s  efficiency {r.efficiency:.7f}  {r.note}")
        if r.status in ("failed", "nonconverged"):
            print(f"error: {r.method}: {r.note}", file=sys.stderr)
    if "failed" in statuses:
        return EXIT_DEGENERATE
    return EXIT_NONCONVERGED if "nonconverged" in statuses else EXIT_OK


def cmd_cross_criteria(args) -> int:
    t0 = time.perf_counter()
    ns = _comma_list(args.ns, "--ns")
    atoms, source = _bench_pool(args)
    bad = [n for n in ns if not 0 < n <= len(atoms)]
    if bad:
        raise ParseError(f"budgets out of range (0, {len(atoms)}]: {bad}")
    rows = run_cross_criteria(atoms, ns, v=float(args.v))

    table_path = os.path.join(_out_dir(args), "table.csv")
    write_table_csv(table_path, ["n", "a_eff_of_d", "d_eff_of_a"],
                    [[r.n, float(r.a_eff_of_d), float(r.d_eff_of_a)] for r in rows])
    _write_report(
        args, t0,
        params={**source, "ns": ns},
        results={"rows": [{"n": r.n, "a_eff_of_d": float(r.a_eff_of_d),
                           "d_eff_of_a": float(r.d_eff_of_a)} for r in rows]},
        artifacts={"table": table_path},
    )
    for r in rows:
        print(f"n={r.n:>6}  A-eff of D-sample {r.a_eff_of_d:.4f}  D-eff of A-sample {r.d_eff_of_a:.4f}")
    return EXIT_OK


def _labeled_data(args):
    if not args.response:
        raise ParseError("--response is required for model fitting commands")
    Z, names, y = _load_features(args)
    if y is None:
        raise ParseError("input has no response column")
    if args.model is None:
        raise ParseError(f"--model is required for the {args.command} command")
    return Z, names, y


def cmd_two_stage(args) -> int:
    t0 = time.perf_counter()
    Z, names, y = _labeled_data(args)
    n = _require_budget(args.n, Z.shape[0])
    r_frac = float(args.r)
    if not 0 < r_frac <= 1:
        raise ParseError(f"stage-one fraction r = {r_frac} must lie in (0, 1]")
    p = float(args.p)
    cfg = _solver_config(args, n)
    rng = np.random.default_rng(args.seed)
    t_solve = time.perf_counter()
    ts = two_stage_select(Z, y, args.model, n, r_frac, p, cfg, rng)
    solve_seconds = time.perf_counter() - t_solve

    artifacts = {}
    if ts.solve is not None:
        weights_path = os.path.join(_out_dir(args), "weights.csv")
        write_weights_csv(weights_path, ts.solve.w.weights, ts.solve.scores, ts.combined.indices)
        artifacts["weights"] = weights_path
    results = {
        "N": Z.shape[0], "n": n, "r": r_frac, "p": p, "model": args.model,
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
        results.update(_solve_counts(ts.solve))
        converged = bool(ts.solve.converged)
    _write_report(
        args, t0,
        params={"input": args.input, "response": args.response, "model": args.model,
                "n": n, "r": r_frac, "p": p, "epsilon": cfg.epsilon, "v": cfg.v},
        results=results,
        timings={"solve_seconds": solve_seconds},
        converged=converged,
        artifacts=artifacts,
    )
    print(f"two-stage sample: {len(ts.stage1.indices)} random + "
          f"{len(ts.combined.indices) - len(ts.stage1.indices)} designed of {Z.shape[0]}")
    return EXIT_OK if converged else EXIT_NONCONVERGED


def cmd_bootstrap_eval(args) -> int:
    t0 = time.perf_counter()
    methods = _comma_list(args.methods, "--methods", BOOTSTRAP_METHODS)
    Z, names, y = _labeled_data(args)
    n = _require_budget(args.n, Z.shape[0])
    B = int(args.B)
    if B < 1:
        raise ParseError(f"B = {B} must be >= 1")
    r_frac = float(args.r)
    p = float(args.p)
    cfg = _solver_config(args, n)
    threads = int(args.threads)

    boot = bootstrap_evaluate(Z, y, args.model, methods, n, r_frac, p, B, cfg, args.seed,
                              threads=threads)

    has_random = any(m.name == "random" for m in boot.methods)
    ratios = {m.name: float(boot.ratio_to_random(m.name)) if has_random else None for m in boot.methods}
    out = _out_dir(args)
    table_path = os.path.join(out, "table.csv")
    write_table_csv(table_path, ["method", "total_mse", "ratio_to_random", "failed_replicates"],
                    [[m.name, float(m.total_mse), ratios[m.name], m.failures] for m in boot.methods])
    comp_path = os.path.join(out, "components.csv")
    write_table_csv(comp_path, ["method", "component", "mse"],
                    [[m.name, j, float(v)] for m in boot.methods for j, v in enumerate(m.component_mse)])
    _write_report(
        args, t0,
        params={"input": args.input, "response": args.response, "model": args.model,
                "n": n, "B": B, "r": r_frac, "p": p, "methods": methods,
                "epsilon": cfg.epsilon, "threads": threads},
        results={
            "N": Z.shape[0], "n": n, "B": B, "r": r_frac, "p": p, "model": args.model,
            "used_replicates": boot.used_replicates,
            "failed_replicates": boot.failed_replicates,
            "reference_beta": boot.reference_beta.tolist(),
            "methods": [{"name": m.name, "total_mse": float(m.total_mse),
                         "component_mse": m.component_mse.tolist(),
                         "ratio_to_random": ratios[m.name]}
                        for m in boot.methods],
        },
        artifacts={"table": table_path, "components": comp_path},
    )
    for m in boot.methods:
        ratio = f"  ratio {ratios[m.name]:.4f}" if has_random else ""
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
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            args = build_parser(_load_config(args)).parse_args(argv)
        return _HANDLERS[args.command](args)
    except (ParseError, EmptyInput, NonFiniteAtom, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FitDiverged as exc:
        print(f"error: model fit failed: {exc} (a larger stage-one fraction may help)",
              file=sys.stderr)
        return EXIT_FIT
    except DesignError as exc:  # every other library error: a singular or degenerate instance
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
