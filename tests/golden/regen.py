"""Seeded solves of the golden corpus, and the script that rewrites it.

Each instance is a pool family at fixed sizes and seed; ``run`` solves it,
rounds the relaxation to its sample and certifies the sample.  A bootstrap
instance records each method's total MSE instead, and a CLI instance runs a
subcommand on a CSV written from its pool and records the exit code and the
``report.json`` keys as well.  Running this file rewrites ``solves.json``
next to it, or only the entries whose names are given as arguments:

    PYTHONPATH=src python tests/golden/regen.py [NAME ...]

The corpus also records a fingerprint of the BLAS kernel that wrote it,
because other kernels round the same solves differently.  A partial rewrite
must run on that kernel.  A change that rewrites the corpus says which
entries changed and why.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np

from batchdesign import (
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
    two_stage_select,
)
from batchdesign.cli import main as cli_main
from batchdesign.reports import strip_volatile

CORPUS = pathlib.Path(__file__).with_name("solves.json")
# the sample is recorded as exact only when the n-th and (n+1)-th largest
# free weights differ by more than TIE_MARGIN * eps, so that no solver
# roundoff can reorder them
TIE_MARGIN = 1e-3


def _gaussian(seed, N, k, tails="normal"):
    rng = np.random.default_rng(seed)
    draw = rng.standard_cauchy if tails == "cauchy" else rng.standard_normal
    return np.hstack([np.ones((N, 1)), draw((N, k - 1))])


def _logistic(seed, N):
    rng = np.random.default_rng(seed)
    Z = np.hstack([np.ones((N, 1)), rng.standard_normal((N, 4))])
    beta = np.array([-0.5, 1.0, -0.8, 0.6, 0.4])
    y = (rng.random(N) < 1.0 / (1.0 + np.exp(-Z @ beta))).astype(int)
    return Z, y, beta


def _ordinal(seed, N):
    """Features and proportional-odds responses 0..2 of a cumulative-link pool."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((N, 2))
    beta, cuts = np.array([0.8, -0.5]), np.array([-0.5, 0.7])
    cum = 1.0 / (1.0 + np.exp(-(cuts[None, :] - (Z @ beta)[:, None])))
    y = (rng.random(N)[:, None] > cum).sum(axis=1)
    return Z, y, beta, cuts


def _instances():
    out = []
    # screened Gaussian pools (N > 5 / eps), refined and boost-only
    for p in (0.0, 1.0, 2.0):
        for seed in (0, 1):
            out.append(dict(family="gaussian", seed=seed, N=4000, k=8, n=100, p=p))
    out.append(dict(family="gaussian", seed=2, N=4000, k=8, n=100, p=1.0, v=1e-3))
    out.append(dict(family="gaussian", seed=5, N=4000, k=8, n=100, p=1.0, pins=20))
    # whole-pool Gaussian solves, unpinned and pinned
    for p in (0.0, 1.0, 2.0):
        out.append(dict(family="gaussian", seed=3, N=300, k=5, n=60, p=p))
        out.append(dict(family="gaussian", seed=4, N=300, k=5, n=60, p=p, pins=12))
    # heavy tails, which fall back from the screen to the whole pool
    for seed in (1, 2):
        out.append(dict(family="cauchy", seed=seed, N=3000, k=8, n=100, p=2.0))
    # cumulative-link matrix atoms, on all parameters and on the beta block
    out.append(dict(family="cumlink", seed=0, N=1500, n=100, p=2.0))
    out.append(dict(family="cumlink", seed=0, N=1500, n=100, p=1.0, beta_only=True))
    # a bootstrap replicate's second stage: a pinned logistic pool
    out.append(dict(family="logistic", seed=1, N=1900, n=600, p=1.0, pins=240))
    # the two-stage workflow end to end
    out.append(dict(family="two-stage", seed=5, N=6000, n=150, p=1.0))
    # second slice: a bootstrap, a cumulative-link two-stage run, and the CLI
    out.append(dict(family="bootstrap", seed=6, N=1500, n=150, p=1.0, B=4))
    out.append(dict(family="two-stage-cumlink", seed=7, N=2000, n=100, p=1.0))
    out.append(dict(family="cli-select", seed=8, N=2000, n=60, p=1.0))
    out.append(dict(family="cli-select-cumlink", seed=9, N=800, n=60, p=1.0))
    out.append(dict(family="cli-efficiency", seed=10, N=600, n=50, p=0.0, v=1e-8))
    out.append(dict(family="cli-two-stage", seed=11, N=1500, n=100, p=1.0))
    # third slice: the exponents and transforms the leverage formula must cover
    for p in (0.0, 0.5, 2.0):
        out.append(dict(family="cumlink", seed=12, N=800, n=80, p=p, beta_only=True))
    out.append(dict(family="gaussian", seed=3, N=300, k=5, n=60, p=0.5))
    out.append(dict(family="gaussian", seed=3, N=300, k=5, n=60, p=10.0))
    for inst in out:
        inst.setdefault("v", 1e-6)
        inst["name"] = "-".join(f"{k}={v}" for k, v in inst.items())
    return out


INSTANCES = _instances()


def _problem(inst):
    """(atoms, spec, pinned) of a solve instance."""
    seed, N, family = inst["seed"], inst["N"], inst["family"]
    pinned = None
    if inst.get("pins"):
        pinned = np.sort(np.random.default_rng(seed + 100).choice(N, inst["pins"], replace=False))
    if family in ("gaussian", "cauchy"):
        return _gaussian(seed, N, inst["k"], family), CriterionSpec(p=inst["p"]), pinned
    if family == "cumlink":
        Z = np.random.default_rng(seed).standard_normal((N, 2))
        model = CumulativeLinkSpec(np.array([0.8, -0.5]), np.array([-0.5, 0.7]))
        G = model.beta_selector if inst.get("beta_only") else None
        return cumlink_atoms(Z, model), CriterionSpec(p=inst["p"], G=G), pinned
    Z, _, beta = _logistic(seed, N)
    return logistic_atoms(Z, LogisticModelSpec(beta)), CriterionSpec(p=inst["p"]), pinned


def _exact(weights, n, pinned, eps):
    free = np.array(weights, dtype=float)
    if pinned is not None:
        free[pinned] = np.inf
    top = np.sort(free)[::-1]
    return bool(top[n - 1] - top[n] > TIE_MARGIN * eps)


def _write_csv(path, Z, y=None):
    header = [f"x{j + 1}" for j in range(Z.shape[1])] + ([] if y is None else ["y"])
    rows = Z if y is None else np.column_stack([Z, y])
    lines = [",".join(header)] + [",".join(f"{x:.17g}" for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _report_keys(report):
    """The top-level keys of a report and the keys of its sections."""
    report = strip_volatile(report)
    return sorted(list(report) + [f"{k}.{kk}" for k, v in report.items()
                                  if isinstance(v, dict) for kk in v])


def run_cli(inst):
    """Run one CLI subcommand on a CSV of the instance's pool; its corpus entry."""
    seed, N, n, family = inst["seed"], inst["N"], inst["n"], inst["family"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        data, out = tmp / "pool.csv", tmp / "out"
        # efficiency takes n from the candidate file
        budget = [] if family == "cli-efficiency" else ["--n", str(n)]
        args = ["--input", str(data), "--output-dir", str(out), *budget,
                "--p", str(inst["p"]), "--v", str(inst["v"]), "--seed", str(seed)]
        pinned = None
        if family == "cli-select":
            _write_csv(data, _gaussian(seed, N, 5)[:, 1:])
            args = ["select", *args, "--add-intercept"]
        elif family == "cli-select-cumlink":
            Z, _, beta, cuts = _ordinal(seed, N)
            _write_csv(data, Z)
            (tmp / "params.json").write_text(json.dumps(
                {"beta": beta.tolist(), "theta_cuts": cuts.tolist()}))
            args = ["select", *args, "--model", "cumlink", "--focus", "beta",
                    "--params", str(tmp / "params.json")]
        elif family == "cli-efficiency":
            Z, _, beta = _logistic(seed, N)
            _write_csv(data, Z[:, 1:])
            (tmp / "params.json").write_text(json.dumps({"beta": beta.tolist()}))
            cand = np.random.default_rng(seed + 100).choice(N, n, replace=False)
            (tmp / "cand.txt").write_text("\n".join(str(i) for i in cand) + "\n")
            args = ["efficiency", *args, "--add-intercept", "--model", "logistic",
                    "--params", str(tmp / "params.json"), "--candidate", str(tmp / "cand.txt")]
        else:
            Z, y, _ = _logistic(seed, N)
            _write_csv(data, Z[:, 1:], y)
            args = ["two-stage", *args, "--add-intercept", "--model", "logistic",
                    "--response", "y", "--r", "0.4"]
        code = cli_main(args)
        report = json.loads((out / "report.json").read_text())
        res = report["results"]
        if "candidate_indices" in res:
            indices, exact = res["candidate_indices"], True
        else:
            weights = np.loadtxt(out / "weights.csv", delimiter=",", skiprows=1)[:, 1]
            if "combined_indices" in res:
                indices, pinned = res["combined_indices"], np.array(res["stage1_indices"])
            else:
                indices = res["selected_indices"]
            exact = _exact(weights, n, pinned, 1.0 / n)
    return dict(name=inst["name"], exit_code=code, report_keys=_report_keys(report),
                converged=report["converged"], phi_value=res["phi_relaxed"],
                gap_ratio=res.get("gap_ratio", res.get("solved_gap_ratio")),
                target_gap=inst["v"], v=inst["v"], indices=indices, exact_indices=exact,
                certified_lower_bound=res.get("certified_lower_bound"))


def run(inst):
    """Solve, round and certify one instance; the corpus entry it gives."""
    n, cfg = inst["n"], SolverConfig(epsilon=1.0 / inst["n"], v=inst["v"])
    if inst["family"].startswith("cli-"):
        return run_cli(inst)
    if inst["family"] == "bootstrap":
        Z, y, _ = _logistic(inst["seed"], inst["N"])
        boot = bootstrap_evaluate(Z, y, "logistic", ("two-stage", "random"), n, 0.4, inst["p"],
                                  inst["B"], cfg, inst["seed"])
        return dict(name=inst["name"], used_replicates=boot.used_replicates,
                    total_mse={m.name: m.total_mse for m in boot.methods})
    if inst["family"].startswith("two-stage"):
        if inst["family"] == "two-stage":
            Z, y, _ = _logistic(inst["seed"], inst["N"])
        else:
            Z, y, _, _ = _ordinal(inst["seed"], inst["N"])
        model = "logistic" if inst["family"] == "two-stage" else "cumlink"
        ts = two_stage_select(Z, y, model, n, 0.4, inst["p"], cfg,
                              np.random.default_rng(inst["seed"]))
        res, sample, pinned = ts.solve, ts.combined, np.array(ts.stage1.indices)
        atoms, spec = res.w.certificate.atoms, res.w.certificate.state.spec
    else:
        atoms, spec, pinned = _problem(inst)
        res = solve_hybrid(atoms, spec, cfg, pinned=pinned)
        sample = round_to_sample(res.w, n, res.scores, pinned=pinned)
    bounds = efficiency_bounds(measure_of_sample(sample, len(atoms)), res.w, atoms, spec)
    return dict(name=inst["name"], converged=res.converged, phi_value=res.phi_value,
                gap_ratio=res.gap_ratio, target_gap=cfg.target_gap, v=inst["v"],
                indices=list(sample.indices),
                exact_indices=_exact(res.w.weights, n, pinned, res.w.epsilon),
                certified_lower_bound=bounds.certified_lower_bound)


def blas_fingerprint() -> str:
    """Digest of one seeded Gram product and its eigenvalues, the BLAS and
    LAPACK calls every solve iteration makes; kernels that round them
    differently give different digests."""
    X = np.random.default_rng(0).standard_normal((1000, 45))
    M = X.T @ X
    return hashlib.sha256(M.tobytes() + np.linalg.eigvalsh(M).tobytes()).hexdigest()[:16]


def load():
    """(fingerprint, entries by name) of the corpus."""
    corpus = json.loads(CORPUS.read_text())
    return corpus["blas"], {e["name"]: e for e in corpus["entries"]}


def main(names=()):
    blas = blas_fingerprint()
    kept = {}
    unknown = set(names) - {inst["name"] for inst in INSTANCES}
    if unknown:
        sys.exit(f"no such instance: {sorted(unknown)}")
    if names:
        written, kept = load()
        if written != blas:
            sys.exit(f"the corpus was written on BLAS kernel {written}, this is {blas}: "
                     "rewrite it whole")
    entries = [run(inst) if not names or inst["name"] in names else kept[inst["name"]]
               for inst in INSTANCES]
    # one entry per line, so that a rewrite shows which entries changed
    CORPUS.write_text(f'{{"blas": "{blas}", "entries": [\n'
                      + ",\n".join(json.dumps(e) for e in entries) + "\n]}\n")
    print(f"wrote {len(names) or len(entries)} of {len(entries)} entries to {CORPUS}")


if __name__ == "__main__":
    main(sys.argv[1:])
