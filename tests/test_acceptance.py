"""Acceptance gate: one test per release criterion.

Each test prints a single ``[criterion N] name: PASS/FAIL`` verdict line
(run ``pytest -s tests/test_acceptance.py`` to see them all) and then
asserts it.  Stated runtime budgets are asserted alongside the numeric
thresholds; absolute wall-clock seconds of individual methods are never
asserted, only their relative order.
"""

import itertools
import json
import time

import numpy as np
import pytest

from helpers import (
    best_subset,
    blend_phi,
    eta,
    gaussian_pool,
    is_monotone,
    random_feasible,
    sigmoid,
    tau,
)
from batchdesign.baselines import backward_select, exchange_select
from batchdesign.bench import REFERENCE_GAP, make_gaussian_pool, run_cross_criteria
from batchdesign.cli import main
from batchdesign.criteria import CriterionSpec, build_info_state, phi_p_scores
from batchdesign.measures import measure_of_sample, round_to_sample, trichotomy_check
from batchdesign.models import (
    CumulativeLinkSpec,
    LogisticModelSpec,
    cumlink_atoms,
    logistic_atoms,
)
from batchdesign.pipeline import bootstrap_evaluate
from batchdesign.reports import strip_volatile
from batchdesign.solvers import SolverConfig, efficiency_bounds, solve_hybrid


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _phi_of(atoms, w, spec):
    return build_info_state(atoms, w.weights, spec).phi_value


def _sample_efficiency(atoms, spec, sample, ref):
    w_sample = measure_of_sample(sample, len(atoms))
    return efficiency_bounds(w_sample, ref.w, atoms, spec).ratio


def _min_time(fn, reps=3):
    """Smallest wall time over reps runs of a deterministic callable.

    The methods under test return the same output every run, so repeating
    only filters out scheduler noise; the minimum is the cleanest estimate
    of the actual cost.
    """
    best, out = np.inf, None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


# --- criterion 1 -----------------------------------------------------------


def test_certificates_sound_on_enumerable_instances():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    violations = 0
    subsets_checked = 0
    worst_gap = 0.0
    for i in range(200):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(k, 5))
        N = int(rng.integers(n + 2, 13))
        spec = CriterionSpec(p=(0.0, 1.0, 2.0)[i % 3])
        atoms = gaussian_pool(rng, N, k, intercept=False)
        res = solve_hybrid(atoms, spec, SolverConfig(epsilon=1.0 / n, v=1e-10))
        gap = max(res.gap_ratio, 0.0)
        worst_gap = max(worst_gap, gap)

        combo, best_phi, table = best_subset(atoms, n, spec)
        # every size-n sample is feasible at eps = 1/n, so the solved value
        # can exceed the best sample's only by its own optimality gap
        if not best_phi * (1.0 + gap + 1e-9) >= res.phi_value:
            violations += 1

        # certified efficiency of a subset must never exceed its efficiency
        # relative to the enumerated best; same formula as
        # EfficiencyBounds.certified_lower_bound, using the achieved gap
        certified_opt = res.phi_value * (1.0 - gap)
        for phi_s in table.values():
            if not np.isfinite(phi_s):
                continue
            subsets_checked += 1
            if certified_opt / phi_s > (best_phi / phi_s) * (1.0 + 1e-12):
                violations += 1
    elapsed = time.perf_counter() - t_start
    ok = violations == 0 and worst_gap <= 1e-8 and elapsed < 120.0
    _verdict(1, "certificates sound under enumeration", ok,
             f"{subsets_checked} subsets, 0 tolerated / {violations} violations, "
             f"worst gap {worst_gap:.2e}, {elapsed:.1f}s < 120s")


# --- criterion 2 -----------------------------------------------------------


def test_mid_scale_solves_certify_and_satisfy_trichotomy():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20240902)
    n = 50
    worst_gap = 0.0
    failures = []
    for i in range(50):
        spec = CriterionSpec(p=(0.0, 1.0)[i % 2])
        atoms = gaussian_pool(rng, 500, 5)
        res = solve_hybrid(atoms, spec, SolverConfig(epsilon=1.0 / n, v=1e-6))
        worst_gap = max(worst_gap, res.gap_ratio)
        tri = trichotomy_check(res.w, res.scores, tol=1e-4)
        if res.gap_ratio > 1e-6 or not tri.passed:
            failures.append((i, res.gap_ratio, tri.violations))
    elapsed = time.perf_counter() - t_start
    ok = not failures and elapsed < 300.0
    _verdict(2, "mid-scale gap and trichotomy", ok,
             f"50 instances, worst gap {worst_gap:.2e} <= 1e-6, "
             f"{len(failures)} failures, {elapsed:.1f}s < 300s")


# --- criteria 3-5 share one large instance ---------------------------------


@pytest.fixture(scope="module")
def big_instance():
    rng = np.random.default_rng(20160816)
    atoms = make_gaussian_pool(10_000, 11, rng)
    spec = CriterionSpec(p=0.0)
    t0 = time.perf_counter()
    ref = solve_hybrid(atoms, spec, SolverConfig(epsilon=1e-3, v=REFERENCE_GAP))
    return {"atoms": atoms, "spec": spec, "ref": ref,
            "ref_seconds": time.perf_counter() - t0}


def test_large_instance_method_comparison(big_instance):
    t_start = time.perf_counter()
    atoms, spec, ref = (big_instance[k] for k in ("atoms", "spec", "ref"))
    n = 1000

    # boost alone reaches this gap in three cheap iterations; the rounded
    # sample is already far above the efficiency floor
    cfg = SolverConfig(epsilon=1.0 / n, v0=5e-4, v=5e-4)

    def run_hybrid():
        res = solve_hybrid(atoms, spec, cfg)
        return round_to_sample(res.w, n, res.scores)

    t_hybrid, sample_hybrid = _min_time(run_hybrid)
    t_exchange, exchange = _min_time(lambda: exchange_select(atoms, n))
    t_backward, backward = _min_time(lambda: backward_select(atoms, n))

    eff_hybrid = _sample_efficiency(atoms, spec, sample_hybrid, ref)
    eff_exchange = _sample_efficiency(atoms, spec, exchange.sample, ref)
    eff_backward = _sample_efficiency(atoms, spec, backward.sample, ref)

    elapsed = time.perf_counter() - t_start + big_instance["ref_seconds"]
    ok = (eff_hybrid >= 0.999 and eff_backward >= 0.999 and eff_exchange >= 0.99
          and t_hybrid < t_exchange < t_backward and elapsed < 1800.0)
    _verdict(3, "large-instance efficiency and time order", ok,
             f"eff hybrid {eff_hybrid:.6f} / backward {eff_backward:.6f} / "
             f"exchange {eff_exchange:.6f}; "
             f"times {t_hybrid:.3f}s < {t_exchange:.3f}s < {t_backward:.3f}s; "
             f"{elapsed:.1f}s < 1800s")


def test_large_instance_tight_solve_efficiency(big_instance):
    atoms, spec, ref = (big_instance[k] for k in ("atoms", "spec", "ref"))
    n = 1000
    res = solve_hybrid(atoms, spec, SolverConfig(epsilon=1.0 / n, v=1e-6))
    sample = round_to_sample(res.w, n, res.scores)
    eff = _sample_efficiency(atoms, spec, sample, ref)
    _verdict(4, "tight-tolerance rounded efficiency", eff >= 0.99999,
             f"efficiency {eff:.7f} >= 0.99999, gap {res.gap_ratio:.2e}")


def test_cross_criteria_efficiency_trend(big_instance):
    t_start = time.perf_counter()
    rows = run_cross_criteria(big_instance["atoms"], (500, 1000, 3000, 5000))
    bounded = all(0.0 < r.a_eff_of_d < 1.0 and 0.0 < r.d_eff_of_a < 1.0
                  for r in rows)
    trend = all(nxt.a_eff_of_d >= cur.a_eff_of_d - 0.05
                and nxt.d_eff_of_a >= cur.d_eff_of_a - 0.05
                for cur, nxt in zip(rows, rows[1:]))
    elapsed = time.perf_counter() - t_start
    cells = "; ".join(f"n={r.n}: {r.a_eff_of_d:.4f}/{r.d_eff_of_a:.4f}" for r in rows)
    _verdict(5, "cross-criteria efficiencies bounded and trending", bounded and trend,
             f"{cells}; {elapsed:.1f}s")


# --- criterion 6 -----------------------------------------------------------


def test_gradient_identities_and_monotone_traces():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20240906)
    ps = (0.0, 0.5, 1.0, 2.0, 3.0)
    bad = {"identity": 0, "eta_fd": 0, "tau": 0, "convexity": 0, "trace": 0}

    for i in range(340):
        N = int(rng.integers(8, 40))
        k = int(rng.integers(2, 6))
        G = None
        if i % 4 == 0:
            G = rng.standard_normal((int(rng.integers(1, k + 1)), k))
        spec = CriterionSpec(p=ps[i % 5], G=G)
        atoms = gaussian_pool(rng, N, k, intercept=False)
        # the projection concentrates mass on about 1/eps points, so keep
        # eps small enough that both draws have support above k
        eps = float(rng.uniform(1.05 / N, 1.0 / (k + 2.0)))
        w = random_feasible(rng, N, eps)
        w2 = random_feasible(rng, N, eps)

        state = build_info_state(atoms, w.weights, spec)
        phi = state.phi_value
        scores = phi_p_scores(atoms, state)
        if abs(float(w.weights @ scores) - phi) > 1e-8 * phi:
            bad["identity"] += 1

        e = eta(w2, w, atoms, spec)
        h = 1e-5
        fd = (blend_phi(atoms, w, w2, h, spec)
              - blend_phi(atoms, w, w2, -h, spec)) / (2.0 * h)
        # eta equals the derivative of the criterion along the blend
        if abs(e - fd) > 1e-4 * max(abs(e), abs(fd)) + 1e-9 * phi:
            bad["eta_fd"] += 1

        if tau(w2, w, atoms, spec) < 0.0:
            bad["tau"] += 1

        phi2 = _phi_of(atoms, w2, spec)
        if blend_phi(atoms, w, w2, 0.5, spec) > 0.5 * (phi + phi2) * (1.0 + 1e-10):
            bad["convexity"] += 1

    for i in range(160):
        N = int(rng.integers(10, 61))
        k = int(rng.integers(2, 6))
        n = int(rng.integers(k, max(k, min(8, N // 2)) + 1))
        spec = CriterionSpec(p=ps[i % 5])
        atoms = gaussian_pool(rng, N, k, intercept=False)
        res = solve_hybrid(atoms, spec, SolverConfig(epsilon=1.0 / n, v=1e-6))
        if not is_monotone(res.trace):
            bad["trace"] += 1

    elapsed = time.perf_counter() - t_start
    ok = not any(bad.values()) and elapsed < 120.0
    _verdict(6, "gradient identities and monotone traces", ok,
             f"500 cases, failures {bad}, {elapsed:.1f}s < 120s")


# --- criterion 7 -----------------------------------------------------------


def test_model_adapters_match_oracles():
    from helpers import cumlink_info_fd

    rng = np.random.default_rng(20240907)

    Z = rng.standard_normal((40, 4))
    beta = rng.uniform(-1.0, 1.0, 4)
    aset = logistic_atoms(Z, LogisticModelSpec(beta=beta))
    pr = sigmoid(Z @ beta)
    logistic_ok = all(
        np.allclose(np.outer(aset.data[i], aset.data[i]), pr[i] * (1.0 - pr[i]) * np.outer(Z[i], Z[i]),
                    rtol=1e-12, atol=1e-15)
        for i in range(len(aset)))

    def random_cuts(J):
        start = float(rng.uniform(-2.0, 0.0))
        gaps = rng.uniform(0.3, 1.2, J - 2)
        return start + np.concatenate([[0.0], np.cumsum(gaps)])

    fd_bad = 0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        J = int(rng.integers(2, 5))
        z = rng.standard_normal(d)
        b = rng.uniform(-1.0, 1.0, d)
        cuts = random_cuts(J)
        got = cumlink_atoms(z[None], CumulativeLinkSpec(beta=b, theta_cuts=cuts)).data[0]
        want = cumlink_info_fd(z, b, cuts)
        if not np.allclose(got, want, rtol=1e-5, atol=1e-5):
            fd_bad += 1

    reduction_bad = 0
    for _ in range(50):
        d = int(rng.integers(1, 4))
        z = rng.standard_normal(d)
        b = rng.uniform(-1.0, 1.0, d)
        cut = float(rng.uniform(-1.0, 1.0))
        got = cumlink_atoms(z[None], CumulativeLinkSpec(beta=b, theta_cuts=[cut])).data[0]
        # two categories collapse to a binary logit on (z, -1) with the
        # cutpoint appended as one more coefficient
        aug = np.append(z, -1.0)
        twin = logistic_atoms(aug[None, :], LogisticModelSpec(beta=np.append(b, cut)))
        if not np.allclose(got, np.outer(twin.data[0], twin.data[0]), rtol=1e-10, atol=1e-12):
            reduction_bad += 1

    ok = logistic_ok and fd_bad == 0 and reduction_bad == 0
    _verdict(7, "model adapters match oracles", ok,
             f"logistic exact: {logistic_ok}, ordinal FD misses: {fd_bad}/50, "
             f"two-category reduction misses: {reduction_bad}/50")


# --- criterion 8 -----------------------------------------------------------


def test_designed_subsample_beats_random():
    t_start = time.perf_counter()
    rng = np.random.default_rng(20240908)
    N, k = 2000, 9
    Z = np.empty((N, k))
    Z[:, 0] = 1.0
    Z[:, 1:] = rng.standard_normal((N, k - 1))
    beta_true = rng.uniform(-0.8, 0.8, k)
    y = (rng.random(N) < sigmoid(Z @ beta_true)).astype(int)

    boot = bootstrap_evaluate(Z, y, "logistic", ("two-stage", "random"),
                              n=300, r_frac=0.4, p=1.0, B=200,
                              cfg=SolverConfig(v0=1e-2, v=1e-4), seed=20240908)
    ratio = boot.ratio_to_random("two-stage")
    elapsed = time.perf_counter() - t_start
    ok = ratio < 1.0 and elapsed < 900.0
    _verdict(8, "designed subsample beats random", ok,
             f"MSE ratio {ratio:.4f} < 1 over {boot.used_replicates} replicates, "
             f"{elapsed:.1f}s < 900s")


# --- criterion 9 -----------------------------------------------------------


def _run_cli(argv):
    code = main(argv)
    assert code == 0, f"exit {code} for {argv}"


def _clean_report(outdir):
    with open(outdir / "report.json") as fh:
        report = strip_volatile(json.load(fh))
    # artifact values are paths into this run's own output directory; the
    # files they point to are byte-compared separately
    report.pop("artifacts", None)
    return report


def test_seeded_reruns_reproduce_outputs(tmp_path):
    rng = np.random.default_rng(20240909)
    Z = rng.standard_normal((150, 2))
    pr = sigmoid(0.4 + 1.1 * Z[:, 0] - 0.8 * Z[:, 1])
    y = (rng.random(150) < pr).astype(int)
    pool = tmp_path / "pool.csv"
    pool.write_text("x1,x2\n" + "\n".join(f"{a:.12g},{b:.12g}" for a, b in Z) + "\n")
    labeled = tmp_path / "labeled.csv"
    labeled.write_text("x1,x2,y\n" + "\n".join(
        f"{a:.12g},{b:.12g},{c}" for (a, b), c in zip(Z, y)) + "\n")

    mismatches = []

    def rerun(tag, argv, files):
        dirs = [tmp_path / f"{tag}{j}" for j in (1, 2)]
        for d in dirs:
            _run_cli(argv + ["--output-dir", str(d)])
        if _clean_report(dirs[0]) != _clean_report(dirs[1]):
            mismatches.append(f"{tag}: report")
        for name in files:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatches.append(f"{tag}: {name}")
        return dirs[0]

    first = rerun("select", ["select", "--input", str(pool), "--n", "20",
                             "--p", "0", "--seed", "11"], ["weights.csv"])
    report = _clean_report(first)
    assert len(report["results"]["selected_indices"]) == 20

    rerun("cross", ["cross-criteria", "--N", "200", "--k", "4",
                    "--ns", "20,40", "--seed", "3", "--v", "1e-6"], ["table.csv"])

    rerun("boot", ["bootstrap-eval", "--input", str(labeled), "--response", "y",
                   "--add-intercept", "--model", "logistic", "--n", "30",
                   "--r", "0.5", "--B", "6", "--p", "1", "--seed", "7",
                   "--v", "1e-4", "--v0", "1e-2"], ["table.csv", "components.csv"])

    _verdict(9, "seeded reruns reproduce outputs", not mismatches,
             "select/cross-criteria/bootstrap-eval byte-stable"
             if not mismatches else "; ".join(mismatches))
