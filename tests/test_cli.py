import csv
import dataclasses
import json
import re

import numpy as np
import pytest

import batchdesign.bench as bench_mod
import batchdesign.cli as cli_mod
import batchdesign.pipeline as pipeline_mod
import batchdesign.solvers as solvers_mod
from batchdesign.cli import main
from batchdesign.reports import strip_volatile, validate_report

from helpers import sigmoid


@pytest.fixture
def pool_csv(tmp_path):
    rng = np.random.default_rng(11)
    Z = rng.standard_normal((40, 2))
    path = tmp_path / "pool.csv"
    lines = ["x1,x2"] + [f"{a:.12g},{b:.12g}" for a, b in Z]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def labeled_csv(tmp_path):
    rng = np.random.default_rng(12)
    Z = rng.standard_normal((150, 2))
    p = sigmoid(0.3 + 1.1 * Z[:, 0] - 0.8 * Z[:, 1])
    y = (rng.random(150) < p).astype(int)
    path = tmp_path / "labeled.csv"
    lines = ["x1,x2,y"] + [f"{a:.12g},{b:.12g},{c}" for (a, b), c in zip(Z, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


def _report(outdir):
    with open(outdir / "report.json") as fh:
        rep = json.load(fh)
    validate_report(rep)
    return rep


def test_select_writes_artifacts(pool_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["select", "--input", str(pool_csv), "--add-intercept", "--n", "8",
                 "--p", "1", "--output-dir", str(out), "--seed", "3"])
    assert code == 0
    rep = _report(out)
    assert rep["command"] == "select"
    assert rep["converged"] is True
    res = rep["results"]
    assert res["n"] == 8 and res["N"] == 40 and res["k"] == 3
    assert len(res["selected_indices"]) == 8
    assert res["gap_ratio"] <= 1e-6
    assert res["certified_lower_bound"] <= res["efficiency_ratio"]
    with open(out / "weights.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert sum(int(r["selected"]) for r in rows) == 8
    w = np.array([float(r["weight"]) for r in rows])
    assert abs(w.sum() - 1.0) < 1e-9
    assert w.max() <= 1.0 / 8 + 1e-12
    assert "certified efficiency" in capsys.readouterr().out


def test_select_same_seed_is_identical(pool_csv, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["select", "--input", str(pool_csv), "--n", "10", "--seed", "42"]
    assert main(argv + ["--output-dir", str(out1)]) == 0
    assert main(argv + ["--output-dir", str(out2)]) == 0
    rep1, rep2 = strip_volatile(_report(out1)), strip_volatile(_report(out2))
    # artifact values are paths under each run's own output directory
    rep1.pop("artifacts"), rep2.pop("artifacts")
    assert rep1 == rep2
    assert (out1 / "weights.csv").read_bytes() == (out2 / "weights.csv").read_bytes()


def test_select_nonconvergence_exit_code(pool_csv, tmp_path):
    out = tmp_path / "out"
    # at n=8 the boost phase stalls around gap 1e-6, far above this target;
    # --v equal to --v0 is a boost-only solve
    code = main(["select", "--input", str(pool_csv), "--n", "8", "--v0", "1e-12",
                 "--v", "1e-12", "--output-dir", str(out)])
    assert code == 4
    rep = _report(out)
    assert rep["converged"] is False


@pytest.mark.parametrize("command", ["select", "efficiency", "two-stage"])
def test_nonconvergence_warns_with_its_cause(command, labeled_csv, tmp_path, capsys):
    # a target below the roundoff of the gap: the refine rounds run out
    pool = tmp_path / "pool.csv"
    np.savetxt(pool, np.random.default_rng(0).standard_normal((300, 3)), delimiter=",",
               header="a,b,c", comments="")
    cand = tmp_path / "cand.txt"
    cand.write_text("\n".join(str(i) for i in range(0, 300, 10)) + "\n")
    argv = {"select": ["--input", str(pool), "--n", "30"],
            "efficiency": ["--input", str(pool), "--candidate", str(cand)],
            "two-stage": ["--input", str(labeled_csv), "--response", "y", "--add-intercept",
                          "--model", "logistic", "--n", "30"]}[command]
    out = tmp_path / "out"
    assert main([command, *argv, "--v", "1e-14", "--output-dir", str(out)]) == 4
    res = _report(out)["results"]
    gap = res["solved_gap_ratio" if command == "efficiency" else "gap_ratio"]
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
    assert warnings == [f"warning: the solve stopped at gap_ratio {gap:.3e} above the target "
                        f"1.000e-14 after {res['iterations']['refine']} refine rounds, with "
                        f"{res['inner_cap_hits']} inner cap hits"]
    assert res["iterations"]["refine"] > 0


def test_efficiency_certifies_candidate(pool_csv, tmp_path):
    out = tmp_path / "out"
    cand = tmp_path / "cand.txt"
    cand.write_text("index\n0\n3\n5\n7\n11\n13\n17\n19\n")
    code = main(["efficiency", "--input", str(pool_csv), "--candidate", str(cand),
                 "--p", "0", "--output-dir", str(out)])
    assert code == 0
    res = _report(out)["results"]
    assert res["candidate_indices"] == [0, 3, 5, 7, 11, 13, 17, 19]
    assert res["certified_lower_bound"] <= res["efficiency_ratio"] <= 1.0 + 1e-9
    assert res["certified_lower_bound"] > 0.0


def test_efficiency_takes_no_budget_flag(pool_csv, tmp_path, capsys):
    # the budget is the candidate file's length, so --n would be ignored
    cand = tmp_path / "cand.txt"
    cand.write_text("0\n3\n5\n7\n11\n13\n17\n19\n")
    with pytest.raises(SystemExit) as exc:
        main(["efficiency", "--input", str(pool_csv), "--candidate", str(cand), "--n", "5",
              "--output-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_efficiency_candidate_errors(pool_csv, tmp_path):
    bad = tmp_path / "cand.txt"
    bad.write_text("0\n0\n1\n")
    assert main(["efficiency", "--input", str(pool_csv), "--candidate", str(bad)]) == 2
    bad.write_text("0\n99\n")
    assert main(["efficiency", "--input", str(pool_csv), "--candidate", str(bad)]) == 2
    bad.write_text("zero\n")
    assert main(["efficiency", "--input", str(pool_csv), "--candidate", str(bad)]) == 2


def test_candidate_file_with_byte_order_mark(pool_csv, tmp_path):
    # Windows editors save UTF-8 text with a byte-order mark before "index"
    cand = tmp_path / "cand.txt"
    cand.write_bytes(b"\xef\xbb\xbfindex\r\n0\r\n3\r\n5\r\n7\r\n")
    out = tmp_path / "out"
    assert main(["efficiency", "--input", str(pool_csv), "--candidate", str(cand),
                 "--output-dir", str(out)]) == 0
    assert _report(out)["results"]["candidate_indices"] == [0, 3, 5, 7]


def test_epsilon_below_one_over_n_exits_2_before_solving(tmp_path, monkeypatch, capsys):
    # a size-4 sample weighs 1/4 per point, which a relaxation capped at 0.1
    # does not contain, so that relaxation cannot certify it
    rng = np.random.default_rng(5)
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("x\n" + "".join(f"{v:.12g}\n" for v in rng.standard_normal(12)))
    cand = tmp_path / "cand.txt"
    cand.write_text("0\n3\n5\n7\n")
    out = ["--input", str(tiny), "--add-intercept", "--epsilon", "0.1",
           "--output-dir", str(tmp_path / "out")]

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before rejecting --epsilon")

    with monkeypatch.context() as m:
        m.setattr(cli_mod, "solve_hybrid", no_solve)
        for argv in (["select", "--n", "4"], ["efficiency", "--candidate", str(cand)]):
            assert main(argv + out) == 2
            err = capsys.readouterr().err
            assert "--epsilon 0.1" in err and "1/n = 0.25" in err
    assert main(["select", "--n", "10"] + out) == 0


def test_epsilon_of_one_or_more_solves_the_uncapped_problem(tmp_path, capsys):
    # the weights sum to one, so every cap >= 1 is the uncapped problem; 1e308
    # overflowed the capped-simplex projection and stopped short of the gap
    rng = np.random.default_rng(13)
    pool = tmp_path / "pool.csv"
    pool.write_text("x1,x2\n" + "".join(f"{a:.12g},{b:.12g}\n"
                                        for a, b in rng.standard_normal((300, 2))))
    picks = {}
    for eps in ("1", "1e308"):
        out = tmp_path / f"out{eps}"
        assert main(["select", "--input", str(pool), "--add-intercept", "--n", "40",
                     "--epsilon", eps, "--output-dir", str(out)]) == 0
        picks[eps] = _report(out)["results"]["selected_indices"]
    assert picks["1e308"] == picks["1"]
    for eps in ("inf", "nan"):
        assert main(["select", "--input", str(pool), "--add-intercept", "--n", "40",
                     "--epsilon", eps, "--output-dir", str(tmp_path / "bad")]) == 2
        assert f"epsilon must be positive and finite, got {eps}" in capsys.readouterr().err


def test_input_errors_exit_2(pool_csv, tmp_path):
    assert main(["select", "--input", str(tmp_path / "missing.csv"), "--n", "5"]) == 2
    assert main(["select", "--input", str(pool_csv)]) == 2  # no --n
    assert main(["select", "--input", str(pool_csv), "--n", "40"]) == 2  # n = N
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,x\n")
    assert main(["select", "--input", str(bad), "--n", "1"]) == 2


def test_non_finite_model_parameters_exit_2(pool_csv, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"beta": [float("nan"), 0.5]}))
    assert main(["select", "--input", str(pool_csv), "--n", "5", "--model", "logistic",
                 "--params", str(params), "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "beta has a non-finite entry" in err


def test_cumlink_with_intercept_exits_2(tmp_path, capsys):
    # the proportional-odds cutpoints absorb an intercept column, so the
    # pair is an input error on every subcommand that takes both flags
    rng = np.random.default_rng(13)
    Z = rng.standard_normal((120, 2))
    y = np.digitize(Z @ np.array([1.0, -0.5]) + rng.logistic(size=120), [-0.8, 0.8])
    data = tmp_path / "graded.csv"
    data.write_text("x1,x2,y\n" + "\n".join(f"{a:.12g},{b:.12g},{c}" for (a, b), c in zip(Z, y)) + "\n")
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"beta": [0.0, 1.0, -0.5], "theta_cuts": [-0.8, 0.8]}))
    candidate = tmp_path / "cand.txt"
    candidate.write_text("\n".join(str(i) for i in range(20)) + "\n")
    common = ["--input", str(data), "--response", "y", "--model", "cumlink",
              "--output-dir", str(tmp_path / "out")]
    runs = {"select": ["--n", "20", "--params", str(params)],
            "efficiency": ["--params", str(params), "--candidate", str(candidate)],
            "two-stage": ["--n", "20", "--r", "0.5"],
            "bootstrap-eval": ["--n", "20", "--r", "0.5", "--B", "2"]}
    for command, extra in runs.items():
        assert main([command, *common, *extra, "--add-intercept"]) == 2, command
        err = capsys.readouterr().err
        assert "--add-intercept" in err and "cutpoints" in err, command
    # without the intercept the same graded pool fits and solves
    assert main(["two-stage", *common, "--n", "20", "--r", "0.5"]) == 0


def test_degenerate_pool_exits_3(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text("a,b\n" + "\n".join(f"{v},{2 * v}" for v in range(1, 13)) + "\n")
    assert main(["select", "--input", str(path), "--n", "4",
                 "--output-dir", str(tmp_path / "out")]) == 3


def test_config_file_fills_missing_flags(pool_csv, tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 5, "p": 1.0, "output-dir": str(out)}))
    code = main(["select", "--input", str(pool_csv), "--config", str(cfg), "--n", "6"])
    assert code == 0
    rep = _report(out)
    # explicit flags win over the config file
    assert rep["params"]["n"] == 6
    assert rep["params"]["p"] == 1.0
    unknown = tmp_path / "unk.json"
    unknown.write_text(json.dumps({"frobnicate": 1}))
    assert main(["select", "--input", str(pool_csv), "--config", str(unknown), "--n", "5"]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["select", "--input", str(pool_csv), "--config", str(garbled), "--n", "5"]) == 2


def test_bench_runs_all_methods(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["bench", "--N", "120", "--k", "3", "--n", "20", "--seed", "1",
                 "--methods", "hybrid,exchange,backward", "--output-dir", str(out)])
    assert code == 0
    rep = _report(out)
    rows = {r["method"]: r for r in rep["results"]["rows"]}
    assert set(rows) == {"hybrid", "exchange", "backward"}
    for r in rows.values():
        assert r["efficiency"] is None or 0.0 < r["efficiency"] <= 1.0 + 1e-7
    with open(out / "table.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [t["method"] for t in table] == ["hybrid", "exchange", "backward"]
    assert "hybrid" in capsys.readouterr().out


def test_bench_solver_config_follows_flags(tmp_path, monkeypatch):
    seen = {}

    def fake_run_bench(atoms, n, p=0.0, solver_cfg=None, **kwargs):
        seen["cfg"] = solver_cfg
        return bench_mod.BenchResult(N=len(atoms), k=atoms.k, n=n, p=p)

    monkeypatch.setattr(cli_mod, "run_bench", fake_run_bench)
    assert main(["bench", "--N", "60", "--k", "3", "--n", "10", "--v", "1e-2",
                 "--v0", "1e-2", "--output-dir", str(tmp_path / "out")]) == 0
    cfg = seen["cfg"]
    assert cfg.refine_enabled is False
    assert (cfg.epsilon, cfg.v0, cfg.v) == (0.1, 1e-2, 1e-2)


def test_select_threads_exits_2(pool_csv, tmp_path, capsys):
    # --threads is read by bootstrap-eval only, and boost-only is --v equal to --v0
    argvs = [[command, "--threads", "2"] for command in sorted(cli_mod._HANDLERS)
             if command != "bootstrap-eval"]
    argvs += [[command, "--skip-refine"] for command in sorted(cli_mod._HANDLERS)]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "unrecognized arguments" in capsys.readouterr().err
    for key in ("threads", "skip_refine"):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({key: 1}))
        assert main(["select", "--input", str(pool_csv), "--config", str(cfg), "--n", "5",
                     "--output-dir", str(tmp_path / "out")]) == 2
        assert "unknown option" in capsys.readouterr().err


def test_bench_exit_code_reports_failed_and_nonconverged_methods(tmp_path, monkeypatch, capsys):
    def broken_exchange(*args, **kwargs):
        raise np.linalg.LinAlgError("exchange blew up")

    argv = ["bench", "--N", "60", "--k", "3", "--n", "10", "--seed", "1",
            "--methods", "hybrid,exchange"]
    monkeypatch.setattr(bench_mod, "exchange_select", broken_exchange)
    out = tmp_path / "failed"
    assert main(argv + ["--output-dir", str(out)]) == 3
    rows = {r["method"]: r for r in _report(out)["results"]["rows"]}
    assert rows["exchange"]["note"] == "failed: LinAlgError"
    assert rows["hybrid"]["note"] == ""
    assert "exchange" in capsys.readouterr().err

    monkeypatch.undo()
    real_solve = bench_mod.solve_hybrid
    monkeypatch.setattr(bench_mod, "solve_hybrid",
                        lambda *a, **kw: dataclasses.replace(real_solve(*a, **kw), converged=False))
    out = tmp_path / "nonconverged"
    assert main(argv + ["--output-dir", str(out)]) == 4
    rep = _report(out)
    assert rep["converged"] is False
    rows = {r["method"]: r for r in rep["results"]["rows"]}
    assert rows["hybrid"]["note"].startswith("not converged")
    assert rows["exchange"]["note"] == ""


def test_bench_failed_certification_keeps_the_run_going(tmp_path, capsys):
    # 20 distinct rows, each 20 times: top-n rounding takes copies of too few
    # distinct rows, so certifying the hybrid sample raises; exchange, listed
    # after it, still runs and certifies
    rng = np.random.default_rng(0)
    Z = np.repeat(rng.standard_normal((20, 6)), 20, axis=0)
    pool = tmp_path / "dup.csv"
    pool.write_text("\n".join([",".join(f"x{j}" for j in range(6))]
                              + [",".join(f"{v:.12g}" for v in row) for row in Z]) + "\n")
    out = tmp_path / "out"
    assert main(["bench", "--input", str(pool), "--n", "60", "--methods", "hybrid,exchange",
                 "--output-dir", str(out)]) == 3
    rows = {r["method"]: r["note"] for r in _report(out)["results"]["rows"]}
    assert rows == {"hybrid": "failed: SingularInformation", "exchange": ""}
    with open(out / "table.csv", newline="") as fh:
        assert [t["method"] for t in csv.DictReader(fh)] == ["hybrid", "exchange"]
    assert "hybrid" in capsys.readouterr().err


def test_bench_time_budget_decides_backward(tmp_path):
    argv = ["bench", "--N", "120", "--k", "3", "--n", "20", "--methods", "backward"]
    notes = {}
    for budget in ("1e-9", "1e9"):
        out = tmp_path / budget
        assert main(argv + ["--time-budget", budget, "--output-dir", str(out)]) == 0
        notes[budget] = _report(out)["results"]["rows"][0]
    assert notes["1e-9"]["note"].startswith("skipped") and notes["1e-9"]["efficiency"] is None
    assert notes["1e9"]["note"] == "" and 0.0 < notes["1e9"]["efficiency"] <= 1.0 + 1e-7


def test_bench_time_budget_must_be_finite_and_nonnegative(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the reference solve ran before the budget was checked")

    monkeypatch.setattr(bench_mod, "_solve_reference", never)
    argv = ["bench", "--N", "120", "--k", "3", "--n", "20", "--methods", "backward",
            "--output-dir", str(tmp_path / "out")]
    for budget in ("-1", "nan", "inf"):
        assert main(argv + ["--time-budget", budget]) == 2, budget
        assert "time budget must be finite and >= 0" in capsys.readouterr().err


def test_bad_synthetic_pool_exits_2(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a solve ran on a bad synthetic pool")

    for name in ("run_bench", "run_cross_criteria"):
        monkeypatch.setattr(cli_mod, name, never)
    commands = {"bench": ["--n", "10"], "cross-criteria": ["--ns", "20"]}
    for command, budget in commands.items():
        for flag, value in (("--k", "0"), ("--k", "-1"), ("--N", "0"), ("--N", "-5")):
            sizes = {"--N": "60", "--k": "3", flag: value}
            argv = [command, *budget, "--output-dir", str(tmp_path / "out")]
            argv += [tok for item in sizes.items() for tok in item]
            assert main(argv) == 2, argv
            assert f"{flag} {value} must be >= 1" in capsys.readouterr().err, argv


def test_cross_criteria_table(tmp_path):
    out = tmp_path / "out"
    code = main(["cross-criteria", "--N", "60", "--k", "3", "--ns", "20,30",
                 "--seed", "2", "--output-dir", str(out)])
    assert code == 0
    rows = _report(out)["results"]["rows"]
    assert [r["n"] for r in rows] == [20, 30]
    for r in rows:
        assert 0.0 < r["a_eff_of_d"] <= 1.0 + 1e-6
        assert 0.0 < r["d_eff_of_a"] <= 1.0 + 1e-6
    assert main(["cross-criteria", "--N", "60", "--k", "3", "--ns", "20,999"]) == 2


def test_cross_criteria_exits_4_when_a_solve_misses_its_target(tmp_path, monkeypatch, capsys):
    # one boost and one refine round cannot reach 1e-10 at n = 100; at n = N
    # every weight sits at the cap, so both solves there converge at once
    monkeypatch.setattr(solvers_mod, "MAX_BOOST_ITERS", 1)
    monkeypatch.setattr(solvers_mod, "MAX_OUTER_ITERS", 1)
    out = tmp_path / "out"
    code = main(["cross-criteria", "--N", "600", "--k", "5", "--ns", "100,600", "--v", "1e-10",
                 "--output-dir", str(out)])
    assert code == 4
    rep = _report(out)
    assert rep["converged"] is False
    assert [r["n"] for r in rep["results"]["rows"]] == [100, 600]
    assert sorted(rep["results"]["rows"][0]) == ["a_eff_of_d", "d_eff_of_a", "n"]
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert len(warnings) == 1 and "n = 100" in warnings[0]


def test_standardize_matches_a_hand_standardized_csv(tmp_path):
    rng = np.random.default_rng(13)
    Z = rng.standard_normal((60, 2)) * [3.0, 0.5] + [10.0, -2.0]
    by_hand = (Z - Z.mean(axis=0)) / Z.std(axis=0)

    def select(name, data, *flags):
        path, out = tmp_path / f"{name}.csv", tmp_path / name
        path.write_text("x1,x2\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in data))
        assert main(["select", "--input", str(path), "--add-intercept", "--n", "10", "--p", "1",
                     *flags, "--output-dir", str(out)]) == 0
        return _report(out)["results"]

    # p = 1 is not invariant under rescaled columns, so skipping the flag shows
    flagged, manual = select("raw", Z, "--standardize"), select("hand", by_hand)
    assert flagged["selected_indices"] == manual["selected_indices"]
    assert flagged["phi_relaxed"] == pytest.approx(manual["phi_relaxed"], rel=1e-9)
    assert flagged["phi_sample"] == pytest.approx(manual["phi_sample"], rel=1e-9)


def test_two_stage_command(labeled_csv, tmp_path):
    out = tmp_path / "out"
    code = main(["two-stage", "--input", str(labeled_csv), "--response", "y",
                 "--add-intercept", "--model", "logistic", "--n", "30", "--r", "0.4",
                 "--p", "1", "--seed", "9", "--output-dir", str(out)])
    assert code == 0
    res = _report(out)["results"]
    assert res["n_stage1"] == 12
    assert len(res["combined_indices"]) == 30
    assert set(res["stage1_indices"]) <= set(res["combined_indices"])
    assert len(res["beta_hat"]) == 3
    assert (out / "weights.csv").exists()
    # missing --model or --response is an input error
    assert main(["two-stage", "--input", str(labeled_csv), "--response", "y",
                 "--n", "30"]) == 2
    assert main(["two-stage", "--input", str(labeled_csv), "--model", "logistic",
                 "--n", "30"]) == 2


def test_two_stage_fit_failure_exits_5(tmp_path):
    # a perfectly separated response cannot be fitted at any pilot size
    path = tmp_path / "sep.csv"
    rows = [f"{v:.6f},{int(v > 0)}" for v in np.linspace(-2, 2, 60)]
    path.write_text("x,y\n" + "\n".join(rows) + "\n")
    code = main(["two-stage", "--input", str(path), "--response", "y",
                 "--add-intercept", "--model", "logistic", "--n", "20", "--r", "0.5",
                 "--seed", "4", "--output-dir", str(tmp_path / "out")])
    assert code == 5


def test_bootstrap_eval_command(labeled_csv, tmp_path):
    out = tmp_path / "out"
    code = main(["bootstrap-eval", "--input", str(labeled_csv), "--response", "y",
                 "--add-intercept", "--model", "logistic", "--n", "30", "--r", "0.5",
                 "--B", "4", "--p", "1", "--seed", "7", "--v", "1e-4", "--v0", "1e-2",
                 "--output-dir", str(out)])
    assert code == 0
    rep = _report(out)
    res = rep["results"]
    assert res["B"] == 4
    names = [m["name"] for m in res["methods"]]
    assert names == ["two-stage", "random"]
    for m in res["methods"]:
        assert m["total_mse"] > 0.0
    with open(out / "table.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [t["method"] for t in table] == ["two-stage", "random"]
    assert (out / "components.csv").exists()


def test_bootstrap_eval_exits_4_when_a_replicate_solve_misses_its_target(
        labeled_csv, tmp_path, monkeypatch, capsys):
    # one boost and one refine round cannot reach 1e-10
    monkeypatch.setattr(solvers_mod, "MAX_BOOST_ITERS", 1)
    monkeypatch.setattr(solvers_mod, "MAX_OUTER_ITERS", 1)
    out = tmp_path / "out"
    code = main(["bootstrap-eval", "--input", str(labeled_csv), "--response", "y",
                 "--add-intercept", "--model", "logistic", "--n", "30", "--r", "0.5",
                 "--B", "2", "--p", "1", "--seed", "7", "--v", "1e-10",
                 "--output-dir", str(out)])
    assert code == 4
    rep = _report(out)
    assert rep["converged"] is False and rep["results"]["used_replicates"] == 2
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning:")]
    assert warnings == ["warning: in 2 of 2 replicates the two-stage solve stopped above the "
                        "target gap 1.000e-10"]


def test_pipeline_rules_checked_before_any_fit(labeled_csv, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a model was fitted before the arguments were checked")

    monkeypatch.setattr(pipeline_mod, "_fit_model", never)
    base = ["--input", str(labeled_csv), "--response", "y", "--model", "logistic", "--n", "30",
            "--output-dir", str(tmp_path / "out")]
    for command, flag, value, message in (
            ("bootstrap-eval", "--threads", "0", "threads must be >= 1, got 0"),
            ("bootstrap-eval", "--threads", "-2", "threads must be >= 1, got -2"),
            ("bootstrap-eval", "--B", "0", "B = 0 must be >= 1"),
            ("bootstrap-eval", "--r", "0", "stage-one fraction r = 0.0 must lie in (0, 1]"),
            ("two-stage", "--r", "1.5", "stage-one fraction r = 1.5 must lie in (0, 1]")):
        assert main([command, *base, flag, value]) == 2
        assert message in capsys.readouterr().err


def test_bootstrap_eval_names_distinct_records_below_budget(labeled_csv, tmp_path, capsys):
    # a resample of 150 records holds about 95 distinct ones, too few for n = 120
    assert main(["bootstrap-eval", "--input", str(labeled_csv), "--response", "y",
                 "--model", "logistic", "--n", "120", "--B", "1",
                 "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "distinct records, fewer than the budget n = 120" in err
    assert "outside (0," not in err


def test_bench_and_cross_criteria_accept_input(pool_csv, tmp_path):
    # these commands take --input but none of the feature-transform flags
    assert main(["bench", "--input", str(pool_csv), "--n", "10", "--methods", "hybrid,exchange",
                 "--output-dir", str(tmp_path / "bench")]) == 0
    assert _report(tmp_path / "bench")["results"]["k"] == 2
    assert main(["cross-criteria", "--input", str(pool_csv), "--ns", "10,20",
                 "--output-dir", str(tmp_path / "cross")]) == 0
    assert [r["n"] for r in _report(tmp_path / "cross")["results"]["rows"]] == [10, 20]


_KEY_SET_RUNS = {
    "select": (["select", "--input", "{pool}", "--add-intercept", "--n", "8", "--seed", "3"], {
        "params": ["epsilon", "feature_names", "input", "model", "n", "p", "v", "v0"],
        "results": ["N", "certified_lower_bound", "efficiency_ratio", "epsilon", "gap_ratio",
                    "inner_cap_hits", "inner_iterations", "iterations", "k", "n", "p",
                    "phi_relaxed", "phi_sample", "selected_indices", "target_gap", "working_set"],
        "timings": ["boost_seconds", "refine_seconds", "solve_seconds", "total_seconds"],
        "artifacts": ["weights"]}),
    "efficiency": (["efficiency", "--input", "{pool}", "--candidate", "{cand}"], {
        "params": ["candidate", "epsilon", "input", "model", "n", "p", "v"],
        "results": ["N", "candidate_indices", "certified_lower_bound", "efficiency_ratio",
                    "epsilon", "inner_cap_hits", "inner_iterations", "iterations", "k", "n", "p",
                    "phi_candidate", "phi_relaxed", "solved_gap_ratio", "working_set"],
        "timings": ["solve_seconds", "total_seconds"],
        "artifacts": []}),
    "bench": (["bench", "--N", "60", "--k", "3", "--n", "10", "--seed", "1",
               "--methods", "hybrid,exchange"], {
        "params": ["N", "epsilon", "k", "methods", "n", "p", "synthetic", "v"],
        "results": ["N", "k", "n", "p", "rows"],
        "timings": ["exchange_seconds", "hybrid_seconds", "total_seconds"],
        "artifacts": ["table"]}),
    "cross-criteria": (["cross-criteria", "--N", "60", "--k", "3", "--ns", "20"], {
        "params": ["N", "k", "ns", "synthetic"],
        "results": ["rows"],
        "timings": ["total_seconds"],
        "artifacts": ["table"]}),
    "two-stage": (["two-stage", "--input", "{labeled}", "--response", "y", "--add-intercept",
                   "--model", "logistic", "--n", "30", "--seed", "9"], {
        "params": ["epsilon", "input", "model", "n", "p", "r", "response", "v"],
        "results": ["N", "beta_hat", "combined_indices", "fit_iterations", "gap_ratio",
                    "inner_cap_hits", "inner_iterations", "iterations", "model", "n", "n_stage1",
                    "p", "phi_relaxed", "r", "stage1_indices", "working_set"],
        "timings": ["solve_seconds", "total_seconds"],
        "artifacts": ["weights"]}),
    "bootstrap-eval": (["bootstrap-eval", "--input", "{labeled}", "--response", "y",
                        "--add-intercept", "--model", "logistic", "--n", "30", "--r", "0.5",
                        "--B", "2", "--seed", "7", "--v", "1e-4", "--v0", "1e-2"], {
        "params": ["B", "epsilon", "input", "methods", "model", "n", "p", "r", "response",
                   "threads"],
        "results": ["B", "N", "failed_replicates", "methods", "model", "n", "p", "r",
                    "reference_beta", "used_replicates"],
        "timings": ["total_seconds"],
        "artifacts": ["components", "table"]}),
}


@pytest.mark.parametrize("command", sorted(_KEY_SET_RUNS))
def test_report_key_sets(command, pool_csv, labeled_csv, tmp_path):
    argv, expected = _KEY_SET_RUNS[command]
    cand = tmp_path / "cand.txt"
    cand.write_text("0\n3\n5\n7\n11\n")
    paths = {"{pool}": str(pool_csv), "{labeled}": str(labeled_csv), "{cand}": str(cand)}
    out = tmp_path / "out"
    assert main([paths.get(a, a) for a in argv] + ["--output-dir", str(out)]) == 0
    rep = _report(out)
    assert rep["command"] == command
    assert {key: sorted(rep[key]) for key in expected} == expected
    assert sorted(rep["artifacts"]) == sorted(p.name.split(".")[0] for p in out.glob("*.csv"))


@pytest.mark.parametrize("command, v", [("select", 1e-6), ("efficiency", 1e-8),
                                        ("bench", 1e-3), ("cross-criteria", 1e-8)])
def test_help_shows_the_v_default_in_use(command, v, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    shown = re.search(r"--v V [^(]*\(default:? ([^)]+)\)", text)
    assert shown is not None and float(shown.group(1)) == v


def test_bad_list_flags_exit_2_up_front(labeled_csv, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a solve ran before the flags were checked")

    for name in ("run_bench", "run_cross_criteria", "bootstrap_evaluate"):
        monkeypatch.setattr(cli_mod, name, never)
    out = ["--output-dir", str(tmp_path / "out")]
    assert main(["bench", "--N", "60", "--k", "3", "--n", "10",
                 "--methods", "hybrid,foo"] + out) == 2
    err = capsys.readouterr().err
    assert "--methods" in err and "foo" in err and "hybrid,exchange,backward" in err
    assert main(["bootstrap-eval", "--input", str(labeled_csv), "--response", "y",
                 "--model", "logistic", "--n", "30", "--B", "2", "--methods", "foo"] + out) == 2
    err = capsys.readouterr().err
    assert "--methods" in err and "two-stage,random" in err
    assert main(["cross-criteria", "--N", "60", "--k", "3", "--ns", "20,abc"] + out) == 2
    assert "--ns" in capsys.readouterr().err
    for methods in (",", "hybrid,hybrid"):
        assert main(["bench", "--N", "60", "--k", "3", "--n", "10", "--methods", methods] + out) == 2


def test_budget_below_parameter_count_exit_2(pool_csv, tmp_path, capsys):
    out = ["--output-dir", str(tmp_path / "out")]
    assert main(["select", "--input", str(pool_csv), "--add-intercept", "--n", "2"] + out) == 2
    assert "n = 2" in capsys.readouterr().err
    params = tmp_path / "logit.json"
    params.write_text(json.dumps({"beta": [0.1, 0.5, -0.5]}))
    assert main(["select", "--input", str(pool_csv), "--add-intercept", "--n", "2",
                 "--model", "logistic", "--params", str(params)] + out) == 2
    assert "k = 3" in capsys.readouterr().err
    cand = tmp_path / "cand.txt"
    cand.write_text("0\n5\n")
    assert main(["efficiency", "--input", str(pool_csv), "--add-intercept",
                 "--candidate", str(cand)] + out) == 2
    err = capsys.readouterr().err
    assert "n = 2" in err and "k = 3" in err
    assert main(["bench", "--N", "60", "--k", "5", "--n", "4"] + out) == 2
    err = capsys.readouterr().err
    assert "n = 4" in err and "k = 5" in err
    # matrix atoms can carry rank > 1 each, so a short budget is not rejected up front
    cum = tmp_path / "cum.json"
    cum.write_text(json.dumps({"beta": [0.5, -0.3], "theta_cuts": [-1.0, 0.0, 1.0]}))
    assert main(["select", "--input", str(pool_csv), "--n", "3", "--model", "cumlink",
                 "--params", str(cum)] + out) == 0


def test_config_nulls_keep_declared_defaults(pool_csv, tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": None, "p": None, "v": None, "output-dir": str(out)}))
    cand = tmp_path / "cand.txt"
    cand.write_text("0\n3\n5\n7\n")
    assert main(["efficiency", "--input", str(pool_csv), "--config", str(cfg),
                 "--candidate", str(cand)]) == 0
    rep = _report(out)
    assert (rep["seed"], rep["params"]["p"], rep["params"]["v"]) == (0, 0.0, 1e-8)
