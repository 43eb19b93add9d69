import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from batchdesign import SolverConfig, bootstrap_evaluate, two_stage_select
from batchdesign import pipeline, solvers
from batchdesign.errors import FitDiverged

from helpers import sample_cumlink, sigmoid


def _logistic_data(rng, N=250, k=3, beta=None):
    Z = np.column_stack([np.ones(N), rng.standard_normal((N, k - 1))])
    beta = np.array([0.3, 0.9, -0.7])[:k] if beta is None else beta
    y = (rng.random(N) < sigmoid(Z @ beta)).astype(float)
    return Z, y


def _fast_cfg():
    return SolverConfig(v0=1e-2, v=1e-5)


def test_stage_one_fraction_one_is_pure_random(rng):
    Z, y = _logistic_data(rng)
    res = two_stage_select(Z, y, "logistic", 20, 1.0, 1.0, _fast_cfg(), rng)
    assert res.combined == res.stage1
    assert len(res.combined) == 20
    assert res.fit is None and res.solve is None


def test_two_stage_keeps_pilot_and_fills_budget(rng):
    # pilot of 20: large enough that this draw is not linearly separable
    Z, y = _logistic_data(rng)
    res = two_stage_select(Z, y, "logistic", 40, 0.5, 1.0, _fast_cfg(), rng)
    assert len(res.stage1) == 20
    assert len(res.combined) == 40
    assert set(res.stage1.indices) <= set(res.combined.indices)
    assert res.solve.converged
    # the pilot stays purchased: its weights sit at the cap
    pinned = np.array(res.stage1.indices)
    assert np.allclose(res.solve.w.weights[pinned], 1.0 / 40, atol=1e-9)
    assert res.fit.beta.shape == (3,)


def test_two_stage_cumlink(rng):
    N = 400
    Z = rng.standard_normal((N, 2))
    y = sample_cumlink(rng, Z, np.array([0.8, -0.5]), np.array([-0.6, 0.7]))
    res = two_stage_select(Z, y, "cumlink", 40, 0.5, 0.0, _fast_cfg(), rng)
    assert len(res.combined) == 40
    assert res.fit.theta_cuts.shape == (2,)
    assert res.solve.converged


def test_two_stage_validation(rng, monkeypatch):
    Z, y = _logistic_data(rng, N=50)
    with pytest.raises(ValueError):
        two_stage_select(Z, y, "logistic", 0, 0.5, 1.0, _fast_cfg(), rng)
    with pytest.raises(ValueError):
        two_stage_select(Z, y, "logistic", 51, 0.5, 1.0, _fast_cfg(), rng)
    with pytest.raises(ValueError):
        two_stage_select(Z, y, "logistic", 10, 0.0, 1.0, _fast_cfg(), rng)
    with pytest.raises(ValueError):
        two_stage_select(Z, y, "probit", 10, 0.5, 1.0, _fast_cfg(), rng)
    # bootstrap_evaluate checks the same budget before its reference fit,
    # which here would call None
    monkeypatch.setattr(pipeline, "_fit_model", None)
    with pytest.raises(ValueError, match=r"budget n = 51 outside \(0, 50\]"):
        bootstrap_evaluate(Z, y, "logistic", ["random"], 51, 0.5, 1.0, B=2, cfg=_fast_cfg(),
                           seed=0)


def test_bootstrap_deterministic_and_shaped(rng):
    Z, y = _logistic_data(rng, N=300)
    kw = dict(model="logistic", methods=["two-stage", "random"], n=40, r_frac=0.5,
              p=1.0, B=6, cfg=_fast_cfg(), seed=99)
    a = bootstrap_evaluate(Z, y, **kw)
    b = bootstrap_evaluate(Z, y, **kw)
    assert a.replicates == 6
    assert a.used_replicates == 6 - a.failed_replicates
    names = [m.name for m in a.methods]
    assert names == ["two-stage", "random"]
    for m_a, m_b in zip(a.methods, b.methods):
        assert m_a.total_mse == m_b.total_mse
        assert np.array_equal(m_a.component_mse, m_b.component_mse)
        assert m_a.component_mse.shape == (3,)
        assert m_a.total_mse == pytest.approx(m_a.component_mse.sum())
    assert a.ratio_to_random("two-stage") == pytest.approx(
        a.methods[0].total_mse / a.methods[1].total_mse)
    assert np.array_equal(a.reference_beta, b.reference_beta)


def test_bootstrap_threads_match_serial(monkeypatch):
    # solves long enough to refine, with the interpreter switching threads as
    # often as it can and each evaluation first yielding to the other thread,
    # so that solver state shared between replicates, such as a factorization
    # handed from a move to its evaluation outside the call chain, would leak
    # into another replicate's solve and change its MSEs
    evaluate = solvers._evaluate

    def yielding(*args, **kwargs):
        time.sleep(0)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(solvers, "_evaluate", yielding)
    interval = sys.getswitchinterval()
    for seed in range(3):
        Z, y = _logistic_data(np.random.default_rng(seed), N=1000)
        kw = dict(model="logistic", methods=["random", "two-stage"], n=200, r_frac=0.5,
                  p=1.0, B=8, cfg=SolverConfig(), seed=seed)
        serial = bootstrap_evaluate(Z, y, threads=1, **kw)
        sys.setswitchinterval(1e-6)
        try:
            threaded = bootstrap_evaluate(Z, y, threads=2, **kw)
        finally:
            sys.setswitchinterval(interval)
        for m_s, m_t in zip(serial.methods, threaded.methods):
            assert np.array_equal(m_s.component_mse, m_t.component_mse), seed


def test_bootstrap_aborts_on_many_failures(rng, monkeypatch):
    Z, y = _logistic_data(rng, N=120)
    real = pipeline._fit_model

    def flaky(model, Zs, ys):
        if Zs.shape[0] < Z.shape[0]:
            raise FitDiverged("forced failure")
        return real(model, Zs, ys)

    monkeypatch.setattr(pipeline, "_fit_model", flaky)
    with pytest.raises(FitDiverged, match="replicates failed"):
        bootstrap_evaluate(Z, y, "logistic", ["random"], 20, 0.5, 1.0,
                           B=4, cfg=_fast_cfg(), seed=5)


def test_ratio_requires_random_baseline():
    from batchdesign.pipeline import BootstrapResult, MethodStats

    res = BootstrapResult(
        reference_beta=np.zeros(2),
        methods=[MethodStats("two-stage", 1.0, np.ones(2), 0)],
        replicates=3, used_replicates=3, failed_replicates=0)
    with pytest.raises(ValueError):
        res.ratio_to_random("two-stage")


def _load_demo():
    path = Path(__file__).resolve().parents[1] / "scripts" / "two_stage_demo.py"
    spec = importlib.util.spec_from_file_location("two_stage_demo", path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def test_two_stage_demo_script_runs(capsys):
    # the demo calls bootstrap_evaluate and SolverConfig directly, so a
    # signature change there breaks it; run its main at toy size
    assert _load_demo().main(["--N", "300", "--k", "3", "--n", "60", "--B", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("N=300 k=3 n=60 r=0.4 B=2")
    assert [line.split()[0] for line in lines[2:]] == ["two-stage", "random"]


def test_two_stage_demo_failure_exits_with_the_cli_code(capsys):
    # at the default k = 9 every replicate of this toy size fails to fit
    assert _load_demo().main(["--N", "300", "--n", "60", "--B", "2"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: model fit failed")
    assert "Traceback" not in err