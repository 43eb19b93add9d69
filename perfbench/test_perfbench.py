"""Tests of the benchmark itself, at toy sizes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return sorted(m["name"] for m in DECLARED[kind])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_declared_metrics_and_passes_checks(workload):
    for seed in (1, 2):
        res = workloads.run(workload, seed, 0, trace=False, sizes=workloads.TOY)
        assert [o.failures for o in res.outcomes if o.failures] == []
        values = workloads.end_to_end(workload, res)
        assert sorted(values) == _names("end_to_end")
        assert all(v is not None and v > 0 for v in values.values())
    res = workloads.run(workload, 1, 0, trace=True, sizes=workloads.TOY)
    assert [o.failures for o in res.outcomes if o.failures] == []
    assert sorted(workloads.per_layer(res)) == _names("per_layer")


def test_solver_counts_repeat_between_traced_runs():
    def counts():
        res = workloads.run("linear-wide", 3, 0, trace=True, sizes=workloads.TOY)
        m = workloads.per_layer(res)
        return {k: v for k, v in m.items() if k.endswith((".calls", "_iters"))}

    first = counts()
    assert first["solvers.inner_iters"] > 0
    assert counts() == first


def test_a_wrong_reference_value_fails_the_job():
    res = workloads.run("linear-wide", 1, 0, trace=False, sizes=workloads.TOY,
                        reference={"i0.p0": 1.0})
    failed = {o.job for o in res.outcomes if o.failures}
    assert failed == {"i0.p0"}


def test_output_checks_reject_bad_results():
    assert workloads._check_sample([0, 1, 2], 10, 3) == []
    assert workloads._check_sample([0, 1, 1], 10, 3)
    assert workloads._check_sample([0, 1, 10], 10, 3)
    assert workloads._check_sample([0, 1], 10, 3)
    assert workloads._check_certificate(0.98, 0.99, 1e-6) == []
    assert workloads._check_certificate(0.995, 0.99, 1e-6)
    assert workloads._check_certificate(0.98, 1.01, 1e-6)


def _bindings():
    import batchdesign.cli  # noqa: F401  every traced module loaded

    mods = {n: m for n, m in sys.modules.items() if n.startswith("batchdesign")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items() if callable(v)}
    snap.update({("AtomSet", k): v for k, v in vars(workloads.AtomSet).items()})
    return snap


def test_tracer_patches_every_binding_and_restores_them():
    import batchdesign.measures as measures
    import batchdesign.solvers as solvers

    before = _bindings()
    original = measures.project_capped_simplex
    tracer = tracing.Tracer("test")
    tracer.install()
    try:
        # solvers imported the projection by name; both bindings are traced
        assert solvers.project_capped_simplex is not original
        assert measures.project_capped_simplex is not original
        assert solvers._greedy_linear_max is not before[("batchdesign.measures", "_greedy_linear_max")]
        assert workloads.AtomSet.weighted_sum is not before[("AtomSet", "weighted_sum")]
        measures.project_capped_simplex([0.2, 0.5, 0.3], 0.5, 1.0)
    finally:
        tracer.restore()
    assert [s.name for s in tracer.spans] == ["measures.project_capped_simplex"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _span(sid, start, end, parent=None, name="x"):
    return tracing.Span(sid, name, start, end, parent, "w", "j")


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span(1, 0.0, 10.0, name="root"),
        _span(2, 1.0, 4.0, 1, name="a"),
        _span(3, 2.0, 6.0, 1, name="b"),  # overlaps a, as a worker thread's span does
        _span(4, 8.0, 9.0, 1, name="c"),
        _span(5, 9.5, 11.0, 1, name="c"),  # only 9.5..10 lies inside the parent
        _span(6, 2.0, 3.0, 2, name="leaf"),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 10.0 - 5.0 - 1.0 - 0.5, 2: 2.0, 3: 4.0, 4: 1.0, 5: 1.5,
                                   6: 1.0})
    agg = tracing.summarize(spans)
    assert agg["c"]["calls"] == 2
    assert agg["c"]["self_s"] == pytest.approx(2.5)
    assert tracing.count_under(spans, "leaf", "root") == 1
    assert tracing.count_under(spans, "a", "leaf") == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "linear-wide",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
