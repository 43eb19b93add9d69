import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import batchdesign

from batchdesign import reports
from batchdesign.reports import (
    REPORT_SCHEMA,
    SCHEMA_VERSION,
    make_report,
    strip_volatile,
    validate_report,
    write_report,
)


def test_make_report_is_valid_and_stamped():
    rep = make_report("select", params={"n": 5}, results={"ok": True},
                      timings={"total_seconds": 0.1}, seed=7, converged=True,
                      artifacts={"weights": "weights.csv"})
    assert rep["schema_version"] == SCHEMA_VERSION
    assert rep["seed"] == 7
    assert "timestamp" in rep
    validate_report(rep)


def test_schema_rejects_bad_reports():
    rep = make_report("select", {}, {}, {})
    bad = dict(rep)
    bad.pop("command")
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)
    bad = dict(rep, extra_key=1)
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)
    bad = dict(rep, timings={"total": "fast"})
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)
    bad = dict(rep, seed="seven")
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)
    bad = dict(rep, schema_version="999")
    with pytest.raises(jsonschema.ValidationError):
        validate_report(bad)


# the values each type rule and the const tell apart
_ODD_VALUES = [None, True, False, 0, 1, -2, 1.0, -0.0, 2.5, float("nan"), float("inf"), "", "x",
               SCHEMA_VERSION, [], [1], {}, {"a": 1}, np.float64(2.0), np.float64(2.5),
               np.float64("nan"), np.int64(3), np.bool_(True), np.str_(SCHEMA_VERSION)]
_TOP_KEYS = sorted(REPORT_SCHEMA["properties"])
_INNER_KEYS = ["artifacts", "params", "results", "timings"]


def _sample_report():
    return make_report("select", {"n": 5}, {"ok": True}, {"total_seconds": 0.1}, seed=7,
                       converged=True, artifacts={"weights": "weights.csv"})


def _assert_checks_agree(rep):
    validator = jsonschema.Draft202012Validator(REPORT_SCHEMA)
    accepted = validator.is_valid(rep)
    assert reports._conforms(rep, REPORT_SCHEMA) == accepted
    if accepted:
        validate_report(rep)
    else:
        with pytest.raises(jsonschema.ValidationError) as err:
            validate_report(rep)
        assert err.value.message == jsonschema.exceptions.best_match(validator.iter_errors(rep)).message


@pytest.mark.parametrize("key", [*_TOP_KEYS, "extra", *(f"{k}.x" for k in _INNER_KEYS)])
def test_report_check_agrees_with_jsonschema_on_each_value(key):
    outer, _, inner = key.partition(".")
    for value in _ODD_VALUES:
        rep = _sample_report()
        if inner:
            rep[outer][inner] = value
        else:
            rep[outer] = value
        _assert_checks_agree(rep)


_VALUES = st.recursive(
    # copied, so that filling a dict drawn from _ODD_VALUES leaves the list as it is
    st.one_of(st.sampled_from(_ODD_VALUES).map(copy.deepcopy), st.floats(), st.integers(),
              st.text(max_size=2)),
    lambda inner: st.dictionaries(st.text(max_size=2), inner, max_size=3), max_leaves=6)
_MUTATIONS = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(_TOP_KEYS)),
    st.tuples(st.just("set"), st.sampled_from([*_TOP_KEYS, "extra"]), _VALUES),
    st.tuples(st.just("set_in"), st.sampled_from(_INNER_KEYS), st.text(max_size=2), _VALUES),
)


@settings(max_examples=300)
@given(st.lists(_MUTATIONS, max_size=3))
def test_report_check_agrees_with_jsonschema(mutations):
    rep = _sample_report()
    for op, key, *rest in mutations:
        if op == "drop":
            rep.pop(key, None)
        elif op == "set":
            rep[key] = rest[0]
        elif isinstance(rep.get(key), dict):
            rep[key][rest[0]] = rest[1]
    _assert_checks_agree(rep)


def test_report_check_raises_on_unknown_schema_keywords():
    with pytest.raises(NotImplementedError, match="minimum"):
        reports._conforms(3, {"type": "integer", "minimum": 0})
    with pytest.raises(NotImplementedError, match="items"):
        reports._conforms({"a": [1]}, {"properties": {"a": {"items": {"type": "string"}}}})
    with pytest.raises(NotImplementedError, match="const"):
        reports._conforms(True, {"const": 1})


def test_report_check_disagreeing_with_jsonschema_raises(monkeypatch):
    monkeypatch.setattr(reports, "_conforms", lambda instance, schema: False)
    with pytest.raises(RuntimeError, match="jsonschema accepts"):
        validate_report(make_report("select", {}, {}, {}))


def test_write_report_sorted_roundtrip(tmp_path):
    rep = make_report("bench", params={"b": 2, "a": 1}, results={}, timings={})
    path = tmp_path / "report.json"
    write_report(path, rep)
    text = path.read_text()
    assert text.endswith("\n")
    loaded = json.loads(text)
    assert loaded == rep
    # keys are serialized sorted for stable diffs
    assert text.index('"command"') < text.index('"params"') < text.index('"results"')


def test_strip_volatile_keeps_deterministic_keys():
    rep = make_report("select", {"n": 1}, {"v": 2.0}, {"total_seconds": 3.0}, seed=1)
    core = strip_volatile(rep)
    assert "timings" not in core and "timestamp" not in core
    assert core["params"] == {"n": 1} and core["results"] == {"v": 2.0}
    rep2 = make_report("select", {"n": 1}, {"v": 2.0}, {"total_seconds": 99.0}, seed=1)
    assert strip_volatile(rep2) == core


def test_cli_import_leaves_jsonschema_unloaded(tmp_path):
    # jsonschema words a rejected report and numpy.ma comes with np.unique:
    # neither is imported by the CLI or by a select or two-stage run, with a
    # logistic or a cumulative-link model
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((400, 2))
    y = (rng.random(400) < 1.0 / (1.0 + np.exp(-Z[:, 0]))).astype(int)
    np.savetxt(tmp_path / "pool.csv", Z, delimiter=",", header="x1,x2", comments="")
    np.savetxt(tmp_path / "labeled.csv", np.column_stack([Z, y]), delimiter=",",
               header="x1,x2,y", comments="", fmt=["%.17g", "%.17g", "%d"])
    grade = np.digitize(Z[:, 0] + rng.logistic(size=400), [-0.5, 0.5])
    np.savetxt(tmp_path / "graded.csv", np.column_stack([Z, grade]), delimiter=",",
               header="x1,x2,y", comments="", fmt=["%.17g", "%.17g", "%d"])
    src = str(Path(batchdesign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # both pools hold more than 5n points, so both solves are screened
    code = f"""
import sys
import batchdesign.cli as cli
lazy = ("jsonschema", "numpy.ma")
print([m for m in lazy if m in sys.modules])
assert cli.main(["select", "--input", "pool.csv", "--add-intercept", "--n", "20",
                 "--output-dir", "select"]) == 0
assert cli.main(["two-stage", "--input", "labeled.csv", "--response", "y", "--add-intercept",
                 "--model", "logistic", "--n", "30", "--output-dir", "two-stage"]) == 0
assert cli.main(["two-stage", "--input", "graded.csv", "--response", "y", "--model", "cumlink",
                 "--n", "60", "--output-dir", "cumlink"]) == 0
print([m for m in lazy if m in sys.modules])
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[0] == "[]"
    assert out.stdout.splitlines()[-1] == "[]"
    two = json.loads((tmp_path / "two-stage" / "report.json").read_text())
    assert two["results"]["working_set"] < 400
