import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import batchdesign

from batchdesign.reports import (
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


def test_cli_import_leaves_jsonschema_unloaded():
    # jsonschema is imported when a report is validated, not with the CLI
    src = str(Path(batchdesign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, batchdesign.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
