import dataclasses
import importlib
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _layout_rows():
    text = README.read_text()
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`batchdesign."):
            yield cells[0].strip("`"), re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", cells[1])


def test_readme_library_layout_names_exist():
    rows = list(_layout_rows())
    assert len(rows) >= 10
    missing = [f"{module}.{name}" for module, names in rows
               for name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_readme_v_defaults_match_parser():
    from batchdesign.cli import build_parser

    text = README.read_text()
    section = text.split("### Common flags", 1)[1].split("\n### ", 1)[0]
    documented = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`[0-9.e-]+`", cells[1]):
            for command in re.findall(r"`([a-z-]+)`", cells[0]):
                documented[command] = float(cells[1].strip("`"))
    parser = build_parser()
    actual = {command: parser.parse_args([command]).v
              for command in ("select", "efficiency", "bench", "cross-criteria", "two-stage",
                              "bootstrap-eval")}
    assert documented == actual


def test_readme_solver_config_and_constants_match_the_code():
    from batchdesign import fitting, solvers

    text = " ".join(README.read_text().split())
    sentence = text.split("`SolverConfig` holds what a caller chooses:", 1)[1].split(".", 1)[0]
    documented = re.findall(r"`([a-z_0-9]+)`", sentence)
    assert documented == [f.name for f in dataclasses.fields(solvers.SolverConfig)]
    constants = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", text))
    assert {"SCREEN_FACTOR", "SCREEN_MISS", "PILOT_SAMPLE_STRIDE", "INNER_TOL", "INNER_FORCING",
            "FIT_TOL", "FIT_MAX_ITER"} <= constants
    assert sorted(name for name in constants
                  if not hasattr(solvers, name) and not hasattr(fitting, name)) == []


def test_ci_workflow_runs_the_tier1_command():
    import yaml

    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    job = workflow["jobs"]["tier1"]
    assert job["timeout-minutes"] == 20
    assert workflow["concurrency"]["cancel-in-progress"] is True
    assert "github.ref" in workflow["concurrency"]["group"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    assert job["env"]["OPENBLAS_NUM_THREADS"] == "1"
    runs = [step["run"] for step in job["steps"] if "run" in step]
    # the installed console script and the demo are run once, since the
    # tests import from src/ and never start either
    entry = "batchdesign --help\npython scripts/two_stage_demo.py --help\n"
    assert runs == ['pip install -e ".[test]"', entry, tier1.group(1)]


def _paired_runs(node):
    """Every run record in a BENCH_*.json: an object with "parent" and "change" sides."""
    if isinstance(node, dict):
        if "parent" in node and "change" in node:
            yield node
        else:
            for value in node.values():
                yield from _paired_runs(value)
    elif isinstance(node, list):
        for value in node:
            yield from _paired_runs(value)


# metrics of which a higher value is better; every other one is better lower
_HIGHER_BETTER = {"certified_lb.min", "efficiency.min"}


def _recomputed_summary(runs, metric):
    """A summary entry for one metric, recomputed from a workload's paired runs."""
    values = {side: [run[side]["metrics"][metric]["value"] for run in runs]
              for side in ("parent", "change")}
    out = {}
    for side, vals in values.items():
        q25, _, q75 = statistics.quantiles(vals, n=4, method="inclusive")
        out[f"{side}_q25_med_q75"] = [round(q, 6) for q in (q25, statistics.median(vals), q75)]
    pairs = list(zip(values["parent"], values["change"]))
    higher = metric in _HIGHER_BETTER
    out["change_better_pairs"] = sum((c > p) if higher else (c < p) for p, c in pairs)
    out["ties"] = sum(c == p for p, c in pairs)
    out["median_rel"] = round(statistics.median(values["change"])
                              / statistics.median(values["parent"]) - 1.0, 4)
    return out


def test_bench_records_are_well_formed():
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    unsummarized = []
    for path in records:
        record = json.loads(path.read_text())
        for key in ("change", "parent_commit", "command", "env"):
            assert record.get(key), f"{path.name}: no {key}"
        assert record["env"]["OPENBLAS_NUM_THREADS"] == "1", path.name
        runs = list(_paired_runs({k: v for k, v in record.items() if k != "env"}))
        assert runs, f"{path.name}: no paired runs"
        for run in runs:
            assert run["first"] in ("parent", "change"), path.name
            sides = [run["parent"], run["change"]]
            for side in sides:
                assert side["correct"] is True and side["failed"] == 0, path.name
            assert sides[0]["metrics"].keys() == sides[1]["metrics"].keys(), path.name
        # a summary must follow from the paired-run lists of its workload: a
        # top-level list named after it, or entries of another list that name it
        by_workload = {}
        for key, value in record.items():
            if isinstance(value, list):
                for run in value:
                    by_workload.setdefault(run.get("workload", key), []).append(run)
        if "summary" not in record:
            unsummarized.append(path.name)
        for workload, summary in record.get("summary", {}).items():
            runs = by_workload.get(workload)
            if runs is None:
                continue
            assert summary["pairs"] == len(runs), (path.name, workload)
            for metric, entry in summary.items():
                if isinstance(entry, dict):
                    expected = _recomputed_summary(runs, metric)
                    assert entry == expected, (path.name, workload, metric)
    # only the records written before summaries were kept go without one
    assert unsummarized == ["BENCH_csv_parse.json", "BENCH_row_tiles.json",
                            "BENCH_working_set.json"]
