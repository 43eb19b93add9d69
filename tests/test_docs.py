import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
