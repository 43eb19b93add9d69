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
