"""Record the relaxed Phi_p of finished runs as reference values.

    python3 perfbench/record.py

Every run of run.py writes the relaxed Phi_p of each job of its first pass to
.perfbench_work/phi-<workload>-s<seed>.json.  This script adds those values
to perfbench/reference.json, which later runs with the same seed check
against.  Values already recorded are kept: they are the baseline.
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORK = HERE.parent / ".perfbench_work"
REFERENCE = HERE / "reference.json"


def main() -> int:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    added = 0
    for path in sorted(WORK.glob("phi-*-s*.json")):
        match = re.fullmatch(r"phi-(.+)-s(\d+)\.json", path.name)
        if match is None:
            continue
        workload, seed = match.groups()
        known = reference.setdefault(workload, {}).setdefault(seed, {})
        for job, phi in json.loads(path.read_text()).items():
            if job not in known:
                known[job] = phi
                added += 1
    for workload in reference:
        reference[workload] = dict(sorted(reference[workload].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=False) + "\n")
    print(f"added {added} reference values to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
