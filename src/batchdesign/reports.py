"""Machine-readable run reports.

Every CLI command writes a ``report.json`` validated against REPORT_SCHEMA.
Wall-clock data lives only under ``timings`` and ``timestamp`` so two runs
with the same seed can be compared byte for byte after dropping those keys.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone

SCHEMA_VERSION = "1"

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema_version", "command", "params", "results", "timings", "timestamp"],
    "additionalProperties": False,
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "command": {"type": "string"},
        "seed": {"type": ["integer", "null"]},
        "converged": {"type": ["boolean", "null"]},
        "params": {"type": "object"},
        "results": {"type": "object"},
        "artifacts": {
            "type": "object",
            "additionalProperties": {"type": "string"},
        },
        "timings": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
        "timestamp": {"type": "string"},
    },
}


def make_report(command: str, params: dict, results: dict, timings: dict,
                seed: int | None = None, converged: bool | None = None,
                artifacts: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "converged": converged,
        "params": params,
        "results": results,
        "artifacts": artifacts or {},
        "timings": timings,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def validate_report(report: dict) -> None:
    # imported here: jsonschema is a third of the CLI's import time
    import jsonschema

    jsonschema.validate(report, REPORT_SCHEMA)


def write_report(path, report: dict) -> None:
    """Validate the report against REPORT_SCHEMA, then write it as sorted JSON."""
    validate_report(report)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def strip_volatile(report: dict) -> dict:
    """Drop wall-clock keys; what remains must be seed-deterministic."""
    return {k: v for k, v in report.items() if k not in ("timings", "timestamp")}
