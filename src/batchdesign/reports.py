"""Machine-readable run reports.

Every CLI command writes a ``report.json`` validated against REPORT_SCHEMA.
Wall-clock data lives only under ``timings`` and ``timestamp`` so two runs
with the same seed can be compared byte for byte after dropping those keys.

Reports are checked by a small interpreter of the keywords REPORT_SCHEMA
uses, with jsonschema's Draft 2020-12 semantics. jsonschema itself is
imported only to word the error for a rejected report.
"""

from __future__ import annotations

import json
import numbers
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


# Draft 2020-12 types: bool is neither integer nor number, an integral float
# is an integer, and numpy's integers are numbers but not integers
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "null": lambda x: x is None,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}
_KEYWORDS = {"$schema", "type", "const", "required", "properties", "additionalProperties"}


def _conforms(instance, schema) -> bool:
    """Whether jsonschema's Draft 2020-12 validator would accept ``instance``.

    Only the keywords in _KEYWORDS are understood (``$schema`` is ignored),
    and ``const`` only with a string; any other schema raises
    NotImplementedError.
    """
    if isinstance(schema, bool):
        return schema
    unknown = schema.keys() - _KEYWORDS
    if unknown:
        raise NotImplementedError(f"report schema keywords {sorted(unknown)} are not supported")
    if "type" in schema:
        names = schema["type"]
        if not any(_TYPES[name](instance) for name in ([names] if isinstance(names, str) else names)):
            return False
    if "const" in schema:
        # jsonschema compares with a string const by ==, so neither True nor 1 equals "1"
        if not isinstance(schema["const"], str):
            raise NotImplementedError("only string consts are supported in the report schema")
        if instance != schema["const"]:
            return False
    if not isinstance(instance, dict):
        return True
    properties = schema.get("properties", {})
    extra = schema.get("additionalProperties", True)
    return (all(key in instance for key in schema.get("required", ()))
            and all(_conforms(value, properties[key] if key in properties else extra)
                    for key, value in instance.items()))


def validate_report(report: dict) -> None:
    """Raise ``jsonschema.ValidationError`` unless the report conforms to REPORT_SCHEMA."""
    if _conforms(report, REPORT_SCHEMA):
        return
    # imported only here: jsonschema takes longer to import than this package
    import jsonschema

    jsonschema.validate(report, REPORT_SCHEMA)
    raise RuntimeError("report schema check disagrees with jsonschema: "
                       "the report was rejected here but jsonschema accepts it")


def write_report(path, report: dict) -> None:
    """Validate the report against REPORT_SCHEMA, then write it as sorted JSON."""
    validate_report(report)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def strip_volatile(report: dict) -> dict:
    """Drop wall-clock keys; what remains must be seed-deterministic."""
    return {k: v for k, v in report.items() if k not in ("timings", "timestamp")}
