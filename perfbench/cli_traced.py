"""Run the batchdesign CLI under the tracer and write its spans.

Usage: python3 perfbench/cli_traced.py SPANS_FILE <batchdesign arguments...>

The import of ``batchdesign.cli`` is recorded as a span called
``cli.import``; the exit code is the CLI's own.
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer("cli-select")
    cli = tracer.call("cli.import", importlib.import_module, ("batchdesign.cli",))
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
