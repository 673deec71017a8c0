"""Traced stand-in for ``python -m hopfgalois``.

Usage: python3 cli_child.py SPANS.json CLI-ARGS...

Times ``import hopfgalois.cli``, installs the tracer, runs the CLI's
``main`` with the given arguments, writes the spans and counters to
SPANS.json and exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import hopfgalois.cli as cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        Path(spans_path).write_text(json.dumps({"trace": tracer.export(), "import_s": import_s}))
    return code


if __name__ == "__main__":
    sys.exit(main())
