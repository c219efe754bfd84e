"""Start the job service with the benchmark's span recorder installed.

``python bench/serve.py SPANS.json serve [repro serve options]`` wraps the
program's layer entry points and the service's per-job entry points, then
runs ``repro.cli.main`` with the remaining arguments.  When the server stops
(SIGINT), the wrappers are removed and the spans are written to
``SPANS.json`` together with whether every original was restored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from tracing import Tracer

    from repro.cli import main as cli_main

    spans_path, cli_argv = Path(argv[0]), argv[1:]
    tracer = Tracer().install("server")
    try:
        code = cli_main(cli_argv)
    finally:
        restored = tracer.uninstall()
        spans_path.write_text(json.dumps({"spans": tracer.export(), "restored": restored}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
