"""Launcher for the traced server of the ``service_zipf`` workload.

    python traced_server.py SPANS_OUT <repro CLI arguments...>

Installs the span wrappers (``perf_spans.TARGETS``), then runs the public
CLI in this process — same topology as the untraced run, which starts
``python -m repro serve`` directly.  The CLI drains and returns on
SIGTERM; the spans are written on the way out, whatever the way out is.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import perf_spans  # noqa: E402


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder = perf_spans.SpanRecorder()
    recorder.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
