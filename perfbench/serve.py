"""Start ``python -m repro serve`` with the benchmark's span wrappers.

Usage: ``serve.py <spans path|-> <repro serve arguments...>``.  With a spans
path, every layer entry point is wrapped before the daemon starts, and the
recorded spans are written there once the daemon has shut down.  Spans are
keyed by the program's own trace id, which the load generator propagates
per request.
"""

from __future__ import annotations

import sys

import layers
from repro.api.cli import main as repro_main
from repro.obs import trace as obs_trace


def main(argv: list) -> int:
    spans_path, serve_arguments = argv[0], argv[1:]
    recorder = None
    if spans_path != "-":
        recorder = layers.Recorder(
            request_id=lambda: obs_trace.current_ids()[0])
        layers.install(recorder)
    code = repro_main(["serve", *serve_arguments])
    if recorder is not None:
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
