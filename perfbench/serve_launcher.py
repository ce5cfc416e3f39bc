"""Start the study server as ``python -m repro.serve`` would.

Usage::

    python3 perfbench/serve_launcher.py [--trace-dir DIR] SERVE_ARGS...

With ``--trace-dir`` the benchmark's span wrappers are installed before
the server starts, and its spans are written to ``DIR`` when it exits
(on SIGINT, after the server drains).
"""

from __future__ import annotations

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> int:
    from repro.serve.__main__ import main as serve_main

    if argv[:1] != ["--trace-dir"]:
        return serve_main(argv)
    import tracer as tracing

    recorder = tracing.Tracer(flush_dir=argv[1])
    tracing.install(recorder)
    try:
        return serve_main(argv[2:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
