"""``repro serve`` with span wrappers installed: the traced pass's server.

Usage (the benchmark spawns it; arguments are ``repro`` CLI arguments)::

    PYTHONPATH=src PERFBENCH_SPANS=spans.json \\
        python3 perfbench/traced_server.py serve --http 127.0.0.1:0

SIGUSR1 turns recording on and SIGUSR2 turns it off (it starts on), so
one server can serve an untraced and a traced phase.  The spans are
written to ``$PERFBENCH_SPANS`` when the server exits.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracer import Tracer, install  # noqa: E402


def main() -> int:
    tracer = Tracer(enabled=True)
    install(tracer)
    signal.signal(signal.SIGUSR1, lambda *_: setattr(tracer, "enabled", True))
    signal.signal(signal.SIGUSR2, lambda *_: setattr(tracer, "enabled", False))
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[1:])
    finally:
        tracer.dump(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    raise SystemExit(main())
