"""Launch ``repro.server`` for the rw-wire workload.

    python3 sqlbench/serve.py [--trace-file FILE] <maybms-server arguments>

With ``--trace-file`` the benchmark's span wrappers are installed in this
process before ``repro.server.__main__.main`` runs, and ``SIGUSR1``
writes the spans recorded so far to FILE (written to a temporary name,
then renamed, so the reader never sees half a file).
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    trace_file = None
    if argv[:1] == ["--trace-file"]:
        trace_file, argv = argv[1], argv[2:]
    from repro.server.__main__ import main as serve

    if trace_file is not None:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(tracing.ENGINE_POINTS + tracing.SERVER_POINTS)

        def dump(signum, frame) -> None:
            tracer.write(trace_file + ".tmp")
            os.replace(trace_file + ".tmp", trace_file)

        signal.signal(signal.SIGUSR1, dump)
    return serve(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
