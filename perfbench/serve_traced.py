"""``repro serve`` with the tracer on and the benchmark's probes installed.

Usage (from the checkout root, ``PYTHONPATH=src``)::

    python3 perfbench/serve_traced.py DUMP_DIR -- <repro serve arguments>

Runs the ordinary ``repro serve`` entry point in this process, so the
process layout is the untraced one: one process, or a fleet front end
whose workers are forked from it and inherit the probes.  Every process
writes its spans and metrics into ``DUMP_DIR`` when it shuts down
(SIGTERM drains as usual).
"""

from __future__ import annotations

import functools
import os
import sys

import probes


def main(argv) -> int:
    dump_dir, sep, *serve_argv = argv
    if sep != "--":
        raise SystemExit("usage: serve_traced.py DUMP_DIR -- <serve args>")
    probes.install()

    from repro.serve import app, fleet

    worker_main = fleet._worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(name, config, warm_model, conn):
        probes.reset()  # drop the spans forked from the front end
        try:
            worker_main(name, config, warm_model, conn)
        finally:
            probes.dump(
                os.path.join(dump_dir, f"worker-{name}-{os.getpid()}.json"),
                role="worker",
            )

    fleet._worker_main = traced_worker_main
    try:
        return app.main_serve(serve_argv)
    finally:
        probes.dump(os.path.join(dump_dir, f"server-{os.getpid()}.json"),
                    role="fleet" if "--workers" in serve_argv else "server")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
