"""Command-line entry point: regenerate paper tables and figures.

Examples::

    python -m repro --list
    python -m repro table1
    python -m repro fig6 --iterations 100
    python -m repro run fig4 fig9               # several artifacts at once
    python -m repro suite --jobs 8              # everything (alias: all)
    python -m repro all --iterations 30 --no-cache
    python -m repro run fig9 --trace t.json     # + Perfetto trace of the run
    python -m repro trace t.json                # summarize a trace file
    python -m repro serve --port 8080           # query service (docs/SERVING.md)
    python -m repro lint                        # static analysis (docs/LINTING.md)
    python -m repro machines list               # hardware catalog (docs/MACHINES.md)
    python -m repro store list                  # artifact store (docs/STORE.md)
    python -m repro version                     # or --version

Experiments execute on the :mod:`repro.runtime` engine: ``--jobs N``
fans them out across worker processes, results are served from a
content-addressed cache on repeat invocations (``--no-cache`` /
``--refresh`` to opt out), and a crashed or timed-out experiment is
retried then reported FAILED without aborting the rest of the run.
``--jobs`` does not change any result: every experiment seeds its own
RNG, so the parallel run is byte-identical to the serial one.

``--trace PATH`` records the run through :mod:`repro.obs` and writes a
Chrome trace-event / Perfetto JSON file; ``repro trace PATH`` prints a
span/metrics summary of such a file (``--format text`` converts it to a
chronological timeline instead).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

from repro._version import __version__
from repro.errors import ReproError
from repro.fields import flag
from repro.experiments import all_ids, get

#: Subcommands with their own flag namespace, dispatched before the main
#: parser sees the argv (``--port`` etc. would be unknown flags to it).
_SUBCOMMANDS = ("serve", "lint", "machines", "store")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-knl",
        description=(
            "Reproduce the tables and figures of 'Capability Models for "
            "Manycore Memory Systems: A Case-Study with Xeon Phi KNL' "
            "(Ramos & Hoefler, IPDPS 2017) on a simulated KNL."
        ),
    )
    p.add_argument(
        "experiment",
        nargs="?",
        help="experiment id (see --list), 'all'/'suite' (everything), "
             "'run <ids...>' (several), 'report' (render archived "
             "--save-dir results as markdown), 'trace <file>' "
             "(summarize a --trace output), 'serve' (the query "
             "service), 'lint' (static analysis), 'machines' "
             "(the hardware catalog), 'store' (the versioned artifact "
             "store) — each with its own --help — or 'version'",
    )
    p.add_argument(
        "--version", action="version", version=f"repro-knl {__version__}"
    )
    p.add_argument(
        "targets",
        nargs="*",
        help="experiment ids after 'run', or the trace file after 'trace'",
    )
    p.add_argument("--list", action="store_true", help="list experiment ids")
    p.add_argument(
        "--iterations", type=int, default=None,
        help="samples per benchmark point (default: per-experiment)",
    )
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.add_argument(
        "--json", action="store_true", help="emit JSON instead of tables"
    )
    p.add_argument(
        "--out", type=str, default=None,
        help="also write the output to this file",
    )
    p.add_argument(
        "--chart", action="store_true",
        help="render an ASCII chart for figure experiments",
    )
    p.add_argument(
        "--save-dir", type=str, default=None,
        help="archive each result as JSON in this directory "
             "(plus a manifest.json run summary)",
    )
    runtime = p.add_argument_group("execution engine")
    runtime.add_argument(
        "--jobs", type=flag(int, lambda n: n >= 1, "an integer >= 1"),
        default=1, metavar="N",
        help="worker processes (default 1 = serial; results are "
             "byte-identical either way)",
    )
    runtime.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result/characterization caches",
    )
    runtime.add_argument(
        "--refresh", action="store_true",
        help="recompute even on a cache hit (and overwrite the entry)",
    )
    runtime.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="cache root (default: $REPRO_CACHE_DIR or ~/.cache/repro-knl)",
    )
    runtime.add_argument(
        "--timeout",
        type=flag(float, lambda t: math.isfinite(t) and t > 0,
                   "a finite number > 0"),
        default=None, metavar="SECONDS",
        help="wall-clock budget per experiment attempt",
    )
    runtime.add_argument(
        "--retries", type=flag(int, lambda n: n >= 0, "an integer >= 0"),
        default=1, metavar="N",
        help="retries per failed experiment (default 1)",
    )
    runtime.add_argument(
        "--quiet", action="store_true",
        help="suppress per-task progress lines on stderr",
    )
    obs = p.add_argument_group("observability")
    obs.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="record the run and write a Chrome trace-event / Perfetto "
             "JSON file (open at ui.perfetto.dev)",
    )
    obs.add_argument(
        "--format", choices=("summary", "text", "json"), default="summary",
        help="output of the 'trace' subcommand: span/metrics summary "
             "(default), chronological timeline, or JSON",
    )
    return p


def _trace_command(args, parser) -> int:
    """``repro trace FILE`` — summarize or convert an exported trace."""
    if not args.targets:
        parser.error("trace requires the path of a --trace output file")
    if len(args.targets) > 1:
        parser.error("trace takes exactly one file")
    import json as _json

    from repro.obs import (
        load_trace_file,
        summarize,
        summary_to_text,
        timeline_to_text,
    )

    doc = load_trace_file(args.targets[0])
    if args.format == "text":
        text = timeline_to_text(doc)
    elif args.format == "json" or args.json:
        text = _json.dumps(summarize(doc), indent=2)
    else:
        text = summary_to_text(summarize(doc))
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    from repro.obs import reset_metrics

    # Each CLI invocation is its own run: two in-process invocations
    # (as the tests do) must not leak counters into each other's
    # snapshots/manifests.
    reset_metrics()

    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        # Each owns its flag namespace; hand the rest over before the
        # experiment parser rejects --port & friends.
        if argv[0] == "serve":
            from repro.serve.app import main_serve

            return main_serve(argv[1:])
        if argv[0] == "lint":
            from repro.analyze.cli import main_lint

            return main_lint(argv[1:])
        if argv[0] == "machines":
            from repro.machines.cli import main_machines

            return main_machines(argv[1:])
        from repro.store.cli import main_store

        return main_store(argv[1:])
    if argv and argv[0] == "version":
        print(f"repro-knl {__version__}")
        return 0

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list or not args.experiment:
        print("available experiments:")
        for eid in all_ids():
            print(f"  {eid}")
        return 0
    if args.experiment == "trace":
        return _trace_command(args, parser)
    if args.experiment == "report":
        if not args.save_dir:
            parser.error("report requires --save-dir pointing at archived "
                         "results")
        from repro.experiments.report import render_report
        from repro.experiments.store import ResultStore

        text = render_report(ResultStore(args.save_dir))
        print(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        return 0

    if args.experiment in ("all", "suite"):
        ids = all_ids()
    elif args.experiment == "run":
        if not args.targets:
            parser.error("run requires at least one experiment id")
        ids = list(args.targets)
    else:
        # `repro fig4` (and `repro fig4 fig9` as a courtesy).
        ids = [args.experiment, *args.targets]
    # Resolve runners up front: unknown ids fail before any work is done.
    for eid in ids:
        try:
            get(eid)
        except ReproError as e:
            parser.error(str(e))

    if args.trace:
        from repro.obs import enable_tracing

        enable_tracing()
    kw = {}
    if args.iterations is not None:
        kw["iterations"] = args.iterations
    if args.seed is not None:
        kw["seed"] = args.seed

    from repro.runtime import execute, plan_run

    plan = plan_run(
        ids,
        kwargs=kw,
        jobs=args.jobs,
        no_cache=args.no_cache,
        cache_dir=args.cache_dir,
        refresh=args.refresh,
        timeout=args.timeout,
        retries=args.retries,
        progress=not args.quiet,
    )
    report = execute(plan)

    store = None
    if args.save_dir:
        from repro.experiments.store import ResultStore

        store = ResultStore(args.save_dir)
    chunks = []
    for outcome in report.outcomes:
        if not outcome.ok:
            print(
                f"[{outcome.exp_id} {outcome.status.value} after "
                f"{outcome.attempts} attempt(s): {outcome.error}]",
                file=sys.stderr,
            )
            if outcome.traceback:
                print(outcome.traceback, file=sys.stderr)
            continue
        result = outcome.result
        if store is not None:
            store.save(result)
        text = result.to_json() if args.json else result.to_text()
        if args.chart and not args.json:
            from repro.experiments.plotting import chart_experiment

            chart = chart_experiment(result)
            if chart:
                text += "\n\n" + chart
        chunks.append(text)
        print(text)
        if not args.json:
            cached = " (cached)" if outcome.status.value == "cached" else ""
            print(f"[{outcome.exp_id} took {outcome.duration_s:.1f}s{cached}]")
        print()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("\n\n".join(chunks) + "\n")
    if args.save_dir:
        import os

        report.manifest.write(os.path.join(args.save_dir, "manifest.json"))
    if args.trace:
        from repro.obs import disable_tracing, write_chrome_trace

        write_chrome_trace(args.trace)
        disable_tracing()
        if not args.quiet:
            print(
                f"[trace written to {args.trace} — open at "
                f"https://ui.perfetto.dev]",
                file=sys.stderr,
            )
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
