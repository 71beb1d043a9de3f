"""Command-line interface: ``python -m repro``.

Five subcommands:

``list``
    Enumerate every registered experiment with its backends, defaults
    and the paper figure it reproduces.

``run NAME``
    Execute one experiment through the :class:`~repro.api.session.Session`
    facade and print a summary table; ``--json``/``--csv`` write the
    serialized :class:`~repro.api.result.Result` to files (``-`` for
    stdout).  Every experiment input beyond the spec fields
    (``--trials``, ``--seed``, ``--confidence``) is one ``-p KEY=VALUE``
    param: ``-p scenario=NAME`` selects a registered fault scenario,
    ``-p tolerance=HW`` stops sampling at a CI half-width,
    ``-p estimator=tilted -p tilt=THETA`` picks a rare-event estimator.
    ``--verbose/-v`` streams INFO-level telemetry to stderr while the
    run executes; ``--telemetry PATH`` writes the run's raw event
    stream as JSON lines (``-`` for stdout).  ``--profile`` samples the
    run's own thread and attaches the profile to
    ``meta.telemetry.profile``; ``--profile-out BASE`` additionally
    writes ``BASE.collapsed`` (collapsed stacks) and ``BASE.html`` (the
    profile's ``explain`` page).  Examples::

        python -m repro run fig3.coverage --trials 200000 --json out.json
        python -m repro run fig3.coverage --trials 4096 \
            -p scenario=burst_row --csv fig3_bursts.csv
        python -m repro run fig3.coverage --trials 4096 -v \
            --telemetry events.jsonl

``explain SOURCE``
    Explain one run from its own artifacts as a self-contained HTML
    page (:mod:`repro.viz`).  ``SOURCE`` is a saved Result JSON (``run
    --json``, a ``serve`` result mirror), a job trace
    (``DIR/traces/<job_id>.json`` of ``serve --cache-dir DIR``, or a
    saved ``GET /jobs/{id}/trace`` body), a profile JSON (``GET
    /debug/profile``) or collapsed-stack text (``--profile-out``).  The
    page shows every section the source carries: figures, data tables
    and provenance; telemetry cards (which path ran); the span Gantt;
    the flamegraph.  It embeds the source as-is (a trace page still
    loads in ``chrome://tracing``/Perfetto).  ``-o`` overrides the
    default ``SOURCE.html`` output path; without ``-o`` an existing
    default output is never overwritten (exit 2).

``serve``
    Run the long-lived experiment service (:mod:`repro.service`):
    HTTP+JSON submissions with single-flight dedup, an asyncio worker
    pool over one shared session, and a TTL'd result store.
    ``--host/--port/--workers/--ttl`` configure it; ``--no-metrics``
    disables the ``GET /metrics`` Prometheus endpoint (on by default).
    ``--cache-dir DIR`` is the one on-disk root: engine results, the
    result mirror (``DIR/results/``) and every settled job's trace
    (``DIR/traces/<job_id>.json``), all swept by the same TTL.
    ``--profile`` profiles every executed job (the profile lands in
    its result's ``meta.telemetry.profile``, served with the result by
    ``GET /jobs/{id}`` and ``GET /results/{hash}``).  SIGINT/SIGTERM
    drain in-flight jobs and shut down gracefully (a second signal
    cancels queued work).
    Example::

        python -m repro serve --port 8765 --workers 4 --ttl 3600 \
            --cache-dir .repro-cache

``cache``
    Inspect (``--json``) or prune (``--prune --ttl S / --max-bytes N``,
    mtime-LRU) a cache directory: every namespace under it (engine
    results, result mirrors, job traces) goes through the same prune.

Exit status: 0 on success, 2 on usage errors (including unknown
experiment names, unknown scenarios, non-positive ``--workers`` counts,
nonexistent ``cache``/``--telemetry`` paths, and missing or malformed
``explain`` sources), 1 on execution failures (a worker process killed
mid-run included).  ``--workers N`` fans Monte Carlo runs out over the
session's persistent worker pool; bare ``--json``
(no PATH) prints the full Result JSON to stdout with the summary table
suppressed.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Sequence

from repro.scenarios import UnknownScenarioError

from .registry import UnknownExperimentError, list_experiments
from .result import Result
from .session import Session
from .spec import ExperimentSpec, SpecError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper's experiments through the unified API.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser("list", help="list registered experiments")
    lister.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )

    runner = sub.add_parser("run", help="run one experiment")
    runner.add_argument("experiment", help="registry name, e.g. fig3.coverage")
    runner.add_argument(
        "--backend",
        choices=("auto", "analytical", "monte_carlo"),
        default="auto",
        help="backend to use (default: auto — analytical unless --trials is set)",
    )
    runner.add_argument("--trials", type=int, help="Monte Carlo trial count")
    runner.add_argument("--seed", type=int, help="root RNG seed")
    runner.add_argument(
        "--confidence", type=float, default=0.95, help="Wilson CI level"
    )
    runner.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the session's persistent executor "
        "(default: 1, in-process)",
    )
    runner.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="on-disk engine result cache directory (disabled when omitted)",
    )
    runner.add_argument(
        "-p",
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="experiment-specific parameter (VALUE parsed as JSON when possible; "
        "repeatable)",
    )
    runner.add_argument(
        "--json",
        metavar="PATH",
        nargs="?",
        const="-",
        help="write the Result as JSON; with no PATH (or '-') print the "
        "full Result JSON to stdout",
    )
    runner.add_argument(
        "--csv", metavar="PATH", help="write the Result as CSV ('-' for stdout)"
    )
    runner.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the summary table"
    )
    runner.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="stream INFO-level telemetry (cache, shards, pool lifecycle) "
        "to stderr while the run executes",
    )
    runner.add_argument(
        "--telemetry",
        metavar="PATH",
        help="write the run's raw telemetry event stream as JSON lines "
        "('-' for stdout)",
    )
    runner.add_argument(
        "--profile",
        action="store_true",
        help="sample the run's stacks at 47 Hz; the profile attaches to "
        "meta.telemetry.profile in the Result JSON and never changes the "
        "result payload",
    )
    runner.add_argument(
        "--profile-out",
        metavar="BASE",
        help="write the profile as BASE.collapsed (collapsed stacks) and "
        "BASE.html (flamegraph); implies --profile",
    )

    explainer = sub.add_parser(
        "explain",
        help="explain a run from its artifacts as one self-contained HTML page",
    )
    explainer.add_argument(
        "source",
        metavar="SOURCE",
        help="a saved Result JSON, a job trace JSON, a profile JSON or "
        "collapsed-stack text",
    )
    explainer.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="output HTML path (default: the source path with an .html "
        "suffix, which must not exist yet)",
    )

    server = sub.add_parser(
        "serve",
        help="run the async experiment service (HTTP+JSON, dedup queue, "
        "TTL'd result store)",
    )
    server.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    server.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (default: 8765; 0 picks a free port)",
    )
    server.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent job executions (default: 2)",
    )
    server.add_argument(
        "--engine-workers",
        type=int,
        default=1,
        metavar="N",
        help="engine worker processes of the shared session (default: 1)",
    )
    server.add_argument(
        "--ttl",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="result-store TTL in seconds (default: 3600; 0 disables expiry)",
    )
    server.add_argument(
        "--queue-capacity",
        type=int,
        default=1024,
        metavar="N",
        help="max queued jobs before submissions get 429 (default: 1024)",
    )
    server.add_argument(
        "--job-timeout",
        type=float,
        metavar="SECONDS",
        help="default per-attempt job timeout, > 0 (default: unbounded)",
    )
    server.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="engine result cache, persisted result store and job traces "
        "directory (memory-only when omitted)",
    )
    server.add_argument(
        "--metrics",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="expose GET /metrics in Prometheus text format "
        "(default: on; --no-metrics disables)",
    )
    server.add_argument(
        "--profile",
        action="store_true",
        help="profile every executed job: the profile lands in the "
        "result's meta.telemetry.profile",
    )
    server.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="stream INFO-level service/engine telemetry to stderr",
    )

    cacher = sub.add_parser(
        "cache",
        help="inspect or prune a cache directory (engine results, result "
        "mirrors, job traces)",
    )
    cacher.add_argument(
        "--dir",
        default=".repro-cache",
        metavar="DIR",
        help="cache directory (default: .repro-cache)",
    )
    cacher.add_argument(
        "--prune",
        action="store_true",
        help="evict entries per --ttl/--max-bytes (mtime-LRU)",
    )
    cacher.add_argument(
        "--ttl",
        type=float,
        metavar="SECONDS",
        help="with --prune: evict entries older than SECONDS",
    )
    cacher.add_argument(
        "--max-bytes",
        type=int,
        metavar="N",
        help="with --prune: evict oldest entries until each namespace "
        "fits N bytes",
    )
    cacher.add_argument(
        "--json", action="store_true", help="emit stats as JSON"
    )
    return parser


def _parse_params(pairs: "list[str]") -> dict:
    params = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SpecError(f"--param expects KEY=VALUE, got {pair!r}")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw  # bare strings need no quoting
    return params


def _print_listing(as_json: bool, out) -> None:
    experiments = list_experiments()
    if as_json:
        payload = [
            {
                "name": exp.name,
                "backends": list(exp.backends),
                "figure": exp.figure,
                "description": exp.description,
                "defaults": {b: exp.defaults_for(b) for b in exp.backends},
            }
            for exp in experiments
        ]
        json.dump(payload, out, indent=2, sort_keys=True, default=list)
        out.write("\n")
        return
    width = max(len(exp.name) for exp in experiments)
    bwidth = max(len(", ".join(exp.backends)) for exp in experiments)
    for exp in experiments:
        figure = f" [{exp.figure}]" if exp.figure else ""
        print(
            f"{exp.name:<{width}}  {', '.join(exp.backends):<{bwidth}}  "
            f"{exp.description}{figure}",
            file=out,
        )


def _print_summary(result: Result, out) -> None:
    print(f"experiment: {result.experiment} ({result.backend})", file=out)
    print(f"spec hash:  {result.spec_hash[:16]}…", file=out)
    for series in result.series:
        suffix = f" [{series.units}]" if series.units else ""
        print(f"  {series.name}{suffix}", file=out)
        xs = series.x if series.x else tuple(range(len(series.y)))
        for i, (x, y) in enumerate(zip(xs, series.y)):
            bounds = ""
            if series.lower is not None and series.upper is not None:
                bounds = f"  [{series.lower[i]:.6g}, {series.upper[i]:.6g}]"
            print(f"    {x}: {y:.6g}{bounds}", file=out)


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


def _html_output(source: Path, output: "str | None") -> "Path | None":
    """``-o`` when given, else ``SOURCE.html`` — unless that file already
    exists (a ``run --profile-out BASE`` page, an earlier render),
    which only an explicit ``-o`` may overwrite."""
    if output:
        return Path(output)
    default = source.with_suffix(".html")
    if default.exists():
        print(
            f"error: {default} already exists; pass -o PATH to write elsewhere "
            "(or to overwrite it)",
            file=sys.stderr,
        )
        return None
    return default


def _cmd_explain(args) -> int:
    from repro.viz import load_source, write_page

    source = Path(args.source)
    if not source.is_file():
        print(f"error: source file {source} not found", file=sys.stderr)
        return 2
    try:
        loaded = load_source(source)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = _html_output(source, args.output)
    if output is None:
        return 2
    write_page(loaded, output)
    print(f"wrote {output}", file=sys.stderr)
    return 0


def _verbose_telemetry_handler() -> "tuple[logging.Logger, logging.Handler]":
    """Attach an INFO stderr handler to the ``repro`` logger tree."""
    repro_logger = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    repro_logger.addHandler(handler)
    if repro_logger.level == logging.NOTSET or repro_logger.level > logging.INFO:
        repro_logger.setLevel(logging.INFO)
    return repro_logger, handler


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import ExperimentService, serve_forever

    if args.workers < 1:
        print(
            f"error: --workers must be a positive count, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    if args.engine_workers < 1:
        print(
            "error: --engine-workers must be a positive count, "
            f"got {args.engine_workers}",
            file=sys.stderr,
        )
        return 2
    if args.queue_capacity < 1:
        print(
            "error: --queue-capacity must be positive, "
            f"got {args.queue_capacity}",
            file=sys.stderr,
        )
        return 2
    if args.ttl < 0:
        print(f"error: --ttl must be >= 0, got {args.ttl}", file=sys.stderr)
        return 2
    if not (0 <= args.port <= 65535):
        print(f"error: --port must be 0-65535, got {args.port}", file=sys.stderr)
        return 2

    try:
        service = ExperimentService(
            workers=args.workers,
            engine_workers=args.engine_workers,
            queue_capacity=args.queue_capacity,
            ttl_seconds=args.ttl or None,  # 0 disables expiry
            job_timeout=args.job_timeout,
            cache_dir=args.cache_dir,
            profile=args.profile,
        )
    except ValueError as exc:  # e.g. a --job-timeout that is not > 0
        print(f"error: {exc}", file=sys.stderr)
        return 2

    logger = handler = None
    if args.verbose:
        logger, handler = _verbose_telemetry_handler()

    def announce(server) -> None:
        print(
            f"repro service listening on http://{server.host}:{server.port} "
            f"(workers={args.workers}, ttl={args.ttl}s) — Ctrl-C to drain "
            "and exit",
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(
            serve_forever(
                service,
                host=args.host,
                port=args.port,
                expose_metrics=args.metrics,
                on_ready=announce,
            )
        )
    except OSError as exc:  # bind failures: address in use, bad host
        print(f"error: cannot serve on {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        if handler is not None:
            logger.removeHandler(handler)
    print("repro service stopped", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    from repro.engine.blobstore import NAMESPACES, BlobStore, namespace_root

    root = Path(args.dir)
    if not root.is_dir():
        print(f"error: cache directory {root} not found", file=sys.stderr)
        return 2
    if (args.ttl is not None or args.max_bytes is not None) and not args.prune:
        print("error: --ttl/--max-bytes require --prune", file=sys.stderr)
        return 2
    if args.prune and args.ttl is None and args.max_bytes is None:
        print("error: --prune needs --ttl and/or --max-bytes", file=sys.stderr)
        return 2
    spaces = [BlobStore(namespace_root(root, ns), ns) for ns in NAMESPACES]
    pruned = 0
    if args.prune:
        pruned = sum(
            blobs.prune(ttl_seconds=args.ttl, max_bytes=args.max_bytes)
            for blobs in spaces
        )
    each = [blobs.stats() for blobs in spaces]
    oldest = [s["oldest_mtime"] for s in each if s["oldest_mtime"] is not None]
    stats = {
        "entries": sum(s["entries"] for s in each),
        "total_bytes": sum(s["total_bytes"] for s in each),
        "oldest_mtime": min(oldest, default=None),
    }
    if args.json:
        payload = {"dir": str(root), **stats}
        if args.prune:
            payload["pruned"] = pruned
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"cache dir:   {root}")
    print(f"entries:     {stats['entries']}")
    print(f"total bytes: {stats['total_bytes']}")
    if stats["oldest_mtime"] is not None:
        import datetime

        oldest = datetime.datetime.fromtimestamp(stats["oldest_mtime"])
        print(f"oldest:      {oldest.isoformat(timespec='seconds')}")
    if args.prune:
        print(f"pruned:      {pruned}")
    return 0


def _cmd_run(args) -> int:
    verbose_handler = None
    repro_logger = logging.getLogger("repro")
    try:
        params = _parse_params(args.param)
        if args.workers < 1:
            raise SpecError(
                f"--workers must be a positive process count, got {args.workers}"
            )
        to_stdout = [
            flag
            for flag, value in (
                ("--json", args.json),
                ("--csv", args.csv),
                ("--telemetry", args.telemetry),
            )
            if value == "-"
        ]
        if len(to_stdout) > 1:
            raise SpecError(
                f"only one output can go to stdout, got {' and '.join(to_stdout)} '-'"
            )
        if args.telemetry and args.telemetry != "-":
            parent = Path(args.telemetry).parent
            if not parent.is_dir():
                raise SpecError(
                    f"--telemetry: directory {parent} does not exist"
                )
        if args.profile_out:
            parent = Path(args.profile_out).parent
            if not parent.is_dir():
                raise SpecError(
                    f"--profile-out: directory {parent} does not exist"
                )
        spec = ExperimentSpec(
            experiment=args.experiment,
            backend=args.backend,
            trials=args.trials,
            seed=args.seed,
            confidence=args.confidence,
            params=params,
        )
        if args.verbose:
            repro_logger, verbose_handler = _verbose_telemetry_handler()
        with Session(workers=args.workers, cache_dir=args.cache_dir) as session:
            result = session.run(
                spec, profile=bool(args.profile or args.profile_out)
            )
            telemetry_jsonl = (
                session.last_telemetry.to_jsonl()
                if session.last_telemetry is not None
                else ""
            )
    except (UnknownExperimentError, UnknownScenarioError, SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, BrokenProcessPool) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if verbose_handler is not None:
            repro_logger.removeHandler(verbose_handler)

    # A payload aimed at stdout must *be* the stdout: suppress the
    # human summary so `python -m repro run ... --json | jq .` works.
    if not args.quiet and not to_stdout:
        _print_summary(result, sys.stdout)
    if args.json:
        _write(args.json, result.to_json(indent=2))
    if args.csv:
        _write(args.csv, result.to_csv())
    if args.telemetry:
        _write(args.telemetry, telemetry_jsonl)
    if args.profile_out:
        from repro.viz import Source, write_page

        profile = result.telemetry()["profile"]
        collapsed = Path(f"{args.profile_out}.collapsed")
        collapsed.write_text(
            "".join(
                f"{stack} {count}\n"
                for stack, count in sorted(profile["stacks"].items())
            ),
            encoding="utf-8",
        )
        page = write_page(
            Source.of(profile, name=args.experiment), f"{args.profile_out}.html"
        )
        print(f"wrote {collapsed} and {page}", file=sys.stderr)
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        _print_listing(args.json, sys.stdout)
        return 0
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cache":
        return _cmd_cache(args)
    return _cmd_run(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
