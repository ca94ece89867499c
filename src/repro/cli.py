"""Command-line interface: ``dssoc-emulate``.

Runs an emulation from the shell::

    dssoc-emulate run --config 3C+2F --policy frfs \
        --apps range_detection=3,wifi_tx=2
    dssoc-emulate perf --config 3C+2F --policy met --rate 2.28
    dssoc-emulate list

The paper's tables and figures are regenerated and checked by
``python -m repro.experiments.report``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import threading

from repro.analysis.tables import format_table
from repro.common.errors import ReproError
from repro.hardware.platform import platform_by_name
from repro.runtime.backends import VirtualBackend, backend_by_name
from repro.runtime.emulation import Emulation
from repro.runtime.faults import FaultSpec, FaultSpecError
from repro.runtime.qos import QoSController, QoSSpec, QoSSpecError
from repro.runtime.schedulers import available_policies
from repro.runtime.stats import StreamingStats
from repro.runtime.workload import validation_workload
from repro.experiments.workloads import TABLE_II_RATES, table_ii_workload

#: Exit codes (see docs/qos.md): 0 success (including a budget-interrupted
#: drain that flushed partial results), 1 framework error or failed sweep
#: cells, 2 usage error, 130 signal-interrupted.
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


def _parse_apps(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in text.split(","):
        name, _sep, num = part.partition("=")
        counts[name.strip()] = int(num) if num else 1
    return counts


def _qos_controller(args: argparse.Namespace) -> QoSController:
    """One controller per run/perf invocation, even with no QoS spec: the
    empty controller carries the interrupt flag the signal handlers set,
    and an empty spec leaves the emulation bit-identical to a bare run."""
    spec = QoSSpec.from_json_file(args.qos) if args.qos else None
    return QoSController(spec, wall_budget_s=args.wall_budget)


@contextlib.contextmanager
def _graceful_signals(controller: QoSController):
    """SIGINT/SIGTERM ask the running backend to drain-then-flush.

    The original handlers are restored as soon as one signal fires, so a
    second signal terminates the process the ordinary way.
    """
    if threading.current_thread() is not threading.main_thread():
        yield  # signal.signal is main-thread-only (e.g. pytest workers)
        return
    originals: dict[int, object] = {}

    def restore() -> None:
        while originals:
            signum, previous = originals.popitem()
            signal.signal(signum, previous)

    def on_signal(signum, _frame) -> None:
        controller.request_interrupt(signal.Signals(signum).name)
        restore()

    for signum in (signal.SIGINT, signal.SIGTERM):
        originals[signum] = signal.signal(signum, on_signal)
    try:
        yield
    finally:
        restore()


def _interrupt_exit_code(stats) -> int:
    """130 for signal-interrupted runs; budget drains still exit 0."""
    if stats.interrupted and stats.interrupt_reason in ("SIGINT", "SIGTERM"):
        print(
            f"run interrupted ({stats.interrupt_reason}); partial results "
            "flushed", file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    faults = FaultSpec.from_json_file(args.faults) if args.faults else None
    controller = _qos_controller(args)
    emu = Emulation(
        platform=platform_by_name(args.platform),
        config=args.config,
        policy=args.policy,
        materialize_memory=args.backend == "threaded",
        jitter=not args.no_jitter,
        seed=args.seed,
        faults=faults,
        qos=controller,
    )
    if args.arrivals:
        from repro.runtime.workload import ArrivalSpec

        if args.backend == "threaded":
            print("--arrivals requires the virtual backend (open-loop "
                  "streaming runs are timing-only)", file=sys.stderr)
            return EXIT_USAGE
        workload = ArrivalSpec.from_json_file(args.arrivals).build(
            rate_scale=args.rate_scale,
            duration_ms=args.duration_ms,
            max_apps=args.max_apps,
        )
    else:
        workload = validation_workload(_parse_apps(args.apps))
    backend = backend_by_name(args.backend)
    if args.profile:
        # Profile the emulation phase only: workload construction and the
        # initialization phase (build_session) stay outside the profile so
        # the pstats file shows the DES hot loop, not JSON parsing.
        import cProfile

        from repro.runtime.emulation import EmulationResult

        session = emu.build_session(workload)
        profiler = cProfile.Profile()
        profiler.enable()
        with _graceful_signals(controller):
            stats = backend.run(session)
        profiler.disable()
        profiler.dump_stats(args.profile)
        result = EmulationResult(
            stats=stats,
            instances=session.instances,
            workload=workload,
            config_label=emu.config.describe(),
            policy=session.scheduler.name,
        )
        print(f"profile written to {args.profile}", file=sys.stderr)
    else:
        with _graceful_signals(controller):
            result = emu.run(workload, backend)
    if args.json:
        from repro import core as core_select
        from repro.analysis.trace_export import records_as_dicts

        doc = {
            "summary": result.stats.summary(),
            "core": core_select.core_info(),
            "tasks": records_as_dicts(result.stats),
        }
        if args.backend == "threaded":
            doc["outputs_correct"] = result.verify_outputs()
        print(json.dumps(doc, indent=2))
    else:
        print(json.dumps(result.stats.summary(), indent=2))
        if args.backend == "threaded":
            print("outputs correct:", result.verify_outputs())
    if isinstance(result.stats, StreamingStats) and (args.gantt or args.trace):
        # Streaming stats keep no per-task records by design.
        print("note: --gantt/--trace are unavailable for streaming "
              "(--arrivals) runs; per-task records are not retained",
              file=sys.stderr)
    elif args.gantt or args.trace:
        if args.gantt and not args.json:
            from repro.analysis.trace_export import gantt_ascii

            print()
            print(gantt_ascii(result.stats))
        if args.trace:
            from repro.analysis.trace_export import write_csv, write_json

            if args.trace.endswith(".json"):
                write_json(result.stats, args.trace)
            else:
                write_csv(result.stats, args.trace)
            # keep stdout machine-readable under --json
            print(f"trace written to {args.trace}",
                  file=sys.stderr if args.json else sys.stdout)
    return _interrupt_exit_code(result.stats)


def _parse_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _sweep_grid(args: argparse.Namespace):
    """Build the SweepGrid from a spec file or from flags (flags win)."""
    from repro.dse import SweepGrid, rate_sweep, validation_sweep

    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            grid = SweepGrid.from_dict(json.load(fh))
        return grid
    workloads: list[dict] = []
    if args.rates:
        workloads.extend(rate_sweep(float(r)) for r in _parse_list(args.rates))
    if args.apps or not workloads:
        workloads.append(validation_sweep(_parse_apps(args.apps or
                                                      "range_detection=1")))
    seeds: tuple[int | None, ...] = (
        tuple(int(s) for s in _parse_list(args.seeds)) if args.seeds else (None,)
    )
    return SweepGrid(
        platforms=tuple(_parse_list(args.platforms)),
        configs=tuple(_parse_list(args.configs)),
        policies=tuple(_parse_list(args.policies)),
        workloads=tuple(workloads),
        seeds=seeds,
        iterations=args.iterations,
        jitter=args.jitter,
        backend=args.backend,
        faults=_load_axis(args.faults, FaultSpec, FaultSpecError),
        qos=_load_axis(args.qos, QoSSpec, QoSSpecError),
    )


def _load_axis(path: str, spec_cls, error: type[ReproError]) -> tuple[dict | None, ...]:
    """A fault or QoS axis from a JSON file: one spec object, or a list of
    specs (``null`` entries meaning a cell without one)."""
    if not path:
        return (None,)
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise error(
            f"cannot load {spec_cls.__name__} axis {path!r}: {exc}"
        ) from exc
    entries = data if isinstance(data, list) else [data]
    # validate early; the grid carries the plain dict form
    return tuple(
        None if entry is None else spec_cls.from_dict(entry).to_dict()
        for entry in entries
    )


@contextlib.contextmanager
def _sigterm_as_interrupt():
    """Make SIGTERM raise KeyboardInterrupt (sweep shutdown path)."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_signal(_signum, _frame) -> None:
        raise KeyboardInterrupt

    original = signal.signal(signal.SIGTERM, on_signal)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, original)


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run a DSE campaign: expand the grid, execute cells in parallel."""
    from repro.analysis.figures import pareto_chart
    from repro.dse import run_campaign
    from repro.dse.distrib.status import status_line
    from repro.dse.frontier import render_frontier

    # --status / --gc operate on an existing campaign directory and run
    # no cells; the grid flags only serve to derive the default --out.
    if args.gc:
        from repro.dse.maintenance import gc_campaign

        out_dir = args.out or f".dssoc_campaigns/{_sweep_grid(args).grid_id}"
        print(json.dumps(gc_campaign(out_dir), indent=2))
        return EXIT_OK
    if args.status:
        from repro.dse.distrib import campaign_snapshot, render_status

        if args.server:
            # Ask the running server (authoritative, and immune to
            # cross-host clock skew: it stamps heartbeats on receipt).
            from repro.dse.distrib.net import NetTransport

            transport = NetTransport(args.server, worker_id="status")
            try:
                snap = transport.status_snapshot()
            finally:
                transport.close()
        else:
            out_dir = args.out or f".dssoc_campaigns/{_sweep_grid(args).grid_id}"
            snap = campaign_snapshot(out_dir)
        print(json.dumps(snap, indent=2) if args.json else render_status(snap))
        return EXIT_OK

    grid = _sweep_grid(args)
    out_dir = args.out or f".dssoc_campaigns/{grid.grid_id}"
    quiet = args.json

    def progress(done: int, total: int, result) -> None:
        if quiet:
            return
        status = "cached" if result.cached else result.status
        extra = ""
        if result.ok and result.metrics:
            extra = f"  makespan={result.metrics['makespan_ms']:.3f}ms"
        print(f"[{done:>4}/{total}] {result.cell.label:<40} {status}{extra}",
              file=sys.stderr)

    def status_fn(snap) -> None:
        print(status_line(snap), file=sys.stderr)

    # SIGTERM behaves like Ctrl-C: the campaign journals in-flight cells as
    # interrupted (so --resume re-runs only those) before the interrupt
    # propagates to main(), which exits 130.
    try:
        with _sigterm_as_interrupt():
            campaign = run_campaign(
                grid,
                out_dir=out_dir,
                jobs=args.jobs,
                workers=args.workers,
                server=args.server or None,
                timeout_s=args.timeout,
                retries=args.retries,
                resume=args.resume,
                force=args.force,
                lease_ttl_s=args.lease_ttl,
                poll_s=args.poll,
                progress=progress,
                status_fn=None if quiet else status_fn,
            )
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.json:
        print(json.dumps(
            {"summary": campaign.summary(), "cells": campaign.rows()}, indent=2
        ))
    else:
        summary = campaign.summary()
        print(campaign.table(sort_by=args.sort_by))
        rows = [r for r in campaign.rows() if r["status"] == "ok"]
        if len(rows) > 1:
            print()
            print(render_frontier(rows))
            try:
                print()
                print(pareto_chart(rows))
            except ValueError:
                pass  # degenerate plane (all failed / single point)
        print()
        print(
            f"campaign: {summary['cells']} cells, {summary['executed']} "
            f"executed, {summary['cached']} cached, {summary['failed']} "
            f"failed in {summary['elapsed_s']}s -> {out_dir}"
        )
    return 0 if campaign.ok else 1


def cmd_sweep_worker(args: argparse.Namespace) -> int:
    """Attach one worker process to a distributed campaign.

    Spawned by ``sweep --workers N`` on the campaign host, started by
    hand on any machine mounting the campaign directory (``--out DIR``),
    or attached over TCP to a ``sweep-server`` (``--server HOST:PORT`` —
    no shared mount needed).  SIGINT/SIGTERM drain gracefully: the
    in-flight cell completes (and is journaled) before the worker exits
    130.  A network worker that exhausts its reconnect budget exits 130
    too (``server_lost``), leaving its local spool intact for the next
    attach.
    """
    from repro.dse.distrib import run_worker

    if not args.out and not args.server:
        print("sweep-worker needs --out DIR or --server HOST:PORT",
              file=sys.stderr)
        return EXIT_USAGE
    controller = QoSController(None, wall_budget_s=args.wall_budget)

    transport = None
    if args.server:
        from repro.dse.distrib.net import NetTransport
        from repro.dse.distrib.queue import default_worker_id

        transport = NetTransport(
            args.server,
            worker_id=args.worker_id or default_worker_id(),
            spool_dir=args.spool or None,
        )

    def log(msg: str) -> None:
        print(msg, file=sys.stderr)

    with _graceful_signals(controller):
        summary = run_worker(
            args.out or None,
            worker_id=args.worker_id or None,
            transport=transport,
            lease_ttl_s=args.lease_ttl,
            poll_s=args.poll,
            oneshot=args.oneshot,
            max_cells=args.max_cells,
            controller=controller,
            reconnect_budget_s=args.reconnect_budget,
            log=log,
        )
    print(json.dumps(summary.to_dict(), indent=2))
    if summary.stop_reason in ("SIGINT", "SIGTERM", "server_lost"):
        return EXIT_INTERRUPTED
    return EXIT_OK


def cmd_sweep_server(args: argparse.Namespace) -> int:
    """Serve one sweep campaign over TCP (the network-transport hub).

    Owns the campaign directory: manifest, leases, result submission,
    failure records, heartbeats, and the canonical journal.  Workers and
    coordinators attach with ``--server HOST:PORT``.  All campaign state
    is durable — a SIGKILL'd server restarted on the same directory
    resumes exactly where it was (workers spool, reconnect, and re-claim
    on their own).  SIGINT/SIGTERM shut down cleanly.
    """
    from repro.dse.distrib.net.server import run_server

    if not args.out:
        print("sweep-server needs --out DIR", file=sys.stderr)
        return EXIT_USAGE
    stop = threading.Event()
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, lambda _s, _f: stop.set())

    def ready(host: str, port: int) -> None:
        import os

        print(json.dumps({"host": host, "port": port, "pid": os.getpid()}),
              flush=True)
        print(f"sweep-server listening on {host}:{port} "
              f"(campaign: {args.out})", file=sys.stderr)

    run_server(
        args.out,
        host=args.host,
        port=args.port,
        lease_ttl_s=args.lease_ttl,
        stop=stop,
        ready=ready,
    )
    return EXIT_OK


def cmd_perf(args: argparse.Namespace) -> int:
    if args.rate not in TABLE_II_RATES:
        print(f"rate must be one of {TABLE_II_RATES}", file=sys.stderr)
        return EXIT_USAGE
    controller = _qos_controller(args)
    emu = Emulation(
        platform=platform_by_name(args.platform),
        config=args.config,
        policy=args.policy,
        materialize_memory=False,
        jitter=False,
        qos=controller,
    )
    with _graceful_signals(controller):
        result = emu.run(table_ii_workload(args.rate), VirtualBackend())
    print(json.dumps(result.stats.summary(), indent=2))
    return _interrupt_exit_code(result.stats)


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the named bench scenarios; write a BENCH_<timestamp>.json report."""
    from repro.perf import (
        format_core_compare,
        format_report,
        run_suite,
        run_suite_compare_cores,
        scenario_names,
        write_report,
    )

    if args.list:
        for name in scenario_names():
            print(name)
        return 0
    names = _parse_list(args.scenario)
    if not names:
        print("bench needs --scenario NAME[,NAME...] (see bench --list)",
              file=sys.stderr)
        return EXIT_USAGE
    quiet = args.json

    def progress(done: int, total: int, name: str) -> None:
        if not quiet:
            print(f"[{done + 1}/{total}] {name} ...", file=sys.stderr)

    if args.compare_cores:
        pure_doc, compiled_doc = run_suite_compare_cores(
            names,
            reps=args.reps,
            warmup=args.warmup,
            quick=args.quick,
            progress=progress,
        )
        paths = []
        if not args.no_write:
            paths = [
                write_report(pure_doc, out_dir=args.out, tag="pure"),
                write_report(compiled_doc, out_dir=args.out, tag="compiled"),
            ]
        if args.json:
            print(json.dumps(
                {"pure": pure_doc, "compiled": compiled_doc}, indent=2
            ))
        else:
            print(format_core_compare(pure_doc, compiled_doc))
        for p in paths:
            print(f"report written to {p}", file=sys.stderr)
        return 0

    doc = run_suite(
        names,
        reps=args.reps,
        warmup=args.warmup,
        quick=args.quick,
        progress=progress,
    )
    path = None
    if not args.no_write:
        path = write_report(doc, out_dir=args.out)
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(format_report(doc))
    if path is not None:
        print(f"report written to {path}", file=sys.stderr)
    return 0


def cmd_export_specs(args: argparse.Namespace) -> int:
    """Write every bundled application's Listing-1 JSON to a directory."""
    from pathlib import Path

    from repro.appmodel.jsonspec import dump_graph
    from repro.apps import default_applications

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, graph in sorted(default_applications().items()):
        path = outdir / f"{name}.json"
        dump_graph(graph, path)
        print(f"wrote {path} ({graph.task_count} tasks)")
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    from repro.apps import default_applications

    rows = [
        [name, graph.task_count, len(graph.variables)]
        for name, graph in sorted(default_applications().items())
    ]
    print(format_table(["application", "tasks", "variables"], rows,
                       title="Registered applications"))
    print()
    print("Scheduling policies:", ", ".join(available_policies()))
    print("Platforms: zcu102, odroid_xu3")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dssoc-emulate",
        description="User-space emulation framework for DSSoC design",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_campaign_flags(p: argparse.ArgumentParser, *names: str) -> None:
        """The campaign-location flags, declared once for ``sweep``,
        ``sweep-worker`` and ``sweep-server``."""
        flags = {
            "--out": dict(default="", help="campaign directory (sweep "
                          "defaults to .dssoc_campaigns/<grid-hash>)"),
            "--server": dict(default="", help="network mode: a sweep-server "
                             "at HOST:PORT instead of a shared campaign "
                             "directory (sweep --status: its live snapshot)"),
            "--lease-ttl": dict(type=float, default=None,
                                help="cell-lease TTL in seconds (default: the "
                                     "campaign manifest's, else 30)"),
            "--poll": dict(type=float, default=0.5,
                           help="idle poll interval in seconds"),
        }
        for name in names:
            p.add_argument(name, **flags[name])

    run_p = sub.add_parser("run", help="validation-mode emulation")
    run_p.add_argument("--platform", default="zcu102")
    run_p.add_argument("--config", default="3C+2F")
    run_p.add_argument("--policy", default="frfs")
    run_p.add_argument("--apps", default="range_detection=1")
    run_p.add_argument("--arrivals", default="",
                       help="arrival-spec JSON file: open-loop streaming "
                            "injection instead of --apps "
                            "(see docs/serving.md)")
    run_p.add_argument("--rate-scale", type=float, default=1.0,
                       help="with --arrivals: multiply the spec's offered "
                            "load (trace replay: divide timestamps)")
    run_p.add_argument("--duration-ms", type=float, default=None,
                       help="with --arrivals: override the spec's arrival "
                            "window")
    run_p.add_argument("--max-apps", type=int, default=None,
                       help="with --arrivals: override the spec's arrival "
                            "cap")
    run_p.add_argument("--backend", default="virtual",
                       choices=["virtual", "threaded"])
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--no-jitter", action="store_true")
    run_p.add_argument("--faults", default="",
                       help="fault-spec JSON file (see docs/faults.md)")
    run_p.add_argument("--qos", default="",
                       help="QoS-spec JSON file (see docs/qos.md)")
    run_p.add_argument("--wall-budget", type=float, default=None,
                       help="wall-clock run budget in seconds; on expiry "
                            "the run drains and flushes partial results")
    run_p.add_argument("--gantt", action="store_true",
                       help="print an ASCII Gantt chart of the schedule")
    run_p.add_argument("--trace", default="",
                       help="write the task schedule to a .csv/.json file")
    run_p.add_argument("--json", action="store_true",
                       help="print summary + full task schedule as one JSON "
                            "document (machine-readable stdout)")
    run_p.add_argument("--profile", default="",
                       help="dump a cProfile pstats file of the emulation "
                            "phase (excludes workload construction)")
    run_p.set_defaults(fn=cmd_run)

    perf_p = sub.add_parser("perf", help="performance-mode emulation")
    perf_p.add_argument("--platform", default="zcu102")
    perf_p.add_argument("--config", default="3C+2F")
    perf_p.add_argument("--policy", default="frfs")
    perf_p.add_argument("--rate", type=float, default=1.71)
    perf_p.add_argument("--qos", default="",
                        help="QoS-spec JSON file (see docs/qos.md)")
    perf_p.add_argument("--wall-budget", type=float, default=None,
                        help="wall-clock run budget in seconds")
    perf_p.set_defaults(fn=cmd_perf)

    sweep_p = sub.add_parser(
        "sweep", help="run a DSE campaign (configs x policies x workloads)"
    )
    sweep_p.add_argument("--spec", default="",
                         help="JSON campaign spec file (overrides grid flags)")
    sweep_p.add_argument("--platforms", default="zcu102")
    sweep_p.add_argument("--configs", default="2C+2F,3C+2F")
    sweep_p.add_argument("--policies", default="frfs")
    sweep_p.add_argument("--apps", default="",
                         help="validation workload, e.g. range_detection=2,wifi_tx=1")
    sweep_p.add_argument("--rates", default="",
                         help="comma-separated injection rates (jobs/ms) "
                              "swept as performance-mode workloads")
    sweep_p.add_argument("--seeds", default="", help="comma-separated seeds")
    sweep_p.add_argument("--faults", default="",
                         help="fault axis: JSON file with one fault spec or "
                              "a list of specs (null = fault-free cell)")
    sweep_p.add_argument("--qos", default="",
                         help="QoS axis: JSON file with one QoS spec or a "
                              "list of specs (null = QoS-free cell)")
    sweep_p.add_argument("--iterations", type=int, default=1,
                         help="emulation iterations per cell")
    sweep_p.add_argument("--jitter", action="store_true",
                         help="enable the execution-time jitter model")
    sweep_p.add_argument("--backend", default="virtual",
                         choices=["virtual", "threaded"])
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="local pool processes (1 = inline execution); "
                              "not combinable with --workers / --server")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="per-cell wall-clock timeout in seconds")
    sweep_p.add_argument("--retries", type=int, default=1,
                         help="re-attempts per failing cell")
    sweep_p.add_argument("--resume", action="store_true",
                         help="append to the existing journal and re-queue "
                              "only incomplete cells")
    sweep_p.add_argument("--force", action="store_true",
                         help="start the campaign over: overrides --resume, "
                              "drops cached results and recomputes every cell")
    sweep_p.add_argument("--sort-by", default=None,
                         help="sort the results table by this column "
                              "(e.g. makespan_ms, total_energy_j)")
    sweep_p.add_argument("--json", action="store_true",
                         help="print the campaign result set as JSON")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="distributed mode: spawn N local worker "
                              "processes coordinated through the campaign "
                              "directory (0 = coordinate only; more workers "
                              "may attach with 'sweep-worker --out DIR')")
    add_campaign_flags(sweep_p, "--out", "--server", "--lease-ttl", "--poll")
    sweep_p.add_argument("--status", action="store_true",
                         help="print live status of the campaign in --out "
                              "(cells/sec, ETA, worker health, cache hits) "
                              "and exit without running anything")
    sweep_p.add_argument("--gc", action="store_true",
                         help="garbage-collect the campaign in --out (prune "
                              "orphaned/corrupt cache entries, compact the "
                              "journal) and exit without running anything")
    sweep_p.set_defaults(fn=cmd_sweep)

    worker_p = sub.add_parser(
        "sweep-worker",
        help="attach one worker to a distributed sweep campaign "
             "(directory or server)",
    )
    add_campaign_flags(worker_p, "--out", "--server", "--lease-ttl", "--poll")
    worker_p.add_argument("--worker-id", default="",
                          help="stable worker name (default: <host>-<pid>)")
    worker_p.add_argument("--oneshot", action="store_true",
                          help="exit after the first pass that finds no "
                               "claimable work instead of waiting on peers")
    worker_p.add_argument("--max-cells", type=int, default=None,
                          help="stop after resolving this many cells")
    worker_p.add_argument("--wall-budget", type=float, default=None,
                          help="wall-clock budget in seconds; on expiry the "
                               "worker finishes its in-flight cell and exits")
    worker_p.add_argument("--spool", default="",
                          help="network mode: directory for results computed "
                               "while the server is unreachable (default: a "
                               "stable per-endpoint path under the system "
                               "temp dir)")
    worker_p.add_argument("--reconnect-budget", type=float,
                          default=60.0,
                          help="network mode: seconds to keep retrying a "
                               "lost server before exiting with its spool "
                               "intact (default 60)")
    worker_p.set_defaults(fn=cmd_sweep_worker)

    server_p = sub.add_parser(
        "sweep-server",
        help="serve one sweep campaign over TCP (no shared mount needed)",
    )
    add_campaign_flags(server_p, "--out", "--lease-ttl")
    server_p.add_argument("--host", default="127.0.0.1",
                          help="bind address (default 127.0.0.1; use 0.0.0.0 "
                               "for off-host workers)")
    server_p.add_argument("--port", type=int, default=0,
                          help="bind port (default 0 = ephemeral; the chosen "
                               "port is printed and written to "
                               "<out>/distrib/server.json)")
    server_p.set_defaults(fn=cmd_sweep_server)

    bench_p = sub.add_parser(
        "bench", help="cross-core gate, peak-RSS scale pair and lookahead "
                      "scenarios (speed claims: benchmarks/spine)"
    )
    bench_p.add_argument("--scenario", default="",
                         help="comma-separated scenario names (required; "
                              "see --list)")
    bench_p.add_argument("--quick", action="store_true",
                         help="small workloads, 1 rep, no warmup (CI smoke)")
    bench_p.add_argument("--reps", type=int, default=3,
                         help="timed repetitions per scenario")
    bench_p.add_argument("--warmup", type=int, default=1,
                         help="untimed warmup runs per scenario")
    bench_p.add_argument("--out", default="benchmarks/results",
                         help="directory for the BENCH_<timestamp>.json report")
    bench_p.add_argument("--no-write", action="store_true",
                         help="skip writing the report file")
    bench_p.add_argument("--json", action="store_true",
                         help="print the report document as JSON on stdout")
    bench_p.add_argument("--list", action="store_true",
                         help="list scenario names and exit")
    bench_p.add_argument("--compare-cores", action="store_true",
                         help="run each scenario under both the pure and "
                              "compiled cores (interleaved), assert their "
                              "stats are bit-identical, and print a speedup "
                              "table; writes one BENCH report per core")
    bench_p.set_defaults(fn=cmd_bench)

    list_p = sub.add_parser("list", help="show registered apps and policies")
    list_p.set_defaults(fn=cmd_list)

    export_p = sub.add_parser(
        "export-specs", help="write bundled app JSONs (Listing 1 schema)"
    )
    export_p.add_argument("--outdir", default="specs")
    export_p.set_defaults(fn=cmd_export_specs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
