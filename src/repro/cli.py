"""Command-line front end: ``repro-study`` / ``python -m repro``.

Subcommands regenerate the paper's artifacts on the terminal:

* ``table4`` — overall error per metric (Table 4 / Figure 2);
* ``table5`` — per-system error (Table 5);
* ``figures`` — per-application error assessments (Figures 3-7);
* ``figure1`` — unit-stride MAPS curves (Figure 1);
* ``appendix`` — observed times-to-solution (Tables 6-10);
* ``probes`` — probe summary per system;
* ``cost`` — the Section 3 effort-vs-accuracy table;
* ``all`` — everything above;
* ``csv`` — raw prediction records as CSV on stdout;
* ``serve`` — the resilient online prediction service (HTTP);
* ``store info`` — cache-directory maintenance (print format versions,
  entry counts and bytes);
* ``events tail`` / ``events verify`` / ``events rebuild`` — event-log
  audit: print the newest events, fsck every writer stream, or
  reconstruct the projection views from the raw log alone;
* ``sim run`` / ``sim replay`` / ``sim shrink`` — the deterministic
  simulation harness: sweep seeded chaos episodes under virtual time,
  replay the committed regression corpus, or delta-debug a failing
  episode down to a minimal reproducer;
* ``catalog list`` / ``catalog show`` / ``catalog export`` / ``catalog
  gen`` — scenario-catalog tooling: list every loaded machine and
  application, print one spec as TOML, snapshot the loaded catalog, or
  grow a seeded universe file from ``(family, seed, cells)``;
* ``sensitivity`` — sweep a generated universe through the study under
  increasing run-to-run noise and spec-calibration error, reporting
  per-metric rank correlation and signed-error degradation.

``--universe`` mounts a generated or TOML-loaded universe before any id
resolves, for every artifact above.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import threading
from pathlib import Path

from repro.core.errors import EventLogCorruptError, ReproError, StudyAbortedError
from repro.core.registry import REGISTRY
from repro.probes.suite import probe_machine
from repro.scenarios import CATALOG
from repro.reporting.ascii_charts import bar_chart, line_chart
from repro.reporting.export import result_to_csv
from repro.study.runner import StudyResult, run_study, shutdown_pool
from repro.study import tables as T
from repro.util.faults import FaultPlan
from repro.util.options import Mode
from repro.util.validation import check_distinct

__all__ = ["main"]


def _print_table4(result: StudyResult) -> None:
    print(T.table4_overall(result).render())
    bars = {
        f"#{m}": err for m, (err, _std) in T.figure2_series(result).items()
    }
    stds = {f"#{m}": std for m, (_err, std) in T.figure2_series(result).items()}
    print(bar_chart(bars, title="Figure 2. Average absolute error by metric", errors=stds))


def _print_table5(result: StudyResult) -> None:
    print(T.table5_systems(result, include_paper=True).render())


def _print_figures(result: StudyResult) -> None:
    for app in result.config.applications:
        print(T.figures3_7_series(result, app).render())


def _print_figure1() -> None:
    series = {
        name: (sizes, bws / 1e9)
        for name, (sizes, bws) in T.figure1_series().items()
    }
    print(
        line_chart(
            series,
            title="Figure 1. Unit-stride memory bandwidth vs working-set size",
            x_label="working set (bytes, log)",
            y_label="GB/s (log)",
        )
    )


def _print_appendix(result: StudyResult) -> None:
    for app in result.config.applications:
        print(T.appendix_runtimes(result, app).render())


def _print_cost(result: StudyResult) -> None:
    from repro.study.cost import metric_costs

    print("Effort vs accuracy (Section 3)")
    print("==============================")
    print(f"{'metric':>6s} {'needs':>9s} {'base hours':>11s} {'avg |err| %':>12s}")
    for row in metric_costs(result):
        print(
            f"#{row.metric:5d} {row.requirement:>9s} "
            f"{row.acquisition_hours:11.0f} {row.mean_abs_error:12.1f}"
        )
    print()


def _print_probes() -> None:
    for name, machine in CATALOG.machine_map().items():
        summary = probe_machine(machine).summary()
        row = "  ".join(f"{k}={v:.3g}" for k, v in summary.items())
        print(f"{name:15s} {row}")


def _serve(args) -> int:
    """Boot the resilient prediction service and block until interrupted.

    One asyncio front end serves every ``--workers`` value: 1 (the
    default) runs the service inside this process, N >= 2 forks N engine
    workers behind it.  SIGTERM drains: the listener stops accepting,
    in-flight requests finish, then every event log is committed before
    the exit 0.
    """
    from repro.serve.frontend import FleetServer
    from repro.serve.service import DEFAULT_DEADLINE_SECONDS

    workers = args.workers
    deadline = DEFAULT_DEADLINE_SECONDS if args.deadline is None else args.deadline
    server = FleetServer(
        workers,
        host=args.host,
        port=args.port,
        default_deadline=deadline,
        service_config={
            "mode": args.mode,
            "noise": not args.no_noise,
            "store": args.cache_dir,
            "events_dir": args.events_dir,
            "default_deadline": deadline,
            # FaultPlan crosses the fork/spawn boundary as its spec
            # string; the universe crosses as its catalog ref.
            "faults": args.inject_faults,
            "universe": args.universe,
        },
    )
    host, port = server.start()
    print(
        f"repro-study: serving predictions on http://{host}:{port} "
        f"({workers} worker{'s' if workers > 1 else ''}; deadline {deadline:g}s; "
        f"routes: /predict, /predict/batch, /healthz, /readyz, /events/stats, "
        f"/catalog; Ctrl-C stops, SIGTERM drains)",
        file=sys.stderr,
    )
    stop = threading.Event()
    _install_sigterm(stop.set)
    try:
        # SIGTERM sets the event; Ctrl-C raises out of the wait.  Either
        # way server.stop() runs the drain.
        stop.wait()
    finally:
        server.stop()
    return 0


def _install_sigterm(handler) -> None:
    """Install a no-argument SIGTERM callback (no-op off the main thread)."""
    try:
        signal.signal(signal.SIGTERM, lambda signum, frame: handler())
    except ValueError:  # tests drive serve from a non-main thread
        pass


def _store_info(cache_dir: str) -> int:
    """Cache-directory maintenance: ``store info``."""
    from repro.tracing.store import TraceStore

    stats = TraceStore(cache_dir).stats()
    print(f"cache directory : {stats['root']}")
    print(f"binary format   : v{stats['binary_format_version']}")
    print(f"payload schema  : v{stats['payload_schema_version']}")
    for kind in ("traces", "probes"):
        row = stats[kind]
        print(f"{kind:15s} : {row['binary']} binary, {row['bytes']} bytes")
    return 0


def _events_action(action: str, events_dir: str, limit: int) -> int:
    """Event-log audit: ``events tail`` / ``events verify`` / ``events rebuild``."""
    from repro.events import ProjectionEngine, replay_dir, verify_dir

    if action == "tail":
        rows = [
            {"writer": writer, "seq": seq, **event.to_doc()}
            for writer, seq, event in replay_dir(events_dir)
        ]
        for row in rows[-limit:] if limit > 0 else rows:
            print(json.dumps(row, sort_keys=True))
        return 0
    if action == "verify":
        report = verify_dir(events_dir)
        for stream in report["streams"]:
            status = "ok" if stream["ok"] else "DAMAGED"
            print(
                f"{stream['writer']:12s} {status:8s} "
                f"{stream['frames']} frame(s), "
                f"{len(stream['segments'])} segment(s), "
                f"{stream['duplicates']} duplicate(s), "
                f"last seq {stream['last_seq']}"
            )
            for error in stream["errors"]:
                print(f"  - {error}")
        print(
            f"repro-study: events verify {report['root']}: "
            f"{report['frames']} frame(s) across "
            f"{len(report['streams'])} stream(s)"
        )
        if not report["ok"]:
            raise EventLogCorruptError(
                f"event log {events_dir} has damaged stream(s); "
                "see the fsck report above"
            )
        return 0
    # rebuild: reconstruct every projection view from the raw log alone.
    views = ProjectionEngine.rebuild(events_dir).views()
    print(json.dumps(views, indent=2, sort_keys=True))
    return 0


def _catalog_action(args, parser) -> int:
    """Catalog tooling: ``catalog list|show|export|gen``."""
    from pathlib import Path

    from repro.scenarios.spec_io import dumps_universe

    def emit(text: str, what: str) -> None:
        if args.out is not None:
            Path(args.out).write_text(text)
            print(f"repro-study: catalog {args.action}: {what} written to {args.out}")
        else:
            sys.stdout.write(text)

    if args.action == "gen":
        if args.family is None:
            parser.error("catalog gen: --family is required")
        from repro.scenarios.generate import generate_universe

        universe = generate_universe(args.family, args.seed, args.cells)
        emit(
            dumps_universe(
                universe.machines, universe.applications, ref=universe.ref
            ),
            f"universe {universe.ref}",
        )
        print(
            f"repro-study: catalog gen {universe.ref}: "
            f"{len(universe.machines)} machine(s) x "
            f"{len(universe.applications)} application(s) = "
            f"{universe.cell_count()} cell(s), digest {universe.digest()}",
            file=sys.stderr,
        )
        return 0

    if args.action == "show":
        if args.id is None:
            parser.error("catalog show: --id is required")
        if CATALOG.has_machine(args.id):
            emit(dumps_universe((CATALOG.machine(args.id),), ()), args.id)
        elif CATALOG.has_application(args.id):
            emit(dumps_universe((), (CATALOG.application(args.id),)), args.id)
        else:
            from repro.core.errors import UnknownIdError
            from repro.util.validation import nearest_ids

            known = CATALOG.machine_ids() + CATALOG.application_ids()
            raise UnknownIdError(
                "catalog entry", args.id, known, nearest_ids(args.id, known)
            )
        return 0

    if args.action == "export":
        # A snapshot of everything loaded (built-ins plus any mounted
        # universe).  No [universe] ref: the snapshot collides with the
        # built-ins by construction, so it documents rather than mounts.
        emit(
            dumps_universe(
                tuple(CATALOG.machine_map().values()),
                tuple(CATALOG.application_map().values()),
            ),
            f"{len(CATALOG.machine_ids())} machine(s), "
            f"{len(CATALOG.application_ids())} application(s)",
        )
        return 0

    # list: one line per loaded entry, built-ins first (catalog order).
    universe = CATALOG.universe
    if universe is not None:
        print(f"universe {universe.ref} mounted (digest {universe.digest()})")
    from_universe_machines = (
        {m.name for m in universe.machines} if universe is not None else set()
    )
    from_universe_apps = (
        {a.label for a in universe.applications} if universe is not None else set()
    )
    print(f"machines ({len(CATALOG.machine_ids())}):")
    for name, spec in CATALOG.machine_map().items():
        source = "universe" if name in from_universe_machines else "builtin"
        print(
            f"  {name:24s} {source:8s} {spec.cpus:6d} cpus  "
            f"{spec.description or spec.architecture}"
        )
    print(f"applications ({len(CATALOG.application_ids())}):")
    for label, app in CATALOG.application_map().items():
        source = "universe" if label in from_universe_apps else "builtin"
        counts = ",".join(str(c) for c in app.cpu_counts)
        print(f"  {label:24s} {source:8s} cpus [{counts}]  {app.description}")
    return 0


def _parse_float_list(parser, flag: str, text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        parser.error(f"{flag}: expected comma-separated numbers, got {text!r}")
    if not values:
        parser.error(f"{flag}: expected at least one value")
    return values


def _sensitivity_action(args, parser, metrics) -> int:
    """Sensitivity sweep: ``repro-study sensitivity``."""
    from pathlib import Path

    from repro.scenarios.sensitivity import SensitivityConfig, run_sensitivity

    overrides: dict = {}
    if metrics is not None:
        overrides["metrics"] = metrics
    if args.amplitudes is not None:
        overrides["noise_amplitudes"] = _parse_float_list(
            parser, "--amplitudes", args.amplitudes
        )
    if args.calibration_errors is not None:
        overrides["calibration_errors"] = _parse_float_list(
            parser, "--calibration-errors", args.calibration_errors
        )
    if args.sample_size is not None:
        overrides["sample_size"] = args.sample_size
    config = SensitivityConfig(
        family=args.family or "mixed",
        seed=args.seed,
        cells=args.cells,
        **overrides,
    )
    result = run_sensitivity(config, workers=args.workers, store=args.cache_dir)
    print(
        f"Sensitivity sweep over {config.family}:{config.seed}:{config.cells} "
        f"({result.machine_count} machine(s) x {result.application_count} "
        f"application(s) = {result.cell_count} cell(s), "
        f"digest {result.universe_digest})"
    )
    for title, points in (
        ("noise amplitude", result.noise),
        ("calibration error", result.calibration),
    ):
        if not points:
            continue
        print()
        print(f"{title} sweep")
        print(
            f"{title.split()[-1]:>10s} {'metric':>7s} {'tau':>7s} "
            f"{'rho':>7s} {'mean |err| %':>13s} {'p5..p95 signed %':>20s}"
        )
        for point in points:
            for number, stats in sorted(point.metrics.items()):
                span = (
                    f"{stats.p5_signed_error:.1f} .. {stats.p95_signed_error:.1f}"
                )
                print(
                    f"{point.amplitude:10.3f} {'#' + str(number):>7s} "
                    f"{stats.kendall_tau:7.3f} {stats.spearman_rho:7.3f} "
                    f"{stats.mean_abs_error:13.1f} {span:>20s}"
                )
    if args.report is not None:
        out = Path(args.report)
        report = json.loads(out.read_text()) if out.exists() else {}
        report["sensitivity"] = result.to_dict()
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(
            f"repro-study: sensitivity report merged into {out} "
            "(sensitivity section)"
        )
    return 0


def _sim_load_corpus_doc(path) -> tuple:
    """Parse one corpus/schedule file into (schedule, canary, expected).

    A file is either a bare :class:`~repro.sim.schedule.Schedule` doc
    (replay must hold every invariant) or a wrapper ``{"schedule": ...,
    "canary": ..., "expect_violation": ...}`` — the form ``sim shrink
    --out`` writes — which replays under the named canary and must fail
    with exactly the recorded invariant signature.
    """
    import json as _json

    from repro.sim import Schedule

    doc = _json.loads(path.read_text())
    if "schedule" in doc:
        schedule = Schedule.from_doc(doc["schedule"])
        return schedule, doc.get("canary"), doc.get("expect_violation")
    return Schedule.from_doc(doc), None, None


def _sim_action(args, parser) -> int:
    """Simulation harness: ``sim run`` / ``sim replay`` / ``sim shrink``."""
    import time
    from pathlib import Path

    from repro.sim import SCENARIO_NAMES, run_episode, shrink_episode

    if args.action == "shrink":
        if args.scenario in (None, "all"):
            parser.error("sim shrink: --scenario must name one scenario")
        minimal, signature = shrink_episode(
            args.scenario, args.seed, canary=args.canary
        )
        doc = {"schedule": minimal.to_doc(), "expect_violation": signature}
        if args.canary is not None:
            doc["canary"] = args.canary
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        if args.out is not None:
            Path(args.out).write_text(text)
            print(
                f"repro-study: sim shrink: {len(minimal.events)} event(s) "
                f"reproduce [{signature}]; written to {args.out}"
            )
        else:
            sys.stdout.write(text)
        return 0

    if args.action == "replay":
        if args.schedule is not None:
            paths = [Path(args.schedule)]
        else:
            paths = sorted(Path(args.corpus).glob("*.json"))
            if not paths:
                parser.error(f"sim replay: no *.json schedules under {args.corpus}")
        bad = 0
        for path in paths:
            schedule, canary, expected = _sim_load_corpus_doc(path)
            result = run_episode(
                schedule.scenario, schedule.seed, schedule=schedule, canary=canary
            )
            if expected is not None:
                ok = any(v["invariant"] == expected for v in result.violations)
                detail = f"expects [{expected}]"
            else:
                ok = result.ok
                detail = "expects clean"
            bad += not ok
            print(
                f"{path.name:40s} {'ok' if ok else 'FAIL':4s} "
                f"{schedule.scenario} seed={schedule.seed} "
                f"{len(schedule.events)} event(s), {detail}, "
                f"digest {result.digest}"
            )
            if not ok:
                for violation in result.violations:
                    print(f"  - {violation['message']}", file=sys.stderr)
        print(
            f"repro-study: sim replay: {len(paths) - bad}/{len(paths)} "
            f"schedule(s) behaved as committed"
        )
        return 1 if bad else 0

    # sim run: sweep seeded episodes, optionally merge a benchmark section.
    scenarios = (
        SCENARIO_NAMES
        if args.scenario in (None, "all")
        else (args.scenario,)
    )
    start = time.perf_counter()
    episodes = 0
    virtual_total = 0.0
    bad = 0
    for scenario in scenarios:
        scenario_bad = 0
        for seed in range(args.seed, args.seed + args.episodes):
            result = run_episode(scenario, seed, canary=args.canary)
            episodes += 1
            virtual_total += result.virtual_seconds
            if not result.ok:
                bad += 1
                scenario_bad += 1
                for violation in result.violations:
                    print(
                        f"repro-study: sim: {scenario} seed={seed}: "
                        f"{violation['message']}",
                        file=sys.stderr,
                    )
        print(
            f"{scenario:15s} {args.episodes} episode(s), "
            f"{scenario_bad} violation(s)"
        )
    elapsed = time.perf_counter() - start
    print(
        f"repro-study: sim run: {episodes} episode(s) covering "
        f"{virtual_total:,.0f} virtual second(s) in {elapsed:.2f}s wall; "
        f"{bad} with violations"
    )
    if args.report is not None:
        out = Path(args.report)
        report = json.loads(out.read_text()) if out.exists() else {}
        report["sim"] = {
            "episodes": episodes,
            "scenarios": list(scenarios),
            "violations": bad,
            "virtual_seconds": round(virtual_total, 3),
            "wall_seconds": round(elapsed, 3),
            "episodes_per_second": round(episodes / elapsed, 1) if elapsed else None,
        }
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"repro-study: sim report merged into {out} (sim section)")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``repro-study``.

    Failures never escape as raw tracebacks: each
    :class:`~repro.core.errors.ReproError` class maps to a one-line
    message on stderr and its own nonzero exit code, and Ctrl-C shuts the
    persistent worker pool down and exits 130.
    """
    try:
        return _run(argv)
    except ReproError as exc:
        print(f"repro-study: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        shutdown_pool()  # workers must not outlive an interrupted study
        print("repro-study: interrupted", file=sys.stderr)
        return 130


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _positive_seconds(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite number of seconds > 0, got {text!r}"
        )
    return value


def _directory_path(text: str) -> str:
    """A directory that exists or can be created: no file on its path."""
    path = Path(text)
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                raise argparse.ArgumentTypeError(f"{part} is not a directory")
            break
    return text


def _run(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-study",
        description="Reproduce the SC'05 simple-metrics prediction study.",
    )
    parser.add_argument(
        "artifact",
        choices=[
            "table4",
            "table5",
            "figures",
            "figure1",
            "appendix",
            "probes",
            "cost",
            "csv",
            "all",
            "serve",
            "store",
            "events",
            "sim",
            "catalog",
            "sensitivity",
        ],
        nargs="?",
        default="table4",
        help="which paper artifact to regenerate (default: table4), "
        "'store' for cache maintenance, 'events' for event-log audit, "
        "'sim' for the deterministic simulation harness, 'catalog' for "
        "scenario-catalog tooling, or 'sensitivity' for the generated-"
        "universe noise/calibration sweep",
    )
    parser.add_argument(
        "action",
        choices=[
            "info",
            "tail",
            "verify",
            "rebuild",
            "run",
            "replay",
            "shrink",
            "list",
            "show",
            "export",
            "gen",
        ],
        nargs="?",
        default=None,
        help="with 'store': 'info' prints format versions, entry counts "
        "and bytes (requires --cache-dir); with "
        "'events': 'tail' prints the newest events as JSON lines, 'verify' "
        "fscks every writer stream (exit 13 on damage), 'rebuild' "
        "reconstructs the projection views from the raw log (requires "
        "--events-dir); with 'sim': 'run' sweeps seeded chaos episodes "
        "under virtual time (exit 1 on any invariant violation), 'replay' "
        "re-executes the committed corpus under --corpus, 'shrink' "
        "delta-debugs a failing episode to a minimal reproducer; with "
        "'catalog': 'list' prints every loaded machine/application id, "
        "'show' prints one spec as TOML (--id), 'export' snapshots the "
        "loaded catalog as TOML, 'gen' grows a seeded universe file "
        "(--family/--seed/--cells)",
    )
    parser.add_argument(
        "--no-noise",
        action="store_true",
        help="disable run-to-run noise in the ground-truth executor",
    )
    parser.add_argument(
        "--mode",
        choices=list(Mode.values()),
        default="relative",
        help="convolver anchoring (default: relative, as the paper)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="LIST",
        help="comma-separated registry metrics to study — numbers (9), "
        "names (conv+maps, balanced) or a mix (default: Table 3's 1-9); "
        "unknown metrics exit with the nearest valid names",
    )
    parser.add_argument(
        "--metric-specs",
        default=None,
        metavar="FILE",
        help="register user metrics (#10+) from a TOML spec file before "
        "running (see README 'Custom metrics' for the format)",
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="processes to fan the study matrix over (default: 1, serial; "
        "output is byte-identical either way); with 'serve', engine "
        "workers behind the one HTTP front end: 1 runs in-process, N >= 2 "
        "forks a sharded fleet",
    )
    parser.add_argument(
        "--cache-dir",
        type=_directory_path,
        default=None,
        metavar="DIR",
        help="persist traces and probe results under DIR so repeated "
        "invocations skip the non-recurring costs",
    )
    parser.add_argument(
        "--events-dir",
        default=None,
        metavar="DIR",
        help="append an auditable event log under DIR ('serve': one writer "
        "stream per process) and read it back with the 'events' artifact",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="events tail: print the newest N events (default: 20; 0 for "
        "the full log)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="journal completed study chunks to FILE; a killed run resumes "
        "from the last completed chunk (byte-identical output) on the next "
        "invocation with the same FILE",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per study chunk before it is quarantined into the "
        "result's failures list (default: 2)",
    )
    parser.add_argument(
        "--chunk-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-chunk deadline; overrunning chunks are retried like "
        "crashes (default: none)",
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: address to bind the prediction service to "
        "(default: 127.0.0.1)",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8077,
        metavar="N",
        help="serve: TCP port (default: 8077; 0 picks a free port)",
    )
    parser.add_argument(
        "--deadline",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="serve: default per-request deadline when the request does "
        "not name one (default: 1.0)",
    )
    parser.add_argument(
        "--scenario",
        choices=["all", "serve-recovery", "study-resume", "coalesce"],
        default="all",
        help="sim: which scenario to run/shrink (default: all; shrink "
        "requires a single scenario)",
    )
    parser.add_argument(
        "--episodes",
        type=int,
        default=25,
        metavar="N",
        help="sim run: seeded episodes per scenario (default: 25)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="sim: first episode seed (run sweeps N..N+episodes-1; "
        "shrink targets exactly N); catalog gen / sensitivity: the "
        "universe generator seed (default: 0)",
    )
    parser.add_argument(
        "--canary",
        default=None,
        metavar="NAME",
        help="sim: re-introduce a known-fixed bug at the driver boundary "
        "('silent-degrade') so the harness can prove it still detects it",
    )
    parser.add_argument(
        "--schedule",
        default=None,
        metavar="FILE",
        help="sim replay: replay this one schedule JSON file instead of "
        "the corpus directory",
    )
    parser.add_argument(
        "--corpus",
        default="tests/corpus",
        metavar="DIR",
        help="sim replay: directory of committed schedule reproducers "
        "(default: tests/corpus)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="sim shrink / catalog show|export|gen: write the output "
        "(reproducer JSON, spec or universe TOML) to FILE instead of "
        "stdout",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="sim run / sensitivity: merge a 'sim' or 'sensitivity' "
        "section into the benchmark report JSON at FILE",
    )
    parser.add_argument(
        "--universe",
        default=None,
        metavar="REF",
        help="mount a scenario universe before any id resolves: "
        "'family:seed:cells' (e.g. 'mixed:42:1000') regenerates a seeded "
        "universe, anything else is read as a universe TOML path; study "
        "artifacts then sweep the universe's own matrix, and 'serve' "
        "accepts (and suggests) its ids",
    )
    parser.add_argument(
        "--id",
        default=None,
        metavar="NAME",
        help="catalog show: the machine name or application label to "
        "print as TOML",
    )
    parser.add_argument(
        "--family",
        default=None,
        metavar="NAME",
        help="catalog gen / sensitivity: generator family — hierarchy, "
        "numa, hotnode or mixed (sensitivity default: mixed)",
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=1000,
        metavar="N",
        help="catalog gen / sensitivity: minimum prediction-cell count "
        "of the generated universe (default: 1000)",
    )
    parser.add_argument(
        "--amplitudes",
        default=None,
        metavar="LIST",
        help="sensitivity: comma-separated noise amplitudes to sweep "
        "(default: 0,0.02,0.05,0.1,0.2)",
    )
    parser.add_argument(
        "--calibration-errors",
        default=None,
        metavar="LIST",
        help="sensitivity: comma-separated machine-spec calibration "
        "error magnitudes to sweep (default: 0,0.05,0.1)",
    )
    parser.add_argument(
        "--sample-size",
        type=int,
        default=None,
        metavar="N",
        help="sensitivity: per-cell tensor sample size (default and "
        "minimum: 64; larger is finer and slower)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic chaos harness: comma-separated key=value spec "
        "(crash=RATE, stall=RATE, corrupt=RATE, seed=N, stall_seconds=S, "
        "hard=0/1, abort_after=N), e.g. 'crash=0.25,stall=0.1,seed=7'",
    )
    args = parser.parse_args(argv)

    faults = None
    if args.inject_faults is not None:
        try:
            faults = FaultPlan.parse(args.inject_faults)
        except ValueError as exc:
            parser.error(str(exc))

    if args.metric_specs is not None:
        try:
            loaded = REGISTRY.load_toml(args.metric_specs)
        except OSError as exc:
            parser.error(f"--metric-specs: {exc}")
        except ValueError as exc:
            parser.error(str(exc))
        print(
            "repro-study: registered "
            + ", ".join(f"#{s.number} {s.name}" for s in loaded),
            file=sys.stderr,
        )

    # Resolved here (not in StudyConfig) so an unknown metric exits with
    # UnknownIdError's code and nearest-match hint, like the HTTP 400.
    metrics = None
    if args.metrics is not None:
        metrics = tuple(
            REGISTRY.spec(key.strip()).number
            for key in args.metrics.split(",")
            if key.strip()
        )
        if not metrics:
            parser.error("--metrics: expected at least one metric")
        try:
            check_distinct("metric", "--metrics", metrics)
        except ValueError as exc:
            parser.error(str(exc))

    universe = None
    if args.universe is not None:
        from repro.scenarios import mount_universe

        try:
            universe = mount_universe(args.universe)
        except OSError as exc:
            parser.error(f"--universe: {exc}")
        except ValueError as exc:
            parser.error(f"--universe: {exc}")

    if args.artifact == "store":
        if args.action != "info":
            parser.error("store: expected an action ('info')")
        if args.cache_dir is None:
            parser.error("store: --cache-dir is required")
        return _store_info(args.cache_dir)
    if args.artifact == "events":
        if args.action not in ("tail", "verify", "rebuild"):
            parser.error(
                "events: expected an action ('tail', 'verify' or 'rebuild')"
            )
        if args.events_dir is None:
            parser.error("events: --events-dir is required")
        return _events_action(args.action, args.events_dir, args.limit)
    if args.artifact == "sim":
        if args.action not in ("run", "replay", "shrink"):
            parser.error("sim: expected an action ('run', 'replay' or 'shrink')")
        return _sim_action(args, parser)
    if args.artifact == "catalog":
        if args.action not in ("list", "show", "export", "gen"):
            parser.error(
                "catalog: expected an action ('list', 'show', 'export' "
                "or 'gen')"
            )
        return _catalog_action(args, parser)
    if args.action is not None:
        parser.error(
            f"{args.action!r} only applies to the 'store', 'events', "
            "'sim' or 'catalog' artifact"
        )

    if args.artifact == "sensitivity":
        return _sensitivity_action(args, parser, metrics)
    if args.artifact == "serve":
        return _serve(args)

    needs_study = args.artifact in {
        "table4",
        "table5",
        "figures",
        "appendix",
        "cost",
        "csv",
        "all",
    }
    result = None
    if needs_study:
        from repro.study.runner import StudyConfig

        overrides = {} if metrics is None else {"metrics": metrics}
        if universe is not None:
            # Sweep the mounted universe's own matrix (predictions stay
            # anchored to the built-in base system).
            overrides["applications"] = tuple(
                a.label for a in universe.applications
            )
            overrides["systems"] = tuple(m.name for m in universe.machines)
        config = StudyConfig(
            mode=args.mode,
            noise=not args.no_noise,
            **overrides,
        )
        result = run_study(
            config,
            workers=args.workers,
            store=args.cache_dir,
            checkpoint=args.checkpoint,
            faults=faults,
            max_retries=args.max_retries,
            chunk_timeout=args.chunk_timeout,
        )
        for failure in result.failures:
            print(
                f"repro-study: warning: chunk {failure.application!r} "
                f"quarantined after {failure.attempts} attempt(s): "
                f"{failure.error}: {failure.message}",
                file=sys.stderr,
            )
        if result.failures and not result.records:
            raise StudyAbortedError(
                f"all {len(result.failures)} study chunks were quarantined; "
                "nothing to report"
            )

    if args.artifact in {"table4", "all"}:
        _print_table4(result)
    if args.artifact in {"table5", "all"}:
        _print_table5(result)
    if args.artifact in {"figure1", "all"}:
        _print_figure1()
    if args.artifact in {"figures", "all"}:
        _print_figures(result)
    if args.artifact in {"appendix", "all"}:
        _print_appendix(result)
    if args.artifact in {"cost", "all"}:
        _print_cost(result)
    if args.artifact in {"probes", "all"}:
        _print_probes()
    if args.artifact == "csv":
        sys.stdout.write(result_to_csv(result))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
