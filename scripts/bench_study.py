#!/usr/bin/env python
"""Wall-clock benchmark and regression gate of the full-study engine.

Runs the paper's 145-run / 1305-prediction matrix through
:func:`repro.study.runner.run_study` and reports throughput for each engine
configuration:

* ``serial_cold``   — fresh process state, ``workers=1`` (the headline number);
* ``serial_warm``   — in-memory trace/probe caches already populated;
* ``store_cold``    — serial with an empty on-disk :class:`TraceStore`;
* ``store_warm``    — serial against the now-populated store, with in-memory
  caches cleared (what a fresh CLI invocation with ``--cache-dir`` sees);
* ``parallel``      — ``workers=N`` fan-out (byte-identity is asserted).

Each configuration also records the engine's per-stage wall-clock breakdown
(probe / execute / trace / convolve) for its best repeat.

``--scale N`` multiplies the application axis with ``label@k`` replicas
(N x the matrix) so parallel speedup is measurable above the engine's
serial/parallel crossover; the scale is recorded in the report.

Gates (any failure exits 1):

* ``--budget SECONDS`` — absolute ceiling on the serial cold wall-clock;
* ``--gate-reference BENCH_study.json`` — regression gate: fails when
  serial-cold predictions/sec drop below the reference report's figure by
  more than ``--gate-tolerance`` (fractional, default 0.75 — generous
  because shared hardware shows multi-x scheduling noise; the gate exists
  to catch order-of-magnitude regressions such as a return to scalar
  kernels, which is a ~20x drop);
* ``--gate-pps FLOOR`` — absolute throughput gate: fails when the
  ``--gate-pps-config`` configuration (default ``serial_warm``) delivers
  fewer than FLOOR predictions/sec;
* ``--gate-store-overhead FRACTION`` — fails when ``store_cold`` costs more
  than FRACTION extra wall-clock over a storeless cold run timed in the
  same paired loop (the serialization tax of persisting every trace/probe
  bundle to the binary store; pairing cancels runner drift);
* ``--require-parallel-win`` — fails when the parallel run, on a fresh
  pool, is slower than serial cold at the same scale (25% noise margin —
  generous because on a capped single-core host both measurements are
  the same serial code path and differ only by scheduler noise).  The
  engine caps ``workers`` at the usable core count, so on a single-core
  host the parallel run degrades to serial and the gate asserts exactly
  the engine's "never slower than serial" guarantee.

Usage::

    PYTHONPATH=src python scripts/bench_study.py [--repeats 3] [--workers 4]
        [--scale N] [--budget SECONDS] [--gate-reference FILE]
        [--gate-tolerance FRACTION] [--gate-pps FLOOR]
        [--gate-pps-config NAME] [--gate-store-overhead FRACTION]
        [--require-parallel-win] [--output BENCH_study.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.apps.suite import APPLICATIONS
from repro.study.runner import StudyConfig, clear_study_caches, run_study
from repro.util.io import write_atomic

#: Serial cold wall-clock of the seed implementation (scalar kernels,
#: per-cell scalar convolution) measured on the reference container; the
#: issue's quoted figure on slower hardware was ~1.9 s.
SEED_BASELINE_SECONDS = 0.893

#: Stage keys always reported (missing stages print as 0).
STAGES = ("probe", "execute", "trace", "convolve")


def _clear_caches() -> None:
    # Every memo layer (trace, probe, execution, engine rows) and the
    # persistent pool's warm workers must drop, or a "cold" measurement
    # silently reuses warm state and lies.
    clear_study_caches()


def scaled_config(scale: int) -> StudyConfig:
    """The paper matrix, replicated ``scale``x along the application axis."""
    if scale <= 1:
        return StudyConfig()
    base = tuple(APPLICATIONS)
    labels = list(base)
    for k in range(1, scale):
        labels.extend(f"{label}@{k}" for label in base)
    return StudyConfig(applications=tuple(labels))


def _time(fn, repeats: int):
    """Best-of-``repeats`` wall-clock of ``fn()`` (best filters scheduler noise).

    Returns ``(best_seconds, all_seconds, best_run_result)``.
    """
    best, times, best_result = float("inf"), [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        if dt < best:
            best, best_result = dt, result
    return best, times, best_result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (best-of)")
    parser.add_argument("--workers", type=int, default=4, help="pool size for the parallel run")
    parser.add_argument(
        "--scale",
        type=int,
        default=1,
        metavar="N",
        help="replicate the application axis N times (label@k replicas) so "
        "parallel speedup is measurable (default: 1, the paper matrix)",
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fail (exit 1) if the serial cold run exceeds this wall-clock",
    )
    parser.add_argument(
        "--gate-reference",
        default=None,
        metavar="FILE",
        help="committed BENCH_study.json to gate predictions/sec against",
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=0.75,
        metavar="FRACTION",
        help="allowed fractional drop in serial-cold predictions/sec vs the "
        "gate reference before failing (default: 0.75)",
    )
    parser.add_argument(
        "--gate-pps",
        type=float,
        default=None,
        metavar="FLOOR",
        help="fail if the --gate-pps-config predictions/sec falls below FLOOR "
        "(absolute throughput gate, e.g. the issue's 10x-over-seed floor)",
    )
    parser.add_argument(
        "--gate-pps-config",
        default="serial_warm",
        metavar="NAME",
        help="which benched configuration --gate-pps applies to "
        "(default: serial_warm, the precompiled warm path)",
    )
    parser.add_argument(
        "--gate-store-overhead",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fail if store_cold costs more than FRACTION extra wall-clock "
        "over a paired storeless run (e.g. 0.10 caps the tax at 10%%)",
    )
    parser.add_argument(
        "--require-parallel-win",
        action="store_true",
        help="fail if the parallel run is slower than serial cold "
        "(25%% noise margin)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_study.json",
        help="where to write the JSON report (default: BENCH_study.json)",
    )
    args = parser.parse_args(argv)

    config = scaled_config(args.scale)
    results: dict[str, dict] = {}
    reference = run_study(config)  # also warms caches for the warm measurement

    def bench(name: str, fn, *, clear: bool) -> float:
        def run():
            if clear:
                _clear_caches()
            return fn()

        if not clear:
            run()  # warm-up: cold-start noise must not leak into a warm bench
        best, times, best_result = _time(run, args.repeats)
        n = reference.n_predictions
        stages = best_result.stage_seconds if best_result is not None else {}
        results[name] = {
            "best_seconds": round(best, 4),
            "all_seconds": [round(t, 4) for t in times],
            "predictions_per_second": round(n / best, 1),
            "stage_seconds": {
                k: round(stages.get(k, 0.0), 4) for k in STAGES
            },
        }
        print(f"{name:13s} {best:7.4f}s  ({n / best:,.0f} predictions/s)")
        return best

    serial_cold = bench("serial_cold", lambda: run_study(config), clear=True)

    # Bench the parallel path back-to-back with serial cold: the two are
    # compared by the --require-parallel-win gate, so measuring them under
    # the same process conditions keeps the comparison fair.
    _clear_caches()
    parallel = run_study(config, workers=args.workers)
    if parallel.records != reference.records or parallel.observed != reference.observed:
        print("FATAL: parallel output differs from serial", file=sys.stderr)
        return 1
    parallel_name = f"parallel_w{args.workers}"
    parallel_best = bench(
        parallel_name, lambda: run_study(config, workers=args.workers), clear=True
    )

    bench("serial_warm", lambda: run_study(config), clear=False)

    # Serialization tax: the extra wall-clock a cold run pays to persist every
    # trace and probe bundle, as a fraction of a storeless cold run.  Shared
    # runners drift by more than the effect over a bench's lifetime, so each
    # repeat times the two runs back-to-back (one machine-speed window per
    # pair) and the reported overhead is the *median* of the per-pair ratios
    # — never a comparison against the serial_cold measured minutes earlier,
    # and never a ratio of bests that may come from different windows.
    store_cold = float("inf")
    store_times: list[float] = []
    pair_ratios: list[float] = []
    for _ in range(args.repeats):
        _clear_caches()
        t0 = time.perf_counter()
        run_study(config)
        serial_seconds = time.perf_counter() - t0
        _clear_caches()
        with tempfile.TemporaryDirectory() as fresh_dir:
            t0 = time.perf_counter()
            run_study(config, store=fresh_dir)
            store_times.append(time.perf_counter() - t0)
        store_cold = min(store_cold, store_times[-1])
        pair_ratios.append(store_times[-1] / serial_seconds)
    pair_ratios.sort()
    median_ratio = pair_ratios[len(pair_ratios) // 2]
    n = reference.n_predictions
    results["store_cold"] = {
        "best_seconds": round(store_cold, 4),
        "all_seconds": [round(t, 4) for t in store_times],
        "predictions_per_second": round(n / store_cold, 1),
        "pair_ratios": [round(r, 4) for r in pair_ratios],
    }
    print(f"store_cold    {store_cold:7.4f}s  ({n / store_cold:,.0f} predictions/s)")

    with tempfile.TemporaryDirectory() as store_dir:
        run_study(config, store=store_dir)  # populate once
        bench("store_warm", lambda: run_study(config, store=store_dir), clear=True)

    store_overhead_ratio = median_ratio - 1.0
    print(f"store_cold overhead vs paired serial: {store_overhead_ratio:+.1%} (median of pairs)")

    report = {
        "matrix": {
            "scale": args.scale,
            "runs": reference.n_runs,
            "predictions": reference.n_predictions,
        },
        "seed_baseline_seconds": SEED_BASELINE_SECONDS,
        "speedup_vs_seed": round(SEED_BASELINE_SECONDS / serial_cold, 2),
        "store_overhead_ratio": round(store_overhead_ratio, 4),
        "parallel_byte_identical": True,
        "results": results,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    out = Path(args.output)
    # Atomic (tmp + os.replace): a crash mid-bench can never leave a torn
    # report where the committed CI gate baseline used to be.
    write_atomic(out, json.dumps(report, indent=2) + "\n")
    print(f"\nspeedup vs seed implementation: {report['speedup_vs_seed']}x")
    print(f"report written to {out}")

    failed = False
    if args.budget is not None and serial_cold > args.budget:
        print(
            f"FAIL: serial cold run {serial_cold:.3f}s exceeds budget {args.budget:.3f}s",
            file=sys.stderr,
        )
        failed = True
    if args.gate_reference is not None:
        ref = json.loads(Path(args.gate_reference).read_text())
        ref_pps = ref["results"]["serial_cold"]["predictions_per_second"]
        got_pps = results["serial_cold"]["predictions_per_second"]
        floor = ref_pps * (1.0 - args.gate_tolerance)
        if got_pps < floor:
            print(
                f"FAIL: serial cold {got_pps:,.0f} predictions/s regressed below "
                f"{floor:,.0f} (reference {ref_pps:,.0f} - {args.gate_tolerance:.0%})",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"gate ok: {got_pps:,.0f} predictions/s >= {floor:,.0f} "
                f"(reference {ref_pps:,.0f})"
            )
    if args.gate_pps is not None:
        cfg = args.gate_pps_config
        if cfg not in results:
            print(
                f"FAIL: --gate-pps-config {cfg!r} is not a benched "
                f"configuration (have: {', '.join(sorted(results))})",
                file=sys.stderr,
            )
            failed = True
        else:
            got_pps = results[cfg]["predictions_per_second"]
            if got_pps < args.gate_pps:
                print(
                    f"FAIL: {cfg} {got_pps:,.0f} predictions/s is below the "
                    f"{args.gate_pps:,.0f} floor",
                    file=sys.stderr,
                )
                failed = True
            else:
                print(
                    f"gate ok: {cfg} {got_pps:,.0f} predictions/s >= "
                    f"{args.gate_pps:,.0f} floor"
                )
    if args.gate_store_overhead is not None:
        if store_overhead_ratio > args.gate_store_overhead:
            print(
                f"FAIL: store_cold overhead {store_overhead_ratio:+.1%} exceeds "
                f"the {args.gate_store_overhead:.0%} ceiling",
                file=sys.stderr,
            )
            failed = True
        else:
            print(
                f"gate ok: store_cold overhead {store_overhead_ratio:+.1%} <= "
                f"{args.gate_store_overhead:.0%} ceiling"
            )
    if args.require_parallel_win and parallel_best > serial_cold * 1.25:
        print(
            f"FAIL: {parallel_name} ({parallel_best:.3f}s) is slower than "
            f"serial cold ({serial_cold:.3f}s) at --scale {args.scale}",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
