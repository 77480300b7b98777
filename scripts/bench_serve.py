#!/usr/bin/env python
"""Closed-loop HTTP benchmark and throughput gate for the serving fleet.

Boots real servers (asyncio front end + workers) on loopback and
measures the legs below end to end — HTTP parse, shard routing, worker
round-trip, JSON back:

* ``point_single``  — closed-loop ``GET /predict`` against the default
  one-worker server (the service in the front end's process): the
  baseline a single engine process can serve;
* ``point_fleet``   — the same load against ``--workers`` processes
  (shard routing keeps each worker's caches hot for its slice);
* ``coalesced``     — bursts of *identical* concurrent requests: the
  single-flight map collapses each burst to one engine call, so
  client-observed throughput decouples from engine throughput
  (the coalesce ratio is reported from ``/healthz``);
* ``batch``         — ``POST /predict/batch`` over the paper's full
  145-run / 1305-prediction matrix: cells ride the tensorized
  ``run_matrix`` path instead of N point lookups.

Each point leg is timed as :data:`POINT_SLICES` closed-loop slices of
``--requests`` requests, and the batch leg as ``--batch-repeats``
passes; the report gives every leg's median and quartiles of
predictions/sec.  The report lands in the committed benchmark file
(``--output``, default ``BENCH_study.json``) under a ``"serve"`` key,
merged so the study-bench sections survive.

Gates (any failure exits 1):

* ``--gate-serve-pps FLOOR`` — absolute floor on the batch leg's median
  predictions/sec;
* ``--gate-batch-speedup X`` — the batch leg's median must out-serve
  the 1-worker point baseline's median by at least ``X``x, measured in
  the same invocation so shared-runner drift cancels (this is the CI
  gate's ">= 5x" contract).

Usage::

    PYTHONPATH=src python scripts/bench_serve.py [--workers 2]
        [--requests 200] [--clients 8] [--bursts 8] [--burst-size 32]
        [--batch-repeats 10] [--gate-serve-pps FLOOR]
        [--gate-batch-speedup X] [--output BENCH_study.json]
"""

from __future__ import annotations

import argparse
import http.client
import json
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

from repro.apps.suite import APPLICATIONS, get_application
from repro.machines.registry import get_machine
from repro.serve.frontend import FleetServer
from repro.util.io import write_atomic

#: Request deadline for bench traffic — generous; the bench measures
#: throughput, not deadline pressure.
DEADLINE_MS = 30000.0

#: Target machine for the point legs (any mid-size system works; all
#: cells stay eligible).
POINT_MACHINE = "ARL_Xeon"

#: Closed-loop slices each point leg is timed over.
POINT_SLICES = 5


def _point_paths() -> list[str]:
    """The point-leg working set: every eligible (application, cpus) row."""
    paths = []
    machine_cpus = get_machine(POINT_MACHINE).cpus
    for label in APPLICATIONS:
        app = get_application(label)
        for cpus in app.cpu_counts:
            if cpus > machine_cpus:
                continue  # the paper leaves such cells blank
            paths.append(
                f"/predict?application={label}&cpus={cpus}"
                f"&machine={POINT_MACHINE}&metric=9&deadline_ms={DEADLINE_MS:g}"
            )
    return paths


def _get(conn: http.client.HTTPConnection, path: str) -> tuple[int, dict]:
    conn.request("GET", path)
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


def closed_loop(
    address: tuple[str, int], paths: list[str], total: int, clients: int
) -> tuple[float, list[int]]:
    """``total`` requests over ``clients`` keep-alive connections.

    Closed loop: each client fires its next request the moment the
    previous answer lands.  Returns (wall_seconds, statuses).
    """
    statuses: list[list[int]] = [[] for _ in range(clients)]
    per_client = total // clients

    def run(client: int) -> None:
        conn = http.client.HTTPConnection(*address, timeout=60)
        try:
            for i in range(per_client):
                path = paths[(client * per_client + i) % len(paths)]
                status, _ = _get(conn, path)
                statuses[client].append(status)
        finally:
            conn.close()

    threads = [threading.Thread(target=run, args=(c,)) for c in range(clients)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return wall, [s for client in statuses for s in client]


def spread(samples: list[float]) -> dict:
    """Median and quartiles of a leg's predictions/sec samples."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median": round(median, 1),
        "q1": round(q1, 1),
        "q3": round(q3, 1),
        "samples": [round(x, 1) for x in samples],
    }


def point_leg(
    leg: str, address: tuple[str, int], paths: list[str], args, check_statuses
) -> dict:
    """Warm every cell, then :data:`POINT_SLICES` timed closed-loop slices."""
    closed_loop(address, paths, len(paths), 1)
    rates = []
    for _ in range(POINT_SLICES):
        wall, statuses = closed_loop(address, paths, args.requests, args.clients)
        check_statuses(leg, statuses)
        rates.append(len(statuses) / wall)
    pps = spread(rates)
    print(
        f"{leg:<13} {pps['median']:9,.0f} predictions/s "
        f"(quartiles {pps['q1']:,.0f}-{pps['q3']:,.0f}, {POINT_SLICES} slices)"
    )
    return {"requests_per_slice": args.requests, "predictions_per_second": pps}


def coalesce_leg(
    address: tuple[str, int], bursts: int, burst_size: int, paths: list[str]
) -> tuple[float, list[int]]:
    """``bursts`` rounds of ``burst_size`` *identical* concurrent GETs."""
    statuses: list[int] = []
    lock = threading.Lock()
    start = time.perf_counter()
    for burst in range(bursts):
        path = paths[burst % len(paths)]

        def run() -> None:
            conn = http.client.HTTPConnection(*address, timeout=60)
            try:
                status, _ = _get(conn, path)
                with lock:
                    statuses.append(status)
            finally:
                conn.close()

        threads = [threading.Thread(target=run) for _ in range(burst_size)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return time.perf_counter() - start, statuses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2, metavar="N")
    parser.add_argument("--requests", type=int, default=200, metavar="N")
    parser.add_argument("--clients", type=int, default=8, metavar="N")
    parser.add_argument("--bursts", type=int, default=8, metavar="N")
    parser.add_argument("--burst-size", type=int, default=32, metavar="N")
    parser.add_argument("--batch-repeats", type=int, default=10, metavar="N")
    parser.add_argument(
        "--gate-serve-pps",
        type=float,
        default=None,
        metavar="FLOOR",
        help="fail if batch-leg predictions/sec falls below FLOOR",
    )
    parser.add_argument(
        "--gate-batch-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail if the batch leg does not out-serve the 1-worker point "
        "baseline by at least X times (same-run comparison)",
    )
    parser.add_argument("--output", default="BENCH_study.json")
    args = parser.parse_args(argv)
    if args.batch_repeats < 2:
        parser.error("--batch-repeats must be >= 2 (the report gives quartiles)")

    paths = _point_paths()
    results: dict[str, dict] = {}
    failures: list[str] = []

    def check_statuses(leg: str, statuses: list[int]) -> None:
        bad = sorted({s for s in statuses if s != 200})
        if bad:
            failures.append(f"{leg}: non-200 statuses {bad}")

    # ------------------------------------------------------------------
    # Leg 1: single-worker point baseline.
    # ------------------------------------------------------------------
    with FleetServer(1, default_deadline=DEADLINE_MS / 1000.0) as single:
        results["point_single"] = {
            "workers": 1,
            **point_leg("point_single", single.address, paths, args, check_statuses),
        }

    # ------------------------------------------------------------------
    # Legs 2-4 share one fleet.
    # ------------------------------------------------------------------
    with FleetServer(args.workers, default_deadline=DEADLINE_MS / 1000.0) as fleet:
        address = fleet.address
        results["point_fleet"] = {
            "workers": args.workers,
            **point_leg("point_fleet", address, paths, args, check_statuses),
        }

        wall, statuses = coalesce_leg(address, args.bursts, args.burst_size, paths)
        check_statuses("coalesced", statuses)
        conn = http.client.HTTPConnection(*address, timeout=60)
        _, health = _get(conn, "/healthz")
        conn.close()
        co = health["coalescing"]
        answered = co["leaders_total"] + co["followers_total"]
        ratio = co["followers_total"] / answered if answered else 0.0
        results["coalesced"] = {
            "bursts": args.bursts,
            "burst_size": args.burst_size,
            "seconds": round(wall, 4),
            "requests_per_second": round(len(statuses) / wall, 1),
            "followers_total": co["followers_total"],
            "leaders_total": co["leaders_total"],
            "coalesce_ratio": round(ratio, 4),
        }
        print(
            f"coalesced     {wall:7.3f}s  "
            f"({len(statuses) / wall:,.0f} responses/s, "
            f"{ratio:.0%} served by coalescing)"
        )

        count, batch_rates = None, []
        for _ in range(args.batch_repeats):
            conn = http.client.HTTPConnection(*address, timeout=600)
            t0 = time.perf_counter()
            conn.request(
                "POST",
                "/predict/batch",
                body=b"{}",
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            body = json.loads(resp.read())
            dt = time.perf_counter() - t0
            conn.close()
            if resp.status != 200:
                failures.append(f"batch: status {resp.status}: {body}")
                break
            count = body["count"]
            batch_rates.append(count / dt)
        batch = spread(batch_rates) if len(batch_rates) == args.batch_repeats else None
        results["batch"] = {
            "workers": args.workers,
            "cells": count,
            "passes": len(batch_rates),
            "predictions_per_second": batch,
        }
        if batch is not None:
            print(
                f"batch         {batch['median']:9,.0f} predictions/s "
                f"(quartiles {batch['q1']:,.0f}-{batch['q3']:,.0f}, "
                f"{args.batch_repeats} passes)"
            )

    batch_pps = batch["median"] if batch is not None else 0.0
    speedup = batch_pps / results["point_single"]["predictions_per_second"]["median"]
    print(f"\nbatch vs 1-worker point baseline (ratio of medians): {speedup:.1f}x")

    # ------------------------------------------------------------------
    # Merge the serve section into the committed benchmark report.
    # ------------------------------------------------------------------
    out = Path(args.output)
    report = json.loads(out.read_text()) if out.exists() else {}
    report["serve"] = {
        "results": results,
        "batch_speedup_vs_point_single": round(speedup, 1),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    write_atomic(out, json.dumps(report, indent=2) + "\n")
    print(f"report written to {out} (serve section)")

    if args.gate_serve_pps is not None:
        if batch_pps < args.gate_serve_pps:
            failures.append(
                f"batch {batch_pps:,.0f} predictions/s is below the "
                f"{args.gate_serve_pps:,.0f} floor"
            )
        else:
            print(
                f"gate ok: batch {batch_pps:,.0f} predictions/s >= "
                f"{args.gate_serve_pps:,.0f} floor"
            )
    if args.gate_batch_speedup is not None:
        if speedup < args.gate_batch_speedup:
            failures.append(
                f"batch leg is only {speedup:.1f}x the 1-worker point "
                f"baseline (need >= {args.gate_batch_speedup:g}x)"
            )
        else:
            print(
                f"gate ok: batch leg {speedup:.1f}x >= "
                f"{args.gate_batch_speedup:g}x point baseline"
            )

    if failures:
        for failure in failures:
            print(f"bench-serve: FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench-serve: all gates held")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
