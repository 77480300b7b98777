#!/usr/bin/env python3
"""The repository benchmark: one command, every end-to-end metric.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-single|universe-fleet \\
        --seed N --seconds S --trace 0|1

Each workload drives the program's two user-facing paths with its own
generated inputs, in fresh processes:

1. **study block**: a fresh process runs ``run_study`` passes (cold,
   store-write, store-read, warm) over the workload's matrix
   (``study_proc.py``), half of its rounds before the serve block and
   half after it;
2. **serve block**: ``repro-study serve`` is started three times
   (spawn until ``/readyz`` answers 200, plus a warm-up pass over the
   rows and machines); the last server then takes a closed-loop phase
   and an open-loop ladder of offered rates from one load-generator
   process (``loadgen.py``), and ``universe-fleet`` adds repeated
   ``POST /predict/batch`` calls; SIGTERM then drains it.

Every answer is checked (see ``README.md``); a failed check is a failed
operation and makes ``correct`` false.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``, which holds every end-to-end metric with ``--trace 0`` and
every per-layer metric with ``--trace 1`` (a run with the span wrappers
of ``spans.py`` installed).
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import math
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlencode

import loadgen
import reducer
from spans import layer_of
from study_proc import machine_reference_ms, peak_rss_mb, universe_ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Servers started per run; ``setup_s`` is the median of their set-ups.
SETUPS = 3

#: Keep-alive connections of the load generator (at most one per core).
CONNECTIONS = min(2, os.cpu_count() or 1)

#: Open-loop ladder of offered rates (requests/s); it stops after the
#: first failing step.  It starts below the single server's delayed-ACK
#: knee (40-45 req/s), so no step sits on it.
RATES = (25, 50, 100, 200, 400, 800)

#: Share of ``--seconds`` each phase measures.  The ladder's first step,
#: whose median latency is ``point.p50_ms``, gets :data:`FIRST_STEP_SHARE`;
#: the others :data:`STEP_SHARE` each (six steps when none fails).
STUDY_SHARE = 0.4
CLOSED_SHARE = 0.2
FIRST_STEP_SHARE = 0.12
STEP_SHARE = 0.05
BATCH_SHARE = 0.08

#: Point metrics requested per cell: 9 walks probe -> trace -> convolve,
#: 1 is probe-only.
POINT_METRICS = (9, 1)

#: Warm-up requests may take this long (a cold trace must not degrade).
WARMUP_DEADLINE_MS = 60000

#: Seconds a started process may take before the run gives up on it.
PROCESS_TIMEOUT_S = 120

WORKLOADS = ("paper-single", "universe-fleet")

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("study_peak_rss_mb", "MB"),
    ("study_warm_loops", "loops"),
    ("point_cpu_loops", "loops"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a check failure)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------
def cpu_seconds(pid: int) -> float:
    """CPU seconds the live threads of a process have run (nanosecond
    ``schedstat`` clock; 0 once the process is gone)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, IndexError, ValueError):
            pass
    return total / 1e9


def program_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")


class Server:
    """One ``repro-study serve`` process on an ephemeral port."""

    def __init__(self, flags: list[str], work: Path, index: int, spans: str | None):
        self.err_path = work / f"server{index}.err"
        prefix = (
            [sys.executable, str(HERE / "launch.py"), spans]
            if spans
            else [sys.executable, "-m", "repro"]
        )
        cmd = prefix + ["serve", "--host", "127.0.0.1", "--port", "0", *flags]
        self.started = time.perf_counter()
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                cmd, cwd=ROOT, env=program_env(),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
        self.host, self.port = "127.0.0.1", None

    def wait_ready(self) -> None:
        """Block until the port is announced and ``/readyz`` says 200."""
        limit = self.started + PROCESS_TIMEOUT_S
        while self.port is None:
            if self.proc.poll() is not None or time.perf_counter() > limit:
                raise BenchError(f"server did not start: {self.err_path.read_text()}")
            match = re.search(r"http://[\d.]+:(\d+)", self.err_path.read_text())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.005)
        while True:
            try:
                status, _ = self.get("/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > limit:
                raise BenchError(f"server never became ready: {self.err_path.read_text()}")
            time.sleep(0.005)

    def get(self, path: str) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM, then wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


class StudyBlock:
    """The ``study_proc.py`` process: half its rounds, a pause, the rest."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path, spans):
        cmd = [
            sys.executable, str(HERE / "study_proc.py"),
            "--matrix", workload.split("-")[0], "--seed", str(seed),
            "--seconds", str(seconds), "--work", str(work),
        ]
        if spans:
            cmd += ["--spans", spans]
        self.work, self.seconds = work, seconds
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=program_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self._expect("ready")
        #: Launch until imported, configured and warm.
        self.setup_s = time.perf_counter() - started
        self._expect("paused")

    def _expect(self, word: str) -> None:
        if self.proc.stdout.readline().strip() != word:
            self.close()
            raise BenchError(f"study block did not report {word!r} (exit {self.proc.poll()})")

    def finish(self) -> dict:
        """Run the second half; returns the block's report."""
        self.proc.stdin.write("go\n")
        self.proc.stdin.close()
        self.proc.stdout.read()
        code = self.proc.wait(timeout=PROCESS_TIMEOUT_S + self.seconds)
        if code != 0:
            raise BenchError(f"study block failed (exit {code})")
        report = json.loads((self.work / "study.json").read_text())
        report["pid"] = self.proc.pid
        return report

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------------
# the serve block
# ---------------------------------------------------------------------------
def point_requests(records, seed: int):
    """Every cell x POINT_METRICS as (path, expected value), seed-shuffled."""
    requests = [
        (
            "/predict?" + urlencode(
                {"application": app, "cpus": cpus, "machine": system, "metric": metric}
            ),
            predicted,
        )
        for app, cpus, system, metric, _actual, predicted, _error in records
        if metric in POINT_METRICS
    ]
    random.Random(seed).shuffle(requests)
    return requests


def warm_up(server: Server, records, batch_body: bytes | None) -> tuple[int, int]:
    """The batch (fleet only), then every row and every machine once.

    Returns (attempted, failed).  Part of set-up: the point phases must
    find probes, traces and base times already computed.
    """
    rows, machines = {}, {}
    for app, cpus, system, metric, _a, predicted, _e in records:
        if metric == 9:
            rows.setdefault((app, cpus), (system, predicted))
        elif metric == 1:
            machines.setdefault(system, (app, cpus, predicted))
    attempted = failed = 0
    conn = http.client.HTTPConnection(server.host, server.port, timeout=PROCESS_TIMEOUT_S)
    try:
        if batch_body is not None:
            conn.request("POST", "/predict/batch", batch_body)
            response = conn.getresponse()
            response.read()
            attempted += 1
            failed += response.status != 200
        queries = [(app, cpus, system, 9, v) for (app, cpus), (system, v) in rows.items()]
        queries += [(app, cpus, system, 1, v) for system, (app, cpus, v) in machines.items()]
        for app, cpus, system, metric, expected in queries:
            conn.request("GET", "/predict?" + urlencode({
                "application": app, "cpus": cpus, "machine": system,
                "metric": metric, "deadline_ms": WARMUP_DEADLINE_MS,
            }))
            response = conn.getresponse()
            attempted += 1
            failed += not loadgen.point_ok(response.status, response.read(), expected)
    finally:
        conn.close()
    return attempted, failed


def serve_flags(workload: str, seed: int, work: Path, index: int) -> tuple[list[str], dict]:
    if workload == "paper-single":
        return [], {}
    dirs = {"cache": work / f"cache{index}", "events": work / f"events{index}"}
    for path in dirs.values():
        path.mkdir()
    flags = [
        "--workers", "2", "--universe", universe_ref(seed),
        "--cache-dir", str(dirs["cache"]), "--events-dir", str(dirs["events"]),
    ]
    return flags, dirs


def health_counters(doc: dict) -> dict:
    """Flat counters from either front end's ``/healthz`` body."""
    services = [w.get("health", {}) for w in doc["workers"].values()] if "workers" in doc else [doc]
    out = {
        "degraded": sum(s["requests"]["degraded"] for s in services),
        "shed": sum(s["admission"]["shed_total"] for s in services),
        "lru_hits": sum(s["trace_cache"]["hits"] for s in services),
        "lru_misses": sum(s["trace_cache"]["misses"] for s in services),
        "leaders": doc.get("coalescing", {}).get("leaders_total", 0),
        "followers": doc.get("coalescing", {}).get("followers_total", 0),
    }
    return out


def run_serve_block(workload, seed, seconds, work, records, spans) -> dict:
    fleet = workload == "universe-fleet"
    batch_body = None
    if fleet:
        batch_body = json.dumps({
            "applications": list(dict.fromkeys(r[0] for r in records)),
            "systems": list(dict.fromkeys(r[2] for r in records)),
        }).encode()
    requests = point_requests(records, seed)
    out = {"setups": [], "attempted": 0, "failed": 0, "checks": {}}
    # The closed loop is split over the three servers: a server's
    # processes run some percent faster or slower than the next one's.
    closed_slices, index = [], 0
    server = None
    try:
        for setup in range(SETUPS):
            flags, dirs = serve_flags(workload, seed, work, setup)
            server = Server(flags, work, setup, spans if setup == SETUPS - 1 else None)
            server.wait_ready()
            attempted, failed = warm_up(server, records, batch_body)
            out["setups"].append(time.perf_counter() - server.started)
            out["attempted"] += attempted
            out["failed"] += failed
            _, before = server.get("/healthz")
            pids = [server.proc.pid]
            if fleet:
                pids += [w["pid"] for w in before["workers"].values()]
            cpu = lambda pids=pids: sum(cpu_seconds(pid) for pid in pids)  # noqa: E731
            if setup < SETUPS - 1:
                parts, index = asyncio.run(loadgen.closed_phase(
                    server.host, server.port, requests, connections=CONNECTIONS,
                    index=index, seconds=CLOSED_SHARE * seconds / 4, cpu=cpu,
                    reference=machine_reference_ms,
                ))
                closed_slices += parts
                code = server.stop()
                out["checks"][f"setup{setup}_exit_0"] = code == 0
                server = None

        points = asyncio.run(loadgen.point_phases(
            server.host, server.port, requests, connections=CONNECTIONS,
            start_index=index, closed_s=CLOSED_SHARE * seconds / 2, rates=RATES,
            first_step_s=FIRST_STEP_SHARE * seconds, step_s=STEP_SHARE * seconds,
            cpu=cpu, reference=machine_reference_ms,
        ))
        # Every server's slices for the end-to-end figures; the measured
        # (and, in a traced run, traced) server's alone for the layers.
        points["closed"] = loadgen.summarise_closed(closed_slices + points["closed_slices"])
        points["last_closed"] = loadgen.summarise_closed(points.pop("closed_slices"))
        batch = None
        if fleet:
            expected = json.dumps(records)
            batch = asyncio.run(loadgen.batch_phase(
                server.host, server.port, batch_body, BATCH_SHARE * seconds,
                lambda payload: json.dumps(json.loads(payload)["records"]) == expected,
            ))
            batch["predictions"] = len(records)
        _, after = server.get("/healthz")
        out["peak_rss_mb"] = sum(peak_rss_mb(pid) for pid in pids)
        code = server.stop()
        server = None
        out["checks"]["drain_exit_0"] = code == 0
        if fleet:
            out["checks"]["no_workers_left"] = not any(
                Path(f"/proc/{pid}").exists() for pid in pids[1:]
            )
            verify = subprocess.run(
                [sys.executable, "-m", "repro", "events", "verify",
                 "--events-dir", str(dirs["events"])],
                cwd=ROOT, env=program_env(), capture_output=True,
                timeout=PROCESS_TIMEOUT_S,
            )
            out["checks"]["events_verify"] = verify.returncode == 0
            out["events_bytes"] = sum(
                p.stat().st_size for p in dirs["events"].rglob("*") if p.is_file()
            )
    finally:
        if server is not None:
            server.stop()
    closed, steps = points["closed"], points["steps"]
    out["attempted"] += closed["attempted"] + sum(s["sent"] for s in steps)
    out["failed"] += closed["failed"] + sum(s["failed"] for s in steps)
    if batch is not None:
        out["attempted"] += batch["attempted"]
        out["failed"] += batch["failed"]
    out.update(points=points, batch=batch, before=before, after=after)
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def end_to_end(study: dict, serve: dict) -> dict:
    closed = serve["points"]["closed"]
    return {
        "setup_s": reducer.median(serve["setups"]),
        "peak_rss_mb": serve["peak_rss_mb"],
        "study_peak_rss_mb": study["peak_rss_mb"],
        # A warm pass in reference loops timed around it: the machine's
        # speed moves by up to 2x over seconds to minutes, a pass's cost
        # does not.
        "study_warm_loops": reducer.scaled_median(
            study["passes"]["warm"], study["reference_times"]
        ),
        # The servers' CPU time per correct answer in reference loops timed
        # around each closed-loop slice (undefined with no correct answer:
        # the worst value).
        "point_cpu_loops": closed["cpu_loops"] / closed["ok"] if closed["ok"]
        else sys.float_info.max,
    }


def reference_ms(study: dict) -> list[float]:
    """Every reference-loop time the study block took, in ms."""
    return [1e3 * t for pair in study["reference_times"] for t in pair]


def study_throughputs(study: dict) -> dict:
    """Predictions per second of the median pass of each kind."""
    n = study["predictions"]
    return {
        f"study.{kind}_pps": n / reducer.median(times)
        for kind, times in study["passes"].items()
    }


def load_spans(spans_dir: Path) -> list[dict]:
    docs = []
    for path in sorted(spans_dir.glob("*.json")):
        docs.append(json.loads(path.read_text()))
    return docs


def gc_in(doc: dict, windows) -> tuple[int, float]:
    pauses = [p for p in doc["gc"] if any(a <= p[0] <= b for a, b in windows)]
    return len(pauses), sum(b - a for a, b in pauses)


def _finite(value: float) -> float:
    """Percentiles that land on a failed request have no latency: -1."""
    return value if math.isfinite(value) else -1.0


def point_raw(serve: dict) -> dict:
    """The first step's median latency, the servers' CPU time per correct
    answer in the closed loop and the reference loop's time around it, in
    milliseconds."""
    closed, first = serve["points"]["closed"], serve["points"]["steps"][0]
    return {
        "point.p50_ms": _finite(first["p50_ms"]),
        "point.cpu_ms": 1e3 * closed["cpu_s"] / closed["ok"] if closed["ok"] else -1.0,
        "point.reference_ms": closed["reference_ms"],
    }


def study_layers(study: dict, docs: list[dict]) -> dict:
    doc = next(d for d in docs if d["pid"] == study["pid"])
    windows = [(a, b) for _name, a, b in study["windows"]]
    spans = reducer.in_windows(doc["spans"], windows)
    layers, names = reducer.summarise_spans(spans, layer_of)
    layer = lambda key, field: layers.get(key, {}).get(field, 0)  # noqa: E731
    name = lambda key, field: names.get(key, {}).get(field, 0)  # noqa: E731
    loads = ("TraceStore.load_trace", "TraceStore.load_probes")
    saves = ("TraceStore.save_trace", "TraceStore.save_probes")
    wall = sum(b - a for a, b in windows)
    collections, pause = gc_in(doc, windows)
    return {
        "probes.calls": layer("probes", "calls"),
        "probes.busy_s": layer("probes", "busy_s"),
        "tracing.calls": name("trace_application", "calls"),
        "tracing.traced": name("MetaSimTracer.trace", "calls"),
        "tracing.self_s": layer("tracing", "self_s"),
        "memory.busy_s": layer("memory", "busy_s"),
        "apps.calls": layer("apps", "calls"),
        "apps.cells": layer("apps", "count"),
        "apps.busy_s": layer("apps", "busy_s"),
        "core.calls": layer("core", "calls"),
        "core.rows": layer("core", "count"),
        "core.busy_s": layer("core", "busy_s"),
        "engine.self_s": layer("engine", "self_s"),
        "study.self_s": layer("study", "self_s"),
        "store.loads": sum(name(k, "calls") for k in loads),
        "store.load_misses": sum(name(k, "count") for k in loads),
        "store.load_s": sum(name(k, "busy_s") for k in loads),
        "store.saves": sum(name(k, "calls") for k in saves),
        "store.flush_s": name("TraceStore.flush", "busy_s") + name("TraceStore.close", "busy_s"),
        "store.bytes_written": reducer.median(study["store_bytes"]),
        **study_throughputs(study),
        "study.reference_ms": reducer.median(reference_ms(study)),
        "study.attributed_share": sum(r["self_s"] for r in layers.values()) / wall,
        "study.gc_collections": collections,
        "study.gc_pause_s": pause,
    }


def serve_layers(serve: dict, docs: list[dict], study_pid: int) -> dict:
    points = serve["points"]
    phases = [points["last_closed"], *points["steps"]]
    point_windows = points["last_closed"]["windows"] + [s["window"] for s in points["steps"]]
    batch_windows = [serve["batch"]["window"]] if serve["batch"] else []
    windows = point_windows + batch_windows
    client_ms = sum(sum(p["wire_ms"]) for p in phases)
    server_docs = [d for d in docs if d["pid"] != study_pid]
    totals: dict[str, dict] = {}
    engine_stack = predict_s = call_s = merge_s = 0.0
    frame_bytes = appends = 0
    append_s = mount_s = gc_pause = 0.0
    gc_collections = 0
    calls: dict[tuple, float] = {}
    handled: dict[tuple, float] = {}
    per_worker: dict[str, int] = {}
    for doc in server_docs:
        spans = reducer.in_windows(doc["spans"], windows)
        layers, names = reducer.summarise_spans(spans, layer_of)
        for key, row in layers.items():
            acc = totals.setdefault(key, {"self_s": 0.0, "busy_s": 0.0, "calls": 0})
            for field in acc:
                acc[field] += row[field]
        engine_stack += sum(
            layers.get(k, {}).get("self_s", 0.0)
            for k in ("engine", "probes", "tracing", "memory", "apps", "core", "store")
        )
        point_spans = reducer.in_windows(doc["spans"], point_windows)
        predict_s += sum(
            s[4] - s[3] for s in point_spans if s[2] == "PredictionService.predict"
        )
        for s in spans:
            if s[2] == "WorkerHandle.call" and s[5][2] in ("predict", "batch"):
                calls[(s[5][0], s[5][1])] = s[4] - s[3]
                if s[5][2] == "predict":
                    per_worker[s[5][0]] = per_worker.get(s[5][0], 0) + 1
                    if any(a <= s[3] <= b for a, b in point_windows):
                        call_s += s[4] - s[3]
            elif s[2] == "_handle_frame" and s[5][2] in ("predict", "batch"):
                handled[(s[5][0], s[5][1])] = s[4] - s[3]
        merge_s += names.get("FleetFrontend._predict_batch", {}).get("self_s", 0.0)
        frame_bytes += names.get("_send_frame", {}).get("count", 0)
        appends += names.get("EventLog.append", {}).get("calls", 0)
        append_s += sum(
            names.get(k, {}).get("busy_s", 0.0) for k in ("EventLog.append", "EventLog.commit")
        )
        mount_s += sum(
            s[4] - s[3] for s in doc["spans"] if s[2] == "mount_universe"
        )
        n, pause = gc_in(doc, windows)
        gc_collections += n
        gc_pause += pause
    before, after = health_counters(serve["before"]), health_counters(serve["after"])
    delta = {k: after[k] - before[k] for k in after}
    lru = delta["lru_hits"] + delta["lru_misses"]
    flights = delta["leaders"] + delta["followers"]
    has = lambda layer: any(  # noqa: E731
        d for d in server_docs if any(layer_of(s[2]) == layer for s in d["spans"])
    )
    total = lambda key, field: totals.get(key, {}).get(field, 0)  # noqa: E731
    matched = [calls[k] - handled[k] for k in calls if k in handled]
    return {
        "service.calls": total("service", "calls"),
        "service.self_s": total("service", "self_s"),
        "service.degraded": delta["degraded"],
        "service.trace_lru_hit_share": delta["lru_hits"] / lru if lru else 0.0,
        "admission.wait_s": total("admission", "busy_s"),
        "admission.shed": delta["shed"],
        "serve.engine_stack_s": engine_stack,
        "httpd.self_s": client_ms / 1e3 - predict_s if has("httpd") else 0.0,
        "frontend.self_s": client_ms / 1e3 - call_s if has("frontend") else 0.0,
        "frontend.batch_merge_s": merge_s,
        "fleet.hop_s": sum(matched),
        "fleet.frame_bytes": frame_bytes,
        "shard.max_share": max(per_worker.values()) / sum(per_worker.values())
        if per_worker else 0.0,
        "coalesce.follower_share": delta["followers"] / flights if flights else 0.0,
        "events.appends": appends,
        "events.append_s": append_s,
        "events.bytes": serve.get("events_bytes", 0),
        "scenarios.mount_s": mount_s,
        "serve.client_s": client_ms / 1e3,
        "serve.gc_collections": gc_collections,
        "serve.gc_pause_s": gc_pause,
        "batch.pps": (
            serve["batch"]["predictions"] / serve["batch"]["median_s"]
            if serve["batch"] else 0.0
        ),
    }


def import_layers() -> dict:
    """``import repro`` and the part of it spent in scipy's modules
    (their self times), from a fresh ``python -X importtime``."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=ROOT, env=program_env(), capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    repro_s = scipy_s = 0.0
    for line in result.stderr.splitlines():
        parts = line.partition(":")[2].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        module = parts[2].strip()
        if module == "repro":
            repro_s = int(parts[1]) / 1e6
        elif module.split(".")[0] == "scipy":
            scipy_s += int(parts[0]) / 1e6
    return {"import.repro_s": repro_s, "import.scipy_s": scipy_s}


def loadgen_layers(serve: dict) -> dict:
    points = serve["points"]
    steps = {s["rate"]: s for s in points["steps"]}
    lateness = [x for s in points["steps"] for x in s["lateness_ms"]]
    max_rate, achieved = reducer.ladder_max(
        (s["rate"], s["passed"], s["achieved_rps"]) for s in points["steps"]
    )
    out = {
        "point.closed_rps": points["closed"]["rps"],
        "ladder.max_rps": achieved,
        "ladder.max_step": max_rate,
        "loadgen.sent": points["closed"]["attempted"] + sum(s["sent"] for s in steps.values()),
        "loadgen.failed": points["closed"]["failed"] + sum(s["failed"] for s in steps.values()),
        "loadgen.late_p50_ms": reducer.percentile(lateness, 50) if lateness else 0.0,
        "loadgen.late_p99_ms": reducer.percentile(lateness, 99) if lateness else 0.0,
    }
    for rate in RATES:
        step = steps.get(rate)
        out.update({
            f"step{rate}.sent": step["sent"] if step else 0,
            f"step{rate}.ok": step["ok"] if step else 0,
            f"step{rate}.failed": step["failed"] if step else 0,
            f"step{rate}.late_p99_ms": _finite(step["late_p99_ms"]) if step else 0.0,
            f"step{rate}.p90_ms": _finite(step["p90_ms"]) if step else 0.0,
            f"step{rate}.p99_ms": _finite(step["p99_ms"]) if step else 0.0,
            f"step{rate}.cpu_ms": 1e3 * step["cpu_s"] / step["ok"] if step and step["ok"] else 0.0,
            f"step{rate}.backlog": int(step["backlog"]) if step else 0,
        })
    return out


PER_LAYER_UNITS = {
    "_s": "s", "_ms": "ms", "_share": "share", "bytes": "B", "_written": "B",
    "pps": "predictions/s", "_rps": "req/s", "max_step": "req/s",
}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    if name.startswith("traced."):
        return dict(END_TO_END)[name[len("traced."):]]
    return "count"


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
def print_report(workload: str, seed: int, study: dict, serve: dict, e2e: dict) -> None:
    print(f"perfbench {workload} seed={seed}")
    print(f"  study: {study['predictions']} predictions/pass, {study['rounds']} rounds")
    for name, times in study["passes"].items():
        print(
            f"    {name}: median {reducer.median(times):.4f}s, n={len(times)}, "
            f"quartile spread {reducer.quartile_spread(times):.3f}; "
            + " ".join(f"{t:.4f}" for t in times)
        )
    refs = reference_ms(study)
    print(
        f"    reference loop: median {reducer.median(refs):.2f} ms, "
        f"fastest {min(refs):.2f} ms, slowest {max(refs):.2f} ms"
    )
    closed = serve["points"]["closed"]
    print(
        f"  closed loop: {closed['attempted']} sent, {closed['failed']} failed, "
        f"{closed['rps']:.1f} req/s, p50 {reducer.median(closed['wire_ms']):.2f} ms, "
        f"server CPU {closed['cpu_s']:.3f}s"
    )
    for s in serve["points"]["steps"]:
        n = s["sent"]
        tail = reducer.highest_supported_percentile(n)
        print(
            f"  step {s['rate']:4d} req/s: sent {n} ok {s['ok']} failed {s['failed']} "
            f"share {s['ok_share']:.3f} backlog {'yes' if s['backlog'] else 'no'} "
            f"{'PASS' if s['passed'] else 'FAIL'}; p50 {s['p50_ms']:.2f} "
            f"p90 {s['p90_ms']:.2f} p99 {s['p99_ms']:.2f} ms "
            f"(highest supported p{tail}); lateness p50 {s['late_p50_ms']:.2f} "
            f"p99 {s['late_p99_ms']:.2f} ms"
        )
    max_rate, achieved = reducer.ladder_max(
        (s["rate"], s["passed"], s["achieved_rps"]) for s in serve["points"]["steps"]
    )
    print(f"  ladder: highest passing step {max_rate:g} req/s ({achieved:.1f} req/s met the limit)")
    if serve["batch"]:
        b = serve["batch"]
        print(f"  batch: {b['attempted']} calls, median {b['median_s']:.4f}s, {b['failed']} failed")
    print("  checks: " + ", ".join(
        f"{k}={'ok' if v else 'FAILED'}"
        for k, v in {**study["checks"], **serve["checks"]}.items()
    ))
    for name, value in point_raw(serve).items():
        print(f"  {name} = {value:.6g} ms")
    for name, value in study_throughputs(study).items():
        print(f"  {name} = {value:.6g} predictions/s")
    for name, unit in END_TO_END:
        print(f"  {name} = {e2e[name]:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    spans_dir = work / "spans"
    spans = None
    if args.trace:
        spans_dir.mkdir()
        spans = str(spans_dir)
    block = None
    try:
        block = StudyBlock(args.workload, args.seed, STUDY_SHARE * args.seconds, work, spans)
        records = json.loads((work / "records.json").read_text())
        serve = run_serve_block(args.workload, args.seed, args.seconds, work, records, spans)
        study = block.finish()
        study_setup = block.setup_s
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        if block is not None:
            block.close()
        docs = load_spans(spans_dir) if args.trace else []
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    e2e = end_to_end(study, serve)
    print_report(args.workload, args.seed, study, serve, e2e)
    checks = {**study["checks"], **serve["checks"]}
    failed = study["failed"] + serve["failed"] + sum(not ok for ok in checks.values())
    attempted = study["attempted"] + serve["attempted"] + len(checks)
    if args.trace:
        values = {
            **study_layers(study, docs),
            "study.setup_s": study_setup,
            **serve_layers(serve, docs, study["pid"]),
            **import_layers(),
            **loadgen_layers(serve),
            **point_raw(serve),
            **{f"traced.{k}": v for k, v in e2e.items()},
        }
        absent = sorted({a for d in docs for a in d["absent"]})
        values["trace.absent_entry_points"] = len(absent)
        for entry in absent:
            print(f"  absent layer entry point: {entry}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
