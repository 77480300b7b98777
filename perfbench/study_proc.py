"""The in-process study block, run in a fresh process by ``run.py``.

Usage::

    python3 perfbench/study_proc.py --matrix paper|universe --seed N \\
        --seconds S --work DIR [--spans DIR]

It imports ``repro``, builds the study configuration, runs one untimed
pass so lazy process-level set-up is done, clears every memo and prints
``ready`` (the parent times launch to this line as the study's set-up).
Then it repeats rounds of timed ``run_study`` passes for half of
``--seconds`` (at least one round), prints ``paused``, waits for a line
on standard input (the parent measures the serve block meanwhile) and
runs the second half.  Splitting the rounds this way spreads the study's
samples over the whole run, so a slow or fast minute of the machine
weighs less on their medians.  Each round is:

* **cold**: after ``clear_study_caches()``, no store;
* **store-write**: memos cleared, into an empty ``TraceStore`` directory
  (the flush ``run_study`` does before returning is timed);
* **store-read**: memos cleared, the store now populated;
* **warm**: memos kept, no store, repeated :data:`WARM_REPEATS` times,
  each between two timings of :func:`reference_loop`.

A full collection runs before every pass, outside the timed region, so a
pass never pays for garbage the previous one left.  The machine's speed
moves by up to 2x over seconds to minutes; the reference timings around
a warm pass say how fast it was then.  Every pass must yield the same
records; for the paper matrix the un-replicated block must also
equal ``tests/golden/study_records.json`` byte for byte.  Results go to
``DIR/study.json``; the records the serve phases check against go to
``DIR/records.json`` before the pause.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Replication of the paper matrix along the application axis: x16 makes
#: a cold pass last about a second, long enough to time steadily.
REPLICAS = 16

#: Generated-universe size (cells) for the ``universe`` matrix.
UNIVERSE_CELLS = 3000

#: Warm passes per round (each is 40-80 ms, too short to time once).
WARM_REPEATS = 10

#: Iterations of :func:`reference_loop`: 7-23 ms, as the speed of the
#: 2 GHz Xeon VM the bounds were measured on moved.
REFERENCE_ITERATIONS = 60000


def universe_ref(seed: int) -> str:
    return f"mixed:{seed}:{UNIVERSE_CELLS}"


def replica_indices(seed: int) -> list[int]:
    """The ``label@k`` suffixes of the replicated paper matrix."""
    return sorted(random.Random(seed).sample(range(1, 1000), REPLICAS - 1))


def rows_of(records) -> list[list]:
    return [
        [r.application, r.cpus, r.system, r.metric,
         r.actual_seconds, r.predicted_seconds, r.error_percent]
        for r in records
    ]


def reference_loop(n: int = REFERENCE_ITERATIONS) -> int:
    """A fixed pure-Python loop of dict updates and integer arithmetic.

    Nothing in the program can make it faster, so its time measures how
    fast the machine runs Python at that moment.
    """
    table: dict[int, int] = {}
    for i in range(n):
        key = i % 977
        table[key] = table.get(key, 0) + i
    return len(table)


def reference_seconds() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def machine_reference_ms() -> float:
    """Mean time of the reference loop on each CPU this process may use.

    The programs measured across processes run on all of them, and each
    CPU's speed changes on its own.
    """
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(reference_seconds())
    finally:
        os.sched_setaffinity(0, cpus)
    return 1e3 * sum(times) / len(times)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM of a process in MB (0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--matrix", choices=("paper", "universe"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    work = Path(args.work)

    sys.path.insert(0, str(ROOT / "src"))
    recorder = None
    if args.spans:
        from spans import install

        recorder = install(args.spans)
    from repro.study.runner import StudyConfig, clear_study_caches, run_study

    if args.matrix == "paper":
        from repro.scenarios.builtin import builtin_applications

        base = tuple(builtin_applications())
        labels = base + tuple(
            f"{label}@{k}" for k in replica_indices(args.seed) for label in base
        )
        config = StudyConfig(applications=labels)
    else:
        from repro.scenarios import mount_universe

        universe = mount_universe(universe_ref(args.seed))
        base = tuple(a.label for a in universe.applications)
        config = StudyConfig(
            applications=base, systems=tuple(m.name for m in universe.machines)
        )
    run_study(config)
    clear_study_caches()
    print("ready", flush=True)

    passes: dict[str, list[float]] = {"cold": [], "store_write": [], "store_read": [], "warm": []}
    windows: list[tuple[str, float, float]] = []
    reference = None
    failed = attempted = 0
    stores: list[str] = []
    store_bytes: list[int] = []
    reference_times: list[tuple[float, float]] = []

    def timed(name: str, **kwargs):
        nonlocal reference, failed, attempted
        gc.collect()
        before = reference_seconds() if name == "warm" else None
        start = time.perf_counter()
        result = run_study(config, **kwargs)
        end = time.perf_counter()
        if before is not None:
            reference_times.append((before, reference_seconds()))
        passes[name].append(end - start)
        windows.append((name, start, end))
        attempted += 1
        if reference is None:
            reference = result.records
        elif result.records != reference or result.failures:
            failed += 1

    def run_rounds(seconds: float) -> int:
        """At least one round; another only while it would end less than
        half a round (on average) past ``seconds``."""
        start = time.perf_counter()
        done = 0
        while True:
            one_round()
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / done / 2 > seconds:
                return done

    def one_round() -> None:
        clear_study_caches()
        for old in stores:
            shutil.rmtree(old, ignore_errors=True)
        stores.clear()
        timed("cold")
        clear_study_caches()
        store = tempfile.mkdtemp(prefix="store-", dir=work)
        stores.append(store)
        timed("store_write", store=store)
        store_bytes.append(
            sum(p.stat().st_size for p in Path(store).rglob("*") if p.is_file())
        )
        clear_study_caches()
        timed("store_read", store=store)
        for _ in range(WARM_REPEATS):
            timed("warm")

    rounds = run_rounds(args.seconds / 2)
    base_rows = rows_of(r for r in reference if r.application in set(base))
    (work / "records.json").write_text(json.dumps(base_rows))
    print("paused", flush=True)
    sys.stdin.readline()
    rounds += run_rounds(args.seconds / 2)
    for old in stores:
        shutil.rmtree(old, ignore_errors=True)

    checks = {"passes_identical": failed == 0}
    if args.matrix == "paper":
        golden = json.loads((ROOT / "tests" / "golden" / "study_records.json").read_text())
        checks["golden_records"] = json.dumps(base_rows) == json.dumps(golden["records"])
        if not checks["golden_records"]:
            failed += 1
    doc = {
        "matrix": args.matrix,
        "predictions": len(reference),
        "rounds": rounds,
        "passes": passes,
        "reference_times": reference_times,
        "windows": windows,
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "peak_rss_mb": peak_rss_mb(),
        "store_bytes": store_bytes,
    }
    (work / "study.json").write_text(json.dumps(doc))
    if recorder is not None:
        recorder.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
