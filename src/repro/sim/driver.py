"""The episode driver: run a fault schedule against the real stack.

FoundationDB-style deterministic simulation, scaled to this codebase: an
episode builds *real* objects — :class:`~repro.serve.service.PredictionService`
with its breakers and event log, :class:`~repro.study.runner.run_study`
with its checkpoint and trace store, :class:`~repro.serve.coalesce.SingleFlight`
— wires them all to one :class:`~repro.util.clock.VirtualClock`, executes a
:class:`~repro.sim.schedule.Schedule`'s fault timeline against them, and
checks the :mod:`repro.sim.invariants` catalog throughout.  Sleeps advance
virtual time instead of blocking and compute takes zero virtual time, so an
episode that would wall-wait through ~60 s of stalls, breaker cooldowns and
retry backoffs finishes in milliseconds — and its transcript is a pure
function of the schedule, so the same seed produces byte-identical episodes
in any process.

The transcript is the episode's observable behaviour (responses served,
typed errors raised, breaker transitions, study outcomes) serialised
canonically; :attr:`EpisodeResult.digest` hashes it, which is what the
determinism pin and the regression corpus compare.

``canary`` re-introduces a known-fixed bug at the driver boundary (never
in production code) so the suite can prove the harness *detects* — see
:data:`CANARIES`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.errors import ReproError, StudyAbortedError
from repro.sim.invariants import (
    InvariantViolation,
    RecordingBreaker,
    check_breaker_transitions,
    check_error,
    check_journal,
    check_recovery,
    check_response,
    check_resume_identical,
)
from repro.sim.schedule import (
    SCENARIO_NAMES,
    CorruptStoreEntry,
    CrashStage,
    DropFollower,
    KillStudy,
    Schedule,
    SkewClock,
    StallStage,
    TruncateLogTail,
)
from repro.util.clock import VirtualClock, VirtualTimeLimitError
from repro.util.faults import FaultPlan
from repro.util.rng import stable_rng

__all__ = ["EpisodeResult", "ScheduleFaults", "run_episode", "CANARIES"]

#: Virtual seconds past the schedule horizon an episode may run before the
#: clock's deadlock guard trips (covers recovery advances + grown cooldowns).
HORIZON_MARGIN_SECONDS = 300.0

#: Virtual seconds between driven requests in the serve scenario.
REQUEST_PACE_SECONDS = 0.25

#: Known-fixed bugs the driver can re-introduce (at its own boundary; the
#: production code is untouched) to prove the harness still catches them.
#: ``silent-degrade`` re-creates the pre-PR-4 contract violation where a
#: fallback answer was served without the ``degraded`` flag.
CANARIES = ("silent-degrade",)

#: Fault-free golden study results, keyed by config identity — computed
#: once per process and shared by every study-resume episode.
_GOLDEN_CACHE: dict[str, object] = {}


@dataclass
class EpisodeResult:
    """Everything one simulated episode produced."""

    scenario: str
    seed: int
    schedule: Schedule
    transcript: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    virtual_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def digest(self) -> str:
        """Canonical hash of (schedule, transcript) — the determinism pin.

        Wall timing is deliberately excluded: two runs of one seed must
        produce the same digest on any machine, at any load.
        """
        canonical = json.dumps(
            {
                "scenario": self.scenario,
                "seed": self.seed,
                "schedule": self.schedule.to_doc(),
                "transcript": self.transcript,
                "violations": self.violations,
            },
            sort_keys=True,
        )
        return hashlib.blake2b(canonical.encode("utf-8"), digest_size=16).hexdigest()

    def to_doc(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "digest": self.digest,
            "violations": list(self.violations),
            "virtual_seconds": round(self.virtual_seconds, 6),
            "wall_seconds": round(self.wall_seconds, 6),
            "events": len(self.schedule.events),
            "transcript_entries": len(self.transcript),
        }


class ScheduleFaults:
    """A :class:`~repro.util.faults.FaultPlan`-shaped timeline adapter.

    The service's stage hook
    (:meth:`~repro.serve.service.PredictionService.run_stage`) asks
    ``should_stall(label, call)`` / ``should_crash(label, call)`` per
    stage call; this adapter answers from the schedule instead of from
    seeded Bernoulli draws: a :class:`StallStage`/:class:`CrashStage`
    event fires on the *first* matching stage call at or after its
    ``at`` instant, exactly once.  Deterministic because the driver runs
    the service single-threaded on the episode clock.
    """

    #: FaultPlan-protocol fields the store/runner may consult.
    corrupt_rate = 0.0
    abort_after = None

    def __init__(self, schedule: Schedule, clock: VirtualClock):
        self._clock = clock
        self._stalls = [e for e in schedule.events if isinstance(e, StallStage)]
        self._crashes = [e for e in schedule.events if isinstance(e, CrashStage)]
        self.stall_seconds = 0.0  # set per fired stall event
        self.fired: list[dict] = []  # transcript: which events actually hit

    def _take(self, pending: list, stage: str):
        now = self._clock.monotonic()
        for event in pending:
            if event.at <= now and event.stage == stage:
                pending.remove(event)
                self.fired.append({"t": round(now, 6), **event.to_doc()})
                return event
        return None

    def exhausted(self) -> bool:
        """Whether every stage-fault event has fired."""
        return not self._stalls and not self._crashes

    # -- FaultPlan protocol -------------------------------------------------
    def should_stall(self, label: str, attempt: int) -> bool:
        event = self._take(self._stalls, label.rpartition(":")[2])
        if event is None:
            return False
        self.stall_seconds = event.seconds
        return True

    def should_crash(self, label: str, attempt: int) -> bool:
        return self._take(self._crashes, label.rpartition(":")[2]) is not None

    def should_corrupt(self, *key) -> bool:
        return False


def _apply_canary(response, canary: str | None):
    """Re-introduce a known-fixed bug on the response path (tests only)."""
    if canary == "silent-degrade" and response.degraded:
        return dataclasses.replace(response, degraded=False)
    return response


# ---------------------------------------------------------------------------
# scenario: serve-recovery
# ---------------------------------------------------------------------------


def _run_serve_recovery(
    schedule: Schedule, clock: VirtualClock, transcript: list, canary: str | None
) -> None:
    """serve_chaos's single-process phases, on virtual time.

    Drives a paced stream of full-fidelity (metric 9) requests through a
    service whose stage faults, breaker cooldowns and deadlines all run
    on the episode clock; after the schedule is exhausted, advances past
    every cooldown and asserts full-fidelity recovery.
    """
    from repro.serve.breaker import BreakerBoard
    from repro.serve.service import STAGES, PredictionService

    breaker_opts = dict(
        failure_threshold=1, window_seconds=30.0, cooldown_seconds=0.5
    )
    transitions: list[tuple[str, str, str]] = []
    board = BreakerBoard(STAGES, clock=clock, **breaker_opts)
    for stage in STAGES:
        board.breakers[stage] = RecordingBreaker(
            stage, clock=clock, transitions=transitions, **breaker_opts
        )
    with tempfile.TemporaryDirectory(prefix="repro-sim-serve-") as tmp:
        service = PredictionService(
            noise=False,
            sample_size=64,
            default_deadline=5.0,
            stage_timeouts={"probe": 0.05, "trace": 0.05, "convolve": 0.05},
            breakers=board,
            events=Path(tmp) / "events",
            clock=clock,
        )
        try:
            faults = ScheduleFaults(schedule, clock)
            service.faults = faults

            rng = stable_rng("sim-requests", schedule.seed, schedule.scenario)
            apps = ("AVUS-standard", "HYCOM-standard", "RFCTH-standard")
            machines = ("ARL_Xeon", "ARL_Opteron", "NAVO_655")
            requested = 9

            def drive_one(phase: str) -> None:
                app = apps[int(rng.integers(0, len(apps)))]
                cpus = int(rng.integers(1, 5)) * 16
                machine = machines[int(rng.integers(0, len(machines)))]
                entry = {
                    "phase": phase,
                    "t": round(clock.monotonic(), 6),
                    "application": app,
                    "cpus": cpus,
                    "machine": machine,
                }
                try:
                    response = service.predict(app, cpus, machine, requested)
                except ReproError as exc:
                    check_error(exc)  # typed: fine, record the class
                    entry.update(error=type(exc).__name__)
                except InvariantViolation:
                    raise
                except Exception as exc:  # noqa: BLE001 - the 500 invariant
                    check_error(exc)
                    raise  # unreachable: check_error raised
                else:
                    response = _apply_canary(response, canary)
                    entry.update(
                        served_metric=response.served_metric,
                        degraded=response.degraded,
                        predicted=round(response.predicted_seconds, 9),
                        latency=round(response.latency_seconds, 6),
                    )
                    check_response(response, requested)
                    if phase == "recovered":
                        check_recovery(response)
                finally:
                    transcript.append(entry)
                check_breaker_transitions(transitions)

            # Phase 1: drive requests while the schedule plays out.
            pending_skews = [e for e in schedule.events if isinstance(e, SkewClock)]
            while clock.monotonic() < schedule.horizon or not faults.exhausted():
                now = clock.monotonic()
                for skew in [e for e in pending_skews if e.at <= now]:
                    pending_skews.remove(skew)
                    faults.fired.append({"t": round(now, 6), **skew.to_doc()})
                    clock.advance(skew.seconds)
                drive_one("chaos")
                clock.advance(REQUEST_PACE_SECONDS)

            # Phase 2: faults stop, cooldowns elapse, service must fully heal.
            service.faults = None
            clock.advance(60.0)  # past every backoff-grown cooldown (cap 16 s)
            drive_one("healing")  # half-open probes close the breakers
            drive_one("recovered")
            drive_one("recovered")

            transcript.append(
                {
                    "fired": faults.fired,
                    "transitions": [list(t) for t in transitions],
                    "health": {
                        "requests_total": service.requests_total,
                        "degraded_total": service.degraded_total,
                        "unserved_total": service.unserved_total,
                    },
                }
            )
        finally:
            service.drain()  # closes the event log before tmp goes
        check_journal(Path(tmp) / "events")


# ---------------------------------------------------------------------------
# scenario: study-resume
# ---------------------------------------------------------------------------


def _study_config():
    from repro.scenarios import list_applications
    from repro.study.runner import StudyConfig

    return StudyConfig(
        applications=tuple(sorted(list_applications()))[:3],
        systems=("ARL_Opteron", "ARL_Altix"),
        metrics=(1, 5, 9),
        sample_size=64,
        noise=False,
    )


def _golden_records(cfg):
    from repro.study.resilience import config_digest
    from repro.study.runner import run_study

    key = config_digest(cfg)
    if key not in _GOLDEN_CACHE:
        _GOLDEN_CACHE[key] = run_study(cfg)
    return _GOLDEN_CACHE[key].records


def _records_digest(records) -> str:
    h = hashlib.blake2b(digest_size=16)
    for record in records:
        h.update(repr(tuple(record)).encode("utf-8"))
        h.update(b"\x1e")
    return h.hexdigest()


def _run_study_resume(
    schedule: Schedule, clock: VirtualClock, transcript: list, canary: str | None
) -> None:
    """study_kill_resume on virtual time, plus at-rest damage.

    Kills the study mid-run (the schedule's :class:`KillStudy` event maps
    onto the fault plan's ``abort_after``), optionally corrupts a store
    entry and/or tears the checkpoint journal's tail while the study is
    "down", then resumes and asserts the result is byte-identical to the
    fault-free golden run and the journal fscks clean.
    """
    from repro.study.runner import run_study

    cfg = _study_config()
    golden = _golden_records(cfg)
    kills = [e for e in schedule.events if isinstance(e, KillStudy)]
    damage = [
        e
        for e in schedule.events
        if isinstance(e, (CorruptStoreEntry, TruncateLogTail))
    ]
    with tempfile.TemporaryDirectory(prefix="repro-sim-study-") as tmp:
        store_dir = Path(tmp) / "store"
        ckpt_dir = Path(tmp) / "checkpoint"
        aborted = 0
        for kill in kills:
            plan = FaultPlan(seed=schedule.seed, abort_after=kill.after_chunks)
            try:
                run_study(
                    cfg,
                    store=store_dir,
                    checkpoint=ckpt_dir,
                    faults=plan,
                    clock=clock,
                )
            except StudyAbortedError:
                aborted += 1
            else:
                # abort_after >= remaining chunks: the run just finished.
                break
        applied: list[dict] = []
        for event in damage:
            applied.append(event.to_doc())
            if isinstance(event, CorruptStoreEntry):
                entries = sorted(store_dir.glob("*/*.rpb"))
                if entries:
                    target = entries[event.selector % len(entries)]
                    blob = bytearray(target.read_bytes())
                    if blob:
                        blob[len(blob) // 2] ^= 0x01
                        target.write_bytes(bytes(blob))
            elif isinstance(event, TruncateLogTail):
                segments = sorted(ckpt_dir.glob("events-*.jsonl"))
                if segments:
                    tail = segments[-1]
                    size = tail.stat().st_size
                    with tail.open("rb+") as handle:
                        handle.truncate(max(0, size - event.drop_bytes))
        result = run_study(cfg, store=store_dir, checkpoint=ckpt_dir, clock=clock)
        if canary == "silent-degrade" and result.records:
            # The canary targets the serve scenario; in a study schedule it
            # has nothing to falsify, so it is a no-op here by design.
            pass
        check_resume_identical(result.records, golden)
        if result.failures:
            raise InvariantViolation(
                "resume-identical",
                f"resumed study quarantined chunks: {result.failures}",
            )
        if ckpt_dir.exists():
            check_journal(ckpt_dir)
        transcript.append(
            {
                "aborted_runs": aborted,
                "damage": applied,
                "records": len(result.records),
                "records_digest": _records_digest(result.records),
            }
        )


# ---------------------------------------------------------------------------
# scenario: coalesce
# ---------------------------------------------------------------------------


def _run_coalesce(
    schedule: Schedule, clock: VirtualClock, transcript: list, canary: str | None
) -> None:
    """Single-flight coalescing under follower cancellation.

    One leader plus four followers share a flight; each scheduled
    :class:`DropFollower` cancels one follower mid-flight.  Invariants:
    the leader's answer reaches every surviving follower, a cancelled
    follower never poisons the flight, and the next request after the
    flight becomes a fresh leader.
    """
    from repro.serve.coalesce import SingleFlight

    # Follower indices are 1..4 (0 is the leader, which is never dropped).
    drops = sorted(
        {1 + (e.follower % 4) for e in schedule.events if isinstance(e, DropFollower)}
    )

    async def episode() -> dict:
        flight = SingleFlight()
        release = asyncio.Event()

        async def compute():
            await release.wait()
            return 42.0

        async def follow(index: int):
            try:
                result, coalesced = await flight.run("cell", compute)
                return {"follower": index, "result": result, "coalesced": coalesced}
            except asyncio.CancelledError:
                return {"follower": index, "cancelled": True}

        leader = asyncio.ensure_future(follow(0))
        await asyncio.sleep(0)  # leader takes the flight
        followers = [asyncio.ensure_future(follow(i)) for i in range(1, 5)]
        await asyncio.sleep(0)  # followers join it
        for index in drops:
            followers[index - 1].cancel()
        await asyncio.sleep(0)
        release.set()
        outcomes = [await leader] + [await f for f in followers]
        fresh, coalesced = await flight.run("cell", compute_done)
        return {
            "outcomes": outcomes,
            "after": {"result": fresh, "coalesced": coalesced},
            "counters": flight.counters(),
        }

    async def compute_done():
        return 42.0

    report = asyncio.run(episode())
    outcomes = report["outcomes"]
    if outcomes[0].get("result") != 42.0 or outcomes[0].get("coalesced"):
        raise InvariantViolation(
            "coalesce-leader", f"leader outcome corrupted: {outcomes[0]}"
        )
    for outcome in outcomes[1:]:
        index = outcome["follower"]
        if index in drops:
            if not outcome.get("cancelled"):
                raise InvariantViolation(
                    "coalesce-cancel",
                    f"dropped follower {index} still got a result: {outcome}",
                )
        elif outcome.get("result") != 42.0 or not outcome.get("coalesced"):
            raise InvariantViolation(
                "coalesce-share",
                f"surviving follower {index} missed the shared answer: {outcome}",
            )
    if report["after"]["coalesced"] or report["after"]["result"] != 42.0:
        raise InvariantViolation(
            "coalesce-fresh",
            f"request after the flight should be a fresh leader: "
            f"{report['after']}",
        )
    transcript.append(report)


SCENARIOS = {
    "serve-recovery": _run_serve_recovery,
    "study-resume": _run_study_resume,
    "coalesce": _run_coalesce,
}
assert tuple(SCENARIOS) == SCENARIO_NAMES


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_episode(
    scenario: str,
    seed: int,
    *,
    schedule: Schedule | None = None,
    canary: str | None = None,
) -> EpisodeResult:
    """Run one episode; never raises on an invariant failure.

    Violations (including virtual-time deadlock and any untyped escape
    from the stack) land in :attr:`EpisodeResult.violations`; callers —
    the CLI sweep, the fuzz tests, the shrinker — branch on
    :attr:`EpisodeResult.ok`.
    """
    if canary is not None and canary not in CANARIES:
        raise ValueError(f"unknown canary {canary!r}; known: {CANARIES}")
    if schedule is None:
        schedule = Schedule.generate(seed, scenario)
    if schedule.scenario != scenario:
        raise ValueError(
            f"schedule is for scenario {schedule.scenario!r}, not {scenario!r}"
        )
    runner = SCENARIOS.get(scenario)
    if runner is None:
        raise ValueError(f"unknown scenario {scenario!r}; known: {SCENARIO_NAMES}")
    clock = VirtualClock(limit=schedule.horizon + HORIZON_MARGIN_SECONDS)
    result = EpisodeResult(scenario=scenario, seed=seed, schedule=schedule)
    start = time.perf_counter()  # wall diagnostics only, never control flow
    try:
        runner(schedule, clock, result.transcript, canary)
    except InvariantViolation as violation:
        result.violations.append(
            {"invariant": violation.invariant, "message": str(violation)}
        )
    except VirtualTimeLimitError as exc:
        result.violations.append({"invariant": "virtual-deadlock", "message": str(exc)})
    except Exception as exc:  # noqa: BLE001 - harness boundary: fold, don't crash
        result.violations.append(
            {
                "invariant": "typed-errors",
                "message": f"untyped {type(exc).__name__} escaped the stack: {exc}",
            }
        )
    result.virtual_seconds = clock.monotonic()
    result.wall_seconds = time.perf_counter() - start
    return result
