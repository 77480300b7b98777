"""Persistent on-disk cache of traces and probe results — self-healing.

Tracing is the methodology's non-recurring cost ("it is only required once
per application on the base system" — paper Section 3) and probing ten
production systems is a scheduling exercise, yet every fresh process pays
both again because the in-memory caches die with it.  A :class:`TraceStore`
makes the caches durable: repeated studies, ablation sweeps and CLI
invocations skip re-tracing and re-probing entirely, and parallel study
workers share one warm store instead of each re-deriving the same traces.

Entries are the binary records of :mod:`repro.tracing.binfmt` —
``<digest>.rpb`` files whose NumPy sections load zero-copy via
``np.memmap`` straight into the tensorised execute/convolve pipeline (no
per-block Python object reconstruction), with a BLAKE2b checksum and a
format version in the prelude.  Writes are atomic (temp file + rename) so
concurrent workers can race on the same entry without corrupting it, and
*deferred*: a save just records the entry (even the encode is lazy) and a
background writer drains the backlog in batches on its own poll cadence,
overlapping the study's compute — batching matters because waking the
writer once per save costs more in GIL convoys than the writes
themselves.  Reads of an entry whose write is still in flight
synchronise first, and :meth:`TraceStore.flush` blocks until the backlog
is written (the study runner flushes before returning), so the deferral
is observable only as lower wall-clock.
Entries are keyed by a BLAKE2b digest of their full identity — for probes
that includes the machine spec's content
:meth:`~repro.machines.spec.MachineSpec.fingerprint`, so editing a spec
invalidates its cached probes automatically.

Files of any other name in the store directories — such as the
``<digest>.json`` entries of earlier builds — are never read: the lookup
misses and the caller re-traces, like any other cold entry.

**Self-healing:** a load that fails *any* validation step — unreadable
file, bad magic, foreign format version, length mismatch (truncation,
torn write), checksum mismatch (bit rot), malformed header, stale payload
schema — logs a warning, deletes the entry, counts it in
:attr:`TraceStore.invalidated` and returns ``None``, so the caller
transparently re-traces and re-saves.  A corrupt cache can therefore
never fail a study, only slow it down.
"""

from __future__ import annotations

import atexit
import hashlib
import logging
import os
import threading
import weakref
from collections.abc import Callable
from pathlib import Path

from repro.core.errors import TraceCorruptError
from repro.events.types import Event, ProbeCompleted, StoreInvalidated, TraceCaptured
from repro.machines.spec import MachineSpec
from repro.probes.results import MachineProbes
from repro.tracing import binfmt
from repro.tracing.binfmt import SCHEMA_VERSION
from repro.util.clock import as_clock
from repro.util.io import write_atomic_bytes
from repro.util.options import CacheModel

__all__ = ["TraceStore", "trace_key", "probes_key"]

log = logging.getLogger(__name__)

#: Suffix of store entries (:mod:`repro.tracing.binfmt` records).
BINARY_SUFFIX = ".rpb"


#: Live stores with write-behind backlogs; the atexit hook drains them so
#: an interpreter exit between runner flush points (Ctrl-C, sys.exit from
#: a script) cannot drop encoded-but-unwritten entries.
_LIVE_STORES: "weakref.WeakSet[TraceStore]" = weakref.WeakSet()


def _flush_stores_at_exit() -> None:
    for store in list(_LIVE_STORES):
        try:
            store._drain_inline()
        except Exception:  # pragma: no cover - last-ditch, never raise at exit
            log.exception("trace store flush at interpreter exit failed")


atexit.register(_flush_stores_at_exit)


def _digest(*keys: object) -> str:
    h = hashlib.blake2b(digest_size=16)
    for key in keys:
        h.update(repr(key).encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


def trace_key(
    application: str,
    cpus: int,
    base_machine: str,
    sample_size: int,
    cache_sim: bool = False,
    cache_model: str | None = "analytic",
) -> str:
    """The content digest naming a trace identity in every store.

    This is the public form of the digest that stems ``<digest>.rpb``
    entries on disk; the serve fleet reuses it as the consistent-hashing
    shard key, so "which worker owns this trace" and "which file holds
    it" are the same question.  ``cache_model`` only shapes the artifact
    when cache accounting ran, mirroring the tracer's own identity rule.
    """
    model = str(CacheModel.coerce(cache_model)) if cache_sim else None
    return _digest(
        "trace",
        SCHEMA_VERSION,
        application,
        int(cpus),
        base_machine,
        int(sample_size),
        bool(cache_sim),
        model,
    )


def probes_key(machine: MachineSpec) -> str:
    """The content digest naming a machine's probe bundle in every store."""
    return _digest("probes", SCHEMA_VERSION, machine.name, machine.fingerprint())


class TraceStore:
    """Directory-backed cache of serialised traces and probe bundles.

    Parameters
    ----------
    root:
        Cache directory; created (with parents) on first use.  Safe to share
        between processes and to delete wholesale at any time.
    faults:
        Optional :class:`~repro.util.faults.FaultPlan`; when its
        ``corrupt_rate`` fires, a save writes deterministically damaged
        bytes — the chaos harness's way of proving the checksummed load
        path heals instead of raising.
    events:
        Optional :class:`~repro.events.log.EventLog` (or anything with an
        ``append(event)``) the store's durability events are appended to:
        ``trace-captured``/``probe-completed`` on save,
        ``store-invalidated`` on self-heal.  Event-log trouble never
        fails the store — emission is best-effort by design.

    Attributes
    ----------
    invalidated:
        Count of entries this instance deleted because they failed
        validation (diagnostic; the chaos tests assert it moves and the
        service's ``/healthz`` reports it).  Since the durability core
        landed this is a read-only projection over the store's own
        ``store-invalidated`` events, so the number on ``/healthz``, in
        ``store info`` and in an attached event log are one fact.
    """

    #: Idle seconds after which a store's background writer thread exits
    #: (it restarts on the next save, so short-lived stores — one per
    #: study chunk in pool workers — never accumulate threads).
    WRITER_IDLE_SECONDS = 1.0

    #: Seconds the writer sleeps between drain rounds.  Saves do *not*
    #: wake it (only :meth:`flush` does): letting entries accumulate and
    #: draining them in batches keeps the thread to a handful of wakeups
    #: per study instead of one GIL convoy per save — on a single core
    #: the per-item wakeups cost several times the writes themselves.
    WRITER_POLL_SECONDS = 0.02

    def __init__(
        self, root: str | os.PathLike, *, faults=None, events=None, clock=None
    ):
        self.root = Path(root)
        self.traces_dir = self.root / "traces"
        self.probes_dir = self.root / "probes"
        self.traces_dir.mkdir(parents=True, exist_ok=True)
        self.probes_dir.mkdir(parents=True, exist_ok=True)
        self.faults = faults
        self.events = events
        # Paces the background writer (poll waits + idle-exit timing).
        # Note the writer thread only *reads* a virtual clock — it never
        # advances one — so under simulation it keeps draining promptly
        # (Clock.wait maps to a tiny real wait) without perturbing the
        # episode's deterministic timeline.
        self._clock = as_clock(clock)
        self._invalidated = 0
        self._lock = threading.Lock()
        # Write-behind state: saves enqueue encoded bytes (or zero-arg
        # encoders) here and a daemon thread drains them to disk in
        # batches while the study computes on.  The condition (sharing
        # the store lock) lets flush() wait for "pending empty and no
        # batch in flight"; the kick event lets flush skip the writer's
        # batching sleep.
        self._pending: dict[Path, "bytes | Callable[[], bytes]"] = {}
        self._cond = threading.Condition(self._lock)
        self._kick = threading.Event()
        self._in_flight = False
        self._writer: threading.Thread | None = None
        # Identity -> entry path memo.  A cold study resolves every cell's
        # identity twice (miss-check, then save); hashing the key tuple is
        # ~10x cheaper than re-deriving the blake2b stem and suffixed Path
        # each time.  Bounded by the number of distinct identities a
        # process touches (apps x cpu counts x machines).
        self._trace_paths: dict[tuple, Path] = {}
        self._probes_paths: dict[tuple, Path] = {}
        _LIVE_STORES.add(self)

    # ------------------------------------------------------------------
    # durability events
    # ------------------------------------------------------------------
    @property
    def invalidated(self) -> int:
        """Entries this instance self-healed (fold of its invalidation events)."""
        with self._lock:
            return self._invalidated

    def _emit(self, event: Event) -> None:
        """Fold ``event`` into local accounting and the attached log.

        Called outside :attr:`_lock` — the event log has its own lock and
        doing file I/O inside the store's critical section would stall
        every reader behind an fsync.
        """
        if isinstance(event, StoreInvalidated):
            with self._lock:
                self._invalidated += 1
        if self.events is None:
            return
        try:
            self.events.append(event)
        except (OSError, ValueError) as exc:
            log.warning("could not append %s event to event log: %s",
                        type(event).kind, exc)

    # ------------------------------------------------------------------
    def _trace_path(
        self,
        application: str,
        cpus: int,
        base_machine: str,
        sample_size: int,
        cache_sim: bool,
        cache_model: str | None,
    ) -> Path:
        """Memoized entry path for one trace identity."""
        key = (application, cpus, base_machine, sample_size, cache_sim, cache_model)
        path = self._trace_paths.get(key)
        if path is None:
            path = (self.traces_dir / trace_key(*key)).with_suffix(BINARY_SUFFIX)
            self._trace_paths[key] = path
        return path

    def _probes_path(self, machine: MachineSpec) -> Path:
        """Memoized entry path for one probe identity."""
        key = (machine.name, machine.fingerprint())
        path = self._probes_paths.get(key)
        if path is None:
            path = (self.probes_dir / probes_key(machine)).with_suffix(BINARY_SUFFIX)
            self._probes_paths[key] = path
        return path

    # ------------------------------------------------------------------
    # binary entries
    # ------------------------------------------------------------------
    def _enqueue_entry(self, path: Path, data) -> None:
        """Queue one entry for the background writer (write-behind).

        ``data`` is either the encoded bytes or a zero-argument callable
        producing them: deferring the encode keeps even the serialisation
        cost off the compute path (the writer thread encodes on another
        core).  Fault corruption is applied by the writer, keyed on the
        entry name, so the bytes on disk match what a synchronous save
        would have produced.  Loads of a pending path flush first (see
        :meth:`_sync_pending`), so deferral is invisible to every reader.

        A save deliberately does *not* wake the writer: it drains on its
        own poll cadence so a burst of saves costs one thread wakeup, not
        one per entry.
        """
        _LIVE_STORES.add(self)
        with self._lock:
            self._pending[path] = data
            if self._writer is None:
                self._writer = threading.Thread(
                    target=self._drain_writes,
                    name="trace-store-writer",
                    daemon=True,
                )
                self._writer.start()

    def _write_one(self, path: Path, data) -> None:
        """Encode (if deferred), fault-corrupt and write one entry."""
        try:
            payload = data() if callable(data) else data
            if self.faults is not None and self.faults.should_corrupt(path.name):
                payload = self.faults.corrupt_bytes(payload, path.name)
            # durable=False: entries are checksummed and self-healing, so a
            # machine crash that tears one costs a re-trace, not correctness;
            # skipping the per-file fsync keeps the store tax on a cold study
            # to a few percent instead of ~40%.
            write_atomic_bytes(path, payload, durable=False)
        except (OSError, ValueError) as exc:
            log.warning(
                "deferred write of store entry %s failed (%s); "
                "it will be recomputed next time",
                path.name,
                exc,
            )

    def _drain_writes(self) -> None:
        try:
            last_work = self._clock.monotonic()
            while True:
                self._clock.wait(self._kick, self.WRITER_POLL_SECONDS)
                self._kick.clear()
                with self._cond:
                    batch = list(self._pending.items())
                    if not batch:
                        if (
                            self._clock.monotonic() - last_work
                            >= self.WRITER_IDLE_SECONDS
                        ):
                            return
                        continue
                    self._in_flight = True
                try:
                    for path, data in batch:
                        self._write_one(path, data)
                finally:
                    last_work = self._clock.monotonic()
                    with self._cond:
                        for path, data in batch:
                            # A newer save of the same path may have
                            # replaced the bytes we just wrote; the next
                            # batch picks it up.
                            if self._pending.get(path) is data:
                                del self._pending[path]
                        self._in_flight = False
                        self._cond.notify_all()
        finally:
            # Normal idle exit and a crashed thread look the same to
            # flush(): the slot is free, a later save (or flush itself)
            # starts a fresh writer rather than waiting forever.
            with self._cond:
                if self._writer is threading.current_thread():
                    self._writer = None
                self._cond.notify_all()

    def flush(self) -> None:
        """Block until every pending write has reached the filesystem."""
        with self._cond:
            while self._pending or self._in_flight:
                if self._writer is None:
                    # Defensive: a writer can only be absent here if it
                    # crashed mid-batch; restart rather than wait forever.
                    self._writer = threading.Thread(
                        target=self._drain_writes,
                        name="trace-store-writer",
                        daemon=True,
                    )
                    self._writer.start()
                self._kick.set()
                self._cond.wait(timeout=1.0)

    def _drain_inline(self) -> None:
        """Write the backlog in the calling thread (no writer involved).

        The interpreter-exit path: at shutdown the daemon writer may
        already be dead and new threads cannot start, so the atexit hook
        (and :meth:`close`) drain synchronously.  Racing an in-flight
        writer batch is harmless — entry writes are atomic renames of
        identical content, so double-writing is idempotent.
        """
        with self._cond:
            batch = list(self._pending.items())
        for path, data in batch:
            self._write_one(path, data)
        with self._cond:
            for path, data in batch:
                if self._pending.get(path) is data:
                    del self._pending[path]
            self._cond.notify_all()

    def close(self) -> None:
        """Drain the backlog and detach from the interpreter-exit hook.

        The store stays usable after ``close()`` (a later save re-enrolls
        it); closing is about making "everything saved so far is on disk"
        explicit at the end of a store's life.
        """
        self._drain_inline()
        _LIVE_STORES.discard(self)

    def _sync_pending(self, *paths: Path) -> None:
        """Complete any in-flight write of ``paths`` before a read."""
        if self._pending and any(p in self._pending for p in paths):
            self.flush()

    def _invalidate(self, path: Path, kind: str, reason: Exception) -> None:
        # The critical section covers the unlink so concurrent service
        # threads healing the same entry serialise and the delete/re-trace
        # sequence is not interleaved mid-heal; the count folds in via the
        # invalidation event (under the same lock, in _emit).
        with self._lock:
            log.warning(
                "invalidating corrupt %s entry %s (%s); it will be recomputed",
                kind,
                path.name,
                reason,
            )
            try:
                path.unlink()
            except OSError:  # already gone (concurrent healer) — fine
                pass
        self._emit(
            StoreInvalidated(entry_kind=kind, entry=path.name, reason=str(reason))
        )

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    def has_trace(
        self,
        application: str,
        cpus: int,
        base_machine: str,
        sample_size: int,
        cache_sim: bool = False,
        cache_model: str = "analytic",
    ) -> bool:
        """Whether an entry exists for this identity (it may still be corrupt)."""
        path = self._trace_path(
            application, cpus, base_machine, sample_size, cache_sim, cache_model
        )
        self._sync_pending(path)
        return path.exists()

    def load_trace(
        self,
        application: str,
        cpus: int,
        base_machine: str,
        sample_size: int,
        cache_sim: bool = False,
        cache_model: str = "analytic",
    ) -> binfmt.MappedTrace | None:
        """The cached trace for this identity, or None if absent/invalid.

        Entries come back as zero-copy
        :class:`~repro.tracing.binfmt.MappedTrace` views of the mapped file.
        """
        path = self._trace_path(
            application, cpus, base_machine, sample_size, cache_sim, cache_model
        )
        return self._load(path, "trace", binfmt.load_trace)

    def save_trace(
        self,
        trace,
        *,
        cache_sim: bool = False,
        cache_model: str = "analytic",
    ) -> None:
        """Persist ``trace`` under its identity key (binary format)."""
        path = self._trace_path(
            trace.application,
            trace.cpus,
            trace.base_machine,
            trace.sample_size,
            cache_sim,
            cache_model,
        )
        # The callable defers the encode to the writer thread: a cold
        # study's foreground cost per save is one dict insert + queue put.
        self._enqueue_entry(path, lambda: binfmt.trace_to_bytes(trace))
        self._emit(
            TraceCaptured(
                application=trace.application,
                cpus=int(trace.cpus),
                base_machine=trace.base_machine,
                key=path.stem,
            )
        )

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def has_probes(self, machine: MachineSpec) -> bool:
        """Whether an entry exists for this exact spec."""
        path = self._probes_path(machine)
        self._sync_pending(path)
        return path.exists()

    def load_probes(self, machine: MachineSpec) -> MachineProbes | None:
        """Cached probe bundle for this exact spec, or None.

        Curve arrays stay zero-copy views of the mapped file.
        """
        return self._load(self._probes_path(machine), "probes", binfmt.load_probes)

    def save_probes(self, machine: MachineSpec, probes: MachineProbes) -> None:
        """Persist ``probes`` keyed by the spec's content fingerprint."""
        path = self._probes_path(machine)
        self._enqueue_entry(path, lambda: binfmt.probes_to_bytes(probes))
        self._emit(ProbeCompleted(machine=machine.name, key=path.stem))

    def _load(self, path: Path, kind: str, decode):
        """Decode the entry at ``path``; absent or invalid -> None (healed)."""
        self._sync_pending(path)
        if not path.exists():
            return None
        try:
            return decode(path)
        except TraceCorruptError as exc:
            self._invalidate(path, kind, exc)
            return None

    # ------------------------------------------------------------------
    # maintenance (``repro-study store info``)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Format versions, entry counts and byte totals, per kind."""
        self.flush()

        def scan(directory: Path) -> dict:
            counts = {"binary": 0, "bytes": 0}
            for path in sorted(directory.glob(f"*{BINARY_SUFFIX}")):
                counts["binary"] += 1
                try:
                    counts["bytes"] += path.stat().st_size
                except OSError:
                    pass
            return counts

        return {
            "root": str(self.root),
            "binary_format_version": binfmt.FORMAT_VERSION,
            "payload_schema_version": SCHEMA_VERSION,
            "traces": scan(self.traces_dir),
            "probes": scan(self.probes_dir),
            "invalidated": self.invalidated,
        }
