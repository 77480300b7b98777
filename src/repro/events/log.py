"""Checksummed, segmented, append-only event log.

This is the durability substrate under the study journal, the trace
store's accounting and the serve fleet's audit trail.  One *log
directory* holds any number of *writer streams*; each stream is a chain
of JSONL segment files::

    events-<writer>-<first_seq:020d>.jsonl

Every line is one BLAKE2b-framed record::

    {"check": "<blake2b-16 hex>", "event": {"kind": ..., ...}, "seq": N}

where ``check`` is computed over the canonical (``sort_keys=True``) JSON
of the frame without it — the same self-validating-line idiom the study
checkpoint pioneered, so a reader can always tell a complete frame from
a torn one.  Sequence numbers are per-writer, contiguous from 1, and the
pair ``(writer, seq)`` is the global event identity.

Durability levers
-----------------
* ``fsync="always"`` — every append is fsynced (journal semantics).
* ``fsync="commit"`` — appends are flushed to the OS (readers of the
  directory see them) but only
  :meth:`EventLog.commit`/:meth:`EventLog.close` fsync.
* ``fsync="never"`` — flush only; for ephemeral serving logs and tests.

Crash recovery
--------------
Opening a stream for append scans its last segment and truncates any
torn tail in place: a frame that fails its checksum, a sequence break,
or trailing garbage marks the end of history, and everything before it
is kept.  A frame appended twice (retry after a partial fsync) is
deduplicated when the duplicate is byte-identical; a *conflicting*
reuse of a sequence number is damage.  Replay of a sealed chain stops
at the first damaged frame or gap, so every reader sees the same valid
prefix — deterministic replay is the contract projections build on.

Compaction
----------
:meth:`EventLog.compact` snapshots caller state at the current sequence
number (see :mod:`repro.events.snapshot`) and deletes segments wholly
covered by it; replay then starts from ``snapshot seq + 1``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from repro.events import snapshot as _snapshot
from repro.events.types import Event, SnapshotTaken, from_doc

__all__ = [
    "EventLog",
    "FSYNC_POLICIES",
    "DEFAULT_SEGMENT_BYTES",
    "frame_checksum",
    "replay_dir",
    "verify_dir",
    "writers_in",
]

FSYNC_POLICIES = ("always", "commit", "never")
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024
SEGMENT_PREFIX = "events-"
SEGMENT_SUFFIX = ".jsonl"
_SEQ_WIDTH = 20


def frame_checksum(doc: dict[str, Any]) -> str:
    """BLAKE2b-16 of the canonical JSON of a frame (minus its ``check``)."""
    canon = json.dumps(doc, sort_keys=True)
    return hashlib.blake2b(canon.encode("utf-8"), digest_size=16).hexdigest()


def _encode_frame(seq: int, event: Event) -> str:
    body = {"seq": seq, "event": event.to_doc()}
    body["check"] = frame_checksum({"seq": seq, "event": body["event"]})
    return json.dumps(body, sort_keys=True)


def _segment_name(writer: str, first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{writer}-{first_seq:0{_SEQ_WIDTH}d}{SEGMENT_SUFFIX}"


def _parse_segment_name(name: str) -> tuple[str, int] | None:
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    stem = name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
    writer, _, seq_part = stem.rpartition("-")
    if not writer or not seq_part.isdigit():
        return None
    return writer, int(seq_part)


def _validate_writer(writer: str) -> str:
    if not writer or any(ch in writer for ch in "/\\\0\n") or writer != writer.strip():
        raise ValueError(f"invalid writer id {writer!r}")
    return writer


class _Scan:
    """Result of reading one segment file tolerantly."""

    __slots__ = ("frames", "good_end", "damaged", "duplicates", "damage_reason")

    def __init__(self) -> None:
        self.frames: list[tuple[int, dict[str, Any]]] = []  # (seq, event doc)
        self.good_end = 0  # byte offset past the last valid frame
        self.damaged = False
        self.duplicates = 0
        self.damage_reason: str | None = None


def _scan_segment(path: Path, expected_first: int | None) -> _Scan:
    """Read a segment, keeping the longest valid prefix.

    ``expected_first`` pins the sequence the segment must start at (its
    filename claim); ``None`` accepts whatever the first valid frame says.
    Never mutates the file — truncation is the owner's job.
    """
    scan = _Scan()
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        return scan
    offset = 0
    expected = expected_first
    prev_line: bytes | None = None
    while offset < len(raw):
        newline = raw.find(b"\n", offset)
        if newline == -1:
            scan.damaged = True
            scan.damage_reason = "torn tail (no newline)"
            break
        line = raw[offset:newline]
        try:
            frame = json.loads(line)
            check = frame.pop("check")
            seq = frame["seq"]
            event_doc = frame["event"]
            ok = (
                isinstance(seq, int)
                and isinstance(event_doc, dict)
                and set(frame) == {"seq", "event"}
                and check == frame_checksum(frame)
            )
        except (ValueError, KeyError, TypeError):
            ok = False
            seq = None
            event_doc = None
        if not ok:
            scan.damaged = True
            scan.damage_reason = f"invalid frame at byte {offset}"
            break
        if scan.frames and seq == scan.frames[-1][0] and line == prev_line:
            # byte-identical re-append after a partial fsync: drop quietly
            scan.duplicates += 1
            offset = newline + 1
            scan.good_end = offset
            continue
        if expected is not None and seq != expected:
            scan.damaged = True
            scan.damage_reason = f"sequence break at byte {offset}: expected {expected}, got {seq}"
            break
        scan.frames.append((seq, event_doc))
        expected = seq + 1
        prev_line = line
        offset = newline + 1
        scan.good_end = offset
    return scan


def _segments_for(root: Path, writer: str) -> list[tuple[int, Path]]:
    out = []
    try:
        names = os.listdir(root)
    except FileNotFoundError:
        return out
    for name in names:
        parsed = _parse_segment_name(name)
        if parsed and parsed[0] == writer:
            out.append((parsed[1], root / name))
    out.sort()
    return out


def writers_in(root: str | os.PathLike) -> list[str]:
    """All writer streams present in a log directory (segments or snapshots)."""
    rootp = Path(root)
    found: set[str] = set()
    try:
        names = os.listdir(rootp)
    except FileNotFoundError:
        return []
    for name in names:
        parsed = _parse_segment_name(name)
        if parsed:
            found.add(parsed[0])
        else:
            writer = _snapshot.writer_of(name)
            if writer is not None:
                found.add(writer)
    return sorted(found)


class EventLog:
    """One writer stream of a log directory, open for append.

    Thread-safe: study workers' writer threads and serving threads may
    append concurrently through one instance.  Multi-*process* writers
    must use distinct ``writer`` ids — streams never share files.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        writer: str = "main",
        fsync: str = "commit",
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if segment_bytes <= 0:
            raise ValueError(f"segment_bytes must be > 0, got {segment_bytes!r}")
        self.root = Path(root)
        self.writer = _validate_writer(writer)
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._handle = None
        self._active_path: Path | None = None
        self._size = 0
        self._closed = False
        self._recover()

    # ------------------------------------------------------------------
    # open / recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        segments = _segments_for(self.root, self.writer)
        snap = _snapshot.load_snapshot(self.root, self.writer)
        base = snap[0] if snap else 0
        if not segments:
            self._next_seq = base + 1
            return
        first_seq, last_path = segments[-1]
        scan = _scan_segment(last_path, first_seq)
        if scan.damaged:
            # torn tail: keep the valid prefix, drop the suffix in place
            with open(last_path, "r+b") as handle:
                handle.truncate(scan.good_end)
        if scan.frames:
            self._next_seq = scan.frames[-1][0] + 1
        else:
            # every frame lost: the filename still pins where history resumes
            self._next_seq = first_seq
        self._active_path = last_path
        self._size = scan.good_end

    @property
    def last_seq(self) -> int:
        return self._next_seq - 1

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _ensure_handle(self):
        if self._handle is None:
            if self._active_path is None:
                self._active_path = self.root / _segment_name(self.writer, self._next_seq)
                self._size = 0
            self._handle = open(self._active_path, "ab")
        return self._handle

    def _rotate(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.fsync_policy != "never":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None
        self._active_path = self.root / _segment_name(self.writer, self._next_seq)
        self._size = 0

    def append(self, event: Event) -> int:
        """Durably append one event; returns its sequence number."""
        if self._closed:
            raise ValueError("append on closed EventLog")
        with self._lock:
            if self._size >= self.segment_bytes and self._size > 0:
                self._rotate()
            seq = self._next_seq
            data = (_encode_frame(seq, event) + "\n").encode("utf-8")
            handle = self._ensure_handle()
            handle.write(data)
            handle.flush()
            if self.fsync_policy == "always":
                os.fsync(handle.fileno())
            self._next_seq = seq + 1
            self._size += len(data)
        return seq

    def commit(self) -> None:
        """Fsync everything appended so far (the ``fsync="commit"`` barrier)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                if self.fsync_policy != "never":
                    os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self.commit()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._closed = True

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def replay(self, start: int = 1) -> Iterator[tuple[int, Event]]:
        """Yield ``(seq, event)`` for this stream's valid prefix, seq >= start."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
        yield from _replay_stream(self.root, self.writer, start)

    def verify(self) -> dict[str, Any]:
        """Fsck this stream; see :func:`verify_dir` for the report shape."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
        return _verify_stream(self.root, self.writer)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def compact(self, state: dict[str, Any]) -> int:
        """Snapshot ``state`` at the current seq and drop covered segments.

        ``state`` must let the caller reconstruct its view of every event
        up to (and including) ``last_seq`` — typically a
        :meth:`~repro.events.projections.ProjectionEngine.state` dump.
        Returns the snapshot sequence number.
        """
        with self._lock:
            upto = self.last_seq
            self.commit()
            _snapshot.save_snapshot(self.root, self.writer, upto, state)
            for first_seq, path in _segments_for(self.root, self.writer):
                last_in_segment = self._segment_last_seq(first_seq, path)
                if last_in_segment is None or last_in_segment > upto:
                    continue
                if path == self._active_path:
                    if self._handle is not None:
                        self._handle.close()
                        self._handle = None
                    self._active_path = None
                    self._size = 0
                path.unlink()
            self.append(SnapshotTaken(upto_seq=upto))
            return upto

    def _segment_last_seq(self, first_seq: int, path: Path) -> int | None:
        scan = _scan_segment(path, first_seq)
        if not scan.frames:
            return None
        return scan.frames[-1][0]


# ----------------------------------------------------------------------
# directory-level (multi-writer) reading
# ----------------------------------------------------------------------


def _replay_stream(root: Path, writer: str, start: int) -> Iterator[tuple[int, Event]]:
    snap = _snapshot.load_snapshot(root, writer)
    expected = (snap[0] if snap else 0) + 1
    for first_seq, path in _segments_for(root, writer):
        if first_seq != expected:
            return  # gap (lost or damaged segment): the prefix ends here
        scan = _scan_segment(path, first_seq)
        for seq, doc in scan.frames:
            if seq >= start:
                yield seq, from_doc(doc)
            expected = seq + 1
        if scan.damaged:
            return


def _verify_stream(root: Path, writer: str) -> dict[str, Any]:
    snap = _snapshot.load_snapshot(root, writer)
    report: dict[str, Any] = {
        "writer": writer,
        "snapshot_seq": snap[0] if snap else None,
        "segments": [],
        "frames": 0,
        "duplicates": 0,
        "errors": [],
    }
    expected = (snap[0] if snap else 0) + 1
    segments = _segments_for(root, writer)
    for index, (first_seq, path) in enumerate(segments):
        if first_seq != expected:
            report["errors"].append(
                f"{path.name}: starts at seq {first_seq}, expected {expected}"
            )
        scan = _scan_segment(path, first_seq)
        entry = {
            "file": path.name,
            "first_seq": first_seq,
            "frames": len(scan.frames),
            "last_seq": scan.frames[-1][0] if scan.frames else None,
            "duplicates": scan.duplicates,
            "damaged": scan.damaged,
        }
        if scan.damaged:
            is_active_tail = index == len(segments) - 1
            where = "torn tail of active segment" if is_active_tail else "sealed segment damage"
            report["errors"].append(f"{path.name}: {where}: {scan.damage_reason}")
        report["segments"].append(entry)
        report["frames"] += len(scan.frames)
        report["duplicates"] += scan.duplicates
        if scan.frames:
            expected = scan.frames[-1][0] + 1
    report["last_seq"] = expected - 1
    report["ok"] = not report["errors"]
    return report


def replay_dir(
    root: str | os.PathLike,
    *,
    after: dict[str, int] | None = None,
) -> Iterator[tuple[str, int, Event]]:
    """Replay every writer stream in a log directory, merged deterministically.

    Streams are yielded writer-by-writer in sorted order (sequence
    numbers are only ordered *within* a writer; there is no global
    clock).  Projections are therefore built commutative — keyed
    aggregates and counters — so the merge order cannot change a view.
    ``after`` maps writer → last seen seq, for incremental tailing.
    """
    after = after or {}
    for writer in writers_in(root):
        start = after.get(writer, 0) + 1
        for seq, event in _replay_stream(Path(root), writer, start):
            yield writer, seq, event


def verify_dir(root: str | os.PathLike) -> dict[str, Any]:
    """Fsck every stream in a log directory."""
    streams = [_verify_stream(Path(root), writer) for writer in writers_in(root)]
    return {
        "root": os.fspath(root),
        "streams": streams,
        "frames": sum(s["frames"] for s in streams),
        "ok": all(s["ok"] for s in streams),
    }
