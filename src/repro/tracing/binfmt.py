"""Versioned, checksummed binary trace/probe format.

Trace and probe records are stored as contiguous NumPy dtype sections.
:class:`~repro.tracing.store.TraceStore` reads an entry into one
``bytes`` buffer, and the sections become typed views of it that go
straight into the tensorised execute/convolve pipeline, with no
per-block Python object rebuild.  An entry is about 1.3 KB, so mapping
it would hold a whole 4 KiB page, and the checksum reads every byte
anyway.

On-disk layout (little-endian)::

    offset  size  field
    0       4     magic  b"RPBF"
    4       2     format version (uint16) — this build reads 1
    6       1     kind   (1 = application trace, 2 = machine probes)
    7       1     reserved (0)
    8       4     header length in bytes (uint32)
    12      8     payload length in bytes (uint64)
    20      16    BLAKE2b-16 digest of everything after the prelude
    36      ...   header: compact JSON (identity fields, section table,
                  small ragged metadata such as MPI event records)
    ...     ...   zero padding to a 64-byte payload boundary
    ...     ...   payload: concatenated sections, each 16-byte aligned

Scalars that must survive exactly live either in float64 sections (block
tables) or in the JSON header (``repr``-based float round-tripping is
exact), so a decoded entry is bit-identical to what was stored — the
byte-identity contract of the golden study capture extends through the
store.  Every validation failure — bad magic, foreign version, length
mismatch (truncation / torn write), digest mismatch (bit rot), malformed
header, stale payload schema — raises
:class:`~repro.core.errors.TraceCorruptError`, which the store's
self-healing load path converts into invalidate-and-recompute.

Traces load as :class:`MappedTrace`: identity fields plus
:class:`~repro.tracing.trace.BlockArrays` views of the entry's buffer
for the convolver's hot path; per-block
:class:`~repro.tracing.trace.BlockTrace` objects are only materialised
if someone actually asks for ``trace.blocks``.

Trace entries written by earlier builds also carry a per-block cache
service-fraction column in the header, and may carry ``reuse_*``
sections: cache accounting that no metric read.  The reader looks at
neither, so those entries load unchanged under the same schema version
and store digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Any

import numpy as np

from repro.core.errors import TraceCorruptError
from repro.memory.patterns import StrideHistogram
from repro.network.model import CollectiveKind
from repro.probes.results import (
    GupsResult,
    HplResult,
    MachineProbes,
    MapsCurve,
    MapsResult,
    NetbenchResult,
    StreamResult,
)
from repro.tracing.trace import (
    ApplicationTrace,
    BlockArrays,
    BlockTrace,
    CommRecord,
)

__all__ = [
    "FORMAT_VERSION",
    "SCHEMA_VERSION",
    "MAGIC",
    "MappedTrace",
    "trace_to_bytes",
    "trace_from_bytes",
    "load_trace",
    "probes_to_bytes",
    "probes_from_bytes",
    "load_probes",
]

MAGIC = b"RPBF"
#: Bumped whenever the binary layout changes incompatibly.
FORMAT_VERSION = 1
#: Version of the payload schema inside the header.  It also seeds the
#: store's ``trace_key``/``probes_key`` digests, so changing it renames
#: every cache entry and moves every serve shard.
SCHEMA_VERSION = 2

KIND_TRACE = 1
KIND_PROBES = 2
_KIND_NAMES = {KIND_TRACE: "application_trace", KIND_PROBES: "machine_probes"}

_PRELUDE = struct.Struct("<4sHBBIQ16s")
_HEADER_OFFSET = _PRELUDE.size  # 36
_PAYLOAD_ALIGN = 64
_SECTION_ALIGN = 16

#: dtypes a section table may name; anything else is treated as corruption
#: (a flipped byte in the header must not turn into an arbitrary np.dtype).
_ALLOWED_DTYPES = {"<f8", "<i8", "|u1"}


def _align(n: int, to: int) -> int:
    return (n + to - 1) // to * to


# ---------------------------------------------------------------------------
# generic envelope
# ---------------------------------------------------------------------------


def _encode(kind: int, meta: dict[str, Any], sections: dict[str, np.ndarray]) -> bytes:
    """Assemble one binary entry from header metadata + named arrays."""
    table: dict[str, dict] = {}
    blobs: list[tuple[int, np.ndarray]] = []
    offset = 0
    for name, arr in sections.items():
        arr = np.ascontiguousarray(arr)
        if arr.dtype.str not in _ALLOWED_DTYPES:
            raise ValueError(f"section {name!r} has unsupported dtype {arr.dtype}")
        pad = (-offset) % _SECTION_ALIGN
        offset += pad
        blobs.append((pad, arr))
        table[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
        }
        offset += arr.nbytes
    payload_len = offset

    header = dict(meta)
    header["sections"] = table
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload_offset = _align(_HEADER_OFFSET + len(header_bytes), _PAYLOAD_ALIGN)

    body = bytearray(header_bytes)
    body += b"\x00" * (payload_offset - _HEADER_OFFSET - len(header_bytes))
    for pad, arr in blobs:
        body += b"\x00" * pad
        body += arr.tobytes()
    digest = hashlib.blake2b(body, digest_size=16).digest()
    prelude = _PRELUDE.pack(
        MAGIC, FORMAT_VERSION, kind, 0, len(header_bytes), payload_len, digest
    )
    return prelude + bytes(body)


class _Entry:
    """One validated binary entry: header dict + typed section views."""

    __slots__ = ("kind", "header", "_raw", "_payload_offset", "_payload_len")

    def __init__(self, raw: np.ndarray, expect_kind: int):
        if raw.ndim != 1 or raw.dtype != np.uint8:  # pragma: no cover - internal
            raise AssertionError("entry buffer must be a 1-D uint8 array")
        if raw.size < _PRELUDE.size:
            raise TraceCorruptError("binary entry shorter than its prelude")
        magic, version, kind, _flags, header_len, payload_len, digest = _PRELUDE.unpack(
            raw[:_HEADER_OFFSET].tobytes()
        )
        if magic != MAGIC:
            raise TraceCorruptError("not a repro binary entry (bad magic)")
        if version != FORMAT_VERSION:
            raise TraceCorruptError(
                f"unsupported binary format version {version} "
                f"(this build reads {FORMAT_VERSION})"
            )
        if kind not in _KIND_NAMES:
            raise TraceCorruptError(f"unknown binary entry kind {kind}")
        payload_offset = _align(_HEADER_OFFSET + header_len, _PAYLOAD_ALIGN)
        if raw.size != payload_offset + payload_len:
            raise TraceCorruptError(
                "binary entry length mismatch (truncated or torn write)"
            )
        if (
            hashlib.blake2b(memoryview(raw[_HEADER_OFFSET:]), digest_size=16).digest()
            != digest
        ):
            raise TraceCorruptError("checksum mismatch (corrupt binary entry)")
        try:
            header = json.loads(raw[_HEADER_OFFSET : _HEADER_OFFSET + header_len].tobytes())
        except (ValueError, UnicodeDecodeError) as exc:
            raise TraceCorruptError(f"malformed binary header: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("sections"), dict):
            raise TraceCorruptError("binary header is not a section-table document")
        if header.get("schema_version") != SCHEMA_VERSION:
            raise TraceCorruptError(
                f"unsupported payload schema version {header.get('schema_version')!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        if kind != expect_kind:
            raise TraceCorruptError(
                f"not a {_KIND_NAMES[expect_kind]} entry: {_KIND_NAMES[kind]!r}"
            )
        self.kind = kind
        self.header = header
        self._raw = raw
        self._payload_offset = payload_offset
        self._payload_len = payload_len

    def section(self, name: str) -> np.ndarray:
        """Zero-copy typed view of one payload section."""
        meta = self.header["sections"].get(name)
        if not isinstance(meta, dict):
            raise TraceCorruptError(f"binary entry is missing section {name!r}")
        try:
            dtype_str = meta["dtype"]
            shape = tuple(int(n) for n in meta["shape"])
            offset = int(meta["offset"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceCorruptError(f"malformed section table entry {name!r}") from exc
        if dtype_str not in _ALLOWED_DTYPES:
            raise TraceCorruptError(f"section {name!r} has foreign dtype {dtype_str!r}")
        dtype = np.dtype(dtype_str)
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64)) if shape else dtype.itemsize
        if offset < 0 or offset + nbytes > self._payload_len:
            raise TraceCorruptError(f"section {name!r} exceeds the payload")
        start = self._payload_offset + offset
        return self._raw[start : start + nbytes].view(dtype).reshape(shape)


def _entry_from_bytes(data: bytes, expect_kind: int) -> _Entry:
    return _Entry(np.frombuffer(data, dtype=np.uint8), expect_kind)


def _entry_from_path(path: str | os.PathLike, expect_kind: int) -> _Entry:
    try:
        with open(path, "rb") as entry:
            data = entry.read()
    except OSError as exc:
        raise TraceCorruptError(f"unreadable binary entry: {exc}") from exc
    return _entry_from_bytes(data, expect_kind)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------


def trace_to_bytes(trace) -> bytes:
    """Serialise an :class:`ApplicationTrace` (or :class:`MappedTrace`)."""
    if isinstance(trace, MappedTrace):
        trace = trace.materialize()
    blocks = trace.blocks
    arrays = BlockArrays.of_blocks(blocks)
    sections: dict[str, np.ndarray] = {
        "fp_ops": arrays.fp_ops,
        "loads": arrays.loads,
        "stores": arrays.stores,
        "unit": arrays.unit,
        "short": arrays.short,
        "random": arrays.random,
        "stride_elems": arrays.stride_elems,
        "working_set": arrays.working_set,
        "dependency_weight": arrays.dependency_weight,
    }
    meta = {
        "schema_version": SCHEMA_VERSION,
        "kind": "application_trace",
        "application": trace.application,
        "cpus": trace.cpus,
        "base_machine": trace.base_machine,
        "timesteps": trace.timesteps,
        "sample_size": trace.sample_size,
        "block_names": [b.name for b in blocks],
        "comm": [
            {
                "name": rec.name,
                "kind": rec.kind if isinstance(rec.kind, str) else rec.kind.value,
                "count": rec.count,
                "size_bytes": rec.size_bytes,
                "neighbors": rec.neighbors,
            }
            for rec in trace.comm
        ],
    }
    return _encode(KIND_TRACE, meta, sections)


class MappedTrace:
    """A trace decoded lazily from a binary entry.

    Duck-typed stand-in for :class:`~repro.tracing.trace.ApplicationTrace`:
    identity fields, :attr:`comm`, :attr:`block_names` and
    :attr:`block_arrays` are available immediately (the arrays are
    zero-copy views of the entry's one buffer, which they keep alive);
    ``blocks`` and the derived totals materialise genuine trace objects
    on first use, so the convolver's tensorised path never pays
    per-block Python reconstruction.  The whole header is parsed here
    and then dropped, so a malformed one fails the store's load, which
    invalidates the entry and re-traces, rather than a later use of the
    trace.  Equality and hashing delegate to the materialised
    :class:`ApplicationTrace`, in both comparison directions (the frozen
    dataclass returns ``NotImplemented`` for a foreign class, which
    makes Python fall back to this class's reflected ``__eq__``).
    """

    __slots__ = (
        "application",
        "cpus",
        "base_machine",
        "timesteps",
        "sample_size",
        "block_names",
        "block_arrays",
        "comm",
        "_materialized",
    )

    def __init__(self, entry: _Entry):
        header = entry.header
        try:
            self.application = str(header["application"])
            self.cpus = int(header["cpus"])
            self.base_machine = str(header["base_machine"])
            self.timesteps = int(header["timesteps"])
            self.sample_size = int(header["sample_size"])
            names = header["block_names"]
            self.block_arrays = BlockArrays(
                fp_ops=entry.section("fp_ops"),
                loads=entry.section("loads"),
                stores=entry.section("stores"),
                unit=entry.section("unit"),
                short=entry.section("short"),
                random=entry.section("random"),
                stride_elems=entry.section("stride_elems"),
                working_set=entry.section("working_set"),
                dependency_weight=entry.section("dependency_weight"),
            )
            self.comm = tuple(
                CommRecord(
                    name=str(doc["name"]),
                    kind=doc["kind"] if doc["kind"] == "p2p" else CollectiveKind(doc["kind"]),
                    count=doc["count"],
                    size_bytes=doc["size_bytes"],
                    neighbors=doc["neighbors"],
                )
                for doc in header["comm"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceCorruptError(f"malformed trace header: {exc}") from exc
        n = self.block_arrays.fp_ops.shape[0]
        if not isinstance(names, list) or len(names) != n or any(
            a.shape != (n,) for a in self.block_arrays[:9]
        ):
            raise TraceCorruptError("trace block sections disagree on block count")
        self.block_names = tuple(str(name) for name in names)
        self._materialized: ApplicationTrace | None = None

    # -- lazy materialisation -----------------------------------------
    def materialize(self) -> ApplicationTrace:
        """The equivalent fully-materialised :class:`ApplicationTrace`."""
        cached = self._materialized
        if cached is not None:
            return cached
        a = self.block_arrays
        try:
            blocks = tuple(
                BlockTrace(
                    name=name,
                    fp_ops=float(a.fp_ops[i]),
                    loads=float(a.loads[i]),
                    stores=float(a.stores[i]),
                    stride=StrideHistogram(
                        unit=float(a.unit[i]),
                        short=float(a.short[i]),
                        random=float(a.random[i]),
                        short_stride_elems=int(a.stride_elems[i]),
                    ),
                    working_set=float(a.working_set[i]),
                    dependency_weight=float(a.dependency_weight[i]),
                )
                for i, name in enumerate(self.block_names)
            )
        except (TypeError, ValueError, IndexError) as exc:
            raise TraceCorruptError(f"malformed trace payload: {exc}") from exc
        cached = ApplicationTrace(
            application=self.application,
            cpus=self.cpus,
            base_machine=self.base_machine,
            timesteps=self.timesteps,
            blocks=blocks,
            comm=self.comm,
            sample_size=self.sample_size,
        )
        self._materialized = cached
        return cached

    # -- ApplicationTrace surface --------------------------------------
    @property
    def blocks(self) -> tuple[BlockTrace, ...]:
        return self.materialize().blocks

    @property
    def total_fp(self) -> float:
        return self.materialize().total_fp

    @property
    def total_refs(self) -> float:
        return self.materialize().total_refs

    def block(self, name: str) -> BlockTrace:
        return self.materialize().block(name)

    def __eq__(self, other) -> bool:
        if isinstance(other, MappedTrace):
            return self.materialize() == other.materialize()
        if isinstance(other, ApplicationTrace):
            return self.materialize() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.materialize())

    def __repr__(self) -> str:  # pragma: no cover - diagnostic
        return (
            f"MappedTrace({self.application!r}, cpus={self.cpus}, "
            f"base_machine={self.base_machine!r})"
        )


def trace_from_bytes(data: bytes) -> MappedTrace:
    """Decode a :func:`trace_to_bytes` buffer (validates the envelope)."""
    return MappedTrace(_entry_from_bytes(data, KIND_TRACE))


def load_trace(path: str | os.PathLike) -> MappedTrace:
    """Read and validate the trace entry at ``path``."""
    return MappedTrace(_entry_from_path(path, KIND_TRACE))


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

_MAPS_KINDS = ("unit", "random", "unit_dep", "random_dep")


def probes_to_bytes(probes: MachineProbes) -> bytes:
    """Serialise a :class:`MachineProbes` bundle."""
    sections: dict[str, np.ndarray] = {}
    for kind in _MAPS_KINDS:
        curve = probes.maps.curve(kind)
        sections[f"maps_{kind}_sizes"] = np.asarray(curve.sizes, dtype=np.float64)
        sections[f"maps_{kind}_bandwidths"] = np.asarray(
            curve.bandwidths, dtype=np.float64
        )
    nb = probes.netbench
    sections["pingpong_sizes"] = np.asarray(nb.pingpong_sizes, dtype=np.float64)
    sections["pingpong_seconds"] = np.asarray(nb.pingpong_seconds, dtype=np.float64)
    sections["allreduce_ranks"] = np.asarray(nb.allreduce_ranks, dtype=np.float64)
    sections["allreduce_seconds"] = np.asarray(nb.allreduce_seconds, dtype=np.float64)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "kind": "machine_probes",
        "machine": probes.machine,
        "hpl": {
            "rmax_flops": probes.hpl.rmax_flops,
            "rpeak_flops": probes.hpl.rpeak_flops,
            "n": probes.hpl.n,
            "seconds": probes.hpl.seconds,
        },
        "stream": {
            "copy": probes.stream.copy,
            "scale": probes.stream.scale,
            "add": probes.stream.add,
            "triad": probes.stream.triad,
            "array_bytes": probes.stream.array_bytes,
        },
        "gups": {
            "gups": probes.gups.gups,
            "random_bandwidth": probes.gups.random_bandwidth,
            "table_bytes": probes.gups.table_bytes,
        },
        "netbench": {"latency": nb.latency, "bandwidth": nb.bandwidth},
    }
    return _encode(KIND_PROBES, meta, sections)


def _probes_from_entry(entry: _Entry) -> MachineProbes:
    header = entry.header
    try:
        return MachineProbes(
            machine=str(header["machine"]),
            hpl=HplResult(**header["hpl"]),
            stream=StreamResult(**header["stream"]),
            gups=GupsResult(**header["gups"]),
            maps=MapsResult(
                **{
                    kind: MapsCurve(
                        sizes=entry.section(f"maps_{kind}_sizes"),
                        bandwidths=entry.section(f"maps_{kind}_bandwidths"),
                    )
                    for kind in _MAPS_KINDS
                }
            ),
            netbench=NetbenchResult(
                latency=header["netbench"]["latency"],
                bandwidth=header["netbench"]["bandwidth"],
                pingpong_sizes=entry.section("pingpong_sizes"),
                pingpong_seconds=entry.section("pingpong_seconds"),
                allreduce_ranks=entry.section("allreduce_ranks"),
                allreduce_seconds=entry.section("allreduce_seconds"),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceCorruptError(f"malformed probes entry: {exc}") from exc


def probes_from_bytes(data: bytes) -> MachineProbes:
    """Decode a :func:`probes_to_bytes` buffer (validates the envelope)."""
    return _probes_from_entry(_entry_from_bytes(data, KIND_PROBES))


def load_probes(path: str | os.PathLike) -> MachineProbes:
    """Read and validate the probes entry at ``path``.

    The curve and netbench arrays stay zero-copy views of the entry's
    buffer; the scalar results are rebuilt from the header (exact floats).
    """
    return _probes_from_entry(_entry_from_path(path, KIND_PROBES))
