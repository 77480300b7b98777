"""Binary trace/probe format: exact round-trips and zero-copy loads.

The binary store only works if serialisation is *exact* — the golden
study capture is asserted byte-identical through it — so the round-trip
tests here cover adversarial floats (subnormals, signed zeros, inf, NaN)
via hypothesis, not just traces the tracer happens to emit today.
"""

import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.patterns import StrideHistogram
from repro.network.model import CollectiveKind
from repro.probes.suite import clear_probe_cache, probe_machine
from repro.tracing import binfmt
from repro.tracing.metasim import MetaSimTracer, clear_trace_cache, trace_application
from repro.tracing.store import TraceStore
from repro.tracing.trace import ApplicationTrace, BlockTrace, CommRecord, ReuseHistogram

# ---------------------------------------------------------------------------
# equality that treats NaN as equal to itself (bit-level round-trip check)
# ---------------------------------------------------------------------------


def _feq(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _blocks_equal(a: BlockTrace, b: BlockTrace) -> bool:
    return (
        a.name == b.name
        and _feq(a.fp_ops, b.fp_ops)
        and _feq(a.loads, b.loads)
        and _feq(a.stores, b.stores)
        and _feq(a.stride.unit, b.stride.unit)
        and _feq(a.stride.short, b.stride.short)
        and _feq(a.stride.random, b.stride.random)
        and a.stride.short_stride_elems == b.stride.short_stride_elems
        and _feq(a.working_set, b.working_set)
        and _feq(a.dependency_weight, b.dependency_weight)
        and _l_service_equal(a.l_service, b.l_service)
        and a.reuse == b.reuse
    )


def _l_service_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.keys() == b.keys() and all(_feq(a[k], b[k]) for k in a)


def _traces_equal(a, b) -> bool:
    return (
        a.application == b.application
        and a.cpus == b.cpus
        and a.base_machine == b.base_machine
        and a.timesteps == b.timesteps
        and a.sample_size == b.sample_size
        and len(a.blocks) == len(b.blocks)
        and all(_blocks_equal(x, y) for x, y in zip(a.blocks, b.blocks))
        and len(a.comm) == len(b.comm)
        and all(_comm_equal(x, y) for x, y in zip(a.comm, b.comm))
    )


def _comm_equal(a: CommRecord, b: CommRecord) -> bool:
    return (
        a.name == b.name
        and a.kind == b.kind
        and _feq(a.count, b.count)
        and _feq(a.size_bytes, b.size_bytes)
        and a.neighbors == b.neighbors
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

# Every float64, including subnormals, ±0.0, ±inf and NaN.
any_f8 = st.floats(width=64, allow_nan=True, allow_infinity=True)
frac = st.floats(min_value=0.0, max_value=1.0)


def _stride(draw) -> StrideHistogram:
    # fractions must sum to 1 exactly (validated by __post_init__); all
    # three values are plain float64s so they round-trip bit-exactly
    unit = draw(frac)
    short = draw(st.floats(min_value=0.0, max_value=max(0.0, 1.0 - unit)))
    random = 1.0 - unit - short
    if random < 0.0:  # float fuzz at the top of the range
        random, short = 0.0, 1.0 - unit
    return StrideHistogram(
        unit=unit,
        short=short,
        random=random,
        short_stride_elems=draw(st.integers(2, 64)),
    )


@st.composite
def block_traces(draw, index: int = 0):
    reuse = None
    if draw(st.booleans()):
        n = draw(st.integers(min_value=0, max_value=4))
        distances = tuple(sorted(draw(st.sets(st.integers(0, 2**40), min_size=n, max_size=n))))
        counts = tuple(
            draw(st.lists(st.integers(1, 2**40), min_size=len(distances), max_size=len(distances)))
        )
        reuse = ReuseHistogram(
            distances=distances,
            counts=counts,
            cold=draw(st.integers(0, 2**40)),
            total=draw(st.integers(0, 2**40)),
            line_bytes=draw(st.sampled_from([32, 64, 128])),
        )
    l_service = None
    if draw(st.booleans()):
        l_service = {
            level: draw(any_f8)
            for level in draw(st.lists(st.sampled_from(["L1", "L2", "L3", "MM"]), unique=True))
        }
    return BlockTrace(
        name=f"block{index}",
        fp_ops=draw(any_f8),
        loads=draw(any_f8),
        stores=draw(any_f8),
        stride=_stride(draw),
        working_set=draw(any_f8),
        dependency_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
        l_service=l_service,
        reuse=reuse,
    )


@st.composite
def app_traces(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    blocks = tuple(draw(block_traces(index=i)) for i in range(n))
    comm = tuple(
        CommRecord(
            name=f"ev{i}",
            kind=draw(
                st.sampled_from(
                    ["p2p", CollectiveKind.ALLREDUCE, CollectiveKind.BARRIER]
                )
            ),
            count=draw(any_f8),
            size_bytes=draw(any_f8),
            neighbors=draw(st.integers(1, 8)),
        )
        for i in range(draw(st.integers(0, 3)))
    )
    return ApplicationTrace(
        application=draw(st.sampled_from(["AVUS-standard", "RFCTH2-large@3"])),
        cpus=draw(st.integers(1, 4096)),
        base_machine=draw(st.text(min_size=1, max_size=20)),
        timesteps=draw(st.integers(1, 10**6)),
        blocks=blocks,
        comm=comm,
        sample_size=draw(st.integers(1, 10**6)),
    )


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(trace=app_traces())
def test_trace_roundtrip_is_exact(trace):
    decoded = binfmt.trace_from_bytes(binfmt.trace_to_bytes(trace))
    assert _traces_equal(decoded.materialize(), trace)
    # and the encoding is stable: encode(decode(x)) == encode(x)
    assert binfmt.trace_to_bytes(decoded) == binfmt.trace_to_bytes(trace)


def test_comm_kind_roundtrips_collectives(avus, base_machine):
    trace = MetaSimTracer(base_machine).trace(avus, 64)
    decoded = binfmt.trace_from_bytes(binfmt.trace_to_bytes(trace))
    assert decoded == trace  # dataclass equality incl. CollectiveKind enums
    assert [r.kind for r in decoded.comm] == [r.kind for r in trace.comm]


def test_mapped_trace_is_zero_copy_and_lazy(tmp_path, avus, base_machine):
    trace = MetaSimTracer(base_machine).trace(avus, 64)
    path = tmp_path / "t.rpb"
    path.write_bytes(binfmt.trace_to_bytes(trace))
    mapped = binfmt.load_trace(path)
    # the hot-path arrays are views of the mapped file, not copies
    fp = mapped.block_arrays.fp_ops
    assert isinstance(fp.base, np.memmap) or isinstance(fp.base.base, np.memmap)
    assert not fp.flags.owndata
    # nothing materialised yet
    assert mapped._materialized is None
    np.testing.assert_array_equal(fp, trace.block_arrays.fp_ops)
    # equality works both ways and materialises exactly once
    assert mapped == trace
    assert trace == mapped
    assert mapped.materialize() is mapped.materialize()
    assert hash(mapped) == hash(trace)
    assert mapped.block("conv").name == "conv" if any(
        b.name == "conv" for b in trace.blocks
    ) else True
    assert mapped.total_fp == trace.total_fp
    assert mapped.total_refs == trace.total_refs


def test_probes_roundtrip_is_exact(base_machine):
    clear_probe_cache()
    probes = probe_machine(base_machine)
    decoded = binfmt.probes_from_bytes(binfmt.probes_to_bytes(probes))
    assert decoded.machine == probes.machine
    assert decoded.hpl == probes.hpl
    assert decoded.stream == probes.stream
    assert decoded.gups == probes.gups
    assert decoded.netbench.latency == probes.netbench.latency
    assert decoded.netbench.bandwidth == probes.netbench.bandwidth
    for kind in ("unit", "random", "unit_dep", "random_dep"):
        got, want = decoded.maps.curve(kind), probes.maps.curve(kind)
        np.testing.assert_array_equal(got.sizes, want.sizes)
        np.testing.assert_array_equal(got.bandwidths, want.bandwidths)
    for field in ("pingpong_sizes", "pingpong_seconds", "allreduce_ranks", "allreduce_seconds"):
        np.testing.assert_array_equal(
            getattr(decoded.netbench, field), getattr(probes.netbench, field)
        )


# ---------------------------------------------------------------------------
# envelope validation
# ---------------------------------------------------------------------------


@pytest.fixture()
def trace_bytes(avus, base_machine):
    trace = MetaSimTracer(base_machine).trace(avus, 64)
    return binfmt.trace_to_bytes(trace)


from repro.core.errors import TraceCorruptError  # noqa: E402


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: d[:20], "shorter than its prelude"),
        (lambda d: d[: len(d) - 8], "length mismatch"),
        (lambda d: d + b"\x00\x00", "length mismatch"),
        (lambda d: b"XXXX" + d[4:], "bad magic"),
        (lambda d: d[:4] + b"\x63\x00" + d[6:], "unsupported binary format version"),
        (
            lambda d: d[:100] + bytes((d[100] ^ 0x01,)) + d[101:],
            "checksum mismatch",
        ),
        (lambda d: b"", "shorter than its prelude"),
    ],
)
def test_damaged_entry_raises_trace_corrupt(trace_bytes, mangle, message):
    with pytest.raises(TraceCorruptError, match=message):
        binfmt.trace_from_bytes(mangle(trace_bytes))


def test_kind_mismatch_raises(base_machine, trace_bytes):
    clear_probe_cache()
    probes = probe_machine(base_machine)
    with pytest.raises(TraceCorruptError, match="not a application_trace"):
        binfmt.trace_from_bytes(binfmt.probes_to_bytes(probes))
    with pytest.raises(TraceCorruptError, match="not a machine_probes"):
        binfmt.probes_from_bytes(trace_bytes)


def _with_stale_schema(data: bytes) -> bytes:
    """``data`` rewritten as a schema-1 entry with a valid checksum."""
    current = f'"schema_version":{binfmt.SCHEMA_VERSION}'.encode()
    assert data.count(current) == 1
    stale = data.replace(current, b'"schema_version":1')
    prelude = struct.Struct("<4sHBBIQ16s")
    fields = list(prelude.unpack(stale[: prelude.size]))
    fields[-1] = hashlib.blake2b(stale[prelude.size :], digest_size=16).digest()
    return prelude.pack(*fields) + stale[prelude.size :]


def test_stale_payload_schema_raises_and_store_retraces(tmp_path, avus, base_machine):
    store = TraceStore(tmp_path)
    clear_trace_cache()
    trace = trace_application(avus, 64, base_machine, store=store)
    (path,) = store.traces_dir.iterdir()
    path.write_bytes(_with_stale_schema(path.read_bytes()))
    with pytest.raises(TraceCorruptError, match="unsupported payload schema version 1"):
        binfmt.load_trace(path)

    identity = (trace.application, trace.cpus, trace.base_machine, trace.sample_size)
    assert store.load_trace(*identity) is None
    assert store.invalidated == 1
    assert not path.exists()
    clear_trace_cache()
    retraced = trace_application(avus, 64, base_machine, store=store)
    assert retraced == trace
    assert store.load_trace(*identity) == trace
