"""Golden-stream equivalence tests for the vectorized kernel layer.

Each vectorized kernel (pointer chase gather, block-axis convolution) is
checked bit-for-bit against a straightforward per-element reference
implementation matching the seed code, for fixed seeds.
"""

import numpy as np
import pytest

from repro.core.convolver import Convolver, MemoryModel
from repro.memory.streams import pointer_chase_addresses
from repro.probes.suite import probe_machine
from repro.tracing.metasim import trace_application
from repro.util.rng import stable_rng

from tests.conftest import make_machine


# ---------------------------------------------------------------------------
# pointer chase
# ---------------------------------------------------------------------------


def _chase_reference(n, working_set, rng, element_bytes=8, base=0):
    """Seed-style chase: build the nxt table and walk it one step at a time."""
    ws = int(working_set) // element_bytes
    perm = rng.permutation(ws).astype(np.int64)
    nxt = np.empty(ws, dtype=np.int64)
    nxt[perm[:-1]] = perm[1:]
    nxt[perm[-1]] = perm[0]
    out = np.empty(n, dtype=np.int64)
    cur = perm[0]
    for i in range(n):
        out[i] = cur
        cur = nxt[cur]
    return base + out * element_bytes


@pytest.mark.parametrize("n,ws_elems", [(64, 64), (128, 64), (100, 200), (50, 7)])
def test_chase_gather_matches_reference_walk(n, ws_elems):
    a = pointer_chase_addresses(n, ws_elems * 8, stable_rng("golden", n, ws_elems))
    b = _chase_reference(n, ws_elems * 8, stable_rng("golden", n, ws_elems))
    np.testing.assert_array_equal(a, b)


def test_chase_bounded_path_is_deterministic_and_distinct():
    # ws far larger than the sample: the bounded path must not allocate the
    # full permutation, stay deterministic per seed, and emit distinct
    # element-aligned addresses inside the working set.
    ws = 1 << 30  # 1 GiB working set, 2**27 elements
    n = 4096
    a = pointer_chase_addresses(n, ws, stable_rng("big"))
    b = pointer_chase_addresses(n, ws, stable_rng("big"))
    np.testing.assert_array_equal(a, b)
    assert a.shape == (n,)
    assert len(np.unique(a)) == n  # all distinct: a chase never revisits early
    assert a.min() >= 0 and a.max() < ws
    assert (a % 8 == 0).all()


def test_chase_bounded_path_differs_across_seeds():
    a = pointer_chase_addresses(256, 1 << 28, stable_rng("s1"))
    b = pointer_chase_addresses(256, 1 << 28, stable_rng("s2"))
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------------------
# batched convolution
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trace_and_probes(base_machine, avus):
    trace = trace_application(avus, 64, base_machine)
    targets = [
        probe_machine(make_machine(name=f"BATCH_{i}", clock_ghz=1.0 + 0.5 * i, mem_bw=1.0 + i))
        for i in range(4)
    ]
    return trace, targets


@pytest.mark.parametrize("model", list(MemoryModel))
def test_predict_batch_bitwise_equals_scalar_predict(trace_and_probes, model):
    trace, targets = trace_and_probes
    conv = Convolver(model, network=model in (MemoryModel.MAPS, MemoryModel.MAPS_DEP))
    batched = conv.predict_batch(trace, targets)
    for probes, ct in zip(targets, batched):
        blocks = tuple(conv.predict_block(b, probes) for b in trace.blocks)
        assert ct.blocks == blocks  # exact float equality via dataclass eq
        scalar_compute = float(np.sum(np.array([b.seconds for b in blocks]))) * trace.timesteps
        assert ct.compute_seconds == scalar_compute


def test_lookup_many_equals_scalar_lookup(base_probes):
    curve = base_probes.maps.unit
    sizes = np.array([1e3, 4e4, 2e6, 8e8, curve.sizes[0], curve.sizes[-1]])
    batched = curve.lookup_many_log(np.log(sizes))
    for ws, bw in zip(sizes, batched):
        assert bw == curve.lookup(float(ws))
