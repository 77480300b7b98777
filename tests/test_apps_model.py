"""Tests for the application workload model."""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.apps.model import MIN_WORKING_SET, ApplicationModel, BasicBlock, CommEvent
from repro.memory.patterns import StrideHistogram
from repro.network.model import CollectiveKind


def _block(**kw):
    defaults = dict(
        name="b",
        fp_per_cell=100.0,
        loads_per_cell=30.0,
        stores_per_cell=10.0,
        stride=StrideHistogram(unit=0.7, short=0.2, random=0.1),
    )
    defaults.update(kw)
    return BasicBlock(**defaults)


def test_block_derived_quantities():
    b = _block()
    assert b.refs_per_cell == 40.0
    assert b.bytes_per_cell == 320.0


def test_block_working_set_laws():
    full = _block(ws_exponent=1.0)
    surface = _block(ws_exponent=2 / 3, ws_scale=2.0)
    fixed = _block(ws_exponent=0.0, ws_scale=1 << 20)
    rb = 1e9
    assert full.working_set(rb) == pytest.approx(rb)
    assert surface.working_set(rb) == pytest.approx(2.0 * rb ** (2 / 3))
    assert fixed.working_set(rb) == pytest.approx(float(1 << 20))


def test_block_working_set_clamped():
    b = _block(ws_exponent=0.0, ws_scale=1.0)  # pathological tiny ws
    assert b.working_set(1e9) == MIN_WORKING_SET
    big_fixed = _block(ws_exponent=0.0, ws_scale=1e12)
    assert big_fixed.working_set(1e9) == 1e9  # cannot exceed rank data


def test_block_rejects_no_work():
    with pytest.raises(ValueError, match="no work"):
        _block(fp_per_cell=0.0, loads_per_cell=0.0, stores_per_cell=0.0)


def test_block_validates_fractions():
    with pytest.raises(ValueError):
        _block(dependency_fraction=1.5)
    with pytest.raises(ValueError):
        _block(ws_exponent=1.2)
    with pytest.raises(ValueError):
        _block(chase_fraction=-0.1)


def test_comm_event_size_law():
    halo = CommEvent(
        name="halo", kind="p2p", count=4, size_scale=2.0, size_exponent=2 / 3
    )
    assert halo.size_bytes(1e9) == pytest.approx(2.0 * 1e9 ** (2 / 3))
    fixed = CommEvent(
        name="ar", kind=CollectiveKind.ALLREDUCE, count=1, size_scale=8.0
    )
    assert fixed.size_bytes(1e9) == 8.0


def test_comm_event_kind_validation():
    with pytest.raises(ValueError, match="p2p"):
        CommEvent(name="x", kind="pt2pt", count=1, size_scale=8.0)


def test_comm_event_is_p2p():
    assert CommEvent(name="h", kind="p2p", count=1, size_scale=1.0).is_p2p
    assert not CommEvent(
        name="a", kind=CollectiveKind.BARRIER, count=1, size_scale=1.0
    ).is_p2p


def _app(**kw):
    defaults = dict(
        name="APP",
        testcase="std",
        description="test app",
        cells=1e6,
        bytes_per_cell=1000.0,
        timesteps=10,
        cpu_counts=(8, 16),
        blocks=(_block(),),
    )
    defaults.update(kw)
    return ApplicationModel(**defaults)


def test_app_rank_quantities():
    app = _app()
    assert app.rank_cells(8) == pytest.approx(1.25e5)
    assert app.rank_bytes(8) == pytest.approx(1.25e8)
    assert app.label == "APP-std"


def test_app_block_lookup():
    app = _app()
    assert app.block("b").name == "b"
    with pytest.raises(KeyError):
        app.block("missing")


def test_app_rejects_duplicate_blocks():
    with pytest.raises(ValueError, match="duplicate"):
        _app(blocks=(_block(), _block()))


def test_app_rejects_empty_counts_and_blocks():
    with pytest.raises(ValueError):
        _app(cpu_counts=())
    with pytest.raises(ValueError):
        _app(blocks=())
    with pytest.raises(ValueError):
        _app(cpu_counts=(0,))


def test_app_hash_memo_is_invisible():
    fresh = _app()
    memo = _app()
    digest = hash(memo)
    assert memo.__dict__["_hash"] == digest  # computed once, then kept
    # The memo sits outside the fields: ==, repr and replace never see it.
    assert memo == fresh and repr(memo) == repr(fresh)
    assert hash(fresh) == digest
    replaced = dataclasses.replace(memo, timesteps=11)
    assert "_hash" not in replaced.__dict__
    assert hash(replaced) != digest
    assert hash(dataclasses.replace(replaced, timesteps=10)) == digest
    # str hashes are salted per process, so pickled state leaves it out.
    assert "_hash" not in memo.__getstate__()
    copied = pickle.loads(pickle.dumps(memo))
    assert "_hash" not in copied.__dict__ and copied == memo


#: Unpickle an app from stdin under another hash seed and look it up in a
#: dict keyed by an equal app resolved in that process.
_LOOKUP_ELSEWHERE = """
import pickle, sys
from repro.scenarios import get_application
app = pickle.loads(sys.stdin.buffer.read())
table = {get_application(app.label): "hit"}
print(hash("salt"), table.get(app, "miss"))
"""


def test_app_hashed_here_hits_an_equal_app_in_a_process_with_another_hash_seed():
    from repro.scenarios import get_application

    app = get_application("HYCOM-standard@5")
    hash(app)  # memoised under this process's hash seed
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", _LOOKUP_ELSEWHERE],
        input=pickle.dumps(app),
        capture_output=True,
        env=env,
        timeout=60,
        check=True,
    )
    salt, outcome = out.stdout.decode().split()
    assert int(salt) != hash("salt")  # the two processes hash strs differently
    assert outcome == "hit"
