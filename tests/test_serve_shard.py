"""Property tests for the consistent-hash shard ring.

The two properties the fleet's semantics rest on, pinned numerically:
balance (±25% of fair share at 64 vnodes) and minimal key movement on
membership change (only the removed worker's keys change hands; re-adding
restores the exact prior assignment).
"""

import pytest

from repro.serve.shard import DEFAULT_VNODES, ShardRing
from repro.tracing.store import probes_key, trace_key

#: A realistic key population: every store digest the study matrix uses,
#: replicated across sample sizes for volume.
KEYS = [
    trace_key(app, cpus, "NAVO_690", sample)
    for app in (
        "AVUS-standard",
        "AVUS-large",
        "HYCOM-standard",
        "OVERFLOW2-standard",
        "RFCTH-standard",
    )
    for cpus in (16, 32, 48, 59, 64, 96, 124, 128, 256, 384)
    for sample in range(20)
] + [f"synthetic-{i}" for i in range(1000)]


def assignment(ring, keys=KEYS):
    return {key: ring.node_for(key) for key in keys}


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------
# 64 vnodes holds ±25% through the 2-4 worker fleets CI runs; larger
# fleets need vnodes to scale with membership for the same bound (the
# per-node share deviation shrinks like 1/sqrt(vnodes)).
BALANCE_CASES = [(2, DEFAULT_VNODES), (3, DEFAULT_VNODES), (4, DEFAULT_VNODES), (8, 256)]


@pytest.mark.parametrize("n_workers,vnodes", BALANCE_CASES)
def test_key_balance_within_25_percent(n_workers, vnodes):
    ring = ShardRing(tuple(f"w{i}" for i in range(n_workers)), vnodes=vnodes)
    counts = {node: 0 for node in ring.nodes}
    for owner in assignment(ring).values():
        counts[owner] += 1
    fair = len(KEYS) / n_workers
    for node, count in counts.items():
        assert 0.75 * fair <= count <= 1.25 * fair, (
            f"{node} owns {count} of {len(KEYS)} keys "
            f"(fair share {fair:.0f} ± 25%)"
        )


@pytest.mark.parametrize("n_workers,vnodes", BALANCE_CASES)
def test_hash_space_shares_within_25_percent(n_workers, vnodes):
    ring = ShardRing(tuple(f"w{i}" for i in range(n_workers)), vnodes=vnodes)
    shares = ring.shares()
    assert pytest.approx(sum(shares.values())) == 1.0
    fair = 1.0 / n_workers
    for node, share in shares.items():
        assert 0.75 * fair <= share <= 1.25 * fair, (
            f"{node} owns {share:.1%} of hash space (fair {fair:.1%} ± 25%)"
        )


# ---------------------------------------------------------------------------
# minimal movement
# ---------------------------------------------------------------------------
def test_removal_moves_only_the_dead_workers_keys():
    ring = ShardRing(("w0", "w1", "w2", "w3"))
    before = assignment(ring)
    ring.remove("w2")
    after = assignment(ring)
    for key, owner in before.items():
        if owner == "w2":
            assert after[key] != "w2"
        else:
            assert after[key] == owner, (
                f"{key} moved {owner} -> {after[key]} though its owner "
                "never left the ring"
            )


def test_readd_restores_exact_prior_assignment():
    ring = ShardRing(("w0", "w1", "w2"))
    before = assignment(ring)
    ring.remove("w1")
    ring.add("w1")
    assert assignment(ring) == before


def test_addition_moves_only_keys_to_the_new_worker():
    ring = ShardRing(("w0", "w1"))
    before = assignment(ring)
    ring.add("w2")
    after = assignment(ring)
    moved = {key for key in before if after[key] != before[key]}
    assert moved, "adding a worker must claim some keys"
    assert all(after[key] == "w2" for key in moved)


def test_mapping_is_deterministic_across_instances():
    a = ShardRing(("w0", "w1", "w2"))
    b = ShardRing(("w2", "w0", "w1"))  # insertion order must not matter
    assert assignment(a) == assignment(b)


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------
def test_empty_ring_raises_lookup_error():
    with pytest.raises(LookupError):
        ShardRing().node_for("anything")


def test_remove_unknown_and_double_add_are_noops():
    ring = ShardRing(("w0",))
    ring.remove("never-joined")
    ring.add("w0")
    assert ring.nodes == ("w0",)
    assert len(ring) == 1
    assert "w0" in ring and "w1" not in ring


def test_single_worker_owns_everything():
    ring = ShardRing(("only",))
    assert set(assignment(ring).values()) == {"only"}
    assert ring.shares() == {"only": 1.0}


def test_vnodes_validation():
    with pytest.raises(ValueError):
        ShardRing(vnodes=0)


def test_store_digests_are_usable_shard_keys():
    # The shard key *is* the store's content digest; distinct identities
    # must hash to distinct keys (same property the store relies on).
    from repro.machines.registry import get_machine

    a = trace_key("AVUS-standard", 64, "NAVO_690", 400)
    b = trace_key("AVUS-standard", 128, "NAVO_690", 400)
    c = probes_key(get_machine("ARL_Xeon"))
    assert len({a, b, c}) == 3
    ring = ShardRing(("w0", "w1"), vnodes=DEFAULT_VNODES)
    for key in (a, b, c):
        assert ring.node_for(key) in ("w0", "w1")
    # Pinned digests: a change renames every store entry and moves every
    # shard, so it must be deliberate.
    assert trace_key("AVUS-standard", 64, "NAVO_690", 4096) == (
        "191b40c79e6dc0df06ae50d941f15e47"
    )
    assert probes_key(get_machine("NAVO_690")) == "bf262df4e58b866507548423f98d5561"
