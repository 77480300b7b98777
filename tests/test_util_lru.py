"""The bounded LRU behind the tracer's memo and the engine's row memo."""

import sys
import threading

import pytest

from repro.util.lru import BoundedLRU


def test_evicts_least_recently_used_and_counts():
    lru = BoundedLRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # "b" is now the oldest
    lru.put("c", 3)
    assert lru.get("b") is None
    assert lru.counters() == {
        "size": 2, "max_size": 2, "hits": 1, "misses": 1, "evictions": 1
    }
    with pytest.raises(ValueError):
        BoundedLRU(0)


def test_an_uncounted_get_leaves_the_tally_to_its_caller():
    lru = BoundedLRU(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a", counted=False) == 1  # "b" is now the oldest
    assert lru.get("c", counted=False) is None
    assert (lru.hits, lru.misses) == (0, 0)
    lru.tally(True)
    lru.tally(False)
    assert (lru.hits, lru.misses) == (1, 1)
    lru.put("c", 3)
    assert "a" in lru and "b" not in lru


def test_concurrent_get_and_put_lose_no_update():
    # More threads than cores, a common start and a short switch interval:
    # without the lock a thread evicts a key between another's lookup and
    # its move to the front (KeyError), and counter updates go missing.
    threads, rounds = 8, 20000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _trial in range(3):
            lru = BoundedLRU(2)
            start = threading.Barrier(threads)

            def worker(offset):
                start.wait(timeout=30)
                for i in range(rounds):
                    key = (i * 7 + offset) % 5
                    if offset % 2:  # a lookup that counts its own outcome
                        value = lru.get(key, counted=False)
                        lru.tally(value is not None)
                    else:
                        value = lru.get(key)
                    if value is None:
                        lru.put(key, key)

            pool = [threading.Thread(target=worker, args=(n,)) for n in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
            counters = lru.counters()
            assert counters["hits"] + counters["misses"] == threads * rounds
            assert counters["size"] == 2
    finally:
        sys.setswitchinterval(interval)
