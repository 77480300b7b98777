"""Run the full probe suite on a machine, with caching.

Probing a machine is cheap here but conceptually expensive (queue time on
ten production systems); the cache mirrors how the paper measured each
system once and reused the numbers for all 135 predictions per system.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.machines.spec import MachineSpec
from repro.probes.gups import run_gups
from repro.probes.hpl import run_hpl
from repro.probes.maps import run_maps
from repro.probes.netbench import run_netbench
from repro.probes.results import MachineProbes
from repro.probes.stream import run_stream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.tracing.store import TraceStore
    from repro.util.deadline import Deadline

__all__ = ["probe_machine", "clear_probe_cache"]

# Keyed by (name, content fingerprint): mutating a spec — even one reusing a
# production system's name — can never alias another spec's cached results.
_CACHE: dict[tuple[str, str], MachineProbes] = {}


#: Benchmark order of a full probe pass; each is a deadline checkpoint.
_BENCHMARKS = (
    ("hpl", run_hpl),
    ("stream", run_stream),
    ("gups", run_gups),
    ("maps", run_maps),
    ("netbench", run_netbench),
)


def probe_machine(
    machine: MachineSpec,
    *,
    store: "TraceStore | None" = None,
    deadline: "Deadline | None" = None,
) -> MachineProbes:
    """Run HPL, STREAM, GUPS, MAPS and NETBENCH on ``machine``.

    Results are cached by the spec's content fingerprint, so two different
    specs sharing a name get independent entries; ``store`` additionally
    consults and fills a persistent on-disk cache.  ``deadline`` (a
    :class:`~repro.util.deadline.Deadline`) is checked before each of the
    five benchmarks, so a caller under time pressure abandons an
    uncached probe pass part-way instead of finishing it late — cache hits
    cost nothing and are never blocked by an expired budget.
    """
    key = (machine.name, machine.fingerprint())
    if key in _CACHE:
        probes = _CACHE[key]
        # Write-through: a warm in-memory cache must still populate the
        # persistent store, or fresh processes would find it empty.
        if store is not None and not store.has_probes(machine):
            store.save_probes(machine, probes)
        return probes
    probes = store.load_probes(machine) if store is not None else None
    if probes is None:
        results = {}
        for name, runner in _BENCHMARKS:
            if deadline is not None:
                deadline.checkpoint("probe")
            results[name] = runner(machine)
        probes = MachineProbes(machine=machine.name, **results)
        if store is not None:
            store.save_probes(machine, probes)
    _CACHE[key] = probes
    return probes


def clear_probe_cache() -> None:
    """Drop all cached probe results."""
    _CACHE.clear()
