"""Result types reported by the synthetic probes.

These are the *only* data the predictive metrics may consume about a target
machine — the convolver never touches a :class:`~repro.machines.spec.MachineSpec`
directly (that would be peeking at hardware no real benchmarker can see).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.units import GB

__all__ = [
    "HplResult",
    "StreamResult",
    "GupsResult",
    "MapsCurve",
    "MapsResult",
    "NetbenchResult",
    "MachineProbes",
]


@dataclass(frozen=True)
class HplResult:
    """High-Performance LINPACK outcome for one processor.

    Attributes
    ----------
    rmax_flops:
        Sustained FLOP/s on the LU solve (the per-processor Rmax the paper
        uses as every predictive metric's FP issue rate).
    rpeak_flops:
        Theoretical peak FLOP/s.
    n:
        Matrix dimension used.
    seconds:
        Modelled solve time.
    """

    rmax_flops: float
    rpeak_flops: float
    n: int
    seconds: float

    @property
    def efficiency(self) -> float:
        """Rmax / Rpeak."""
        return self.rmax_flops / self.rpeak_flops


@dataclass(frozen=True)
class StreamResult:
    """STREAM bandwidths in B/s (per processor).

    ``triad`` is the figure of merit the paper's metrics use.
    """

    copy: float
    scale: float
    add: float
    triad: float
    array_bytes: float

    @property
    def bandwidth(self) -> float:
        """The headline STREAM number (triad), B/s."""
        return self.triad


@dataclass(frozen=True)
class GupsResult:
    """HPC Challenge RandomAccess outcome (per processor).

    Attributes
    ----------
    gups:
        Giga-updates per second.
    random_bandwidth:
        Useful random-access bandwidth in B/s (8 bytes per read or write;
        this is the rate the convolver prices random references with).
    table_bytes:
        Size of the update table.
    """

    gups: float
    random_bandwidth: float
    table_bytes: float


@dataclass(frozen=True)
class MapsCurve:
    """One MAPS curve: achieved bandwidth versus working-set size.

    Lookups interpolate linearly in log(size); working sets outside the
    probed range clamp to the curve ends.
    """

    sizes: np.ndarray
    bandwidths: np.ndarray

    def __post_init__(self) -> None:
        sizes = np.asarray(self.sizes, dtype=float)
        bws = np.asarray(self.bandwidths, dtype=float)
        if sizes.ndim != 1 or sizes.shape != bws.shape or sizes.size < 2:
            raise ValueError("curve needs matching 1-D sizes/bandwidths, >= 2 points")
        if np.any(np.diff(sizes) <= 0):
            raise ValueError("sizes must be strictly increasing")
        if np.any(bws <= 0):
            raise ValueError("bandwidths must be positive")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "bandwidths", bws)
        object.__setattr__(self, "_log_sizes", np.log(sizes))

    def lookup(self, working_set: float) -> float:
        """Bandwidth (B/s) at ``working_set`` bytes."""
        if working_set <= 0:
            raise ValueError(f"working_set must be > 0, got {working_set!r}")
        return float(np.interp(np.log(working_set), self._log_sizes, self.bandwidths))

    def lookup_many_log(self, log_working_sets: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`lookup` for callers holding pre-taken ``log(ws)``.

        Element-for-element identical to scalar lookups (the same
        ``np.interp`` evaluation).  The convolver's rate table prices one
        row's working sets against every machine and curve kind; taking
        the log once there turns each curve lookup into a single
        ``np.interp``.
        """
        return np.interp(log_working_sets, self._log_sizes, self.bandwidths)


@dataclass(frozen=True)
class MapsResult:
    """MEMBENCH MAPS output: the standard and ENHANCED curve families.

    Attributes
    ----------
    unit, random:
        Standard MAPS curves (independent accesses).
    unit_dep, random_dep:
        ENHANCED MAPS curves with induced loop-carried dependencies.
    """

    unit: MapsCurve
    random: MapsCurve
    unit_dep: MapsCurve
    random_dep: MapsCurve

    def curve(self, kind: str) -> MapsCurve:
        """Return a curve by name (``unit``/``random``/``unit_dep``/``random_dep``)."""
        try:
            return getattr(self, kind)
        except AttributeError:
            raise KeyError(f"unknown MAPS curve {kind!r}") from None


@dataclass(frozen=True)
class NetbenchResult:
    """NETBENCH output: fitted point-to-point model + all_reduce table.

    Attributes
    ----------
    latency:
        Fitted one-way small-message latency, seconds.
    bandwidth:
        Fitted asymptotic point-to-point bandwidth, B/s.
    pingpong_sizes, pingpong_seconds:
        The raw measurements the fit came from.
    allreduce_ranks, allreduce_seconds:
        8-byte all_reduce time at each measured rank count.
    """

    latency: float
    bandwidth: float
    pingpong_sizes: np.ndarray
    pingpong_seconds: np.ndarray
    allreduce_ranks: np.ndarray
    allreduce_seconds: np.ndarray

    def point_to_point(self, size_bytes: float) -> float:
        """Predicted one-way message time from the fitted model."""
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be >= 0, got {size_bytes!r}")
        return self.latency + size_bytes / self.bandwidth

    def allreduce_time(self, ranks: int, size_bytes: float = 8.0) -> float:
        """All_reduce time interpolated from measurements in log2(ranks).

        Payloads other than 8 bytes add tree-depth bandwidth sweeps priced
        with the fitted point-to-point model.
        """
        if ranks <= 1:
            return 0.0
        base = float(
            np.interp(
                np.log2(ranks),
                np.log2(self.allreduce_ranks),
                self.allreduce_seconds,
            )
        )
        if size_bytes > 8.0:
            depth = float(np.ceil(np.log2(ranks)))
            base += 2.0 * depth * (size_bytes - 8.0) / self.bandwidth
        return base

    @property
    def allreduce_rate(self) -> float:
        """1 / (8-byte all_reduce time at the largest measured rank count).

        The "all_reduce score" used by the balanced rating — higher is better.
        """
        return 1.0 / float(self.allreduce_seconds[-1])


@dataclass(frozen=True)
class MachineProbes:
    """Everything the probe suite learned about one machine.

    This bundle is the complete "R(X)" of Equation 1 and the rate source for
    the convolver's Metrics #4-#9.
    """

    machine: str
    hpl: HplResult
    stream: StreamResult
    gups: GupsResult
    maps: MapsResult
    netbench: NetbenchResult

    def simple_rate(self, name: str) -> float:
        """Rate for the simple metrics: ``hpl``, ``stream`` or ``gups``."""
        if name == "hpl":
            return self.hpl.rmax_flops
        if name == "stream":
            return self.stream.bandwidth
        if name == "gups":
            return self.gups.random_bandwidth
        raise KeyError(f"unknown simple rate {name!r} (hpl/stream/gups)")

    def summary(self) -> dict[str, float]:
        """Headline numbers for reports."""
        return {
            "HPL Rmax (GF/s)": self.hpl.rmax_flops / 1e9,
            "STREAM triad (GB/s)": self.stream.triad / GB,
            "GUPS (GUP/s)": self.gups.gups,
            "NET latency (us)": self.netbench.latency * 1e6,
            "NET bandwidth (GB/s)": self.netbench.bandwidth / GB,
        }
