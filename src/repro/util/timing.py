"""Per-stage wall-clock accounting for the study pipeline.

A :class:`StageTimer` is a named bag of accumulated seconds.  The study
runner threads one through tracing, probing and convolution so a run can
report *where* its time went (probe / execute / trace / convolve) — the
breakdown `scripts/bench_study.py` records in ``BENCH_study.json``.  The
engine's :class:`~repro.engine.middleware.TimingMiddleware` times each
stage with ``time.perf_counter`` in ``try``/``finally`` and books it
with :meth:`StageTimer.add`.
"""

from __future__ import annotations

__all__ = ["StageTimer"]


class StageTimer:
    """Accumulate wall-clock seconds under named stages."""

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}

    def add(self, stage: str, seconds: float) -> None:
        """Add ``seconds`` to ``stage``'s accumulator."""
        self._seconds[stage] = self._seconds.get(stage, 0.0) + seconds

    def merge(self, other: dict[str, float]) -> None:
        """Fold another breakdown (e.g. from a worker process) into this one."""
        for stage, seconds in other.items():
            self.add(stage, seconds)

    def breakdown(self) -> dict[str, float]:
        """Snapshot of all stages, insertion-ordered."""
        return dict(self._seconds)
