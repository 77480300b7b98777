"""EMPS-style stride detector.

The paper's MetaSim Tracer "parses the address stream with a stride
detector, thus determining what portion of memory references are stride-1,
non-unit short strides (up to stride-8), and random stride".  This module
implements that classification for a sampled address stream, producing
the per-block stride histogram the convolver's Metrics #6-#9 consume
(the tracer estimates working sets from the sampled streams' spans).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.memory.patterns import SHORT_STRIDE_MAX, StrideHistogram

__all__ = ["StrideDetector", "StrideReport"]


@dataclass(frozen=True)
class StrideReport:
    """Outcome of stride detection over one sampled reference stream.

    Attributes
    ----------
    histogram:
        Fractions of references classified unit / short / random.
    references:
        Number of references analysed.
    """

    histogram: StrideHistogram
    references: int


class StrideDetector:
    """Classify references of an address stream by successive stride.

    Parameters
    ----------
    element_bytes:
        Element size used to convert byte deltas to element strides.
    short_max:
        Largest |stride| (elements) still binned as short (paper: 8).
    """

    def __init__(self, element_bytes: int = 8, short_max: int = SHORT_STRIDE_MAX):
        if element_bytes <= 0:
            raise ValueError(f"element_bytes must be > 0, got {element_bytes}")
        if short_max < 2:
            raise ValueError(f"short_max must be >= 2, got {short_max}")
        self.element_bytes = element_bytes
        self.short_max = short_max

    def classify(self, addresses: np.ndarray) -> StrideReport:
        """Analyse one reference stream (addresses of a single load/store group).

        The first reference of a stream has no predecessor and inherits the
        classification of the second, matching how per-instruction stride
        detectors warm up.
        """
        addrs = np.asarray(addresses, dtype=np.int64)
        n = int(addrs.shape[0])
        if n == 0:
            raise ValueError("cannot classify an empty address stream")
        if n == 1:
            hist = StrideHistogram(unit=1.0, short=0.0, random=0.0)
            return StrideReport(histogram=hist, references=1)

        deltas = addrs[1:] - addrs[:-1]  # np.diff minus the wrapper overhead
        # Classification happens in the integer byte domain: an element
        # stride |d/e| is exactly 1 (or within [2, short_max]) iff the byte
        # delta |d| is exactly e (or within [2e, short_max*e]) — integer
        # comparisons give bit-for-bit the classification the float
        # element-stride domain would, without a float division per delta.
        eb = self.element_bytes
        abs_deltas = np.abs(deltas)
        # wrap-around jumps of a cyclic sweep look like one huge stride; they
        # are a fixed, detectable artifact and real detectors ignore them.
        unit = int(np.count_nonzero(abs_deltas == eb))
        short_mask = (abs_deltas >= 2 * eb) & (abs_deltas <= self.short_max * eb)
        short = int(np.count_nonzero(short_mask))
        random = deltas.size - unit - short
        hist = StrideHistogram.normalised(
            unit=float(unit),
            short=float(short),
            random=float(random),
            short_stride_elems=self._dominant_short_stride(
                abs_deltas, short_mask, short
            ),
        )
        return StrideReport(histogram=hist, references=n)

    def _dominant_short_stride(
        self, abs_deltas: np.ndarray, short_mask: np.ndarray, short: int
    ) -> int:
        if short == 0:
            return 4
        # Truncated element strides, as the float path's astype produced
        # (byte deltas are non-negative here, so floor == trunc).
        values = (abs_deltas[short_mask] / self.element_bytes).astype(np.int64)
        counts = np.bincount(values, minlength=self.short_max + 1)
        return int(np.argmax(counts))
