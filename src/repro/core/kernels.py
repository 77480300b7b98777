"""Numeric kernels shared by the executor and the convolver.

Both are NumPy ufunc chains with a fixed IEEE-754 operation order —
per-level accumulation in level order, the overlap combine as
``(t_fp + t_mem) - overlap * min(t_fp, t_mem)`` — which the golden
records pin bit-for-bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["accumulate_time_per_byte", "combine_overlap"]


def accumulate_time_per_byte(residency: np.ndarray, level_bw: np.ndarray) -> np.ndarray:
    """``(combos, runs, blocks)`` seconds-per-byte, accumulated per level."""
    # residency: (runs, blocks, levels); level_bw: (combos, blocks, levels).
    # Accumulates in level order starting from an exact 0.0, like the
    # scalar hierarchy walk.
    out = np.zeros((level_bw.shape[0], residency.shape[0], residency.shape[1]))
    for lvl in range(level_bw.shape[2]):
        out = out + residency[None, :, :, lvl] / level_bw[:, None, :, lvl]
    return out


def combine_overlap(t_fp: np.ndarray, t_mem: np.ndarray, overlap: float) -> np.ndarray:
    """Combined seconds after hiding ``overlap`` of the smaller term."""
    return t_fp + t_mem - float(overlap) * np.minimum(t_fp, t_mem)
