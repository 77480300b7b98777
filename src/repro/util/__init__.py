"""Shared utilities: deterministic RNG, unit helpers, table rendering, validation.

These are the lowest-level building blocks of :mod:`repro`; every other
subpackage may depend on them, and they depend on nothing but NumPy.
"""

from repro.util.io import write_atomic
from repro.util.rng import stable_rng, stable_seed
from repro.util.units import (
    KIB,
    MIB,
    GIB,
    GB,
    MB,
    KB,
    format_bytes,
    format_rate,
    format_seconds,
)
from repro.util.tables import Table, render_table
from repro.util.validation import check_positive, check_fraction, check_in

__all__ = [
    "write_atomic",
    "stable_rng",
    "stable_seed",
    "KIB",
    "MIB",
    "GIB",
    "KB",
    "MB",
    "GB",
    "format_bytes",
    "format_rate",
    "format_seconds",
    "Table",
    "render_table",
    "check_positive",
    "check_fraction",
    "check_in",
]
