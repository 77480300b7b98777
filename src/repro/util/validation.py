"""Small argument-validation helpers used across the package.

The simulators are configuration-heavy; failing fast with a precise message
on a bad machine or application spec is far cheaper than debugging a NaN
three layers down the convolution.
"""

from __future__ import annotations

import difflib
import operator
from collections.abc import Container, Iterable

__all__ = [
    "check_int",
    "check_positive",
    "check_fraction",
    "check_in",
    "check_distinct",
    "nearest_ids",
    "check_known",
]


def check_int(name: str, value: object) -> int:
    """``value`` as an int: an integer (anything :func:`operator.index`
    takes, except ``bool``) or a string :func:`int` parses.

    Anything else raises :class:`ValueError` naming the value, where a
    bare ``int()`` would read ``32.9`` as 32 and ``True`` as 1.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_positive(name: str, value: float, *, allow_zero: bool = False) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite number."""
    v = float(value)
    if v != v:  # NaN
        raise ValueError(f"{name} must not be NaN")
    if allow_zero:
        if v < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif v <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return v


def check_fraction(name: str, value: float) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return v


def check_in(name: str, value: object, allowed: Container) -> object:
    """Validate that ``value`` is a member of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed!r}, got {value!r}")
    return value


def check_distinct(kind: str, where: str, values: Iterable[object]) -> None:
    """Validate that no entry of ``values`` repeats; the error names the
    first repeated ``kind`` entry and ``where`` it was found."""
    seen: set = set()
    for value in values:
        if value in seen:
            raise ValueError(f"duplicate {kind} {value!r} in {where}")
        seen.add(value)


def nearest_ids(value: object, known: Iterable[object], n: int = 3) -> tuple[str, ...]:
    """The ``n`` valid identifiers closest to a mistyped ``value``.

    Strings match fuzzily (:func:`difflib.get_close_matches`, case folded);
    numbers rank by absolute distance.  Used by the service boundary to turn
    "unknown application" into an actionable 400 instead of a bare error.
    """
    candidates = list(known)
    if not candidates:
        return ()
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numeric = [c for c in candidates if isinstance(c, (int, float))]
        ranked = sorted(numeric, key=lambda c: (abs(c - value), c))
        return tuple(str(c) for c in ranked[:n])
    text = str(value)
    by_name = {str(c): c for c in candidates}
    matches = difflib.get_close_matches(text, by_name, n=n, cutoff=0.4)
    if not matches:  # fall back to case-insensitive prefix matches
        low = text.lower()
        matches = [name for name in by_name if name.lower().startswith(low[:3])][:n]
    return tuple(matches)


def check_known(kind: str, value: object, known: Iterable[object]) -> object:
    """Validate ``value`` against a registry, raising a structured error.

    Unlike :func:`check_in` this raises
    :class:`~repro.core.errors.UnknownIdError` carrying the full known set
    *and* the nearest matches, which the HTTP layer renders as a 400 body.
    """
    # Imported lazily: util is the bottom of the dependency stack, and a
    # module-level import of repro.core would be circular.
    from repro.core.errors import UnknownIdError

    candidates = list(known)
    if value in candidates:
        return value
    raise UnknownIdError(
        kind,
        value,
        tuple(str(c) for c in candidates),
        nearest_ids(value, candidates),
    )
