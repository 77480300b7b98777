"""The validated ``mode`` option shared by every pipeline layer.

The ``mode`` knob used to travel the codebase as a bare string, each
consumer re-validating (or forgetting to validate) its own copy — an
invalid value could survive config construction and only blow up
mid-study inside a worker process.  :class:`Mode` centralises the
vocabulary: :meth:`~Mode.coerce` turns user input into the enum at
*construction* time, raising a :class:`ValueError` that names the knob
and the known values, and every layer (study config, engine, prediction
service, CLI) shares the single definition.

The enum subclasses :class:`str`, so existing call sites keep working
unchanged: ``cfg.mode == "relative"`` is still true, f-strings render the
bare value, pickling to study workers is transparent, and
``json.dumps`` emits the plain string.  ``repr`` is pinned to the plain
string's repr so checkpoint config digests (which hash field reprs) are
byte-identical to the stringly-typed era.

The definition lives in :mod:`repro.util` — the bottom of the dependency
stack — so every layer can validate with it; :mod:`repro.core`
re-exports it.
"""

from __future__ import annotations

import enum

__all__ = ["Mode"]


class Mode(str, enum.Enum):
    """Convolver anchoring: base-relative (the paper) or absolute."""

    RELATIVE = "relative"
    ABSOLUTE = "absolute"

    @classmethod
    def coerce(cls, value: object) -> "Mode":
        """Return the member for ``value``, naming the knob on failure."""
        try:
            return cls(value)
        except ValueError:
            raise ValueError(
                f"unknown mode {value!r}; known: {', '.join(cls.values())}"
            ) from None

    @classmethod
    def values(cls) -> tuple[str, ...]:
        """The raw string vocabulary, in declaration order."""
        return tuple(m.value for m in cls)

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        # Checkpoint identity digests hash repr(field); keeping the plain
        # string's repr means enum adoption never invalidates a journal.
        return repr(self.value)
