"""Validated option enums shared by every pipeline layer.

The ``mode`` / ``cache_model`` knob pair used to travel the codebase as
bare strings, each consumer re-validating (or forgetting to validate) its
own copy — an invalid value could survive config construction and only
blow up mid-study inside a worker process.  These enums centralise the
vocabulary: :meth:`~OptionEnum.coerce` turns user input into the enum at
*construction* time, raising a :class:`ValueError` that names the knob and
the known values, and every layer (study config, prediction service,
tracer, store, CLI) shares the single definition.

Both enums subclass :class:`str`, so existing call sites keep working
unchanged: ``cfg.mode == "relative"`` is still true, f-strings render the
bare value, pickling to study workers is transparent, and
``json.dumps`` emits the plain string.  ``repr`` is pinned to the plain
string's repr so checkpoint config digests (which hash field reprs) are
byte-identical to the stringly-typed era.

The definitions live in :mod:`repro.util` — the bottom of the dependency
stack — because the tracer and store (below :mod:`repro.core`) validate
with them too.  :mod:`repro.core` re-exports both names.
"""

from __future__ import annotations

import enum

__all__ = ["Mode", "CacheModel"]


class OptionEnum(str, enum.Enum):
    """A closed string vocabulary that validates at construction."""

    @classmethod
    def coerce(cls, value: object) -> "OptionEnum":
        """Return the member for ``value``, naming the knob on failure."""
        try:
            return cls(value)
        except ValueError:
            known = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown {cls.option_name()} {value!r}; known: {known}"
            ) from None

    @classmethod
    def option_name(cls) -> str:
        """Human name of the knob (subclasses override)."""
        return cls.__name__.lower()

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


class Mode(OptionEnum):
    """Convolver anchoring: base-relative (the paper) or absolute."""

    RELATIVE = "relative"
    ABSOLUTE = "absolute"

    @classmethod
    def option_name(cls) -> str:
        return "mode"


class CacheModel(OptionEnum):
    """Cache accounting back-end used when tracing with ``cache_sim``."""

    ANALYTIC = "analytic"
    EXACT = "exact"

    @classmethod
    def option_name(cls) -> str:
        return "cache_model"
