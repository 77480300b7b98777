#!/usr/bin/env python
"""AST import-boundary lint for the repro package layering.

The package is layered (see DESIGN.md section 5f):

    util  <  machines/apps/probes/memory/network  <  events/tracing  <  core
          <  engine  <  study / serve  <  cli

Two boundaries carry the architecture and are enforced here:

* ``repro.core`` must import from **neither** ``repro.study`` **nor**
  ``repro.serve`` — the numeric core (metrics, convolver, registry,
  predictor facade) cannot depend on any orchestration or serving
  concern, or the study/serve layers stop being optional clients.
* ``repro.engine`` must import **neither** the HTTP front end and its
  worker fleet (``repro.serve.frontend``, ``repro.serve.fleet``) **nor**
  ``repro.cli`` — the staged engine is a library both the study runner
  and the service embed; the moment it reaches into a front end, the
  dependency arrow inverts.  (Engine middleware talks to serve-layer
  objects like BreakerBoard strictly by duck type, so no import is ever
  needed.)

A third boundary guards the scenario catalog (DESIGN.md section 5k):
``repro.scenarios`` is the id-resolution layer every consumer goes
through, so it must not import the layers above it (study / serve /
engine / sim / cli) — except the sensitivity module, which *orchestrates*
studies and is whitelisted for exactly one edge.  Conversely the scenario
*builder* modules (``repro.machines.registry``, ``repro.apps.suite``) are
frozen data: only the catalog's builtin snapshot and the two package
deprecation shims may import them; everyone else resolves ids through
``repro.scenarios`` and therefore sees mounted universes too.

Every ``import``/``from`` statement is checked, *including* ones nested
inside functions — a lazy import is still a dependency edge; laziness
only changes when the cost is paid.  Allowed exceptions are explicit in
:data:`ALLOWED`, with the reason inline.

A second pass lints **time usage**: outside ``repro/util/clock.py`` no
module may call ``time.time``/``time.monotonic``/``time.sleep`` (or
import those names from :mod:`time`) — every time consumer must go
through the injectable :class:`repro.util.clock.Clock` seam, or the
deterministic simulation harness cannot put it on virtual time.
``time.perf_counter`` stays allowed: it only *measures* wall cost for
diagnostics and never steers control flow.

Run from the repository root (CI does)::

    python scripts/check_layering.py

Exits 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: layer prefix -> module prefixes it must never import.
FORBIDDEN: dict[str, tuple[str, ...]] = {
    "repro.core": ("repro.study", "repro.serve"),
    "repro.engine": ("repro.serve.frontend", "repro.serve.fleet", "repro.cli"),
    # The shared bottom layers must not reach up either; cheap to pin.
    "repro.util": ("repro.study", "repro.serve", "repro.engine", "repro.cli"),
    "repro.tracing": ("repro.study", "repro.serve", "repro.engine", "repro.cli"),
    # The event-sourced durability core (DESIGN.md section 5i) sits beside
    # tracing: every higher layer may append to it, but the log itself
    # depends only on stdlib + repro.util — it must never know who writes.
    "repro.events": (
        "repro.core",
        "repro.tracing",
        "repro.study",
        "repro.serve",
        "repro.engine",
        "repro.cli",
    ),
    # The simulation harness drives study/serve objects, so it sits above
    # them — but it is a library the CLI fronts, never the reverse.
    "repro.sim": ("repro.cli",),
    # The scenario catalog is the id-resolution layer every consumer
    # shares; it must stay importable without dragging in orchestration
    # or serving (the one sensitivity edge is whitelisted below).
    "repro.scenarios": (
        "repro.study",
        "repro.serve",
        "repro.engine",
        "repro.sim",
        "repro.cli",
    ),
}

#: (module, imported) pairs exempted from FORBIDDEN, with cause.
ALLOWED: frozenset[tuple[str, str]] = frozenset(
    {
        # The sensitivity sweep deliberately *drives* the study runner —
        # it exists to push generated universes through the exact code
        # path the paper tables use.  One lazy edge, one direction.
        ("repro.scenarios.sensitivity", "repro.study.runner"),
    }
)

#: Scenario *builder* modules: frozen data behind the catalog.  Direct
#: imports are banned so every consumer resolves ids through
#: ``repro.scenarios`` (and thereby sees mounted universes).
BUILDER_MODULES: tuple[str, ...] = ("repro.machines.registry", "repro.apps.suite")

#: The only modules allowed to import the builders: the catalog's
#: builtin snapshot, and the two package shims that deprecate the old
#: module-level dicts.
BUILDER_IMPORTERS: frozenset[str] = frozenset(
    {
        "repro.scenarios.builtin",
        "repro.machines",
        "repro.apps",
    }
)

#: ``time`` attributes that steer control flow and are therefore banned
#: outside the Clock seam.  ``perf_counter`` (pure measurement) is not
#: listed on purpose.
BANNED_TIME_CALLS: frozenset[str] = frozenset({"time", "monotonic", "sleep"})

#: The one module allowed to touch :mod:`time` directly.
CLOCK_MODULE = "repro.util.clock"


def module_name(path: Path) -> str:
    """Dotted module name of a file under ``src/``."""
    rel = path.relative_to(SRC).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imports_of(path: Path) -> list[tuple[int, str]]:
    """Every imported module in ``path`` as (line, dotted-name)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import: resolve against this package
                base = module_name(path).split(".")
                if path.name != "__init__.py":
                    base.pop()
                base = base[: len(base) - (node.level - 1)]
                prefix = ".".join(base)
                target = f"{prefix}.{node.module}" if node.module else prefix
            else:
                target = node.module or ""
            found.append((node.lineno, target))
    return found


def time_calls_of(path: Path) -> list[tuple[int, str]]:
    """Banned direct time usages in ``path`` as (line, description).

    Flags ``time.time``/``time.monotonic``/``time.sleep`` attribute
    access (call or reference — storing ``time.monotonic`` as a default
    is still a direct dependency) and ``from time import ...`` of those
    names.  ``time.perf_counter`` and everything else pass.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in BANNED_TIME_CALLS
        ):
            found.append((node.lineno, f"time.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "time" and not node.level:
            for alias in node.names:
                if alias.name in BANNED_TIME_CALLS or alias.name == "*":
                    found.append((node.lineno, f"from time import {alias.name}"))
    return found


def check_time_usage() -> list[str]:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        mod = module_name(path)
        if mod == CLOCK_MODULE:
            continue
        for line, usage in time_calls_of(path):
            violations.append(
                f"{path.relative_to(SRC.parent)}:{line}: "
                f"{mod} uses {usage} directly "
                f"(go through repro.util.clock.Clock)"
            )
    return violations


def check() -> list[str]:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        mod = module_name(path)
        rules = [
            banned
            for layer, banned in FORBIDDEN.items()
            if mod == layer or mod.startswith(layer + ".")
        ]
        if not rules:
            continue
        for line, imported in imports_of(path):
            for banned in rules:
                for ban in banned:
                    if imported == ban or imported.startswith(ban + "."):
                        if (mod, imported) in ALLOWED:
                            continue
                        violations.append(
                            f"{path.relative_to(SRC.parent)}:{line}: "
                            f"{mod} imports {imported} "
                            f"(forbidden: {ban})"
                        )
    return violations


def check_builder_imports() -> list[str]:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        mod = module_name(path)
        if mod in BUILDER_IMPORTERS:
            continue
        if any(mod == b or mod.startswith(b + ".") for b in BUILDER_MODULES):
            continue
        for line, imported in imports_of(path):
            if imported in BUILDER_MODULES:
                violations.append(
                    f"{path.relative_to(SRC.parent)}:{line}: "
                    f"{mod} imports {imported} directly "
                    f"(resolve ids through repro.scenarios)"
                )
    return violations


def main() -> int:
    violations = check() + check_builder_imports() + check_time_usage()
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        print(
            f"check_layering: {len(violations)} layering violation(s)",
            file=sys.stderr,
        )
        return 1
    print("check_layering: import boundaries and time usage clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
