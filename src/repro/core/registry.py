"""Declarative metric registry: Table 3 (and beyond) as data.

The paper's metrics are *compositions*: each one is an ordered list of
ingredient terms — an Equation-1 benchmark ratio, the convolver's FP term,
a memory-rate source, the NETBENCH network term, the ENHANCED-MAPS
dependent-access correction, or an IDC-style category score.  This module
makes that composition explicit: a :class:`MetricSpec` is a list of
``kind/source`` :class:`Term` strings plus an identity, and every metric
in the system — the nine of Table 3, the Section 4 balanced rating, and
any user-defined metric (#10 and up, registered in code or loaded from a
TOML file) — is an entry in the :class:`MetricRegistry`.

Term grammar (``kind/source`` with an optional ``:weight`` suffix)::

    ratio/hpl  ratio/stream  ratio/gups          Equation-1 simple ratios
    flops/hpl                                    convolver FP term (Rmax)
    mem/stream  mem/gups  mem/maps               convolver memory term
    net/netbench                                 MPI event pricing
    dep/enhanced-maps                            dependent-access curves
    score/hpl  score/stream  score/allreduce     IDC category scores

Each term carries a base cost (:data:`TERM_COSTS`, in "probe-ratio
evaluation" units); a spec's cost defaults to the sum of its terms'.  The
serve degradation ladder is **derived** from those costs — see
:func:`MetricRegistry.ladder` — instead of being hardcoded in the serving
layer, so registering a richer metric automatically slots it into the
fallback chain.

The registry stores only specs (data).  Runtime ``Metric`` objects are
built from specs by :mod:`repro.core.metrics`, which keeps this module
import-light (no convolver, no probes) and lets the serving layer consult
ladder/ingredient metadata without touching the numeric stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.validation import nearest_ids

__all__ = [
    "Term",
    "MetricSpec",
    "MetricRegistry",
    "REGISTRY",
    "BUILTIN_SPECS",
    "TERM_COSTS",
    "DEGRADE_COST_RATIO",
    "load_metric_specs",
]

#: Base cost of each term, in "probe-ratio evaluation" units.  The
#: absolute numbers are a coarse but honest ranking of acquisition +
#: evaluation effort: a ratio reads two cached probe numbers; the
#: convolver's FP term needs operation counts; memory terms add rate
#: lookups (MAPS much more than STREAM — a whole curve family per
#: machine); the network term prices every traced MPI event; the
#: dependent-access correction doubles the MAPS curve set.
TERM_COSTS: dict[tuple[str, str], float] = {
    ("ratio", "hpl"): 1.0,
    ("ratio", "stream"): 1.0,
    ("ratio", "gups"): 1.0,
    ("flops", "hpl"): 6.0,
    ("mem", "stream"): 4.0,
    ("mem", "gups"): 4.0,
    ("mem", "maps"): 14.0,
    ("net", "netbench"): 12.0,
    ("dep", "enhanced-maps"): 8.0,
    ("score", "hpl"): 1.0,
    ("score", "stream"): 1.0,
    ("score", "allreduce"): 1.0,
}

#: A degradation rung must at least halve the cost of the rung above it —
#: a fallback that buys less headroom than that is not worth a distinct
#: rung under deadline pressure (it would fail for the same reasons at
#: nearly the same cost).
DEGRADE_COST_RATIO = 0.5

#: Metric kinds and the pipeline stages each must traverse.
_KIND_STAGES: dict[str, tuple[str, ...]] = {
    "simple": ("probe",),
    "predictive": ("probe", "trace", "convolve"),
    "composite": ("probe",),
}

#: Term kinds legal for each metric kind.
_KIND_TERMS: dict[str, frozenset[str]] = {
    "simple": frozenset({"ratio"}),
    "predictive": frozenset({"flops", "mem", "net", "dep"}),
    "composite": frozenset({"score"}),
}


@dataclass(frozen=True)
class Term:
    """One ingredient of a metric: ``kind/source`` with an optional weight.

    Attributes
    ----------
    kind:
        Ingredient class — ``ratio``, ``flops``, ``mem``, ``net``,
        ``dep`` or ``score``.
    source:
        The probe/analysis backing the term (``hpl``, ``stream``,
        ``gups``, ``maps``, ``netbench``, ``enhanced-maps``,
        ``allreduce``).
    weight:
        Composite-score weight (ignored by other kinds); weights need not
        sum to 1, the composite renormalises.
    """

    kind: str
    source: str
    weight: float = 1.0

    def __post_init__(self) -> None:
        if (self.kind, self.source) not in TERM_COSTS:
            known = ", ".join(f"{k}/{s}" for k, s in TERM_COSTS)
            raise ValueError(
                f"unknown term {self.kind}/{self.source}; known terms: {known}"
            )
        if not self.weight > 0:
            raise ValueError(
                f"term {self.kind}/{self.source} weight must be > 0, "
                f"got {self.weight!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "Term":
        """Parse ``"kind/source"`` or ``"kind/source:weight"``."""
        body, sep, raw_weight = str(text).partition(":")
        kind, slash, source = body.partition("/")
        if not slash or not kind or not source:
            raise ValueError(
                f"term {text!r} is not of the form kind/source[:weight]"
            )
        weight = 1.0
        if sep:
            try:
                weight = float(raw_weight)
            except ValueError:
                raise ValueError(
                    f"term {text!r} has a non-numeric weight {raw_weight!r}"
                ) from None
        return cls(kind=kind.strip(), source=source.strip(), weight=weight)

    @property
    def cost(self) -> float:
        """The term's base cost (:data:`TERM_COSTS`)."""
        return TERM_COSTS[(self.kind, self.source)]

    def __str__(self) -> str:
        if self.weight != 1.0:
            return f"{self.kind}/{self.source}:{self.weight:g}"
        return f"{self.kind}/{self.source}"


@dataclass(frozen=True)
class MetricSpec:
    """Declarative identity of one metric: what it is, not how it runs.

    Attributes
    ----------
    number:
        Registry number.  Table 3 owns 1-9, the balanced rating is 0,
        user metrics start at 10.
    name:
        Unique lookup name (lowercase mnemonic, e.g. ``"conv+maps+net"``
        or ``"balanced"``); resolvable anywhere a metric number is.
    label:
        Display label (Table 3 composition, e.g. ``"HPL+MAPS+NET"``).
    kind:
        ``"simple"`` (Equation-1 ratio), ``"predictive"`` (convolver) or
        ``"composite"`` (weighted category scores).
    terms:
        Ordered ingredient list (see module docstring for the grammar).
    cost:
        Relative evaluation/acquisition cost; defaults to the sum of the
        terms' base costs.  Drives the derived degradation ladder.
    """

    number: int
    name: str
    label: str
    kind: str
    terms: tuple[Term, ...]
    cost: float = field(default=0.0)

    def __post_init__(self) -> None:
        if self.number < 0:
            raise ValueError(f"metric number must be >= 0, got {self.number!r}")
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"metric name must be non-empty, no spaces: {self.name!r}")
        if self.name.isdigit():
            raise ValueError(
                f"metric name {self.name!r} is all digits; it would shadow a "
                "metric number"
            )
        if self.kind not in _KIND_STAGES:
            known = ", ".join(_KIND_STAGES)
            raise ValueError(f"unknown metric kind {self.kind!r}; known: {known}")
        terms = tuple(
            t if isinstance(t, Term) else Term.parse(t) for t in self.terms
        )
        object.__setattr__(self, "terms", terms)
        if not terms:
            raise ValueError(f"metric {self.name!r} needs at least one term")
        bad = [str(t) for t in terms if t.kind not in _KIND_TERMS[self.kind]]
        if bad:
            allowed = ", ".join(sorted(_KIND_TERMS[self.kind]))
            raise ValueError(
                f"{self.kind} metric {self.name!r} cannot carry term(s) "
                f"{', '.join(bad)} (allowed kinds: {allowed})"
            )
        if self.kind == "simple" and len(terms) != 1:
            raise ValueError(
                f"simple metric {self.name!r} must have exactly one ratio term"
            )
        if self.kind == "predictive":
            self._check_convolver_combo(terms)
        if self.cost == 0.0:
            object.__setattr__(self, "cost", sum(t.cost for t in terms))
        if not self.cost > 0:
            raise ValueError(f"metric {self.name!r} cost must be > 0, got {self.cost!r}")

    def _check_convolver_combo(self, terms: tuple[Term, ...]) -> None:
        """Reject term mixes the convolver has no pricing model for."""
        kinds = [t.kind for t in terms]
        if kinds.count("flops") != 1:
            raise ValueError(
                f"predictive metric {self.name!r} needs exactly one flops term"
            )
        mem = self.memory_sources
        supported = (
            frozenset(),
            frozenset({"stream"}),
            frozenset({"stream", "gups"}),
            frozenset({"maps"}),
        )
        if mem not in supported:
            raise ValueError(
                f"predictive metric {self.name!r} has unsupported memory term "
                f"mix {sorted(mem)}; supported: none, stream, stream+gups, maps"
            )
        if any(t.kind == "dep" for t in terms) and "maps" not in mem:
            raise ValueError(
                f"predictive metric {self.name!r}: dep/enhanced-maps requires "
                "mem/maps (the dependent curves are a MAPS family)"
            )

    # -- derived metadata ------------------------------------------------
    @property
    def memory_sources(self) -> frozenset[str]:
        """Sources of the ``mem`` terms (empty for a memory-blind metric)."""
        return frozenset(t.source for t in self.terms if t.kind == "mem")

    @property
    def needs(self) -> tuple[str, ...]:
        """Pipeline stages this metric must traverse (``probe`` [, ...])."""
        return _KIND_STAGES[self.kind]

    @property
    def network(self) -> bool:
        """Whether the metric prices traced MPI events."""
        return any(t.kind == "net" for t in self.terms)

    @property
    def dependent(self) -> bool:
        """Whether the metric blends ENHANCED-MAPS dependent curves."""
        return any(t.kind == "dep" for t in self.terms)

    @property
    def requirement(self) -> str:
        """Application-side acquisition machinery (paper Section 3).

        ``"none"`` for probe-only metrics, ``"counters"`` for convolver
        metrics needing only operation totals (#4/#5), ``"tracing"`` for
        metrics consuming per-block memory signatures (stride splits,
        working sets, dependency classes).
        """
        if self.kind != "predictive":
            return "none"
        needs_trace = self.dependent or bool(
            self.memory_sources & {"gups", "maps"}
        )
        return "tracing" if needs_trace else "counters"

    @property
    def ladder_eligible(self) -> bool:
        """Whether the metric may serve as a degradation rung.

        Composite scores normalise across *every* probed system, so they
        are not a drop-in coarser answer for a Table-3-semantics request;
        they lead their own ladder but never appear as a fallback.
        """
        return self.kind in ("simple", "predictive")


def _builtin_specs() -> tuple[MetricSpec, ...]:
    """Table 3 as data, plus the Section 4 balanced rating (#0)."""
    return (
        MetricSpec(0, "balanced", "BALANCED", "composite",
                   (Term("score", "hpl"), Term("score", "stream"),
                    Term("score", "allreduce"))),
        MetricSpec(1, "hpl", "HPL", "simple", (Term("ratio", "hpl"),)),
        MetricSpec(2, "stream", "STREAM", "simple", (Term("ratio", "stream"),)),
        MetricSpec(3, "gups", "GUPS", "simple", (Term("ratio", "gups"),)),
        MetricSpec(4, "conv", "HPL", "predictive", (Term("flops", "hpl"),)),
        MetricSpec(5, "conv+stream", "HPL+STREAM", "predictive",
                   (Term("flops", "hpl"), Term("mem", "stream"))),
        MetricSpec(6, "conv+stream+gups", "HPL+STREAM+GUPS", "predictive",
                   (Term("flops", "hpl"), Term("mem", "stream"),
                    Term("mem", "gups"))),
        MetricSpec(7, "conv+maps", "HPL+MAPS", "predictive",
                   (Term("flops", "hpl"), Term("mem", "maps"))),
        MetricSpec(8, "conv+maps+net", "HPL+MAPS+NET", "predictive",
                   (Term("flops", "hpl"), Term("mem", "maps"),
                    Term("net", "netbench"))),
        MetricSpec(9, "conv+maps+net+dep", "HPL+MAPS+NET+DEP", "predictive",
                   (Term("flops", "hpl"), Term("mem", "maps"),
                    Term("net", "netbench"), Term("dep", "enhanced-maps"))),
    )


#: First number available to user-registered metrics (0-9 are reserved
#: for the paper's built-ins).
_FIRST_USER_NUMBER = 10


class MetricRegistry:
    """Spec store with number *and* name lookup, plus derived metadata.

    The registry is the single source of truth for "what metrics exist":
    study config validation, CLI/HTTP request resolution, the serve
    degradation ladder and the cost table all consult it.  ``version``
    increments on every mutation so downstream caches (built metric
    objects, the derived ladder) invalidate precisely.
    """

    def __init__(self, specs: tuple[MetricSpec, ...] = ()):
        self._by_number: dict[int, MetricSpec] = {}
        self._by_name: dict[str, MetricSpec] = {}
        self._builtin_numbers: frozenset[int] = frozenset()
        self.version = 0
        for spec in specs:
            self._add(spec)
        self._builtin_numbers = frozenset(self._by_number)

    # -- mutation --------------------------------------------------------
    def _add(self, spec: MetricSpec) -> MetricSpec:
        if spec.number in self._by_number:
            raise ValueError(
                f"metric number {spec.number} is already registered "
                f"({self._by_number[spec.number].name!r})"
            )
        key = spec.name.lower()
        if key in self._by_name:
            raise ValueError(f"metric name {spec.name!r} is already registered")
        self._by_number[spec.number] = spec
        self._by_name[key] = spec
        self.version += 1
        return spec

    def register(self, spec: MetricSpec) -> MetricSpec:
        """Register a user metric (#10 and up).  Returns the spec."""
        if spec.number < _FIRST_USER_NUMBER:
            raise ValueError(
                f"metric numbers below {_FIRST_USER_NUMBER} are reserved for "
                f"built-ins; got {spec.number} ({spec.name!r})"
            )
        return self._add(spec)

    def unregister(self, key: "int | str") -> MetricSpec:
        """Remove a user metric (built-ins refuse).  Returns the old spec."""
        spec = self.spec(key)
        if spec.number in self._builtin_numbers:
            raise ValueError(f"cannot unregister built-in metric #{spec.number}")
        del self._by_number[spec.number]
        del self._by_name[spec.name.lower()]
        self.version += 1
        return spec

    def load_toml(self, path) -> tuple[MetricSpec, ...]:
        """Register every ``[[metric]]`` entry of a TOML spec file.

        Returns the registered specs, in file order.  The file format is
        documented in README "Custom metrics"; registration is atomic —
        a bad entry raises before any entry of the file is registered.
        """
        specs = load_metric_specs(path)
        for spec in specs:  # validate numbers/names before mutating
            if spec.number < _FIRST_USER_NUMBER:
                raise ValueError(
                    f"{path}: metric numbers below {_FIRST_USER_NUMBER} are "
                    f"reserved; got {spec.number} ({spec.name!r})"
                )
            if spec.number in self._by_number:
                raise ValueError(
                    f"{path}: metric number {spec.number} is already registered"
                )
            if spec.name.lower() in self._by_name:
                raise ValueError(
                    f"{path}: metric name {spec.name!r} is already registered"
                )
        seen_numbers = {s.number for s in specs}
        seen_names = {s.name.lower() for s in specs}
        if len(seen_numbers) != len(specs) or len(seen_names) != len(specs):
            raise ValueError(f"{path}: duplicate metric numbers/names in file")
        for spec in specs:
            self._add(spec)
        return specs

    # -- lookup ----------------------------------------------------------
    def spec(self, key: "int | str") -> MetricSpec:
        """Resolve a metric number, numeric string or name to its spec.

        Raises :class:`~repro.core.errors.UnknownIdError` (a
        :class:`KeyError`) carrying the known identifiers and the nearest
        matches, so service boundaries can render an actionable 400.
        """
        if isinstance(key, bool):
            pass  # fall through to the error path: True is not metric 1
        elif isinstance(key, int):
            if key in self._by_number:
                return self._by_number[key]
        elif isinstance(key, str):
            text = key.strip()
            if text.lstrip("-").isdigit() and int(text) in self._by_number:
                return self._by_number[int(text)]
            if text.lower() in self._by_name:
                return self._by_name[text.lower()]
        from repro.core.errors import UnknownIdError

        numbers = tuple(sorted(self._by_number))
        names = tuple(self._by_number[n].name for n in numbers)
        known = tuple(str(n) for n in numbers) + names
        # Real ints for the candidates so an off-by-a-few number (12) ranks
        # by distance; names ride along for misspelled-name lookups.
        nearest = nearest_ids(key, numbers + names)
        raise UnknownIdError("metric", key, known, nearest)

    def __contains__(self, key: object) -> bool:
        try:
            self.spec(key)  # type: ignore[arg-type]
        except KeyError:
            return False
        return True

    def numbers(self) -> tuple[int, ...]:
        """All registered numbers, ascending."""
        return tuple(sorted(self._by_number))

    def names(self) -> tuple[str, ...]:
        """All registered names, in number order."""
        return tuple(self._by_number[n].name for n in sorted(self._by_number))

    def specs(self) -> tuple[MetricSpec, ...]:
        """All specs, in number order."""
        return tuple(self._by_number[n] for n in sorted(self._by_number))

    def table3(self) -> tuple[MetricSpec, ...]:
        """The nine Table 3 specs (numbers 1-9), ascending."""
        return tuple(self._by_number[n] for n in range(1, 10) if n in self._by_number)

    # -- derived serving metadata ---------------------------------------
    def ladder(self) -> tuple[int, ...]:
        """The global degradation chain, derived from cost/ingredients.

        Rungs descend from the most capable ladder-eligible metric; each
        subsequent rung is the highest-cost (ties to the higher number —
        richer ingredients) eligible metric whose cost is at most
        :data:`DEGRADE_COST_RATIO` of the rung above, so every fallback
        at least halves the work.  The chain always ends on the cheapest
        eligible metric (ties to the *lowest* number — the most basic
        ingredient), the "two cached probe numbers" floor that stays
        servable when everything else is down.

        For the built-in registry this derives exactly the Table 3 chain
        9 → 7 → 5 → 3 → 1.
        """
        if getattr(self, "_ladder_version", None) == self.version:
            return self._ladder_cache
        pool = [s for s in self._by_number.values() if s.ladder_eligible]
        rungs: list[int] = []
        if pool:
            by_rank = sorted(pool, key=lambda s: (s.cost, s.number), reverse=True)
            current = by_rank[0]
            rungs.append(current.number)
            while True:
                threshold = current.cost * DEGRADE_COST_RATIO
                nxt = next((s for s in by_rank if s.cost <= threshold), None)
                if nxt is None:
                    break
                rungs.append(nxt.number)
                current = nxt
            floor = min(pool, key=lambda s: (s.cost, s.number))
            if floor.number not in rungs:
                rungs.append(floor.number)
        self._ladder_cache = tuple(rungs)
        self._ladder_version = self.version
        return self._ladder_cache

    def ladder_for(self, requested: "int | str") -> tuple[int, ...]:
        """Rungs to try for a request, best first.

        The requested metric leads; below it come the rungs of
        :meth:`ladder` that rank strictly lower on (cost, number) — the
        same ordering the chain itself descends, so equal-cost rungs
        below the request (metric 3 falling back to metric 1) stay
        reachable while nothing more expensive is retried.
        """
        spec = self.spec(requested)
        rank = (spec.cost, spec.number)
        return (spec.number,) + tuple(
            r for r in self.ladder()
            if (self._by_number[r].cost, r) < rank
        )


def load_metric_specs(path) -> tuple[MetricSpec, ...]:
    """Parse a TOML metric-spec file into :class:`MetricSpec` objects.

    Expected shape::

        [[metric]]
        number = 10
        name = "conv+stream+net"
        label = "HPL+STREAM+NET"   # optional; defaults to NAME upper-cased
        kind = "predictive"
        terms = ["flops/hpl", "mem/stream", "net/netbench"]
        cost = 22.0                # optional; defaults to the term-cost sum
    """
    import tomllib  # deferred: stdlib only on 3.11+, and only TOML users pay

    with open(path, "rb") as fh:
        doc = tomllib.load(fh)
    entries = doc.get("metric")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected at least one [[metric]] table")
    specs: list[MetricSpec] = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: [[metric]] #{i + 1} is not a table")
        unknown = set(entry) - {"number", "name", "label", "kind", "terms", "cost"}
        if unknown:
            raise ValueError(
                f"{path}: [[metric]] #{i + 1} has unknown key(s) "
                f"{sorted(unknown)}"
            )
        missing = {"number", "name", "kind", "terms"} - set(entry)
        if missing:
            raise ValueError(
                f"{path}: [[metric]] #{i + 1} is missing key(s) {sorted(missing)}"
            )
        try:
            spec = MetricSpec(
                number=int(entry["number"]),
                name=str(entry["name"]),
                label=str(entry.get("label", str(entry["name"]).upper())),
                kind=str(entry["kind"]),
                terms=tuple(Term.parse(t) for t in entry["terms"]),
                cost=float(entry.get("cost", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: [[metric]] #{i + 1}: {exc}") from None
        specs.append(spec)
    return tuple(specs)


#: Specs of the paper's metrics: Table 3's nine plus the balanced rating.
BUILTIN_SPECS: tuple[MetricSpec, ...] = _builtin_specs()

#: The process-wide registry all layers consult.
REGISTRY = MetricRegistry(BUILTIN_SPECS)
