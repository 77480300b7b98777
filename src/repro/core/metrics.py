"""Runtime metric objects, built from the declarative registry.

The identity of every metric — number, name, ingredient terms, cost —
lives as data in :mod:`repro.core.registry` (Table 3's nine, the
Section 4 balanced rating, and any user-registered metric).  This module
is the *runtime* half: it turns a :class:`~repro.core.registry.MetricSpec`
into an executable :class:`Metric` and provides the canonical batch
evaluation path (:func:`predict_all`) used by the engine.

Simple metrics (#1-#3) apply Equation 1: the application is assumed faster
or slower exactly as the ratio of one benchmark result between the target
and the base system.  (Equation 1 is written for time-like results; our
benchmark numbers are rates, where higher is faster, so the ratio inverts:
``T' = R(X0)/R(X) * T(X0, Y)``.)

Predictive metrics (#4-#9) run the MetaSim Convolver with progressively
richer rate sources.  By default they predict *base-relative*:
``T'(X) = C(X)/C(X0) * T(X0)`` where ``C`` is the convolved time — scaling
the base system's measured runtime by the convolver's cross-machine ratio.
This is the reading under which the paper's Metric #4 is *identical* to
Metric #1 (both reduce to the Rmax ratio), as Table 4 reports.  The
``absolute`` mode returns the convolver's raw time instead.

Composite metrics (the balanced rating, #0) apply Equation 1 with an
IDC-style weighted category score as the rate; the score normalises
against the best probed system per category, so these metrics consult the
whole machine registry rather than just the target/base pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.convolver import Convolver, MemoryModel, RateTable
from repro.core.registry import REGISTRY, MetricSpec
from repro.probes.results import MachineProbes
from repro.tracing.trace import ApplicationTrace
from repro.util.validation import check_in

__all__ = [
    "PredictionContext",
    "Metric",
    "SimpleMetric",
    "PredictiveMetric",
    "CompositeMetric",
    "ALL_METRICS",
    "get_metric",
    "resolve_metrics",
    "build_metric",
    "predict_all",
]


@dataclass(frozen=True)
class PredictionContext:
    """Everything a metric may consume to predict one run.

    Attributes
    ----------
    trace:
        The application's transfer function (traced on the base system).
        Probe-only metrics (simple ratios, composites) ignore it, and a
        probe-only evaluation may pass ``None`` — the serve degradation
        path predicts simple metrics without ever tracing.
    target_probes, base_probes:
        Probe suites of the target system X and base system X0.
    base_time:
        Measured wall-clock time ``T(X0, Y)`` on the base system.
    mode:
        ``"relative"`` (default, base-anchored) or ``"absolute"``
        (convolver output taken at face value; simple metrics have no
        absolute form and always use Equation 1).
    """

    trace: ApplicationTrace | None
    target_probes: MachineProbes
    base_probes: MachineProbes
    base_time: float
    mode: str = "relative"

    def __post_init__(self) -> None:
        check_in("mode", self.mode, ("relative", "absolute"))
        if self.base_time <= 0:
            raise ValueError(f"base_time must be > 0, got {self.base_time!r}")


class Metric:
    """Common interface of all registered metrics.

    Attributes
    ----------
    number:
        Registry number (Table 3 uses 1-9, the balanced rating 0, user
        metrics 10+).
    name:
        Short composition label (e.g. ``"HPL+MAPS+NET"``).
    kind:
        ``"simple"``, ``"predictive"`` or ``"composite"``.
    needs:
        Pipeline stages the metric must traverse (``("probe",)`` for
        probe-only metrics, ``("probe", "trace", "convolve")`` for
        convolver-backed ones) — the serving layer derives its
        stage/ladder handling from this.
    """

    number: int
    name: str
    kind: str
    needs: tuple[str, ...]

    def predict(self, ctx: PredictionContext) -> float:
        """Predicted wall-clock seconds ``T'(X, Y)``."""
        raise NotImplementedError

    def predict_many(
        self,
        trace: ApplicationTrace | None,
        target_probes_list: list[MachineProbes],
        base_probes: MachineProbes,
        base_time: float,
        mode: str = "relative",
    ) -> list[float]:
        """Predict one (application, cpus) run on several target machines.

        Shared-trace batch form of :meth:`predict`: the trace, base probes
        and base time are fixed while targets vary, which lets predictive
        metrics convolve the base system once and price all targets in
        block-axis NumPy passes.  Each element is bit-identical to the
        corresponding scalar :meth:`predict` call.
        """
        return [
            self.predict(
                PredictionContext(
                    trace=trace,
                    target_probes=probes,
                    base_probes=base_probes,
                    base_time=base_time,
                    mode=mode,
                )
            )
            for probes in target_probes_list
        ]

    @property
    def label(self) -> str:
        """Display label, e.g. ``"3-S GUPS"``."""
        return f"{self.number}-{self.kind[0].upper()} {self.name}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Metric #{self.number} {self.name}>"


class SimpleMetric(Metric):
    """Equation-1 ratio prediction from a single benchmark rate.

    Parameters
    ----------
    number, name:
        Registry identity.
    rate_name:
        Which probe rate to ratio: ``"hpl"``, ``"stream"`` or ``"gups"``.
    """

    kind = "simple"
    needs = ("probe",)

    def __init__(self, number: int, name: str, rate_name: str):
        self.number = number
        self.name = name
        self.rate_name = rate_name

    def predict(self, ctx: PredictionContext) -> float:
        r_target = ctx.target_probes.simple_rate(self.rate_name)
        r_base = ctx.base_probes.simple_rate(self.rate_name)
        return (r_base / r_target) * ctx.base_time


class PredictiveMetric(Metric):
    """Convolver-backed prediction (Metrics #4-#9).

    Parameters
    ----------
    number, name:
        Registry identity.
    memory_model:
        The convolver's memory rate source.
    network:
        Include the NETBENCH term.
    """

    kind = "predictive"
    needs = ("probe", "trace", "convolve")

    def __init__(
        self,
        number: int,
        name: str,
        memory_model: MemoryModel,
        *,
        network: bool = False,
    ):
        self.number = number
        self.name = name
        self.convolver = Convolver(memory_model, network=network)

    def predict(self, ctx: PredictionContext) -> float:
        if ctx.trace is None:
            raise ValueError(f"metric #{self.number} ({self.name}) needs a trace")
        c_target = self.convolver.predict(ctx.trace, ctx.target_probes).total_seconds
        if ctx.mode == "absolute":
            return c_target
        c_base = self.convolver.predict(ctx.trace, ctx.base_probes).total_seconds
        return (c_target / c_base) * ctx.base_time

    def predict_many(
        self,
        trace: ApplicationTrace | None,
        target_probes_list: list[MachineProbes],
        base_probes: MachineProbes,
        base_time: float,
        mode: str = "relative",
    ) -> list[float]:
        """Batch :meth:`predict` over targets, convolving the base once.

        Targets and base share one :class:`~repro.core.convolver.RateTable`
        (base as the last column), so the whole row is one matrix pass.
        """
        check_in("mode", mode, ("relative", "absolute"))
        if trace is None:
            raise ValueError(f"metric #{self.number} ({self.name}) needs a trace")
        rates = RateTable(trace, list(target_probes_list) + [base_probes])
        return self._predict_from_rates(rates, base_time, mode)

    def _predict_from_rates(
        self, rates: RateTable, base_time: float, mode: str
    ) -> list[float]:
        """Price a prepared rate table (targets plus trailing base column)."""
        totals = self.convolver.total_seconds_matrix(rates)
        c_targets = [float(t) for t in totals[:-1]]
        if mode == "absolute":
            return c_targets
        c_base = float(totals[-1])
        return [(c_target / c_base) * base_time for c_target in c_targets]


class CompositeMetric(Metric):
    """IDC balanced-rating prediction from weighted category scores (#0).

    Equation 1 with the composite 0-100 score as the rate.  The score
    normalises each category against the best system in the machine
    catalog, so the metric probes *every* catalog machine (cached) — not
    just the target/base pair — the first time it predicts, and again
    whenever a universe mount or unmount changes the catalog.

    Parameters
    ----------
    number, name:
        Registry identity.
    weights:
        (hpl, stream, allreduce) category weights; categories absent from
        the spec carry weight 0.
    """

    kind = "composite"
    needs = ("probe",)

    def __init__(self, number: int, name: str, weights: tuple[float, float, float]):
        self.number = number
        self.name = name
        self.weights = weights
        self._rating = None
        self._rating_version = None

    def rating(self):
        """The backing :class:`~repro.core.balanced.BalancedRating`, built
        lazily over every catalog machine's (cached) probe suite and
        rebuilt when ``CATALOG.version`` moves."""
        from repro.scenarios import CATALOG

        version = CATALOG.version
        if self._rating is None or self._rating_version != version:
            from repro.core.balanced import BalancedRating
            from repro.probes.suite import probe_machine

            probes = {
                name: probe_machine(spec)
                for name, spec in CATALOG.machine_map().items()
            }
            self._rating = BalancedRating(probes, self.weights)
            self._rating_version = version
        return self._rating

    def predict(self, ctx: PredictionContext) -> float:
        return self.rating().predict(
            ctx.target_probes.machine, ctx.base_probes.machine, ctx.base_time
        )


def _memory_model_for(spec: MetricSpec) -> MemoryModel:
    """Map a predictive spec's memory/dep terms to a convolver model."""
    if spec.dependent:
        return MemoryModel.MAPS_DEP
    mem = spec.memory_sources
    if not mem:
        return MemoryModel.NONE
    if mem == {"stream"}:
        return MemoryModel.STREAM
    if mem == {"stream", "gups"}:
        return MemoryModel.STREAM_GUPS
    return MemoryModel.MAPS


def build_metric(spec: MetricSpec) -> Metric:
    """Construct the runtime :class:`Metric` for a spec (uncached)."""
    if spec.kind == "simple":
        return SimpleMetric(spec.number, spec.label, spec.terms[0].source)
    if spec.kind == "predictive":
        return PredictiveMetric(
            spec.number,
            spec.label,
            _memory_model_for(spec),
            network=spec.network,
        )
    from repro.core.balanced import CATEGORY_NAMES

    by_category = {t.source: t.weight for t in spec.terms}
    weights = tuple(by_category.get(name, 0.0) for name in CATEGORY_NAMES)
    return CompositeMetric(spec.number, spec.label, weights)


#: Built metrics by registry number, each beside the spec it was built
#: from.  Checking that spec by identity (equality only on a mismatch)
#: spares each call hashing the whole frozen spec; a re-registered number
#: yields a distinct spec, hence a fresh build.
_BUILT: dict[int, tuple[MetricSpec, Metric]] = {}


def get_metric(key: "int | str") -> Metric:
    """Return the metric for a registry number or name.

    Accepts Table 3 numbers (1-9), the balanced rating (0 or
    ``"balanced"``), user metrics (10+), and any registered name.  Raises
    :class:`~repro.core.errors.UnknownIdError` — a :class:`KeyError` —
    with nearest-match suggestions for anything else.
    """
    spec = REGISTRY.spec(key)
    built = _BUILT.get(spec.number)
    if built is None or (built[0] is not spec and built[0] != spec):
        built = _BUILT[spec.number] = (spec, build_metric(spec))
    return built[1]


def resolve_metrics(keys) -> list[Metric]:
    """Resolve a mixed number/name sequence to metric objects, in order."""
    return [get_metric(k) for k in keys]


#: The nine metrics of Table 3, keyed by number.  A fixed view: user
#: registrations (#10+) are reachable via :func:`get_metric`, not here.
ALL_METRICS: dict[int, Metric] = {
    spec.number: get_metric(spec.number) for spec in REGISTRY.table3()
}


def predict_all(
    metrics: list[Metric],
    trace: ApplicationTrace | None,
    target_probes_list: list[MachineProbes],
    base_probes: MachineProbes,
    base_time: float,
    mode: str = "relative",
) -> dict[int, list[float]]:
    """Predict one (application, cpus) row for every metric at once.

    The engine's convolve-stage step: all predictive metrics share a
    single :class:`~repro.core.convolver.RateTable` (one block extraction,
    one set of MAPS interpolations, one network pricing — per row, not per
    metric), then each prices its own matrix pass.  Every returned value
    is bit-identical to the corresponding scalar :meth:`Metric.predict`
    call.  ``trace`` may be ``None`` when no predictive metric is present.
    """
    check_in("mode", mode, ("relative", "absolute"))
    rates: RateTable | None = None
    out: dict[int, list[float]] = {}
    for metric in metrics:
        if isinstance(metric, PredictiveMetric):
            if rates is None:
                if trace is None:
                    raise ValueError(
                        f"metric #{metric.number} ({metric.name}) needs a trace"
                    )
                rates = RateTable(trace, list(target_probes_list) + [base_probes])
            out[metric.number] = metric._predict_from_rates(rates, base_time, mode)
        else:
            out[metric.number] = metric.predict_many(
                trace, target_probes_list, base_probes, base_time, mode
            )
    return out
