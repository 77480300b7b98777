"""Column-wise matrix emission against the per-record loop it replaced.

``Engine.run_matrix`` builds each label's records column-wise right
after the label's rows are priced.  :func:`reference_run_matrix` keeps
the earlier emission as the oracle: price every row into a matrix-wide
``(label, system, cpus)`` dict, then walk labels, systems, cpus and
metrics, building one record at a time.  Hypothesis draws the plan
shapes — label, system and metric subsets in any order (the probe-only
metrics #1–#3 and an empty metric list included), replicas, shuffled
explicit rows — over the paper catalog, whose small systems leave
blank cells, and small generated universes.  Records must agree bit
for bit and field type for field type, and ``observed`` must agree in
insertion order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.execution import executor_for
from repro.core.metrics import predict_all, resolve_metrics
from repro.core.registry import REGISTRY
from repro.engine import Engine, MatrixPlan, PredictionRecord
from repro.probes.suite import probe_machine
from repro.scenarios import (
    TARGET_SYSTEMS,
    get_application,
    get_machine,
    mount_universe,
    unmount_universe,
)
from repro.scenarios.builtin import builtin_applications


def reference_run_matrix(engine: Engine, plan: MatrixPlan):
    """The per-record emission loop, over the engine's own backends."""
    base_probes = probe_machine(engine.base_machine)
    machines = {system: get_machine(system) for system in plan.systems}
    probes = {system: probe_machine(machine) for system, machine in machines.items()}
    base_executor = executor_for(engine.base_machine, noise=engine.noise)
    executors = {
        system: executor_for(machine, noise=engine.noise)
        for system, machine in machines.items()
    }
    metrics = resolve_metrics(plan.metrics)

    actuals: dict[tuple[str, str, int], float] = {}
    predictions: dict[tuple[str, str, int], list[float]] = {}
    for label in plan.labels:
        app = get_application(label)
        eligible_rows = [
            (cpus, [s for s in plan.systems if cpus <= machines[s].cpus])
            for cpus in plan.cpus_for(label, app.cpu_counts)
        ]
        eligible_rows = [(cpus, eligible) for cpus, eligible in eligible_rows if eligible]
        if not eligible_rows:
            continue
        for system in plan.systems:
            counts = [c for c, eligible in eligible_rows if system in eligible]
            for res in executors[system].run_many(app, counts, detail=False):
                actuals[(label, system, res.cpus)] = res.total_seconds
        base_times = {
            res.cpus: res.total_seconds
            for res in base_executor.run_many(
                app, [cpus for cpus, _ in eligible_rows], detail=False
            )
        }
        for cpus, eligible in eligible_rows:
            rows = predict_all(
                metrics,
                engine.trace(app, cpus),
                [probes[system] for system in eligible],
                base_probes,
                base_times[cpus],
                engine.mode,
            )
            per_system: dict[str, list[float]] = {s: [] for s in eligible}
            for metric in metrics:
                for system, predicted in zip(eligible, rows[metric.number]):
                    per_system[system].append(predicted)
            for system, values in per_system.items():
                predictions[(label, system, cpus)] = values

    records: list[PredictionRecord] = []
    observed: dict[tuple[str, str, int], float] = {}
    numbers = [metric.number for metric in metrics]
    for label in plan.labels:
        app = get_application(label)
        for system in plan.systems:
            machine = machines[system]
            for cpus in plan.cpus_for(label, app.cpu_counts):
                if cpus > machine.cpus:
                    continue
                key = (label, system, cpus)
                actual = actuals[key]
                observed[key] = actual
                for number, predicted in zip(numbers, predictions[key]):
                    records.append(
                        PredictionRecord(
                            label,
                            cpus,
                            system,
                            number,
                            actual,
                            predicted,
                            (predicted - actual) / actual * 100.0,
                        )
                    )
    return records, observed


def exact(value):
    """Bit-exact comparison key: floats by their hex image, with the type."""
    return (type(value), value.hex() if type(value) is float else value)


def assert_emission_matches(engine: Engine, plan: MatrixPlan) -> None:
    records, observed = engine.run_matrix(plan)
    ref_records, ref_observed = reference_run_matrix(engine, plan)
    assert type(records) is list
    assert all(type(r) is PredictionRecord for r in records)
    assert [tuple(map(exact, r)) for r in records] == [
        tuple(map(exact, r)) for r in ref_records
    ]
    assert [(key, exact(v)) for key, v in observed.items()] == [
        (key, exact(v)) for key, v in ref_observed.items()
    ]


@st.composite
def plans(draw, applications, systems, numbers):
    """A plan over ``applications`` x ``systems`` x ``numbers`` of any shape."""
    chosen = draw(
        st.lists(st.sampled_from(applications), min_size=1, max_size=3, unique=True)
    )
    # Suffix 0 keeps the catalog's own instance; k > 0 names replica "@k".
    suffixes = draw(st.lists(st.integers(0, 3), min_size=len(chosen), max_size=len(chosen)))
    labels = [label if k == 0 else f"{label}@{k}" for label, k in zip(chosen, suffixes)]
    plan_systems = draw(st.permutations(systems))
    plan_systems = plan_systems[: draw(st.integers(1, len(systems)))]
    plan_numbers = draw(st.permutations(numbers))
    plan_numbers = plan_numbers[: draw(st.integers(0, len(numbers)))]
    rows = None
    if draw(st.booleans()):
        every_row = [
            (label, cpus) for label in labels for cpus in get_application(label).cpu_counts
        ]
        shuffled = draw(st.permutations(every_row))
        rows = tuple(shuffled[: draw(st.integers(0, len(shuffled)))])
    return MatrixPlan(
        labels=tuple(labels),
        systems=tuple(plan_systems),
        metrics=tuple(plan_numbers),
        rows=rows,
    )


@pytest.fixture(params=["paper", "mixed:3:60", "mixed:11:100"])
def catalog(request):
    """(application labels, system names, metric numbers) to draw from."""
    if request.param == "paper":
        yield tuple(builtin_applications()), tuple(TARGET_SYSTEMS), REGISTRY.numbers()
        return
    universe = mount_universe(request.param)
    try:
        yield (
            tuple(app.label for app in universe.applications),
            tuple(machine.name for machine in universe.machines),
            REGISTRY.numbers(),
        )
    finally:
        unmount_universe()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_column_wise_emission_matches_per_record_loop(catalog, data):
    assert_emission_matches(Engine(), data.draw(plans(*catalog)))


def test_full_paper_matrix_matches_per_record_loop():
    plan = MatrixPlan(
        labels=tuple(builtin_applications()),
        systems=tuple(TARGET_SYSTEMS),
        metrics=REGISTRY.numbers(),
    )
    assert_emission_matches(Engine(), plan)
    assert_emission_matches(Engine(mode="absolute", noise=False), plan)
