"""The declarative metric registry: specs, registration, TOML, ladder."""

import pytest

from repro.core.errors import UnknownIdError
from repro.core.metrics import get_metric
from repro.core.registry import (
    BUILTIN_SPECS,
    DEGRADE_COST_RATIO,
    REGISTRY,
    MetricRegistry,
    MetricSpec,
    Term,
    load_metric_specs,
)


@pytest.fixture()
def registry():
    """A fresh registry seeded with the built-ins (the global stays clean)."""
    return MetricRegistry(BUILTIN_SPECS)


# ---------------------------------------------------------------------------
# Term grammar
# ---------------------------------------------------------------------------


def test_term_parse_roundtrip():
    t = Term.parse("mem/maps")
    assert (t.kind, t.source, t.weight) == ("mem", "maps", 1.0)
    assert str(t) == "mem/maps"
    weighted = Term.parse("score/hpl:0.5")
    assert weighted.weight == 0.5
    assert str(weighted) == "score/hpl:0.5"


@pytest.mark.parametrize("bad", ["maps", "mem/", "/maps", "mem/maps:lots"])
def test_term_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        Term.parse(bad)


def test_term_rejects_unknown_pair():
    with pytest.raises(ValueError, match="unknown term"):
        Term("mem", "hpl")


# ---------------------------------------------------------------------------
# MetricSpec validation
# ---------------------------------------------------------------------------


def test_spec_cost_defaults_to_term_sum():
    spec = MetricSpec(10, "x", "X", "predictive",
                      ("flops/hpl", "mem/stream"))
    assert spec.cost == Term.parse("flops/hpl").cost + Term.parse("mem/stream").cost


def test_simple_spec_needs_exactly_one_ratio():
    with pytest.raises(ValueError, match="exactly one ratio"):
        MetricSpec(10, "x", "X", "simple", ("ratio/hpl", "ratio/stream"))
    with pytest.raises(ValueError, match="cannot carry"):
        MetricSpec(10, "x", "X", "simple", ("flops/hpl",))


def test_predictive_spec_rejects_unsupported_memory_mix():
    with pytest.raises(ValueError, match="unsupported memory term mix"):
        MetricSpec(10, "x", "X", "predictive",
                   ("flops/hpl", "mem/stream", "mem/maps"))


def test_dep_requires_maps():
    with pytest.raises(ValueError, match="requires"):
        MetricSpec(10, "x", "X", "predictive",
                   ("flops/hpl", "mem/stream", "dep/enhanced-maps"))


def test_all_digit_name_rejected():
    with pytest.raises(ValueError, match="all digits"):
        MetricSpec(10, "42", "X", "simple", ("ratio/hpl",))


def test_requirement_derivation_matches_paper_section3():
    reqs = {spec.number: spec.requirement for spec in BUILTIN_SPECS}
    assert reqs == {
        0: "none", 1: "none", 2: "none", 3: "none",
        4: "counters", 5: "counters",
        6: "tracing", 7: "tracing", 8: "tracing", 9: "tracing",
    }


# ---------------------------------------------------------------------------
# lookup
# ---------------------------------------------------------------------------


def test_spec_resolves_number_string_and_name(registry):
    assert registry.spec(9) is registry.spec("9") is registry.spec("conv+maps+net+dep")
    assert registry.spec("Balanced").number == 0  # names are case-insensitive


def test_unknown_metric_has_nearest_matches(registry):
    with pytest.raises(UnknownIdError) as err:
        registry.spec("conv+mapz")
    assert err.value.kind == "metric"
    assert "conv+maps" in err.value.nearest
    with pytest.raises(UnknownIdError) as err:
        registry.spec(12)  # ints rank by numeric distance
    assert "9" in err.value.nearest


def test_bool_is_not_a_metric(registry):
    with pytest.raises(UnknownIdError):
        registry.spec(True)


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------


CUSTOM = MetricSpec(10, "conv+stream+net", "HPL+STREAM+NET", "predictive",
                    ("flops/hpl", "mem/stream", "net/netbench"))


def test_register_and_unregister_user_metric(registry):
    registry.register(CUSTOM)
    assert registry.spec("conv+stream+net") is CUSTOM
    assert 10 in registry.numbers()
    removed = registry.unregister(10)
    assert removed is CUSTOM
    assert 10 not in registry.numbers()


def test_builtin_numbers_are_reserved(registry):
    with pytest.raises(ValueError, match="reserved"):
        registry.register(MetricSpec(5, "mine", "MINE", "simple", ("ratio/hpl",)))
    with pytest.raises(ValueError, match="built-in"):
        registry.unregister(9)


def test_duplicate_name_rejected(registry):
    with pytest.raises(ValueError, match="already registered"):
        registry.register(
            MetricSpec(10, "CONV", "X", "predictive", ("flops/hpl",))
        )


def test_registered_metric_joins_the_ladder(registry):
    assert registry.ladder() == (9, 7, 5, 3, 1)
    # cost 22: below 9 (40), not within half of it -> not a rung from 9...
    registry.register(CUSTOM)
    assert registry.ladder_for(10) == (10, 7, 5, 3, 1)


# ---------------------------------------------------------------------------
# derived ladder
# ---------------------------------------------------------------------------


def test_builtin_ladder_is_the_paper_chain(registry):
    assert registry.ladder() == (9, 7, 5, 3, 1)


def test_ladder_rungs_at_least_halve_cost(registry):
    rungs = registry.ladder()
    costs = [registry.spec(r).cost for r in rungs]
    for above, below in zip(costs, costs[1:-1]):
        assert below <= above * DEGRADE_COST_RATIO


def test_ladder_for_off_chain_and_floor(registry):
    assert registry.ladder_for(8) == (8, 7, 5, 3, 1)
    assert registry.ladder_for(3) == (3, 1)
    assert registry.ladder_for(1) == (1,)


def test_composite_is_never_a_fallback_rung(registry):
    assert 0 not in registry.ladder()
    assert registry.ladder_for(0) == (0, 3, 1)  # but it leads its own ladder


# ---------------------------------------------------------------------------
# TOML loading
# ---------------------------------------------------------------------------


TOML_OK = """
[[metric]]
number = 11
name = "conv+gups-only"
kind = "predictive"
terms = ["flops/hpl", "mem/stream", "mem/gups"]

[[metric]]
number = 12
name = "half-hpl"
label = "HALF HPL"
kind = "simple"
terms = ["ratio/hpl"]
cost = 0.5
"""


def test_load_toml_registers_all_entries(registry, tmp_path):
    path = tmp_path / "metrics.toml"
    path.write_text(TOML_OK)
    loaded = registry.load_toml(path)
    assert [s.number for s in loaded] == [11, 12]
    assert registry.spec("half-hpl").cost == 0.5
    assert registry.spec(11).label == "CONV+GUPS-ONLY"  # defaulted from name


def test_load_toml_is_atomic(registry, tmp_path):
    path = tmp_path / "metrics.toml"
    path.write_text(TOML_OK + """
[[metric]]
number = 9
name = "usurper"
kind = "simple"
terms = ["ratio/hpl"]
""")
    before = registry.numbers()
    with pytest.raises(ValueError, match="reserved"):
        registry.load_toml(path)
    assert registry.numbers() == before  # nothing from the file registered


@pytest.mark.parametrize(
    "body, match",
    [
        ("", "at least one"),
        ("[[metric]]\nnumber = 10\n", "missing key"),
        (
            "[[metric]]\nnumber = 10\nname = 'x'\nkind = 'simple'\n"
            "terms = ['ratio/hpl']\ncolor = 'red'\n",
            "unknown key",
        ),
        (
            "[[metric]]\nnumber = 10\nname = 'x'\nkind = 'sideways'\n"
            "terms = ['ratio/hpl']\n",
            "unknown metric kind",
        ),
    ],
)
def test_load_toml_rejects_bad_files(tmp_path, body, match):
    path = tmp_path / "metrics.toml"
    path.write_text(body)
    with pytest.raises(ValueError, match=match):
        load_metric_specs(path)


# ---------------------------------------------------------------------------
# registry -> runtime metric wiring (the global REGISTRY)
# ---------------------------------------------------------------------------


def test_global_registry_builds_runnable_custom_metric():
    spec = MetricSpec(90, "itest-conv+stream+net", "ITEST", "predictive",
                      ("flops/hpl", "mem/stream", "net/netbench"))
    REGISTRY.register(spec)
    try:
        metric = get_metric("itest-conv+stream+net")
        assert metric.number == 90
        assert metric.needs == ("probe", "trace", "convolve")
        from repro.core import PerformancePredictor

        p = PerformancePredictor(noise=False)
        t = p.predict("AVUS-standard", "ARL_Opteron", cpus=32, metric=90)
        assert t > 0
        # strictly between its stream-only and maps-based neighbours' ingredients:
        # it must at least differ from the no-network variant
        assert t != p.predict("AVUS-standard", "ARL_Opteron", cpus=32, metric=5)
    finally:
        REGISTRY.unregister(90)


def test_reregistered_number_gets_a_fresh_build():
    # get_metric keeps one built metric per number and checks its spec by
    # identity: a number registered again under another spec must not
    # answer with the old build.
    first = MetricSpec(10, "itest-first", "FIRST", "simple", ("ratio/hpl",))
    second = MetricSpec(10, "itest-second", "SECOND", "predictive",
                        ("flops/hpl", "mem/stream"))
    REGISTRY.register(first)
    try:
        built = get_metric(10)
        assert built.label.endswith("FIRST")
        assert get_metric("itest-first") is built
    finally:
        REGISTRY.unregister(10)
    REGISTRY.register(second)
    try:
        metric = get_metric(10)
        assert metric.label.endswith("SECOND")
        assert metric.needs == ("probe", "trace", "convolve")
        assert get_metric("itest-second") is metric
    finally:
        REGISTRY.unregister(10)
