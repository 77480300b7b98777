"""Sim transcript digests, pinned.

An episode's digest hashes its schedule and its transcript: the
responses served, the typed errors raised, the breaker transitions and
the study outcomes.  A refactor of the serve, study or coalescing code
that claims to keep behaviour must leave all 24 digests below as they
are; a change that moves one on purpose must say why and re-pin it.
"""

import pytest

from repro.sim import SCENARIO_NAMES, run_episode

#: ``run_episode(scenario, seed).digest`` for seeds 0-7.
PINNED_DIGESTS = {
    "serve-recovery": (
        "067e7cfc4d47b14a64ab0dd6e7241645",
        "e1c21820c5302518c5d25da22c45d0c2",
        "20bdd6d5089a1d20a6afba3a815d8323",
        "d6bbd3e968b0a73aa6138945d9bc6479",
        "5c2b02007172637d87c8722df21461b8",
        "10b79984a0c3ceaeb9d8eacc951b336d",
        "65c894c4d4daca4bd66acfb8c30cf390",
        "d2b4e8648e88325845083118dcb85597",
    ),
    "study-resume": (
        "f9a2d22de479c1e73d7d87315ffa4e14",
        "d38412f0dff81ac5fd262fbf237e8467",
        "f31ac67897041cc946b7fb72ce7f7307",
        "6237f0ddc9ecb902b51ea32f0b665739",
        "43ca68c3ba472197030de95694c40e9d",
        "048067b13e7267df99ebd5daf365623d",
        "a68d00b6100b4428bb6297c70fbc74f5",
        "a9f1ad876768ad74d2ca0a5ebb1ac2aa",
    ),
    "coalesce": (
        "dc27afc94198a7f8e3598567b8962bf3",
        "f0ba79132b42229ada9ba497b35f16b8",
        "13df0241030dd94a62c503bbed78fcac",
        "ac902da752875d03ac70a0490fcabf0b",
        "8add0a1b9fdeb23bd606f42f2fdb6d9f",
        "1734d51906e79f998d553e34efd906ef",
        "0d1c0def2c0cca81dab453fa9b768815",
        "ac49dfb430eebeba8c0d4c0370e5d80e",
    ),
}


def test_every_scenario_is_pinned():
    assert tuple(PINNED_DIGESTS) == SCENARIO_NAMES


@pytest.mark.parametrize("scenario", SCENARIO_NAMES)
def test_episode_digests_do_not_move(scenario):
    results = [run_episode(scenario, seed) for seed in range(8)]
    assert [r.violations for r in results] == [[]] * 8
    assert tuple(r.digest for r in results) == PINNED_DIGESTS[scenario]
