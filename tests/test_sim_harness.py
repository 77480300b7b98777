"""The simulation harness end to end: fuzz, determinism, canary, corpus.

This is the tier-1 face of the ``sim`` CI job: random seeded episodes
must hold every invariant, the same seed must produce byte-identical
transcripts in fresh processes, a deliberately re-introduced known-fixed
bug must be detected and shrink to a tiny reproducer, and the committed
corpus must replay exactly as recorded.
"""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    CANARIES,
    SCENARIO_NAMES,
    Schedule,
    run_episode,
    shrink_episode,
)
from repro.sim.shrink import shrink

CORPUS_DIR = Path(__file__).parent / "corpus"
SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


# ---------------------------------------------------------------------------
# episode fuzz: any seed, any scenario -> every invariant holds
# ---------------------------------------------------------------------------


class TestEpisodeFuzz:
    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=15, deadline=None)
    def test_serve_recovery_invariants_hold(self, seed):
        result = run_episode("serve-recovery", seed)
        assert result.ok, result.violations

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=6, deadline=None)
    def test_study_resume_invariants_hold(self, seed):
        result = run_episode("study-resume", seed)
        assert result.ok, result.violations

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_coalesce_invariants_hold(self, seed):
        result = run_episode("coalesce", seed)
        assert result.ok, result.violations

    def test_serve_episode_closes_its_event_log(self):
        """The episode's service is drained, so its log file is closed
        before the temp dir goes; an open one warns when collected."""
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            assert run_episode("serve-recovery", 0).ok
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_virtual_time_outruns_wall_time(self):
        """The whole point: simulated chaos is ~free in wall-clock."""
        result = run_episode("serve-recovery", 0)
        assert result.ok
        assert result.virtual_seconds > 60.0  # covers the recovery advance
        assert result.wall_seconds < 10.0


# ---------------------------------------------------------------------------
# determinism: same seed -> byte-identical transcript, across processes
# ---------------------------------------------------------------------------

_DIGEST_SNIPPET = """
import json
from repro.sim import run_episode
digests = {
    scenario: run_episode(scenario, 3).digest
    for scenario in ("serve-recovery", "study-resume", "coalesce")
}
print(json.dumps(digests, sort_keys=True))
"""


class TestDeterminism:
    def test_same_seed_same_digest_in_process(self):
        for scenario in SCENARIO_NAMES:
            a = run_episode(scenario, 11)
            b = run_episode(scenario, 11)
            assert a.digest == b.digest
            assert a.transcript == b.transcript

    def test_different_seeds_differ(self):
        digests = {run_episode("serve-recovery", seed).digest for seed in range(6)}
        assert len(digests) == 6

    def test_cross_process_digest_pin(self):
        """Two fresh interpreters agree bit-for-bit on every scenario."""
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _DIGEST_SNIPPET],
                capture_output=True,
                text=True,
                env=env,
                check=True,
                timeout=300,
            ).stdout.strip()
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        assert set(json.loads(outputs[0])) == set(SCENARIO_NAMES)


# ---------------------------------------------------------------------------
# mutation canary: a re-introduced known-fixed bug is caught and shrunk
# ---------------------------------------------------------------------------


class TestCanary:
    def test_silent_degrade_canary_is_detected(self):
        # Seed 5's schedule degrades at least one response; the canary
        # strips the degraded flag at the driver boundary, which must
        # trip the degradation-marked invariant.
        result = run_episode("serve-recovery", 5, canary="silent-degrade")
        assert not result.ok
        assert any(
            v["invariant"] == "degradation-marked" for v in result.violations
        )

    def test_canary_off_same_seed_is_clean(self):
        assert run_episode("serve-recovery", 5).ok

    def test_unknown_canary_rejected(self):
        with pytest.raises(ValueError, match="unknown canary"):
            run_episode("serve-recovery", 0, canary="nope")
        assert CANARIES == ("silent-degrade",)

    def test_canary_shrinks_to_tiny_reproducer(self):
        minimal, signature = shrink_episode(
            "serve-recovery", 5, canary="silent-degrade"
        )
        assert signature == "degradation-marked"
        assert len(minimal.events) <= 5
        # The minimal schedule still reproduces with the canary on ...
        replay = run_episode(
            "serve-recovery", 5, schedule=minimal, canary="silent-degrade"
        )
        assert any(v["invariant"] == signature for v in replay.violations)
        # ... and is clean with the bug fixed (canary off).
        assert run_episode("serve-recovery", 5, schedule=minimal).ok

    def test_shrink_refuses_a_passing_episode(self):
        with pytest.raises(ValueError, match="nothing to shrink"):
            shrink_episode("coalesce", 0)

    def test_shrink_probe_budget_bounds_executions(self):
        probes = 0

        def failing(candidate):
            nonlocal probes
            probes += 1
            return True  # everything "fails": worst case for the search

        schedule = Schedule.generate(5, "serve-recovery")
        minimal = shrink(schedule, failing, max_probes=10)
        assert probes <= 11  # initial sanity check + at most max_probes
        assert len(minimal.events) <= len(schedule.events)


# ---------------------------------------------------------------------------
# regression corpus: committed reproducers behave exactly as recorded
# ---------------------------------------------------------------------------


def _corpus_files():
    return sorted(CORPUS_DIR.glob("*.json"))


class TestCorpus:
    def test_corpus_is_not_empty(self):
        assert _corpus_files(), "tests/corpus must hold committed reproducers"

    @pytest.mark.parametrize(
        "path", _corpus_files(), ids=lambda p: p.name
    )
    def test_corpus_entry_replays_as_committed(self, path):
        doc = json.loads(path.read_text())
        if "schedule" in doc:
            schedule = Schedule.from_doc(doc["schedule"])
            canary = doc.get("canary")
            expected = doc.get("expect_violation")
        else:
            schedule, canary, expected = Schedule.from_doc(doc), None, None
        result = run_episode(
            schedule.scenario, schedule.seed, schedule=schedule, canary=canary
        )
        if expected is not None:
            assert any(
                v["invariant"] == expected for v in result.violations
            ), f"{path.name} no longer trips [{expected}]: {result.violations}"
        else:
            assert result.ok, f"{path.name} regressed: {result.violations}"


# ---------------------------------------------------------------------------
# harness surface: argument validation and the CLI face
# ---------------------------------------------------------------------------


class TestSurface:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_episode("nope", 0)

    def test_schedule_scenario_mismatch_rejected(self):
        schedule = Schedule.generate(0, "coalesce")
        with pytest.raises(ValueError, match="scenario"):
            run_episode("serve-recovery", 0, schedule=schedule)

    def test_result_doc_shape(self):
        doc = run_episode("coalesce", 1).to_doc()
        assert doc["ok"] is True
        assert doc["scenario"] == "coalesce"
        assert set(doc) >= {
            "seed",
            "digest",
            "violations",
            "virtual_seconds",
            "wall_seconds",
        }

    def test_cli_sim_run_and_replay(self, capsys, monkeypatch, tmp_path):
        from repro.cli import main

        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        report = tmp_path / "bench.json"
        assert (
            main(
                [
                    "sim",
                    "run",
                    "--scenario",
                    "coalesce",
                    "--episodes",
                    "2",
                    "--report",
                    str(report),
                ]
            )
            == 0
        )
        section = json.loads(report.read_text())["sim"]
        assert section["episodes"] == 2
        assert section["violations"] == 0
        assert main(["sim", "replay", "--corpus", str(CORPUS_DIR)]) == 0
        out = capsys.readouterr().out
        assert "behaved as committed" in out

    def test_cli_sim_shrink_writes_corpus_ready_doc(self, tmp_path):
        from repro.cli import main

        out_file = tmp_path / "repro.json"
        assert (
            main(
                [
                    "sim",
                    "shrink",
                    "--scenario",
                    "serve-recovery",
                    "--seed",
                    "5",
                    "--canary",
                    "silent-degrade",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        doc = json.loads(out_file.read_text())
        assert doc["canary"] == "silent-degrade"
        assert doc["expect_violation"] == "degradation-marked"
        assert len(doc["schedule"]["events"]) <= 5
