"""End-to-end tests for the sensitivity sweep, the catalog CLI and
``GET /catalog`` — everything the generated-universe surface promises.

The sweeps here run tiny universes (tens of cells) through the full
:func:`repro.study.runner.run_study` path, so they exercise exactly the
machinery the thousand-cell CI smoke uses, just smaller.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.scenarios import CATALOG, mount_universe, unmount_universe
from repro.scenarios.sensitivity import SensitivityConfig, run_sensitivity


@pytest.fixture(autouse=True)
def _pristine_catalog():
    unmount_universe()
    yield
    unmount_universe()


TINY = dict(family="mixed", seed=7, cells=40, sample_size=64)


def test_run_sensitivity_structure_and_restoration():
    config = SensitivityConfig(
        noise_amplitudes=(0.0, 0.1),
        calibration_errors=(0.0, 0.1),
        metrics=(1, 8),
        **TINY,
    )
    result = run_sensitivity(config)
    assert CATALOG.universe is None  # the sweep restores the catalog
    assert result.cell_count >= 40
    assert [p.amplitude for p in result.noise] == [0.0, 0.1]
    assert [p.amplitude for p in result.calibration] == [0.0, 0.1]
    zero = result.zero_noise()
    for metric in (1, 8):
        stats = zero.metrics[metric]
        assert -1.0 <= stats.kendall_tau <= 1.0
        assert stats.cases > 0
        assert stats.mean_abs_error >= 0.0
    doc = result.to_dict()
    assert doc["universe_digest"] == result.universe_digest
    assert json.loads(json.dumps(doc)) == doc  # JSON-clean


def test_zero_noise_point_is_noise_free():
    """Amplitude 0 must mean *exactly* the noiseless ground truth: the
    perfect-fidelity metric would see identical ranks on repeat runs."""
    config = SensitivityConfig(
        noise_amplitudes=(0.0,), calibration_errors=(), metrics=(8,), **TINY
    )
    a = run_sensitivity(config)
    b = run_sensitivity(config)
    assert a.to_dict() == b.to_dict()


def test_sensitivity_rejects_bad_config():
    with pytest.raises(KeyError):
        SensitivityConfig(family="galaxy")
    with pytest.raises(ValueError):
        SensitivityConfig(sample_size=16)
    with pytest.raises(ValueError):
        SensitivityConfig(noise_amplitudes=(1.5,))


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def test_cli_catalog_gen_list_show_roundtrip(tmp_path, capsys):
    out = tmp_path / "u.toml"
    assert main(["catalog", "gen", "--family", "numa", "--seed", "3",
                 "--cells", "30", "--out", str(out)]) == 0
    text = out.read_text()
    assert "[[machine]]" in text and "[[application]]" in text
    capsys.readouterr()

    assert main(["catalog", "list", "--universe", str(out)]) == 0
    listing = capsys.readouterr().out
    assert "GEN-numa-3-M000" in listing and "universe" in listing

    assert main(["catalog", "show", "--id", "NAVO_690"]) == 0
    shown = capsys.readouterr().out
    assert 'name = "NAVO_690"' in shown

    assert main(["catalog", "show", "--id", "NAVO_69"]) == 11  # UnknownIdError
    assert "nearest" in capsys.readouterr().err


def test_cli_catalog_export_snapshots_everything(capsys):
    assert main(["catalog", "export"]) == 0
    text = capsys.readouterr().out
    assert text.count("[[machine]]") == 11
    assert text.count("[[application]]") == 5


def test_cli_study_over_universe(capsys):
    assert main(["table4", "--universe", "mixed:7:40", "--metrics", "8",
                 "--no-noise"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert CATALOG.universe_ref == "mixed:7:40"  # CLI keeps the mount


def test_cli_sensitivity_merges_report(tmp_path, capsys):
    report = tmp_path / "bench.json"
    report.write_text(json.dumps({"existing": 1}))
    assert main([
        "sensitivity", "--family", "mixed", "--seed", "7", "--cells", "40",
        "--amplitudes", "0,0.1", "--calibration-errors", "0",
        "--metrics", "8", "--report", str(report),
    ]) == 0
    out = capsys.readouterr().out
    assert "noise amplitude sweep" in out
    doc = json.loads(report.read_text())
    assert doc["existing"] == 1  # merge, not overwrite
    assert doc["sensitivity"]["family"] == "mixed"
    assert [p["amplitude"] for p in doc["sensitivity"]["noise"]] == [0.0, 0.1]


# ----------------------------------------------------------------------
# GET /catalog
# ----------------------------------------------------------------------
def _get(server, path):
    host, port = server.address
    try:
        with urllib.request.urlopen(f"http://{host}:{port}{path}") as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as err:
        return err.code, json.load(err)


def test_httpd_catalog_route_reflects_mounted_universe():
    from repro.serve.frontend import FleetServer

    universe = mount_universe("mixed:7:40")
    with FleetServer(1, service_config={"noise": False}) as server:
        status, body = _get(server, "/catalog")
        assert status == 200
        assert body["base_system"] == "NAVO_690"
        assert body["universe"]["ref"] == "mixed:7:40"
        assert body["universe"]["digest"] == universe.digest()
        for machine in universe.machines:
            assert machine.name in body["machines"]
        assert 9 in body["metrics"]

        # 400s must suggest mounted ids, not just built-ins.
        status, body = _get(
            server,
            "/predict?application=AVUS-standard&cpus=32&machine=GEN-mixed-7-M00",
        )
        assert status == 400
        assert any(n.startswith("GEN-mixed-7-M00") for n in body["nearest"])

        status, body = _get(server, "/nope")
        assert status == 404 and "GET /catalog" in body["routes"]
