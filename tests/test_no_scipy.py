"""Every path runs with scipy absent.

The project depends on numpy alone.  Here a fresh interpreter in which
every scipy import raises runs the default study, the rank agreement and
the Section 4 weight fit on its results, and boots both serving backends.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.core.ranking import rank_agreement

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = Path(__file__).parent / "golden" / "study_records.json"

_SNIPPET = """
import http.client
import json
import sys

sys.modules["scipy"] = None  # any scipy import now raises ImportError

import repro
import repro.cli
from repro.serve.frontend import FleetServer
from repro.study import StudyConfig, run_study

golden = json.loads(open(sys.argv[1]).read())
result = run_study(StudyConfig())
rows = [
    [r.application, r.cpus, r.system, r.metric,
     r.actual_seconds, r.predicted_seconds, r.error_percent]
    for r in result.records
]
summary = {"records": len(rows), "golden": rows == golden["records"], "serve": {}}

from repro.core import optimise_weights, rank_agreement
from repro.core.predictor import PerformancePredictor
from repro.probes.suite import probe_machine
from repro.scenarios import BASE_SYSTEM, get_machine

cell = result.select(metric=9, application="AVUS-standard", cpus=64)
agreement = rank_agreement(
    {r.system: r.predicted_seconds for r in cell},
    {r.system: r.actual_seconds for r in cell},
)
predictor = PerformancePredictor()
observations = [
    (system, BASE_SYSTEM, predictor.base_time(app, cpus), actual)
    for (app, system, cpus), actual in result.observed.items()
]
systems = {system for system, *_ in observations} | {BASE_SYSTEM}
weights = optimise_weights(
    {name: probe_machine(get_machine(name)) for name in systems}, observations
)
summary["analyses"] = {
    "n": agreement["n"],
    "kendall_tau": agreement["kendall_tau"],
    "weights": [round(w, 2) for w in weights],
}
for workers in (1, 2):
    with FleetServer(workers) as server:
        conn = http.client.HTTPConnection(*server.address, timeout=60)
        conn.request(
            "GET",
            "/predict?application=AVUS-standard&cpus=64&machine=ARL_Xeon&metric=9",
        )
        response = conn.getresponse()
        point = json.loads(response.read())
        point_status = response.status
        conn.request("POST", "/predict/batch", body=b"")
        batch = json.loads(conn.getresponse().read())
        conn.close()
    summary["serve"][workers] = {
        "status": point_status,
        "degraded": point["degraded"],
        "batch": batch["count"],
    }
summary["scipy_loaded"] = sorted(
    name
    for name, module in sys.modules.items()
    if name.split(".")[0] == "scipy" and module is not None
)
print(json.dumps(summary))
"""


def test_study_and_serve_run_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", _SNIPPET, str(GOLDEN)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["records"] == 1305
    assert summary["golden"]
    for workers in ("1", "2"):
        assert summary["serve"][workers] == {
            "status": 200,
            "degraded": False,
            "batch": 1305,
        }
    cell = [
        row
        for row in json.loads(GOLDEN.read_text())["records"]
        if row[0] == "AVUS-standard" and row[1] == 64 and row[3] == 9
    ]
    expected = rank_agreement(
        {row[2]: row[5] for row in cell}, {row[2]: row[4] for row in cell}
    )
    assert summary["analyses"] == {
        "n": expected["n"],
        "kendall_tau": expected["kendall_tau"],
        "weights": [0.0, 0.65, 0.35],
    }
    assert summary["scipy_loaded"] == []
