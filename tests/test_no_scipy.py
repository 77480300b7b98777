"""The study and serve paths run with scipy absent.

scipy backs only analyses of finished predictions (the rank agreement,
the Section 4 weight fit) and the exact cache-simulation accounting, and
each imports it inside the function that uses it.  Here a fresh
interpreter in which every scipy import raises runs the default study
and boots both serving backends; ``scripts/check_layering.py`` keeps any
module-level scipy import from coming back.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    assert summary["scipy_loaded"] == []
