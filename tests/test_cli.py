"""Tests for the command-line front end."""

import pytest

from repro.cli import main


def test_table4(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert "Figure 2" in out
    assert "HPL+MAPS+NET+DEP" in out


def test_table5(capsys):
    assert main(["table5"]) == 0
    out = capsys.readouterr().out
    assert "Table 5" in out
    assert "OVERALL" in out


def test_figure1(capsys):
    assert main(["figure1"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "ARL_Opteron" in out


def test_probes(capsys):
    assert main(["probes"]) == 0
    out = capsys.readouterr().out
    assert "NAVO_690" in out


def test_csv(capsys):
    assert main(["csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("application,cpus,system,metric")


def test_appendix(capsys):
    assert main(["appendix"]) == 0
    out = capsys.readouterr().out
    assert "AVUS-standard" in out and "RFCTH-standard" in out


def test_figures(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    assert "Error assessment for HYCOM-standard" in out


def test_cost(capsys):
    assert main(["cost"]) == 0
    out = capsys.readouterr().out
    assert "Effort vs accuracy" in out
    assert "tracing" in out


def test_default_artifact_is_table4(capsys):
    assert main([]) == 0
    assert "Table 4" in capsys.readouterr().out


def test_bad_artifact_rejected():
    with pytest.raises(SystemExit):
        main(["table99"])


# ---------------------------------------------------------------------------
# error handling: taxonomy exit codes, Ctrl-C, resilience flags
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "exc_name, code",
    [
        ("TraceCorruptError", 3),
        ("WorkerCrashError", 4),
        ("ChunkTimeoutError", 5),
        ("StudyAbortedError", 6),
        ("CheckpointError", 7),
    ],
)
def test_repro_errors_map_to_exit_codes(monkeypatch, capsys, exc_name, code):
    import repro.cli as cli
    from repro.core import errors

    exc = getattr(errors, exc_name)("synthetic failure")

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_study", boom)
    assert main(["table4"]) == code
    err = capsys.readouterr().err
    assert err == f"repro-study: error: synthetic failure\n"  # one line, no traceback


def test_keyboard_interrupt_exits_130(monkeypatch, capsys):
    import repro.cli as cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    shutdowns = []
    monkeypatch.setattr(cli, "run_study", interrupted)
    monkeypatch.setattr(cli, "shutdown_pool", lambda: shutdowns.append(True))
    assert main(["table4"]) == 130
    assert shutdowns == [True]  # the worker pool must not outlive Ctrl-C
    assert "interrupted" in capsys.readouterr().err


def test_inject_faults_flag_survives_chaos(capsys):
    assert (
        main(["table4", "--inject-faults", "crash=0.25,seed=3", "--max-retries", "8"])
        == 0
    )
    captured = capsys.readouterr()
    assert "Table 4" in captured.out
    assert "quarantined" not in captured.err  # retries absorbed every crash


def test_exhausted_retries_warn_on_stderr(capsys):
    # crash rate 1.0 with no retries quarantines every chunk: each one warns,
    # and the fully-empty study aborts with StudyAbortedError's exit code.
    assert (
        main(["table4", "--inject-faults", "crash=1.0,seed=1", "--max-retries", "0"])
        == 6
    )
    captured = capsys.readouterr()
    assert "quarantined after 1 attempt(s): WorkerCrashError" in captured.err
    assert "all 5 study chunks were quarantined" in captured.err


def test_checkpoint_flag_journals_and_resumes(tmp_path, capsys):
    ck = tmp_path / "study.ckpt"
    assert main(["table4", "--checkpoint", str(ck)]) == 0
    first = capsys.readouterr().out
    assert ck.exists()
    assert main(["table4", "--checkpoint", str(ck)]) == 0
    assert capsys.readouterr().out == first  # replay is byte-identical


def test_bad_fault_spec_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["table4", "--inject-faults", "bogus=1"])
    assert "bad fault spec" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["table4", "--workers", "0"], "--workers"),
        (["serve", "--workers", "-3"], "--workers"),
        (["table4", "--cache-dir", "{file}"], "{file}"),
        (["store", "info", "--cache-dir", "{file}/below"], "{file}"),
        (["table4", "--metrics", "9,conv+maps+net+dep"], "duplicate metric 9 in --metrics"),
    ],
    ids=[
        "workers-0",
        "serve-workers-negative",
        "cache-dir-is-file",
        "cache-dir-below-file",
        "metrics-repeated",
    ],
)
def test_bad_arguments_exit_2_at_parse_time(tmp_path, capsys, argv, named):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(SystemExit) as exc:
        main([arg.format(file=blocker) for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named.format(file=blocker) in err
    assert "Traceback" not in err
    assert blocker.read_text() == "a file, not a directory"


# ---------------------------------------------------------------------------
# store maintenance subcommand
# ---------------------------------------------------------------------------


def test_store_info_reports_format_and_counts(tmp_path, capsys):
    from repro.apps.suite import get_application
    from repro.machines import get_machine
    from repro.probes.suite import clear_probe_cache, probe_machine
    from repro.tracing.metasim import clear_trace_cache, trace_application
    from repro.tracing.store import TraceStore

    store = TraceStore(tmp_path)
    base = get_machine("NAVO_P3")
    clear_trace_cache()
    clear_probe_cache()
    trace_application(get_application("AVUS-standard"), 64, base, store=store)
    probe_machine(base, store=store)
    (store.traces_dir / "deadbeef.json").write_text("{}")  # earlier builds' format

    assert main(["store", "info", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "binary format   : v1" in out
    assert "payload schema  : v2" in out
    assert "traces          : 1 binary" in out
    assert "probes          : 1 binary" in out


def test_store_requires_action_and_cache_dir(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["store", "--cache-dir", str(tmp_path)])
    assert "expected an action" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["store", "info"])
    assert "--cache-dir is required" in capsys.readouterr().err


def test_store_action_rejected_for_other_artifacts(capsys):
    with pytest.raises(SystemExit):
        main(["table4", "info"])
    assert (
        "only applies to the 'store', 'events', 'sim' or 'catalog' artifact"
        in capsys.readouterr().err
    )


@pytest.fixture()
def cli_server(monkeypatch):
    """``repro-study serve`` with default flags, booted through ``main`` on
    a thread; yields the running server, then stops it the way SIGTERM
    does and checks that ``main`` returned 0."""
    import threading

    from repro import cli
    from repro.serve.frontend import FleetServer

    booted = threading.Event()
    servers, stops, rc = [], [], {}
    real_start = FleetServer.start

    def capture(self, *args, **kwargs):
        address = real_start(self, *args, **kwargs)
        servers.append(self)
        booted.set()
        return address

    monkeypatch.setattr(FleetServer, "start", capture)
    monkeypatch.setattr(cli, "_install_sigterm", stops.append)

    def run():
        rc["code"] = main(
            ["serve", "--port", "0", "--no-noise", "--deadline", "2.0"]
        )

    thread = threading.Thread(target=run)
    thread.start()
    try:
        assert booted.wait(10)
        yield servers[0]
    finally:
        if stops:
            stops[0]()  # what the SIGTERM handler does
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert rc["code"] == 0


def test_serve_boots_answers_and_stops(cli_server):
    """The serve subcommand binds, answers /predict, and closes cleanly."""
    import json
    import os
    import urllib.request

    host, port = cli_server.address
    url = (
        f"http://{host}:{port}/predict?application=AVUS-standard"
        "&cpus=64&machine=ARL_Xeon&metric=3"
    )
    with urllib.request.urlopen(url) as resp:
        body = json.load(resp)
    assert body["served_metric"] == 3
    # The default server is one process: the service runs in-process.
    with urllib.request.urlopen(f"http://{host}:{port}/healthz") as resp:
        assert json.load(resp)["workers"]["w0"]["pid"] == os.getpid()


def test_serve_keep_alive_answers_promptly(cli_server):
    """Sequential requests on one keep-alive connection are not held back
    by Nagle's algorithm against the client's delayed ACK (~40 ms each
    when a response leaves as two writes)."""
    import http.client
    import statistics
    import time

    conn = http.client.HTTPConnection(*cli_server.address, timeout=10)
    path = "/predict?application=AVUS-standard&cpus=64&machine=ARL_Xeon&metric=9"
    try:
        conn.request("GET", path)  # cold: probes and traces the cell
        conn.getresponse().read()
        seconds = []
        for _ in range(20):
            start = time.perf_counter()
            conn.request("GET", path)
            response = conn.getresponse()
            response.read()
            seconds.append(time.perf_counter() - start)
            assert response.status == 200
    finally:
        conn.close()
    assert statistics.median(seconds) < 0.020


# ----------------------------------------------------------------------
# events: tail / verify / rebuild, SIGTERM drain
# ----------------------------------------------------------------------
def _seed_events(root):
    from repro.events import EventLog, ProbeCompleted

    log = EventLog(root, writer="serve")
    log.append(ProbeCompleted(machine="m1", key="k1"))
    log.append(ProbeCompleted(machine="m2", key="k2"))
    log.close()


def test_events_tail_verify_rebuild(tmp_path, capsys):
    import json

    ev = tmp_path / "ev"
    _seed_events(ev)
    assert main(["events", "tail", "--events-dir", str(ev), "--limit", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "probe-completed"
    assert main(["events", "verify", "--events-dir", str(ev)]) == 0
    assert "2 frame(s)" in capsys.readouterr().out
    assert main(["events", "rebuild", "--events-dir", str(ev)]) == 0
    views = json.loads(capsys.readouterr().out)
    assert views["stats"]["by_kind"] == {"probe-completed": 2}


def test_events_verify_damage_exits_13(tmp_path, capsys):
    ev = tmp_path / "ev"
    _seed_events(ev)
    segment = next(ev.glob("events-*.jsonl"))
    raw = segment.read_bytes()
    segment.write_bytes(raw[:-5])  # torn tail: killed mid-append
    assert main(["events", "verify", "--events-dir", str(ev)]) == 13
    captured = capsys.readouterr()
    assert "DAMAGED" in captured.out
    assert "damaged stream" in captured.err


def test_events_requires_action_and_dir(capsys):
    with pytest.raises(SystemExit):
        main(["events"])
    assert "expected an action" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["events", "verify"])
    assert "--events-dir is required" in capsys.readouterr().err


def test_serve_sigterm_drains_and_exits_zero(tmp_path):
    """`kill -TERM` on a serving process finishes in-flight work, flushes
    the event log, and exits 0 (the graceful-drain contract)."""
    import json
    import os
    import re
    import signal
    import subprocess
    import sys
    import urllib.request
    from pathlib import Path

    import repro
    from repro.events import verify_dir

    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1]),
    }
    events_dir = tmp_path / "ev"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--no-noise",
            "--events-dir", str(events_dir),
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stderr.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        assert match, f"no address in banner: {banner!r}"
        port = int(match.group(1))
        url = (
            f"http://127.0.0.1:{port}/predict?application=AVUS-standard"
            "&cpus=64&machine=ARL_Xeon&metric=3"
        )
        with urllib.request.urlopen(url) as resp:
            assert json.load(resp)["served_metric"] == 3
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait()
        proc.stderr.close()
    report = verify_dir(events_dir)
    assert report["ok"] and report["frames"] >= 1
