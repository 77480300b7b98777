"""Outside-in span recorder for the benchmark's traced runs.

The program under test carries no timing code of its own on most layers,
so the traced run wraps each layer's public entry point from here: the
wrapper records a span (name, start, end, parent, frame id, count) in
memory and the process writes its spans to ``<dir>/<pid>.json`` when it
ends.  Nothing in ``src/`` is edited.

Entry points are looked up by module and qualified name.  One that no
longer exists (a module deleted by a refactor, a renamed method) is
reported as *absent* instead of raising, so the benchmark keeps working
while the program changes under it.

A module-level function is rebound in every loaded module of its package
that holds it (``from x import f`` copies), and in its defining module,
so callers that import it later get the wrapper too.  Methods are replaced on the class (and on
every subclass that overrides them).
"""

from __future__ import annotations

import contextvars
import functools
import gc
import importlib
import inspect
import itertools
import json
import os
import sys
import time

#: (layer, module, qualified name, count) for every wrapped entry point.
#: ``count`` names how a span's count is derived from the call:
#: ``None`` (one per call), ``"len2"`` (length of the third positional
#: argument), ``"none_result"`` (1 when the call
#: returned ``None``, i.e. a store miss) or ``"payload"`` (bytes of a
#: frame payload plus its 4-byte length prefix).
ENTRY_POINTS = (
    ("study", "repro.study.runner", "run_study", None),
    ("engine", "repro.engine.core", "Engine.run_matrix", None),
    ("engine", "repro.engine.core", "Engine.run_point", None),
    ("probes", "repro.probes.suite", "probe_machine", None),
    ("tracing", "repro.tracing.metasim", "trace_application", None),
    ("tracing", "repro.tracing.metasim", "MetaSimTracer.trace", None),
    ("memory", "repro.memory.cache", "MultiLevelCache.service_fractions_analytic", None),
    ("memory", "repro.memory.stride", "StrideDetector.classify", None),
    ("memory", "repro.memory.streams", "strided_addresses", None),
    ("memory", "repro.memory.streams", "random_addresses", None),
    ("memory", "repro.memory.streams", "pointer_chase_addresses", None),
    ("apps", "repro.apps.execution", "GroundTruthExecutor.run_many", "len2"),
    ("apps", "repro.apps.execution", "GroundTruthExecutor.run", None),
    ("core", "repro.core.metrics", "predict_all", "len2"),
    ("core", "repro.core.metrics", "Metric.predict_many", "len2"),
    ("core", "repro.core.metrics", "Metric.predict", None),
    ("store", "repro.tracing.store", "TraceStore.load_trace", "none_result"),
    ("store", "repro.tracing.store", "TraceStore.load_probes", "none_result"),
    ("store", "repro.tracing.store", "TraceStore.save_trace", None),
    ("store", "repro.tracing.store", "TraceStore.save_probes", None),
    ("store", "repro.tracing.store", "TraceStore.flush", None),
    ("store", "repro.tracing.store", "TraceStore.close", None),
    ("scenarios", "repro.scenarios.catalog", "mount_universe", None),
    ("service", "repro.serve.service", "PredictionService.predict", None),
    ("service", "repro.serve.service", "PredictionService.predict_cells", None),
    ("admission", "repro.serve.admission", "AdmissionQueue.acquire", None),
    ("events", "repro.events.log", "EventLog.append", None),
    ("events", "repro.events.log", "EventLog.commit", None),
    ("httpd", "repro.serve.httpd", "_Handler.do_GET", None),
    ("frontend", "repro.serve.frontend", "FleetFrontend._predict", None),
    ("frontend", "repro.serve.frontend", "FleetFrontend._predict_batch", None),
    ("fleet", "repro.serve.fleet", "WorkerHandle.call", None),
    ("fleet", "repro.serve.fleet", "_handle_frame", None),
    ("fleet", "repro.serve.fleet", "_send_frame", "payload"),
)

_current: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_span", default=-1
)


class Recorder:
    """In-memory spans and garbage-collector pauses of one process.

    A span is ``(id, parent, name, start, end, frame, count)`` with times
    from :func:`time.perf_counter` (``CLOCK_MONOTONIC`` on Linux, so
    spans of different processes share one timeline).
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.absent: list[str] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (a forked child's first act).

        The list is cleared in place: the wrappers hold its bound
        ``append``.
        """
        self.spans.clear()
        self.gc_pauses: list[tuple[float, float]] = []
        self._gc_start = 0.0

    # ------------------------------------------------------------------
    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append((self._gc_start, time.perf_counter()))

    def flush(self) -> None:
        """Write every span recorded so far to ``<out_dir>/<pid>.json``."""
        spans = list(self.spans)
        doc = {
            "pid": os.getpid(),
            "argv": sys.argv,
            "absent": self.absent,
            "gc": list(self.gc_pauses),
            "spans": spans,
        }
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, count: str | None):
        """Return ``fn`` wrapped so each call records one span."""
        record = self.spans.append
        ids = self._ids
        frame_of = _frame_getter(name)
        count_of = _COUNTERS[count]

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid = next(ids)
                frame = frame_of(args)
                parent = _current.get()
                token = _current.set(sid)
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    record((sid, parent, name, start, time.perf_counter(), frame, 0))
                    raise
                finally:
                    _current.reset(token)
                record(
                    (sid, parent, name, start, time.perf_counter(), frame,
                     count_of(args, result))
                )
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            frame = frame_of(args)
            parent = _current.get()
            token = _current.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record((sid, parent, name, start, time.perf_counter(), frame, 0))
                raise
            finally:
                _current.reset(token)
            record(
                (sid, parent, name, start, time.perf_counter(), frame,
                 count_of(args, result))
            )
            return result

        return wrapper


def _frame_getter(name: str):
    """Frame-id extractor for the spans that carry one.

    ``WorkerHandle.call`` is matched to the worker's ``_handle_frame`` by
    (worker name, request id): the handle assigns ``_seq + 1`` to the
    frame it is about to send, and the worker sees it as ``msg["id"]``.
    The operation rides along so health probes can be told apart.
    """
    if name == "WorkerHandle.call":
        return lambda args: [args[0].name, args[0]._seq + 1, args[1]]
    if name == "_handle_frame":
        return lambda args: [args[1], args[2].get("id"), args[2].get("op")]
    return lambda args: None


_COUNTERS = {
    None: lambda args, result: 1,
    "len2": lambda args, result: len(args[2]) if len(args) > 2 else 1,
    "none_result": lambda args, result: 1 if result is None else 0,
    "payload": lambda args, result: len(args[1]) + 4,
}


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------
def _resolve(module_name: str, qualname: str):
    """(owner, attribute name, function) or ``None`` when absent."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(parts[-1]) if isinstance(owner, type) else getattr(
        owner, parts[-1], None
    )
    if fn is None or not callable(fn):
        return None
    return owner, parts[-1], fn


def _subclasses(cls: type):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def wrap_all(recorder: Recorder, entry_points) -> list[str]:
    """Wrap each entry point; returns the ``layer:module.name`` of absent ones."""
    absent = []
    for layer, module_name, qualname, count in entry_points:
        found = _resolve(module_name, qualname)
        if found is None:
            absent.append(f"{layer}:{module_name}.{qualname}")
            continue
        owner, attr, fn = found
        if isinstance(owner, type):
            setattr(owner, attr, recorder.wrap(fn, qualname, count))
            for sub in _subclasses(owner):
                own = sub.__dict__.get(attr)
                if own is not None and callable(own):
                    setattr(sub, attr, recorder.wrap(own, qualname, count))
            continue
        wrapped = recorder.wrap(fn, qualname, count)
        top = module_name.split(".")[0]
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != top:
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
    return absent


def install(out_dir: str) -> Recorder:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the recorder.

    Spans are flushed at interpreter exit, after
    ``PredictionService.drain`` (fleet workers leave through
    ``os._exit``, which skips ``atexit``) and on demand.  A forked child
    starts with an empty recorder of its own.
    """
    import atexit

    recorder = Recorder(out_dir)
    recorder.absent = wrap_all(recorder, ENTRY_POINTS)
    _flush_after_drain(recorder)
    gc.callbacks.append(recorder.on_gc)
    os.register_at_fork(after_in_child=recorder.reset)
    atexit.register(recorder.flush)
    return recorder


def _flush_after_drain(recorder: Recorder) -> None:
    found = _resolve("repro.serve.service", "PredictionService.drain")
    if found is None:
        recorder.absent.append("service:repro.serve.service.PredictionService.drain")
        return
    owner, attr, drain = found

    @functools.wraps(drain)
    def drain_then_flush(self, *args, **kwargs):
        try:
            return drain(self, *args, **kwargs)
        finally:
            recorder.flush()

    setattr(owner, attr, drain_then_flush)


def layer_of(name: str) -> str:
    """The layer a span name belongs to (see :data:`ENTRY_POINTS`)."""
    return _LAYERS.get(name, "other")


_LAYERS = {qualname: layer for layer, _module, qualname, _count in ENTRY_POINTS}
