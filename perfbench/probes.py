"""Spans and counters for the traced run, recorded from outside the engine.

:class:`Probes` wraps public entry points of the engine's modules — the
functions and methods listed in :data:`SPANS` and :data:`HOT` — by
rebinding them, for the duration of the traced window, in every loaded
``repro`` module that holds them.  Nothing in ``src/repro`` changes; the
untraced run never installs a wrapper.

* A *span* (``SPANS``) records name, start, end, the span that caused it
  and the request it belongs to.  Spans stay in memory and are written
  out as JSON lines when the run ends.
* A *hot* wrapper (``HOT``) sits on a per-page or per-request path; it
  only adds to a call count and a busy time, so that the traced run
  stays near the untraced one.

Operators are generators, so their layer boundary is a generator hop
that no wrapper can time; :func:`profile_pass` runs one pass under
``cProfile`` and buckets self time by operator module instead.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import json
import pstats
import sys
import time

#: span name -> (module, attribute path) of the wrapped callable
SPANS = {
    "xmark.generate": ("repro.xmark.generator", "generate_xmark"),
    "xml.parse": ("repro.xml.parser", "parse_into"),
    "xml.tree_finish": ("repro.model.builder", "TreeBuilder.finish"),
    "storage.import": ("repro.storage.importer", "import_tree"),
    "storage.synopsis_collect": ("repro.storage.synopsis", "ClusterSynopsis.collect"),
    "storage.pathsummary_collect_tree": (
        "repro.storage.pathsummary",
        "PathSummary.collect_from_tree",
    ),
    "storage.pathsummary_collect": ("repro.storage.pathsummary", "PathSummary.collect"),
    "storage.synopsis_repair": ("repro.storage.store", "repair_synopsis"),
    "storage.pathsummary_repair": ("repro.storage.store", "repair_pathsummary"),
    "storage.save": ("repro.storage.persist", "save_store"),
    "storage.load_store": ("repro.storage.persist", "load_store"),
    "storage.recollect_statistics": ("repro.storage.store", "recollect_statistics"),
    "storage.recollect_synopsis": ("repro.storage.store", "recollect_synopsis"),
    "storage.recollect_pathsummary": ("repro.storage.store", "recollect_pathsummary"),
    "update.insert": ("repro.storage.update", "insert_node"),
    "update.delete": ("repro.storage.update", "delete_subtree"),
    "update.set_value": ("repro.storage.update", "update_value"),
    "wal.sync": ("repro.storage.wal", "WriteAheadLog.sync"),
    "wal.recover": ("repro.storage.wal", "recover_store"),
    "xpath.compile": ("repro.xpath.compile", "compile_query"),
    "obs.summary": ("repro.obs.tracer", "Tracer.summary"),
    "exec.execute": ("repro.exec.session", "QuerySession.execute"),
    "exec.batch": ("repro.exec.batch", "run_batch"),
    "engine.execute": ("repro.engine", "Database.execute"),
    "engine.load": ("repro.engine", "Database.load"),
    "engine.load_xml": ("repro.engine", "Database.load_xml"),
}

#: counted and timed, never recorded one by one
HOT = {
    "buffer.fix": ("repro.storage.buffer", "BufferManager.fix"),
    "storage.colview_build": ("repro.storage.colview", "ColumnView.__init__"),
    "sim.iosys_request": ("repro.sim.iosys", "AsyncIOSystem.request"),
    "sim.iosys_try_get": ("repro.sim.iosys", "AsyncIOSystem.try_get_completion"),
    "sim.iosys_get": ("repro.sim.iosys", "AsyncIOSystem.get_completion"),
    "sim.iosys_read_sync": ("repro.sim.iosys", "AsyncIOSystem.read_sync"),
}

#: operator module -> per-layer bucket of :func:`profile_pass`
OPERATOR_BUCKETS = {
    "xstep.py": "xstep",
    "xassembly.py": "xassembly",
    "xscan.py": "xscan",
    "multiscan.py": "xscan",
    "xschedule.py": "xschedule",
    "unnestmap.py": "unnestmap",
    "base.py": "pipeline",
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Probes:
    """Installs the wrappers and keeps what they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []  #: [name, start, end, parent, request]
        self.busy: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.gc_pause = 0.0
        self.gc_gen2 = 0
        self._gc_t0 = 0.0

    # -- requests ------------------------------------------------------

    def begin_request(self, kind: str) -> None:
        """Spans from here on belong to a new request (one operation)."""
        self.request += 1

    # -- wrappers ------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, busy, calls = self.spans, self._stack, self.busy, self.calls
        probes = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            record = [name, time.perf_counter(), 0.0, parent, probes.request]
            spans.append(record)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = end = time.perf_counter()
                busy[name] = busy.get(name, 0.0) + end - record[1]
                calls[name] = calls.get(name, 0) + 1

        return wrapper

    def _hot(self, name: str, fn):
        busy, calls = self.busy, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] = busy.get(name, 0.0) + clock() - t0
                calls[name] = calls.get(name, 0) + 1

        return wrapper

    def install(self) -> None:
        """Rebind every wrapped callable wherever a ``repro`` module holds it."""
        if self._saved:
            return
        for table, make in ((SPANS, self._span), (HOT, self._hot)):
            for name, (module_name, path) in table.items():
                owner, attr = _resolve(module_name, path)
                raw = owner.__dict__[attr]
                decorator = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                fn = raw.__func__ if decorator else raw
                wrapped = make(name, fn)
                self._rebind(owner, attr, raw, decorator(wrapped) if decorator else wrapped)
                if isinstance(owner, type):
                    continue
                # ``from module import fn`` copies: rebind those too
                for module in list(sys.modules.values()):
                    if module is owner or not getattr(module, "__name__", "").startswith(
                        "repro"
                    ):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._rebind(module, key, fn, wrapped)
        gc.callbacks.append(self._on_gc)

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        self.gc_pause += time.perf_counter() - self._gc_t0
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    # -- readings ------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "busy": dict(self.busy),
            "calls": dict(self.calls),
            "gc_pause": self.gc_pause,
            "gc_gen2": self.gc_gen2,
            "spans": len(self.spans),
        }

    def since(self, mark: dict) -> dict:
        """Busy seconds and calls per probe since ``mark``."""
        busy = {k: v - mark["busy"].get(k, 0.0) for k, v in self.busy.items()}
        calls = {k: v - mark["calls"].get(k, 0) for k, v in self.calls.items()}
        return {
            "busy": busy,
            "calls": calls,
            "gc_pause": self.gc_pause - mark["gc_pause"],
            "gc_gen2": self.gc_gen2 - mark["gc_gen2"],
        }

    def nested(self, mark: dict, parent_name: str, child_name: str) -> tuple[float, float]:
        """Seconds in ``parent_name`` spans since ``mark``, and the part of
        them spent in their direct ``child_name`` children."""
        spans = self.spans
        parent_total = child_total = 0.0
        for name, start, end, parent, _ in spans[mark["spans"] :]:
            if name == parent_name:
                parent_total += end - start
            elif name == child_name and parent >= 0 and spans[parent][0] == parent_name:
                child_total += end - start
        return parent_total, child_total

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, then the hot probes' totals."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "request": request}
                    )
                )
                out.write("\n")
            out.write(json.dumps({"hot": {"busy": self.busy, "calls": self.calls}}))
            out.write("\n")


def profile_pass(run) -> dict[str, float]:
    """Self seconds per operator bucket while ``run()`` executes."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    buckets = {bucket: 0.0 for bucket in OPERATOR_BUCKETS.values()}
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        if "/repro/algebra/" not in filename.replace("\\", "/"):
            continue
        bucket = OPERATOR_BUCKETS.get(filename.replace("\\", "/").rsplit("/", 1)[-1])
        if bucket is not None:
            buckets[bucket] += row[2]  # tottime: the function's own time
    return buckets
