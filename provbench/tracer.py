"""Span recording inside the server process, for the traced run only.

:meth:`SpanRecorder.install` replaces each public function named in
:data:`TARGETS` at the place its caller looks the name up (a module
global such as ``repro.service.service.shard_ranked_scan``, or a class
attribute such as ``IngestPipeline.flush``) with a wrapper that records
a span.  Spans
are ``(name, thread, start, end, self, parent, n)`` tuples kept in
memory per thread; *self* is the span's duration minus what its child
spans on the same thread cover, and *n* an optional size (rows scanned,
hits decorated, events applied).  Nothing is written until
:meth:`SpanRecorder.dump` at shutdown.

Recording is off until :meth:`SpanRecorder.start`, so set-up (the
``recall`` corpus load) and the post-run checks leave no spans.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import threading
import time
from typing import Any, Callable


def _len_result(_args: tuple, result: Any) -> int:
    return len(result)


def _len_arg(index: int) -> Callable[[tuple, Any], int]:
    return lambda args, _result: len(args[index])


#: ``(module, owner, attribute, span name, size-of)``: *owner* is
#: ``None`` for a module global, else a class in *module*.
TARGETS: tuple[tuple[str, str | None, str, str, Any], ...] = (
    ("repro.service.server", None, "read_request", "wire.parse", None),
    ("repro.service.wire", "WireRequest", "json", "wire.parse_body", None),
    ("repro.service.server", None, "encode_response", "wire.encode", None),
    ("repro.service.server", "ProvenanceServer", "_call", "facade.call", None),
    ("repro.service.admission", "AdmissionController", "admit_write",
     "admission", None),
    ("repro.service.admission", "AdmissionController", "admit_read",
     "admission", None),
    ("repro.service.server", None, "decode_event", "events.decode", None),
    ("repro.service.ingest", None, "encode_event_json", "events.encode", None),
    ("repro.service.ingest", None, "encode_edge_json_parts",
     "events.encode", None),
    ("repro.service.service", "ProvenanceService", "record_event",
     "service.record", None),
    ("repro.service.service", "ProvenanceService", "ranked_search",
     "service.ranked", None),
    ("repro.service.service", "ProvenanceService", "ancestors",
     "service.lineage", None),
    ("repro.service.service", "ProvenanceService", "descendants",
     "service.lineage", None),
    ("repro.service.ingest", "IngestPipeline", "submit", "ingest.submit", None),
    ("repro.service.ingest", "IngestPipeline", "submit_edge",
     "ingest.submit", None),
    ("repro.service.ingest", "IngestPipeline", "flush", "ingest.flush", None),
    ("repro.service.ingest", "IngestPipeline", "drain_for_read",
     "ingest.drain", None),
    ("repro.service.ingest", None, "_sha256", "integrity.chain", None),
    ("repro.service.ingest", None, "write_signed", "integrity.manifest", None),
    ("repro.service.ingest", None, "apply_event_batch", "apply",
     _len_arg(1)),
    ("repro.core.store", "ProvenanceStore", "index_documents", "index",
     _len_arg(1)),
    ("repro.core.store", "ProvenanceStore", "append_nodes", "store.write",
     _len_arg(1)),
    ("repro.core.store", "ProvenanceStore", "append_edges", "store.write",
     _len_arg(1)),
    ("repro.core.store", "ProvenanceStore", "append_intervals",
     "store.write", _len_arg(1)),
    ("repro.core.store", "ProvenanceStore", "sql_ancestors", "store.walk",
     None),
    ("repro.core.store", "ProvenanceStore", "sql_descendants", "store.walk",
     None),
    ("repro.service.service", None, "shard_ranked_scan", "search.scan",
     _len_result),
    ("repro.service.service", None, "attach_snippets", "search.snippet",
     _len_arg(1)),
    ("repro.service.service", None, "encode_cursor", "search.cursor", None),
    ("repro.service.service", None, "decode_cursor", "search.cursor", None),
    ("repro.service.service", None, "ranked_merge", "search.merge", None),
)


class SpanRecorder:
    """Per-thread span stacks, self time, and a GC pause tally."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._threads: list[list[tuple]] = []
        self._threads_lock = threading.Lock()
        self._gc_started = 0.0
        self.gc_seconds = 0.0
        #: Time to acquire a store from the pool, one sample per checkout.
        self.checkout_waits: list[float] = []

    # -- recording --------------------------------------------------------------

    def _state(self) -> tuple[list, list]:
        local = self._local
        try:
            return local.stack, local.spans
        except AttributeError:
            local.stack = []
            local.spans = []
            with self._threads_lock:
                self._threads.append(local.spans)
            return local.stack, local.spans

    def _open(self, name: str) -> tuple[list, list, list]:
        stack, spans = self._state()
        frame = [name, time.perf_counter(), 0.0]
        stack.append(frame)
        return stack, spans, frame

    def _close(
        self, stack: list, spans: list, frame: list, n: int | None
    ) -> None:
        end = time.perf_counter()
        stack.pop()
        name, start, covered = frame
        duration = end - start
        parent = None
        if stack:
            stack[-1][2] += duration
            parent = stack[-1][0]
        spans.append(
            (name, threading.get_ident(), start, end, duration - covered,
             parent, n)
        )

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller (the async wire parse)."""
        _stack, spans = self._state()
        spans.append(
            (name, threading.get_ident(), start, end, end - start, None, None)
        )

    def wrap(self, name: str, fn: Callable, size_of=None) -> Callable:
        if name == "wire.parse":
            return self._wrap_parse(fn)
        if name == "facade.call":
            return self._wrap_call(fn)
        return self._wrap_sync(name, fn, size_of)

    def _wrap_sync(self, name: str, fn: Callable, size_of) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack, spans, frame = recorder._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder._close(stack, spans, frame, None)
                raise
            recorder._close(
                stack, spans, frame,
                size_of(args, result) if size_of is not None else None,
            )
            return result

        return timed

    def _wrap_parse(self, fn: Callable) -> Callable:
        """The request parser is a coroutine that also awaits the
        client's next request; only the loop thread's CPU time inside
        it is parse work (one connection, so nothing else runs there)."""
        recorder = self

        @functools.wraps(fn)
        async def timed_parse(*args, **kwargs):
            if not recorder.enabled:
                return await fn(*args, **kwargs)
            cpu = time.thread_time()
            result = await fn(*args, **kwargs)
            spent = time.thread_time() - cpu
            if result is not None:
                now = time.perf_counter()
                recorder.record("wire.parse", now - spent, now)
            return result

        return timed_parse

    def _wrap_call(self, fn: Callable) -> Callable:
        """Time the facade function on the executor thread, not the
        hand-off to it."""
        recorder = self

        @functools.wraps(fn)
        async def timed_call(server, call):
            if not recorder.enabled:
                return await fn(server, call)
            return await fn(
                server, recorder._wrap_sync("facade.call", call, None)
            )

        return timed_call

    def _checkout(self, fn: Callable) -> Callable:
        recorder = self

        class TimedEnter:
            def __init__(self, manager) -> None:
                self.manager = manager

            def __enter__(self):
                started = time.perf_counter()
                store = self.manager.__enter__()
                if recorder.enabled:
                    recorder.checkout_waits.append(
                        time.perf_counter() - started
                    )
                return store

            def __exit__(self, *exc_info):
                return self.manager.__exit__(*exc_info)

        @functools.wraps(fn)
        def checkout(pool, shard):
            return TimedEnter(fn(pool, shard))

        return checkout

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self.enabled and self._gc_started:
            self.gc_seconds += time.perf_counter() - self._gc_started

    # -- lifecycle --------------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module_name, owner_name, attribute, name, size_of in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = inspect.getattr_static(owner, attribute)
            setattr(owner, attribute, self.wrap(name, original, size_of))
        pool_module = importlib.import_module("repro.service.pool")
        original = inspect.getattr_static(pool_module.StorePool, "checkout")
        pool_module.StorePool.checkout = self._checkout(original)
        gc.callbacks.append(self._on_gc)

    def start(self) -> None:
        self.enabled = True

    def stop(self) -> None:
        self.enabled = False

    def spans(self) -> list[tuple]:
        with self._threads_lock:
            return [span for spans in self._threads for span in spans]

    def summary(self) -> dict[str, Any]:
        """Per span name: calls, total and self seconds, summed sizes."""
        names: dict[str, dict[str, float]] = {}
        for name, _tid, start, end, self_s, _parent, n in self.spans():
            entry = names.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
            if n is not None:
                entry["n"] += n
        waits = sorted(self.checkout_waits)
        return {
            "spans": names,
            "gc_s": self.gc_seconds,
            "checkout_wait_p50_s": waits[len(waits) // 2] if waits else 0.0,
        }

    def dump(self, path: str) -> None:
        """Write the summary and every span (one JSON line each)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.summary()) + "\n")
            for span in self.spans():
                handle.write(json.dumps(span) + "\n")
