"""One round: a fresh server process, one client, the timed operations.

:class:`ServerProcess` spawns :mod:`launcher` and times set-up (spawn
until ``ready``).  :class:`LoadGenerator` sends requests over one
:class:`~client.Client`, records every latency into a :class:`Tally`,
and checks each answer against the :class:`~oracles.Model` once the
timed phase is over.  A non-200 answer is a failed operation (never
retried); an answer that disagrees with the model is an error, and any
error makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from client import Client
from inputs import Probe
from oracles import (
    Model,
    check_acks,
    check_aggregate,
    check_lineage,
    check_stats,
    check_walk,
)
from repro.service.events import ProvEvent, encode_event

#: Seconds the server may take to shut down (close flushes and
#: checkpoints every shard).
SHUTDOWN_TIMEOUT_S = 120.0
PAGE_SIZE = 10


class ServerProcess:
    """The launcher child: set-up time, CPU readings and shutdown."""

    def __init__(
        self, root: str, *, corpus: str | None, trace: str | None
    ) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        command = [sys.executable, os.path.join(here, "launcher.py"),
                   "--root", root]
        if corpus:
            command += ["--corpus", corpus]
        if trace:
            command += ["--trace", trace]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            words = self._read().split()
            if words[:1] != ["ready"]:
                raise RuntimeError(f"server did not start: {words}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.port = int(words[1])

    def _read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait()}"
            )
        return line

    def command(self, text: str) -> list[str]:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read().split()

    def cpu_start(self) -> float:
        return float(self.command("start")[1])

    def cpu_stop(self) -> tuple[float, int]:
        words = self.command("stop")
        return float(words[1]), int(words[3])

    def shutdown(self) -> None:
        self.proc.stdin.close()
        try:
            tail = self.proc.stdout.read()
            self.proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        finally:
            self.kill()
        if self.proc.returncode != 0 or "bye" not in tail:
            raise RuntimeError(
                f"server shut down with code {self.proc.returncode}"
            )

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


@dataclass
class Tally:
    """Everything one round measured, in seconds."""

    attempted: int = 0
    failed: int = 0
    #: Answers that disagreed with an oracle; any makes the run incorrect.
    errors: list[str] = field(default_factory=list)
    #: Non-200 answers, reported but not held against correctness.
    refusals: list[str] = field(default_factory=list)
    events: int = 0
    #: ``(events acknowledged, seconds)`` per POST /v1/events or flush.
    writes: list[tuple[int, float]] = field(default_factory=list)
    #: Seconds per read request.
    reads: list[float] = field(default_factory=list)
    post: list[float] = field(default_factory=list)
    visible: list[float] = field(default_factory=list)
    page_first: list[float] = field(default_factory=list)
    page_next: list[float] = field(default_factory=list)
    lineage: list[float] = field(default_factory=list)
    #: Seconds in every request, for the traced run's per-request ratios.
    request_s: float = 0.0

    def error(self, message: str) -> None:
        _note(self.errors, message)


def _note(messages: list[str], message: str) -> None:
    if len(messages) < 20:
        messages.append(message)
    else:
        messages[-1] = f"... and more; last: {message}"


class LoadGenerator:
    """Closed-loop operations on one connection, checked after the fact.

    During the timed phase the client only sends, times and parses: each
    answer's oracle check is queued with the number of events
    acknowledged when it was read, and :meth:`verify` replays the
    acknowledged events into a fresh :class:`~oracles.Model`, running
    every check at its own point in the stream.  Client work between
    requests would otherwise leave the server idle for unmeasured
    stretches, which on a virtual host inflates the next request's
    latency by a varying wake-up delay.
    """

    def __init__(self, client: Client, tally: Tally) -> None:
        self.client = client
        self.tally = tally
        self.seqs: list[int] = []
        self.posted = 0
        #: Events acknowledged so far, in order.
        self.log: list[ProvEvent] = []
        #: ``(events acknowledged then, check(model) -> problem)``.
        self.checks: list[tuple[int, Callable[[Model], str | None]]] = []

    def _defer(self, check: Callable[[Model], str | None]) -> None:
        self.checks.append((len(self.log), check))

    def _call(self, method: str, path: str, body: bytes = b"", **query):
        tally = self.tally
        tally.attempted += 1
        if method == "GET":
            status, payload, elapsed = self.client.get(path, **query)
        else:
            status, payload, elapsed = self.client.call(method, path, body)
        tally.request_s += elapsed
        if status != 200:
            tally.failed += 1
            _note(
                tally.refusals, f"{method} {path} -> {status}: {payload[:200]!r}"
            )
            return None, elapsed
        return json.loads(payload), elapsed

    def read(self, path: str, **query):
        result, elapsed = self._call("GET", path, **query)
        self.tally.reads.append(elapsed)
        return result, elapsed

    # -- writes -----------------------------------------------------------------

    def post(self, body: bytes, events: list[ProvEvent]) -> float | None:
        """POST one batch; returns the send time, or ``None`` if refused."""
        sent = time.perf_counter()
        result, elapsed = self._call("POST", "/v1/events", body)
        self.tally.post.append(elapsed)
        if result is None:
            self.tally.writes.append((0, elapsed))
            return None
        self.posted += len(events)
        self.seqs.extend(result["seqs"])
        self.tally.events += result["accepted"]
        self.tally.writes.append((result["accepted"], elapsed))
        self.log.extend(events)
        return sent

    def flush(self) -> None:
        _result, elapsed = self._call("POST", "/v1/flush", b"{}")
        self.tally.writes.append((0, elapsed))

    # -- reads ------------------------------------------------------------------

    def ranked_walk(
        self, term: str, user_id: str | None, *, max_pages: int,
        stop_at: tuple[str, str] | None = None,
    ) -> bool:
        """Page through a ranked search; True if *stop_at* was returned.

        Without *stop_at* the walk runs until the cursor runs out or
        *max_pages* pages have been read.
        """
        hits: list[tuple[tuple[str, str], float]] = []
        cursor = None
        found = False
        for page in range(max_pages):
            result, elapsed = self.read(
                "/v1/search/ranked", term=term, user=user_id,
                limit=PAGE_SIZE, cursor=cursor,
            )
            (self.tally.page_next if page else self.tally.page_first).append(
                elapsed
            )
            if result is None:
                return False
            for hit in result["hits"]:
                key = (hit["user_id"], hit["nid"])
                hits.append((key, hit["score"]))
                found = found or key == stop_at
            cursor = result["cursor"]
            if cursor is None or found:
                break
        complete = cursor is None

        def check(model: Model) -> str | None:
            problem = check_walk(model.matches(term, user_id), hits, complete)
            return problem and f"ranked {term!r} user={user_id}: {problem}"

        self._defer(check)
        return found

    def lineage(
        self, user_id: str, node_id: str, direction: str
    ) -> list[list] | None:
        result, elapsed = self.read(
            f"/v1/{direction}", user=user_id, node=node_id
        )
        self.tally.lineage.append(elapsed)
        if result is None:
            return None
        rows = result["nodes"]
        self._defer(
            lambda model: check_lineage(
                model, user_id, node_id, direction, rows
            )
        )
        return rows

    def stats(self, user_id: str) -> bool:
        result, _elapsed = self.read("/v1/stats", user=user_id)
        if result is None:
            return False
        self._defer(lambda model: check_stats(model, user_id, result))
        return True

    def probe(self, probe: Probe, sent: float | None) -> None:
        """Read until the batch sent at *sent* shows; record the delay.

        A ``stats`` probe is counted as seen when it answers; its
        deferred check fails the run if the counts lag the batch.
        """
        if sent is None:
            return
        if probe.kind == "walk":
            seen = self.ranked_walk(
                probe.term, probe.user_id, max_pages=1_000,
                stop_at=(probe.user_id, probe.node),
            )
        elif probe.kind == "ancestors":
            rows = self.lineage(probe.user_id, probe.node, "ancestors")
            seen = rows is not None and [probe.parent, 1] in rows
        else:
            seen = self.stats(probe.user_id)
        if seen:
            self.tally.visible.append(time.perf_counter() - sent)
        else:
            self.tally.error(f"probe never saw the newest event: {probe}")

    # -- end-of-round checks (untimed) -----------------------------------------

    def verify(self, corpus: list[ProvEvent], tenants: list[str]) -> None:
        """Run every queued check, then the end-of-round ones: counts of
        every tenant and in total, integrity, dead letters, acks."""
        for user_id in tenants:
            self.stats(user_id)
        aggregate, _elapsed = self.read("/v1/stats/aggregate")
        if aggregate is not None:
            self._defer(lambda model: check_aggregate(model, aggregate))
        result, _elapsed = self.read("/v1/integrity")
        if result is not None and not result.get("ok"):
            self.tally.error(f"integrity report not ok: {result}")
        result, _elapsed = self.read("/v1/deadletters")
        if result is not None and result["deadletters"]:
            self.tally.error(
                f"{len(result['deadletters'])} events dead-lettered"
            )
        problem = check_acks(self.seqs, self.posted)
        if problem:
            self.tally.error(problem)
        model = Model()
        for event in corpus:
            model.add(event)
        fed = 0
        for position, check in self.checks:
            while fed < position:
                model.add(self.log[fed])
                fed += 1
            problem = check(model)
            if problem:
                self.tally.error(problem)


def encode_batch(events: list[ProvEvent]) -> bytes:
    return json.dumps(
        {"events": [encode_event(event) for event in events]},
        separators=(",", ":"),
    ).encode()
