"""The service benchmark: one client, the server in its own process.

Run from the root of a checkout::

    python3 provbench/run.py --workload ingest|recall|live --seed N \\
        --seconds S --trace 0|1

A run builds the workload's inputs from ``--seed`` (untimed), then
repeats whole *rounds* until they have taken ``--seconds`` of wall time.
A round spawns a fresh server on an empty root (set-up, timed), runs
the workload's operations over one keep-alive connection (the timed
phase; client GC parked), checks the service's counts, integrity and
dead letters against the oracles (untimed), and shuts the server down.
Every round sends exactly the same operations.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the
traced ones, with the tracing overhead measured against the untraced
ones.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

CHECKOUT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for server roots, corpora and traces; never committed.
WORK = os.path.join(CHECKOUT, ".provbench")


def _require_checkout() -> None:
    """Exit with code 2 unless run from the root of a checkout; then put
    the program and the benchmark's modules on the import path."""
    if not os.path.isfile(os.path.join(CHECKOUT, "src", "repro", "__init__.py")):
        sys.stderr.write(
            "provbench: run from the root of a checkout of the repository"
            " (no src/repro here)\n"
        )
        sys.exit(2)
    sys.path.insert(0, os.path.join(CHECKOUT, "src"))
    sys.path.insert(0, HERE)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
    return ordered[rank - 1]


def _is_journal(name: str) -> bool:
    return name.startswith("ingest.journal")


def _dir_bytes(root: str, keep=lambda name: True) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name))
        for path, _dirs, names in os.walk(root)
        for name in names
        if keep(name)
    )


@dataclass
class Round:
    """What one round measured."""

    #: The timed phase, as the client saw it.
    tally: Tally
    #: The untimed checks after it (their requests count as attempted).
    checks: Tally
    setup_s: float
    cpu_s: float
    hwm_kb: int
    events_stored: int
    bytes_stored: int
    db_bytes: int
    #: Journal bytes on disk at the end of the timed phase minus at its
    #: start; compaction's reclaimed bytes are added back per layer.
    journal_growth: int
    #: ``GET /v1/metrics`` before and after the timed phase.
    before: dict
    after: dict
    trace_summary: dict | None


def run_round(plan, corpus_path: str | None, *, traced: bool) -> Round:
    # Imported here: the program's path is set by _require_checkout().
    from client import Client
    from loadgen import LoadGenerator, ServerProcess, Tally

    root = tempfile.mkdtemp(prefix="root-", dir=WORK)
    trace_path = (
        os.path.join(WORK, f"trace-{plan.name}.jsonl") if traced else None
    )
    tally = Tally()
    checks = Tally()
    server = ServerProcess(root, corpus=corpus_path, trace=trace_path)
    try:
        with Client(server.port) as client:
            load = LoadGenerator(client, checks)
            before, _elapsed = load.read("/v1/metrics")
            load.tally = tally
            journal_start = _dir_bytes(root, _is_journal)
            gc.collect()
            gc.disable()
            try:
                cpu_start = server.cpu_start()
                started = time.perf_counter()
                plan.play(plan, load)
                timed_s = time.perf_counter() - started
                cpu_end, hwm_kb = server.cpu_stop()
            finally:
                gc.enable()
            journal_growth = _dir_bytes(root, _is_journal) - journal_start
            load.tally = checks
            after, _elapsed = load.read("/v1/metrics")
            load.flush()
            load.verify(plan.corpus, plan.tenants)
        server.shutdown()
    finally:
        server.kill()
    events_stored = len(plan.corpus) + tally.events
    result = Round(
        tally=tally,
        checks=checks,
        setup_s=server.setup_s,
        cpu_s=cpu_end - cpu_start,
        hwm_kb=hwm_kb,
        events_stored=events_stored,
        bytes_stored=_dir_bytes(root),
        db_bytes=_dir_bytes(root, lambda name: name.startswith("shard-")),
        journal_growth=journal_growth,
        before=before or {},
        after=after or {},
        trace_summary=_read_summary(trace_path) if traced else None,
    )
    shutil.rmtree(root, ignore_errors=True)
    sys.stderr.write(
        f"provbench: round set-up {server.setup_s:.2f}s timed {timed_s:.2f}s"
        f" server CPU {result.cpu_s:.2f}s{' traced' if traced else ''}\n"
    )
    return result


def _read_summary(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.readline())


# -- end-to-end metrics -----------------------------------------------------------


END_TO_END = (
    ("setup_s", "s"),
    ("events_per_s", "ev/s"),
    ("post_p50_ms", "ms"),
    ("visible_p50_ms", "ms"),
    ("page_first_p50_ms", "ms"),
    ("page_next_p50_ms", "ms"),
    ("lineage_p50_ms", "ms"),
    ("reads_per_s", "req/s"),
    ("server_cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("bytes_stored_per_event", "B/event"),
)


#: Consecutive calls per rate window: a rate is the median of its
#: windows' rates, so one stalled call moves one window, not the run.
WRITE_WINDOW = 16
READ_WINDOW = 32


def windowed_rate(calls: list[tuple[int, float]], window: int) -> float:
    """Median over windows of *window* consecutive ``(units, seconds)``
    calls of units per second spent in them."""
    rates = []
    for start in range(0, len(calls) - window + 1, window):
        part = calls[start:start + window]
        rates.append(sum(units for units, _s in part) / sum(s for _u, s in part))
    return statistics.median(rates)


def _ms(values: list[float], q: float) -> float:
    return percentile(values, q) * 1e3


def round_metrics(r: Round) -> dict[str, float]:
    """One round's end-to-end figures."""
    tally = r.tally
    ms = _ms
    return {
        "setup_s": r.setup_s,
        "events_per_s": windowed_rate(tally.writes, WRITE_WINDOW),
        "post_p50_ms": ms(tally.post, 0.50),
        "visible_p50_ms": ms(tally.visible, 0.50),
        "page_first_p50_ms": ms(tally.page_first, 0.50),
        "page_next_p50_ms": ms(tally.page_next, 0.50),
        "lineage_p50_ms": ms(tally.lineage, 0.50),
        "reads_per_s": windowed_rate(
            [(1, seconds) for seconds in tally.reads], READ_WINDOW
        ),
        "server_cpu_s": r.cpu_s,
        "peak_rss_mb": r.hwm_kb / 1024,
        "bytes_stored_per_event": r.bytes_stored / r.events_stored,
    }


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Medians over rounds, so a host stall that spoils one round does
    not move the run."""
    return _median_metrics([round_metrics(r) for r in rounds])


def tails(rounds: list[Round]) -> dict[str, float]:
    """p95 latencies over every round's samples pooled: printed for
    reading, not reported as metrics, because on a shared virtual host
    they swing two to three times as far as the medians with the host's
    load — too far for a bound a regression check could use."""
    return {
        f"{name}_p95_ms": _ms(
            [value for r in rounds for value in getattr(r.tally, name)], 0.95
        )
        for name in ("post", "page_first")
    }


# -- per-layer metrics ------------------------------------------------------------


PER_LAYER = (
    ("server.overhead_ms_per_request", "ms"),
    ("wire.parse_us_per_request", "us"),
    ("wire.encode_us_per_response", "us"),
    ("admission.us_per_request", "us"),
    ("events.decode_us_per_event", "us"),
    ("events.encode_us_per_event", "us"),
    ("service.record_us_per_event", "us"),
    ("service.ranked_ms_per_page", "ms"),
    ("service.lineage_ms_per_walk", "ms"),
    ("ingest.submit_us_per_event", "us"),
    ("ingest.flush_ms_per_call", "ms"),
    ("ingest.drain_ms_per_read", "ms"),
    ("journal.commits_per_event", "ratio"),
    ("journal.bytes_per_event", "B/event"),
    ("journal.compacted_bytes_per_event", "B/event"),
    ("integrity.chain_us_per_event", "us"),
    ("integrity.manifest_writes_per_1k_events", "count"),
    ("integrity.manifest_ms_per_write", "ms"),
    ("parallel.events_per_batch", "ratio"),
    ("pool.checkout_wait_ms_p50", "ms"),
    ("apply.us_per_event", "us"),
    ("index.us_per_node", "us"),
    ("store.write_us_per_event", "us"),
    ("store.scoring_reads_per_first_page", "ratio"),
    ("store.snippet_reads_per_page", "ratio"),
    ("store.walk_ms_per_call", "ms"),
    ("store.db_bytes_per_event", "B/event"),
    ("cache.hit_ratio", "ratio"),
    ("cache.epoch_rolls_per_1k_events", "count"),
    ("search.scan_ms_per_scan", "ms"),
    ("search.rows_per_scan", "ratio"),
    ("search.scans_per_page", "ratio"),
    ("search.snippet_us_per_hit", "us"),
    ("search.cursor_us_per_page", "us"),
    ("search.merge_us_per_page", "us"),
    ("server.gc_ms_total", "ms"),
    ("trace.overhead_cpu_pct", "%"),
    ("trace.overhead_wall_pct", "%"),
)

#: Store reads that score a first page, by ``store.read_ops`` label.
SCORING_READS = (
    "term_postings", "index_doc_lengths", "nodes_brief", "tenant_page_visits",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(traced: Round, plain: Round) -> dict[str, float]:
    spans = traced.trace_summary["spans"]
    tally = traced.tally

    def total(*names: str) -> float:
        return sum(spans.get(name, {}).get("total_s", 0.0) for name in names)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def sized(name: str) -> int:
        return spans.get(name, {}).get("n", 0)

    def per_call(name: str, scale: float) -> float:
        return _ratio(total(name), calls(name)) * scale

    def delta(name: str) -> float:
        return (
            traced.after.get("counters", {}).get(name, 0)
            - traced.before.get("counters", {}).get(name, 0)
        )

    events = tally.events
    pages = delta("search.pages")
    first_pages = len(tally.page_first)
    scoring = sum(delta(f"store.read_ops{{op={op}}}") for op in SCORING_READS)
    hits, misses = delta("cache.hits"), delta("cache.misses")
    return {
        "server.overhead_ms_per_request": _ratio(
            tally.request_s - total("facade.call"), tally.attempted
        ) * 1e3,
        "wire.parse_us_per_request": _ratio(
            total("wire.parse", "wire.parse_body"), tally.attempted
        ) * 1e6,
        "wire.encode_us_per_response": per_call("wire.encode", 1e6),
        "admission.us_per_request": per_call("admission", 1e6),
        "events.decode_us_per_event": per_call("events.decode", 1e6),
        "events.encode_us_per_event": per_call("events.encode", 1e6),
        "service.record_us_per_event": per_call("service.record", 1e6),
        "service.ranked_ms_per_page": per_call("service.ranked", 1e3),
        "service.lineage_ms_per_walk": per_call("service.lineage", 1e3),
        "ingest.submit_us_per_event": per_call("ingest.submit", 1e6),
        "ingest.flush_ms_per_call": per_call("ingest.flush", 1e3),
        "ingest.drain_ms_per_read": per_call("ingest.drain", 1e3),
        "journal.commits_per_event": _ratio(
            delta("journal.group_commits"), events
        ),
        "journal.bytes_per_event": _ratio(
            traced.journal_growth + delta("journal.compacted_bytes"), events
        ),
        "journal.compacted_bytes_per_event": _ratio(
            delta("journal.compacted_bytes"), events
        ),
        "integrity.chain_us_per_event": _ratio(
            total("integrity.chain"), events
        ) * 1e6,
        "integrity.manifest_writes_per_1k_events": _ratio(
            calls("integrity.manifest"), events
        ) * 1e3,
        "integrity.manifest_ms_per_write": per_call("integrity.manifest", 1e3),
        "parallel.events_per_batch": _ratio(
            delta("apply.events"), delta("apply.batches")
        ),
        "pool.checkout_wait_ms_p50": (
            traced.trace_summary["checkout_wait_p50_s"] * 1e3
        ),
        "apply.us_per_event": _ratio(total("apply"), sized("apply")) * 1e6,
        "index.us_per_node": _ratio(total("index"), sized("index")) * 1e6,
        "store.write_us_per_event": _ratio(
            total("store.write"), sized("store.write")
        ) * 1e6,
        "store.scoring_reads_per_first_page": _ratio(scoring, first_pages),
        "store.snippet_reads_per_page": _ratio(
            delta("store.read_ops{op=node_texts}"), pages
        ),
        "store.walk_ms_per_call": per_call("store.walk", 1e3),
        "store.db_bytes_per_event": _ratio(
            traced.db_bytes, traced.events_stored
        ),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.epoch_rolls_per_1k_events": _ratio(
            delta("cache.epoch_rolls"), events
        ) * 1e3,
        "search.scan_ms_per_scan": per_call("search.scan", 1e3),
        "search.rows_per_scan": _ratio(sized("search.scan"), calls("search.scan")),
        "search.scans_per_page": _ratio(delta("search.scans"), pages),
        "search.snippet_us_per_hit": _ratio(
            total("search.snippet"), sized("search.snippet")
        ) * 1e6,
        "search.cursor_us_per_page": _ratio(total("search.cursor"), pages) * 1e6,
        "search.merge_us_per_page": _ratio(total("search.merge"), pages) * 1e6,
        "server.gc_ms_total": traced.trace_summary["gc_s"] * 1e3,
        "trace.overhead_cpu_pct": _ratio(
            traced.cpu_s - plain.cpu_s, plain.cpu_s
        ) * 100,
        "trace.overhead_wall_pct": _ratio(
            traced.tally.request_s - plain.tally.request_s,
            plain.tally.request_s,
        ) * 100,
    }


def _median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {
        name: statistics.median(sample[name] for sample in samples)
        for name in samples[0]
    }


# -- the command ------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_checkout()

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
        )
    os.makedirs(WORK, exist_ok=True)
    started = time.perf_counter()
    plan = WORKLOADS[args.workload](args.seed)
    sys.stderr.write(
        f"provbench: {args.workload} inputs built in"
        f" {time.perf_counter() - started:.1f}s\n"
    )
    corpus_path = None
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if plan.corpus:
            from repro.service.events import encode_event

            corpus_path = os.path.join(workdir, "corpus.jsonl")
            with open(corpus_path, "w", encoding="utf-8") as handle:
                for event in plan.corpus:
                    handle.write(
                        json.dumps(encode_event(event), separators=(",", ":"))
                        + "\n"
                    )
        rounds: list[Round] = []
        layer_samples: list[dict[str, float]] = []
        measured = 0.0
        while not rounds or measured < args.seconds:
            started = time.perf_counter()
            if args.trace:
                plain = run_round(plan, corpus_path, traced=False)
                traced = run_round(plan, corpus_path, traced=True)
                rounds += [plain, traced]
                layer_samples.append(per_layer(traced, plain))
            else:
                rounds.append(run_round(plan, corpus_path, traced=False))
            measured += time.perf_counter() - started
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tallies = [t for r in rounds for t in (r.tally, r.checks)]
    errors = [error for t in tallies for error in t.errors]
    for message in [m for t in tallies for m in t.refusals] + errors:
        sys.stderr.write(f"provbench: {message}\n")
    if args.trace:
        metrics = _median_metrics(layer_samples)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(rounds)
        units = dict(END_TO_END)
    print(f"# {args.workload} seed={args.seed} rounds={len(rounds)}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.4f} {units[name]}")
    if not args.trace:
        for name, value in tails(rounds).items():
            print(f"# {name:40s} {value:14.4f} ms (not a metric)")
    result = {
        "correct": not errors,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
