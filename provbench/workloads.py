"""The three workloads: their inputs and the operations of one round.

Sizes are fixed here, not by the command line; ``--seed`` only picks
which synthetic histories and queries fill them.  Each ``build_*`` runs
before any server starts (synthesis is never timed) and settles every
request of a round in advance, probes included; each ``play_*`` is one
round's timed phase against a fresh server.

* ``ingest`` — 48 tenants x 3 days, interleaved one event per tenant,
  in 544 POSTs of 64 events; a flush after every 16th POST keeps the
  backlog below the admission ceiling; a counts probe after every 4th;
  then a read tail of 400 ranked walks, each with a lineage walk.
* ``recall`` — set-up loads 6 tenants x 22 days (24,576 events); the
  timed phase runs 600 ranked walks over distinct (tenant, term) pairs,
  one lineage walk per ranked walk, one cross-tenant walk per 10, and
  one 16-event POST to a separate small tenant per 3 walks (200), each
  followed by a counts probe.
* ``live`` — 24 tenants x 4 days in 480 POSTs of 16 events of one
  tenant each; every POST is followed by a read of that tenant that
  must show the batch's newest event, and every 8th by a two-page
  cross-tenant walk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from loadgen import LoadGenerator, encode_batch
from inputs import (
    Lineage,
    Probe,
    Walk,
    chunk,
    interleave,
    sample_lineage,
    sample_walks,
    tenant_events,
)
from oracles import Model, document_terms
from repro.service.events import EdgeEvent, NodeEvent, ProvEvent

#: Pages a ranked walk may fetch before it stops (a "page cap").
WALK_PAGES = 5
#: Fixed work per round; every seed must synthesize at least this much.
INGEST_EVENTS = 544 * 64
INGEST_WALKS = 400
RECALL_CORPUS = 24 * 1024
RECALL_WALKS = 600
LIVE_POSTS = 480


@dataclass
class Plan:
    """One workload's inputs, identical in every round of a run."""

    name: str
    play: Callable[["Plan", LoadGenerator], None]
    #: Loaded in the server process before it reports ready.
    corpus: list[ProvEvent] = field(default_factory=list)
    #: ``(POST body, events, probe or None)`` in send order.
    batches: list[tuple[bytes, list[ProvEvent], Probe | None]] = field(
        default_factory=list
    )
    walks: list[Walk] = field(default_factory=list)
    lineage: list[Lineage] = field(default_factory=list)
    #: Cross-tenant walk terms, by position in the round.
    cross_terms: dict[int, str] = field(default_factory=dict)
    #: Every tenant whose counts the end-of-round check verifies.
    tenants: list[str] = field(default_factory=list)


def _vocabulary(events: list[ProvEvent]) -> dict[str, set[str]]:
    vocab: dict[str, set[str]] = {}
    for event in events:
        if isinstance(event, NodeEvent):
            vocab.setdefault(event.user_id, set()).update(
                document_terms(event.node.label, event.node.url)
            )
    return vocab


def _streams(
    prefix: str, count: int, seed: int, *, days: int,
    sessions_per_day: int, actions_per_session: int, first_index: int = 0,
) -> list[list[ProvEvent]]:
    return [
        tenant_events(
            f"{prefix}{index:03d}",
            first_index + index,
            seed=seed,
            days=days,
            sessions_per_day=sessions_per_day,
            actions_per_session=actions_per_session,
        )
        for index in range(count)
    ]


def _full_chunks(events: list[ProvEvent], size: int) -> list[list[ProvEvent]]:
    return [batch for batch in chunk(events, size) if len(batch) == size]


def _take(items: list, count: int, what: str) -> list:
    """Exactly *count* items, so every seed does the same amount of work."""
    if len(items) < count:
        raise ValueError(f"seed gave {len(items)} {what}, fewer than {count}")
    return items[:count]


def _counts_probe(batch: list[ProvEvent]) -> Probe:
    """Counts of the newest event's tenant, which must include the batch.

    ``ingest`` and ``recall`` probe with this one read kind, so their
    visibility figure is not a mix of read paths.
    """
    return Probe("stats", batch[-1].user_id)


def _newest_event_probe(model: Model, batch: list[ProvEvent]) -> Probe:
    """The kind-specific read that shows the batch's newest event, as the
    tenant stands once *model* holds the batch."""
    event = batch[-1]
    user = event.user_id
    if isinstance(event, NodeEvent) and model.terms[(user, event.node.id)]:
        rarest = min(
            model.terms[(user, event.node.id)],
            key=lambda term: (len(model.matches(term, user)), term),
        )
        return Probe("walk", user, term=rarest, node=event.node.id)
    if isinstance(event, EdgeEvent):
        return Probe(
            "ancestors", user, node=event.edge.dst, parent=event.edge.src
        )
    return Probe("stats", user)


# -- ingest ---------------------------------------------------------------------


def build_ingest(seed: int) -> Plan:
    streams = _streams(
        "in", 48, seed, days=3, sessions_per_day=4, actions_per_session=12
    )
    events = _take(interleave(streams), INGEST_EVENTS, "ingest events")
    rng = random.Random(seed)
    return Plan(
        name="ingest",
        play=play_ingest,
        batches=[
            (
                encode_batch(batch),
                batch,
                _counts_probe(batch) if index % 4 == 3 else None,
            )
            for index, batch in enumerate(chunk(events, 64))
        ],
        walks=sample_walks(rng, _vocabulary(events), INGEST_WALKS),
        lineage=sample_lineage(rng, events, INGEST_WALKS),
        tenants=[stream[0].user_id for stream in streams],
    )


def play_ingest(plan: Plan, load: LoadGenerator) -> None:
    for index, (body, events, probe) in enumerate(plan.batches):
        sent = load.post(body, events)
        if probe is not None:
            load.probe(probe, sent)
        if index % 16 == 15:
            load.flush()
    load.flush()
    for walk, lineage in zip(plan.walks, plan.lineage):
        load.ranked_walk(walk.term, walk.user_id, max_pages=WALK_PAGES)
        load.lineage(lineage.user_id, lineage.node, lineage.direction)


# -- recall ---------------------------------------------------------------------


def build_recall(seed: int) -> Plan:
    heavy = _streams(
        "re", 6, seed, days=22, sessions_per_day=4, actions_per_session=10
    )
    corpus = _take(interleave(heavy), RECALL_CORPUS, "corpus events")
    rng = random.Random(seed)
    vocab = _vocabulary(corpus)
    walks = _take(
        sample_walks(rng, vocab, RECALL_WALKS), RECALL_WALKS, "distinct walks"
    )
    everything = sorted(set().union(*vocab.values()))
    rng.shuffle(everything)
    # Small tenants take the write trickle, each tenant's events in its
    # own capture order.
    small = _streams(
        "tr", 16, seed, days=3, sessions_per_day=2, actions_per_session=10,
        first_index=100,
    )
    trickle = _take(
        interleave([_full_chunks(stream, 16) for stream in small]),
        RECALL_WALKS // 3,
        "trickle POSTs",
    )
    return Plan(
        name="recall",
        play=play_recall,
        corpus=corpus,
        batches=[
            (encode_batch(batch), batch, _counts_probe(batch))
            for batch in trickle
        ],
        walks=walks,
        lineage=sample_lineage(rng, corpus, RECALL_WALKS),
        cross_terms={
            index: everything[index // 10]
            for index in range(9, RECALL_WALKS, 10)
        },
        tenants=[stream[0].user_id for stream in heavy + small],
    )


def play_recall(plan: Plan, load: LoadGenerator) -> None:
    trickle = iter(plan.batches)
    for index, (walk, lineage) in enumerate(zip(plan.walks, plan.lineage)):
        load.ranked_walk(walk.term, walk.user_id, max_pages=WALK_PAGES)
        load.lineage(lineage.user_id, lineage.node, lineage.direction)
        if index in plan.cross_terms:
            load.ranked_walk(
                plan.cross_terms[index], None, max_pages=WALK_PAGES
            )
        if index % 3 == 2:
            body, events, probe = next(trickle)
            load.probe(probe, load.post(body, events))


# -- live -----------------------------------------------------------------------


def build_live(seed: int) -> Plan:
    streams = _streams(
        "lv", 24, seed, days=4, sessions_per_day=2, actions_per_session=10,
        first_index=200,
    )
    batches = _take(
        interleave([_full_chunks(stream, 16) for stream in streams]),
        LIVE_POSTS,
        "live POSTs",
    )
    terms = sorted(set().union(*_vocabulary(interleave(streams)).values()))
    random.Random(seed).shuffle(terms)
    # Replay the round on a model to settle each read in advance: the
    # probe for every batch, and every 8th batch's cross-tenant term —
    # the next term in the shuffled order that already matches more
    # than one page, so the walk always has a continuation.
    model = Model()
    plan = Plan(
        name="live",
        play=play_live,
        tenants=[stream[0].user_id for stream in streams],
    )
    next_term = 0
    for index, batch in enumerate(batches):
        for event in batch:
            model.add(event)
        plan.batches.append(
            (encode_batch(batch), batch, _newest_event_probe(model, batch))
        )
        if index % 8 == 7:
            for offset in range(len(terms)):
                term = terms[(next_term + offset) % len(terms)]
                if len(model.matches(term, None)) > 10:
                    next_term = (next_term + offset + 1) % len(terms)
                    plan.cross_terms[index] = term
                    break
    return plan


def play_live(plan: Plan, load: LoadGenerator) -> None:
    for index, (body, events, probe) in enumerate(plan.batches):
        load.probe(probe, load.post(body, events))
        if index in plan.cross_terms:
            load.ranked_walk(plan.cross_terms[index], None, max_pages=2)
    load.flush()


WORKLOADS: dict[str, Callable[[int], Plan]] = {
    "ingest": build_ingest,
    "recall": build_recall,
    "live": build_live,
}
