"""Seeded inputs for the service benchmark.

Every input comes from :func:`repro.service.workload.synthesize_user_events`
personas; the benchmark seed picks the simulation seeds, so the same
``--seed`` always yields the same events, batches and query plan.  The
service only ever sees the generated events, never the seed.

Within a tenant, events are sent in capture-time order, and an edge or
interval is held back until every node it names has been sent: the
order a live browser would report them in.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass
from itertools import zip_longest

from repro.service.events import EdgeEvent, IntervalEvent, NodeEvent, ProvEvent
from repro.service.workload import MultiUserParams, synthesize_user_events


def _event_time(event: ProvEvent) -> int:
    if isinstance(event, NodeEvent):
        return event.node.timestamp_us
    if isinstance(event, EdgeEvent):
        return event.edge.timestamp_us
    return event.interval.opened_us


def _needs(event: ProvEvent) -> tuple[str, ...]:
    if isinstance(event, EdgeEvent):
        return (event.edge.src, event.edge.dst)
    if isinstance(event, IntervalEvent):
        return (event.interval.node_id,)
    return ()


def capture_order(events: list[ProvEvent]) -> list[ProvEvent]:
    """*events* by capture time, each edge/interval after its nodes."""
    ordered: list[ProvEvent] = []
    seen: set[str] = set()
    waiting: dict[str, list[ProvEvent]] = defaultdict(list)
    for event in sorted(events, key=_event_time):
        missing = [nid for nid in _needs(event) if nid not in seen]
        if missing:
            waiting[missing[0]].append(event)
            continue
        ready = [event]
        while ready:
            current = ready.pop()
            missing = [nid for nid in _needs(current) if nid not in seen]
            if missing:
                waiting[missing[0]].append(current)
                continue
            ordered.append(current)
            if isinstance(current, NodeEvent) and current.node.id not in seen:
                seen.add(current.node.id)
                ready.extend(reversed(waiting.pop(current.node.id, [])))
    if len(ordered) != len(events):
        raise ValueError("an edge or interval names a node never captured")
    return ordered


def tenant_events(
    user_id: str, index: int, *, seed: int, days: int,
    sessions_per_day: int, actions_per_session: int,
) -> list[ProvEvent]:
    """One tenant's capture-ordered stream; *index* picks its persona."""
    params = MultiUserParams(
        users=1,
        days=days,
        sessions_per_day=sessions_per_day,
        actions_per_session=actions_per_session,
        seed=seed,
    )
    return capture_order(
        synthesize_user_events(user_id, index=index, params=params)
    )


def interleave(lists: list[list]) -> list:
    """Round-robin merge: one item from each list in turn, over lists of
    unequal length."""
    return [
        item
        for wave in zip_longest(*lists)
        for item in wave
        if item is not None
    ]


def chunk(events: list[ProvEvent], size: int) -> list[list[ProvEvent]]:
    return [events[start:start + size] for start in range(0, len(events), size)]


@dataclass(frozen=True)
class Walk:
    """One ranked walk: a term, optionally scoped to a tenant."""

    term: str
    user_id: str | None


@dataclass(frozen=True)
class Lineage:
    """One lineage walk from *node* of *user_id*."""

    user_id: str
    node: str
    direction: str  # "ancestors" | "descendants"


@dataclass(frozen=True)
class Probe:
    """The read that must show a batch's newest event.

    ``walk``: a tenant-scoped ranked walk for *term* until *node* shows;
    ``ancestors``: *node*'s ancestors must hold *parent* at depth 1;
    ``stats``: the tenant's counts must include the batch.
    """

    kind: str
    user_id: str
    term: str = ""
    node: str = ""
    parent: str = ""


def node_ids_with_edges(events: list[ProvEvent]) -> list[tuple[str, str]]:
    """``(user_id, node_id)`` of nodes touching at least one edge."""
    touched: dict[tuple[str, str], None] = {}
    for event in events:
        if isinstance(event, EdgeEvent):
            touched[(event.user_id, event.edge.src)] = None
            touched[(event.user_id, event.edge.dst)] = None
    return list(touched)


def sample_walks(
    rng: random.Random,
    vocab: dict[str, set[str]],
    count: int,
) -> list[Walk]:
    """*count* distinct (tenant, term) walks in a fixed shuffled order."""
    pairs = sorted(
        (user_id, term) for user_id, terms in vocab.items() for term in terms
    )
    rng.shuffle(pairs)
    return [Walk(term=term, user_id=user_id) for user_id, term in pairs[:count]]


def sample_lineage(
    rng: random.Random, events: list[ProvEvent], count: int
) -> list[Lineage]:
    nodes = sorted(node_ids_with_edges(events))
    picks = [nodes[rng.randrange(len(nodes))] for _ in range(count)]
    return [
        Lineage(
            user_id=user_id,
            node=node,
            direction="ancestors" if index % 2 == 0 else "descendants",
        )
        for index, (user_id, node) in enumerate(picks)
    ]
