"""The oracles accept what the service answers and reject corruptions.

Positive cases run a small in-process :class:`ProvenanceService` on
synthesized tenants and require every oracle to agree with it; the
negative cases corrupt one real answer in each of these ways — a
dropped hit, a repeated hit, a wrong depth, a miscount — and require
the matching check to object.
"""

from __future__ import annotations

import pytest

from inputs import capture_order, interleave, tenant_events
from oracles import (
    Model,
    check_acks,
    check_aggregate,
    check_lineage,
    check_stats,
    check_walk,
)
from repro.core.capture import NodeInterval
from repro.core.model import ProvEdge, ProvNode
from repro.core.taxonomy import EdgeKind, NodeKind
from repro.service import ProvenanceService
from repro.service.events import EdgeEvent, IntervalEvent, NodeEvent


def _node(user, nid, ts, label):
    return NodeEvent(
        user_id=user,
        node=ProvNode(id=nid, kind=NodeKind.PAGE_VISIT, timestamp_us=ts,
                      label=label, url=f"http://{nid}.example/wine"),
    )


def _edge(user, eid, src, dst, ts):
    return EdgeEvent(
        user_id=user,
        edge=ProvEdge(id=eid, kind=EdgeKind.LINK, src=src, dst=dst,
                      timestamp_us=ts),
    )


def test_capture_order_puts_edges_and_intervals_after_their_nodes():
    interval = IntervalEvent(
        user_id="u",
        interval=NodeInterval(node_id="b", tab_id=1, opened_us=1,
                              closed_us=9),
    )
    events = [
        _node("u", "a", 5, "first"),
        _node("u", "b", 7, "second"),
        _edge("u", 1, "a", "b", 2),  # stamped before its endpoints
        interval,
    ]
    ordered = capture_order(events)
    assert sorted(map(repr, ordered)) == sorted(map(repr, events))
    position = {
        event.node.id: index
        for index, event in enumerate(ordered)
        if isinstance(event, NodeEvent)
    }
    edge_at = ordered.index(events[2])
    assert edge_at > position["a"] and edge_at > position["b"]
    assert ordered.index(interval) > position["b"]


def test_lineage_is_min_depth_bfs_nearest_first():
    model = Model()
    for event in (
        _node("u", "a", 1, "a"), _node("u", "b", 2, "b"),
        _node("u", "c", 3, "c"), _edge("u", 1, "a", "b", 4),
        _edge("u", 2, "b", "c", 5), _edge("u", 3, "a", "c", 6),
    ):
        model.add(event)
    assert model.lineage("u", "c", "ancestors") == [("a", 1), ("b", 1)]
    assert model.lineage("u", "a", "descendants") == [("b", 1), ("c", 1)]
    assert model.lineage("u", "a", "ancestors") == []


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Three synthesized tenants in a live service, and their model."""
    streams = [
        tenant_events(f"t{index}", index, seed=5, days=2,
                      sessions_per_day=2, actions_per_session=8)
        for index in range(3)
    ]
    model = Model()
    root = tmp_path_factory.mktemp("oracle-service")
    service = ProvenanceService(str(root))
    seqs = []
    posted = 0
    for event in interleave(streams):
        seqs.append(service.record_event(event))
        posted += 1
        model.add(event)
    service.flush()
    yield service, model, [stream[0].user_id for stream in streams], seqs, posted
    service.close()


def _walk(service, term, user_id, max_pages=1000):
    hits, cursor = [], None
    for _page in range(max_pages):
        page = service.ranked_search(term, user_id=user_id, limit=10,
                                     cursor=cursor)
        hits.extend(((hit.user_id, hit.nid), hit.score) for hit in page.hits)
        cursor = page.cursor
        if cursor is None:
            break
    return hits, cursor is None


def _common_term(model, user_id):
    return max(
        (term for (user, term) in model.user_postings if user == user_id),
        key=lambda term: (len(model.matches(term, user_id)), term),
    )


def test_stats_and_aggregate_agree_with_the_service(served):
    service, model, users, _seqs, _posted = served
    for user_id in users:
        assert check_stats(model, user_id, service.stats(user_id).to_dict()) is None
    assert check_aggregate(model, service.aggregate_stats().to_dict()) is None


def test_miscount_is_rejected(served):
    service, model, users, _seqs, _posted = served
    stats = service.stats(users[0]).to_dict()
    stats["edges"] += 1
    assert check_stats(model, users[0], stats) is not None
    aggregate = service.aggregate_stats().to_dict()
    aggregate["nodes"] -= 1
    assert check_aggregate(model, aggregate) is not None


def test_complete_walks_agree_with_the_service(served):
    service, model, users, _seqs, _posted = served
    checked = 0
    for user_id in users:
        terms = sorted(term for (user, term) in model.user_postings if user == user_id)
        for term in terms[::5]:
            hits, complete = _walk(service, term, user_id)
            assert complete
            assert check_walk(model.matches(term, user_id), hits, True) is None
            checked += 1
    term = _common_term(model, users[0])
    hits, complete = _walk(service, term, None)
    assert check_walk(model.matches(term, None), hits, complete) is None
    assert checked > 20


def test_capped_walk_must_be_a_subset(served):
    service, model, users, _seqs, _posted = served
    term = _common_term(model, users[0])
    hits, complete = _walk(service, term, users[0], max_pages=1)
    assert not complete
    assert check_walk(model.matches(term, users[0]), hits, False) is None
    stranger = (users[1], "not-a-node")
    assert check_walk(
        model.matches(term, users[0]), hits + [(stranger, 0.0)], False
    ) is not None


def test_dropped_hit_is_rejected(served):
    service, model, users, _seqs, _posted = served
    term = _common_term(model, users[0])
    hits, complete = _walk(service, term, users[0])
    assert complete and len(hits) > 1
    assert check_walk(model.matches(term, users[0]), hits[:-1], True) is not None


def test_repeated_hit_is_rejected(served):
    service, model, users, _seqs, _posted = served
    term = _common_term(model, users[0])
    hits, complete = _walk(service, term, users[0])
    repeated = hits + [hits[-1]]
    assert check_walk(model.matches(term, users[0]), repeated, True) is not None


def test_rising_score_is_rejected(served):
    service, model, users, _seqs, _posted = served
    term = _common_term(model, users[0])
    hits, _complete = _walk(service, term, users[0])
    falling = [i for i in range(len(hits) - 1) if hits[i][1] > hits[i + 1][1]]
    assert falling, "no strictly falling pair of scores to swap"
    i = falling[0]
    swapped = hits[:i] + [hits[i + 1], hits[i]] + hits[i + 2:]
    assert check_walk(model.matches(term, users[0]), swapped, True) is not None


def test_lineage_agrees_with_the_service_and_rejects_a_wrong_depth(served):
    service, model, users, _seqs, _posted = served
    wrong = None
    checked = 0
    for user_id in users:
        for index, node_id in enumerate(sorted(model.nodes[user_id])):
            if index % 7:
                continue
            for direction in ("ancestors", "descendants"):
                rows = getattr(service, direction)(user_id, node_id)
                assert check_lineage(model, user_id, node_id, direction, rows) is None
                checked += 1
                if rows and wrong is None:
                    wrong = (user_id, node_id, direction, rows)
    assert checked > 10 and wrong is not None
    user_id, node_id, direction, rows = wrong
    deeper = [(rows[0][0], rows[0][1] + 1)] + list(rows[1:])
    assert check_lineage(model, user_id, node_id, direction, deeper) is not None


def test_acks_must_be_distinct_and_one_per_event(served):
    _service, _model, _users, seqs, posted = served
    assert check_acks(seqs, posted) is None
    assert check_acks(seqs[:-1], posted) is not None
    assert check_acks(seqs[:-1] + [seqs[0]], posted) is not None


def test_integrity_is_ok_and_nothing_is_dead_lettered(served):
    service, _model, _users, _seqs, _posted = served
    assert service.verify_integrity().ok
    assert service.deadlettered() == []
