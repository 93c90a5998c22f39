"""Expected answers, computed from the generated events alone.

:class:`Model` is fed every event the benchmark has had acknowledged
and answers what the service should: per-tenant counts, the nodes a
term must match, and min-depth lineage by breadth-first search.  The
``check_*`` functions compare one service answer with the model and
return a description of the first disagreement, or ``None``.

Term matching uses the corpus analyzer's definition of a document —
``tokenize_filtered(label) + url_tokens(url)`` from :mod:`repro.ir` —
and nothing from the service's index, search or SQL.
"""

from __future__ import annotations

from collections import defaultdict, deque

from repro.ir.tokenize import tokenize_filtered, url_tokens
from repro.service.events import EdgeEvent, IntervalEvent, NodeEvent, ProvEvent


def document_terms(label: str | None, url: str | None) -> set[str]:
    """The terms a ranked search for one node may match on."""
    terms = set(tokenize_filtered(label or ""))
    if url:
        terms.update(url_tokens(url))
    return terms


class Model:
    """What the service must hold after the events fed to :meth:`add`."""

    def __init__(self) -> None:
        self.nodes: dict[str, set[str]] = defaultdict(set)
        self.edges: dict[str, int] = defaultdict(int)
        self.intervals: dict[str, set[tuple[str, int]]] = defaultdict(set)
        self.parents: dict[tuple[str, str], set[str]] = defaultdict(set)
        self.children: dict[tuple[str, str], set[str]] = defaultdict(set)
        #: term -> {(user_id, node_id)}
        self.postings: dict[str, set[tuple[str, str]]] = defaultdict(set)
        #: (user_id, term) -> {(user_id, node_id)}
        self.user_postings: dict[
            tuple[str, str], set[tuple[str, str]]
        ] = defaultdict(set)
        #: (user_id, node_id) -> its terms
        self.terms: dict[tuple[str, str], set[str]] = {}

    def add(self, event: ProvEvent) -> None:
        user = event.user_id
        if isinstance(event, NodeEvent):
            node = event.node
            self.nodes[user].add(node.id)
            key = (user, node.id)
            if key not in self.terms:
                terms = document_terms(node.label, node.url)
                self.terms[key] = terms
                for term in terms:
                    self.postings[term].add(key)
                    self.user_postings[(user, term)].add(key)
        elif isinstance(event, EdgeEvent):
            edge = event.edge
            self.edges[user] += 1
            self.parents[(user, edge.dst)].add(edge.src)
            self.children[(user, edge.src)].add(edge.dst)
        elif isinstance(event, IntervalEvent):
            interval = event.interval
            self.intervals[user].add((interval.node_id, interval.opened_us))

    def stats(self, user_id: str) -> tuple[int, int, int]:
        return (
            len(self.nodes.get(user_id, ())),
            self.edges.get(user_id, 0),
            len(self.intervals.get(user_id, ())),
        )

    def aggregate(self) -> tuple[int, int, int]:
        return (
            sum(len(ids) for ids in self.nodes.values()),
            sum(self.edges.values()),
            sum(len(keys) for keys in self.intervals.values()),
        )

    def matches(self, term: str, user_id: str | None) -> set[tuple[str, str]]:
        """``{(user_id, node_id)}`` a walk for *term* must return."""
        if user_id is None:
            return self.postings.get(term, set())
        return self.user_postings.get((user_id, term), set())

    def lineage(
        self, user_id: str, node_id: str, direction: str, max_depth: int = 100
    ) -> list[tuple[str, int]]:
        """``[(node_id, depth)]`` by min-depth BFS, nearest first."""
        links = self.parents if direction == "ancestors" else self.children
        depth = {node_id: 0}
        frontier = deque([node_id])
        while frontier:
            current = frontier.popleft()
            if depth[current] >= max_depth:
                continue
            for neighbour in links.get((user_id, current), ()):
                if neighbour not in depth:
                    depth[neighbour] = depth[current] + 1
                    frontier.append(neighbour)
        del depth[node_id]
        return sorted(depth.items(), key=lambda item: (item[1], item[0]))


def check_stats(
    model: Model, user_id: str, payload: dict
) -> str | None:
    got = (payload["nodes"], payload["edges"], payload["intervals"])
    want = model.stats(user_id)
    if got != want:
        return f"stats({user_id}) = {got}, expected {want}"
    return None


def check_aggregate(model: Model, payload: dict) -> str | None:
    got = (payload["nodes"], payload["edges"], payload["intervals"])
    want = model.aggregate()
    if got != want:
        return f"stats/aggregate = {got}, expected {want}"
    return None


def check_walk(
    expected: set[tuple[str, str]],
    hits: list[tuple[tuple[str, str], float]],
    complete: bool,
) -> str | None:
    """A ranked walk's hits, concatenated over its pages, in order.

    *complete* is true when the last page carried no cursor; a walk
    stopped at its page cap need only return a subset.
    """
    seen: set[tuple[str, str]] = set()
    previous = float("inf")
    for key, score in hits:
        if key in seen:
            return f"hit {key} repeated"
        seen.add(key)
        if score > previous:
            return f"score rose to {score} after {previous} at {key}"
        previous = score
    if complete and seen != expected:
        missing = sorted(expected - seen)[:3]
        extra = sorted(seen - expected)[:3]
        return f"walk missed {missing} / returned extra {extra}"
    if not complete and not seen <= expected:
        return f"walk returned non-matching {sorted(seen - expected)[:3]}"
    return None


def check_lineage(
    model: Model,
    user_id: str,
    node_id: str,
    direction: str,
    rows: list[list],
) -> str | None:
    got = [(nid, depth) for nid, depth in rows]
    want = model.lineage(user_id, node_id, direction)
    if got != want:
        return (
            f"{direction}({user_id}, {node_id}) gave {len(got)} rows,"
            f" expected {len(want)}; first difference"
            f" {next((pair for pair in zip(got, want) if pair[0] != pair[1]), None)}"
        )
    return None


def check_acks(seqs: list[int], posted: int) -> str | None:
    """One distinct acknowledged sequence per event posted."""
    if len(seqs) != posted:
        return f"{len(seqs)} sequences acknowledged for {posted} events"
    if len(set(seqs)) != len(seqs):
        return "an acknowledged sequence was repeated"
    return None
