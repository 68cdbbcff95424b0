"""Directed-graph utilities used by the topology engine and generators.

Implemented from scratch on plain adjacency dicts (the library's internal
graph representation) so the substrate has no runtime dependency on
networkx; the test suite cross-checks these routines against networkx.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Sequence, Set

from repro.types import NodeId

__all__ = [
    "Adjacency",
    "reachable_from",
    "reversed_adjacency",
    "is_strongly_connected",
    "strongly_connected_components",
    "bfs_hops",
    "edge_count",
]

#: Adjacency mapping: node id -> set/sequence of successor node ids.
Adjacency = Dict[NodeId, Set[NodeId]]


def edge_count(adjacency: Adjacency) -> int:
    """Total number of directed edges."""
    return sum(len(successors) for successors in adjacency.values())


def reachable_from(adjacency: Adjacency, start: NodeId) -> Set[NodeId]:
    """All nodes reachable from ``start`` along directed edges (incl. start)."""
    seen = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for successor in adjacency.get(node, ()):
            if successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return seen


def reversed_adjacency(adjacency: Adjacency) -> Adjacency:
    """Every edge turned around: node -> set of its in-neighbours."""
    reversed_adj: Adjacency = {node: set() for node in adjacency}
    for node, successors in adjacency.items():
        for successor in successors:
            reversed_adj.setdefault(successor, set()).add(node)
    return reversed_adj


def is_strongly_connected(adjacency: Adjacency) -> bool:
    """Whether every node can reach every other node (Kosaraju-style check)."""
    nodes = list(adjacency)
    if not nodes:
        return True
    start = nodes[0]
    if len(reachable_from(adjacency, start)) != len(nodes):
        return False
    return len(reachable_from(reversed_adjacency(adjacency), start)) == len(nodes)


def strongly_connected_components(adjacency: Adjacency) -> List[Set[NodeId]]:
    """Strongly connected components via Tarjan's algorithm (iterative).

    Returned in reverse topological order of the condensation, matching
    the classic formulation; callers that only need the largest component
    can take ``max(..., key=len)``.
    """
    index_of: Dict[NodeId, int] = {}
    lowlink: Dict[NodeId, int] = {}
    on_stack: Set[NodeId] = set()
    stack: List[NodeId] = []
    components: List[Set[NodeId]] = []
    counter = [0]

    for root in adjacency:
        if root in index_of:
            continue
        # Iterative Tarjan: worklist of (node, iterator over successors).
        work = [(root, iter(adjacency.get(root, ())))]
        index_of[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(adjacency.get(successor, ()))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: Set[NodeId] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def bfs_hops(adjacency: Adjacency, start: NodeId) -> Dict[NodeId, int]:
    """Hop count from ``start`` to every reachable node (start -> 0)."""
    hops = {start: 0}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for successor in adjacency.get(node, ()):
            if successor not in hops:
                hops[successor] = hops[node] + 1
                frontier.append(successor)
    return hops


def restrict(adjacency: Adjacency, keep: Iterable[NodeId]) -> Adjacency:
    """The sub-graph induced by the ``keep`` nodes."""
    keep_set = set(keep)
    return {
        node: {succ for succ in successors if succ in keep_set}
        for node, successors in adjacency.items()
        if node in keep_set
    }


def relabel_compact(adjacency: Adjacency, order: Sequence[NodeId]) -> Adjacency:
    """Relabel nodes to ``0..n-1`` following ``order``."""
    mapping = {old: new for new, old in enumerate(order)}
    return {
        mapping[node]: {mapping[succ] for succ in successors}
        for node, successors in adjacency.items()
    }
