"""Cuthill-McKee and Reverse Cuthill-McKee orderings over sparse bond graphs.

The heuristic ignores interaction magnitudes entirely: it is a pure
breadth-first level ordering on the bond structure, with vertices sorted
by degree (ties by index) within each level.
"""

from __future__ import annotations

from typing import Iterable

from .instance import Instance
from .metrics import Ordering


def _adjacency(bonds: Iterable[tuple[int, int]], n: int) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in bonds:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bond ({i}, {j}) references a vertex outside 0..{n - 1}")
        if i == j:
            raise ValueError(f"self-loop on vertex {i}")
        adj[i].add(j)
        adj[j].add(i)
    return adj


def cuthill_mckee(bonds: Iterable[tuple[int, int]], n: int) -> Ordering:
    """Breadth-first level ordering; within each level by (degree, index).

    Each traversal, one per connected component, is rooted at the unvisited
    vertex of minimum (degree, index).
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    adj = _adjacency(bonds, n)
    degree = [len(a) for a in adj]

    visited = [False] * n
    order: list[int] = []
    for root in sorted(range(n), key=lambda v: (degree[v], v)):
        if visited[root]:
            continue
        visited[root] = True
        level = [root]
        while level:
            order.extend(level)
            frontier = {w for v in level for w in adj[v] if not visited[w]}
            for w in frontier:
                visited[w] = True
            level = sorted(frontier, key=lambda v: (degree[v], v))

    perm = [0] * n
    for position, v in enumerate(order, start=1):
        perm[v] = position
    return Ordering(tuple(perm))


def reverse_cuthill_mckee(bonds: Iterable[tuple[int, int]], n: int) -> Ordering:
    """Cuthill-McKee with final positions reversed: p(v) -> n+1-p(v)."""
    return cuthill_mckee(bonds, n).reversed()


def rcm_on_instance(inst: Instance) -> Ordering:
    """RCM over the instance's bond set."""
    return reverse_cuthill_mckee(inst.bonds, inst.n)
