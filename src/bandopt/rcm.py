"""Reverse Cuthill-McKee ordering of an instance's bond graph.

The heuristic ignores interaction magnitudes entirely: it is a pure
breadth-first level ordering on the bond structure, with vertices sorted
by degree (ties by index) within each level, and the visit order reversed.
"""

from __future__ import annotations

from .instance import Instance
from .metrics import Ordering


def rcm_on_instance(inst: Instance) -> Ordering:
    """Reverse Cuthill-McKee over the instance's bonds: the k-th vertex visited gets position n+1-k.

    The visit is breadth-first, level by level, each level sorted by
    (degree, index); one traversal per connected component, each rooted at
    the unvisited vertex of minimum (degree, index).  ``Instance`` checks
    the bonds, so every one joins two distinct vertices of 0..n-1.
    """
    n = inst.n
    adj: list[set[int]] = [set() for _ in range(n)]
    for i, j in inst.bonds:
        adj[i].add(j)
        adj[j].add(i)
    degree = [len(a) for a in adj]

    visited = [False] * n
    perm = [0] * n
    position = n
    for root in sorted(range(n), key=lambda v: (degree[v], v)):
        if visited[root]:
            continue
        visited[root] = True
        level = [root]
        while level:
            for v in level:
                perm[v] = position
                position -= 1
            frontier = {w for v in level for w in adj[v] if not visited[w]}
            for w in frontier:
                visited[w] = True
            level = sorted(frontier, key=lambda v: (degree[v], v))
    return Ordering(tuple(perm))
