"""Exact weighted bandwidth minimization.

Three routes to the optimum live here: a native branch-and-bound over
position assignments (the production solver), an exhaustive brute-force
oracle for small instances, and an exporter of the equivalent mixed
integer linear program in LP text format for external solvers.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from pathlib import Path

import numpy as np

from .instance import InteractionMatrix
from .metrics import Ordering, weighted_bandwidth

SCHEMA_RESULT = "bandopt-result/1"

STATUS_OPTIMAL = "optimal"
STATUS_TIMEOUT = "feasible-timeout"

_BRUTE_FORCE_MAX_N = 10
_CHECK_MASK = 1023  # periodic deadline/stop checks every 1024 node evaluations


@dataclass(frozen=True)
class SolveConfig:
    """Solver switches.

    ``use_lower_bound`` enables seeding the bound and terminating as soon as
    the incumbent matches it; ``use_symmetry_breaking`` confines the anchor
    vertex to the first half of the positions.  ``anchor_vertex`` of None
    picks the vertex with the largest interaction row sum.  Node counts are
    reproducible for every configuration.
    """

    use_lower_bound: bool = True
    use_symmetry_breaking: bool = True
    time_limit: float = 3600.0
    node_limit: int | None = None
    anchor_vertex: int | None = None


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve (or of the oracle enumeration)."""

    ordering: Ordering
    objective: float
    lower_bound: float
    status: str
    nodes_explored: int
    wall_time: float


def _validate_config(n: int, cfg: SolveConfig) -> None:
    if not cfg.time_limit > 0:  # also rejects NaN, which no deadline would ever reach
        raise ValueError(f"time_limit must be positive, got {cfg.time_limit}")
    if cfg.node_limit is not None and cfg.node_limit < 1:
        raise ValueError(f"node_limit must be at least 1, got {cfg.node_limit}")
    if cfg.anchor_vertex is not None and not 0 <= cfg.anchor_vertex < n:
        raise ValueError(f"anchor_vertex {cfg.anchor_vertex} outside 0..{n - 1}")


def theoretical_lower_bound(U: InteractionMatrix) -> float:
    """Largest off-diagonal weight: some pair always sits at distance >= 1."""
    if U.n < 2:
        raise ValueError("lower bound needs at least one vertex pair")
    return float(U.u.max())


def default_anchor(U: InteractionMatrix) -> int:
    """Vertex with the largest interaction row sum, ties by lowest index."""
    return int(np.argmax(U.u.sum(axis=1)))


@lru_cache(maxsize=4)
def _positions_table(n: int) -> np.ndarray:
    """All permutations of positions 1..n in lexicographic order."""
    table = np.array(list(permutations(range(1, n + 1))), dtype=np.int8)
    table.setflags(write=False)
    return table


def brute_force(U: InteractionMatrix) -> SolveResult:
    """Enumerate every ordering; independent oracle for the exact solvers.

    Returns the lexicographically smallest optimal permutation.  Refuses
    n > 10 outright (factorial enumeration).
    """
    n = U.n
    if n < 1:
        raise ValueError("matrix must cover at least one vertex")
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute force enumerates n! orderings; refusing n={n} > {_BRUTE_FORCE_MAX_N}"
        )
    t0 = time.perf_counter()
    if n == 1:
        return SolveResult(
            ordering=Ordering.identity(1),
            objective=0.0,
            lower_bound=0.0,
            status=STATUS_OPTIMAL,
            nodes_explored=1,
            wall_time=time.perf_counter() - t0,
        )
    perms = _positions_table(n)
    u = U.u
    obj = np.zeros(len(perms))
    for i in range(n):
        for j in range(i + 1, n):
            np.maximum(obj, u[i, j] * np.abs(perms[:, i] - perms[:, j]), out=obj)
    best = int(np.argmin(obj))  # first minimum = lexicographically smallest
    return SolveResult(
        ordering=Ordering(tuple(int(p) for p in perms[best])),
        objective=float(obj[best]),
        lower_bound=theoretical_lower_bound(U),
        status=STATUS_OPTIMAL,
        nodes_explored=len(perms),
        wall_time=time.perf_counter() - t0,
    )


class _Stop(Exception):
    """Internal signal: abandon the search."""


def _branch_order(
    u: list[list[float]], pos: list[int], placed: list[int], p: int
) -> list[tuple[float, int, float]]:
    """The branching rule: unplaced vertices, strongest link to the placed set first.

    A vertex's link is its largest interaction with any placed vertex (0.0
    when nothing is placed yet); ties go to the lower index.  The same pass
    over the placed set yields the vertex's stretch at position ``p``,
    ``max_w u[v][w] * (p - pos[w])``.  Returns ``(-link, v, stretch)``
    entries in branching order.
    """
    scored = []
    for v, q in enumerate(pos):
        if q:
            continue
        row = u[v]
        link = stretch = 0.0
        for w in placed:
            x = row[w]
            if x > link:
                link = x
            s = x * (p - pos[w])
            if s > stretch:
                stretch = s
        scored.append((-link, v, stretch))
    scored.sort()
    return scored


def _greedy_probe(u: list[list[float]]) -> Ordering:
    """Construct one ordering by the search's own branching rule.

    Starts from vertex 0 and repeatedly appends the first vertex of
    ``_branch_order``.  Seeding the incumbent with this dive makes the
    first feasible solution independent of the pruning configuration.
    """
    pos = [0] * len(u)
    pos[0] = 1
    placed = [0]
    for p in range(2, len(u) + 1):
        v = _branch_order(u, pos, placed, p)[0][1]
        pos[v] = p
        placed.append(v)
    return Ordering(tuple(pos))


def branch_and_bound(
    U: InteractionMatrix,
    cfg: SolveConfig | None = None,
    warm_start: Ordering | None = None,
) -> SolveResult:
    """Depth-first exact solve with bound seeding and symmetry pruning.

    The incumbent starts from the better of ``warm_start`` (the identity
    ordering when absent) and a greedy construction dive, then is
    reversal-normalized so the anchor sits in the first half of the
    positions.  Positions are then filled left to right, candidates in
    ``_branch_order``; with symmetry breaking on, the anchor is forced into
    position ``ceil(n/2)`` if it is still unplaced there.  A node is one
    candidate (vertex, position) evaluation, counted before the prune test;
    a candidate is cut when its partial objective is ``>=`` the incumbent,
    which changes only on strict improvement.

    Stop rules: with the lower bound on, the search ends as soon as the
    incumbent equals it, before the first node if the seed already does.
    Otherwise a deadline already passed before the first node, the node
    limit, or the deadline checked every 1024 nodes stops the search with
    status "feasible-timeout"; natural termination is "optimal".
    """
    if cfg is None:
        cfg = SolveConfig()
    n = U.n
    if n < 1:
        raise ValueError("matrix must cover at least one vertex")
    _validate_config(n, cfg)
    t0 = time.perf_counter()
    if n == 1:
        return SolveResult(
            ordering=Ordering.identity(1),
            objective=0.0,
            lower_bound=0.0,
            status=STATUS_OPTIMAL,
            nodes_explored=0,
            wall_time=time.perf_counter() - t0,
        )

    lower_bound = theoretical_lower_bound(U)
    anchor = cfg.anchor_vertex if cfg.anchor_vertex is not None else default_anchor(U)
    seed = warm_start if warm_start is not None else Ordering.identity(n)
    if seed.n != n:
        raise ValueError(f"warm start covers {seed.n} vertices, matrix has {n}")
    u: list[list[float]] = U.u.tolist()
    seed_objective = weighted_bandwidth(U, seed).value
    probe = _greedy_probe(u)
    probe_objective = weighted_bandwidth(U, probe).value
    if probe_objective < seed_objective:
        seed = probe
        seed_objective = probe_objective
    if seed.perm[anchor] > (n + 1) // 2:
        seed = seed.reversed()

    use_lb = cfg.use_lower_bound
    forced = (n + 1) // 2 if cfg.use_symmetry_breaking else 0  # 0: no forced position
    node_limit = cfg.node_limit
    deadline = t0 + cfg.time_limit
    best_obj, best_perm = seed_objective, seed.perm
    nodes = 0
    timed_out = False
    pos = [0] * n
    placed: list[int] = []

    def extend(p: int, partial: float) -> None:
        nonlocal best_obj, best_perm, nodes, timed_out
        entries = _branch_order(u, pos, placed, p)
        if p == forced and not pos[anchor]:
            entries = [e for e in entries if e[1] == anchor]
        for _, v, stretch in entries:
            nodes += 1
            if (node_limit is not None and nodes >= node_limit) or (
                nodes & _CHECK_MASK == 0 and time.perf_counter() >= deadline
            ):
                timed_out = True
                raise _Stop
            new = stretch if stretch > partial else partial
            if new >= best_obj:
                continue
            pos[v] = p
            if p == n:
                best_obj, best_perm = new, tuple(pos)
                if use_lb and new == lower_bound:
                    raise _Stop
            else:
                placed.append(v)
                extend(p + 1, new)
                placed.pop()
            pos[v] = 0

    if not (use_lb and best_obj == lower_bound):
        timed_out = time.perf_counter() >= deadline
        if not timed_out:
            try:
                extend(1, 0.0)
            except _Stop:
                pass
    # extend reaches itself through its closure; break that cycle so the
    # search state is freed now rather than by the cyclic garbage collector
    del extend

    return SolveResult(
        ordering=Ordering(best_perm),
        objective=best_obj,
        lower_bound=lower_bound,
        status=STATUS_TIMEOUT if timed_out else STATUS_OPTIMAL,
        nodes_explored=nodes,
        wall_time=time.perf_counter() - t0,
    )


def _wrap_row(text: str, width: int = 240) -> list[str]:
    """Split one constraint row at the last space within ``width``.

    Continuation lines start with three spaces.  This equals greedy token
    packing because every token (a name or a float repr, under 30
    characters) is far shorter than ``width``, so each cut finds a space.
    """
    lines = []
    while len(text) > width:
        cut = text.rfind(" ", 0, width + 1)
        lines.append(text[:cut])
        text = "   " + text[cut + 1 :]
    lines.append(text)
    return lines


def export_lp(
    U: InteractionMatrix, cfg: SolveConfig | None, path: str | Path
) -> None:
    """Write the position-assignment MILP in LP text format.

    Variables: continuous ``b`` plus binaries ``x_v{v}_i{i}`` (n^2 + 1
    total).  Rows: ``pos{i}`` and ``vtx{v}`` assignment constraints, one
    ``bw_{v}_{w}`` row per ordered vertex pair (both orientations realize
    the absolute position difference), and, when enabled, the ``lb`` bound
    row and the ``sym`` anchor row.  Vertex v's position is written as
    ``x_v{v}_i1 + 2 x_v{v}_i2 + ... + n x_v{v}_in``.
    """
    if cfg is None:
        cfg = SolveConfig()
    n = U.n
    if n < 2:
        raise ValueError("LP export needs at least 2 vertices")
    _validate_config(n, cfg)
    anchor = cfg.anchor_vertex if cfg.anchor_vertex is not None else default_anchor(U)
    u = U.u.tolist()

    x = [[f"x_v{v}_i{i}" for i in range(1, n + 1)] for v in range(n)]
    position = [[f"{i} {name}" if i > 1 else name for i, name in enumerate(row, 1)] for row in x]
    plus = ["+ " + " + ".join(terms) for terms in position]
    minus = ["- " + " - ".join(terms) for terms in position]

    rows = [f"\\ weighted bandwidth minimization over {n} sites"]
    rows += ["Minimize", " obj: b", "Subject To"]
    for i, column in enumerate(zip(*x), 1):
        rows.extend(_wrap_row(f" pos{i}: {' + '.join(column)} = 1"))
    for v in range(n):
        rows.extend(_wrap_row(f" vtx{v}: {' + '.join(x[v])} = 1"))
    for v, w in permutations(range(n), 2):
        rows.extend(_wrap_row(f" bw_{v}_{w}: {plus[v]} {minus[w]} - {1.0 / u[v][w]!r} b <= 0"))
    if cfg.use_lower_bound:
        rows.append(f" lb: b >= {theoretical_lower_bound(U)!r}")
    if cfg.use_symmetry_breaking:
        rows.extend(_wrap_row(f" sym: {' + '.join(position[anchor])} <= {(n + 1) // 2}"))
    rows += ["Bounds", " b >= 0", "Binaries"]
    binaries = [name for row in x for name in row]
    rows.extend(" " + " ".join(binaries[k : k + 8]) for k in range(0, len(binaries), 8))
    rows.append("End")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def result_to_json(result: SolveResult) -> str:
    doc = {
        "schema": SCHEMA_RESULT,
        "objective": result.objective,
        "lower_bound": result.lower_bound,
        "status": result.status,
        "nodes": result.nodes_explored,
        "wall_time_s": result.wall_time,
        "ordering": list(result.ordering.perm),
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def result_from_json(text: str) -> SolveResult:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_RESULT:
        raise ValueError(f'expected an object with schema "{SCHEMA_RESULT}"')
    return SolveResult(
        ordering=Ordering(tuple(int(p) for p in doc["ordering"])),
        objective=float(doc["objective"]),
        lower_bound=float(doc["lower_bound"]),
        status=str(doc["status"]),
        nodes_explored=int(doc["nodes"]),
        wall_time=float(doc["wall_time_s"]),
    )


def save_result(result: SolveResult, path: str | Path) -> None:
    Path(path).write_text(result_to_json(result), encoding="utf-8")


def load_result(path: str | Path) -> SolveResult:
    return result_from_json(Path(path).read_text(encoding="utf-8"))
