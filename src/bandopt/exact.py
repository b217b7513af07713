"""Exact weighted bandwidth minimization.

Three routes to the optimum live here: a native branch-and-bound over
position assignments (the production solver), an exhaustive brute-force
oracle for small instances, and an exporter of the equivalent mixed
integer linear program in LP text format for external solvers.
"""

from __future__ import annotations

import math
import sys
import time
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np

from .instance import (
    InteractionMatrix,
    SchemaError,
    _dump_doc,
    _is_number,
    _parse_doc,
    _read_doc,
    _require,
)
from .metrics import Ordering, _ordering_field, weighted_bandwidth

SCHEMA_RESULT = "bandopt-result/1"

STATUS_OPTIMAL = "optimal"
STATUS_TIMEOUT = "feasible-timeout"

_BRUTE_FORCE_MAX_N = 10
_BRUTE_FORCE_TAIL = 7  # trailing positions the oracle enumerates per block (7! rows)
_CHECK_MASK = 1023  # the deadline is polled when the node count reaches a multiple of 1024
_ORDER_CACHE_MAX = 4096  # placed sets whose branching order a solve keeps at once


@dataclass(frozen=True)
class SolveConfig:
    """Solver switches.

    ``use_lower_bound`` stops the search once the incumbent equals ``max u``
    and adds ``export_lp``'s ``lb`` row; ``use_symmetry_breaking`` confines
    the anchor vertex, always ``default_anchor``, to the first half of the positions.
    Node counts are reproducible for every configuration.  Construction
    checks that ``time_limit`` is an int or float (not a bool) above 0 and
    that ``node_limit`` is an int (not a bool) of at least 1.
    """

    use_lower_bound: bool = True
    use_symmetry_breaking: bool = True
    time_limit: float = 3600.0
    node_limit: int | None = None

    def __post_init__(self):
        limit = self.time_limit
        if not (_is_number(limit) and limit > 0):  # also rejects NaN: no deadline would pass
            raise ValueError(f"time_limit must be a positive number, got {limit!r}")
        limit = self.node_limit
        if limit is not None and (not isinstance(limit, int) or isinstance(limit, bool) or limit < 1):
            raise ValueError(f"node_limit must be an int of at least 1, got {limit!r}")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve (or of the oracle enumeration).

    ``lower_bound`` is what the solve proved: the objective itself when the
    status is "optimal", ``theoretical_lower_bound`` after a timeout.
    Construction checks the certificate: ``0 <= lower_bound <= objective``
    with a finite objective, a known status, an int ``nodes_explored >= 0``
    and a finite ``wall_time >= 0``; the three numbers are ints or floats,
    never bools.  A violation raises SchemaError naming the field as the
    result document spells it.
    """

    ordering: Ordering
    objective: float
    lower_bound: float
    status: str
    nodes_explored: int
    wall_time: float

    def __post_init__(self):
        if not (_is_number(self.objective) and 0 <= self.objective < math.inf):
            raise SchemaError(
                "objective", f"objective must be a finite number >= 0, got {self.objective!r}"
            )
        if not (_is_number(self.lower_bound) and 0 <= self.lower_bound <= self.objective):
            raise SchemaError(
                "lower_bound",
                f"lower_bound must be a number in [0, objective], got {self.lower_bound!r}",
            )
        if self.status not in (STATUS_OPTIMAL, STATUS_TIMEOUT):
            raise SchemaError("status", f'unknown status "{self.status}"')
        nodes = self.nodes_explored
        if not isinstance(nodes, int) or isinstance(nodes, bool) or nodes < 0:
            raise SchemaError("nodes", f"nodes must be an int >= 0, got {nodes!r}")
        if not (_is_number(self.wall_time) and 0 <= self.wall_time < math.inf):
            raise SchemaError(
                "wall_time_s", f"wall_time_s must be a finite number >= 0, got {self.wall_time!r}"
            )


def theoretical_lower_bound(U: InteractionMatrix) -> float:
    """Largest off-diagonal weight: some pair always sits at distance >= 1."""
    return float(U.u.max())


def default_anchor(U: InteractionMatrix) -> int:
    """Vertex with the largest interaction row sum, ties by lowest index."""
    return int(np.argmax(U.u.sum(axis=1)))


def brute_force(U: InteractionMatrix) -> SolveResult:
    """Enumerate every ordering; independent oracle for the exact solvers.

    Returns the lexicographically smallest optimal permutation, with
    ``nodes_explored = n!`` and the objective as its lower bound.  Refuses
    n > 10 outright (factorial enumeration).  The permutations are scored
    in blocks of ``min(n, _BRUTE_FORCE_TAIL)!`` rows and nothing is kept
    between calls, so a call needs a few MB at any n.
    """
    n = U.n
    if n > _BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute force enumerates n! orderings; refusing n={n} > {_BRUTE_FORCE_MAX_N}"
        )
    t0 = time.perf_counter()
    i, j = np.triu_indices(n, 1)
    w = U.u[i, j]
    best_obj, best = math.inf, None
    for block in _position_blocks(n):
        obj = (np.abs(block[:, i] - block[:, j]) * w).max(axis=1)
        k = int(np.argmin(obj))  # first minimum of the block
        if obj[k] < best_obj:  # strictly: an earlier block keeps its tie
            best_obj, best = float(obj[k]), tuple(block[k].tolist())
    return SolveResult(
        ordering=Ordering(best),
        objective=best_obj,
        lower_bound=best_obj,
        status=STATUS_OPTIMAL,
        nodes_explored=math.factorial(n),
        wall_time=time.perf_counter() - t0,
    )


def _position_blocks(n: int) -> Iterator[np.ndarray]:
    """Every permutation of 1..n in lexicographic order, as int8 rows of
    positions.  A block is one head, the first n - m positions, m = min(n,
    ``_BRUTE_FORCE_TAIL``), and the rest's m! orderings via one index pattern."""
    m = min(n, _BRUTE_FORCE_TAIL)
    pattern = np.array([(*range(n - m), *t) for t in permutations(range(n - m, n))], np.intp)
    values = range(1, n + 1)
    for head in permutations(values, n - m):
        yield np.array(head + tuple(v for v in values if v not in head), np.int8)[pattern]


class _Stop(Exception):
    """Internal signal: abandon the search; ``args`` is (node count, status)."""


def _slack(w: float, bound: float, n: int) -> int:
    """Largest k <= n with ``w * k < bound``, tested with that float product.

    The product never falls as k rises, so the k that pass are a prefix of
    1..n and bisection counts them (0 when none does).
    """
    return bisect_left(range(1, n + 1), bound, key=w.__mul__)


def _by_link(link: dict[int, float]) -> list[int]:
    """The branching rule: strongest link to the placed set first.

    ``link`` maps each unplaced vertex, in ascending order, to its largest
    interaction with any placed vertex (0.0 when nothing is placed yet).
    The sort is stable, so ties go to the lower index.
    """
    return sorted(link, key=link.__getitem__, reverse=True)


def _raised(link: dict[int, float], row: list[float], v: int) -> dict[int, float]:
    """The links once v is placed: v's entry dropped, the rest raised by v's row."""
    return {x: (a if a > row[x] else row[x]) for x, a in link.items() if x != v}


def _greedy_probe(u: list[list[float]]) -> Ordering:
    """Construct one ordering by the search's own branching rule.

    From all-zero links, where ``_by_link`` picks vertex 0, it repeatedly
    places the first vertex of ``_by_link``, raising the links as the
    search does.  Seeding the incumbent with this dive makes the first
    feasible solution independent of the pruning configuration, so it
    ignores the forced anchor; the seed is reversed if the anchor lands
    in the second half.
    """
    pos = [0] * len(u)
    link = dict.fromkeys(range(len(u)), 0.0)
    for p in range(1, len(u) + 1):
        v = _by_link(link)[0]
        pos[v] = p
        link = _raised(link, u[v], v)
    return Ordering(tuple(pos))


def _tight_partners(u: list[list[float]], bound: float) -> list[list[tuple[int, int]]]:
    """``tight[w]``: the pairs ``(slack[w][x], x)`` with ``slack[w][x] < n``, in
    ascending slack order, where ``slack[w][x] = _slack(u[w][x], bound, n)``.

    ``u[w][x] * (p - q) >= bound`` exactly when ``p > q + slack[w][x]``.
    Deadlines never exceed n, so only these x can have their deadline
    lowered by w, and placing w at p lowers one only while
    ``slack[w][x] < n - p``.  The slack is below n exactly when
    ``u[w][x] * n >= bound``, so ``_slack``'s bisection runs on those
    entries only.  A vertex is never its own partner: its zero diagonal
    weight has slack n.
    """
    n = len(u)
    return [
        sorted((_slack(w, bound, n), x) for x, w in enumerate(row) if w * n >= bound)
        for row in u
    ]


def _deadlines(tight: list[list[tuple[int, int]]], at: tuple[int, ...], p: int) -> list[int]:
    """Depth p's deadline list for the path ``at`` (``at[q-1]`` sits at q).

    This replays the search's own recurrence over positions 1..p-1, except
    that the list is all zeros when a vertex on that prefix misses its own
    deadline: such a depth is closed, and every candidate at it is cut.
    """
    n = len(at)
    due = [n] * n
    for q in range(1, p):
        v = at[q - 1]
        if q > due[v]:
            return [0] * n
        for s, x in tight[v]:
            if s >= n - q:
                break
            if q + s < due[x]:
                due[x] = q + s
    return due


def branch_and_bound(
    U: InteractionMatrix,
    cfg: SolveConfig | None = None,
    warm_start: Ordering | None = None,
) -> SolveResult:
    """Depth-first exact solve with a lower-bound stop and symmetry pruning.

    The incumbent starts from the better of ``warm_start`` (the identity
    ordering when absent) and a greedy construction dive, then is
    reversal-normalized so the anchor sits in the first half of the
    positions.  Positions are then filled left to right, each depth trying
    the candidates of its placed set's branching order.  A node is one
    candidate (vertex, position) evaluation, counted before the prune test;
    a candidate is cut when its partial objective is ``>=`` the incumbent,
    which changes only on strict improvement.

    Two structures make a node cheap.  The branching order depends only on
    which vertices are placed, so each placed set's entry, its order and
    its links (``link[x]``, the largest ``u[w][x]`` over placed w), is
    computed once per solve, keyed by the set's bitmask; a new set's links
    are its parent's raised by the row of the vertex just placed.  The
    entry carries the symmetry rule: at the forced depth a set without the
    anchor has the order ``[anchor]``, every other set ``_by_link``'s.  The
    cache is emptied whenever it holds ``_ORDER_CACHE_MAX`` sets, which
    bounds its memory and, since an entry depends only on its set, changes
    no order.  Each depth also owns a deadline list, handed to it by its
    parent, ``due[x] = min(n, min over placed w of pos[w] + slack[w][x])``,
    where ``_slack`` makes ``u[w][x] * (p - pos[w]) >= incumbent`` exactly
    ``p > pos[w] + slack[w][x]``; so x is cut at p exactly when
    ``p > due[x]``, with no pass over the placed set.  Placing v at p
    lowers only v's tight partners, those x with ``slack[v][x] < n - p``,
    walked in ascending slack order up to the first that cannot bind.  The
    child shares its parent's list and copies it only when one of those
    partners' deadlines actually falls; sharing is safe because no depth
    writes to the list it was handed.  An improving leaf takes the
    objective from ``weighted_bandwidth`` and rebuilds the partner table,
    O(n^2).  No other depth's list is touched then: each depth, when a
    child returns under a new table, rebinds its own to a fresh list from
    ``_deadlines``, which replays the recurrence down the current path and
    closes the depth (all deadlines 0) when a vertex on that path misses
    its new deadline.

    Each depth takes the node count so far as an argument, counts its
    candidates one at a time in a local checked against one threshold, the
    node limit or the next multiple of 1024, whichever comes first, and
    returns the count after them.

    Stop rules: every stop raises ``_Stop`` with its node count and status
    from inside the one ``try`` around the root call; its ``except`` and
    the root call's normal return, "optimal", are the only places that set
    the result's count and status.  With the lower bound on, the search
    stops "optimal" as soon as the incumbent equals it: at count 0 if the
    seed already does, which comes before any deadline.  Otherwise
    ``tick``, the one place that reads the deadline, stops the search
    "feasible-timeout" at the node limit or once the deadline has passed;
    it runs once before the first node (``tick(0)``) and then at every
    multiple of 1024 nodes.
    """
    if cfg is None:
        cfg = SolveConfig()
    n = U.n
    t0 = time.perf_counter()
    anchor = default_anchor(U)
    lower_bound = theoretical_lower_bound(U)
    best = warm_start if warm_start is not None else Ordering.identity(n)
    u: list[list[float]] = U.u.tolist()
    best_obj = weighted_bandwidth(U, best).value
    probe = _greedy_probe(u)
    probe_objective = weighted_bandwidth(U, probe).value
    if probe_objective < best_obj:
        best, best_obj = probe, probe_objective
    if best.perm[anchor] > (n + 1) // 2:
        best = best.reversed()

    use_lb = cfg.use_lower_bound
    forced = (n + 1) // 2 if cfg.use_symmetry_breaking else 0  # 0: no forced position
    node_limit = cfg.node_limit or sys.maxsize  # an int either way: one comparison per node
    deadline = t0 + cfg.time_limit
    check_at = 0  # the node count at which tick next runs; tick(0) sets the first
    pos = [0] * n  # read only at a leaf, where every entry was written on the current path
    tight: list[list[tuple[int, int]]] = []
    # each placed set's (branching order, links), keyed by its bitmask
    by_set: dict[int, tuple[list[int], dict[int, float]]] = {}

    def tick(k: int) -> None:
        """Stop at the node limit or past the deadline, else set the next check."""
        nonlocal check_at
        if k < node_limit and time.perf_counter() < deadline:
            check_at = min(node_limit, (k | _CHECK_MASK) + 1)
            return
        raise _Stop(k, STATUS_TIMEOUT)

    def enter(placed: int, link: dict[int, float]) -> tuple[list[int], dict[int, float]]:
        """Cache and return the placed set's (branching order, links).

        A set at the forced depth, which leaves ``n + 1 - forced`` vertices
        unplaced, branches on the anchor alone while the anchor is unplaced.
        """
        if len(by_set) >= _ORDER_CACHE_MAX:
            by_set.clear()  # an entry depends only on its set: the tree is unchanged
        at_forced = len(link) == n + 1 - forced and anchor in link  # never when forced is 0
        by_set[placed] = entry = ([anchor] if at_forced else _by_link(link), link)
        return entry

    def extend(
        p: int, placed: int, entry: tuple[list[int], dict[int, float]], due_p: list[int], k: int
    ) -> int:
        """Try the placed set's candidates at p after k nodes; return the count after them.

        ``due_p[x]`` is the last position x may take under the incumbent,
        read only for the unplaced x.  The list may be its parent's: no
        frame writes to the list it was handed.
        """
        nonlocal best_obj, best, tight
        order, link = entry  # link's keys: the unplaced vertices
        binds = n - p  # a partner's deadline falls only when its slack is below this
        seen = tight  # the partner table due_p was built under
        for v in order:
            k += 1
            if k >= check_at:
                tick(k)
            if p > due_p[v]:
                continue
            pos[v] = p
            if p == n:  # the order holds v alone, so nothing is left to try here
                best = Ordering(tuple(pos))
                best_obj = weighted_bandwidth(U, best).value
                if use_lb and best_obj == lower_bound:
                    raise _Stop(k, STATUS_OPTIMAL)
                tight = _tight_partners(u, best_obj)
                return k
            child = placed | 1 << v
            child_entry = by_set.get(child) or enter(child, _raised(link, u[v], v))
            child_due = due_p
            for s, x in tight[v]:
                if s >= binds:
                    break
                s += p
                if s < child_due[x]:
                    if child_due is due_p:
                        child_due = due_p[:]
                    child_due[x] = s
            k = extend(p + 1, child, child_entry, child_due, k)
            if tight is not seen:  # the child improved the incumbent: tighten this depth
                seen = tight
                due_p = _deadlines(tight, best.vertex_at(), p)
        return k

    try:
        if use_lb and best_obj == lower_bound:
            raise _Stop(0, STATUS_OPTIMAL)
        tick(0)
        tight = _tight_partners(u, best_obj)
        nodes = extend(1, 0, enter(0, dict.fromkeys(range(n), 0.0)), [n] * n, 0)
        status = STATUS_OPTIMAL
    except _Stop as stop:
        nodes, status = stop.args
    # extend reaches itself through its closure; break that cycle so the
    # search state is freed now rather than by the cyclic garbage collector
    del extend

    return SolveResult(
        ordering=best,
        objective=best_obj,
        lower_bound=best_obj if status == STATUS_OPTIMAL else lower_bound,
        status=status,
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
    ``x_v{v}_i1 + 2 x_v{v}_i2 + ... + n x_v{v}_in``.  Rows are written as
    they are built, so no copy of the whole model (6.5 MB at n = 60) is held.
    Every weight's reciprocal, the coefficient of ``b``, is finite:
    ``InteractionMatrix`` checks it.
    """
    if cfg is None:
        cfg = SolveConfig()
    with Path(path).open("w", encoding="utf-8") as f:
        f.writelines(f"{row}\n" for row in _lp_rows(U, cfg))


def _lp_rows(U: InteractionMatrix, cfg: SolveConfig) -> Iterator[str]:
    """The lines of ``export_lp``'s model, in file order."""
    n = U.n
    u = U.u.tolist()

    x = [[f"x_v{v}_i{i}" for i in range(1, n + 1)] for v in range(n)]
    position = [[f"{i} {name}" if i > 1 else name for i, name in enumerate(row, 1)] for row in x]
    plus = ["+ " + " + ".join(terms) for terms in position]
    minus = ["- " + " - ".join(terms) for terms in position]

    yield f"\\ weighted bandwidth minimization over {n} sites"
    yield from ("Minimize", " obj: b", "Subject To")
    for i, column in enumerate(zip(*x), 1):
        yield from _wrap_row(f" pos{i}: {' + '.join(column)} = 1")
    for v in range(n):
        yield from _wrap_row(f" vtx{v}: {' + '.join(x[v])} = 1")
    for v, w in permutations(range(n), 2):
        yield from _wrap_row(f" bw_{v}_{w}: {plus[v]} {minus[w]} - {1.0 / u[v][w]!r} b <= 0")
    if cfg.use_lower_bound:
        yield f" lb: b >= {theoretical_lower_bound(U)!r}"
    if cfg.use_symmetry_breaking:
        yield from _wrap_row(f" sym: {' + '.join(position[default_anchor(U)])} <= {(n + 1) // 2}")
    yield from ("Bounds", " b >= 0", "Binaries")
    binaries = [name for row in x for name in row]
    yield from (" " + " ".join(binaries[k : k + 8]) for k in range(0, len(binaries), 8))
    yield "End"


def result_to_json(result: SolveResult) -> str:
    return _dump_doc(
        SCHEMA_RESULT,
        objective=result.objective,
        lower_bound=result.lower_bound,
        status=result.status,
        nodes=result.nodes_explored,
        wall_time_s=result.wall_time,
        ordering=list(result.ordering.perm),
    )


def result_from_json(text: str) -> SolveResult:
    """Parse a result document; SchemaError names the violated field.

    Each field is read for its JSON type here; ``SolveResult`` checks the
    values, so only what a solve can return is accepted.
    """
    doc = _parse_doc(text, SCHEMA_RESULT)
    return SolveResult(
        objective=_require(doc, "objective", float, SCHEMA_RESULT),
        lower_bound=_require(doc, "lower_bound", float, SCHEMA_RESULT),
        status=_require(doc, "status", str, SCHEMA_RESULT),
        nodes_explored=_require(doc, "nodes", int, SCHEMA_RESULT),
        wall_time=_require(doc, "wall_time_s", float, SCHEMA_RESULT),
        ordering=_ordering_field(doc, "ordering", SCHEMA_RESULT),
    )


def save_result(result: SolveResult, path: str | Path) -> None:
    Path(path).write_text(result_to_json(result), encoding="utf-8")


def load_result(path: str | Path) -> SolveResult:
    return result_from_json(_read_doc(path))
