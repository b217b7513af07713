"""Vertex orderings and the bandwidth objectives evaluated over them.

Positions are 1-based throughout the public surface: an ordering maps
vertex v (0-based index) to a position in {1..n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .instance import (
    InteractionMatrix, SchemaError, _check, _dump_doc, _is_int, _parse_doc, _read_doc, _require
)

SCHEMA_ORDERING = "bandopt-ordering/1"


@dataclass(frozen=True)
class Ordering:
    """A bijection from vertices onto positions 1..n; perm[v] = position of v.
    Construction checks a tuple of ints forming it, else SchemaError("perm")."""

    perm: tuple[int, ...]

    def __post_init__(self):
        perm = self.perm
        n = len(perm) if type(perm) is tuple else 0
        bijection = n > 0 and all(map(_is_int, perm)) and sorted(perm) == list(range(1, n + 1))
        _check(
            ("perm", n > 0, "a tuple of at least one position", perm),
            ("perm", bijection, f"a bijection onto 1..{n}", perm),
        )

    @property
    def n(self) -> int:
        return len(self.perm)

    @staticmethod
    def identity(n: int) -> "Ordering":
        return Ordering(tuple(range(1, n + 1)))

    def reversed(self) -> "Ordering":
        """Mirror ordering: position p becomes n+1-p."""
        n = self.n
        return Ordering(tuple(n + 1 - p for p in self.perm))

    def vertex_at(self) -> tuple[int, ...]:
        """Inverse map: entry p-1 is the vertex placed at position p."""
        at = [0] * self.n
        for v, p in enumerate(self.perm):
            at[p - 1] = v
        return tuple(at)


@dataclass(frozen=True)
class Bandwidth:
    """A weighted bandwidth value and one vertex pair attaining it."""

    value: float
    argpair: tuple[int, int]

    def __float__(self) -> float:
        return self.value


def weighted_bandwidth(U: InteractionMatrix, ordering: Ordering) -> Bandwidth:
    """max over all vertex pairs of u[i][j] * |position difference|.

    Ties in the attaining pair report the lexicographically smallest (i, j).
    The tie rule relies on the ``InteractionMatrix`` invariants that ``u``
    is symmetric and at least 2 x 2, which its constructor enforces.
    """
    n = U.n
    if ordering.n != n:
        raise ValueError(f"ordering covers {ordering.n} vertices, matrix has {n}")
    # one n x n array: the position differences as floats (exact, as n is far
    # below 2**53), made absolute and multiplied by the weights in place
    p = np.asarray(ordering.perm, dtype=float)
    cost = np.subtract.outer(p, p)
    np.abs(cost, out=cost)
    cost *= U.u
    # cost is symmetric with a zero diagonal, so the first row-major maximum
    # lies above the diagonal: it is the smallest attaining (i, j) with i < j
    k = int(cost.argmax())
    return Bandwidth(cost.item(k), divmod(k, n))


def classic_bandwidth(bonds: Iterable[tuple[int, int]], ordering: Ordering) -> int:
    """max over bonds of |position difference|; 0 for an empty bond set."""
    n = ordering.n
    perm = ordering.perm
    best = 0
    for i, j in bonds:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"bond ({i}, {j}) references a vertex outside 0..{n - 1}")
        best = max(best, abs(perm[i] - perm[j]))
    return best


def permute_matrix(U: InteractionMatrix, ordering: Ordering) -> InteractionMatrix:
    """Reorder rows/columns so entry [p(i)-1][p(j)-1] holds u[i][j]."""
    if ordering.n != U.n:
        raise ValueError(f"ordering covers {ordering.n} vertices, matrix has {U.n}")
    idx = np.asarray(ordering.perm) - 1
    out = np.empty_like(U.u)
    out[np.ix_(idx, idx)] = U.u
    return InteractionMatrix(out)


def rcm_gap(obj_rcm: float, opt: float) -> float:
    """Heuristic excess over the optimum, in percent: (obj_rcm - opt)/opt * 100."""
    if opt <= 0:
        raise ValueError(f"optimal objective must be positive, got {opt}")
    return (obj_rcm - opt) / opt * 100.0


def ordering_to_json(ordering: Ordering) -> str:
    return _dump_doc(SCHEMA_ORDERING, perm=list(ordering.perm))


def _ordering_field(doc: dict, key: str, where: str) -> Ordering:
    """``doc[key]``, an array read as a tuple, as an Ordering; SchemaError("perm") is renamed ``key``."""
    perm = _require(doc, key, where)
    try:
        return Ordering(tuple(perm) if isinstance(perm, list) else perm)
    except SchemaError as exc:  # Ordering's one check names the field "perm"
        exc.field_name = key
        raise


def ordering_from_json(text: str) -> Ordering:
    """Parse an ordering document; SchemaError names the violated field."""
    return _ordering_field(_parse_doc(text, SCHEMA_ORDERING), "perm", SCHEMA_ORDERING)


def save_ordering(ordering: Ordering, path: str | Path) -> None:
    Path(path).write_text(ordering_to_json(ordering), encoding="utf-8")


def load_ordering(path: str | Path) -> Ordering:
    return ordering_from_json(_read_doc(path))
