"""Geometric problem instances and their 1/d^6 interaction matrices.

An instance is a set of 2-D sites with a short-range bond structure whose
mean vertex degree targets a coordination number of 4.  The interaction
matrix is always dense: every pair of sites interacts with weight 1/d^6.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SCHEMA_INSTANCE = "bandopt-instance/1"

DEFAULT_R_MIN = 0.7

# Mean-degree window asserted for generated instances.  The coordination
# target of 4 is only attainable once there are enough sites, so the check
# applies from this size upward; smaller instances are simply complete or
# near-complete graphs.
DEGREE_WINDOW = (3.5, 4.5)
DEGREE_CHECK_MIN_N = 10

_KNN = 4
_REPAIR_MIN_DEGREE = 3
_ATTEMPTS_PER_SITE = 1000
_DISTANCE_ROWS = 128
_PREFIX_MIN_N = 50  # below this many sites a full row sort beats partitioning
_FLOAT_MAX = sys.float_info.max
_INT_BOUND = 10**4300  # str(), so JSON, writes no int of more digits: Python's default limit


class GenerationError(RuntimeError):
    """A valid instance could not be produced for the given parameters."""


class SchemaError(ValueError):
    """A document, or a value built in code, violates its type's invariants.

    Raised by the document readers and, through ``_check``, by the
    constructors of ``GenParams``, ``Instance``, ``Ordering``, ``SolveConfig``,
    ``SolveResult`` and ``GapRow``.  The offending field is available as
    ``field_name``, spelled as the document spells it.
    """

    def __init__(self, field_name: str, message: str):
        super().__init__(message)
        self.field_name = field_name


def _check(*rules: tuple[str, bool, str, object]) -> None:
    """The one constructor check: the first rule ``(field, holds, requirement, value)``
    that does not hold raises SchemaError(field, "<field> <value!r> is not
    <requirement>").  Every ``holds`` is computed before any rule raises, so
    each tests the types it compares itself, never relying on an earlier rule."""
    for field, holds, requirement, value in rules:
        if not holds:
            try:
                shown = repr(value)
            except ValueError:  # an int past str()'s digit limit, alone or in a tuple
                shown = f"<{type(value).__name__} too long to print>"
            raise SchemaError(field, f"{field} {shown} is not {requirement}")


def _is_int(value: object) -> bool:
    """An int that str() can write, never a bool or a numpy integer, which JSON cannot write."""
    return type(value) is int and -_INT_BOUND < value < _INT_BOUND


def _is_number(value: object) -> bool:
    """A float or an int, never a bool: what a numeric field accepts."""
    return isinstance(value, float) or _is_int(value)


def _is_finite(value: object) -> bool:
    """A number within the float range, so also an int that float() can hold."""
    return _is_number(value) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _is_pair(value: object, ok) -> bool:
    """A 2-tuple whose items pass ``ok``: a site or a bond."""
    return isinstance(value, tuple) and len(value) == 2 and ok(value[0]) and ok(value[1])


def _seed_rule(seed: object) -> tuple[str, bool, str, object]:
    """The seed rule for ``_check``: what numpy's ``default_rng`` is seeded with."""
    return ("seed", _is_int(seed) and 0 <= seed < 2**64, "a 64-bit unsigned integer", seed)


class CoincidentSitesError(ValueError):
    """Two sites coincide, so a pairwise distance is zero."""

    def __init__(self, i: int, j: int):
        super().__init__(f"sites {i} and {j} coincide; pairwise distances must be > 0")
        self.pair = (i, j)


@dataclass(frozen=True)
class GenParams:
    """Generation parameters: square box side and minimum site separation."""

    L: float
    r_min: float = DEFAULT_R_MIN

    def __post_init__(self):
        pair = (self.L, self.r_min)
        _check(("params", all(_is_finite(x) and x > 0 for x in pair), "a pair of finite numbers > 0", pair))

    @staticmethod
    def defaults(n: int) -> "GenParams":
        # unit density keeps nearest-neighbour distances O(1)
        return GenParams(L=math.sqrt(n), r_min=DEFAULT_R_MIN)


@dataclass(frozen=True)
class Instance:
    """An immutable 2-D point set with its bonded-neighbor structure.

    ``sites`` are dimensionless coordinates, ``bonds`` are unordered vertex
    pairs stored as (i, j) with i < j.  Construction checks a str id, an int
    seed in [0, 2**64), a tuple of two or more distinct sites (else
    CoincidentSitesError with the lexicographically first pair), each a pair
    of finite ints or floats, and a frozenset of int pairs ``0 <= i < j < n``.
    So every instance that constructs round-trips through its JSON document.
    """

    id: str
    seed: int
    params: GenParams
    sites: tuple[tuple[float, float], ...]
    bonds: frozenset[tuple[int, int]]

    def __post_init__(self):
        # a container of another type reads as empty, which its own rule refuses
        sites = self.sites if type(self.sites) is tuple else ()
        bonds = self.bonds if isinstance(self.bonds, frozenset) else frozenset()
        n = len(sites)
        bad_sites = [s for s in sites if not _is_pair(s, _is_finite)]
        bad_bonds = [b for b in bonds if not (_is_pair(b, _is_int) and 0 <= b[0] < b[1] < n)]
        _check(
            ("id", isinstance(self.id, str), "a str", self.id),
            _seed_rule(self.seed),
            ("sites", n >= 2, "a tuple of at least two sites", self.sites),
            ("sites", not bad_sites, "a pair of finite numbers", bad_sites and bad_sites[0]),
            ("bonds", isinstance(self.bonds, frozenset), "a frozenset", type(self.bonds)),
            ("bonds", not bad_bonds, f"a pair of ints 0 <= i < j < {n}", bad_bonds and bad_bonds[0]),
        )
        if len(set(sites)) < n:
            first: dict[tuple[float, float], int] = {}
            repeats = [(first[s], j) for j, s in enumerate(sites) if first.setdefault(s, j) < j]
            raise CoincidentSitesError(*min(repeats))  # lexicographically first (i, j)

    @property
    def n(self) -> int:
        return len(self.sites)

    def mean_degree(self) -> float:
        return 2.0 * len(self.bonds) / self.n

    def min_pairwise_distance(self) -> float:
        pts = np.asarray(self.sites, dtype=float)
        d2 = _pairwise_squared_distances(pts)
        return float(np.sqrt(d2[np.triu_indices(len(pts), k=1)].min()))


@dataclass(frozen=True, eq=False)
class InteractionMatrix:
    """Symmetric matrix of pairwise interaction weights u[i][j] = 1/d_ij^6.

    Construction checks that ``u`` is square with n >= 2, finite and
    symmetric, with a zero diagonal and positive off-diagonal entries whose
    reciprocal ``1.0 / w``, the LP's coefficient, is finite (else the error
    names the first such pair in row-major order), then marks it read-only
    in place: the caller hands ``u`` over and must keep no writable
    reference.  Share it freely afterwards.  Equality and hashing are by
    identity, since numpy arrays have neither.
    """

    u: np.ndarray

    def __post_init__(self):
        u = self.u
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 2:
            raise ValueError(f"weight matrix must be square with n >= 2, got shape {u.shape}")
        n = u.shape[0]
        if not np.all(np.isfinite(u)):
            raise ValueError("weight matrix entries must be finite")
        if not np.array_equal(u, u.T):
            raise ValueError("weight matrix must be symmetric")
        if np.any(np.diag(u) != 0.0):
            raise ValueError("weight matrix diagonal must be zero")
        positive = u > 0  # the diagonal is zero here
        # reciprocals fall as weights rise, so the smallest weight decides
        least = float(u.min(where=positive, initial=math.inf))
        if np.count_nonzero(positive) != n * (n - 1) or math.isinf(1.0 / least):
            with np.errstate(divide="ignore", over="ignore"):
                bad = ~(positive & np.isfinite(1.0 / u))
            np.fill_diagonal(bad, False)
            v, w = np.argwhere(bad)[0]  # the first offending pair in row-major order
            raise ValueError(
                f"off-diagonal weight u[{v}][{w}] = {float(u[v, w])!r} must be positive "
                f"with a finite reciprocal"
            )
        u.setflags(write=False)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    @staticmethod
    def from_array(u: np.ndarray) -> "InteractionMatrix":
        """Copy and validate a raw weight matrix not derived from geometry."""
        return InteractionMatrix(np.array(u, dtype=float))


def _pairwise_squared_distances(pts: np.ndarray) -> np.ndarray:
    # dx*dx + dy*dy, one block of rows at a time: dx is squared in the output
    # rows and dy in one block-sized scratch array (1 MB at n = 1000), so the
    # n x n result is the only large array.  A square past the float range is
    # inf, as the caller expects, so its overflow is not reported.
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    d2 = np.empty((n, n))
    dy = np.empty((min(n, _DISTANCE_ROWS), n))
    with np.errstate(over="ignore"):
        for i in range(0, n, _DISTANCE_ROWS):
            rows = d2[i : i + _DISTANCE_ROWS]
            scratch = dy[: len(rows)]
            np.subtract.outer(x[i : i + _DISTANCE_ROWS], x, out=rows)
            np.subtract.outer(y[i : i + _DISTANCE_ROWS], y, out=scratch)
            rows *= rows
            scratch *= scratch
            rows += scratch
    return d2


def _sample_separated_points(
    n: int, params: GenParams, rng: np.random.Generator
) -> list[tuple[float, float]]:
    """Rejection-sample n points in the box with pairwise separation >= r_min.

    Attempt k takes uniforms 2k and 2k+1 of ``rng`` as (x, y), scaled by L,
    and keeps the candidate when ``(x-px)**2 + (y-py)**2 >= r_min**2`` for
    every kept point.  Uniforms are drawn in blocks, never past the budget.
    A grid of square cells wider than r_min files each kept point under the
    3 x 3 cells around its own, so a candidate is tested only against its
    cell's list, which holds every kept point that could be too close.
    """
    L, r_min = params.L, params.r_min
    r2 = r_min * r_min
    # the margin keeps a too-close pair in adjacent cells despite rounding;
    # at least L / ceil(sqrt(n)) keeps the grid at O(n) cells for any r_min
    side = max(r_min * (1 + 1e-9), L / math.ceil(math.sqrt(n)))
    stride = int(L / side) + 3  # one border cell each side, so no index wraps
    near: list[list[tuple[float, float]]] = [[] for _ in range(stride * stride)]
    block = [di * stride + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    pts: list[tuple[float, float]] = []
    budget = _ATTEMPTS_PER_SITE * n
    attempts = 0
    while len(pts) < n:
        if attempts >= budget:
            raise GenerationError(
                f"could not place {n} sites at separation {params.r_min} in a "
                f"{params.L:.4g} x {params.L:.4g} box after {budget} attempts "
                f"({len(pts)} placed)"
            )
        m = min(2 * (n - len(pts)), budget - attempts)
        attempts += m
        for x, y in (L * rng.random((m, 2))).tolist():
            cell = (int(x / side) + 1) * stride + int(y / side) + 1
            for px, py in near[cell]:
                if (x - px) ** 2 + (y - py) ** 2 < r2:
                    break
            else:
                pts.append((x, y))
                if len(pts) == n:
                    break
                for d in block:
                    near[cell + d].append((x, y))
    return pts


def _nearest_prefix(d2: np.ndarray, m: int) -> np.ndarray:
    """The first m columns of each row's stable argsort: by value, ties by index.

    Below ``_PREFIX_MIN_N`` sites the full sort is cheaper.  From there, each
    block of rows sorts only its m smallest entries by (value, index); a row
    whose m-th value recurs outside them falls back to the full sort, since
    the tie then decides which of them belong.
    """
    n = d2.shape[1]
    if n < _PREFIX_MIN_N:
        return np.argsort(d2, axis=1, kind="stable")[:, :m]
    rank = np.empty((len(d2), m), np.intp)
    for i in range(0, len(d2), _DISTANCE_ROWS):
        rows = d2[i : i + _DISTANCE_ROWS]
        cand = np.argpartition(rows, m - 1, axis=1)[:, :m]
        vals = np.take_along_axis(rows, cand, axis=1)
        best = np.take_along_axis(cand, np.lexsort((cand, vals)), axis=1)
        tied = np.count_nonzero(rows <= vals.max(axis=1, keepdims=True), axis=1) > m
        best[tied] = np.argsort(rows[tied], axis=1, kind="stable")[:, :m]
        rank[i : i + _DISTANCE_ROWS] = best
    return rank


def _mutual_knn_bonds(sites: list[tuple[float, float]]) -> set[tuple[int, int]]:
    """The bond rule; nearest means by distance, ties by index.

    Bond mutual 4-nearest neighbours; repair each vertex under degree 3 with
    its nearest non-neighbours until it has degree 3; then add the shortest
    missing pairs, ties by (i, j), until the mean degree is at least 3.5.
    Both degrees are capped at n - 1.
    """
    n = len(sites)
    d2 = _pairwise_squared_distances(np.asarray(sites))
    k = min(_KNN, n - 1)

    # each row by distance, ties by index; a vertex is its own column 0 since
    # d2[v, v] = 0 and generated sites are at least r_min > 0 apart.  The
    # first k + 1 columns suffice: a vertex of degree d < 3 is bonded to at
    # most d of its next 3, so its repair walk ends within them
    rank = _nearest_prefix(d2, k + 1).tolist()
    nearest = [set(row[1:]) for row in rank]
    bonds = {(i, j) for i in range(n) for j in nearest[i] if i < j and i in nearest[j]}

    deg = [0] * n
    for i, j in bonds:
        deg[i] += 1
        deg[j] += 1
    target = min(_REPAIR_MIN_DEGREE, n - 1)
    for v in range(n):
        for w in rank[v][1:]:
            if deg[v] >= target:
                break
            bond = (min(v, w), max(v, w))
            if bond not in bonds:
                bonds.add(bond)
                deg[v] += 1
                deg[w] += 1

    # re-adding a present pair leaves len(bonds) unchanged, so no filter
    if 2 * len(bonds) < DEGREE_WINDOW[0] * n:
        iu, ju = np.triu_indices(n, 1)
        for p in np.argsort(d2[iu, ju], kind="stable"):
            if 2 * len(bonds) >= DEGREE_WINDOW[0] * n:
                break
            bonds.add((int(iu[p]), int(ju[p])))
    return bonds


def generate(n: int, seed: int, params: GenParams | None = None) -> Instance:
    """Generate a deterministic amorphous point set with ~4-coordinated bonds.

    The same (n, seed, params) always reproduces the identical instance,
    byte-for-byte under ``save``.  Raises GenerationError when the square of
    the box side or of the separation overflows, when the separation's
    underflows to 0, when the points cannot be packed or when the bond
    structure misses the coordination target.
    """
    if n < 2:
        raise ValueError(f"need at least 2 sites, got n={n}")
    _check(_seed_rule(seed))  # before default_rng, which has its own message for a negative seed
    if params is None:
        params = GenParams.defaults(n)
    try:
        packed, area = n * params.r_min**2, params.L**2
    except OverflowError:  # float ** raises where * would give inf
        raise GenerationError(
            f"box side {params.L:.4g} or separation {params.r_min:.4g} is too large: "
            f"its square overflows a float"
        ) from None
    if packed == 0:  # the sampler would compare every squared distance with 0
        raise GenerationError(
            f"separation {params.r_min:.4g} is too small: its square underflows to 0"
        )
    if packed > 0.6 * area:
        raise GenerationError(
            f"packing infeasible: n*r_min^2 = {packed:.4g} is not "
            f"comfortably below L^2 = {area:.4g}"
        )

    rng = np.random.default_rng(seed)
    sites = _sample_separated_points(n, params, rng)
    bonds = _mutual_knn_bonds(sites)

    inst = Instance(
        id=f"inst-n{n}-s{seed}",
        seed=seed,
        params=params,
        sites=tuple(sites),
        bonds=frozenset(bonds),
    )
    lo, hi = DEGREE_WINDOW
    if n >= DEGREE_CHECK_MIN_N and not lo <= inst.mean_degree() <= hi:
        raise GenerationError(
            f"bond structure off target: mean degree {inst.mean_degree():.3f} "
            f"outside [{lo}, {hi}] for n={n}, seed={seed}"
        )
    return inst


def interaction_matrix(inst: Instance) -> InteractionMatrix:
    """Dense interaction matrix over all site pairs: u[i][j] = 1/d_ij^6."""
    d2 = _pairwise_squared_distances(np.asarray(inst.sites, dtype=float))
    np.fill_diagonal(d2, np.inf)  # so the diagonal weight is 1/inf = 0
    with np.errstate(divide="ignore", over="ignore"):
        # in place, so the one n x n array becomes u; a d2 that under- or
        # overflows gives inf or 0, which InteractionMatrix rejects
        d2 **= 3
        np.divide(1.0, d2, out=d2)
    return InteractionMatrix(d2)


def to_json(inst: Instance) -> str:
    """Serialize with stable key order; identical instances give identical bytes."""
    return _dump_doc(
        SCHEMA_INSTANCE,
        id=inst.id,
        seed=inst.seed,
        params={"L": inst.params.L, "r_min": inst.params.r_min},
        sites=[[x, y] for x, y in inst.sites],
        bonds=[[i, j] for i, j in sorted(inst.bonds)],
    )


def save(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(to_json(inst), encoding="utf-8")


def _dump_doc(schema: str, **fields: object) -> str:
    """The one document writer: compact JSON, the ``schema`` tag first, a newline."""
    return json.dumps({"schema": schema, **fields}, separators=(",", ":")) + "\n"


def _read_doc(path: str | Path) -> str:
    """A document's or report's text; bytes that are not UTF-8 raise SchemaError("document")."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError("document", f"not UTF-8 text: {exc}") from exc


def _parse_doc(text: str, schema: str) -> dict:
    """The one document reader: a JSON object tagged ``schema``, else SchemaError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise SchemaError("document", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("document", "top-level value must be an object")
    tag = _require(doc, "schema", schema)
    if tag != schema:
        raise SchemaError("schema", f'unsupported schema "{tag}", expected "{schema}"')
    return doc


def _require(doc: dict, key: str, where: str, kind: type = object) -> object:
    """``doc[key]``, present and a ``kind``; ``where`` names the enclosing document."""
    if key not in doc:
        raise SchemaError(key, f'missing required field "{key}" in {where}')
    if not isinstance(doc[key], kind):
        raise SchemaError(key, f'field "{key}" must be of type {kind.__name__}')
    return doc[key]


def _tuples(value: object) -> object:
    """A JSON array of arrays as tuples; any other value as itself, for the constructor to refuse."""
    if not isinstance(value, list):
        return value
    return tuple(tuple(v) if isinstance(v, list) else v for v in value)


def from_json(text: str) -> Instance:
    """Parse an instance document.

    Raises SchemaError naming the violated field, or CoincidentSitesError
    when two parsed coordinates coincide.  Here only presence is checked, and
    that ``params`` is an object and ``bonds`` an array of distinct entries;
    arrays become tuples, and ``GenParams`` and ``Instance`` check the values.
    """
    doc = _parse_doc(text, SCHEMA_INSTANCE)
    inst_id, seed = _require(doc, "id", SCHEMA_INSTANCE), _require(doc, "seed", SCHEMA_INSTANCE)
    raw_params = _require(doc, "params", SCHEMA_INSTANCE, dict)
    params = GenParams(*(_require(raw_params, key, "params") for key in ("L", "r_min")))
    sites = _tuples(_require(doc, "sites", SCHEMA_INSTANCE))
    bonds = _tuples(_require(doc, "bonds", SCHEMA_INSTANCE, list))
    try:
        unique = frozenset(bonds)
    except TypeError:  # an entry is, or holds, an array or an object
        raise SchemaError("bonds", "a bond is, or holds, an object or a nested array") from None
    if len(unique) < len(bonds):  # a frozenset would drop the repeat silently
        seen: set[tuple] = set()
        repeat = next(b for b in bonds if b in seen or seen.add(b))
        raise SchemaError("bonds", f"bonds repeat the pair {repeat}")
    return Instance(id=inst_id, seed=seed, params=params, sites=sites, bonds=unique)


def load(path: str | Path) -> Instance:
    return from_json(_read_doc(path))
