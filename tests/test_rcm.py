"""Reverse Cuthill-McKee ordering tests."""

from bandopt.instance import GenParams, Instance, generate
from bandopt.metrics import Ordering, classic_bandwidth
from bandopt.rcm import rcm_on_instance

PATH = frozenset({(0, 1), (1, 2)})
STAR = frozenset({(0, 1), (0, 2), (0, 3), (0, 4)})


def _graph(n: int, bonds) -> Instance:
    """An instance with sites on a line and the given bonds."""
    sites = tuple((float(v), 0.0) for v in range(n))
    params = GenParams(L=float(n))
    return Instance(id="g", seed=0, params=params, sites=sites, bonds=frozenset(bonds))


def _visits(n: int, bonds) -> tuple[int, ...]:
    """The Cuthill-McKee visit order: RCM gives the k-th vertex visited position n+1-k."""
    return rcm_on_instance(_graph(n, bonds)).vertex_at()[::-1]


def _cm_by_sort(inst: Instance) -> tuple[int, ...]:
    """Cuthill-McKee stated as one sort: by component, ranked by its root, the
    component's vertex of least (degree, index); then by breadth-first distance
    from that root; then by (degree, index)."""
    adj = {v: set() for v in range(inst.n)}
    for i, j in inst.bonds:
        adj[i].add(j)
        adj[j].add(i)
    key = {v: (len(adj[v]), v) for v in adj}
    rank = {}
    for root in sorted(adj, key=key.get):
        if root in rank:
            continue
        dist, frontier, depth = {root: 0}, {root}, 0
        while frontier:
            depth += 1
            frontier = {w for v in frontier for w in adj[v] if w not in dist}
            dist.update((w, depth) for w in frontier)
        rank.update((v, (key[root], d, key[v])) for v, d in dist.items())
    return tuple(sorted(adj, key=rank.get))


class TestCuthillMckee:
    def test_path_default_root_is_min_degree(self):
        # endpoints have degree 1; vertex 0 wins the index tie
        assert _visits(3, PATH) == (0, 1, 2)

    def test_star_from_leaf(self):
        # the leaves have degree 1, so leaf 1 roots the traversal
        at = _visits(5, STAR)
        assert at[0] == 1
        assert at[1] == 0
        assert at[2:] == (2, 3, 4)  # remaining leaves by index

    def test_level_sort_by_degree_then_index(self):
        # 0-1, 1-2, 1-3, 2-4, 2-5: from leaf 0 via 1, the frontier {2, 3}
        # sorts degree-first, so 3 (degree 1) precedes 2 (degree 3)
        bonds = {(0, 1), (1, 2), (1, 3), (2, 4), (2, 5)}
        assert _visits(6, bonds) == (0, 1, 3, 2, 4, 5)

    def test_disconnected_components(self):
        assert _visits(5, {(0, 1), (2, 3), (3, 4)}) == (0, 1, 2, 3, 4)

    def test_no_bonds(self):
        assert _visits(3, ()) == (0, 1, 2)


class TestReverseCuthillMckee:
    def test_path_reversed(self):
        assert rcm_on_instance(_graph(3, PATH)).perm == (3, 2, 1)

    def test_is_reversal_of_cm(self):
        # three generated instances and one of three components, vertex 4 alone
        split = _graph(7, {(0, 3), (3, 5), (1, 2), (2, 6)})
        for inst in (generate(15, 8), generate(40, 3), generate(120, 5), split):
            assert rcm_on_instance(inst).vertex_at()[::-1] == _cm_by_sort(inst)

    def test_path_bandwidth_stays_one(self):
        inst = _graph(3, PATH)
        assert classic_bandwidth(inst, rcm_on_instance(inst)) == 1

    def test_reduces_bandwidth_on_structured_graph(self):
        # path with a scrambled labeling: RCM should beat the identity
        chain = {(0, 7), (7, 3), (3, 5), (5, 1), (1, 6), (6, 4), (4, 2)}
        inst = _graph(8, ((min(a, b), max(a, b)) for a, b in chain))
        assert classic_bandwidth(inst, rcm_on_instance(inst)) < classic_bandwidth(
            inst, Ordering.identity(8)
        )


class TestRcmOnInstance:
    def test_returns_valid_ordering(self):
        inst = generate(20, 2)
        ordering = rcm_on_instance(inst)
        assert ordering.n == 20
        assert sorted(ordering.perm) == list(range(1, 21))

    def test_deterministic(self):
        inst = generate(20, 2)
        assert rcm_on_instance(inst) == rcm_on_instance(inst)
