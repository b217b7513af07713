"""Cuthill-McKee and reverse Cuthill-McKee ordering tests."""

import pytest

from bandopt.instance import generate
from bandopt.metrics import Ordering, classic_bandwidth
from bandopt.rcm import cuthill_mckee, rcm_on_instance, reverse_cuthill_mckee

PATH = frozenset({(0, 1), (1, 2)})
STAR = frozenset({(0, 1), (0, 2), (0, 3), (0, 4)})


class TestCuthillMckee:
    def test_path_default_root_is_min_degree(self):
        # endpoints have degree 1; vertex 0 wins the index tie
        assert cuthill_mckee(PATH, 3).perm == (1, 2, 3)

    def test_star_from_leaf(self):
        # the leaves have degree 1, so leaf 1 roots the traversal
        at = cuthill_mckee(STAR, 5).vertex_at()
        assert at[0] == 1
        assert at[1] == 0
        assert at[2:] == (2, 3, 4)  # remaining leaves by index

    def test_level_sort_by_degree_then_index(self):
        # 0-1, 1-2, 1-3, 2-4, 2-5: from leaf 0 via 1, the frontier {2, 3}
        # sorts degree-first, so 3 (degree 1) precedes 2 (degree 3)
        bonds = frozenset({(0, 1), (1, 2), (1, 3), (2, 4), (2, 5)})
        at = cuthill_mckee(bonds, 6).vertex_at()
        assert at == (0, 1, 3, 2, 4, 5)

    def test_disconnected_components(self):
        bonds = frozenset({(0, 1), (2, 3), (3, 4)})
        assert cuthill_mckee(bonds, 5).perm == (1, 2, 3, 4, 5)

    def test_no_bonds(self):
        assert cuthill_mckee(frozenset(), 3).perm == (1, 2, 3)

    def test_invalid_bond_index(self):
        with pytest.raises(ValueError):
            cuthill_mckee(frozenset({(0, 7)}), 3)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            cuthill_mckee(frozenset({(1, 1)}), 3)


class TestReverseCuthillMckee:
    def test_path_reversed(self):
        assert reverse_cuthill_mckee(PATH, 3).perm == (3, 2, 1)

    def test_is_reversal_of_cm(self):
        bonds = generate(15, 8).bonds
        cm = cuthill_mckee(bonds, 15)
        assert reverse_cuthill_mckee(bonds, 15) == cm.reversed()

    def test_path_bandwidth_stays_one(self):
        assert classic_bandwidth(PATH, reverse_cuthill_mckee(PATH, 3)) == 1

    def test_reduces_bandwidth_on_structured_graph(self):
        # path with a scrambled labeling: RCM should beat the identity
        chain = {(0, 7), (7, 3), (3, 5), (5, 1), (1, 6), (6, 4), (4, 2)}
        bonds = frozenset((min(a, b), max(a, b)) for a, b in chain)
        rcm = reverse_cuthill_mckee(bonds, 8)
        assert classic_bandwidth(bonds, rcm) < classic_bandwidth(
            bonds, Ordering.identity(8)
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
