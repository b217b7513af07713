"""Ordering and objective metric tests, including invariance properties."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandopt.instance import (
    GenParams,
    Instance,
    InteractionMatrix,
    SchemaError,
    generate,
    interaction_matrix,
)
from bandopt.metrics import (
    Ordering,
    classic_bandwidth,
    load_ordering,
    ordering_from_json,
    ordering_to_json,
    permute_matrix,
    rcm_gap,
    save_ordering,
    weighted_bandwidth,
)


def _matrix_from_points(pts):
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    u = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    u[off] = 1.0 / d2[off] ** 3
    return InteractionMatrix.from_array(u)


COLLINEAR = _matrix_from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])


@st.composite
def _points(draw, min_n=2, max_n=9):
    n = draw(st.integers(min_n, max_n))
    coords = draw(
        st.lists(
            st.tuples(
                st.integers(0, 400).map(lambda v: v / 16.0),
                st.integers(0, 400).map(lambda v: v / 16.0),
            ),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return coords


@st.composite
def _matrix_and_ordering(draw):
    pts = draw(_points())
    n = len(pts)
    perm = draw(st.permutations(range(1, n + 1)))
    return _matrix_from_points(pts), Ordering(tuple(perm))


@st.composite
def _integer_matrix_and_ordering(draw):
    """Weights 1..3, so many pairs tie for the maximum."""
    n = draw(st.integers(2, 12))
    u = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    u[iu] = draw(st.lists(st.integers(1, 3), min_size=len(iu[0]), max_size=len(iu[0])))
    u += u.T
    perm = draw(st.permutations(range(1, n + 1)))
    return InteractionMatrix.from_array(u), Ordering(tuple(perm))


def _reference_bandwidth(U, ordering):
    """The objective as a double loop over pairs i < j, keeping the first maximum."""
    n = U.n
    perm = ordering.perm
    best, best_pair = -1.0, None
    for i in range(n):
        for j in range(i + 1, n):
            val = U.u[i][j] * abs(perm[i] - perm[j])
            if val > best:
                best, best_pair = val, (i, j)
    return float(best), best_pair


class TestOrdering:
    def test_identity(self):
        assert Ordering.identity(4).perm == (1, 2, 3, 4)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Ordering((1, 1, 3))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Ordering((0, 1, 2))

    def test_rejects_bool_positions(self):
        # True == 1, so only a type check tells (True, 2) from (1, 2)
        with pytest.raises(ValueError):
            Ordering((True, 2))

    @pytest.mark.parametrize(
        "perm", [[2, 1], None, "12", (), (1, "2"), (2, 10**5000)],
        ids=["list", "none", "str", "empty", "str-position", "position-past-digit-limit"],
    )
    def test_rejects_through_check(self, perm):
        # a list would neither hash nor equal the tuple its document reads back as
        with pytest.raises(SchemaError) as err:
            Ordering(perm)
        assert err.value.field_name == "perm"

    def test_reversed(self):
        assert Ordering((1, 3, 2)).reversed().perm == (3, 1, 2)

    def test_reversed_is_involution(self):
        o = Ordering((2, 4, 1, 3))
        assert o.reversed().reversed() == o

    def test_vertex_at_inverse(self):
        o = Ordering((2, 3, 1))
        assert o.vertex_at() == (2, 0, 1)


class TestWeightedBandwidth:
    def test_two_sites(self):
        U = _matrix_from_points([(0.0, 0.0), (2.0, 0.0)])
        bw = weighted_bandwidth(U, Ordering.identity(2))
        assert bw.value == 1.0 / 64.0
        assert bw.argpair == (0, 1)

    def test_collinear_identity(self):
        bw = weighted_bandwidth(COLLINEAR, Ordering.identity(3))
        # pairs: (0,1) weight 1 at distance 1; (0,2) 1/729 at 2; (1,2) 1/64 at 1
        assert bw.value == 1.0
        assert bw.argpair == (0, 1)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            weighted_bandwidth(COLLINEAR, Ordering.identity(4))

    def test_tie_across_rows_reports_smallest_pair(self):
        # (1,3) costs 1*2 and (2,3) costs 2*1; every other pair costs less
        u = np.full((4, 4), 0.1)
        np.fill_diagonal(u, 0.0)
        u[1, 3] = u[3, 1] = 1.0
        u[2, 3] = u[3, 2] = 2.0
        bw = weighted_bandwidth(InteractionMatrix.from_array(u), Ordering.identity(4))
        assert bw.value == 2.0
        assert bw.argpair == (1, 3)

    @settings(max_examples=300, deadline=None)
    @given(_integer_matrix_and_ordering())
    def test_matches_reference_loop(self, pair):
        U, ordering = pair
        bw = weighted_bandwidth(U, ordering)
        assert (bw.value, bw.argpair) == _reference_bandwidth(U, ordering)
        assert type(bw.value) is float
        assert all(type(x) is int for x in bw.argpair)

    @pytest.mark.parametrize("n", [2, 8, 1000])
    def test_same_floats_as_integer_differences(self, n):
        # the earlier formula: int64 position differences, abs, then the product
        U = interaction_matrix(generate(n, 4242 + n))
        rng = np.random.default_rng(n)
        for _ in range(5):
            ordering = Ordering(tuple(int(p) + 1 for p in rng.permutation(n)))
            p = np.asarray(ordering.perm)
            cost = U.u * np.abs(p[:, None] - p)
            k = int(cost.argmax())
            bw = weighted_bandwidth(U, ordering)
            assert (bw.value, bw.argpair) == (cost.item(k), divmod(k, n))

    @settings(max_examples=200, deadline=None)
    @given(_matrix_and_ordering())
    def test_reversal_invariance(self, pair):
        U, ordering = pair
        assert (
            weighted_bandwidth(U, ordering).value
            == weighted_bandwidth(U, ordering.reversed()).value
        )

    @settings(max_examples=100, deadline=None)
    @given(_matrix_and_ordering())
    def test_matches_permuted_matrix(self, pair):
        U, ordering = pair
        permuted = permute_matrix(U, ordering)
        assert (
            weighted_bandwidth(U, ordering).value
            == weighted_bandwidth(permuted, Ordering.identity(U.n)).value
        )


def _graph(n: int, bonds) -> Instance:
    """An instance with sites on a line and the given bonds."""
    sites = tuple((float(v), 0.0) for v in range(n))
    params = GenParams(L=float(n))
    return Instance(id="g", seed=0, params=params, sites=sites, bonds=frozenset(bonds))


class TestClassicBandwidth:
    def test_path_identity(self):
        assert classic_bandwidth(_graph(3, {(0, 1), (1, 2)}), Ordering.identity(3)) == 1

    def test_empty_bonds(self):
        assert classic_bandwidth(_graph(3, ()), Ordering.identity(3)) == 0

    def test_spread_pair(self):
        assert classic_bandwidth(_graph(3, {(0, 2)}), Ordering.identity(3)) == 2

    def test_out_of_range(self):
        # bond (0, 5) reaches past the 3 vertices the ordering places
        with pytest.raises(ValueError, match="ordering covers 3 vertices, instance has 6"):
            classic_bandwidth(_graph(6, {(0, 5)}), Ordering.identity(3))


class TestPermuteMatrix:
    def test_relabels_positions(self):
        inst = generate(6, 11)
        U = interaction_matrix(inst)
        ordering = Ordering((3, 1, 2, 6, 4, 5))
        P = permute_matrix(U, ordering)
        for v in range(6):
            for w in range(6):
                assert P.u[ordering.perm[v] - 1, ordering.perm[w] - 1] == U.u[v, w]

    def test_identity_is_noop(self):
        U = interaction_matrix(generate(5, 3))
        assert np.array_equal(permute_matrix(U, Ordering.identity(5)).u, U.u)

    def test_size_mismatch_rejected(self):
        U = interaction_matrix(generate(5, 3))
        with pytest.raises(ValueError, match="ordering covers 4 vertices, matrix has 5"):
            permute_matrix(U, Ordering.identity(4))


class TestRcmGap:
    def test_fifty_percent(self):
        assert rcm_gap(1.5, 1.0) == 50.0

    def test_zero_gap(self):
        assert rcm_gap(2.0, 2.0) == 0.0

    def test_nonpositive_opt_rejected(self):
        with pytest.raises(ValueError):
            rcm_gap(1.0, 0.0)


class TestOrderingSerialization:
    def test_round_trip(self, tmp_path):
        o = Ordering((2, 3, 1))
        path = tmp_path / "ord.json"
        save_ordering(o, path)
        assert load_ordering(path) == o

    def test_stable_bytes(self):
        o = Ordering((4, 1, 3, 2))
        assert ordering_to_json(ordering_from_json(ordering_to_json(o))) == ordering_to_json(o)

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"schema":"other/1","perm":[1]}', "schema"),
            ('{"schema":"bandopt-ordering/1","perm":[1,2', "document"),
            ('[1,2]', "document"),
            ("[" * 100_000, "document"),
            ('{"perm":[1]}', "schema"),
            ('{"schema":"bandopt-ordering/1"}', "perm"),
            ('{"schema":"bandopt-ordering/1","perm":[2.9,1.2]}', "perm"),
            ('{"schema":"bandopt-ordering/1","perm":[2.0,1.0]}', "perm"),
            ('{"schema":"bandopt-ordering/1","perm":[true,2]}', "perm"),
            ('{"schema":"bandopt-ordering/1","perm":["1","2"]}', "perm"),
            ('{"schema":"bandopt-ordering/1","perm":[1,1]}', "perm"),
            ('{"schema":"bandopt-ordering/1","perm":[]}', "perm"),
            ('{"schema":"bandopt-ordering/1","perm":"12"}', "perm"),
        ],
        ids=[
            "wrong-tag", "invalid-json", "not-an-object", "deep-nesting", "no-tag", "missing-perm",
            "float-positions", "integral-floats", "bool-position", "string-positions",
            "non-bijection", "empty", "perm-not-a-list",
        ],
    )
    def test_schema_guard(self, text, field):
        with pytest.raises(SchemaError) as err:
            ordering_from_json(text)
        assert err.value.field_name == field
