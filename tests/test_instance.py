"""Generator, interaction matrix, and instance serialization tests."""

import hashlib
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bandopt.instance
from bandopt.exact import load_result
from bandopt.instance import (
    GenerationError,
    GenParams,
    Instance,
    InteractionMatrix,
    SchemaError,
    from_json,
    generate,
    interaction_matrix,
    load,
    save,
    to_json,
)
from bandopt.metrics import load_ordering


def _toy(sites, bonds=frozenset(), n=None):
    return Instance(
        id="toy",
        seed=0,
        params=GenParams(L=10.0),
        sites=tuple(tuple(map(float, s)) for s in sites),
        bonds=frozenset(bonds),
    )


class TestGenerate:
    def test_smallest_instance(self):
        inst = generate(2, 7)
        assert inst.n == 2
        assert len(inst.bonds) == 1
        assert inst.min_pairwise_distance() >= inst.params.r_min

    def test_deterministic_bytes(self):
        a = generate(30, 1)
        b = generate(30, 1)
        assert to_json(a) == to_json(b)

    def test_degree_window_at_30(self):
        inst = generate(30, 1)
        assert 3.5 <= inst.mean_degree() <= 4.5

    def test_separation_respected(self):
        for seed in range(5):
            inst = generate(16, seed)
            assert inst.min_pairwise_distance() >= inst.params.r_min

    def test_bonds_are_valid_pairs(self):
        inst = generate(12, 5)
        for i, j in inst.bonds:
            assert 0 <= i < j < inst.n

    def test_infeasible_packing_rejected(self):
        with pytest.raises(GenerationError):
            generate(50, 0, GenParams(L=2.0))

    def test_square_overflow_is_generation_error(self):
        # L**2 and r_min**2 raise OverflowError past sqrt(max float); the last
        # side whose square is finite still generates, as before
        top = math.sqrt(np.finfo(float).max)
        assert generate(8, 1, GenParams(L=top)).n == 8
        for params in (
            GenParams(L=math.nextafter(top, math.inf)),
            GenParams(L=1e200),
            GenParams(L=1e100, r_min=1e160),
        ):
            with pytest.raises(GenerationError, match="overflows"):
                generate(8, 1, params)

    def test_square_underflow_is_generation_error(self):
        # a separation whose square is 0 would make the sampler's separation
        # test vacuous; with the box's squares 0 too, every squared distance
        # is 0 and the bonds, not the box, were blamed.  Subnormal squares
        # still generate
        assert generate(20, 0, GenParams(L=1e-160, r_min=1e-161)).n == 20
        for params in (GenParams(L=1e-170, r_min=1e-171), GenParams(L=1.0, r_min=1e-170)):
            with pytest.raises(GenerationError, match="separation .* underflows to 0"):
                generate(20, 0, params)

    @pytest.mark.parametrize(
        "params",
        [
            dict(L=math.nan), dict(L=math.inf), dict(L=10.0, r_min=math.nan), dict(L=-1.0),
            dict(L=True), dict(L=10.0, r_min=True), dict(L="10"), dict(L=None),
        ],
    )
    def test_non_finite_params_rejected_up_front(self, params):
        # ValueError before any rejection sampling, not a late GenerationError;
        # GenParams raises it as it is built
        with pytest.raises(ValueError) as err:
            generate(8, 0, GenParams(**params))
        assert not isinstance(err.value, GenerationError)
        assert isinstance(err.value, SchemaError) and err.value.field_name == "params"

    def test_too_few_sites(self):
        with pytest.raises(ValueError):
            generate(1, 0)

    @pytest.mark.parametrize("n", [8.0, True], ids=["float", "bool"])
    def test_non_int_n_rejected(self, n):
        with pytest.raises(SchemaError) as err:
            generate(n, 1)
        assert err.value.field_name == "n"

    def test_seed_range(self):
        with pytest.raises(ValueError):
            generate(5, -1)

    @pytest.mark.parametrize("seed", [-5, 2**64], ids=["negative", "too-large"])
    def test_seed_checked_before_sampling(self, monkeypatch, seed):
        def sample(*args):
            raise AssertionError("sampled with an invalid seed")

        monkeypatch.setattr(bandopt.instance, "_sample_separated_points", sample)
        with pytest.raises(SchemaError) as err:
            generate(5, seed)
        assert err.value.field_name == "seed"

    def test_distinct_seeds_distinct_instances(self):
        assert generate(10, 0).sites != generate(10, 1).sites

    def test_id_encodes_n_and_seed(self):
        assert generate(6, 33).id == "inst-n6-s33"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Digests of generator output recorded before the bond rule moved to numpy's
# stable argsort.  n = 2 and 5 bond all k = n - 1 nearest; n = 8, 20, 60 and
# the tight box run both repair and top-up; n = 300 runs repair.  n = 1000 was
# recorded with the all-pairs sampler that the cell grid replaced.
PINNED_INSTANCES = [
    (2, 2000048, None, "ae4ceb2b77b865aeb02b9bb76ecc4b07357340efbb0c8e0ab2573c8b9f840240"),
    (5, 5000057, None, "6ee823d75fed9ba8d977f1c095f98abdce1c1f731b1810fe4f57f932aa256a62"),
    (8, 8000088, None, "af22532db9ba8923b1ca57b1344b652101b103880756c4b5613c93b9d29e61f2"),
    (20, 20000121, None, "a47275cadce8ac8dc738a5d02922489934b4f5f20032c1ec4a7d344d994f5a8a"),
    (60, 60000387, None, "356ddf81e488294ee9010b55d72bbfd4e88748027eb1e46d7196f88d6d294ca5"),
    (300, 300000942, None, "5baee1a97e99900e812864ecfbc6af1e2fc1726320f5b5d8bc065c4b0949fa00"),
    (30, 3, GenParams(L=5.0), "05c99db667d8f85d93451c1b679f677ef0616f34b8ded0b93bb4d7cdf184f4fc"),
    (1000, 1000003042, None, "cf5565bdb8dd96ee888606253db7c5ed690d2730cb0092059114b8b073b0ef28"),
]

PINNED_MATRICES = [
    (20, 20000121, "c6622ba05b4eb503314de472fc8a1d57f550e2d238440bea52469811285260d5"),
    (300, 300000942, "42d1ccc9d6b16071713809c74fe755ed5e366f689fc6d66b31cf8c3d5e64c0b9"),
    # recorded with the einsum distance kernel that dx*dx + dy*dy replaced
    (1000, 1000003042, "b802ce465a144ab0bcb92b18ff364e048b4afae3fca2022b70134ab0b12b4c38"),
]


@pytest.mark.parametrize(
    "n,seed,params,digest", PINNED_INSTANCES, ids=[f"n{c[0]}-s{c[1]}" for c in PINNED_INSTANCES]
)
def test_pinned_instance_bytes(n, seed, params, digest):
    assert _sha256(to_json(generate(n, seed, params)).encode()) == digest


@pytest.mark.parametrize(
    "n,seed,digest", PINNED_MATRICES, ids=[f"n{c[0]}-s{c[1]}" for c in PINNED_MATRICES]
)
def test_pinned_matrix_bytes(n, seed, digest):
    assert _sha256(interaction_matrix(generate(n, seed)).u.tobytes()) == digest


def _reference_sample(n, params, rng):
    """The all-pairs sampler that the cell grid replaced: one draw per attempt."""
    r2 = params.r_min * params.r_min
    pts = []
    budget = bandopt.instance._ATTEMPTS_PER_SITE * n
    attempts = 0
    while len(pts) < n:
        if attempts >= budget:
            raise GenerationError(
                f"could not place {n} sites at separation {params.r_min} in a "
                f"{params.L:.4g} x {params.L:.4g} box after {budget} attempts "
                f"({len(pts)} placed)"
            )
        attempts += 1
        xy = rng.random(2)
        x = params.L * float(xy[0])
        y = params.L * float(xy[1])
        if all((x - px) ** 2 + (y - py) ** 2 >= r2 for px, py in pts):
            pts.append((x, y))
    return pts


def _assert_same_sample(n, seed, params):
    """Equal points, or an equal GenerationError after drawing the same uniforms."""
    outcomes = []
    for sample in (bandopt.instance._sample_separated_points, _reference_sample):
        rng = np.random.default_rng(seed)
        try:
            outcomes.append(sample(n, params, rng))
        except GenerationError as exc:
            outcomes.append((str(exc), rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


class TestSameSample:
    @pytest.mark.parametrize("n", range(2, 61))
    def test_default_params(self, n):
        for seed in (0, 1, 2, n * 1000003):
            _assert_same_sample(n, seed, GenParams.defaults(n))

    @pytest.mark.parametrize(
        "n,params",
        [
            (30, GenParams(L=5.0)),  # the tight pinned box
            (50, GenParams(L=2.0)),  # exhausts the budget with 9 placed
            (8, GenParams(L=1.0, r_min=5e-324)),  # r_min**2 underflows to 0
            (30, GenParams(L=1e150, r_min=1e149)),
            (20, GenParams(L=1e153)),  # cells far wider than r_min
            (20, GenParams(L=1e-150, r_min=1e-151)),
        ],
        ids=["tight-box", "budget", "tiny-r_min", "large-L", "huge-L-default-r_min", "tiny-L"],
    )
    def test_edge_params(self, n, params):
        for seed in range(3):
            _assert_same_sample(n, seed, params)

    def test_budget_exhausted(self):
        with pytest.raises(GenerationError, match=r"after 50000 attempts \(\d+ placed\)"):
            bandopt.instance._sample_separated_points(50, GenParams(L=2.0), np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 80),
        seed=st.integers(0, 2**64 - 1),
        exponent=st.floats(-6, 6),
        fill=st.floats(1e-6, 0.8),
    )
    def test_feasible_params(self, n, seed, exponent, fill):
        # r_min = fill * L * sqrt(0.6 / n) passes generate's packing check
        L = 10.0**exponent
        _assert_same_sample(n, seed, GenParams(L=L, r_min=fill * L * math.sqrt(0.6 / n)))


def _reference_distances(pts):
    """The einsum kernel that dx*dx + dy*dy replaced, over all rows at once."""
    diff = pts[:, None, :] - pts[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class TestSameDistances:
    # 127, 128, 129 and 257 sit at the edges of the kernel's row blocks
    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 257])
    @pytest.mark.parametrize(
        "scale", [1e-170, 1e-160, 1e-150, 1.0, 1e150, 1e155, 1e160], ids=lambda s: f"{s:g}"
    )
    def test_block_edges_and_extreme_scales(self, n, scale):
        # at 1e155 and up some squares overflow to inf; at 1e-160 and below
        # they fall to subnormals or 0
        pts = np.random.default_rng(n).normal(size=(n, 2)) * scale
        _assert_same_distances(pts)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-170, 170),
        lattice=st.booleans(),
    )
    def test_random_points(self, n, seed, exponent, lattice):
        rng = np.random.default_rng(seed)
        if lattice:
            pts = rng.integers(-20, 21, size=(n, 2)).astype(float)
        else:
            pts = rng.uniform(-1.0, 1.0, size=(n, 2))
        _assert_same_distances(pts * 10.0**exponent)


def _assert_same_distances(pts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow to inf is expected, never reported
        d2 = bandopt.instance._pairwise_squared_distances(pts)
    assert d2.tobytes() == _reference_distances(pts).tobytes()


def _reference_bonds(sites):
    """The bond rule as it read with a full stable argsort of every row."""
    n = len(sites)
    d2 = _reference_distances(np.asarray(sites))
    k = min(bandopt.instance._KNN, n - 1)
    rank = np.argsort(d2, axis=1, kind="stable")
    nearest = [set(row[1 : k + 1].tolist()) for row in rank]
    bonds = {(i, j) for i in range(n) for j in nearest[i] if i < j and i in nearest[j]}
    deg = [0] * n
    for i, j in bonds:
        deg[i] += 1
        deg[j] += 1
    target = min(bandopt.instance._REPAIR_MIN_DEGREE, n - 1)
    for v in range(n):
        for w in map(int, rank[v, 1:]):
            if deg[v] >= target:
                break
            bond = (min(v, w), max(v, w))
            if bond not in bonds:
                bonds.add(bond)
                deg[v] += 1
                deg[w] += 1
    if 2 * len(bonds) < bandopt.instance.DEGREE_WINDOW[0] * n:
        iu, ju = np.triu_indices(n, 1)
        for p in np.argsort(d2[iu, ju], kind="stable"):
            if 2 * len(bonds) >= bandopt.instance.DEGREE_WINDOW[0] * n:
                break
            bonds.add((int(iu[p]), int(ju[p])))
    return bonds


def _sites(n, seed, lattice):
    """n distinct sites: uniform in a sqrt(n) box, or integer lattice points.

    Lattice sites are tie-heavy: a point's 4 nearest are often at distance 1
    and its next 4 at sqrt(2), so equal distances straddle the 5th column.
    """
    rng = np.random.default_rng(seed)
    if not lattice:
        return [tuple(p) for p in (math.sqrt(n) * rng.random((n, 2))).tolist()]
    side = math.ceil(math.sqrt(1.5 * n))
    cells = rng.choice(side * side, size=n, replace=False)
    return [(float(c // side), float(c % side)) for c in cells.tolist()]


_CUT = bandopt.instance._PREFIX_MIN_N


class TestSameBonds:
    # n = 2-5 bond all k = n - 1 nearest; _CUT is the size from which rows are
    # ranked by partition rather than fully sorted; 127-129 and 257 sit at
    # the edges of the row blocks
    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, 6, _CUT - 2, _CUT - 1, _CUT, _CUT + 1, 127, 128, 129, 257]
    )
    @pytest.mark.parametrize("lattice", [False, True], ids=["random", "lattice"])
    def test_sizes(self, n, lattice):
        for seed in range(3):
            sites = _sites(n, seed, lattice)
            assert bandopt.instance._mutual_knn_bonds(sites) == _reference_bonds(sites)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), lattice=st.booleans())
    def test_random_sites(self, n, seed, lattice):
        sites = _sites(n, seed, lattice)
        assert bandopt.instance._mutual_knn_bonds(sites) == _reference_bonds(sites)


class TestInteractionMatrix:
    def test_unit_distance_pair(self):
        inst = _toy([(0.0, 0.0), (1.0, 0.0)])
        U = interaction_matrix(inst)
        assert U.u.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_distance_two_pair(self):
        inst = _toy([(0.0, 0.0), (2.0, 0.0)])
        U = interaction_matrix(inst)
        assert U.u[0, 1] == 1.0 / 64.0

    def test_collinear_weights(self):
        inst = _toy([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
        U = interaction_matrix(inst)
        assert U.u[0, 1] == 1.0
        assert U.u[1, 2] == 1.0 / 64.0
        assert U.u[0, 2] == 1.0 / 729.0

    def test_generated_matrix_invariants(self):
        U = interaction_matrix(generate(20, 3))
        assert np.array_equal(U.u, U.u.T)
        assert np.all(np.diag(U.u) == 0.0)
        off = U.u[~np.eye(U.n, dtype=bool)]
        assert np.all(off > 0.0)

    def test_scaling_law(self):
        inst = generate(10, 9)
        scaled = _toy([(3.0 * x, 3.0 * y) for x, y in inst.sites])
        u_base = interaction_matrix(inst).u
        u_scaled = interaction_matrix(scaled).u
        off = ~np.eye(inst.n, dtype=bool)
        ratio = u_scaled[off] / u_base[off]
        assert np.allclose(ratio, 3.0 ** -6, rtol=1e-12)

    def test_coincident_sites_raise(self):
        with pytest.raises(SchemaError, match=r"^sites \(0, 1\) ") as err:
            _toy([(1.0, 1.0), (1.0, 1.0)])
        assert err.value.field_name == "sites"

    def test_matrix_is_read_only(self):
        U = interaction_matrix(generate(5, 2))
        with pytest.raises(ValueError):
            U.u[0, 1] = 9.9

    @pytest.mark.parametrize("gap", [1e-60, 1e60])
    def test_out_of_range_weights_rejected(self, gap):
        # 1/d^6 is inf at d = 1e-60 and 0 at d = 1e60
        with pytest.raises(ValueError):
            interaction_matrix(_toy([(0.0, 0.0), (gap, 0.0)]))

    @pytest.mark.parametrize(
        "u",
        [
            [[0.0, math.inf], [math.inf, 0.0]],
            [[0.0, -1.0], [-1.0, 0.0]],
            [[0.0, math.nan], [math.nan, 0.0]],
            np.zeros((0, 0)),
            np.zeros((1, 1)),
            [[0.0, 1e-320], [1e-320, 0.0]],
        ],
        ids=["inf", "negative", "nan", "empty", "one-vertex", "reciprocal-overflows"],
    )
    def test_constructor_rejects(self, u):
        # the constructor itself checks, as permute_matrix builds it directly
        with pytest.raises(ValueError):
            InteractionMatrix(np.array(u, dtype=float))

    def test_identity_equality_and_hash(self):
        # numpy arrays define neither a truth value for == nor a hash
        U = InteractionMatrix.from_array(np.ones((3, 3)) - np.eye(3))
        V = InteractionMatrix.from_array(U.u)
        assert U == U and U != V
        assert hash(U) == hash(U)
        assert len({U, V, U}) == 2 and V not in {U}

    def test_from_array_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            InteractionMatrix.from_array(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_from_array_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            InteractionMatrix.from_array(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_from_array_rejects_nonpositive_offdiag(self):
        with pytest.raises(ValueError):
            InteractionMatrix.from_array(np.array([[0.0, 0.0], [0.0, 0.0]]))

    @staticmethod
    def _with_weights(weights):
        """The 3-vertex all-ones matrix with the given pairs' weights replaced."""
        u = np.ones((3, 3)) - np.eye(3)
        for (v, w), x in weights.items():
            u[v, w] = u[w, v] = x
        return u

    def test_weight_floor_is_the_finite_reciprocal(self):
        # 1.0 / w is 1.7976931348623143e308 here and overflows one ulp below
        least = 5.56268464626801e-309
        InteractionMatrix.from_array(self._with_weights({(0, 1): least}))
        below = math.nextafter(least, 0.0)
        assert below == 5.562684646268003e-309
        message = r"^off-diagonal weight u\[0\]\[1\] = 5\.562684646268003e-309 "
        with pytest.raises(ValueError, match=message):
            InteractionMatrix.from_array(self._with_weights({(0, 1): below}))

    def test_error_names_first_offending_pair(self):
        # the first offending pair in row-major order, not the smallest positive
        # weight, whose reciprocal also overflows
        u = self._with_weights({(0, 2): -1.0, (1, 2): 1e-320})
        with pytest.raises(ValueError, match=r"^off-diagonal weight u\[0\]\[2\] = -1\.0 "):
            InteractionMatrix.from_array(u)


class TestInstance:
    @pytest.mark.parametrize(
        "fields,field",
        [
            (dict(sites=((math.nan, 0.0), (1.0, 0.0))), "sites"),
            (dict(sites=()), "sites"),
            (dict(sites=((0.0, 0.0),), bonds=frozenset()), "sites"),
            (dict(bonds=frozenset({(1, 0)})), "bonds"),
            (dict(bonds=frozenset({(0, 5)})), "bonds"),
            (dict(bonds=frozenset({(1, 1)})), "bonds"),
            (dict(seed=-5), "seed"),
            (dict(seed=2**64), "seed"),
            # values that to_json cannot write or from_json would not read back
            (dict(id=5), "id"),
            (dict(seed=3.0), "seed"),
            (dict(seed=True), "seed"),
            (dict(bonds=frozenset({(np.int64(0), np.int64(1))})), "bonds"),
            (dict(bonds=frozenset({(0, 1.0)})), "bonds"),
            (dict(bonds=((0, 1),)), "bonds"),
            (dict(sites=[(0.0, 0.0), (1.0, 0.0)]), "sites"),
            (dict(sites=((0.0, 0.0), (1.0, True))), "sites"),
            (dict(sites=((0.0, 0.0), (1.0, 0.0, 2.0))), "sites"),
            # float() cannot hold it, so it is not finite
            (dict(sites=((0.0, 0.0), (10**400, 0.0))), "sites"),
            # str() cannot write them, so neither can the message
            (dict(seed=10**5000), "seed"),
            (dict(sites=((0.0, 0.0), (10**5000, 0.0))), "sites"),
            # what a document reader passes on unchecked, container or entry
            (dict(sites=None), "sites"),
            (dict(bonds=None), "bonds"),
            (dict(sites=(None, (1.0, 0.0))), "sites"),
            (dict(bonds=frozenset({None})), "bonds"),
            # a params that to_json cannot write
            (dict(params=None), "params"),
            (dict(params=(10.0, 0.7)), "params"),
            # equal tuples, so the sites coincide
            (dict(sites=((0.0, 0.0), (-0.0, 0.0))), "sites"),
            # refused as malformed, not hashed by the coincidence scan
            (dict(sites=([0.0, 0.0], (1.0, 0.0))), "sites"),
        ],
        ids=[
            "nan-site", "no-sites", "one-site", "reversed-bond", "bond-out-of-range",
            "self-loop-bond",
            "negative-seed", "seed-too-large", "int-id", "float-seed", "bool-seed",
            "numpy-bond", "float-bond-end", "tuple-bonds", "list-sites", "bool-coordinate",
            "three-coordinates", "int-coordinate-past-float-range", "seed-past-digit-limit",
            "coordinate-past-digit-limit", "no-site-tuple", "no-bond-set", "none-site",
            "none-bond", "none-params", "tuple-params", "signed-zero-sites", "unhashable-site",
        ],
    )
    def test_constructor_rejects(self, fields, field):
        valid = dict(
            id="toy",
            seed=0,
            params=GenParams(L=10.0),
            sites=((0.0, 0.0), (1.0, 0.0)),
            bonds=frozenset({(0, 1)}),
        )
        with pytest.raises(SchemaError) as err:
            Instance(**{**valid, **fields})
        assert err.value.field_name == field


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        inst = generate(14, 21)
        path = tmp_path / "inst.json"
        save(inst, path)
        assert load(path) == inst

    def test_stable_bytes(self):
        inst = generate(8, 4)
        assert to_json(inst) == to_json(from_json(to_json(inst)))

    def test_schema_mismatch(self):
        doc = json.loads(to_json(generate(4, 1)))
        doc["schema"] = "bandopt-instance/999"
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.field_name == "schema"

    def test_missing_sites_named(self):
        doc = json.loads(to_json(generate(4, 1)))
        del doc["sites"]
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.field_name == "sites"

    def test_one_site_named(self):
        doc = json.loads(to_json(generate(4, 1)))
        doc["sites"], doc["bonds"] = doc["sites"][:1], []
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.field_name == "sites"

    @pytest.mark.parametrize("key", ["L", "r_min"])
    def test_non_finite_params_named(self, key):
        doc = json.loads(to_json(generate(4, 1)))
        doc["params"][key] = math.nan
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.field_name == "params"

    @pytest.mark.parametrize("key,field", [("L", "params"), ("r_min", "params"), ("site", "sites")])
    def test_oversized_integer_named(self, key, field):
        # 401 digits parse as a Python int that float() cannot hold
        doc = json.loads(to_json(generate(4, 1)))
        if key == "site":
            doc["sites"][2][1] = 10**400
        else:
            doc["params"][key] = 10**400
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.field_name == field

    def test_integer_past_digit_limit_is_schema_error(self):
        text = to_json(generate(4, 1)).replace('"seed":1,', '"seed":' + "9" * 5000 + ",")
        with pytest.raises(SchemaError) as err:
            from_json(text)
        assert err.value.field_name == "document"

    def test_malformed_document(self):
        with pytest.raises(SchemaError):
            from_json("{not json")

    @pytest.mark.parametrize("loader", [load, load_ordering, load_result])
    def test_undecodable_file_is_document_error(self, tmp_path, loader):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe{")  # a UTF-16 byte order mark, not UTF-8
        with pytest.raises(SchemaError) as err:
            loader(path)
        assert err.value.field_name == "document"

    def test_duplicate_coordinates_rejected(self):
        doc = json.loads(to_json(generate(4, 1)))
        doc["sites"][1] = doc["sites"][0]
        with pytest.raises(SchemaError, match=r"^sites \(0, 1\) ") as err:
            from_json(json.dumps(doc))
        assert err.value.field_name == "sites"

    def test_coincident_pair_is_lexicographically_first(self):
        # B repeats first (1, 2), but (0, 3) is the smaller pair
        sites = [(0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 0.0)]
        doc = json.loads(to_json(generate(4, 1)))
        doc["sites"] = [list(s) for s in sites]
        with pytest.raises(SchemaError) as parsed:
            from_json(json.dumps(doc))
        with pytest.raises(SchemaError) as built:
            _toy(sites)
        for err in (parsed, built):
            assert err.value.field_name == "sites"
            assert str(err.value) == "sites (0, 3) is not a pair of distinct sites"

    def test_typed_errors_survive_pickle(self):
        # a worker process's error reaches run_suite's caller through pickle
        schema = pickle.loads(pickle.dumps(SchemaError("seed", "seed -1 is bad")))
        assert type(schema) is SchemaError
        assert (str(schema), schema.field_name) == ("seed -1 is bad", "seed")

    def test_bond_order_enforced(self):
        doc = json.loads(to_json(generate(4, 1)))
        i, j = doc["bonds"][0]
        doc["bonds"][0] = [j, i]
        with pytest.raises(SchemaError) as err:
            from_json(json.dumps(doc))
        assert err.value.field_name == "bonds"

    def test_numbers_kept_as_spelled(self):
        # an int coordinate or box side stays an int, so it writes back unchanged
        # (2**53 + 1 would not survive float()) and weighs as its float does
        doc = json.loads(to_json(_toy([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])))
        doc["params"]["L"], doc["sites"] = 2**53 + 1, [[0, 0], [1, 0], [3, 0]]
        text = json.dumps(doc, separators=(",", ":")) + "\n"
        inst = from_json(text)
        assert to_json(inst) == text
        assert inst.params.L == 2**53 + 1 and inst.sites[2] == (3, 0)
        u = interaction_matrix(inst).u
        assert np.array_equal(u, interaction_matrix(_toy([(0, 0), (1, 0), (3, 0)])).u)

    def test_default_params(self):
        params = GenParams.defaults(9)
        assert params.L == math.sqrt(9)
        assert params.r_min == 0.7
