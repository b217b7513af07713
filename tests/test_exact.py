"""Exact solver tests: oracle, branch-and-bound, LP export, result IO."""

import gc
import hashlib
import itertools
import json
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandopt import exact
from bandopt.exact import (
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    SolveConfig,
    SolveResult,
    _deadlines,
    _slack,
    _tight_partners,
    branch_and_bound,
    brute_force,
    default_anchor,
    export_lp,
    load_result,
    result_from_json,
    result_to_json,
    save_result,
    theoretical_lower_bound,
)
from bandopt.instance import InteractionMatrix, SchemaError, generate, interaction_matrix
from bandopt.metrics import Ordering, weighted_bandwidth
from bandopt.rcm import rcm_on_instance


def _matrix_from_points(pts):
    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1)
    u = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    u[off] = 1.0 / d2[off] ** 3
    return InteractionMatrix.from_array(u)


COLLINEAR = _matrix_from_points([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
# equilateral triangle with side 1: all pair weights exactly 1/1^6
TRIANGLE = InteractionMatrix.from_array(
    np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
)


class TestLowerBound:
    def test_unit_pair_is_tight(self):
        U = _matrix_from_points([(0.0, 0.0), (1.0, 0.0)])
        assert theoretical_lower_bound(U) == 1.0
        assert brute_force(U).objective == 1.0

    def test_collinear_is_tight(self):
        assert theoretical_lower_bound(COLLINEAR) == 1.0
        assert brute_force(COLLINEAR).objective == 1.0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            theoretical_lower_bound(InteractionMatrix.from_array(np.zeros((1, 1))))

    def test_never_exceeds_optimum(self):
        for n, seed in [(5, 1), (6, 2), (7, 3), (8, 4)]:
            U = interaction_matrix(generate(n, seed))
            assert theoretical_lower_bound(U) <= brute_force(U).objective


_WEIGHT_KINDS = ["1-3", "0.3/0.7/1.1", "0.1k", "lognormal"]


def _random_weights(rng, kind, n):
    """Tie-heavy (three kinds) or log-normal symmetric weights."""
    if kind == "1-3":
        w = rng.integers(1, 4, size=(n, n)).astype(float)
    elif kind == "0.3/0.7/1.1":
        w = rng.choice([0.3, 0.7, 1.1], size=(n, n))
    elif kind == "0.1k":
        w = 0.1 * rng.integers(1, 8, size=(n, n))
    else:
        w = rng.lognormal(0.0, 1.5, size=(n, n))
    w = np.triu(w, 1)
    return InteractionMatrix.from_array(w + w.T)


@st.composite
def _oracle_cases(draw):
    """Weights at n <= 7 with an oracle tail length of 1 to 3, so most
    cases have several heads."""
    n = draw(st.integers(min_value=2, max_value=7))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    U = _random_weights(rng, draw(st.sampled_from(_WEIGHT_KINDS)), n)
    return U, draw(st.integers(min_value=1, max_value=3))


class TestBruteForce:
    def test_collinear_objective(self):
        res = brute_force(COLLINEAR)
        assert res.objective == 1.0
        # identity achieves 1 and is lexicographically smallest
        assert res.ordering.perm == (1, 2, 3)

    def test_equilateral_triangle(self):
        # every ordering leaves some unit-weight pair at position distance 2
        res = brute_force(TRIANGLE)
        assert res.objective == 2.0
        for perm in itertools.permutations((1, 2, 3)):
            assert weighted_bandwidth(TRIANGLE, Ordering(perm)).value == 2.0

    def test_lexicographic_tie_break(self):
        U = interaction_matrix(generate(5, 77))
        res = brute_force(U)
        optima = [
            perm
            for perm in itertools.permutations(range(1, 6))
            if weighted_bandwidth(U, Ordering(perm)).value == res.objective
        ]
        assert res.ordering.perm == min(optima)

    def test_refuses_large_n(self):
        with pytest.raises(ValueError):
            brute_force(interaction_matrix(generate(11, 0)))

    def test_node_count_is_factorial(self):
        U = interaction_matrix(generate(6, 1))
        assert brute_force(U).nodes_explored == 720

    @pytest.mark.parametrize("n", range(2, 10))
    def test_positions_table_is_every_permutation_in_order(self, n, monkeypatch):
        perms = itertools.chain.from_iterable(itertools.permutations(range(1, n + 1)))
        expected = np.fromiter(perms, np.int8).reshape(-1, n)
        # above n = 7, tail lengths 1 and 3 would mean 40320 or more blocks
        for tail in (1, 3, 7) if n <= 7 else (exact._BRUTE_FORCE_TAIL,):
            monkeypatch.setattr(exact, "_BRUTE_FORCE_TAIL", tail)
            head = n - min(n, tail)
            blocks = list(exact._position_blocks(n))
            for b in blocks:
                assert b.dtype == np.int8 and len(b) == math.factorial(min(n, tail))
                assert (b[:, :head] == b[0, :head]).all()  # one head per block
            assert np.array_equal(np.concatenate(blocks), expected)

    @settings(max_examples=150, deadline=None)
    @given(_oracle_cases())
    def test_lexicographically_first_minimum_for_any_block_size(self, case):
        U, tail = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exact, "_BRUTE_FORCE_TAIL", tail)
            res = brute_force(U)
        scored = [
            (weighted_bandwidth(U, Ordering(perm)).value, perm)
            for perm in itertools.permutations(range(1, U.n + 1))
        ]
        objective = min(value for value, _ in scored)
        first = next(perm for value, perm in scored if value == objective)
        assert (res.objective, res.ordering.perm) == (objective, first)
        assert res.nodes_explored == math.factorial(U.n)

    def test_peak_memory_at_n9(self):
        # one 5040-row block at a time, with its index pattern, peaks near
        # 2.4 MB at n = 9; an n!-row position table with n!-entry products
        # would need 9.5 MB
        U = interaction_matrix(generate(9, 1))
        tracemalloc.start()
        try:
            brute_force(U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestBranchAndBound:
    def test_matches_oracle(self):
        for n, seed in [(4, 10), (5, 11), (6, 12), (7, 13), (8, 14), (9, 15)]:
            U = interaction_matrix(generate(n, seed))
            bb = branch_and_bound(U)
            bf = brute_force(U)
            assert bb.status == STATUS_OPTIMAL
            assert bb.objective == bf.objective
            assert weighted_bandwidth(U, bb.ordering).value == bb.objective

    def test_two_sites(self):
        U = _matrix_from_points([(0.0, 0.0), (2.0, 0.0)])
        res = branch_and_bound(U)
        assert res.objective == 1.0 / 64.0
        assert res.lower_bound == res.objective

    def test_bound_tight_stops_before_branching(self):
        res = branch_and_bound(COLLINEAR)
        assert res.status == STATUS_OPTIMAL
        assert res.objective == res.lower_bound == 1.0
        assert res.nodes_explored == 0

    def test_optimal_result_reports_its_objective_as_lower_bound(self):
        # the optimum of this instance lies above max u, so the two rules differ
        U = interaction_matrix(generate(8, 5))
        for res in (branch_and_bound(U), brute_force(U)):
            assert res.status == STATUS_OPTIMAL
            assert res.lower_bound == res.objective > float(U.u.max())

    def test_timeout_keeps_largest_weight_as_lower_bound(self):
        U = interaction_matrix(generate(8, 5))
        res = branch_and_bound(U, SolveConfig(node_limit=1))
        assert res.status == STATUS_TIMEOUT
        assert res.lower_bound == float(U.u.max()) < res.objective

    def test_reversed_incumbent_is_equal(self):
        U = interaction_matrix(generate(8, 3))
        res = branch_and_bound(U)
        assert weighted_bandwidth(U, res.ordering.reversed()).value == res.objective

    def test_warm_start_size_checked(self):
        U = interaction_matrix(generate(5, 1))
        with pytest.raises(ValueError):
            branch_and_bound(U, warm_start=Ordering.identity(4))

    def test_warm_start_only_helps(self):
        U = interaction_matrix(generate(8, 3))
        base = branch_and_bound(U)
        warmed = branch_and_bound(U, warm_start=base.ordering)
        assert warmed.objective == base.objective

    def test_symmetry_off_same_objective(self):
        for seed in (8000072, 8000084):
            U = interaction_matrix(generate(8, seed))
            on = branch_and_bound(U)
            off = branch_and_bound(U, SolveConfig(use_symmetry_breaking=False))
            assert on.objective == off.objective
            assert on.nodes_explored <= off.nodes_explored

    def test_timeout_returns_feasible_incumbent(self):
        U = interaction_matrix(generate(12, 2024))
        res = branch_and_bound(
            U, SolveConfig(time_limit=0.05, use_lower_bound=False)
        )
        assert res.status == STATUS_TIMEOUT
        assert weighted_bandwidth(U, res.ordering).value == res.objective
        assert res.objective >= res.lower_bound

    def test_deadline_passed_before_first_node(self):
        U = interaction_matrix(generate(12, 2024))
        res = branch_and_bound(U, SolveConfig(time_limit=1e-9, use_lower_bound=False))
        assert res.status == STATUS_TIMEOUT
        assert res.nodes_explored == 0
        assert weighted_bandwidth(U, res.ordering).value == res.objective

    def test_bound_stop_precedes_passed_deadline(self):
        # the seed already meets the bound: that stop comes before the deadline's
        res = branch_and_bound(COLLINEAR, SolveConfig(time_limit=1e-9))
        assert (res.status, res.nodes_explored) == (STATUS_OPTIMAL, 0)
        assert res.objective == res.lower_bound == 1.0

    def test_lower_bound_stop_at_leaf(self):
        # the search, not the seed, reaches the bound: the stop at a leaf
        U = interaction_matrix(generate(6, 6000023))
        on = branch_and_bound(U)
        assert on.status == STATUS_OPTIMAL
        assert on.objective == on.lower_bound == 8.291202212628649
        assert on.nodes_explored == 52
        off = branch_and_bound(U, SolveConfig(use_lower_bound=False))
        assert (off.status, off.objective, off.nodes_explored) == (STATUS_OPTIMAL, on.objective, 322)

    def test_node_limit_trips_exactly(self):
        U = interaction_matrix(generate(12, 2024))
        res = branch_and_bound(
            U, SolveConfig(node_limit=500, use_lower_bound=False)
        )
        assert res.status == STATUS_TIMEOUT
        assert res.nodes_explored == 500

    def test_deadline_ignores_monotonic_clock(self, monkeypatch):
        # the deadline is built and checked on one clock, perf_counter
        monkeypatch.setattr(time, "monotonic", lambda: 1e18)
        res = branch_and_bound(interaction_matrix(generate(9, 9000080)))
        assert res.status == STATUS_OPTIMAL
        assert res.nodes_explored == 37092

    def test_solve_leaves_no_reference_cycles(self):
        # garbage cycles would hold each solve's search state until a
        # collection, which raises peak memory over a long suite
        U = interaction_matrix(generate(8, 8000072))
        gc.collect()
        gc.disable()
        try:
            for lb, sym in itertools.product((True, False), repeat=2):
                branch_and_bound(U, SolveConfig(use_lower_bound=lb, use_symmetry_breaking=sym))
            branch_and_bound(U, SolveConfig(node_limit=50))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_config_validation(self):
        U = interaction_matrix(generate(5, 1))
        with pytest.raises(ValueError):
            branch_and_bound(U, SolveConfig(time_limit=0.0))
        with pytest.raises(ValueError):
            branch_and_bound(U, SolveConfig(time_limit=math.nan))
        with pytest.raises(ValueError):
            branch_and_bound(U, SolveConfig(node_limit=0))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(time_limit=0.0), dict(time_limit=-1.0), dict(time_limit=math.nan),
            dict(time_limit=True), dict(time_limit="5"), dict(time_limit=None),
            dict(node_limit=0), dict(node_limit=2.5), dict(node_limit=True),
        ],
        ids=[
            "zero-time", "negative-time", "nan-time", "bool-time", "str-time", "none-time",
            "zero-nodes", "fractional-nodes", "bool-nodes",
        ],
    )
    def test_config_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)

    def test_default_anchor_is_max_row_sum(self):
        U = interaction_matrix(generate(9, 6))
        assert default_anchor(U) == int(np.argmax(U.u.sum(axis=1)))

    # Node counts fix the branching order; recorded before the search was
    # reduced to one single-threaded path.
    @pytest.mark.parametrize(
        "seed,objective,nodes",
        [(8000072, 4.0449916293573605, 5614), (8000074, 1.744819785851831, 6051)],
    )
    def test_pinned_nodes_rcm_warm_start(self, seed, objective, nodes):
        inst = generate(8, seed)
        res = branch_and_bound(interaction_matrix(inst), warm_start=rcm_on_instance(inst))
        assert (res.status, res.objective, res.nodes_explored) == (
            STATUS_OPTIMAL,
            objective,
            nodes,
        )

    @pytest.mark.parametrize(
        "lb,sym,node_limit,status,objective,nodes",
        [
            (True, True, None, STATUS_OPTIMAL, 2.5367056031523045, 113099),
            (True, False, None, STATUS_OPTIMAL, 2.5367056031523045, 43232),
            (False, True, None, STATUS_OPTIMAL, 2.5367056031523045, 121818),
            (False, False, None, STATUS_OPTIMAL, 2.5367056031523045, 210795),
            (True, True, 5000, STATUS_TIMEOUT, 3.2948209079435244, 5000),
        ],
    )
    def test_pinned_nodes_n10(self, lb, sym, node_limit, status, objective, nodes):
        U = interaction_matrix(generate(10, 10000001))
        cfg = SolveConfig(
            use_lower_bound=lb, use_symmetry_breaking=sym, node_limit=node_limit
        )
        res = branch_and_bound(U, cfg)
        assert (res.status, res.objective, res.nodes_explored) == (status, objective, nodes)

    # Paper sizes from the benchmark's seed formula 42 + 1000003*n + r at its
    # 25k-node budget, recorded before the search became one function.  They
    # reach the forced anchor position ceil(n/2) and stop deep on the limit.
    @pytest.mark.parametrize(
        "n,seed,lb,sym,status,objective,nodes",
        [
            (15, 15000087, True, True, STATUS_OPTIMAL, 8.180640097111464, 2435),
            (15, 15000087, True, False, STATUS_OPTIMAL, 8.180640097111464, 30),
            (15, 15000087, False, True, STATUS_TIMEOUT, 8.180640097111464, 25000),
            (15, 15000087, False, False, STATUS_TIMEOUT, 8.180640097111464, 25000),
            (20, 20000103, True, True, STATUS_TIMEOUT, 14.824404959539256, 25000),
            (20, 20000103, True, False, STATUS_TIMEOUT, 10.74423762938497, 25000),
            (20, 20000103, False, True, STATUS_TIMEOUT, 14.824404959539256, 25000),
            (20, 20000103, False, False, STATUS_TIMEOUT, 10.74423762938497, 25000),
            (20, 20000201, True, True, STATUS_OPTIMAL, 8.443993320490671, 16483),
            (20, 20000201, True, False, STATUS_OPTIMAL, 8.443993320490671, 16483),
            (20, 20000201, False, True, STATUS_TIMEOUT, 8.443993320490671, 25000),
            (20, 20000201, False, False, STATUS_TIMEOUT, 8.443993320490671, 25000),
        ],
    )
    def test_pinned_nodes_paper_scale(self, n, seed, lb, sym, status, objective, nodes):
        inst = generate(n, seed)
        cfg = SolveConfig(use_lower_bound=lb, use_symmetry_breaking=sym, node_limit=25_000)
        res = branch_and_bound(interaction_matrix(inst), cfg, warm_start=rcm_on_instance(inst))
        assert (res.status, res.objective, res.nodes_explored) == (status, objective, nodes)


@st.composite
def _tied_weights(draw):
    """Non-geometric weights 1..3, so equal weights and ties are common."""
    n = draw(st.integers(min_value=2, max_value=8))
    u = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            u[i, j] = u[j, i] = draw(st.integers(min_value=1, max_value=3))
    return InteractionMatrix.from_array(u)


class TestDifferentialOracle:
    @settings(max_examples=100, deadline=None)
    @given(_tied_weights())
    def test_all_toggles_and_node_limits(self, U):
        optimum = brute_force(U).objective
        for lb, sym in itertools.product((True, False), repeat=2):
            for node_limit in (None, 1, 7, 50):
                cfg = SolveConfig(
                    use_lower_bound=lb, use_symmetry_breaking=sym, node_limit=node_limit
                )
                res = branch_and_bound(U, cfg)
                assert weighted_bandwidth(U, res.ordering).value == res.objective
                assert res.objective >= optimum
                if res.status == STATUS_OPTIMAL:
                    assert res.objective == optimum


def _slack_by_definition(w, bound, n):
    return max(k for k in range(n + 1) if w * k < bound)


def _slack_table(u, bound):
    """``slack[w][x]``: how far past w's position x may sit and stay under ``bound``.

    ``u[w][x] * (p - q) >= bound`` exactly when ``p > q + slack[w][x]``.
    The whole table by definition, which the search never builds: the
    reference that the partner lists of ``_tight_partners`` are checked on.
    """
    n = len(u)
    return [[_slack_by_definition(w, bound, n) for w in row] for row in u]


class TestSlackTable:
    # tie-heavy weights; for 0.1*k, 0.3 and 0.7 the product w*k rounds, so a
    # bound equal to w*k can divide back to slightly more than k
    TIED = (1.0, 2.0, 3.0, 0.3, 0.7, 1.1) + tuple(0.1 * k for k in range(1, 8))

    def test_matches_definition_on_tied_weights(self):
        n = len(self.TIED)
        for w in self.TIED:
            for k in range(1, n + 1):
                for bound in (w * k, math.nextafter(w * k, 0.0), math.nextafter(w * k, math.inf)):
                    for x in self.TIED:
                        assert _slack(x, bound, n) == _slack_by_definition(x, bound, n)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-40.0, 40.0).map(math.exp), st.integers(2, 40), st.data())
    def test_matches_definition_on_spread_weights(self, w, n, data):
        # weights over 35 orders of magnitude; bounds at a product and its float neighbours
        k = data.draw(st.integers(1, n))
        for bound in (w * k, math.nextafter(w * k, 0.0), math.nextafter(w * k, math.inf)):
            assert _slack(w, bound, n) == _slack_by_definition(w, bound, n)

    def test_bound_equal_to_a_product(self):
        # 0.1 * 3 == 0.30000000000000004, and that divided by 0.1 exceeds 3,
        # so ceil(bound / w) - 1 gives 3 where the largest k with w*k < bound is 2
        bound = 0.1 * 3
        assert math.ceil(bound / 0.1) - 1 == 3
        assert _slack(0.1, bound, 2) == 2
        assert _slack(0.1, bound, 5) == 2

    def test_zero_diagonal_and_far_bound(self):
        assert [_slack(w, 10.0, 2) for w in (0.0, 1.0)] == [2, 2]
        assert [_slack(w, 5.0, 2) for w in (0.0, 5.0)] == [2, 0]

    @settings(max_examples=100, deadline=None)
    @given(_tied_weights(), st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 7.0]))
    def test_tight_partners(self, U, scale):
        u, n = U.u.tolist(), U.n
        bound = scale * float(U.u.max())
        slack = _slack_table(u, bound)
        for w, pairs in enumerate(_tight_partners(u, bound)):
            assert pairs == sorted((slack[w][x], x) for x in range(n) if slack[w][x] < n)
            assert w not in [x for _, x in pairs]


class TestDeadlines:
    @staticmethod
    def _by_definition(u, bound, at, p):
        """Depth p's list from ``_slack_table``: all zeros once the prefix is closed."""
        n = len(u)
        slack = _slack_table(u, bound)

        def due(r):  # min(n, min over w placed at q < r of q + slack[w][x])
            return [min([n] + [q + slack[at[q - 1]][x] for q in range(1, r)]) for x in range(n)]

        if any(q > due(q)[at[q - 1]] for q in range(1, p)):
            return [0] * n
        return due(p)

    @settings(max_examples=200, deadline=None)
    @given(_tied_weights(), st.data())
    def test_matches_definition(self, U, data):
        u, n = U.u.tolist(), U.n
        at = tuple(data.draw(st.permutations(range(n))))
        bound = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 7.0])) * float(U.u.max())
        tight = _tight_partners(u, bound)
        for p in range(1, n + 1):
            assert _deadlines(tight, at, p) == self._by_definition(u, bound, at, p)

    def test_closed_prefix_is_all_zeros(self):
        # every slack is 0 at this bound, so placing 1 at 1 leaves 0 and 2
        # the deadline 1: 0 at position 2 misses it, which closes depth 3
        u, at = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], (1, 0, 2)
        tight = _tight_partners(u, 1.0)
        assert _deadlines(tight, at, 1) == [3, 3, 3]
        assert _deadlines(tight, at, 2) == [1, 3, 1]
        assert _deadlines(tight, at, 3) == [0, 0, 0]


def _reference_branch_order(u, pos, placed, p):
    """The branching rule as a scan of the placed set per candidate."""
    scored = []
    for v, q in enumerate(pos):
        if q:
            continue
        link = stretch = 0.0
        for w in placed:
            link = max(link, u[v][w])
            stretch = max(stretch, u[v][w] * (p - pos[w]))
        scored.append((-link, v, stretch))
    return sorted(scored)


def _reference_solve(U, cfg, warm_start, incumbents=None):
    """The search with the placed-set scan: (objective, status, nodes, perm).

    The same-tree reference for ``branch_and_bound``: seed, probe, candidate
    order, cuts and node counting, without the time limit.  ``incumbents``,
    when given, receives ``(nodes, objective, perm)`` for the seed and for
    every improving leaf, ``nodes`` counting that leaf.
    """
    n, u = U.n, U.u.tolist()
    lower_bound = theoretical_lower_bound(U)
    anchor = default_anchor(U)
    pos, placed = [1] + [0] * (n - 1), [0]
    for p in range(2, n + 1):
        v = _reference_branch_order(u, pos, placed, p)[0][1]
        pos[v] = p
        placed.append(v)
    seed = warm_start or Ordering.identity(n)
    probe = Ordering(tuple(pos))
    if weighted_bandwidth(U, probe).value < weighted_bandwidth(U, seed).value:
        seed = probe
    if seed.perm[anchor] > (n + 1) // 2:
        seed = seed.reversed()
    forced = (n + 1) // 2 if cfg.use_symmetry_breaking else 0
    state = {"obj": weighted_bandwidth(U, seed).value, "perm": seed.perm, "nodes": 0}
    if incumbents is not None:
        incumbents.append((0, state["obj"], state["perm"]))
    pos, placed = [0] * n, []

    def extend(p, partial):
        entries = _reference_branch_order(u, pos, placed, p)
        if p == forced and not pos[anchor]:
            entries = [e for e in entries if e[1] == anchor]
        for _, v, stretch in entries:
            state["nodes"] += 1
            if cfg.node_limit is not None and state["nodes"] >= cfg.node_limit:
                return STATUS_TIMEOUT
            new = max(stretch, partial)
            if new >= state["obj"]:
                continue
            pos[v] = p
            if p == n:
                state["obj"], state["perm"] = new, tuple(pos)
                if incumbents is not None:
                    incumbents.append((state["nodes"], new, state["perm"]))
                if cfg.use_lower_bound and new == lower_bound:
                    return STATUS_OPTIMAL
            else:
                placed.append(v)
                stop = extend(p + 1, new)
                placed.pop()
                if stop:
                    return stop
            pos[v] = 0
        return None

    status = STATUS_OPTIMAL
    if not (cfg.use_lower_bound and state["obj"] == lower_bound):
        status = extend(1, 0.0) or STATUS_OPTIMAL
    return state["obj"], status, state["nodes"], state["perm"]


@st.composite
def _search_cases(draw, sizes=(2, 9), max_nodes=400):
    """Tie-heavy or log-normal weights with any toggles, warm start and node limit."""
    n = draw(st.integers(*sizes))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    U = _random_weights(rng, draw(st.sampled_from(_WEIGHT_KINDS)), n)
    # unlimited searches stay at n <= 7 to keep the test fast; the node
    # limits still walk the start of every larger tree
    limits = st.integers(min_value=1, max_value=max_nodes)
    cfg = SolveConfig(
        use_lower_bound=draw(st.booleans()),
        use_symmetry_breaking=draw(st.booleans()),
        node_limit=draw(st.none() | limits if n <= 7 else limits),
    )
    warm = None
    if draw(st.booleans()):
        warm = Ordering(tuple(int(p) + 1 for p in rng.permutation(n)))
    return U, cfg, warm


def _assert_same_tree(U, cfg, warm):
    res = branch_and_bound(U, cfg, warm_start=warm)
    got = (res.objective, res.status, res.nodes_explored, res.ordering.perm)
    assert got == _reference_solve(U, cfg, warm)


class TestSameTree:
    @settings(max_examples=400, deadline=None)
    @given(_search_cases())
    def test_matches_placed_set_scan(self, case):
        _assert_same_tree(*case)

    # paper sizes: deeper trees revisit more placed sets and walk longer
    # partner lists before the first slack that cannot bind
    @settings(max_examples=150, deadline=None)
    @given(_search_cases(sizes=(10, 14), max_nodes=5000))
    def test_matches_placed_set_scan_at_paper_sizes(self, case):
        _assert_same_tree(*case)

    def test_orders_are_per_solve(self):
        # the same placed sets recur across these solves with other weights,
        # so an order kept from an earlier solve would change the tree
        first, second = (interaction_matrix(generate(12, seed)) for seed in (12000041, 12000042))
        cfg = SolveConfig(use_lower_bound=False, node_limit=3000)
        for U in (first, second, first):
            _assert_same_tree(U, cfg, None)

    def test_order_cache_is_bounded(self, monkeypatch):
        # this solve reaches 917 placed sets, about 0.44 MB of orders and links
        # when all are kept; a full cache is emptied, which changes no order
        # and so not the tree
        U = interaction_matrix(generate(20, 20000042))
        cfg = SolveConfig()
        full = branch_and_bound(U, cfg)
        monkeypatch.setattr(exact, "_ORDER_CACHE_MAX", 16)
        tracemalloc.start()
        try:
            capped = branch_and_bound(U, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (capped.objective, capped.status, capped.nodes_explored, capped.ordering) == (
            full.objective, full.status, full.nodes_explored, full.ordering
        )
        assert peak < 150_000


class TestLimits:
    def test_every_node_limit_matches_reference(self):
        # 1,925 nodes, improving at nodes 141, 450 and 1,925 (the bound stop);
        # the limits fall on live candidates, on cut ones and inside
        # children whose candidates are all cut
        U = interaction_matrix(generate(11, 11000108))
        incumbents = []
        full = _reference_solve(U, SolveConfig(), None, incumbents)
        assert [i[0] for i in incumbents] == [0, 141, 450, 1925]
        for limit in range(1, full[2] + 2):
            if limit > full[2]:
                expected = full
            else:
                _, objective, perm = [i for i in incumbents if i[0] < limit][-1]
                expected = (objective, STATUS_TIMEOUT, limit, perm)
            if limit % 97 == 1:
                assert _reference_solve(U, SolveConfig(node_limit=limit), None) == expected
            res = branch_and_bound(U, SolveConfig(node_limit=limit))
            assert (res.objective, res.status, res.nodes_explored, res.ordering.perm) == expected

    @pytest.mark.parametrize(
        "n,seed,lb,node_limit", [(9, 9000080, True, None), (20, 20000103, False, 25_000)]
    )
    def test_deadline_polled_every_1024_nodes(self, monkeypatch, n, seed, lb, node_limit):
        # no time limit is reached, so only the count of clock reads shows the polls
        calls = []
        clock = time.perf_counter
        monkeypatch.setattr(time, "perf_counter", lambda: calls.append(None) or clock())
        res = branch_and_bound(
            interaction_matrix(generate(n, seed)),
            SolveConfig(use_lower_bound=lb, node_limit=node_limit),
        )
        polls = len(calls) - 3  # the start, the check before the first node, the wall time
        assert polls == res.nodes_explored // 1024
        assert polls > 0


class TestExportLp:
    def test_variable_count_n2(self, tmp_path):
        U = _matrix_from_points([(0.0, 0.0), (1.0, 0.0)])
        path = tmp_path / "n2.lp"
        export_lp(U, None, path)
        text = path.read_text()
        binaries = set(re.findall(r"x_v\d+_i\d+", text))
        assert len(binaries) + 1 == 5

    def test_sections_in_order(self, tmp_path):
        path = tmp_path / "n4.lp"
        export_lp(interaction_matrix(generate(4, 1)), None, path)
        lines = path.read_text().splitlines()
        keywords = [
            l for l in lines if l in ("Minimize", "Subject To", "Bounds", "Binaries", "End")
        ]
        assert keywords == ["Minimize", "Subject To", "Bounds", "Binaries", "End"]

    def test_row_counts(self, tmp_path):
        n = 5
        path = tmp_path / "n5.lp"
        export_lp(interaction_matrix(generate(n, 2)), None, path)
        text = path.read_text()
        assert len(re.findall(r"^ pos\d+:", text, re.M)) == n
        assert len(re.findall(r"^ vtx\d+:", text, re.M)) == n
        assert len(re.findall(r"^ bw_\d+_\d+:", text, re.M)) == n * (n - 1)
        assert len(re.findall(r"^ lb:", text, re.M)) == 1
        assert len(re.findall(r"^ sym:", text, re.M)) == 1

    def test_reinforcement_rows_toggle(self, tmp_path):
        U = interaction_matrix(generate(3, 99))
        on, off = tmp_path / "on.lp", tmp_path / "off.lp"
        export_lp(U, SolveConfig(), on)
        export_lp(U, SolveConfig(use_lower_bound=False, use_symmetry_breaking=False), off)
        on_lines = on.read_text().splitlines()
        off_lines = off.read_text().splitlines()
        added = [l for l in on_lines if l not in off_lines]
        assert len(added) == 2
        assert added[0].startswith(" lb:")
        assert added[1].startswith(" sym:")
        assert [l for l in on_lines if l not in added] == off_lines

    def test_long_rows_wrap(self, tmp_path):
        path = tmp_path / "n12.lp"
        export_lp(interaction_matrix(generate(12, 0)), None, path)
        assert all(len(l) <= 240 for l in path.read_text().splitlines())

    def test_rejects_nan_time_limit(self, tmp_path):
        path = tmp_path / "x.lp"
        with pytest.raises(ValueError):
            export_lp(interaction_matrix(generate(4, 1)), SolveConfig(time_limit=math.nan), path)
        assert not path.exists()

    def test_rejects_weight_without_finite_reciprocal(self, tmp_path):
        # 1.0 / 1e-320 overflows, so row bw_0_2 would read "- inf b"
        w = np.ones((3, 3)) - np.eye(3)
        w[0, 2] = w[2, 0] = 1e-320
        path = tmp_path / "x.lp"
        with pytest.raises(ValueError, match=r"u\[0\]\[2\]"):
            export_lp(InteractionMatrix.from_array(w), None, path)
        assert not path.exists()

    def test_rejects_single_vertex(self, tmp_path):
        with pytest.raises(ValueError):
            export_lp(
                InteractionMatrix.from_array(np.zeros((1, 1))), None, tmp_path / "x.lp"
            )


# Pair weights spanning 1e-26..1e26, whose reciprocals have the longest reprs.
EXTREME_WEIGHTS = (1e-26, 3.3e-20, 7.1e-15, 2.9e-09, 0.0055, 4200.0, 8.8e08, 1.7e14, 6.1e19, 1e26)


def _extreme_matrix():
    w = np.zeros((5, 5))
    w[np.triu_indices(5, 1)] = EXTREME_WEIGHTS
    return InteractionMatrix.from_array(w + w.T)


_LP_CONFIGS = {
    "default": None,
    "plain": SolveConfig(use_lower_bound=False, use_symmetry_breaking=False),
}

# Digests of export_lp output recorded before the writer stated each position
# sum once.  n = 12 and 60 wrap rows; n = 60 is the benchmark's instance.
PINNED_LP = [
    (2, 0, "default", "a89ae22353d85bdf71e26dcf2f63738e738b0216cb56f2559fb43b40da222371"),
    (2, 0, "plain", "5bfb98ff746d1dd80d91b892a8ae0da44678478874800e2e69cc54a37c61316e"),
    (5, 0, "default", "b95427867d156ac83b27935451140c15e369143c7603da2629449f1acc81c568"),
    (5, 0, "plain", "5f878591c7084cef7b81ecf62b8383b503a26137f0997b28ab055f5206e2ba69"),
    (12, 0, "default", "0441d9d5b7f910ec14c8d35ed91fe4a87bc882ccf09fee1584dc0b8319fac2b1"),
    (12, 0, "plain", "a69d7bd48355c59acfc919d689fcdd48f79516ad26ad12aa523c7c4b638d238d"),
    (60, 60000222, "default", "83b2d3d4785850a82637cf41cba59730f41d394ab436131b5f9d9e8c7886bceb"),
    (60, 60000222, "plain", "79b672be8dddfbc8f14c7224d2e625ba6f05eb1baf805a2114ebf0b7dddd3ede"),
    (5, None, "default", "021d20f94309772d931d4c4b9d7095c6ea7840c43a42545fb3419ef3c9ddd136"),
    (5, None, "plain", "deae617cd378fb78effdb229af9227853103f2c69666a10fb342c36664877321"),
]


@pytest.mark.parametrize(
    "n,seed,config,digest",
    PINNED_LP,
    ids=[f"n{n}-{'extreme' if s is None else s}-{c}" for n, s, c, _ in PINNED_LP],
)
def test_pinned_lp_bytes(tmp_path, n, seed, config, digest):
    U = _extreme_matrix() if seed is None else interaction_matrix(generate(n, seed))
    path = tmp_path / "model.lp"
    export_lp(U, _LP_CONFIGS[config], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestResultSerialization:
    def test_round_trip(self, tmp_path):
        res = branch_and_bound(interaction_matrix(generate(6, 4)))
        path = tmp_path / "res.json"
        save_result(res, path)
        back = load_result(path)
        assert back.objective == res.objective
        assert back.ordering == res.ordering
        assert back.status == res.status
        assert back.nodes_explored == res.nodes_explored
        assert result_to_json(back) == result_to_json(res)

    @pytest.mark.parametrize(
        "edit,field",
        [
            ({"schema": "other/9"}, "schema"),
            ("{not json", "document"),
            ("[]", "document"),
            ({"objective": None}, "objective"),
            ({"ordering": None}, "ordering"),
            ({"nodes": "7"}, "nodes"),
            ({"nodes": 7.0}, "nodes"),
            ({"nodes": True}, "nodes"),
            ({"nodes": -1}, "nodes"),
            ({"objective": math.inf}, "objective"),
            ({"objective": math.nan}, "objective"),
            ({"objective": "1.5"}, "objective"),
            ({"lower_bound": 2.0}, "lower_bound"),
            ({"lower_bound": -0.5}, "lower_bound"),
            ({"status": "banana"}, "status"),
            ({"wall_time_s": math.inf}, "wall_time_s"),
            ({"wall_time_s": -1.0}, "wall_time_s"),
            ({"ordering": [2.9, 1.2, 3]}, "ordering"),
            ({"ordering": [True, 2, 3]}, "ordering"),
            ({"ordering": [1, 1, 3]}, "ordering"),
        ],
        ids=[
            "wrong-tag", "invalid-json", "not-an-object", "missing-objective",
            "missing-ordering", "string-nodes", "float-nodes", "bool-nodes",
            "negative-nodes", "infinite-objective", "nan-objective", "string-objective",
            "bound-above-objective", "negative-bound", "unknown-status",
            "infinite-wall-time", "negative-wall-time", "float-positions",
            "bool-position", "non-bijection",
        ],
    )
    def test_schema_guard(self, edit, field):
        """Each case edits one field of a valid result document; None deletes it."""
        if isinstance(edit, str):
            text = edit
        else:
            doc = {
                "schema": "bandopt-result/1",
                "objective": 1.5,
                "lower_bound": 1.0,
                "status": STATUS_OPTIMAL,
                "nodes": 7,
                "wall_time_s": 0.25,
                "ordering": [2, 1, 3],
            }
            doc.update(edit)
            text = json.dumps({k: v for k, v in doc.items() if v is not None})
        with pytest.raises(SchemaError) as err:
            result_from_json(text)
        assert err.value.field_name == field

    @pytest.mark.parametrize(
        "edit,field",
        [
            (dict(objective=math.inf), "objective"),
            (dict(objective=-1.0, lower_bound=-2.0), "objective"),
            (dict(lower_bound=2.0), "lower_bound"),
            (dict(lower_bound=math.nan), "lower_bound"),
            (dict(status="banana"), "status"),
            (dict(nodes_explored=-1), "nodes"),
            (dict(nodes_explored=2.5), "nodes"),
            (dict(nodes_explored=True), "nodes"),
            (dict(wall_time=math.nan), "wall_time_s"),
            (dict(objective=True), "objective"),
            (dict(lower_bound=True), "lower_bound"),
            (dict(objective="1.5"), "objective"),
            (dict(wall_time=True), "wall_time_s"),
        ],
        ids=[
            "infinite-objective", "negative-objective", "bound-above-objective",
            "nan-bound", "unknown-status", "negative-nodes", "fractional-nodes",
            "bool-nodes", "nan-wall-time", "bool-objective", "bool-bound",
            "str-objective", "bool-wall-time",
        ],
    )
    def test_constructor_rejects(self, edit, field):
        """What result_from_json rejects, a solve cannot build either."""
        valid = dict(
            ordering=Ordering((2, 1, 3)),
            objective=1.5,
            lower_bound=1.0,
            status=STATUS_OPTIMAL,
            nodes_explored=7,
            wall_time=0.25,
        )
        with pytest.raises(SchemaError) as err:
            SolveResult(**{**valid, **edit})
        assert err.value.field_name == field
