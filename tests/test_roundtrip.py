"""Round-trip properties: every value that constructs reads back as itself.

Each property draws a valid value and then replaces a few of its fields with
values from a domain wider than the type allows: bools, ints of any size up
to 10**5000, past what str() writes, NaN and infinities, numpy scalars and
strings.  Whatever still constructs must read back equal from what its writer
wrote; whatever does not must be refused with SchemaError, never with another
exception.
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandopt.exact import (
    STATUS_OPTIMAL,
    STATUSES,
    SolveConfig,
    SolveResult,
    result_from_json,
    result_to_json,
)
from bandopt.harness import GapReport, GapRow, report_from_csv, report_to_csv
from bandopt.instance import (
    GenParams,
    Instance,
    SchemaError,
    from_json,
    generate,
    to_json,
)
from bandopt.metrics import Ordering, ordering_from_json, ordering_to_json

_WIDE = st.one_of(
    st.booleans(),
    st.integers(),
    st.sampled_from([10**5000, 10**400, -(10**400), 2**53 + 1, 2**64, 10**20]),
    st.floats(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.text(max_size=4),
    st.none(),
)
_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(10**20), 10**20))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def _widen(draw, fields: dict, keys: list[str]) -> dict:
    """``fields`` with up to two of ``keys`` replaced by values from the wide domain."""
    for key in draw(st.lists(st.sampled_from(keys), max_size=2)):
        fields[key] = draw(_WIDE)
    return fields


@st.composite
def _instance_fields(draw):
    n = draw(st.integers(2, 6))
    coords = st.lists(_NUMBERS, min_size=2, max_size=2).map(tuple)
    sites = draw(st.lists(coords, min_size=n, max_size=n))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    bonds = {(min(b), max(b)) for b in draw(st.lists(ends, max_size=6)) if b[0] != b[1]}
    fields = dict(id=draw(st.text(max_size=8)), seed=draw(st.integers(0, 2**64 - 1)), L=1.0, r_min=0.5)
    fields = _widen(draw, fields, ["id", "seed", "L", "r_min"])
    if draw(st.integers(0, 3)) == 0:  # a params that is not a GenParams: its fields, None, ...
        fields["params"] = draw(st.one_of(st.tuples(_NUMBERS, _NUMBERS), _WIDE))
    if draw(st.booleans()):  # one coordinate or one bond end from the wide domain
        k, c = draw(st.integers(0, n - 1)), draw(st.integers(0, 1))
        sites[k] = sites[k][:c] + (draw(_WIDE),) + sites[k][c + 1 :]
    if draw(st.booleans()):
        bonds.add((draw(st.one_of(st.integers(0, n - 1), _WIDE)), draw(_WIDE)))
    if draw(st.booleans()):  # a whole site or a whole bond from the wide domain
        if draw(st.booleans()):
            sites[draw(st.integers(0, n - 1))] = draw(_WIDE)
        else:
            bonds.add(draw(_WIDE))
    sites = draw(st.sampled_from([tuple(sites), sites]))  # the list is refused
    bonds = draw(st.sampled_from([frozenset(bonds), tuple(bonds)]))  # the tuple is refused
    return fields, sites, bonds


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(_instance_fields())
    def test_instance(self, drawn):
        fields, sites, bonds = drawn
        try:
            params = fields["params"] if "params" in fields else GenParams(fields["L"], fields["r_min"])
            inst = Instance(id=fields["id"], seed=fields["seed"], params=params, sites=sites, bonds=bonds)
        except SchemaError:
            return
        assert from_json(to_json(inst)) == inst

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ordering(self, data):
        valid = data.draw(st.permutations(range(1, data.draw(st.integers(1, 8)) + 1)))
        perm = list(valid)
        for k in data.draw(st.lists(st.integers(0, len(perm) - 1), max_size=2)):
            perm[k] = data.draw(st.one_of(_WIDE, st.sampled_from([np.int64(valid[k]), float(valid[k])])))
        container = data.draw(st.sampled_from([tuple, list]))  # the list is refused
        try:
            ordering = Ordering(container(perm))
        except SchemaError:
            return
        hash(ordering)
        assert ordering_from_json(ordering_to_json(ordering)) == ordering

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_solve_result(self, data):
        draw = data.draw
        status = draw(st.sampled_from(STATUSES))
        objective = draw(st.one_of(st.floats(0, 1e308), st.integers(0, 10**20)))
        lower_bound = objective if status == STATUS_OPTIMAL else draw(st.floats(0, 1)) * objective
        fields = dict(
            ordering=Ordering((2, 1, 3)),
            objective=objective,
            lower_bound=lower_bound,
            status=status,
            nodes_explored=draw(st.integers(0, 10**30)),
            wall_time=draw(_NUMBERS.map(abs)),
        )
        keys = ["ordering", "objective", "lower_bound", "status", "nodes_explored", "wall_time"]
        fields = _widen(draw, fields, keys)
        try:
            result = SolveResult(**fields)
        except SchemaError:
            return
        assert result_from_json(result_to_json(result)) == result

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_gap_report(self, data):
        draw = data.draw
        rows = []
        for _ in range(draw(st.integers(0, 3))):
            fields = dict(
                id=draw(st.text(max_size=8)),
                n=draw(st.integers(2, 10**6)),
                seed=draw(st.integers(0, 2**64 - 1)),
                obj_rcm=draw(_NUMBERS),
                opt=draw(st.one_of(st.floats(1e-300, 1e308), st.integers(1, 10**30))),
                gap_percent=draw(_NUMBERS),
                status=draw(st.sampled_from(STATUSES)),
                nodes_on=draw(st.integers(0, 10**30)),
                nodes_off=draw(st.one_of(st.none(), st.integers(0, 10**30))),
                wall_time_s=draw(_NUMBERS.map(abs)),
            )
            try:
                rows.append(GapRow(**_widen(draw, fields, list(fields))))
            except SchemaError:
                pass
        text = report_to_csv(GapReport(rows=tuple(rows)))
        assert report_to_csv(report_from_csv(text)) == text


def _replace_one(draw, doc: dict) -> dict:
    """``doc`` with one field, nested or not, replaced by arbitrary JSON."""
    paths = [(key,) for key in doc if key != "schema"]
    for key, value in doc.items():
        if isinstance(value, dict):
            paths += [(key, k) for k in value]
        elif isinstance(value, list) and value:
            paths += [(key, draw(st.integers(0, len(value) - 1)))]
            if isinstance(value[0], list):
                paths += [(key, 0, draw(st.integers(0, 1)))]
    *parents, last = draw(st.sampled_from(paths))
    node = doc
    for step in parents:
        node = node[step]
    node[last] = draw(_JSON)
    return doc


class TestArbitraryField:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_instance_document(self, data):
        n = data.draw(st.integers(2, 8))
        doc = _replace_one(data.draw, json.loads(to_json(generate(n, n))))
        try:
            inst = from_json(json.dumps(doc))
        except SchemaError:
            return
        assert from_json(to_json(inst)) == inst

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_result_document(self, data):
        result = SolveResult(Ordering((2, 1, 3)), 1.5, 1.0, STATUSES[1], 7, 0.25)
        doc = _replace_one(data.draw, json.loads(result_to_json(result)))
        try:
            back = result_from_json(json.dumps(doc))
        except SchemaError:
            return
        assert result_from_json(result_to_json(back)) == back

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_ordering_document(self, data):
        doc = _replace_one(data.draw, json.loads(ordering_to_json(Ordering((2, 1, 3)))))
        try:
            back = ordering_from_json(json.dumps(doc))
        except SchemaError:
            return
        assert ordering_from_json(ordering_to_json(back)) == back


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
def test_lowered_digit_limit_refused_at_construction():
    """Under str()'s lowest digit limit, what constructs still writes: a
    too-long int is refused by the constructor, never later by a writer."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        result = dict(
            ordering=Ordering((2, 1, 3)),
            objective=1.5,
            lower_bound=1.5,
            status=STATUS_OPTIMAL,
            nodes_explored=10**300,
            wall_time=0.25,
        )
        row = dict(
            id="a", n=3, seed=0, obj_rcm=2.0, opt=1.5, gap_percent=1.0,
            status=STATUS_OPTIMAL, nodes_on=10**300, nodes_off=None, wall_time_s=0.25,
        )
        # 300 digits construct, write and read back
        built = SolveResult(**result)
        assert result_from_json(result_to_json(built)) == built
        text = report_to_csv(GapReport(rows=(GapRow(**row),)))
        assert report_to_csv(report_from_csv(text)) == text
        assert SolveConfig(node_limit=10**300).node_limit == 10**300
        # 700 digits: str() cannot write them
        for build, field in (
            (lambda: SolveResult(**{**result, "nodes_explored": 10**700}), "nodes"),
            (lambda: GapRow(**{**row, "nodes_on": 10**700}), "nodes_on"),
            (lambda: SolveConfig(node_limit=10**700), "node_limit"),
        ):
            with pytest.raises(SchemaError) as err:
                build()
            assert err.value.field_name == field
    finally:
        sys.set_int_max_str_digits(limit)
