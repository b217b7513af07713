"""Benchmark harness tests: suite runs, summaries, CSV stability."""

import multiprocessing
import os
import subprocess
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from bandopt import harness
from bandopt.exact import STATUS_OPTIMAL, SolveConfig, branch_and_bound
from bandopt.instance import GenerationError, SchemaError, generate, interaction_matrix
from bandopt.rcm import rcm_on_instance
from bandopt.harness import (
    CSV_HEADER,
    GapReport,
    GapRow,
    load_report,
    report_from_csv,
    report_to_csv,
    run_suite,
    save_report,
    summarize,
)


# the worker tests need a pool, which run_suite starts only with two or more CPUs
_POOL = pytest.mark.skipif(harness._usable_cpus() < 2, reason="one usable CPU: run_suite starts no worker")


def _row(**overrides):
    base = dict(
        id="inst-n5-s1",
        n=5,
        seed=1,
        obj_rcm=3.0,
        opt=2.0,
        gap_percent=50.0,
        status=STATUS_OPTIMAL,
        nodes_on=10,
        nodes_off=20,
        wall_time_s=0.01,
    )
    base.update(overrides)
    return GapRow(**base)


def _cells(report):
    """Every field but the wall time, row by row in (n, replicate) order."""
    return [astuple(replace(r, wall_time_s=0.0)) for r in report.rows]


class TestRunSuite:
    def test_small_suite(self):
        report = run_suite([6, 8], per_size=3, seed0=1)
        assert len(report.rows) == 6
        assert [r.n for r in report.rows] == [6, 6, 6, 8, 8, 8]
        for r in report.rows:
            assert r.status == STATUS_OPTIMAL
            assert r.gap_percent >= 0.0
            assert r.opt <= r.obj_rcm
            assert r.id == f"inst-n{r.n}-s{r.seed}"
            assert r.nodes_off is None

    def test_seed_formula(self):
        report = run_suite([6], per_size=2, seed0=5)
        assert [r.seed for r in report.rows] == [5 + 1_000_003 * 6, 5 + 1_000_003 * 6 + 1]

    def test_gap_recomputable(self):
        report = run_suite([5, 7], per_size=2, seed0=3)
        for r in report.rows:
            assert r.gap_percent == pytest.approx(
                (r.obj_rcm - r.opt) / r.opt * 100.0, abs=1e-9
            )

    def test_ab_compare_fills_nodes_off(self):
        # the B arm is the exact same solve with the anchor restriction off;
        # reproduce both arms by hand and check the recorded node counts
        report = run_suite([7], per_size=2, seed0=1, ab_compare=True)
        for r in report.rows:
            inst = generate(7, r.seed)
            U = interaction_matrix(inst)
            warm = rcm_on_instance(inst)
            on = branch_and_bound(U, SolveConfig(), warm_start=warm)
            off = branch_and_bound(
                U, SolveConfig(use_symmetry_breaking=False), warm_start=warm
            )
            assert r.nodes_on == on.nodes_explored
            assert r.nodes_off == off.nodes_explored
            assert on.objective == off.objective == r.opt

    def test_deterministic_apart_from_wall_time(self):
        a = run_suite([5, 6], per_size=2, seed0=9)
        b = run_suite([5, 6], per_size=2, seed0=9)
        for ra, rb in zip(a.rows, b.rows):
            assert (ra.id, ra.n, ra.seed, ra.obj_rcm, ra.opt, ra.gap_percent,
                    ra.status, ra.nodes_on, ra.nodes_off) == (
                rb.id, rb.n, rb.seed, rb.obj_rcm, rb.opt, rb.gap_percent,
                rb.status, rb.nodes_on, rb.nodes_off)

    def test_jobs_match_serial(self):
        serial = run_suite([5, 6], per_size=2, seed0=4, ab_compare=True)
        for jobs in (2, 3):
            with_jobs = run_suite([5, 6], per_size=2, seed0=4, ab_compare=True, jobs=jobs)
            assert _cells(with_jobs) == _cells(serial)

    def test_more_jobs_than_tasks(self):
        serial = run_suite([5], per_size=2, seed0=6)
        assert _cells(run_suite([5], per_size=2, seed0=6, jobs=8)) == _cells(serial)

    @_POOL
    def test_no_worker_outlives_suite(self):
        run_suite([5, 6], per_size=2, seed0=4, jobs=2)
        assert multiprocessing.active_children() == []

    @_POOL
    def test_worker_error_reaches_caller_and_no_worker_outlives_it(self):
        # replicate 0 gets seed -1, so generate fails inside a worker
        with pytest.raises(SchemaError) as err:
            run_suite([5], per_size=4, seed0=-5_000_016, jobs=2)
        assert err.value.field_name == "seed"
        assert multiprocessing.active_children() == []

    @_POOL
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_pool_under_start_method(self, method):
        # a fresh interpreter, since the start method is set once per process
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        code = f"""
import multiprocessing
from dataclasses import astuple, replace
from bandopt.harness import run_suite
from bandopt.instance import SchemaError

if __name__ == "__main__":
    multiprocessing.set_start_method({method!r})
    cells = lambda report: [astuple(replace(r, wall_time_s=0.0)) for r in report.rows]
    assert cells(run_suite([6, 8], 3, 1, jobs=2)) == cells(run_suite([6, 8], 3, 1))
    try:
        run_suite([5], 4, seed0=-5_000_016, jobs=2)
    except SchemaError as err:
        assert err.field_name == "seed", err.field_name
    else:
        raise AssertionError("no SchemaError")
    assert multiprocessing.active_children() == []
"""
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)

    def test_import_starts_no_pool_machinery(self):
        # the pool's modules load only when run_suite needs workers
        code = "import sys, bandopt; print(sorted({'concurrent', 'multiprocessing'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

    def test_sizes_solved_in_ascending_order(self, monkeypatch):
        calls = []
        solve_one = harness._solve_one

        def recording_solve_one(n, replicate, *args):
            calls.append((n, replicate))
            return solve_one(n, replicate, *args)

        monkeypatch.setattr(harness, "_solve_one", recording_solve_one)
        report = run_suite([6, 5], per_size=2, seed0=3)
        # the rows are the solves in the order they ran: n = 5 first
        assert calls == [(5, 0), (5, 1), (6, 0), (6, 1)]
        assert [(r.n, r.seed) for r in report.rows] == [
            (n, 3 + 1_000_003 * n + replicate) for n, replicate in calls
        ]

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_suite([5], per_size=1, seed0=0, jobs=0)

    @pytest.mark.parametrize("jobs", [True, 2.5, 2.0])
    def test_non_int_jobs_rejected(self, jobs):
        with pytest.raises(ValueError):
            run_suite([5], per_size=1, seed0=0, jobs=jobs)

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_suite([], per_size=1, seed0=0)

    def test_repeated_size_rejected(self):
        # a repeated size would return, and summarize would count, each instance twice
        with pytest.raises(ValueError):
            run_suite([5, 5], per_size=2, seed0=42)

    def test_zero_per_size_rejected(self):
        with pytest.raises(ValueError):
            run_suite([5], per_size=0, seed0=0)

    @pytest.mark.parametrize("per_size", [True, 1.5, 2.0])
    def test_non_int_per_size_rejected(self, per_size):
        # True ran one replicate, 1.5 raised a bare TypeError
        with pytest.raises(ValueError, match="^per_size "):
            run_suite([5], per_size=per_size, seed0=0)

    @pytest.mark.parametrize("size", [5.0, True, np.int64(5)])
    def test_non_int_size_rejected(self, size):
        # 5.0 was blamed on its seed, 5000015.0
        with pytest.raises(ValueError, match="^sizes "):
            run_suite([size], per_size=1, seed0=0)

    def test_generation_failure_names_instance(self, monkeypatch):
        def failing_generate(n, seed):
            raise GenerationError("no room")

        monkeypatch.setattr(harness, "generate", failing_generate)
        with pytest.raises(GenerationError, match=r"^instance n=5 seed=5000018: no room$") as err:
            run_suite([5], per_size=1, seed0=3)
        assert str(err.value.__cause__) == "no room"

    def test_timeout_recorded_not_dropped(self):
        cfg = SolveConfig(node_limit=50, use_lower_bound=False)
        report = run_suite([9], per_size=2, seed0=2, cfg=cfg)
        assert len(report.rows) == 2
        for r in report.rows:
            assert r.status == "feasible-timeout"


class TestSummarize:
    def test_single_row_mean(self):
        summary = summarize(GapReport(rows=(_row(gap_percent=50.0),)))
        assert summary["overall"]["mean_gap_percent"] == 50.0

    def test_mean_and_median_of_two(self):
        rows = (_row(gap_percent=0.0), _row(gap_percent=50.0, seed=2))
        summary = summarize(GapReport(rows=rows))
        assert summary["overall"]["mean_gap_percent"] == 25.0
        assert summary["overall"]["median_gap_percent"] == 25.0

    def test_node_reduction(self):
        rows = (_row(nodes_on=10, nodes_off=20),)
        summary = summarize(GapReport(rows=rows))
        assert summary["overall"]["mean_node_reduction_percent"] == 50.0

    def test_node_reduction_none_without_ab(self):
        rows = (_row(nodes_off=None),)
        summary = summarize(GapReport(rows=rows))
        assert summary["overall"]["mean_node_reduction_percent"] is None

    def test_per_size_keys(self):
        rows = (_row(), _row(n=7, id="inst-n7-s1"))
        summary = summarize(GapReport(rows=rows))
        assert set(summary["per_size"]) == {"5", "7"}

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            summarize(GapReport(rows=()))

    def test_desk_scale_mean_gap_positive(self):
        report = run_suite([6, 7], per_size=3, seed0=42)
        assert summarize(report)["overall"]["mean_gap_percent"] > 0.0


class TestCsv:
    def test_header(self):
        text = report_to_csv(GapReport(rows=()))
        assert text == ",".join(CSV_HEADER) + "\n"

    def test_round_trip_byte_identical(self):
        report = run_suite([5, 6], per_size=2, seed0=8, ab_compare=True)
        text = report_to_csv(report)
        assert report_to_csv(report_from_csv(text)) == text

    def test_file_round_trip(self, tmp_path):
        report = run_suite([5], per_size=2, seed0=8)
        path = tmp_path / "report.csv"
        save_report(report, path)
        again = load_report(path)
        assert report_to_csv(again) == report_to_csv(report)

    def test_missing_nodes_off_is_empty_field(self):
        text = report_to_csv(GapReport(rows=(_row(nodes_off=None),)))
        assert text.splitlines()[1].split(",")[8] == ""

    def test_twelve_significant_digits(self):
        row = _row(obj_rcm=1.2345678901234567)
        text = report_to_csv(GapReport(rows=(row,)))
        assert text.splitlines()[1].split(",")[3] == "1.23456789012"

    def test_bad_header_rejected(self):
        crlf = report_to_csv(GapReport(rows=(_row(),))).replace("\n", "\r\n")
        for text in ("id,n\n", crlf):  # a CRLF file's header ends in CR
            with pytest.raises(SchemaError) as err:
                report_from_csv(text)
            assert err.value.field_name == "document"

    def test_bad_row_width_rejected(self):
        row = report_to_csv(GapReport(rows=(_row(),))).splitlines()[1]
        for line in ("inst,5", row + ",0"):  # a short row and a long one
            with pytest.raises(SchemaError) as err:
                report_from_csv(",".join(CSV_HEADER) + "\n" + line + "\n")
            assert err.value.field_name == "document"

    @pytest.mark.parametrize(
        "column, cell",
        [
            ("n", "1"),
            ("seed", "-1"),
            ("seed", str(2**64)),
            ("obj_rcm", "inf"),
            ("opt", "nan"),
            ("opt", "0"),
            ("gap_percent", "-inf"),
            ("status", "bogus"),
            ("nodes_on", "-7"),
            ("nodes_off", "-1"),
            ("wall_time_s", "-1"),
            ("wall_time_s", "nan"),
            # cells that their column's parser rejects
            ("n", "abc"),
            ("n", "True"),
            ("obj_rcm", "x"),
            ("nodes_off", "1.5"),
        ],
    )
    def test_bad_cell_names_its_column(self, column, cell):
        cells = report_to_csv(GapReport(rows=(_row(),))).splitlines()[1].split(",")
        cells[CSV_HEADER.index(column)] = cell
        with pytest.raises(SchemaError) as err:
            report_from_csv(",".join(CSV_HEADER) + "\n" + ",".join(cells) + "\n")
        assert err.value.field_name == column

    @pytest.mark.parametrize(
        "column, value",
        [
            ("opt", 10**400),  # float() cannot hold it, so it is not finite
            ("obj_rcm", -(10**400)),
            ("wall_time_s", 10**400),
            ("n", np.int64(5)),
            ("seed", True),
            ("id", 5),
            ("nodes_on", 10**5000),  # str() cannot write it
        ],
        ids=["opt-past-float-range", "obj-rcm-past-float-range", "wall-time-past-float-range",
             "numpy-n", "bool-seed", "int-id", "nodes-on-past-digit-limit"],
    )
    def test_constructor_rejects(self, column, value):
        with pytest.raises(SchemaError) as err:
            _row(**{column: value})
        assert err.value.field_name == column

    def test_int_in_float_column_round_trips(self):
        # written as str(), 10**20 read back as 1e20, which writes "1e+20"
        text = report_to_csv(GapReport(rows=(_row(obj_rcm=10**20, gap_percent=5 * 10**21),)))
        assert report_to_csv(report_from_csv(text)) == text

    @pytest.mark.parametrize("bad_id", ["a,b", "a\rb", "a\nb"])
    def test_id_that_would_split_the_row_rejected(self, bad_id):
        # such an id would write a row that report_from_csv cannot read back
        with pytest.raises(SchemaError) as err:
            _row(id=bad_id)
        assert err.value.field_name == "id"

    def test_undecodable_file_rejected(self, tmp_path):
        # SchemaError is a ValueError, like the other malformed-report errors;
        # a bare UnicodeDecodeError is one too, so the type is named
        path = tmp_path / "report.csv"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(SchemaError) as err:
            load_report(path)
        assert err.value.field_name == "document"
