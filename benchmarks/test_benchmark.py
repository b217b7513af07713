"""The benchmark's own checks: recorded outputs, brute-force optima, determinism.

    python3 -m pytest benchmarks/test_benchmark.py -q

Runs every workload once at seed 42 and brute-forces every recorded optimum
with n <= 10, so it takes a few minutes.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bandopt import brute_force, generate, interaction_matrix  # noqa: E402
from spans import NullTracer, Tracer, span_cost_s  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 42
SEARCH = ["certify", "paper_scale", "certify_reference", "paper_scale_reference"]
EXPECTED = {name: wl.load_expected(name, SEED) for name in SEARCH + ["heuristic"]}


def _recorded(name, rows):
    return [{k: r.get(k) for k in wl.WORKLOADS[name].record_keys} for r in rows]


def _n_and_seed(instance_id):
    n, seed = instance_id.removeprefix("inst-n").split("-s")
    return int(n), int(seed)


def test_recorded_optima_match_brute_force():
    checked = 0
    for name in SEARCH:
        for row in EXPECTED[name]:
            n, seed = _n_and_seed(row["id"])
            if n <= wl.BRUTE_FORCE_MAX_N and row["status"] == "optimal":
                U = interaction_matrix(generate(n, seed))
                assert brute_force(U).objective == row["objective"], row["id"]
                checked += 1
    assert checked >= len(EXPECTED["certify"])


def test_reference_suites_keep_their_seed_counts():
    cert = EXPECTED["certify_reference"]
    assert len(cert) == 12 and all(r["status"] == "optimal" for r in cert)
    assert sum(r["nodes"] for r in cert) == 5_035_495
    assert sum(1 for r in cert if r["nodes"] == 0) == 4
    paper = EXPECTED["paper_scale_reference"]
    assert len(paper) == 8 and sum(r["status"] == "optimal" for r in paper) == 4
    assert sum(r["nodes"] for r in paper) == 4_002_435


@pytest.mark.parametrize("name", SEARCH)
def test_search_pass_reproduces_recorded_run(name, tmp_path):
    """A second run gives the recorded run's objectives, statuses and exact node counts."""
    w = wl.WORKLOADS[name]
    _, rows, _ = w.timed_pass(SEED, tmp_path)
    assert _recorded(name, rows) == EXPECTED[name]
    problems, _ = w.check(SEED, rows, w.verify_sample(SEED, tmp_path), EXPECTED[name])
    assert problems == {}


def test_heuristic_pass_reproduces_recorded_outputs(tmp_path):
    w = wl.WORKLOADS["heuristic"]
    _, rows, kept = w.timed_pass(SEED, tmp_path)
    problems, _ = w.check(SEED, rows, kept, EXPECTED["heuristic"])
    assert problems == {}
    assert _recorded("heuristic", rows) == EXPECTED["heuristic"]


def test_traced_replay_matches_run_suite(tmp_path):
    w = wl.SearchWorkload("small", sizes=(8, 15), per_size=5, jobs=2, node_limit=20_000)
    _, rows, _ = w.timed_pass(SEED, tmp_path)
    tracer = Tracer()
    _, traced, solved = w.replay(SEED, tracer, tmp_path)
    assert traced == rows
    calls = [s.name for s in tracer.spans if "." in s.name]
    assert calls[:5] == [
        "instance.generate",
        "instance.interaction_matrix",
        "rcm.rcm_on_instance",
        "metrics.weighted_bandwidth",
        "exact.branch_and_bound",
    ]
    assert len(calls) == 5 * len(rows)
    assert w.check(SEED, traced, solved, None)[0] == {}


def test_span_cost_is_positive_and_small():
    cost = span_cost_s(calls=2000, repeats=3)
    assert 0 < cost < 1e-3


def test_gate_flags_wrong_outputs(tmp_path):
    w = wl.SearchWorkload("small", sizes=(8,), per_size=4, jobs=1, node_limit=None)
    _, rows, solved = w.replay(SEED, NullTracer(), tmp_path)
    bad = [dict(r) for r in rows]
    bad[0]["objective"] *= 1.5
    bad[1]["status"] = "feasible-timeout"  # no node budget, so the guard time limit stopped it
    bad[2]["objective"] = float("inf")
    problems, _ = w.check(SEED, bad, solved, rows)
    assert set(problems) == {bad[0]["id"], bad[1]["id"], bad[2]["id"]}


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "heuristic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
