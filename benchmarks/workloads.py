"""The benchmark's workloads: timed passes, traced replays and output checks.

Every workload drives ``bandopt`` through its public API only.  Instance
seeds follow ``run_suite``: ``seed0 + 1000003*n + r`` for replicate ``r``,
with ``seed0`` the benchmark's ``--seed``.

A *pass* is the workload's fixed list of calls; its outcomes (objectives,
statuses, node counts, LP sizes) are deterministic for a given seed.  A
*replay* makes the same calls one by one, in the order
``run_suite._solve_one`` makes them, each wrapped in a tracer span.
"""

from __future__ import annotations

import math
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from bandopt import (
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    SolveConfig,
    branch_and_bound,
    brute_force,
    export_lp,
    from_json,
    generate,
    interaction_matrix,
    rcm_on_instance,
    run_suite,
    theoretical_lower_bound,
    to_json,
    weighted_bandwidth,
)
from spans import NullTracer

SEED_STRIDE = 1_000_003  # run_suite's per-size seed stride
GUARD_TIME_LIMIT = 120.0  # per-solve wall limit; reaching it is a failure
VERIFY_PER_SIZE = 8  # replicates per size re-solved (and brute-forced, n <= 10) in every run
BRUTE_FORCE_MAX_N = 10
EXPECTED = Path(__file__).resolve().parent / "expected"


def instance_seed(seed0: int, n: int, r: int) -> int:
    return seed0 + SEED_STRIDE * n + r


def _weights_ok(U) -> bool:
    off = ~np.eye(U.n, dtype=bool)
    return bool(np.isfinite(U.u).all() and (U.u[off] > 0).all())


@dataclass
class Solved:
    """One replayed solve, kept for the output checks."""

    U: object
    obj_rcm: float
    result: object


@dataclass(frozen=True)
class SearchWorkload:
    """A ``run_suite`` call: generate, RCM warm start and branch and bound."""

    name: str
    sizes: tuple[int, ...]
    per_size: int
    jobs: int
    node_limit: int | None
    record_keys = ("id", "objective", "status", "nodes")

    def config(self) -> SolveConfig:
        return SolveConfig(time_limit=GUARD_TIME_LIMIT, node_limit=self.node_limit)

    def tasks(self) -> list[tuple[int, int]]:
        return [(n, r) for n in self.sizes for r in range(self.per_size)]

    def timed_pass(self, seed: int, workdir: Path):
        wall, rows, _ = self.suite_pass(seed)
        return wall, rows, {}

    def suite_pass(self, seed: int):
        """One ``run_suite`` call: its wall time, its rows and the summed solve times it reports."""
        cfg = self.config()
        t0 = perf_counter()
        report = run_suite(list(self.sizes), self.per_size, seed, cfg, jobs=self.jobs)
        wall = perf_counter() - t0
        rows = [
            {
                "id": r.id,
                "n": r.n,
                "seed": r.seed,
                "objective": r.opt,
                "obj_rcm": r.obj_rcm,
                "status": r.status,
                "nodes": r.nodes_on,
            }
            for r in report.rows
        ]
        return wall, rows, sum(r.wall_time_s for r in report.rows)

    def replay(self, seed: int, tracer, workdir: Path, tasks=None):
        cfg = self.config()
        rows, solved = [], {}
        t0 = perf_counter()
        with tracer.span("replay"):
            for n, r in self.tasks() if tasks is None else tasks:
                with tracer.span("solve_one"):
                    inst = tracer.call("instance.generate", generate, n, instance_seed(seed, n, r))
                    U = tracer.call("instance.interaction_matrix", interaction_matrix, inst)
                    warm = tracer.call("rcm.rcm_on_instance", rcm_on_instance, inst)
                    obj_rcm = tracer.call(
                        "metrics.weighted_bandwidth", weighted_bandwidth, U, warm
                    ).value
                    res = tracer.call(
                        "exact.branch_and_bound", branch_and_bound, U, cfg, warm_start=warm
                    )
                rows.append(
                    {
                        "id": inst.id,
                        "n": n,
                        "seed": inst.seed,
                        "objective": res.objective,
                        "obj_rcm": obj_rcm,
                        "status": res.status,
                        "nodes": res.nodes_explored,
                    }
                )
                solved[inst.id] = Solved(U, obj_rcm, res)
        return perf_counter() - t0, rows, solved

    def verify_sample(self, seed: int, workdir: Path) -> dict:
        """Re-solve the first replicates of every size so their orderings can be checked."""
        sample = [(n, r) for n, r in self.tasks() if r < VERIFY_PER_SIZE]
        return self.replay(seed, NullTracer(), workdir, tasks=sample)[2]

    def check(self, seed: int, rows: list[dict], solved: dict, expected: list[dict] | None):
        """Output gate.  Returns per-row problems and the quality summary."""
        problems: dict[str, list[str]] = {}
        if expected is not None and [e["id"] for e in expected] != [r["id"] for r in rows]:
            problems["suite"] = ["instance list differs from the recorded one"]
        recorded = {e["id"]: e for e in expected or []}
        gaps, brute_force_s = [], 0.0
        for row in rows:
            p = problems.setdefault(row["id"], [])
            try:
                rec = solved.get(row["id"])
                U = rec.U if rec else interaction_matrix(generate(row["n"], row["seed"]))
                lb = theoretical_lower_bound(U)
                p += self._row_problems(row, U, lb, rec, recorded.get(row["id"]))
                replicate = row["seed"] - instance_seed(seed, row["n"], 0)
                if (
                    row["status"] == STATUS_OPTIMAL
                    and row["n"] <= BRUTE_FORCE_MAX_N
                    and replicate < VERIFY_PER_SIZE
                ):
                    t0 = perf_counter()
                    oracle = brute_force(U).objective
                    brute_force_s += perf_counter() - t0
                    if oracle != row["objective"]:
                        p.append(f"certified objective differs from brute force {oracle!r}")
                proven = row["objective"] if row["status"] == STATUS_OPTIMAL else lb
                gaps.append((row["objective"] - proven) / row["objective"])
            except Exception as exc:  # a raised exception is a counted failure
                p.append(f"{type(exc).__name__}: {exc}")
        quality = {
            "certified_frac": sum(r["status"] == STATUS_OPTIMAL for r in rows) / len(rows),
            "open_gap": sum(gaps) / len(gaps) if gaps else math.nan,
            "brute_force_s": brute_force_s,
        }
        return {k: v for k, v in problems.items() if v}, quality

    def _row_problems(self, row, U, lb, rec, exp) -> list[str]:
        p = []
        obj, status = row["objective"], row["status"]
        if not _weights_ok(U):
            p.append("non-finite or non-positive interaction weight")
        if not (math.isfinite(obj) and math.isfinite(row["obj_rcm"])):
            p.append(f"non-finite objective {obj!r}")
        elif not lb <= obj <= row["obj_rcm"]:
            p.append(f"objective {obj!r} outside [lower bound {lb!r}, RCM {row['obj_rcm']!r}]")
        if status == STATUS_TIMEOUT:
            if self.node_limit is None or row["nodes"] < self.node_limit:
                p.append("stopped on the guard time limit instead of the node budget")
        elif status != STATUS_OPTIMAL:
            p.append(f"unknown status {status!r}")
        if rec is not None:
            res = rec.result
            again = (res.objective, res.status, res.nodes_explored, rec.obj_rcm)
            if again != (obj, status, row["nodes"], row["obj_rcm"]):
                p.append(f"re-solve gave {again}, timed pass gave {(obj, status, row['nodes'])}")
            if weighted_bandwidth(U, res.ordering).value != res.objective:
                p.append("returned ordering does not recompute to its objective")
        if exp is not None and any(exp[k] != row[k] for k in self.record_keys):
            p.append(f"differs from recorded {exp}")
        return p


def lp_counts(text: str) -> tuple[int, int]:
    """(variables, constraint rows) of an LP file written by ``export_lp``."""
    lines = text.split("\n")
    start, bounds = lines.index("Subject To"), lines.index("Bounds")
    binaries, end = lines.index("Binaries"), lines.index("End")
    rows = sum(1 for line in lines[start + 1 : bounds] if not line.startswith("  "))
    names = sum(len(line.split()) for line in lines[binaries + 1 : end])
    return names + 1, rows  # + the continuous bandwidth variable b


@dataclass(frozen=True)
class HeuristicWorkload:
    """No search: the gen / rcm / lp paths for systems too large to solve."""

    name: str
    sizes: tuple[int, ...]
    replicates: int
    lp_n: int
    record_keys = ("id", "rcm_objective", "lp_vars", "lp_rows", "lp_bytes")

    def timed_pass(self, seed: int, workdir: Path):
        return self.replay(seed, NullTracer(), workdir)

    def replay(self, seed: int, tracer, workdir: Path):
        rows, kept = [], {}
        t0 = perf_counter()
        with tracer.span("replay"):
            for n in self.sizes:
                for r in range(self.replicates):
                    with tracer.span("rcm_one"):
                        inst = tracer.call("instance.generate", generate, n, instance_seed(seed, n, r))
                        text = tracer.call("instance.to_json", to_json, inst)
                        back = tracer.call("instance.from_json", from_json, text)
                        U = tracer.call("instance.interaction_matrix", interaction_matrix, back)
                        order = tracer.call("rcm.rcm_on_instance", rcm_on_instance, back)
                        wb = tracer.call("metrics.weighted_bandwidth", weighted_bandwidth, U, order)
                    rows.append({"id": inst.id, "n": n, "seed": inst.seed, "rcm_objective": wb.value})
                    kept[inst.id] = (inst, back, U)
            for r in range(self.replicates):
                with tracer.span("lp_one"):
                    inst = tracer.call("instance.generate", generate, self.lp_n, instance_seed(seed, self.lp_n, r))
                    U = tracer.call("instance.interaction_matrix", interaction_matrix, inst)
                    path = workdir / f"{inst.id}.lp"
                    tracer.call("exact.export_lp", export_lp, U, None, path)
                rows.append(
                    {"id": inst.id + ".lp", "n": self.lp_n, "seed": inst.seed, "lp_bytes": path.stat().st_size}
                )
                kept[inst.id + ".lp"] = path
        return perf_counter() - t0, rows, kept

    def verify_sample(self, seed: int, workdir: Path) -> dict:
        return {}  # the timed pass keeps everything the checks need

    def check(self, seed: int, rows: list[dict], kept: dict, expected: list[dict] | None):
        problems: dict[str, list[str]] = {}
        if expected is not None and [e["id"] for e in expected] != [r["id"] for r in rows]:
            problems["suite"] = ["step list differs from the recorded one"]
        recorded = {e["id"]: e for e in expected or []}
        for row in rows:
            p = problems.setdefault(row["id"], [])
            try:
                if "lp_bytes" in row:
                    n = row["n"]
                    row["lp_vars"], row["lp_rows"] = lp_counts(kept[row["id"]].read_text(encoding="utf-8"))
                    want = (n * n + 1, 2 * n + n * (n - 1) + 2)
                    if (row["lp_vars"], row["lp_rows"]) != want:
                        p.append(f"LP has {row['lp_vars']} variables / {row['lp_rows']} rows, expected {want}")
                else:
                    inst, back, U = kept[row["id"]]
                    if back != inst:
                        p.append("from_json(to_json(instance)) differs from the instance")
                    if not _weights_ok(U):
                        p.append("non-finite or non-positive interaction weight")
                    if not (math.isfinite(row["rcm_objective"]) and row["rcm_objective"] > 0):
                        p.append(f"RCM weighted bandwidth {row['rcm_objective']!r} is not finite and positive")
                exp = recorded.get(row["id"])
                if exp is not None and any(v is not None and v != row.get(k) for k, v in exp.items()):
                    p.append(f"differs from recorded {exp}")
            except Exception as exc:  # a raised exception is a counted failure
                p.append(f"{type(exc).__name__}: {exc}")
        return {k: v for k, v in problems.items() if v}, {}


# The benchmark's workloads, as listed in BENCHMARK.json.
SUITE = (
    SearchWorkload("certify", sizes=(8,), per_size=3500, jobs=1, node_limit=None),
    SearchWorkload("paper_scale", sizes=(15, 20), per_size=100, jobs=2, node_limit=25_000),
    HeuristicWorkload("heuristic", sizes=(300, 1000), replicates=3, lp_n=60),
)
# Small fixed suites whose outputs are recorded for seed 42; too few
# instances for steady timings, so they are checked but not timed by the
# suite.
REFERENCE = (
    SearchWorkload("certify_reference", sizes=(10, 11, 12), per_size=4, jobs=1, node_limit=None),
    SearchWorkload("paper_scale_reference", sizes=(15, 20), per_size=4, jobs=2, node_limit=1_000_000),
)
WORKLOADS = {w.name: w for w in SUITE + REFERENCE}


def load_expected(name: str, seed: int) -> list[dict] | None:
    """Recorded outputs of workload ``name`` for ``seed``, if any were recorded."""
    path = EXPECTED / f"seed{seed}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    if name not in doc:
        return None
    keys = WORKLOADS[name].record_keys
    return [dict(zip(keys, values)) for values in doc[name]]


def record_expected(name: str, seed: int, rows: list[dict]) -> None:
    """Save ``rows`` as the recorded outputs of workload ``name`` for ``seed``."""
    path = EXPECTED / f"seed{seed}.json"
    doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    doc[name] = [[row.get(k) for k in WORKLOADS[name].record_keys] for row in rows]
    blocks = [
        f"{json.dumps(k)}: [\n" + ",\n".join(json.dumps(v) for v in doc[k]) + "\n]"
        for k in sorted(doc)
    ]
    EXPECTED.mkdir(exist_ok=True)
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def node_sizes() -> list[int]:
    """Instance sizes with a per-size node count in the per-layer metrics."""
    return sorted({n for w in SUITE if isinstance(w, SearchWorkload) for n in w.sizes})
