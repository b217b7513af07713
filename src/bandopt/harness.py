"""Benchmark driver: heuristic-vs-exact gap studies over generated suites.

Generates seeded instance suites, solves each with the reverse
Cuthill-McKee heuristic and the exact branch-and-bound, and assembles
per-instance gap rows plus aggregate statistics.  Reports round-trip
through CSV byte-identically.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import astuple, dataclass, fields, replace
from functools import partial
from pathlib import Path

from .exact import STATUS_OPTIMAL, STATUSES, SolveConfig, branch_and_bound
from .instance import (
    GenerationError,
    SchemaError,
    _check,
    _is_finite,
    _is_int,
    _read_doc,
    _seed_rule,
    generate,
    interaction_matrix,
)
from .metrics import rcm_gap, weighted_bandwidth
from .rcm import rcm_on_instance

# spread replicate seeds far apart per size so suites never collide
_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class GapRow:
    """One instance's heuristic-vs-optimal comparison.

    ``nodes_on`` counts branch-and-bound nodes with the anchor-position
    restriction active; ``nodes_off`` is the rerun without it (None when
    the A/B comparison was not requested).  ``opt`` is the best objective
    found; ``status`` says whether it is proven optimal.

    Construction checks each cell and raises SchemaError naming its CSV
    column: a str id free of ``,``, CR and LF; an int ``n >= 2``; a 64-bit
    unsigned int seed; a known status; int node counts >= 0 (``nodes_off``
    may be None); finite numbers, with ``opt > 0`` and ``wall_time_s >= 0``.
    """

    id: str
    n: int
    seed: int
    obj_rcm: float
    opt: float
    gap_percent: float
    status: str
    nodes_on: int
    nodes_off: int | None
    wall_time_s: float

    def __post_init__(self):
        id_, off, wall = self.id, self.nodes_off, self.wall_time_s
        _check(
            ("id", isinstance(id_, str) and set(",\r\n").isdisjoint(id_), "a str free of , CR LF", id_),
            ("n", _is_int(self.n) and self.n >= 2, "an int >= 2", self.n),
            _seed_rule(self.seed),
            ("obj_rcm", _is_finite(self.obj_rcm), "a finite number", self.obj_rcm),
            ("opt", _is_finite(self.opt) and self.opt > 0, "a finite number > 0", self.opt),
            ("gap_percent", _is_finite(self.gap_percent), "a finite number", self.gap_percent),
            ("status", self.status in STATUSES, "a known status", self.status),
            ("nodes_on", _is_int(self.nodes_on) and self.nodes_on >= 0, "an int >= 0", self.nodes_on),
            ("nodes_off", off is None or _is_int(off) and off >= 0, "empty or an int >= 0", off),
            ("wall_time_s", _is_finite(wall) and wall >= 0, "a finite number >= 0", wall),
        )


CSV_HEADER = tuple(f.name for f in fields(GapRow))


def _optional_int(cell: str) -> int | None:
    return None if cell == "" else int(cell)


# one parser per CSV_HEADER column
_PARSERS = (str, int, int, float, float, float, str, int, _optional_int, float)


@dataclass(frozen=True)
class GapReport:
    """Ordered collection of gap rows, stable by (n, replicate)."""

    rows: tuple[GapRow, ...]


def _solve_one(n: int, replicate: int, seed0: int, cfg: SolveConfig, ab_compare: bool) -> GapRow:
    seed = seed0 + _SEED_STRIDE * n + replicate
    try:
        inst = generate(n, seed)
    except GenerationError as exc:
        raise GenerationError(f"instance n={n} seed={seed}: {exc}") from exc
    U = interaction_matrix(inst)
    heuristic = rcm_on_instance(inst)
    obj_rcm = weighted_bandwidth(U, heuristic).value
    result = branch_and_bound(U, cfg, warm_start=heuristic)
    nodes_off = None
    if ab_compare:
        off_cfg = replace(cfg, use_symmetry_breaking=False)
        nodes_off = branch_and_bound(U, off_cfg, warm_start=heuristic).nodes_explored
    return GapRow(
        id=inst.id,
        n=n,
        seed=seed,
        obj_rcm=obj_rcm,
        opt=result.objective,
        gap_percent=rcm_gap(obj_rcm, result.objective),
        status=result.status,
        nodes_on=result.nodes_explored,
        nodes_off=nodes_off,
        wall_time_s=result.wall_time,
    )


def run_suite(
    sizes: list[int],
    per_size: int,
    seed0: int,
    cfg: SolveConfig | None = None,
    ab_compare: bool = False,
    jobs: int = 1,
) -> GapReport:
    """Generate and solve a suite, one row per (size, replicate).

    Each instance gets seed ``seed0 + 1000003*n + replicate``.  Timeouts
    are recorded in the row's status, never dropped; generation failures
    abort the suite with the failing instance identified.  With
    ``ab_compare`` every instance is solved twice to fill ``nodes_off``.
    The tasks are ordered by (n, replicate) with the sizes ascending, and
    the rows come back in that order however many workers solve them.

    Args:
        sizes: instance sizes to cover, ints, at least one, none repeated
            (a repeated size would solve and count its instances twice).
        per_size: replicates per size, an int >= 1.
        seed0: base seed for the whole suite.
        cfg: solver configuration (default: SolveConfig()).
        ab_compare: also solve with the anchor restriction off.
        jobs: an int >= 1.  The suite's solves are independent, so
            ``jobs = k`` maps them over a pool of worker processes, one
            per task or per CPU this process may use if either is fewer
            than k, started by the platform's default method (fork on
            Linux before Python 3.14; spawn and forkserver give the same
            rows and errors).  Every row but its ``wall_time_s`` is the one a
            serial run gives.  The pool is shut down, its pending tasks
            cancelled and its running ones awaited, before run_suite
            returns or raises.  With one worker the solves run one after
            another on the calling thread.
    """
    if not (sizes and all(map(_is_int, sizes)) and len(set(sizes)) == len(sizes)):
        raise ValueError(f"sizes must be one or more distinct ints, got {sizes!r}")
    if not (_is_int(per_size) and per_size >= 1):
        raise ValueError(f"per_size must be an int >= 1, got {per_size!r}")
    if not (_is_int(jobs) and jobs >= 1):
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    if cfg is None:
        cfg = SolveConfig()
    tasks = [(n, r) for n in sorted(sizes) for r in range(per_size)]
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers == 1:
        return GapReport(rows=tuple(_solve_one(n, r, seed0, cfg, ab_compare) for n, r in tasks))
    # imported here: at module level they would slow every `import bandopt`
    from concurrent.futures import ProcessPoolExecutor

    solve = partial(_solve_one, seed0=seed0, cfg=cfg, ab_compare=ab_compare)
    pool = ProcessPoolExecutor(workers)
    try:
        # one task at a time: chunks of 4, 10 or 25 timed alike on n = 15/20 suites
        rows = tuple(pool.map(solve, *zip(*tasks)))
    finally:
        pool.shutdown(cancel_futures=True)
    return GapReport(rows=rows)


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says; else all of them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


def _aggregate(rows: list[GapRow]) -> dict:
    gaps = [r.gap_percent for r in rows]
    reductions = [
        (r.nodes_off - r.nodes_on) / r.nodes_off * 100.0
        for r in rows
        if r.nodes_off is not None and r.nodes_off > 0
    ]
    return {
        "count": len(rows),
        "optimal": sum(1 for r in rows if r.status == STATUS_OPTIMAL),
        "mean_gap_percent": statistics.fmean(gaps),
        "median_gap_percent": statistics.median(gaps),
        "mean_node_reduction_percent": statistics.fmean(reductions) if reductions else None,
        "mean_wall_time_s": statistics.fmean(r.wall_time_s for r in rows),
    }


def summarize(report: GapReport) -> dict:
    """Per-size and overall aggregates of a gap report.

    Node reduction is (nodes_off - nodes_on)/nodes_off * 100, averaged
    over rows where the A/B comparison ran.
    """
    if not report.rows:
        raise ValueError("cannot summarize an empty report")
    rows = list(report.rows)
    per_size = {}
    for n in sorted({r.n for r in rows}):
        per_size[str(n)] = _aggregate([r for r in rows if r.n == n])
    return {"per_size": per_size, "overall": _aggregate(rows)}


def _fmt(parse, value: float | int | str | None) -> str:
    """A cell as its column's parser reads it back; floats to 12 significant digits."""
    if value is None:
        return ""
    return "%.12g" % value if parse is float else str(value)


def report_to_csv(report: GapReport) -> str:
    lines = [",".join(CSV_HEADER)]
    lines.extend(",".join(map(_fmt, _PARSERS, astuple(r))) for r in report.rows)
    return "\n".join(lines) + "\n"


def report_from_csv(text: str) -> GapReport:
    """Parse a report; a wrong header or row width raises SchemaError("document")."""
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != ",".join(CSV_HEADER):
        raise SchemaError("document", f"expected CSV header {','.join(CSV_HEADER)!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_HEADER):
            raise SchemaError("document", f"row has {len(cells)} fields, expected {len(CSV_HEADER)}")
        values = []
        for column, parse, cell in zip(CSV_HEADER, _PARSERS, cells):
            try:
                values.append(parse(cell))
            except ValueError:
                raise SchemaError(column, f"{column} cannot be parsed from {cell!r}") from None
        rows.append(GapRow(*values))
    return GapReport(rows=tuple(rows))


def save_report(report: GapReport, path: str | Path) -> None:
    Path(path).write_text(report_to_csv(report), encoding="utf-8")


def load_report(path: str | Path) -> GapReport:
    return report_from_csv(_read_doc(path))


def save_summary(summary: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
