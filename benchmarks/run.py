"""bandopt benchmark: end-to-end and per-layer metrics over seeded workloads.

Run one workload (the last stdout line is a JSON result):

    python3 benchmarks/run.py --workload certify --seed 42 --seconds 30 --trace 0

``--workload all`` runs certify, paper_scale and heuristic, each in its own
process, and exits non-zero if any output check fails.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` replays the workload with
spans around every public call and reports the per-layer metrics.  See
README.md in this directory for the workloads and the layer map.

The program under test is imported from ``src/`` of the checkout that holds
this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
PROBES_PER_SLOT = 3  # set-up probes before each timed pass and after the last
MIN_PASSES = 2


def _use_checkout_sources() -> bool:
    if not (SRC / "bandopt" / "__init__.py").is_file():
        print(f"run.py: bandopt sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def _setup_probes(workload: str, seed: int) -> list[float]:
    """Wall times of fresh processes that each import bandopt and build the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(PROBES_PER_SLOT):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _measure(w, seed: int, seconds: float, workdir: Path):
    """Repeat the timed pass while another one fits in ``seconds``; at least twice.

    Set-up probes run before every pass and after the last one, so that
    ``setup_s`` samples the whole run rather than one moment of it.
    """
    walls, setups, rows, kept, repeat_ok = [], [], None, None, True
    start = perf_counter()
    while True:
        setups += _setup_probes(w.name, seed)
        wall, out, k = w.timed_pass(seed, workdir)
        walls.append(wall)
        if rows is None:
            rows, kept = out, k
        elif out != rows:
            repeat_ok = False
        if len(walls) >= MIN_PASSES and perf_counter() - start + wall > seconds:
            setups += _setup_probes(w.name, seed)
            return walls, setups, rows, kept, repeat_ok


def _per_layer(w, tracer, rows, overhead_pct, harness) -> dict:
    from workloads import node_sizes

    busy = tracer.busy()

    def module(name: str) -> float:
        return sum(v for k, v in busy.items() if k.startswith(name + "."))

    solves = [r for r in rows if "nodes" in r]
    nodes = sum(r["nodes"] for r in solves)
    bb_s = busy.get("exact.branch_and_bound", 0.0)
    m = {
        "instance.generate_s": (busy["instance.generate"], "s"),
        "instance.interaction_matrix_s": (busy["instance.interaction_matrix"], "s"),
        "instance.busy_s": (module("instance"), "s"),
        "rcm.rcm_on_instance_s": (busy["rcm.rcm_on_instance"], "s"),
        "metrics.weighted_bandwidth_s": (busy["metrics.weighted_bandwidth"], "s"),
        "exact.busy_s": (module("exact"), "s"),
        "exact.nodes": (nodes, "count"),
    }
    for n in node_sizes():
        m[f"exact.nodes.n{n}"] = (sum(r["nodes"] for r in solves if r["n"] == n), "count")
    m.update({
        "exact.root_certified": (sum(1 for r in solves if r["status"] == "optimal" and r["nodes"] == 0), "count"),
        "exact.timeouts": (sum(1 for r in solves if r["status"] != "optimal"), "count"),
        "exact.nodes_per_s": (nodes / bb_s if bb_s else 0.0, "1/s"),
        "exact.lp_bytes": (sum(r.get("lp_bytes", 0) for r in rows), "bytes"),
        "harness.cpu_utilization": (harness["cpu_s"] / (harness["wall_s"] * w.jobs) if harness else 0.0, "ratio"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return m


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, record: bool) -> int:
    from spans import Tracer, span_cost_s
    from workloads import WORKLOADS, SearchWorkload, load_expected, record_expected

    w = WORKLOADS[name]
    expected = None if record else load_expected(name, seed)
    OUT.mkdir(exist_ok=True)
    problems: dict[str, list[str]] = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if not trace:
            walls, setups, rows, kept, repeat_ok = _measure(w, seed, seconds, workdir)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            kept.update(w.verify_sample(seed, workdir))
            if not repeat_ok:
                problems["repeat"] = ["a repeated pass gave different outcomes"]
        else:
            cpu0 = _cpu_s()
            if isinstance(w, SearchWorkload):
                untraced_wall, untraced_rows, solve_s = w.suite_pass(seed)
            else:
                untraced_wall, untraced_rows, _ = w.timed_pass(seed, workdir)
            cpu_s = _cpu_s() - cpu0
            tracer = Tracer()
            traced_wall, rows, kept = w.replay(seed, tracer, workdir)
            if untraced_rows != rows:
                problems["replay"] = ["traced replay outcomes differ from the untraced run"]
            tracer.write(OUT / f"trace-{name}-seed{seed}.json")
            # Tracing overhead: spans recorded x the cost of one span, as a share
            # of the replay's own time.  Always positive, unlike a wall-clock
            # difference of two runs, which host noise can make negative.
            span_overhead_s = len(tracer.spans) * span_cost_s()
            overhead_pct = 100.0 * span_overhead_s / (traced_wall - span_overhead_s)
        found, quality = w.check(seed, rows, kept, expected)
        problems.update(found)

    attempted = len(rows)
    failed = min(attempted, len(problems))
    print(f"workload {name}, seed {seed}: {attempted} checked outputs, {failed} failed")
    for key, msgs in list(problems.items())[:20]:
        print(f"  FAILED {key}: {'; '.join(msgs)}")
    if not trace:
        shown = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        quality_shown = {}
        if quality:
            quality_shown["certified_frac"] = (quality["certified_frac"], "fraction")
            quality_shown["open_gap"] = (quality["open_gap"], "fraction")
        quality_shown["error_rate"] = (failed / attempted, "fraction")
        _print_table(f"end to end (median of {len(walls)} timed passes and {len(setups)} set-up probes)", {**shown, **quality_shown})
        print("  passes (s): " + " ".join(f"{t:.3f}" for t in walls))
        print("  set-up probes (s): " + " ".join(f"{t:.3f}" for t in setups))
        metrics = shown
    else:
        harness = None
        if isinstance(w, SearchWorkload):
            harness = {"wall_s": untraced_wall, "cpu_s": cpu_s}
        metrics = _per_layer(w, tracer, rows, overhead_pct, harness)
        _print_table("per layer (traced replay)", metrics)
        calls = tracer.busy()
        _print_table("busy time per public call (traced replay)",
                     {f"{k}_s": (v, "s") for k, v in sorted(calls.items()) if "." in k})
        info = {
            "untraced_s": (untraced_wall, "s"),
            "traced_replay_s": (traced_wall, "s"),
            "spans": (len(tracer.spans), "count"),
            "span_overhead_s": (span_overhead_s, "s"),
        }
        if harness:
            info["harness.run_suite_s"] = (untraced_wall, "s")
            # run_suite's wall minus the solve time its rows report, per job
            info["harness.self_s"] = (untraced_wall - solve_s / w.jobs, "s")
        _print_table("untraced run vs traced replay", info)
    if quality.get("brute_force_s"):
        _print_table("verification only", {"exact.brute_force_s": (quality["brute_force_s"], "s")})
    if record and failed == 0:
        record_expected(name, seed, rows)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _environment(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def run_all(args, workloads) -> int:
    """Run each workload in its own process; optionally save both trace modes as a baseline."""
    results, status = {}, 0
    traces = (0, 1) if args.baseline else (args.trace,)
    for name in workloads:
        for trace in traces:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            status = status or proc.returncode
            if proc.returncode not in (0, 1) or not lines:
                print(f"workload {name} exited with status {proc.returncode}")
                continue
            results[(name, trace)] = json.loads(lines[-1])
    if args.baseline:
        doc = {
            "environment": _environment(args.seed),
            "seconds": args.seconds,
            "results": {f"{n}/trace{t}": r for (n, t), r in results.items()},
        }
        Path(args.baseline).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    combined = {
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()) or 1,
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for (n, t), r in results.items() for k, v in r["metrics"].items()},
    }
    if status and not combined["failed"]:
        combined["failed"] = 1
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="certify, paper_scale, heuristic, a *_reference suite, or all")
    parser.add_argument("--seed", type=int, default=42, help="workload seed (instance seed0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="repeat the timed pass (at least twice) while another fits in this window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="save this run's outputs as the expected outputs for its seed "
                             "(instead of comparing with them), if every other check passes")
    parser.add_argument("--baseline", default=None,
                        help="with --workload all: write both trace modes and the environment here")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not _use_checkout_sources():
        return 2
    from workloads import SUITE, WORKLOADS

    if args.workload == "all":
        return run_all(args, [w.name for w in SUITE])
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        return 0
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.record)
    except Exception:  # a raised exception fails the run, with its traceback
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
