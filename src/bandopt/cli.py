"""Command line front end.

Subcommands: ``gen`` (instance generation), ``rcm`` (heuristic ordering),
``solve`` (exact branch-and-bound), ``lp`` (MILP model export), ``bench``
(gap study over a generated suite).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .exact import SolveConfig, branch_and_bound, export_lp, save_result
from .harness import run_suite, save_report, save_summary, summarize
from .instance import GenParams, _check, _seed_rule, generate, interaction_matrix, load, save
from .metrics import classic_bandwidth, weighted_bandwidth, save_ordering
from .rcm import rcm_on_instance


def _gen_params(n: int, r_min: float | None, box_side: float | None) -> GenParams | None:
    if r_min is None and box_side is None:
        return None
    base = GenParams.defaults(n)
    return GenParams(
        L=base.L if box_side is None else box_side,
        r_min=base.r_min if r_min is None else r_min,
    )


def _check_out_dir(out: str | Path) -> None:
    """Fail before a long run, not after it, when ``out`` cannot be written as a file."""
    path = Path(out)
    if path.is_dir():
        raise IsADirectoryError(f"--out {out}: is a directory")
    parent = path.parent
    if not parent.is_dir():
        raise NotADirectoryError(f"--out {out}: {parent} is not a directory")


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    params = _gen_params(args.n, args.r_min, args.box_side)
    # generate checks each seed, but a bad last one should fail before the
    # whole batch is built; nothing is written until every instance exists
    _check(_seed_rule(args.seed + args.count - 1))
    insts = [generate(args.n, args.seed + k, params) for k in range(args.count)]
    if args.count == 1:
        save(insts[0], args.out)
        print(f"wrote {insts[0].id} to {args.out}")
        return 0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for inst in insts:
        save(inst, out_dir / f"{inst.id}.json")
    print(f"wrote {args.count} instances to {out_dir}")
    return 0


def _cmd_rcm(args: argparse.Namespace) -> int:
    inst = load(args.instance)
    ordering = rcm_on_instance(inst)
    save_ordering(ordering, args.out)
    wb = weighted_bandwidth(interaction_matrix(inst), ordering).value
    cb = classic_bandwidth(inst, ordering)
    print(f"{inst.id}: weighted bandwidth {wb:.12g}, bond bandwidth {cb}")
    return 0


def _solve_config(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(
        use_lower_bound=not args.no_lb,
        use_symmetry_breaking=not args.no_sym,
        time_limit=args.time_limit,
        node_limit=args.node_limit,
    )


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = load(args.instance)
    U = interaction_matrix(inst)
    cfg = _solve_config(args)
    _check_out_dir(args.out)
    result = branch_and_bound(U, cfg, warm_start=rcm_on_instance(inst))
    save_result(result, args.out)
    print(
        f"{inst.id}: objective {result.objective:.12g} ({result.status}), "
        f"{result.nodes_explored} nodes in {result.wall_time:.3f}s"
    )
    return 0


def _cmd_lp(args: argparse.Namespace) -> int:
    inst = load(args.instance)
    U = interaction_matrix(inst)
    cfg = SolveConfig(use_lower_bound=not args.no_lb, use_symmetry_breaking=not args.no_sym)
    export_lp(U, cfg, args.out)
    print(f"wrote LP model for {inst.id} to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    cfg = SolveConfig(time_limit=args.time_limit)
    out = Path(args.out)
    summary_path = out.with_suffix(".summary.json")
    for path in (out, summary_path):
        _check_out_dir(path)
    report = run_suite(sizes, args.per_size, args.seed, cfg, ab_compare=args.ab_reinforcements)
    save_report(report, out)
    summary = summarize(report)
    save_summary(summary, summary_path)
    overall = summary["overall"]
    print(
        f"{overall['count']} instances, mean gap {overall['mean_gap_percent']:.2f}%, "
        f"{overall['optimal']} proven optimal; report {out}, summary {summary_path}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandopt",
        description="Weighted bandwidth minimization: generate, order, solve, benchmark.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate amorphous-solid instances")
    p.add_argument("--n", type=int, required=True, help="number of sites")
    p.add_argument("--seed", type=int, required=True, help="generation seed")
    p.add_argument("--out", required=True, help="output file (or directory with --count > 1)")
    p.add_argument("--count", type=int, default=1, help="instances to generate (seeds seed..seed+count-1)")
    p.add_argument("--r-min", type=float, default=None, help="minimum site separation")
    p.add_argument("--box-side", type=float, default=None, help="square box side (default sqrt(n))")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("rcm", help="reverse Cuthill-McKee ordering of an instance")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--out", required=True, help="ordering JSON output path")
    p.set_defaults(func=_cmd_rcm)

    p = sub.add_parser("solve", help="exact branch-and-bound solve")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--out", required=True, help="result JSON output path")
    p.add_argument("--no-lb", action="store_true", help="disable the early stop at the lower bound")
    p.add_argument("--no-sym", action="store_true", help="disable the anchor-position restriction")
    p.add_argument("--time-limit", type=float, default=3600.0, help="wall clock limit in seconds")
    p.add_argument("--node-limit", type=int, default=None, help="stop after this many search nodes")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lp", help="export the MILP model in LP text format")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--out", required=True, help="LP file output path")
    p.add_argument("--no-lb", action="store_true", help="omit the lower-bound row")
    p.add_argument("--no-sym", action="store_true", help="omit the anchor-position row")
    p.set_defaults(func=_cmd_lp)

    p = sub.add_parser("bench", help="gap study: heuristic vs exact over a generated suite")
    p.add_argument("--sizes", default="6,7,8,9", help="comma-separated instance sizes")
    p.add_argument("--per-size", type=int, default=10, help="replicates per size")
    p.add_argument("--seed", type=int, default=42, help="suite base seed")
    p.add_argument("--ab-reinforcements", action="store_true",
                   help="rerun each solve without the anchor restriction to compare node counts")
    p.add_argument("--time-limit", type=float, default=3600.0, help="per-solve wall clock limit")
    p.add_argument("--out", required=True, help="report CSV output path")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"bandopt: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
