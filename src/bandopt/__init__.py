"""Weighted bandwidth minimization toolkit.

Generates amorphous-solid instances with inverse-sixth-power interaction
matrices, orders them with the reverse Cuthill-McKee heuristic, solves
them exactly by branch-and-bound, exports the equivalent MILP, and
benchmarks the heuristic-vs-optimal gap.
"""

from .exact import (
    STATUS_OPTIMAL,
    STATUS_TIMEOUT,
    SolveConfig,
    SolveResult,
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
from .harness import (
    CSV_HEADER,
    GapReport,
    GapRow,
    load_report,
    report_from_csv,
    report_to_csv,
    run_suite,
    save_report,
    save_summary,
    summarize,
)
from .instance import (
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
from .metrics import (
    Bandwidth,
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
from .rcm import rcm_on_instance

__version__ = "0.1.0"

__all__ = [
    "Bandwidth",
    "CSV_HEADER",
    "GapReport",
    "GapRow",
    "GenerationError",
    "GenParams",
    "Instance",
    "InteractionMatrix",
    "Ordering",
    "STATUS_OPTIMAL",
    "STATUS_TIMEOUT",
    "SchemaError",
    "SolveConfig",
    "SolveResult",
    "branch_and_bound",
    "brute_force",
    "classic_bandwidth",
    "default_anchor",
    "export_lp",
    "from_json",
    "generate",
    "interaction_matrix",
    "load",
    "load_ordering",
    "load_report",
    "load_result",
    "ordering_from_json",
    "ordering_to_json",
    "permute_matrix",
    "rcm_gap",
    "rcm_on_instance",
    "report_from_csv",
    "report_to_csv",
    "result_from_json",
    "result_to_json",
    "run_suite",
    "save",
    "save_ordering",
    "save_report",
    "save_result",
    "save_summary",
    "summarize",
    "theoretical_lower_bound",
    "to_json",
    "weighted_bandwidth",
    "__version__",
]
