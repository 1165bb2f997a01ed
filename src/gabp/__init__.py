"""Vector Gaussian belief propagation for distributed linear estimation.

The package splits into a small stack:

- ``cones``: positive definite cone primitives (Loewner order, part metric)
- ``network``: problem instances, validation, random generation, JSON io
- ``engine``: the message-passing recursions and synchronous schedule
- ``oracle``: centralized ground-truth posterior for cross-checking
- ``analysis``: the stacked information-matrix operator, cone bounds, and
  convergence diagnostics
- ``cli``: command line front end (``gabp gen|run|analyze|compare``)
"""

__version__ = "0.1.0"

from .cones import (
    NotComparableError,
    NumericalError,
    is_pd,
    is_psd,
    loewner_geq,
    part_metric,
    part_metric_blocks,
    symmetrize,
)
from .network import (
    DirectedEdge,
    GaussianNetwork,
    NodeSpec,
    SchemaError,
    SemanticError,
    Violation,
    generate_random,
    load,
    save,
    two_node_chain,
    two_node_symmetric,
    validate,
)
from .engine import (
    Belief,
    ConvergenceTrace,
    EdgeMessage,
    MessageState,
    RunResult,
    ScheduleConfig,
    compute_belief,
    initial_state,
    run,
)
from .oracle import CompareReport, centralized_posterior, compare, factor_graph_is_tree
from .analysis import (
    ConeBounds,
    HarnessReport,
    RateReport,
    SandwichReport,
    StackedOperator,
    annotate_trace,
    apply_stacked_operator,
    bounds_ul,
    build_stacked,
    property_harness,
    rate_analysis,
    sandwich_sequences,
    write_trace_csv,
)

__all__ = [
    "__version__",
    "NotComparableError",
    "NumericalError",
    "is_pd",
    "is_psd",
    "loewner_geq",
    "part_metric",
    "part_metric_blocks",
    "symmetrize",
    "DirectedEdge",
    "GaussianNetwork",
    "NodeSpec",
    "SchemaError",
    "SemanticError",
    "Violation",
    "generate_random",
    "load",
    "save",
    "two_node_chain",
    "two_node_symmetric",
    "validate",
    "Belief",
    "ConvergenceTrace",
    "EdgeMessage",
    "MessageState",
    "RunResult",
    "ScheduleConfig",
    "compute_belief",
    "initial_state",
    "run",
    "CompareReport",
    "centralized_posterior",
    "compare",
    "factor_graph_is_tree",
    "ConeBounds",
    "HarnessReport",
    "RateReport",
    "SandwichReport",
    "StackedOperator",
    "annotate_trace",
    "apply_stacked_operator",
    "bounds_ul",
    "build_stacked",
    "property_harness",
    "rate_analysis",
    "sandwich_sequences",
    "write_trace_csv",
]
