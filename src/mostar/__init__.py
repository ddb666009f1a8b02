"""Edge Mostar index toolkit: invariants, extremal families, exhaustive search."""

from .graphs import (
    Graph,
    Graph6Error,
    GraphError,
    all_pairs_distances,
    bfs_distances,
    cycle,
    is_connected,
    parse_graph6,
    path,
    write_graph6,
)
from .canon import (
    canon,
    canonical_form,
)
from .indices import (
    EdgeReport,
    MostarSummary,
    edge_mostar,
    edge_report,
    mostar_summary,
)
from .braces import (
    BraceClass,
    classify,
)
from .enumeration import (
    EnumerationResult,
    EnumerationTask,
    survey,
)
from .families import (
    FamilyRegistry,
    FamilySpec,
    NotPinnedError,
    builtin_registry,
    discover_families,
)
from .shifts import (
    run_shift_suite,
    verify_lemma_shift,
)
from .verify import run_atlas, verify_bicyclic, verify_tricyclic

__all__ = [
    "BraceClass",
    "EnumerationResult",
    "EnumerationTask",
    "FamilyRegistry",
    "FamilySpec",
    "NotPinnedError",
    "builtin_registry",
    "classify",
    "discover_families",
    "run_atlas",
    "run_shift_suite",
    "survey",
    "verify_bicyclic",
    "verify_lemma_shift",
    "verify_tricyclic",
    "EdgeReport",
    "Graph",
    "Graph6Error",
    "GraphError",
    "MostarSummary",
    "all_pairs_distances",
    "bfs_distances",
    "canon",
    "canonical_form",
    "cycle",
    "edge_mostar",
    "edge_report",
    "is_connected",
    "mostar_summary",
    "parse_graph6",
    "path",
    "write_graph6",
]
