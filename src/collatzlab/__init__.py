"""Collatz transition-system models, action calculus and lemma verification.

Four related nondeterministic models over the positive integers (plus one
exact-rational interpreter), a four-action algebra with exact inverses, a
ternary-digit view of values, a catalog of machine-checkable rewriting
claims, bounded reachability search, and graph experiments (cycle census,
guard-edge removal).
"""

from .actions import (Action, ActionSeq, ModelId, Path, action_function,
                      apply, apply_seq, evaluate_exact, inverse_seq, is_legal,
                      seq_of, validate_trace)
from .catalog import Claim, build_claims
from .errors import (CollatzlabError, DepthExceeded, DomainViolation,
                     GuardViolation, UnknownClaim)
from .experiments import DeloopReport, cycle_census, delooping_experiment
from .models import (BoundedGraph, bounded_graph, predecessors, successors,
                     to_dot)
from .search import (SearchBounds, Unreachable, all_reach_one, bfs_reach,
                     bfs_reach_bidirectional, bfs_until, stats_csv,
                     stopping_stats, trajectory)
from .ternary import from_ternary, to_ternary
from .verify import Failure, VerifyReport, all_claim_ids, run_any_claim

__version__ = "0.1.0"

__all__ = [
    "Action", "ActionSeq", "ModelId", "Path", "action_function", "apply",
    "apply_seq", "evaluate_exact", "inverse_seq", "is_legal", "seq_of",
    "validate_trace",
    "Claim", "build_claims",
    "CollatzlabError", "DepthExceeded", "DomainViolation", "GuardViolation",
    "UnknownClaim",
    "DeloopReport", "cycle_census", "delooping_experiment",
    "BoundedGraph", "bounded_graph", "predecessors", "successors", "to_dot",
    "SearchBounds", "Unreachable", "all_reach_one", "bfs_reach",
    "bfs_reach_bidirectional", "bfs_until", "stats_csv", "stopping_stats",
    "trajectory",
    "from_ternary", "to_ternary",
    "Failure", "VerifyReport", "all_claim_ids", "run_any_claim",
    "__version__",
]
