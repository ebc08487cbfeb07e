"""Collatz transition-system models, action calculus and lemma verification.

Four related nondeterministic models over the positive integers (plus one
exact-rational interpreter), a four-action algebra with exact inverses, a
ternary-digit view of values, a catalog of machine-checkable rewriting
claims, bounded reachability search, and graph experiments (cycle census,
guard-edge removal). Exported names load on first access (PEP 562): each
imports only its own submodule and what that needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> its submodule: the one table behind __all__, __getattr__
_EXPORTS = {name: module for module, names in {
    "actions": "Action ActionSeq ModelId Path action_function apply apply_seq"
               " evaluate_exact inverse_seq seq_of validate_trace",
    "catalog": "Claim build_claims",
    "errors": "CollatzlabError DepthExceeded DomainViolation GuardViolation"
              " UnknownClaim",
    "experiments": "DeloopReport cycle_census delooping_experiment",
    "models": "bounded_graph predecessors successors",
    "search": "SearchBounds Unreachable all_reach_one bfs_reach"
              " bfs_reach_bidirectional bfs_until stopping_stats trajectory",
    "ternary": "from_ternary to_ternary",
    "verify": "Failure VerifyReport all_claim_ids run_any_claim",
}.items() for name in names.split()}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    """An exported name off its submodule, bound here on first access."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
