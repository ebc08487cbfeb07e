"""The four transition systems viewed as graphs.

Successor order is fixed T, B, F, D so traversals and reports are
deterministic. Edges out of a bounded graph (either endpoint above the
bound) are dropped, not clamped.
"""

from __future__ import annotations

from typing import NamedTuple

from .actions import Action, ModelId, action_function

ACTION_ORDER = (Action.T, Action.B, Action.F, Action.D)
_T, _B, _F, _D = ACTION_ORDER


def _succ_m0(x):
    return [(_T, 3 * x + 1)] if x % 2 else [(_B, x // 2)]


def _succ_ms(x):
    out = [(_T, 3 * x + 1)] if x % 2 else [(_B, x // 2)]
    if x % 3 == 1 and x > 1:
        out.append((_F, (x - 1) // 3))
    return out


def _succ_m1(x):
    out = [(_T, 3 * x + 1)]
    if x % 2 == 0:
        out.append((_B, x // 2))
    if x % 3 == 1 and x > 1:
        out.append((_F, (x - 1) // 3))
    out.append((_D, 2 * x))
    return out


def _succ_m2(x):
    return [(a, action_function(a, x)) for a in ACTION_ORDER
            if a is not _F or x > 1]


def _pred_m1(x):
    # All legal in M1: T and D always are, 2x is even, 3x + 1 > 1 is 1 mod 3.
    out = [(_T, (x - 1) // 3)] if x % 3 == 1 and x > 1 else []
    out += [(_B, 2 * x), (_F, 3 * x + 1)]
    if x % 2 == 0:
        out.append((_D, x // 2))
    return out


# Guard tables as step functions of an integer x >= 1. M2 is graph mode,
# where F also needs x > 1 so values stay positive.
SUCCESSORS = {ModelId.M0: _succ_m0, ModelId.MS: _succ_ms,
              ModelId.M1: _succ_m1, ModelId.M2: _succ_m2}
INTEGER_PREDECESSORS = {ModelId.M1: _pred_m1}


def successors(x, model: ModelId):
    """All guard-legal moves out of x, in T,B,F,D order."""
    return SUCCESSORS[model](x)


def predecessors(x, model: ModelId):
    """All (action, y) with x among successors(y, model), in T,B,F,D order.

    Only M1's predecessors are implemented; any other model raises
    ValueError.
    """
    if model is not ModelId.M1:
        raise ValueError(f"predecessors are implemented for M1 only, "
                         f"got {model}")
    return _pred_m1(x)


class BoundedGraph(NamedTuple):
    """Adjacency of one integer model over nodes 1..max_value."""

    model: ModelId
    max_value: int
    adjacency: dict

    def __repr__(self):   # without the adjacency
        return (f"BoundedGraph(model={self.model!r}, "
                f"max_value={self.max_value!r})")

    def edges(self):
        for x in range(1, self.max_value + 1):
            for action, y in self.adjacency[x]:
                yield (x, action, y)


def bounded_graph(model: ModelId, max_value: int) -> BoundedGraph:
    """Materialize an integer model's graph (M0, MS, M1) on nodes 1..max_value.

    Edges leading above max_value are dropped.
    """
    if model is ModelId.M2:
        raise ValueError("bounded graphs need an integer model (m0, ms, m1), "
                         "got m2")
    if max_value < 4:
        raise ValueError(f"max_value must be >= 4, got {max_value}")
    adjacency = {x: [(action, y) for action, y in successors(x, model)
                     if y <= max_value]
                 for x in range(1, max_value + 1)}
    return BoundedGraph(model=model, max_value=max_value, adjacency=adjacency)


F_EDGE_COLOR = "red"


def dot_lines(graph: BoundedGraph):
    """The lines of to_dot's rendering, in order, each ending in a newline."""
    yield "digraph collatz {\n"
    for x in range(1, graph.max_value + 1):
        yield f'  {x} [label="{x}"];\n'
    for x, action, y in graph.edges():
        attrs = f'label="{action.value}"'
        if action is Action.F:
            attrs += f', color="{F_EDGE_COLOR}"'
        yield f"  {x} -> {y} [{attrs}];\n"
    yield "}\n"


def to_dot(graph: BoundedGraph) -> str:
    """Deterministic DOT rendering; F-edges carry a distinct color."""
    return "".join(dot_lines(graph))
