"""Graph-level experiments: cycle census and the de-looping surgery."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .actions import Action, ModelId
from .models import SUCCESSORS, EdgeClass, bounded_graph, edge_class
from .search import SearchBounds, Unreachable, bfs


def _canonical_cycle(nodes):
    i = nodes.index(min(nodes))
    return list(nodes[i:]) + list(nodes[:i])


def _m0_cycles(max_value):
    """Cycle census of M0, out-degree 1, on 1..max_value."""
    DONE, ACTIVE = 2, 1
    color = bytearray(max_value + 1)
    cycles = []
    for n in range(1, max_value + 1):
        if color[n]:
            continue
        path = []
        x = n
        while x <= max_value:
            c = color[x]
            if c:
                if c == ACTIVE:
                    cycles.append(_canonical_cycle(path[path.index(x):]))
                break
            color[x] = ACTIVE
            path.append(x)
            x = 3 * x + 1 if x & 1 else x >> 1
        for v in path:
            color[v] = DONE
    return cycles


def cycle_census(model: ModelId, max_value: int):
    """All directed cycles with every node <= max_value, canonicalized.

    Cycles are rotated to start at their smallest node and the census is
    sorted by (length, nodes). M0 is out-degree 1, so its census runs in
    linear time; denser models go through networkx's simple-cycle
    enumeration over the materialized bounded graph.
    """
    if max_value < 4:
        raise ValueError(f"max_value must be >= 4, got {max_value}")
    if model is ModelId.M0:
        cycles = _m0_cycles(max_value)
    else:
        import networkx as nx

        graph = bounded_graph(model, max_value)
        g = nx.DiGraph()
        g.add_nodes_from(range(1, max_value + 1))
        g.add_edges_from((x, y) for x, _, y in graph.edges())
        cycles = [_canonical_cycle(c) for c in nx.simple_cycles(g)]
    return sorted(cycles, key=lambda c: (len(c), c))


@dataclass
class PhaseResult:
    phase: int
    dropped: tuple[str, ...]
    reached: int = 0
    failed: list[int] = field(default_factory=list)

    @property
    def all_reached(self):
        return not self.failed

    def to_dict(self):
        return {"phase": self.phase, "dropped": list(self.dropped),
                "reached": self.reached, "failed": self.failed}


@dataclass
class DeloopReport:
    max_value: int
    headroom: int
    phase3_matches_m0: bool
    phases: list[PhaseResult]
    wall_ms: float = 0.0

    def to_dict(self, include_timing=False):
        out = {
            "max_value": self.max_value,
            "headroom": self.headroom,
            "phase3_matches_m0": self.phase3_matches_m0,
            "phases": [p.to_dict() for p in self.phases],
        }
        if include_timing:
            out["wall_ms"] = round(self.wall_ms, 3)
        return out


_PHASE_DROPS = {
    1: (),
    2: (EdgeClass.E1,),
    3: (EdgeClass.E1, EdgeClass.E4),
}


def _phase_step(dropped):
    """MS moves minus the F-edges of the dropped classes."""
    succ = SUCCESSORS[ModelId.MS]

    def step(x):
        return [(a, y) for a, y in succ(x)
                if a is not Action.F or edge_class(x, a) not in dropped]

    return step


def _m0_descent(n, bounds):
    """The first M0 value below n, or 0 when the walk from n leaves the
    value cap or the depth first."""
    x = n
    steps = 0
    while x <= bounds.max_value and steps <= bounds.max_depth:
        if x < n:
            return x
        x = 3 * x + 1 if x & 1 else x >> 1
        steps += 1
    return 0


def _reaches_known(n, step, bounds, ok):
    """Does n reach 1, or a smaller node already known to, under the phase
    edges? Decided by one BFS over the phase's step function."""
    result = bfs(ModelId.MS, step, n, lambda y: y == 1 or (y < n and ok[y]),
                 bounds)
    return not isinstance(result, Unreachable)


def delooping_experiment(max_value: int, search_headroom: int = 2**10) -> DeloopReport:
    """Remove E1 then E4 from MS and watch reachability-to-1 per node.

    Three phases over nodes 1..max_value with values capped at
    max_value * search_headroom: full MS, MS minus E1, MS minus E1 and E4.
    Phase 3's step function is additionally compared against M0's, node by
    node over 1..max_value with moves above max_value left out; the two
    must list the same moves at every node.

    Nodes are decided in ascending order. A phase accepts node n when the
    first M0 value d below n, inside the cap and depth, is a node it already
    accepted; otherwise ``_reaches_known``'s BFS over the phase's edges
    decides n.

    Each phase's ``failed`` lists, in ascending order, the nodes with no
    path to 1 inside the value cap. Phase 3 is M0, so its ``failed`` holds
    the nodes whose M0 trajectory climbs above the cap (node 9663 at 10^4
    nodes and headroom 2^10). ``_reaches_known`` discards
    ``Unreachable.bound_exhausted``, so a node whose search runs out of depth
    or states is also listed in ``failed``; at 10^4 nodes no search does.
    """
    if max_value < 16:
        raise ValueError(f"max_value must be >= 16, got {max_value}")
    t0 = time.perf_counter()
    bounds = SearchBounds(max_value=max_value * search_headroom,
                          max_depth=512, max_states=200_000)

    # Both step functions list moves in T,B,F,D order, so per-node list
    # equality is edge-set equality on nodes 1..max_value.
    phase3, m0 = _phase_step(_PHASE_DROPS[3]), SUCCESSORS[ModelId.M0]
    matches = all([m for m in phase3(x) if m[1] <= max_value]
                  == [m for m in m0(x) if m[1] <= max_value]
                  for x in range(1, max_value + 1))

    # One ascending node loop for the three phases; each phase's induction
    # reads only its own ok of smaller nodes. The M0 walk from n is legal in
    # every phase and passes only values >= n before its first value d below
    # n, so one walk serves all three phases.
    phases, runs = [], []
    for phase, dropped in _PHASE_DROPS.items():
        result = PhaseResult(phase=phase,
                             dropped=tuple(c.value for c in dropped),
                             reached=1)
        ok = bytearray(max_value + 1)
        ok[1] = 1
        phases.append(result)
        runs.append((result, _phase_step(dropped), ok))
    for n in range(2, max_value + 1):
        d = _m0_descent(n, bounds)
        for result, step, ok in runs:
            if ok[d] or _reaches_known(n, step, bounds, ok):
                ok[n] = 1
                result.reached += 1
            else:
                result.failed.append(n)

    return DeloopReport(max_value=max_value, headroom=search_headroom,
                        phase3_matches_m0=matches, phases=phases,
                        wall_ms=(time.perf_counter() - t0) * 1000)
