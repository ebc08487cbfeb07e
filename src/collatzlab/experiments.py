"""Graph-level experiments: cycle census and the de-looping surgery."""

from __future__ import annotations

import time
from typing import NamedTuple

from .actions import ModelId
from .models import SUCCESSORS, bounded_graph
from .search import (SearchBounds, Unreachable, bfs, m0_descent, m0_drop,
                     m0_undecided)


def _circuits(s, adjacency):
    """Every simple cycle whose least node is s, starting at s.

    Johnson's CIRCUIT (SIAM J. Comput. 4(1), 1975) over the nodes above s,
    with explicit stacks: a node stays blocked until a cycle through s is
    found beyond it, and ``blocker[w]`` holds the nodes to unblock with w.
    """
    cycles = []
    path, blocked, blocker = [s], {s}, {}
    stack, closed = [iter(adjacency[s])], [False]
    while stack:
        for w in stack[-1]:
            if w == s:
                cycles.append(path[:])
                closed[-1] = True
            elif w > s and w not in blocked:
                path.append(w)
                blocked.add(w)
                stack.append(iter(adjacency[w]))
                closed.append(False)
                break
        else:
            stack.pop()
            v = path.pop()
            if closed.pop():
                todo = [v]
                while todo:
                    u = todo.pop()
                    if u in blocked:
                        blocked.remove(u)
                        todo.extend(blocker.pop(u, ()))
                if closed:
                    closed[-1] = True
            else:
                for w in adjacency[v]:
                    if w > s:
                        blocker.setdefault(w, set()).add(v)
    return cycles


def cycle_census(model: ModelId, max_value: int):
    """All directed cycles with every node <= max_value, canonicalized.

    Cycles start at their smallest node and the census is sorted by
    (length, nodes). M0 is out-degree 1: n is a cycle's least node iff its
    walk comes back to n before it drops below n or leaves 1..max_value. The
    n the sieve settles, every even n among them, drop first, and an odd n
    above (max_value - 1) / 3 cannot move, so only the ``m0_undecided`` n up
    to that are walked; a walk that has passed more than max_value - n + 1
    values in n..max_value has repeated one other than n, so n is on no
    cycle. MS and M1 go through Johnson's circuit search from each node s,
    in ascending order, over the nodes above s in their ``bounded_graph``,
    whose (action, y) lists are replaced by y lists one node at a time, so
    no second adjacency is built.
    """
    if max_value < 4:
        raise ValueError(f"max_value must be >= 4, got {max_value}")
    if model is ModelId.M0:
        walks = (m0_descent(n, max_value, max_value - n + 1)
                 for n in m0_undecided((max_value - 1) // 3, max_value))
        cycles = [w[:-1] for w in walks if len(w) > 1 and w[-1] == w[0]]
    else:
        adjacency = bounded_graph(model, max_value)
        for x, moves in adjacency.items():
            adjacency[x] = [y for _, y in moves]
        cycles = [c for s in adjacency for c in _circuits(s, adjacency)]
    return sorted(cycles, key=lambda c: (len(c), c))


class PhaseResult(NamedTuple):
    phase: int
    dropped: tuple[str, ...]
    reached: int
    failed: list[int]

    @property
    def all_reached(self):
        return not self.failed

    def to_dict(self):
        return {**self._asdict(), "dropped": list(self.dropped)}


class DeloopReport(NamedTuple):
    max_value: int
    headroom: int
    phase3_matches_m0: bool
    phases: list[PhaseResult]
    wall_ms: float = 0.0

    def to_dict(self, include_timing=False):
        out = {**self._asdict(), "phases": [p.to_dict() for p in self.phases]}
        wall_ms = out.pop("wall_ms")
        if include_timing:
            out["wall_ms"] = round(wall_ms, 3)
        return out


# Class Er is the F-edges out of x = r (mod 6); F needs x = 1 (mod 3), so
# E1 and E4 are all the F-edges.
_PHASE_DROPS = {1: (), 2: (1,), 3: (1, 4)}


def _phase_step(dropped):
    """MS moves minus the F-edges out of x with x mod 6 in ``dropped``: at
    x = 1 or 4 (mod 6), MS lists M0's move and then F."""
    m0, ms = SUCCESSORS[ModelId.M0], SUCCESSORS[ModelId.MS]
    return lambda x: m0(x) if x % 6 in dropped else ms(x)


def _reaches_known(n, step, bounds, ok, bit):
    """Does n reach 1, or a smaller node whose ok mask holds bit, under the
    phase edges? Decided by one BFS over the phase's step function."""
    result = bfs(ModelId.MS, step, n,
                 lambda y: y == 1 or (y < n and ok[y] & bit), bounds)
    return not isinstance(result, Unreachable)


def delooping_experiment(max_value: int, search_headroom: int = 2**10) -> DeloopReport:
    """Remove E1 then E4 from MS and watch reachability-to-1 per node.

    Three phases over nodes 1..max_value with values capped at
    max_value * search_headroom: full MS, MS minus E1, MS minus E1 and E4,
    where Er is the F-edges out of x = r (mod 6). Phase 3's step function is
    additionally compared against M0's at x = 1..7, which decides by residues
    whether the two list the same moves at every node.

    Nodes are decided in ascending order. A phase accepts node n when d,
    the first M0 value below n inside the cap and depth that ``m0_drop``
    reads, is a node it already accepted; otherwise ``_reaches_known``'s
    BFS over the phase's edges decides n.

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
    cap, depth = max_value * search_headroom, 512   # read per node as locals
    bounds = SearchBounds(max_value=cap, max_depth=depth, max_states=200_000)

    # Every guard of both step functions reads only x mod 6 and x > 1, and
    # each action maps x the same way in both, so x = 1..7 meet every case.
    # The two differ only in F moves, which go down, so their edge sets on
    # nodes 1..max_value are equal iff the step functions agree at 1..7.
    phase3, m0 = _phase_step(_PHASE_DROPS[3]), SUCCESSORS[ModelId.M0]
    matches = all(phase3(x) == m0(x) for x in range(1, 8))

    # One ascending node loop; bit 1 << i of ok[x] says phase i + 1 accepted
    # x, and failed[i] lists the nodes it did not. The M0 walk from n is
    # legal in every phase and passes only values >= n before d, so one
    # m0_drop serves all three.
    failed = ([], [], [])
    runs = list(zip((1, 2, 4), failed, map(_phase_step, _PHASE_DROPS.values())))
    ok = bytearray(max_value + 1)
    ok[1] = every = 7
    for n in range(2, max_value + 1):
        d = m0_drop(n, cap, depth)
        mask = ok[d] if d < n else 0
        if mask != every:
            for bit, misses, step in runs:
                if mask & bit or _reaches_known(n, step, bounds, ok, bit):
                    mask |= bit
                else:
                    misses.append(n)
        ok[n] = mask
    phases = [PhaseResult(phase, tuple(f"E{r}" for r in _PHASE_DROPS[phase]),
                          max_value - len(misses), misses)
              for phase, misses in zip(_PHASE_DROPS, failed)]

    return DeloopReport(max_value=max_value, headroom=search_headroom,
                        phase3_matches_m0=matches, phases=phases,
                        wall_ms=(time.perf_counter() - t0) * 1000)
