"""Bounded reachability and the deterministic M0 trajectory engine."""

from __future__ import annotations

from dataclasses import dataclass

from .actions import Action, ActionSeq, ModelId, Path
from .actions import apply_seq  # noqa: F401  bound for bench/tracer.py
from .errors import DepthExceeded
from .models import INTEGER_PREDECESSORS, SUCCESSORS, predecessors
from .models import successors  # noqa: F401  bound for bench/tracer.py


@dataclass(frozen=True)
class SearchBounds:
    """Budgets for one bounded search.

    max_value caps generated states before they enter the frontier and is
    the primary memory control; max_states is a safety net on the visited
    set; max_depth caps path length.
    """

    max_value: int
    max_depth: int = 64
    max_states: int = 1_000_000

    def __post_init__(self):
        if self.max_value < 1 or self.max_depth < 1 or self.max_states < 1:
            raise ValueError("all bounds must be >= 1")


@dataclass(frozen=True)
class Unreachable:
    """Search ended without a path.

    bound_exhausted is True when a depth or state budget stopped the search
    early; False means the whole frontier died under the value cap, i.e.
    the target is proven unreachable within that cap.
    """

    bound_exhausted: bool

    @property
    def tag(self) -> str:
        """The failure tag every report uses for this outcome."""
        return ("budget-exceeded" if self.bound_exhausted
                else "unreachable-within-bounds")


def _build_path(model, start, parents, end):
    """The walk start => end read back through parents[y] = (x, action);
    at end == start it is the empty walk and parents is never read."""
    actions = []
    values = [end]
    v = end
    while v != start:
        prev, action = parents[v]
        actions.append(action)
        values.append(prev)
        v = prev
    actions.reverse()
    values.reverse()
    return Path(model=model, start=start, actions=ActionSeq(tuple(actions)),
                end=end, values=tuple(values))


def _layer(frontier, step, parents, max_value, hit):
    """Expand one BFS layer in discovery order.

    Every new y <= max_value among the (action, y) moves of step(x) gets
    parents[y] = (x, action). Returns (next frontier, y) at the first new y
    with hit(y), else (next frontier, None).
    """
    nxt = []
    for x in frontier:
        for action, y in step(x):
            if y > max_value or y in parents:
                continue
            parents[y] = (x, action)
            if hit(y):
                return nxt, y
            nxt.append(y)
    return nxt, None


def bfs(model: ModelId, step, start: int, accept, bounds: SearchBounds):
    """One-way BFS kernel: shortest walk from start to an accepted value.

    step(x) lists the (action, y) moves out of x; moves above max_value are
    skipped and the frontier keeps discovery order. Returns Path or Unreachable.
    """
    if accept(start):
        return _build_path(model, start, None, start)
    parents = {start: None}
    frontier = [start]
    for _ in range(bounds.max_depth):
        if not frontier:
            return Unreachable(bound_exhausted=False)
        frontier, hit = _layer(frontier, step, parents, bounds.max_value,
                               accept)
        if hit is not None:
            return _build_path(model, start, parents, hit)
        if len(parents) > bounds.max_states:
            return Unreachable(bound_exhausted=True)
    return Unreachable(bound_exhausted=bool(frontier))


def bfs_reach(model: ModelId, start: int, target: int, bounds: SearchBounds):
    """Shortest path from start to target by plain breadth-first search.

    Successors are expanded in T,B,F,D order.
    """
    return bfs(model, SUCCESSORS[model], start, lambda y: y == target, bounds)


def bfs_reach_bidirectional(model: ModelId, start: int, target: int,
                            bounds: SearchBounds):
    """Start-to-target path searching from both ends at once.

    Visits far fewer states than plain bfs_reach; the returned path can be
    one step longer than optimal, which the bulk cluster-connectivity
    checks (existence only) do not care about. Every returned path still
    validates exactly. Only M1 has predecessors, so any other model raises
    ValueError before a state is expanded.
    """
    if model is not ModelId.M1:
        predecessors(target, model)  # only M1 has them: raises ValueError
    if start == target:
        return _build_path(model, start, None, start)
    succ, pred = SUCCESSORS[model], INTEGER_PREDECESSORS[model]
    cap = bounds.max_value
    fwd = {start: None}       # y -> (x, action): x --action--> y
    bwd = {target: None}      # y -> (x, action): y --action--> x
    fwd_frontier, bwd_frontier = [start], [target]
    for _ in range(bounds.max_depth):
        if not (fwd_frontier and bwd_frontier):
            return Unreachable(bound_exhausted=False)
        if len(fwd_frontier) <= len(bwd_frontier):
            fwd_frontier, meet = _layer(fwd_frontier, succ, fwd, cap,
                                        bwd.__contains__)
        else:
            bwd_frontier, meet = _layer(bwd_frontier, pred, bwd, cap,
                                        fwd.__contains__)
        if meet is not None:
            return _join(model, start, target, fwd, bwd, meet)
        if len(fwd) + len(bwd) > bounds.max_states:
            return Unreachable(bound_exhausted=True)
    return Unreachable(bound_exhausted=bool(fwd_frontier and bwd_frontier))


def _join(model, start, target, fwd, bwd, meet):
    head = _build_path(model, start, fwd, meet)
    actions = list(head.actions.steps)
    values = list(head.values)
    v = meet
    while v != target:
        v, action = bwd[v]
        actions.append(action)
        values.append(v)
    return Path(model=model, start=start, actions=ActionSeq(tuple(actions)),
                end=target, values=tuple(values))


def bfs_until(model: ModelId, start: int, accept, bounds: SearchBounds):
    """BFS from start until accept(value) holds; shortest such witness."""
    return bfs(model, SUCCESSORS[model], start, accept, bounds)


def collatz_step(x: int) -> int:
    return 3 * x + 1 if x % 2 else x // 2


def trajectory(n: int, max_depth: int = 100_000) -> Path:
    """Deterministic M0 iteration from n down to 1.

    Raises DepthExceeded if 1 is not reached within max_depth steps (which
    would be a conjecture counterexample signal at desk scale).
    """
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    values = [n]
    actions = []
    x = n
    while x != 1:
        if len(actions) >= max_depth:
            raise DepthExceeded(n, max_depth)
        actions.append(Action.T if x % 2 else Action.B)
        x = collatz_step(x)
        values.append(x)
    return Path(model=ModelId.M0, start=n, actions=ActionSeq(tuple(actions)),
                end=1, values=tuple(values))


def stopping_stats(values, max_depth: int = 100_000):
    """Yield (n, steps, peak) rows; steps is -1 when max_depth was hit.

    Each row equals ``trajectory(n, max_depth)``'s step count and peak, for
    any order of values. A memo local to the call maps every n already
    yielded to its (steps, peak), starting from {1: (0, 1)}; n is walked only
    until it meets a memo entry x, and then steps(n) = j + steps(x) and
    peak(n) = max(walk peak, peak(x)). A -1 entry means x alone needs more
    than max_depth steps, so every n that reaches it does too.
    """
    memo = {1: (0, 1)}
    for n in values:
        if n < 1:
            raise ValueError(f"positive integer required, got {n}")
        x, j, peak = n, 0, n
        while x not in memo and j < max_depth:
            x = collatz_step(x)
            j += 1
            if x > peak:
                peak = x
        steps, top = memo.get(x, (-1, -1))
        row = ((j + steps, max(peak, top))
               if steps >= 0 and j + steps <= max_depth else (-1, -1))
        memo[n] = row
        yield (n, *row)


def stats_csv(values, max_depth: int = 100_000):
    """CSV rendering of stopping_stats with the standard header."""
    lines = ["n,steps,peak"]
    lines.extend(f"{n},{s},{p}" for n, s, p in stopping_stats(values, max_depth))
    return "\n".join(lines) + "\n"


def all_reach_one(limit: int, max_depth: int = 100_000):
    """Check that every 1 <= n <= limit reaches 1 in M0.

    Ascending induction: each n only needs to descend below itself, all
    smaller values being already verified. Returns the list of n that
    failed to descend within max_depth (empty means all reach 1); from
    max_depth 3 on, only n = 3 (mod 4) can fail, so only those are walked.
    """
    # An even n descends in 1 step and an n = 1 (mod 4) in 3, to
    # (3n + 1) / 4 < n.
    start, stride = (3, 4) if max_depth >= 3 else (2, 1)
    failures = []
    for n in range(start, limit + 1, stride):
        x = n
        steps = 0
        while x >= n:
            x = 3 * x + 1 if x & 1 else x >> 1
            steps += 1
            if steps > max_depth:
                failures.append(n)
                break
    return failures
