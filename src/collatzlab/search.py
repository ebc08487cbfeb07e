"""Bounded reachability and the deterministic M0 trajectory engine."""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .actions import Action, ActionSeq, ModelId, Path
from .actions import apply_seq  # noqa: F401  bound for bench/tracer.py
from .errors import DepthExceeded, Record
from .models import INTEGER_PREDECESSORS, SUCCESSORS, predecessors
from .models import successors  # noqa: F401  bound for bench/tracer.py

_NO_CAP = float("inf")               # the value cap of an uncapped M0 walk
_M0_LETTERS = (Action.B, Action.T)   # M0's move out of x, by x & 1


class SearchBounds(Record):
    """Budgets for one bounded search.

    max_value caps generated states before they enter the frontier and is
    the primary memory control; max_states is a safety net on the visited
    set; max_depth caps path length.
    """

    __slots__ = _fields = ("max_value", "max_depth", "max_states")

    def __init__(self, max_value: int, max_depth: int = 64,
                 max_states: int = 1_000_000):
        if max_value < 1 or max_depth < 1 or max_states < 1:
            raise ValueError("all bounds must be >= 1")
        self.max_value, self.max_depth = max_value, max_depth
        self.max_states = max_states


class Unreachable(NamedTuple):
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
    """start => meet => target; bwd read from meet is the tail reversed."""
    head = _build_path(model, start, fwd, meet)
    tail = _build_path(model, target, bwd, meet)   # target => meet
    steps = head.actions.steps + tail.actions.steps[::-1]
    return Path(model=model, start=start, actions=ActionSeq(steps),
                end=target, values=head.values + tail.values[-2::-1])


def bfs_until(model: ModelId, start: int, accept, bounds: SearchBounds):
    """BFS from start until accept(value) holds; shortest such witness."""
    return bfs(model, SUCCESSORS[model], start, accept, bounds)


def trajectory(n: int, max_depth: int = 100_000) -> Path:
    """Deterministic M0 iteration from n down to 1.

    A chain of ``m0_descent`` walks with no value cap: each ends below its
    start, so the chain stops at 1. Raises DepthExceeded if 1 is not reached
    within max_depth steps (which would be a conjecture counterexample
    signal at desk scale).
    """
    if n < 1:
        raise ValueError(f"positive integer required, got {n}")
    values = [n]
    while values[-1] != 1:
        x = values[-1]
        walk = m0_descent(x, _NO_CAP, max_depth - len(values) + 1)
        if walk[-1] >= x:
            raise DepthExceeded(n, max_depth)
        values += walk[1:]
    return Path(model=ModelId.M0, start=n, actions=m0_script(values),
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
            x = 3 * x + 1 if x & 1 else x >> 1
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


class SieveRow(NamedTuple):
    """A class of the descent sieve: from n in the class, after j steps with
    o triplings and h halvings, the walk is at (a*n + c) >> h, a = 3^o, and
    every value between is above n and at most p*n + q. The end is below n
    for every n > bound; an open row's bound is infinite (a > 2^h = 2^k)."""

    j: int
    bound: int
    a: int
    c: int
    h: int
    p: int
    q: int


@cache
def _sieve(k=12):
    """Descent sieve of M0 modulo 2^k, 2^12 unless k is given (Terras 1976;
    Everett 1977).

    For n = r (mod 2^k), n's walk has a fixed parity vector while fewer than
    k halvings have happened: after j steps with o triplings and h halvings
    its value is (3^o * n + c) >> h, exactly. At the first j with 3^o < 2^h,
    every n > c // (2^h - 3^o) drops below n at step j, and not earlier,
    since every shorter prefix has 3^o >= 2^h. Row r is that SieveRow, or
    the open row at k halvings when the class stays open that long (OEIS
    A076227 counts them). Built modulo 2, 4, ..., 2^k: r and r + 2^(i-1)
    share a row decided in fewer than i halvings; an open row walks on.
    """
    rows = [SieveRow(0, _NO_CAP, 1, 0, 0, 1, 0)]   # the one class mod 1
    for i in range(1, k + 1):
        rows *= 2
        for r in [r for r, row in enumerate(rows) if row.bound == _NO_CAP]:
            j, _, a, c, h, p, q = rows[r]
            x = (a * r + c) >> h   # a = 3^o; p, q: ceilings of a, c / 2^h
            while h < i and a >= 1 << h:
                if x & 1:
                    x, a, c = 3 * x + 1, 3 * a, 3 * c + (1 << h)
                    p, q = max(p, -(-a >> h)), max(q, -(-c >> h))
                else:
                    x, h = x >> 1, h + 1
                j += 1
            rows[r] = SieveRow(j, c // ((1 << h) - a) if a < 1 << h
                               else _NO_CAP, a, c, h, p, q)
    return tuple(rows)   # shared by every caller through the cache


def m0_undecided(limit: int, max_depth: int):
    """Every 1 <= n <= limit that n's sieve row does not show dropping below
    n within max_depth steps, class by class: the n of rows whose j exceeds
    max_depth, and the n at or below a row's bound (all of an open row)."""
    rows = _sieve()   # 4,096 classes, 226 of them open
    for r, row in enumerate(rows):
        top = limit if row.j > max_depth else min(row.bound, limit)
        yield from range(r or len(rows), top + 1, len(rows))


def m0_descent(n: int, max_value: int, max_depth: int) -> list[int]:
    """The M0 walk's values from n up to the first value <= n; it stops
    after max_depth steps, or before the first value above max_value.

    Requires n <= max_value. T is the one move that raises a value and B
    the one that lowers it, so the cap is checked only after T and the
    floor only after B.
    """
    values = [n]
    x = n
    for _ in range(max_depth):
        if x & 1:
            x = 3 * x + 1
            if x > max_value:
                break
            values.append(x)
        else:
            x >>= 1
            values.append(x)
            if x <= n:
                break
    return values


def m0_drop(n: int, max_value: int, max_depth: int) -> int:
    """``m0_descent(n, max_value, max_depth)[-1]``, a sieve block at a time:
    a block's inner values are above its start, so it is one jump when its
    j steps fit the depth left and p*x + q fits max_value; else one move."""
    rows, x, left = _sieve(), n, max_depth
    mask = len(rows) - 1
    while left:
        j, _, a, c, h, p, q = rows[x & mask]
        if j > left or p * x + q > max_value:
            if x & 1 and 3 * x + 1 > max_value:
                break
            j, a, c, h = (1, 3, 1, 0) if x & 1 else (1, 1, 0, 1)
        x, left = (a * x + c) >> h, left - j
        if x <= n:
            break
    return x


def m0_script(values) -> ActionSeq:
    """The T/B letters of an M0 walk through values, read off parities."""
    return ActionSeq(tuple([_M0_LETTERS[x & 1] for x in values[:-1]]))


def all_reach_one(limit: int, max_depth: int = 100_000):
    """Check that every 1 <= n <= limit reaches 1 in M0.

    Ascending induction: each n only needs to descend below itself, all
    smaller values being already verified. Returns, sorted, the n > 1 of
    ``m0_undecided(limit, max_depth)`` that fail to descend within max_depth
    (empty means all reach 1).
    """
    return sorted(n for n in m0_undecided(limit, max_depth)
                  if n > 1 and m0_drop(n, _NO_CAP, max_depth) >= n)
