"""Bounded reachability search and the deterministic trajectory engine."""

import math
import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import search
from collatzlab.actions import ActionSeq, ModelId
from collatzlab.errors import DepthExceeded
from collatzlab.search import (Path, SearchBounds, Unreachable, all_reach_one,
                               bfs_reach, bfs_reach_bidirectional, bfs_until,
                               stats_csv, stopping_stats, trajectory)


def oracle_stopping(n):
    """Independent M0 iteration, no shared code with the engine."""
    steps, peak = 0, n
    while n != 1:
        n = 3 * n + 1 if n % 2 else n // 2
        steps += 1
        peak = max(peak, n)
    return steps, peak


def test_trajectory_small():
    path = trajectory(6)
    assert path.values == (6, 3, 10, 5, 16, 8, 4, 2, 1)
    assert path.validate()
    assert str(path.actions) == "BTBTBBBB"


@given(st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_trajectory_matches_oracle(n):
    path = trajectory(n)
    steps, peak = oracle_stopping(n)
    assert len(path) == steps
    assert path.peak == peak
    assert path.end == 1


def test_trajectory_depth_limit():
    with pytest.raises(DepthExceeded):
        trajectory(27, max_depth=10)


def test_stopping_stats_and_csv():
    rows = list(stopping_stats([27]))
    assert rows == [(27, 111, 9232)]
    text = stats_csv(range(1, 4))
    assert text.splitlines()[0] == "n,steps,peak"
    assert text.splitlines()[1] == "1,0,1"


def test_stopping_stats_reports_depth_hit():
    assert list(stopping_stats([27], max_depth=5)) == [(27, -1, -1)]


def oracle_row(n, max_depth):
    """A plain 3x+1 loop that shares nothing with collatzlab."""
    steps, peak, x = 0, n, n
    while x != 1:
        if steps == max_depth:
            return (n, -1, -1)
        x = 3 * x + 1 if x % 2 else x // 2
        steps += 1
        peak = max(peak, x)
    return (n, steps, peak)


@pytest.mark.parametrize("values, max_depth", [
    (range(1, 3001), 100_000),
    (range(500, 3001), 100),
    ([27], 110),
    ([27], 111),
    ([27, 9, 27, 54, 1], 100_000),
])
def test_memoised_stopping_stats_match_the_oracle(values, max_depth):
    assert list(stopping_stats(values, max_depth)) == [
        oracle_row(n, max_depth) for n in values]


# Small values make later entries meet earlier ones, so the memo is used.
@given(st.lists(st.integers(min_value=1, max_value=300)
                | st.integers(min_value=1, max_value=10**6), max_size=40),
       st.sampled_from([20, 100, 100_000]))
@settings(max_examples=100, deadline=None)
def test_memoised_stopping_stats_match_the_oracle_on_any_list(values,
                                                               max_depth):
    assert list(stopping_stats(values, max_depth)) == [
        oracle_row(n, max_depth) for n in values]


def test_the_stopping_stats_memo_keeps_one_int_per_row():
    # Consumed without keeping rows, the peak is the memo's. A (steps,
    # peak) tuple per row peaked at about 165 bytes a row; the packed int
    # at about 134.
    rows = 200_000
    tracemalloc.start()
    try:
        deque(stopping_stats(range(1, rows + 1)), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows < 150


def test_stopping_stats_yields_rows_before_a_bad_value():
    rows = stopping_stats([5, 0])
    assert next(rows) == oracle_row(5, 100_000)
    with pytest.raises(ValueError, match="positive integer required, got 0"):
        next(rows)


def test_bfs_reach_finds_known_paths():
    bounds = SearchBounds(max_value=1000)
    path = bfs_reach(ModelId.MS, 7, 1, bounds)
    assert isinstance(path, Path)
    assert path.values == (7, 2, 1)
    assert path.validate()
    # trivial path
    empty = bfs_reach(ModelId.MS, 5, 5, bounds)
    assert empty.end == 5 and len(empty) == 0 and empty.validate()


def test_bfs_reach_unreachable_is_proven_under_cap():
    # MS from 2 is closed in {1, 2, 4}: frontier dies, not budget
    result = bfs_reach(ModelId.MS, 2, 7, SearchBounds(max_value=10**6))
    assert isinstance(result, Unreachable)
    assert not result.bound_exhausted


def test_bfs_reach_budget_exhaustion_is_flagged():
    result = bfs_reach(ModelId.M1, 1, 10**6,
                       SearchBounds(max_value=10**7, max_depth=3))
    assert isinstance(result, Unreachable)
    assert result.bound_exhausted


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
@settings(max_examples=60, deadline=None)
def test_bidirectional_agrees_with_plain_bfs_on_existence(start, target):
    bounds = SearchBounds(max_value=2**16, max_depth=32, max_states=50_000)
    plain = bfs_reach(ModelId.M1, start, target, bounds)
    both = bfs_reach_bidirectional(ModelId.M1, start, target, bounds)
    if isinstance(plain, Path):
        assert isinstance(both, Path)
        assert both.validate()
        assert both.end == target


def test_bfs_until():
    bounds = SearchBounds(max_value=10**6)
    path = bfs_until(ModelId.MS, 27, lambda v: v < 27, bounds)
    assert isinstance(path, Path)
    assert path.end < 27
    assert path.validate()


def test_all_reach_one_small():
    assert all_reach_one(10**4) == []


def every_n_descent_failures(limit, max_depth):
    """Independent reference: every 2 <= n <= limit that needs more than
    max_depth steps to drop below itself."""
    failures = []
    for n in range(2, limit + 1):
        x, steps = n, 0
        while x >= n and steps <= max_depth:
            x = x // 2 if x % 2 == 0 else 3 * x + 1
            steps += 1
        if steps > max_depth:
            failures.append(n)
    return failures


def test_all_reach_one_matches_a_walk_over_every_n():
    for max_depth in range(7):
        for limit in range(301):
            assert all_reach_one(limit, max_depth) == every_n_descent_failures(
                limit, max_depth), (limit, max_depth)
    # across the edges of the sieve's 2^12 period, at every descent step j
    # the sieve holds (j <= 19) and one past it
    for max_depth in range(21):
        for limit in (4095, 4096, 4097, 8292):
            assert all_reach_one(limit, max_depth) == every_n_descent_failures(
                limit, max_depth), (limit, max_depth)


def first_drop_step(n):
    """Independent reference: the step at which n's walk first drops below
    n (n >= 2)."""
    x, steps = n, 0
    while x >= n:
        x = x // 2 if x % 2 == 0 else 3 * x + 1
        steps += 1
    return steps


def test_descent_sieve_matches_a_walk_per_class():
    # open classes modulo 2^k, as counted by OEIS A076227: after their k
    # halvings 3^o is still above 2^k, and their bound is infinite
    for k, open_rows in ((8, 19), (12, 226), (16, 2114)):
        rows = search._sieve(k)
        assert len(rows) == 2**k
        opened = [row for row in rows if row.bound == math.inf]
        assert len(opened) == open_rows, k
        assert all(row.h == k and row.a > 2**k for row in opened), k
        assert all(row.a < 2**row.h for row in rows
                   if row.bound < math.inf), k
    for k in (8, 12):
        for r, row in enumerate(search._sieve(k)):
            if row.bound == math.inf:
                continue
            j, bound, *_ = row
            n = bound + 1 + (r - bound - 1) % 2**k   # least n > bound in r
            assert n > 1 and n % 2**k == r, (k, r)
            assert first_drop_step(n) == j, (k, r, n)


def test_every_sieve_row_gives_its_walks_end_and_a_bound_on_their_peak():
    for k in (8, 12):
        for r, row in enumerate(search._sieve(k)):
            j, bound, a, c, h, p, q = row
            decided = bound < math.inf
            # the least n in r, and above bound when the row is decided
            least = (bound + 1 + (r - bound - 1) % 2**k if decided
                     else r or 2**k)
            for n in (least, least + 2**k, least + 7 * 2**k,
                      least + 12345 * 2**k, least + 2**40 * 2**k):
                values = [n]
                for _ in range(j):
                    x = values[-1]
                    values.append(3 * x + 1 if x % 2 else x // 2)
                assert values[-1] == (a * n + c) >> h, (k, r, n)
                assert min(values[1:-1], default=n + 1) > n, (k, r, n)
                assert (values[-1] < n) == decided, (k, r, n)
                assert p * n + q >= max(values), (k, r, n)
    # what the column checks read at k = 12: short walks and small bounds,
    # each below its own residue but at r = 1, so no n > 1 is at or below
    # its row's bound
    rows = search._sieve(12)
    decided = [row for row in rows if row.bound < math.inf]
    assert max(row.j for row in decided) == 19
    assert max(row.bound for row in decided) == 24
    assert [r for r, row in enumerate(rows) if r <= row.bound < math.inf] \
        == [0, 1]


def plain_walk(n):
    """Values and T/B letters of n's 3x+1 walk down to 1, by a plain loop."""
    values, letters = [n], ""
    while values[-1] != 1:
        x = values[-1]
        letters += "T" if x % 2 else "B"
        values.append(3 * x + 1 if x % 2 else x // 2)
    return tuple(values), letters


def test_trajectory_is_the_plain_walk_at_exactly_its_step_count():
    assert trajectory(1, 1).values == (1,)
    for n in range(1, 3001):
        values, letters = plain_walk(n)
        path = trajectory(n, len(letters))
        assert (path.values, str(path.actions)) == (values, letters), n
        if n > 1:
            with pytest.raises(DepthExceeded):
                trajectory(n, len(letters) - 1)


def plain_descent(n, max_value, max_depth):
    """n's 3x+1 walk up to the first value <= n, at most max_depth steps,
    stopping before the first value above max_value."""
    values, x = [n], n
    for _ in range(max_depth):
        x = 3 * x + 1 if x % 2 else x // 2
        if x > max_value:
            break
        values.append(x)
        if x <= n:
            break
    return values


def test_m0_descent_matches_a_plain_loop():
    for n in range(1, 301):
        for max_value in (n, n + 1, 3 * n, 3 * n + 1, 10**4, 10**15):
            for max_depth in (0, 1, 2, 3, 7, 40, 200):
                assert search.m0_descent(n, max_value, max_depth) == (
                    plain_descent(n, max_value, max_depth)), (
                        n, max_value, max_depth)


def test_m0_drop_is_the_last_value_of_a_plain_loop():
    # caps below n too, down to n // 2, where a plain loop and m0_descent
    # still agree: an even n's first move halves it to at most the cap
    for n in range(1, 301):
        for max_value in (n // 2, n - 1, n, n + 1, 3 * n, 3 * n + 1, 10**4,
                          10**15, math.inf):
            for max_depth in (0, 1, 2, 3, 7, 12, 19, 20, 40, 200):
                assert search.m0_drop(n, max_value, max_depth) == (
                    plain_descent(n, max_value, max_depth)[-1]), (
                        n, max_value, max_depth)


def test_m0_drop_matches_a_plain_loop_on_large_seeded_starts():
    rng = random.Random(20260)
    for _ in range(2000):
        n = rng.randrange(1, 2**rng.randrange(1, 71))
        max_value = rng.choice((n, n + rng.randrange(2**20),
                                n * rng.randrange(2, 2**12),
                                rng.randrange(n, 2**80), math.inf))
        max_depth = rng.randrange(600)
        assert search.m0_drop(n, max_value, max_depth) == (
            plain_descent(n, max_value, max_depth)[-1]), (
                n, max_value, max_depth)


@pytest.mark.parametrize("walk, expected", [
    (lambda: all_reach_one(1000, 10**9), []),
    (lambda: trajectory(27, 10**9).values, plain_walk(27)[0]),
], ids=["all_reach_one", "trajectory"])
def test_uncapped_walks_use_little_memory_at_a_huge_depth(walk, expected):
    tracemalloc.start()
    try:
        result = walk()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == expected
    assert peak < 2**20


def test_m0_reach_equals_a_search_with_ample_bounds():
    # No walk from 1..40 passes 9,232 or takes more than 111 steps, so this
    # search is exact; m0_reach must agree with it pair by pair, 1 and 2
    # included, whose trajectories stop before 4.
    bounds = SearchBounds(max_value=10**5, max_depth=300)
    found = 0
    for x in range(1, 41):
        for y in range(1, 41):
            path = search.m0_reach(x, y)
            assert path == bfs_reach(ModelId.M0, x, y, bounds), (x, y)
            found += isinstance(path, Path) and path.validate()
    assert found == 484
    with pytest.raises(DepthExceeded):
        search.m0_reach(27, 1, max_depth=110)


def test_path_render():
    path = bfs_reach(ModelId.MS, 7, 1, SearchBounds(max_value=100))
    assert path.render() == "7 -F-> 2 -B-> 1"


# Renderings recorded with the guard-table search loops that predate the
# integer step functions; any change in expansion order changes them.
GOLDEN_CLUSTER_PATHS = {
    (9, 13): "9 -T-> 28 -B-> 14 -B-> 7 -F-> 2 -D-> 4 -T-> 13",
    (13, 9): "13 -F-> 4 -B-> 2 -T-> 7 -D-> 14 -D-> 28 -F-> 9",
    (21, 22): "21 -T-> 64 -B-> 32 -B-> 16 -B-> 8 -B-> 4 -B-> 2 -T-> 7 "
              "-T-> 22",
    (22, 21): "22 -F-> 7 -F-> 2 -D-> 4 -D-> 8 -D-> 16 -D-> 32 -D-> 64 "
              "-F-> 21",
    (71, 67): "71 -D-> 142 -F-> 47 -D-> 94 -F-> 31 -F-> 10 -B-> 5 -T-> 16 "
              "-B-> 8 -B-> 4 -B-> 2 -T-> 7 -T-> 22 -T-> 67",
    (67, 71): "67 -F-> 22 -F-> 7 -F-> 2 -D-> 4 -T-> 13 -T-> 40 -B-> 20 "
              "-B-> 10 -T-> 31 -T-> 94 -B-> 47 -T-> 142 -B-> 71",
    (455, 454): "455 -D-> 910 -F-> 303 -D-> 606 -D-> 1212 -T-> 3637 "
                "-T-> 10912 -B-> 5456 -B-> 2728 -B-> 1364 -B-> 682 "
                "-F-> 227 -D-> 454",
    (454, 455): "454 -B-> 227 -T-> 682 -T-> 2047 -D-> 4094 -D-> 8188 "
                "-F-> 2729 -D-> 5458 -F-> 1819 -F-> 606 -B-> 303 -T-> 910 "
                "-B-> 455",
    (1108, 1111): "1108 -D-> 2216 -D-> 4432 -F-> 1477 -F-> 492 -B-> 246 "
                  "-B-> 123 -T-> 370 -T-> 1111",
    (1111, 1108): "1111 -F-> 370 -F-> 123 -D-> 246 -D-> 492 -T-> 1477 "
                  "-T-> 4432 -B-> 2216 -B-> 1108",
}


def test_bidirectional_search_is_m1_only(monkeypatch):
    # the ValueError comes before any state is expanded
    monkeypatch.setattr(search, "SUCCESSORS", {})
    for model in (ModelId.M0, ModelId.MS, ModelId.M2):
        with pytest.raises(ValueError, match=model.name):
            bfs_reach_bidirectional(model, 5, 5, SearchBounds(max_value=100))


def test_golden_bidirectional_cluster_paths():
    bounds = SearchBounds(max_value=2**20, max_depth=64)
    for (start, target), rendered in GOLDEN_CLUSTER_PATHS.items():
        path = bfs_reach_bidirectional(ModelId.M1, start, target, bounds)
        assert path.render() == rendered, (start, target)
        assert path.validate()


def test_golden_one_way_paths():
    # T.edge-loop's one passing even A up to 1000: 94 => 283, which never
    # takes 283 -F-> 94 because the search stops on reaching 283
    loop = bfs_reach(ModelId.MS, 94, 283,
                     SearchBounds(max_value=94 * 2**10, max_depth=48,
                                  max_states=20_000))
    assert loop.render() == (
        "94 -B-> 47 -T-> 142 -B-> 71 -T-> 214 -B-> 107 -T-> 322 "
        "-B-> 161 -T-> 484 -B-> 242 -B-> 121 -T-> 364 -B-> 182 -B-> 91 "
        "-T-> 274 -B-> 137 -T-> 412 -B-> 206 -B-> 103 -T-> 310 -B-> 155 "
        "-T-> 466 -B-> 233 -T-> 700 -B-> 350 -B-> 175 -T-> 526 -B-> 263 "
        "-T-> 790 -B-> 395 -T-> 1186 -B-> 593 -T-> 1780 -B-> 890 "
        "-B-> 445 -T-> 1336 -B-> 668 -B-> 334 -B-> 167 -T-> 502 "
        "-B-> 251 -T-> 754 -B-> 377 -T-> 1132 -B-> 566 -B-> 283")
    for model in (ModelId.MS, ModelId.M1):
        down = bfs_until(model, 27, lambda v: v < 27,
                         SearchBounds(max_value=10**6))
        assert down.render() == ("27 -T-> 82 -B-> 41 -T-> 124 -B-> 62 -B-> 31 "
                                 "-F-> 10")


# Test-local copies of the expansion loops that bfs and
# bfs_reach_bidirectional ran before they shared one layer function.
def reference_bfs(model, start, accept, bounds):
    step = search.SUCCESSORS[model]
    if accept(start):
        return search._build_path(model, start, None, start)
    parents = {start: None}
    frontier = [start]
    exhausted = False
    for _ in range(bounds.max_depth):
        if not frontier:
            break
        nxt = []
        for x in frontier:
            for action, y in step(x):
                if y > bounds.max_value or y in parents:
                    continue
                parents[y] = (x, action)
                if accept(y):
                    return search._build_path(model, start, parents, y)
                nxt.append(y)
        if len(parents) > bounds.max_states:
            exhausted = True
            break
        frontier = nxt
    else:
        exhausted = bool(frontier)
    return Unreachable(bound_exhausted=exhausted)


def reference_join(model, start, target, fwd, bwd, meet):
    head = search._build_path(model, start, fwd, meet)
    actions, values = list(head.actions.steps), list(head.values)
    v = meet
    while v != target:
        action, v = bwd[v]
        actions.append(action)
        values.append(v)
    return Path(model=model, start=start, actions=ActionSeq(tuple(actions)),
                end=target, values=tuple(values))


def reference_bidirectional(model, start, target, bounds):
    if start == target:
        return search._build_path(model, start, None, start)
    succ = search.SUCCESSORS[model]
    pred = search.INTEGER_PREDECESSORS[model]
    fwd, bwd = {start: None}, {target: None}
    fwd_frontier, bwd_frontier = [start], [target]
    exhausted = False
    total_depth = 0
    while fwd_frontier and bwd_frontier and total_depth < bounds.max_depth:
        if len(fwd_frontier) <= len(bwd_frontier):
            nxt = []
            for x in fwd_frontier:
                for action, y in succ(x):
                    if y > bounds.max_value or y in fwd:
                        continue
                    fwd[y] = (x, action)
                    if y in bwd:
                        return reference_join(model, start, target, fwd, bwd,
                                              y)
                    nxt.append(y)
            fwd_frontier = nxt
        else:
            nxt = []
            for x in bwd_frontier:
                for action, y in pred(x):
                    if y > bounds.max_value or y in bwd:
                        continue
                    bwd[y] = (action, x)
                    if y in fwd:
                        return reference_join(model, start, target, fwd, bwd,
                                              y)
                    nxt.append(y)
            bwd_frontier = nxt
        total_depth += 1
        if len(fwd) + len(bwd) > bounds.max_states:
            exhausted = True
            break
    else:
        exhausted = bool(fwd_frontier) and bool(bwd_frontier)
    return Unreachable(bound_exhausted=exhausted)


def outcome(result):
    """A comparable view: the rendered path, or the failure tag."""
    if isinstance(result, Path):
        assert result.validate()
        return ("found", result.render())
    return (result.tag, None)


KERNEL_BOUNDS = [SearchBounds(max_value=v, max_depth=d, max_states=s)
                 for v in (6, 40, 400) for d in (1, 3, 12)
                 for s in (3, 25, 10**4)]


def test_search_kernel_matches_the_reference_loops():
    seen = {"one-way": set(), "bidirectional": set()}
    values = range(1, 17)
    for bounds in KERNEL_BOUNDS:
        for model in (ModelId.M0, ModelId.MS, ModelId.M1, ModelId.M2):
            if model is ModelId.M2 and bounds.max_depth > 3:
                continue
            for start in values:
                for target in values:
                    got = outcome(bfs_reach(model, start, target, bounds))
                    want = outcome(reference_bfs(
                        model, start, lambda y, t=target: y == t, bounds))
                    assert got == want, (model, start, target, bounds)
                    seen["one-way"].add(got[0])
                accept = lambda y, s=start: y < s or y % 5 == 0  # noqa: E731
                assert outcome(bfs_until(model, start, accept, bounds)) \
                    == outcome(reference_bfs(model, start, accept, bounds)), \
                    (model, start, bounds)
        for start in range(1, 31):
            for target in range(1, 31):
                got = outcome(bfs_reach_bidirectional(ModelId.M1, start,
                                                      target, bounds))
                assert got == outcome(reference_bidirectional(
                    ModelId.M1, start, target, bounds)), (start, target,
                                                          bounds)
                seen["bidirectional"].add(got[0])
    every_exit = {"found", "unreachable-within-bounds", "budget-exceeded"}
    assert seen == {"one-way": every_exit, "bidirectional": every_exit}
