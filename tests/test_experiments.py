"""Cycle census and the edge-removal experiment."""

import functools
import tracemalloc

import pytest

from collatzlab import experiments
from collatzlab.actions import Action, ModelId
from collatzlab.experiments import cycle_census, delooping_experiment
from collatzlab.models import SUCCESSORS, bounded_graph, successors
from collatzlab.search import SearchBounds, Unreachable, bfs


def brute_force_cycles(model, max_value):
    """Independent census: DFS over the explicit edge list, stdlib only."""
    adjacency = {
        x: [y for _, y in successors(x, model) if y <= max_value]
        for x in range(1, max_value + 1)
    }
    # enumerate every simple cycle whose smallest node is `start`
    cycles = set()
    for start in adjacency:
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in adjacency[node]:
                if nxt == start and min(path) == start:
                    cycles.add(path)
                elif nxt not in path and nxt >= start:
                    stack.append((nxt, path + (nxt,)))
    return sorted([list(c) for c in cycles], key=lambda c: (len(c), c))


def colour_walk_m0_cycles(max_value):
    """Independent M0 census: colour every node 1..max_value once."""
    done, active = 2, 1
    color = bytearray(max_value + 1)
    cycles = []
    for n in range(1, max_value + 1):
        path = []
        x = n
        while x <= max_value and not color[x]:
            color[x] = active
            path.append(x)
            x = 3 * x + 1 if x & 1 else x >> 1
        if x <= max_value and color[x] == active:
            cycle = path[path.index(x):]
            i = cycle.index(min(cycle))
            cycles.append(cycle[i:] + cycle[:i])
        for v in path:
            color[v] = done
    return sorted(cycles, key=lambda c: (len(c), c))


def networkx_cycles(model, max_value):
    """Independent census: networkx simple_cycles over the same edges."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(range(1, max_value + 1))
    g.add_edges_from((x, y) for x in range(1, max_value + 1)
                     for _, y in successors(x, model) if y <= max_value)
    cycles = []
    for c in nx.simple_cycles(g):
        i = c.index(min(c))
        cycles.append(c[i:] + c[:i])
    return sorted(cycles, key=lambda c: (len(c), c))


def test_m0_census_matches_the_colour_walk():
    for bound in [*range(4, 501), 4095, 4096, 4097, 10**5]:
        assert cycle_census(ModelId.M0, bound) == colour_walk_m0_cycles(
            bound), bound


@pytest.mark.parametrize("model, bounds", [
    (ModelId.MS, [*range(4, 301), 10**4]),
    (ModelId.M1, range(4, 61)),
], ids=["MS", "M1"])
def test_census_matches_networkx_simple_cycles(model, bounds):
    for bound in bounds:
        assert cycle_census(model, bound) == networkx_cycles(
            model, bound), bound


def test_m0_unique_cycle():
    assert cycle_census(ModelId.M0, 10**4) == [[1, 4, 2]]


def test_m0_census_agrees_with_brute_force():
    for bound in (10, 30):
        assert cycle_census(ModelId.M0, bound) == brute_force_cycles(
            ModelId.M0, bound)


def test_ms_census_agrees_with_brute_force():
    for bound in (16, 40):
        assert cycle_census(ModelId.MS, bound) == brute_force_cycles(
            ModelId.MS, bound)


def test_ms_known_two_cycles():
    census = cycle_census(ModelId.MS, 16)
    # T/F pairs make 2-cycles at odd x = 1 (mod 3) wherever 3x+1 fits
    assert [1, 4] in census
    assert [3, 10] in census
    assert [5, 16] in census


def test_m1_census_contains_b_d_two_cycles():
    census = cycle_census(ModelId.M1, 20)
    for x in (1, 2, 3):
        assert [x, 2 * x] in census  # D then B


def test_the_census_strips_its_graph_in_place():
    # A second, stripped adjacency beside bounded_graph's peaked at about
    # 3.3 MB here; stripping each node's list in place at about 2.3 MB.
    tracemalloc.start()
    try:
        cycles = cycle_census(ModelId.MS, 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cycles) == 1670 and cycles[0] == [1, 4]
    assert peak < 2.8e6


def test_census_rejects_tiny_bound():
    with pytest.raises(ValueError):
        cycle_census(ModelId.M0, 3)


def test_delooping_small_all_phases_clean():
    report = delooping_experiment(1000)
    assert report.phase3_matches_m0
    assert [p.phase for p in report.phases] == [1, 2, 3]
    for phase in report.phases:
        assert phase.all_reached, (phase.phase, phase.failed[:5])
        assert phase.reached == 1000
    d = report.to_dict()
    assert "wall_ms" not in d
    assert d["phases"][1]["dropped"] == ["E1"]
    assert d["phases"][2]["dropped"] == ["E1", "E4"]


def test_delooping_cap_failures_are_reported_not_hidden():
    # node 9663 needs to climb to 27,114,424 before first descending below
    # itself; with headroom 2^10 the value cap is 10,240,000, so once the
    # F-edges at x = 1 (mod 6) are gone the climb is unavoidable and the
    # node must be reported unreached
    report = delooping_experiment(10**4, search_headroom=2**10)
    assert report.phase3_matches_m0
    by_phase = {p.phase: p for p in report.phases}
    assert by_phase[1].all_reached
    assert by_phase[2].failed == [9663]
    assert by_phase[3].failed == [9663]
    # with enough headroom the same node clears
    bigger = delooping_experiment(10**4, search_headroom=2**12)
    assert all(p.all_reached for p in bigger.phases)


def test_peak_excursion_oracle_for_9663():
    # independent M0 iteration pinning the number used above
    x, peak = 9663, 9663
    while x >= 9663:
        x = 3 * x + 1 if x % 2 else x // 2
        peak = max(peak, x)
    assert peak == 27_114_424
    assert peak > 10**4 * 2**10


def test_delooping_rejects_tiny_bound():
    with pytest.raises(ValueError):
        delooping_experiment(8)


def test_streamed_phase3_check_equals_the_edge_set_comparison():
    for max_value in range(16, 301):
        ms, m0 = (bounded_graph(model, max_value)
                  for model in (ModelId.MS, ModelId.M0))
        phase3_edges = {(x, a, y) for x, moves in ms.items() for a, y in moves
                        if a is not Action.F or x % 6 not in (1, 4)}
        edge_sets_equal = phase3_edges == {
            (x, a, y) for x, moves in m0.items() for a, y in moves}
        report = delooping_experiment(max_value)
        assert report.phase3_matches_m0 == edge_sets_equal, max_value


@pytest.mark.parametrize("dropped", [(), (1,), (4,)],
                         ids=["drop-none", "drop-e1", "drop-e4"])
def test_streamed_phase3_check_fails_when_phase3_keeps_e4(monkeypatch,
                                                          dropped):
    monkeypatch.setitem(experiments._PHASE_DROPS, 3, dropped)
    assert not delooping_experiment(100).phase3_matches_m0


def test_phase_steps_depend_only_on_residues_and_drop_only_f():
    # the premise of deciding phase3_matches_m0 on x = 1..7: every step
    # function's action list depends only on (x mod 6, x > 1), and a phase
    # step is MS's moves minus F where x mod 6 is dropped
    ms = SUCCESSORS[ModelId.MS]
    steps = {"M0": SUCCESSORS[ModelId.M0], "MS": ms}
    for dropped in [*experiments._PHASE_DROPS.values(), (4,)]:
        steps[dropped] = experiments._phase_step(dropped)
    seen = {}
    for x in range(1, 10**4 + 1):
        for name, step in steps.items():
            moves = step(x)
            actions = [a for a, _ in moves]
            assert seen.setdefault((name, x % 6, x > 1), actions) == actions
            if name not in ("M0", "MS"):
                assert moves == [(a, y) for a, y in ms(x)
                                 if a is not Action.F or x % 6 not in name]


def walk_then_bfs_reaches_known(n, step, bounds, ok):
    """Reference: does n reach 1, or a smaller node in ok, under the phase
    edges? The M0 walk, legal in every phase, first; BFS over the phase's
    edges when the walk leaves the value cap or the depth."""
    x = n
    steps = 0
    while x <= bounds.max_value and steps <= bounds.max_depth:
        if x == 1 or (x < n and ok[x]):
            return True
        x = 3 * x + 1 if x % 2 else x // 2
        steps += 1
    result = bfs(ModelId.MS, step, n, lambda y: y == 1 or (y < n and ok[y]),
                 bounds)
    return not isinstance(result, Unreachable)


@functools.cache
def three_pass_deloop(max_value, headroom):
    """The de-looping phases as three separate ascending node loops, each
    walking every node's M0 trajectory again: (phase, reached, failed) per
    phase, and each phase's final ok table. Cached: tests only read it."""
    bounds = SearchBounds(max_value=max_value * headroom, max_depth=512,
                          max_states=200_000)
    rows, oks = [], []
    for phase, dropped in experiments._PHASE_DROPS.items():
        step = experiments._phase_step(dropped)
        ok = bytearray(max_value + 1)
        ok[1] = 1
        reached, failed = 1, []
        for n in range(2, max_value + 1):
            if walk_then_bfs_reaches_known(n, step, bounds, ok):
                ok[n] = 1
                reached += 1
            else:
                failed.append(n)
        rows.append((phase, reached, failed))
        oks.append(ok)
    return rows, oks


def first_m0_value_below(n, cap, max_depth=512):
    """The first M0 value below n with every value so far <= cap, within
    max_depth steps; 0 when there is none."""
    x = n
    for _ in range(max_depth + 1):
        if x > cap:
            return 0
        if x < n:
            return x
        x = 3 * x + 1 if x % 2 else x // 2
    return 0


@pytest.mark.parametrize("max_value, headroom", [(10**4, 2**10), (300, 2)] + [
    (m, h) for m in (16, 100, 9999, 10**4) for h in (1, 2, 2**10)
    if (m, h) != (10**4, 2**10)])
def test_one_node_loop_matches_three_separate_phase_passes(max_value,
                                                            headroom):
    # one bytearray of phase bitmasks, read through one m0_drop per node
    rows, _ = three_pass_deloop(max_value, headroom)
    report = delooping_experiment(max_value, search_headroom=headroom)
    assert [(p.phase, p.reached, p.failed) for p in report.phases] == rows


@pytest.mark.parametrize("max_value, headroom", [(10**4, 2**10), (300, 2)])
def test_the_shared_descent_leaves_each_phase_only_its_own_searches(
        max_value, headroom):
    rows, oks = three_pass_deloop(max_value, headroom)
    descents = {n: first_m0_value_below(n, max_value * headroom)
                for n in range(2, max_value + 1)}
    # nodes the shared descent cannot accept, so each phase's full walk
    # and BFS decide them
    undecided = [[n for n, d in descents.items() if not ok[d]] for ok in oks]
    if headroom == 2**10:
        assert rows[1][2] == rows[2][2] == [9663]
        assert undecided == [[9663]] * 3
    else:
        # the walk leaves the cap, or it lands on a node the phase failed
        assert any(descents[n] == 0 for n in undecided[1])
        assert any(descents[n] for n in undecided[1])
        # phase 1 reaches some of them through F-edges after all
        assert 0 < sum(oks[0][n] for n in undecided[0]) < len(undecided[0])


@pytest.mark.parametrize("max_value, headroom", [
    (10**4, 2**10), (10**5, 2**10), (1000, 1), (300, 2)])
def test_no_deloop_search_runs_out_of_budget(monkeypatch, max_value, headroom):
    # _reaches_known drops bound_exhausted, so "failed" means "no path
    # inside the value cap" only while no phase search exhausts its budget;
    # these runs make 3, 138, 1,803 and 366 searches
    results = []

    def recorded(*args):
        results.append(bfs(*args))
        return results[-1]

    monkeypatch.setattr(experiments, "bfs", recorded)
    delooping_experiment(max_value, search_headroom=headroom)
    assert results
    assert not any(isinstance(r, Unreachable) and r.bound_exhausted
                   for r in results)
