"""Graph views of the models: adjacency, F-edge residues, bounded graphs, DOT."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collatzlab.actions import Action, ModelId, action_function, apply
from collatzlab.models import (ACTION_ORDER, INTEGER_PREDECESSORS,
                               SUCCESSORS, bounded_graph, dot_lines,
                               predecessors, successors)
from test_actions import replay_legal, table_legal

positives = st.integers(min_value=1, max_value=10**5)
integer_models = st.sampled_from([ModelId.M0, ModelId.MS, ModelId.M1])


def test_known_neighborhoods():
    assert successors(7, ModelId.M0) == [(Action.T, 22)]
    assert successors(7, ModelId.MS) == [(Action.T, 22), (Action.F, 2)]
    assert successors(6, ModelId.MS) == [(Action.B, 3)]
    assert successors(7, ModelId.M1) == [(Action.T, 22), (Action.F, 2),
                                         (Action.D, 14)]
    assert successors(4, ModelId.M1) == [(Action.T, 13), (Action.B, 2),
                                         (Action.F, 1), (Action.D, 8)]
    # 1 has no F successor anywhere: (1-1)/3 = 0 is out of domain
    assert all(a is not Action.F for a, _ in successors(1, ModelId.M1))


@given(positives, integer_models)
@settings(max_examples=300)
def test_successor_nesting(x, model):
    m0 = set(successors(x, ModelId.M0))
    ms = set(successors(x, ModelId.MS))
    m1 = set(successors(x, ModelId.M1))
    assert m0 <= ms <= m1
    del model


@given(positives, integer_models)
@settings(max_examples=300)
def test_successors_agree_with_apply(x, model):
    for action, y in successors(x, model):
        assert apply(action, x, model) == y


@given(positives)
@settings(max_examples=300)
def test_predecessor_successor_duality(x):
    for action, y in predecessors(x, ModelId.M1):
        assert (action, x) in successors(y, ModelId.M1)
    for action, y in successors(x, ModelId.M1):
        assert (action, x) in predecessors(y, ModelId.M1)


def test_predecessors_are_m1_only():
    for model in (ModelId.M0, ModelId.MS, ModelId.M2):
        with pytest.raises(ValueError, match=model.name):
            predecessors(7, model)


def guard_table_successors(x, model):
    """Reference: the written guard table applied action by action."""
    return [(a, action_function(a, x)) for a in ACTION_ORDER
            if table_legal(a, x, model)]


def guard_table_predecessors(x, model):
    """Reference: every guard-legal move into x, found by trying the four
    candidate preimages (x - 1) // 3, 2x, 3x + 1 and x // 2 in T,B,F,D order.
    """
    out = []
    for a, y in zip(ACTION_ORDER, ((x - 1) // 3, 2 * x, 3 * x + 1, x // 2)):
        if y >= 1 and table_legal(a, y, model) and action_function(a, y) == x:
            out.append((a, y))
    return out


def assert_step_functions_match_guard_tables(x):
    for model in (ModelId.M0, ModelId.MS, ModelId.M1):
        expected = guard_table_successors(x, model)
        assert SUCCESSORS[model](x) == expected, (x, model)
        assert successors(x, model) == expected, (x, model)
    for model, step in INTEGER_PREDECESSORS.items():
        expected = guard_table_predecessors(x, model)
        assert step(x) == expected, (x, model)
        assert predecessors(x, model) == expected, (x, model)


def test_step_functions_match_guard_tables_exhaustively():
    assert set(SUCCESSORS) == set(ModelId)
    assert set(INTEGER_PREDECESSORS) == {ModelId.M1}
    for x in range(1, 2 * 10**4 + 1):
        assert_step_functions_match_guard_tables(x)


@given(st.integers(min_value=1, max_value=2**70))
@example(1)  # F guard x > 1: no F out of 1, no T into 1
@example(4)  # smallest x with an F move (to 1)
@settings(max_examples=500)
def test_step_functions_match_guard_tables_on_big_values(x):
    assert_step_functions_match_guard_tables(x)


def test_m2_graph_mode_stays_positive():
    # graph-mode F is withheld at 1, unlike interpreter-mode apply
    assert all(a is not Action.F for a, _ in successors(1, ModelId.M2))
    assert (Action.F, 2) in successors(7, ModelId.M2)


@given(st.integers(min_value=1, max_value=10**6))
@example(1)
def test_every_f_edge_is_e1_or_e4(x):
    # F needs x = 1 (mod 3) and x > 1, so every F-edge leaves x = 1 or 4
    # (mod 6): E1 and E4 are all the F-edges
    legal = replay_legal(Action.F, x, ModelId.MS)
    assert legal == (x > 1 and x % 6 in (1, 4))
    assert legal == any(a is Action.F for a, _ in successors(x, ModelId.MS))


def test_bounded_graph_drops_out_of_range_edges():
    g = bounded_graph(ModelId.MS, 10)
    assert list(g) == list(range(1, 11))
    assert all(1 <= y <= 10 for x, moves in g.items() for a, y in moves)
    # 7 -T-> 22 dropped, 7 -F-> 2 kept
    assert g[7] == [(Action.F, 2)]


def edges_without(graph, *residues):
    """The edge set of a bounded_graph adjacency minus the F-edges out of x
    with x mod 6 in residues: every edge when no residue is given."""
    return {(x, a, y) for x, moves in graph.items() for a, y in moves
            if a is not Action.F or x % 6 not in residues}


def test_dropping_both_f_classes_recovers_m0():
    for bound in (50, 500):
        stripped = edges_without(bounded_graph(ModelId.MS, bound), 1, 4)
        assert stripped == edges_without(bounded_graph(ModelId.M0, bound))


def test_to_dot_is_deterministic_and_marks_f_edges():
    g = bounded_graph(ModelId.MS, 8)
    out = "".join(dot_lines(g))
    assert out == "".join(dot_lines(bounded_graph(ModelId.MS, 8)))
    assert out.startswith("digraph collatz {")
    assert '4 -> 1 [label="F", color="red"];' in out
    assert '2 -> 1 [label="B"];' in out


def test_bounded_graph_rejects_tiny_bounds():
    with pytest.raises(ValueError):
        bounded_graph(ModelId.M0, 3)
