"""Action algebra: exact maps, guard tables, sequences, paths."""

import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import collatzlab
from collatzlab import search
from collatzlab.actions import (INTEGER_MODELS, Action, ActionSeq, ModelId,
                                Path, action_function, apply, apply_seq,
                                evaluate_exact, evaluate_form, inverse_seq,
                                is_legal, seq_of, validate_trace, walk_form)
from collatzlab.catalog import CLUSTER_TABLE, SUCCESSION_SEQS, Claim
from collatzlab.errors import (CollatzlabError, DomainViolation,
                               GuardViolation)

actions = st.sampled_from(list(Action))
sequences = st.lists(actions, min_size=1, max_size=12).map(
    lambda steps: ActionSeq(tuple(steps)))
positives = st.integers(min_value=1, max_value=10**9)


def test_action_maps():
    assert action_function(Action.T, 5) == 16
    assert action_function(Action.B, 16) == 8
    assert action_function(Action.F, 16) == 5
    assert action_function(Action.D, 5) == 10
    # non-integral results stay exact
    assert action_function(Action.B, 5) == Fraction(5, 2)
    assert action_function(Action.F, 5) == Fraction(4, 3)


@given(actions, positives)
def test_inverse_actions_cancel(action, x):
    y = action_function(action, Fraction(x))
    assert action_function(action.inverse, y) == x


def test_guard_tables():
    # M0: deterministic Collatz, exactly one legal action per value
    assert is_legal(Action.T, 5, ModelId.M0)
    assert not is_legal(Action.T, 6, ModelId.M0)
    assert is_legal(Action.B, 6, ModelId.M0)
    assert not is_legal(Action.F, 7, ModelId.M0)
    assert not is_legal(Action.D, 5, ModelId.M0)
    # MS: F joins at x = 1 (mod 3), x > 1
    assert is_legal(Action.F, 7, ModelId.MS)
    assert not is_legal(Action.F, 8, ModelId.MS)
    assert not is_legal(Action.F, 1, ModelId.MS)
    assert not is_legal(Action.D, 5, ModelId.MS)
    # M1: T and D always on; B/F keep their guards
    assert is_legal(Action.T, 6, ModelId.M1)
    assert is_legal(Action.D, 5, ModelId.M1)
    assert not is_legal(Action.B, 5, ModelId.M1)
    assert not is_legal(Action.F, 8, ModelId.M1)
    # M2 interpreter mode: everything goes
    assert all(is_legal(a, 5, ModelId.M2) for a in Action)
    # is_legal is read off the replay loop; the written table agrees
    for model in ModelId:
        for action in Action:
            for x in range(1, 200):
                assert (is_legal(action, x, model)
                        == table_legal(action, x, model)), (action, x, model)


@given(positives)
def test_m0_is_deterministic(x):
    legal = [a for a in Action if is_legal(a, x, ModelId.M0)]
    assert len(legal) == 1
    assert legal[0] is (Action.T if x % 2 else Action.B)


def test_apply_guard_and_domain_errors():
    with pytest.raises(GuardViolation):
        apply(Action.T, 6, ModelId.M0)
    with pytest.raises(GuardViolation):
        apply(Action.F, 1, ModelId.MS)
    with pytest.raises(DomainViolation):
        apply(Action.T, 0, ModelId.M0)
    # M2 never raises and goes rational/negative happily
    assert apply(Action.B, 5, ModelId.M2) == Fraction(5, 2)
    assert apply(Action.F, 1, ModelId.M2) == 0


def test_parsed_and_literal_sequences_are_equal():
    # a sequence is its steps: how it was spelled does not enter equality
    parsed = seq_of("TB")
    literal = ActionSeq((Action.T, Action.B))
    assert parsed == literal
    assert hash(parsed) == hash(literal)
    assert len({parsed, literal}) == 1


def test_sequence_application_order_is_left_to_right():
    # first letter first: D then T maps 5 -> 10 -> 31
    path = apply_seq(seq_of("DT"), 5, ModelId.M1)
    assert path.values == (5, 10, 31)
    assert path.end == 31


def test_plus_one_identity_pins_the_convention():
    end, flagged = evaluate_exact(seq_of("TDDFFBBT"), 10)
    assert end == 11 and not flagged


@given(sequences, positives)
@settings(max_examples=500)
def test_inverse_seq_round_trips_exactly(seq, x):
    forward, _ = evaluate_exact(seq, x)
    back, _ = evaluate_exact(inverse_seq(seq), forward)
    assert back == x


def test_every_legal_m1_step_has_a_legal_inverse_back():
    # The fact that spares verify a cycle-closing replay: T at x is undone
    # by F at 3x+1 >= 4, B by D, F by T and D by B. Every catalog claim runs
    # under M1, so a model change must bring that replay back.
    assert Claim.model is ModelId.M1
    legal = 0
    for action in Action:
        for x in range(1, 61):   # every residue mod 6, and x = 1
            if is_legal(action, x, ModelId.M1):
                y = apply(action, x, ModelId.M1)
                assert is_legal(action.inverse, y, ModelId.M1), (action, x)
                assert apply(action.inverse, y, ModelId.M1) == x
                legal += 1
    assert legal == 60 + 30 + 19 + 60   # T, B (even x), F (7, 10, ..), D


@given(positives, st.lists(st.integers(0, 3), max_size=20))
@settings(max_examples=300)
def test_the_inverse_of_a_legal_m1_walk_walks_back(x, picks):
    steps = []
    y = x
    for pick in picks:
        legal = [a for a in Action if is_legal(a, y, ModelId.M1)]
        steps.append(legal[pick % len(legal)])
        y = apply(steps[-1], y, ModelId.M1)
    walk = apply_seq(ActionSeq(tuple(steps)), x, ModelId.M1)
    back = apply_seq(inverse_seq(walk.actions), walk.end, ModelId.M1)
    assert back.values == walk.values[::-1]


@given(sequences)
def test_inverse_is_involutive(seq):
    assert inverse_seq(inverse_seq(seq)).steps == seq.steps


def test_apply_seq_fails_fast_with_index():
    with pytest.raises(GuardViolation) as exc:
        apply_seq(seq_of("TTB"), 1, ModelId.M0)  # 1 -> 4, then T is illegal
    assert exc.value.step_index == 1


def test_trace_replay():
    path = apply_seq(seq_of("TBB"), 1, ModelId.MS)
    assert path.values == (1, 4, 2, 1)
    assert validate_trace(path)


def test_tampered_paths_do_not_validate():
    good = apply_seq(seq_of("TBB"), 1, ModelId.MS)
    assert good.validate() and validate_trace(good)
    tampered = (
        Path(ModelId.MS, 1, good.actions, 1, (1, 4, 3, 1)),  # wrong value
        Path(ModelId.MS, 1, good.actions, 2, good.values),  # wrong end
        Path(ModelId.M0, 1, seq_of("TDB"), 1, (1, 4, 8, 4)),  # D illegal
        Path(ModelId.MS, 1, ActionSeq(()), 1, ()),  # values left out
    )
    for path in tampered:
        assert not path.validate(), path
        assert not validate_trace(path), path


def test_every_public_name_is_bound():
    for name in collatzlab.__all__:
        assert hasattr(collatzlab, name), name
    assert not hasattr(collatzlab, "Trace")


def test_evaluate_exact_flags_nonpositive():
    end, flagged = evaluate_exact(seq_of("FF"), 1)
    assert end == Fraction(-1, 3)
    assert [i for i, _ in flagged] == [0, 1]


@given(sequences, positives)
@settings(max_examples=300)
def test_evaluate_exact_matches_fraction_oracle(seq, x):
    value = Fraction(x)
    for action in seq:
        value = action_function(action, value)
    end, _ = evaluate_exact(seq, x)
    assert end == value


def table_legal(action, x, model):
    """The four models' guard table, written out apart from the library."""
    if model is ModelId.M2:
        return True
    if action is Action.T:
        return model is ModelId.M1 or x % 2 == 1
    if action is Action.B:
        return x % 2 == 0
    if action is Action.F:
        return model is not ModelId.M0 and x % 3 == 1 and x > 1
    return model is ModelId.M1  # D


def reference_apply(action, x, model, step_index=None):
    """One guarded step from table_legal and action_function, both domains
    checked."""
    if model in INTEGER_MODELS:
        if not isinstance(x, int) or x < 1:
            raise DomainViolation(action, x, x, model, step_index)
        if not table_legal(action, x, model):
            raise GuardViolation(action, x, model, step_index)
        result = action_function(action, x)
        if not isinstance(result, int) or result < 1:
            raise DomainViolation(action, x, result, model, step_index)
        return result
    return action_function(action, Fraction(x))


def reference_apply_seq(seq, x, model):
    values = [x]
    for i, action in enumerate(seq.steps):
        values.append(reference_apply(action, values[-1], model, i))
    return Path(model=model, start=x, actions=seq, end=values[-1],
                values=tuple(values))


def outcome(fn, *args):
    """The value with its type, or the error's type, message and step index."""
    try:
        value = fn(*args)
    except CollatzlabError as exc:
        return type(exc), str(exc), exc.step_index
    return type(value), value


def test_fused_apply_matches_guard_table():
    bad_inputs = (0, -3, Fraction(1, 2))
    for model in ModelId:
        for action in Action:
            for x in range(1, 2 * 10**4 + 1):
                # x mod 4 is independent of x mod 3 and covers both
                # parities, so every guard case is met with and without
                # a step index
                args = (action, x, model, None if x % 4 < 2 else x)
                assert outcome(apply, *args) == outcome(reference_apply,
                                                        *args), args
            for x in bad_inputs:
                for step_index in (None, 5):
                    args = (action, x, model, step_index)
                    assert outcome(apply, *args) == outcome(reference_apply,
                                                            *args), args
            for x in bad_inputs:
                seq = ActionSeq((action,))
                assert (outcome(apply_seq, seq, x, model)
                        == outcome(reference_apply_seq, seq, x, model))


@given(st.lists(actions, max_size=12).map(lambda s: ActionSeq(tuple(s))),
       st.integers(min_value=1, max_value=2**70), st.sampled_from(list(ModelId)))
@settings(max_examples=400)
@example(seq_of("TTB"), 1, ModelId.M0)
@example(seq_of("FB"), 2**70 + 1, ModelId.MS)
def test_fused_apply_matches_guard_table_on_big_values(seq, x, model):
    for action in Action:
        assert (outcome(apply, action, x, model, 3)
                == outcome(reference_apply, action, x, model, 3))
    assert (outcome(apply_seq, seq, x, model)
            == outcome(reference_apply_seq, seq, x, model))


SHORT_SEQS = [ActionSeq(steps) for n in range(5)
              for steps in itertools.product(list(Action), repeat=n)]


def test_fused_replay_matches_the_reference_on_every_short_sequence():
    assert len(SHORT_SEQS) == 341
    failed_at = set()
    for model in INTEGER_MODELS:
        for seq in SHORT_SEQS:
            for x in range(1, 73):
                got = outcome(apply_seq, seq, x, model)
                assert got == outcome(reference_apply_seq, seq, x, model), (
                    seq, x, model)
                if got[0] is not Path:
                    failed_at.add(got[2])
    # failures were met at every step of a length-4 sequence
    assert failed_at == {0, 1, 2, 3}


def test_mid_sequence_failures_are_pinned():
    cases = [
        (seq_of("TTB"), 1, ModelId.M0,
         (GuardViolation, "T illegal at 4 under M0 (step 1)", 1)),
        (seq_of("TBBF"), 1, ModelId.MS,
         (GuardViolation, "F illegal at 1 under MS (step 3)", 3)),
        (seq_of("DDFB"), 5, ModelId.M1,
         (GuardViolation, "F illegal at 20 under M1 (step 2)", 2)),
        (seq_of("TD"), 3, ModelId.MS,
         (GuardViolation, "D illegal at 10 under MS (step 1)", 1)),
        (seq_of("BT"), 0, ModelId.M1,
         (DomainViolation, "B at 0 gives 0, outside M1 domain (step 0)", 0)),
    ]
    for seq, x, model, expected in cases:
        assert outcome(apply_seq, seq, x, model) == expected
        assert outcome(reference_apply_seq, seq, x, model) == expected


def test_empty_sequence_at_a_nonpositive_start_is_a_one_value_path():
    for model in ModelId:
        for x in (0, -3):
            path = apply_seq(ActionSeq(()), x, model)
            assert path == Path(model, x, ActionSeq(()), x, (x,))


def stepwise_fraction(seq, x):
    """(end, flagged) by plain Fraction arithmetic, one action at a time."""
    maps = {Action.T: lambda v: 3 * v + 1, Action.B: lambda v: v / 2,
            Action.F: lambda v: (v - 1) / 3, Action.D: lambda v: 2 * v}
    value = Fraction(x)
    flagged = []
    for i, action in enumerate(seq.steps):
        value = maps[action](value)
        if value <= 0:
            flagged.append((i, value))
    return value, flagged


rationals = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4))


@given(st.lists(actions, max_size=20).map(lambda s: ActionSeq(tuple(s))),
       rationals)
@settings(max_examples=500)
@example(ActionSeq(()), 0)
@example(seq_of("FF"), 1)
@example(seq_of("BT"), -3)
@example(seq_of("TDDFFBBT"), Fraction(-7, 6))
def test_evaluate_exact_matches_stepwise_fractions_on_signed_rationals(seq, x):
    end, flagged = evaluate_exact(seq, x)
    want, want_flagged = stepwise_fraction(seq, x)
    assert (end, flagged) == (want, want_flagged)
    # an int exactly when the result is an integer, reading the same
    assert type(end) is (int if want.denominator == 1 else Fraction)
    assert str(end) == str(want)
    assert all(type(value) is Fraction for _, value in flagged)


def hand_walk(model, start, text):
    """(model, start, actions, end, values) of a walk, by plain arithmetic
    with no guard check."""
    maps = {"T": lambda v: 3 * v + 1, "B": lambda v: v // 2,
            "F": lambda v: (v - 1) // 3, "D": lambda v: 2 * v}
    values = [start]
    for c in text:
        values.append(maps[c](values[-1]))
    return model, start, seq_of(text), values[-1], tuple(values)


def test_path_is_an_immutable_value():
    fields = hand_walk(ModelId.MS, 1, "TBB")
    path = apply_seq(seq_of("TBB"), 1, ModelId.MS)
    assert (path.model, path.start, path.actions, path.end,
            path.values) == fields
    built = Path(*fields)
    assert path == built and hash(path) == hash(built)
    by_name = Path(model=ModelId.MS, start=1, actions=seq_of("TBB"), end=1,
                   values=(1, 4, 2, 1))
    assert len({path, built, by_name}) == 1
    for i in range(5):
        other = list(fields)
        other[i] = ModelId.M1 if i == 0 else ActionSeq(()) if i == 2 else 7
        assert Path(*other) != path
    for name in ("model", "start", "actions", "end", "values"):
        with pytest.raises(AttributeError):
            setattr(path, name, None)
    assert path.peak == 4


def test_path_length_counts_actions_and_an_empty_path_is_falsy():
    path = apply_seq(seq_of("TDDFFBBT"), 12, ModelId.M1)
    assert len(path) == len(path.actions) == 8 and path
    empty = apply_seq(ActionSeq(()), 5, ModelId.M0)
    assert len(empty) == 0 and not empty and empty.values == (5,)
    # the benchmark counts a trajectory's steps as len(path)
    steps, x = 0, 27
    while x != 1:
        x = 3 * x + 1 if x % 2 else x // 2
        steps += 1
    assert len(search.trajectory(27)) == steps == 111


def test_path_survives_pickling():
    for path in (apply_seq(seq_of("TBB"), 1, ModelId.MS),
                 apply_seq(ActionSeq(()), 5, ModelId.M0),
                 apply_seq(seq_of("BT"), Fraction(1, 3), ModelId.M2),
                 search.trajectory(27)):
        back = pickle.loads(pickle.dumps(path))
        assert back == path and type(back) is Path
        assert back.validate()


def test_search_results_are_paths():
    assert search.Path is Path
    found = search.bfs_reach(ModelId.MS, 3, 10,
                             search.SearchBounds(max_value=100))
    for path in (found, search.trajectory(7), apply_seq(seq_of("T"), 3,
                                                        ModelId.M0)):
        assert isinstance(path, search.Path) and path.validate()
    assert not isinstance(search.Unreachable(False), search.Path)


@pytest.mark.parametrize("text, x, end, shown", [
    ("TDDFFBBT", 10, 11, "11"),
    ("BD", 5, 5, "5"),  # 5/2 then 10/2: the pair is not kept reduced
    ("F", 1, 0, "0"),
    ("F", -2, -1, "-1"),
    ("", Fraction(4, 2), 2, "2"),
    ("B", 5, Fraction(5, 2), "5/2"),
    ("FF", 1, Fraction(-1, 3), "-1/3"),
    ("TB", Fraction(1, 2), Fraction(5, 4), "5/4"),
])
def test_evaluate_exact_returns_an_int_for_integer_results(text, x, end,
                                                           shown):
    result, flagged = evaluate_exact(seq_of(text), x)
    assert result == end and str(result) == shown == str(Fraction(end))
    assert type(result) is (int if Fraction(end).denominator == 1
                            else Fraction)
    assert all(type(value) is Fraction for _, value in flagged)


@pytest.mark.parametrize("member", [*Action, *ModelId], ids=str)
def test_enum_members_hash_by_identity_and_survive_pickling(member):
    assert type(member).__hash__ is object.__hash__
    back = pickle.loads(pickle.dumps(member))
    assert back is member and hash(back) == hash(member)
    table = {m: i for i, m in enumerate([*Action, *ModelId])}
    assert table[back] == table[member]
    assert back in set(table) and back in frozenset(table)
    copied = pickle.loads(pickle.dumps(table))
    assert copied[member] == table[member]



# Forms x = a*s + b walked from a least s, positive and not; the guards read
# x mod 6, so s in least .. least + 5 meets every case of every step.
FORMS = [(a, b, least) for a in (0, 1, 2, 3, 6, 9, 12, 18)
         for b in range(-4, 13) for least in (0, 1)]
# The letters each integer model can take at some x.
MODEL_LETTERS = {ModelId.M0: "TB", ModelId.MS: "TBF", ModelId.M1: "TBFD"}


def random_scripts(rng, letters, count):
    return [tuple(Action(rng.choice(letters))
                  for _ in range(rng.randint(1, 16))) for _ in range(count)]


def replay_or_none(steps, x, model):
    """The values of the test-local reference replay, or None where it
    raises: an oracle independent of _replay, on which walk_form is built."""
    try:
        return reference_apply_seq(ActionSeq(tuple(steps)), x, model).values
    except (GuardViolation, DomainViolation):
        return None


def check_form_against_replay(steps, model, forms=FORMS):
    """walk_form agrees with the reference replay, s by s, on every form:
    it proves a form exactly when every s from least on replays, its end
    form gives every end and its peak forms every peak; returns how many it
    proves."""
    proved = 0
    for a, b, least in forms:
        walk = walk_form(steps, a, b, least, model)
        ss = [*range(least, least + 6), least + 97, least + 10**6]
        walks = [replay_or_none(steps, a * s + b, model) for s in ss]
        assert (walk is not None) == all(w is not None for w in walks[:6]), \
            (steps, a, b, least)
        if walk is None:
            continue
        proved += 1
        (a_end, b_end), peaks = walk
        for s, values in zip(ss, walks):
            assert values[-1] == a_end * s + b_end
            assert max(values) == max(p * s + c for p, c in peaks)
    return proved


@pytest.mark.parametrize("model", INTEGER_MODELS, ids=str)
def test_walk_form_matches_replay_for_every_single_action(model):
    proved = {action.value: check_form_against_replay((action,), model)
              for action in Action}
    # a letter proves on some form exactly when the model can take it, and
    # on every positive form exactly when it is unguarded
    positive = sum(a * least + b >= 1 for a, b, least in FORMS)
    for letter, n in proved.items():
        assert (n > 0) == (letter in MODEL_LETTERS[model]), letter
        assert (n == positive) == (model is ModelId.M1 and letter in "TD")


@pytest.mark.parametrize("model", INTEGER_MODELS, ids=str)
def test_walk_form_matches_replay_on_seeded_random_scripts(model):
    rng = random.Random(23)
    scripts = (random_scripts(rng, MODEL_LETTERS[model], 30)
               + random_scripts(rng, "TBFD", 8))
    proved = [check_form_against_replay(steps, model) for steps in scripts]
    # both outcomes are met: some scripts prove on some form, some on none
    assert any(proved) and not all(proved)


def test_walk_form_matches_replay_on_the_cluster_table_scripts():
    rows = [row for claim in CLUSTER_TABLE.values() for row in claim.rows]
    assert len({row[4].steps for row in rows}) == 26   # 28 rows
    for _, _, start, end, script, least in rows:
        assert walk_form(script.steps, *start, least, ModelId.M1)[0] == end
        assert check_form_against_replay(script.steps, ModelId.M1,
                                         [(*start, least)]) == 1


def test_walk_form_edge_cases():
    for model in INTEGER_MODELS:
        # no step: the start is the end and the peak, even below 1, as in
        # _replay
        assert walk_form((), 0, -3, 0, model) == ((0, -3), ((0, -3),))
        # a start below 1 for some s raises in _replay, so it is no proof
        assert walk_form((Action.T,), 0, 0, 1, model) is None
        assert walk_form((Action.T,), -1, 99, 0, model) is None
        assert walk_form((Action.B,), 2, -2, 1, model) is None
        assert walk_form((Action.B,), 2, -2, 2, model) == ((1, -1),
                                                           ((2, -2), (1, -1)))
    # F at x = 1 would give 0: a form that meets 1 at least is no proof
    assert walk_form((Action.F,), 3, 1, 0, ModelId.MS) is None
    assert walk_form((Action.F,), 0, 1, 5, ModelId.MS) is None
    assert walk_form((Action.F,), 3, 1, 1, ModelId.MS) == ((1, 0),
                                                           ((3, 1), (1, 0)))
    # the start is a peak when the walk first goes down, not when it rises
    assert walk_form(seq_of("TB").steps, 2, 1, 0, ModelId.M1) == (
        (3, 2), ((6, 4), (3, 2)))


def test_evaluate_form_matches_evaluate_exact():
    xs = range(-200, 2000)
    rng = random.Random(23)
    seqs = ([ActionSeq(())] + [ActionSeq((action,)) for action in Action]
            + list(SUCCESSION_SEQS.values())
            + [ActionSeq(steps) for steps in random_scripts(rng, "TBFD", 40)])
    dipped_positive = 0
    for seq in seqs:
        alpha, beta, q, low = evaluate_form(seq)
        assert alpha > 0 and q > 0
        for x in xs:
            end, flagged = evaluate_exact(seq, x)
            assert end == Fraction(alpha * x + beta, q), (seq, x)
            assert (x <= low) == bool(flagged), (seq, x)
        dipped_positive += max(0, min(low, xs[-1]))
    assert dipped_positive > 0
    assert evaluate_form(seq_of("FF")) == (1, -4, 9, 4)
    assert evaluate_form(seq_of("TB")) == (3, 1, 2, -1)
    assert evaluate_form(ActionSeq(())) == (1, 0, 1, -math.inf)
