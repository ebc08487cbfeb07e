"""Catalog scripts: affine behaviour over rationals, guard-legality over ints."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab.actions import ModelId, apply_seq, evaluate_exact, inverse_seq
from collatzlab.catalog import (CLUSTER_TABLE, SEQ_00_11, SEQ_01_11,
                                SEQ_02_11, SEQ_10_11, SEQ_11_00, SEQ_11_01,
                                SEQ_11_02, SEQ_11_10, SEQ_12_21, SEQ_20_21,
                                SEQ_21_12, SEQ_21_20, SEQ_APPEND2,
                                SEQ_BACKSPACE2, SEQ_HOP_EVEN, SEQ_HOP_ODD,
                                SEQ_TO_11, SMALL_TO_FOUR, SUCCESSION_SEQS,
                                a_class, build_claims)
from collatzlab.verify import (CHUNK, CLUSTER_HUB, CLUSTER_MEMBERS,
                               build_witness)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000)).filter(
        lambda q: q.denominator <= 2**6)

# Each core script is an affine map x -> x + c over the rationals; the
# offset is forced by the suffix arithmetic (A10 = 9A+3, A11 = 9A+4, ...).
AFFINE_OFFSETS = [
    (SEQ_10_11, 1), (SEQ_11_10, -1),
    (SEQ_02_11, 2), (SEQ_11_02, -2),
    (SEQ_01_11, 3), (SEQ_11_01, -3),
    (SEQ_00_11, 4), (SEQ_11_00, -4),
    (SEQ_20_21, 1), (SEQ_21_20, -1),
    (SEQ_12_21, 2), (SEQ_21_12, -2),
]


@given(rationals)
@settings(max_examples=200)
def test_core_scripts_are_plus_c_identities(x):
    for seq, c in AFFINE_OFFSETS:
        end, _ = evaluate_exact(seq, x)
        assert end == x + c, f"{seq} at {x}"


@given(rationals)
def test_append2_is_3x_plus_2(x):
    end, _ = evaluate_exact(SEQ_APPEND2, x)
    assert end == 3 * x + 2
    back, _ = evaluate_exact(SEQ_BACKSPACE2, end)
    assert back == x


@given(st.integers(min_value=1, max_value=10**6), st.integers(1, 4))
@settings(max_examples=300)
def test_succession_sequences(x, c):
    end, flagged = evaluate_exact(SUCCESSION_SEQS[c], x)
    assert end == x + c
    # tiny x can dip to zero or below mid-script (e.g. x=2 on the +2
    # script); the endpoint is exact regardless
    if x > 4:
        assert not flagged


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=200, deadline=None)
def test_conditional_scripts_guard_legal_and_exact(a):
    # A21 -> A11 and A22 -> A11 under full M1 guards, integer all the way
    t21 = apply_seq(SEQ_TO_11[7][a_class(a)], 9 * a + 7, ModelId.M1)
    assert t21.end == 9 * a + 4
    t22 = apply_seq(SEQ_TO_11[8][a_class(a)], 9 * a + 8, ModelId.M1)
    assert t22.end == 9 * a + 4


@given(st.integers(min_value=1, max_value=10**5))
@settings(max_examples=200, deadline=None)
def test_conditional_scripts_invert(a):
    seq = SEQ_TO_11[7][a_class(a)]
    forward = apply_seq(seq, 9 * a + 7, ModelId.M1)
    back = apply_seq(inverse_seq(seq), forward.end, ModelId.M1)
    assert back.end == 9 * a + 7
    assert back.values == forward.values[::-1]


def test_small_to_four_table():
    from collatzlab.actions import seq_of

    for n, text in SMALL_TO_FOUR.items():
        end = apply_seq(seq_of(text), n, ModelId.M1).end if text else n
        assert end == 4, n


@given(st.integers(min_value=1, max_value=2**70))
@settings(max_examples=150, deadline=None)
def test_to_eleven_script_reaches_four(value):
    trace = apply_seq(build_claims()["T.a-11"].build(value), value,
                      ModelId.M1)
    assert trace.end == 4


def test_append2_scripts_guard_legal_from_any_trailing_two():
    # numerals ending in 2: v = 3W + 2; the append script must be legal
    # for every one of them, not just special residues
    for v in range(2, 3000, 3):
        trace = apply_seq(SEQ_APPEND2, v, ModelId.M1)
        assert trace.end == 3 * v + 2
        back = apply_seq(SEQ_BACKSPACE2, trace.end, ModelId.M1)
        assert back.end == v


def test_build_claims_ids_are_stable():
    claims = build_claims()
    assert "L.10-11" in claims
    assert "T.node-loop" in claims
    assert claims["L.11-21.even"].inverse_of == "L.21-11.even"
    # applicability predicates agree with documented side conditions
    assert claims["L.21-11.even"].applies(2)
    assert not claims["L.21-11.even"].applies(3)
    assert claims["L.21-11.last1"].applies(7)  # 7 odd, 7 = 1 (mod 3)
    assert not claims["L.21-11.last1"].applies(9)


# Catalog rows, and the node-loop hops 3h+2 => h inside them, proved on
# affine forms. walk_affine is test-local and independent of collatzlab: it runs a
# script on x = a*s + b and raises unless every M1 guard is decided for all
# s >= s0. M1's guards read only x mod 2, x mod 3 and x > 1; with a >= 1,
# x grows with s, so x > 1 is checked at s0.

def walk_affine(script, a, b, s0):
    """End form (a, b) of script on a*s + b over s >= s0."""
    if a < 1 or a * s0 + b < 1:
        raise ValueError(f"{a}s+{b} is not positive for s >= {s0}")
    for i, c in enumerate(script):
        if c == "T":
            a, b = 3 * a, 3 * b + 1
        elif c == "D":
            a, b = 2 * a, 2 * b
        elif c == "B":
            if a % 2 or b % 2:
                raise ValueError(f"B undecided on {a}s+{b} at step {i}")
            a, b = a // 2, b // 2
        elif c == "F":
            if a % 3 or b % 3 != 1 or a * s0 + b <= 1:
                raise ValueError(f"F undecided on {a}s+{b} at step {i}")
            a, b = a // 3, (b - 1) // 3
        else:
            raise ValueError(f"unknown action {c!r}")
    return a, b


def test_affine_walker_proves_a_known_lemma_and_rejects_undecided_guards():
    assert walk_affine("TDDFFBBT", 9, 3, 0) == (9, 4)  # A10 => A11
    for script, a, b, s0 in (("B", 3, 1, 0), ("B", 2, 1, 0),
                             ("F", 2, 1, 0), ("F", 3, 2, 0), ("F", 3, 1, 0)):
        with pytest.raises(ValueError):
            walk_affine(script, a, b, s0)


def test_node_loop_hops_are_proved_for_every_h():
    assert SEQ_HOP_EVEN.render() == "BFD"
    assert SEQ_HOP_ODD.render() == "DFDDTTBBBBFDF"
    assert walk_affine(SEQ_HOP_EVEN.render(), 6, 2, 1) == (2, 0)  # h = 2s
    assert walk_affine(SEQ_HOP_ODD.render(), 6, 5, 0) == (2, 1)   # h = 2s+1


def test_node_loop_scripts_are_proved_for_every_a():
    build = build_claims()["T.node-loop"].build
    for start, step, form, s0, end in ((2, 2, (2, 0), 1, (1, 0)),
                                       (5, 4, (4, 1), 1, (2, 0)),
                                       (3, 4, (4, 3), 0, (2, 1))):
        # one script per class of A ...
        scripts = {build(a).render() for a in range(start, 2000, step)}
        assert len(scripts) == 1
        # ... and it takes the whole class to A // 2
        assert walk_affine(scripts.pop(), *form, s0) == end


def test_every_single_letter_mutation_of_the_odd_hop_fails():
    hop = SEQ_HOP_ODD.render()
    survivors = []
    for i, letter in enumerate(hop):
        for c in "TBFD".replace(letter, ""):
            mutant = hop[:i] + c + hop[i + 1:]
            try:
                proved = walk_affine(mutant, 6, 5, 0) == (2, 1)
            except ValueError:
                proved = False
            if proved:
                survivors.append(mutant)
    assert survivors == []


def _proves(script, start, end, least):
    try:
        return walk_affine(script, *start, least) == end
    except ValueError:
        return False


def _unproved_and_survivors(rows):
    """The (claim id, residue) of each row in rows that walk_affine does
    not prove, and each one-letter mutant of a row's script that it does.

    A row (modulus, residue, start, end, script, least) reads A =
    modulus*s + residue for s >= least and claims that its script takes
    the start form to the end form.
    """
    unproved, survivors = [], []
    for claim_id, (_, residue, start, end, seq, least) in rows:
        script = seq.render()
        if not _proves(script, start, end, least):
            unproved.append((claim_id, residue))
        for i, letter in enumerate(script):
            for c in "TBFD".replace(letter, ""):
                mutant = script[:i] + c + script[i + 1:]
                if _proves(mutant, start, end, least):
                    survivors.append((claim_id, residue, mutant))
    return unproved, survivors


def test_every_catalog_row_is_proved_on_its_forms_and_no_mutant_is():
    # T.a-11's 54 round rows and 8 base rows included
    rows = [(claim_id, row) for claim_id, claim in build_claims().items()
            for row in claim.rows]
    assert len(rows) == 97
    # The node-loop hops 3h+2 => h, walked on their own forms as rows of A:
    # 6s+2 (h = 2s, s >= 1) and 6s+5 (h = 2s+1, s >= 0).
    rows += [("SEQ_HOP_EVEN", (6, 2, (6, 2), (2, 0), SEQ_HOP_EVEN, 1)),
             ("SEQ_HOP_ODD", (6, 5, (6, 5), (2, 1), SEQ_HOP_ODD, 0))]
    assert _unproved_and_survivors(rows) == ([], [])


def test_every_cluster_table_row_is_proved_and_no_mutant_is():
    rows = [(claim.id, row) for claim in CLUSTER_TABLE.values()
            for row in claim.rows]
    assert len(rows) == 28
    assert _unproved_and_survivors(rows) == ([], [])


def test_cluster_table_covers_every_member_hub_pair_for_both_parities():
    # A = k here, and k = 1..4 covers both parities of k and both rows of
    # a pair split on it.
    pairs = {pair for kind, hub in CLUSTER_HUB.items()
             for r in CLUSTER_MEMBERS[kind] if r != hub
             for pair in ((r, hub), (hub, r))}
    assert set(CLUSTER_TABLE) == pairs and len(pairs) == 20
    for (src, dst), claim in CLUSTER_TABLE.items():
        assert {row[:2] for row in claim.rows} in ({(1, 0)},
                                                   {(2, 0), (2, 1)})
        for k in range(1, 5):
            start, end, _ = claim.at(k)
            assert (start, end) == (9 * k + src, 9 * k + dst)


def _matching_rows(claim, a):
    """Indexes of every row of claim that A matches, in row order."""
    return [j for j, (modulus, residue, *_, least) in enumerate(claim.rows)
            if a % modulus == residue and a // modulus >= least]


def test_every_row_residue_is_below_its_modulus():
    # Claim.at looks rows up by A mod the lcm of their moduli, filed under
    # each residue's class, so a residue must be A mod its modulus
    for claim in [*build_claims().values(), *CLUSTER_TABLE.values()]:
        assert all(0 <= residue < modulus
                   for modulus, residue, *_ in claim.rows), claim.id


def test_only_node_loop_and_base_rows_overlap_and_columns_keep_first_match():
    claims = [*build_claims().values(), *CLUSTER_TABLE.values()]
    a_range = range(-40, 3001)
    shared = {}
    for claim in claims:
        for a in a_range:
            rows = _matching_rows(claim, a)
            assert (claim.at(a) is None) == (not rows), (claim.id, a)
            if len(rows) > 1:
                shared.setdefault((claim.id, *rows), []).append(a)
    # the two 4s+1 rows of T.node-loop both match every A = 4s+1 >= 5,
    # where the first wins, so the later TBB row is A's first only at A = 1;
    # each base row m*s + v of T.a-11 meets the round row of A mod 54 at
    # every A = m*s + v >= 9, where the round row wins, so only A = v
    # reaches it; the two rows of a split CLUSTER_TABLE pair never meet
    # (k's parity)
    a11 = build_claims()["T.a-11"]
    expected = {("T.node-loop", 1, 3): list(range(5, 3001, 4))}
    for j, (m, v, *_) in enumerate(a11.rows[54:], 54):
        for a in range(m + v, 3001, m):
            expected.setdefault(("T.a-11", a % 54, j), []).append(a)
    assert shared == expected
    node_loop = build_claims()["T.node-loop"]
    assert [a for a in a_range if _matching_rows(node_loop, a)[:1] == [3]] \
        == [1]
    assert [a for a in a_range if _matching_rows(a11, a)[:1] >= [54]] \
        == list(range(1, 9))
    # a column holds the A of one row, the first matching row of each, as
    # the row's s: a range of consecutive s but for the overlapping TBB
    # and base rows; a chained claim yields its other rows with no s
    listed = {("T.node-loop", 3), *(("T.a-11", j) for j in range(54, 62))}
    for claim in claims:
        for chunk in (range(-40, 41), range(1, CHUNK + 1),
                      range(997, 997 + CHUNK)):
            first = {}
            for a in chunk:
                if rows := _matching_rows(claim, a):
                    first.setdefault(rows[0], []).append(a)
            columns = list(claim.columns(chunk))
            if claim.chained:
                assert [tuple(rest) for _, *rest in columns] == [
                    row[2:] for row in claim.rows]
                columns = [columns[j] for j in sorted(first)]
            assert [(list(ss), *rest) for ss, *rest in columns] == [
                ([a // claim.rows[j][0] for a in group], *claim.rows[j][2:])
                for j, group in sorted(first.items())], (claim.id, chunk)
            assert [isinstance(ss, range) for ss, *_ in columns] == [
                (claim.id, j) not in listed for j in sorted(first)]
            for (ss, (m, c), (m2, c2), *_), group in zip(
                    columns, (first[j] for j in sorted(first))):
                assert [(m * s + c, m2 * s + c2) for s in ss] == [
                    claim._first(a)[:2] for a in group], (claim.id, chunk)


def test_unsplit_cluster_pairs_are_the_suffix_lemma_rows():
    claims = build_claims()
    unsplit = {pair: claim.rows for pair, claim in CLUSTER_TABLE.items()
               if len(claim.rows) == 1}
    lemmas = {"L.00-11": (0, 4), "L.01-11": (1, 4), "L.02-11": (2, 4),
              "L.10-11": (3, 4), "L.11-00": (4, 0), "L.11-01": (4, 1),
              "L.11-02": (4, 2), "L.11-10": (4, 3), "L.12-21": (5, 7),
              "L.20-21": (6, 7), "L.21-12": (7, 5), "L.21-20": (7, 6)}
    assert unsplit == {pair: claims[claim_id].rows
                       for claim_id, pair in lemmas.items()}


def test_node_loop_scripts_replay_for_every_a_up_to_1e5():
    build = build_claims()["T.node-loop"].build
    for a in range(1, 100_001):
        end = apply_seq(build(a), a, ModelId.M1).end
        assert end == (1 if a == 1 else a // 2), a


@given(st.integers(min_value=2, max_value=2**70))
@settings(max_examples=300, deadline=None)
def test_node_loop_scripts_replay_on_large_a(a):
    seq = build_claims()["T.node-loop"].build(a)
    forward = apply_seq(seq, a, ModelId.M1)
    assert forward.end == a // 2
    assert apply_seq(inverse_seq(seq), forward.end, ModelId.M1).end == a


def test_scripted_witnesses_match_the_recorded_golden_digest():
    # Recorded before the node-loop hop was scripted; odd A > 1 of
    # T.node-loop is the only witness that changed, so it is left out.
    # So are the inverse lemmas, which then replayed their forward script.
    claims = build_claims()
    lines = []
    for claim_id, claim in claims.items():
        if claim.inverse_of is not None:
            continue
        for a in range(1, 301):
            if a < claim.min_a or not claim.applies(a):
                continue
            if claim_id == "T.node-loop" and a % 2 == 1 and a > 1:
                continue
            w = build_witness(claim, a)
            lines.append(f"{claim_id} {a} {w.actions.render()} {w.end}\n")
    assert len(lines) == 5151
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "ee26eb79fd8a10f75a6a4f7c92d5ee05e613eb76c3a2b9f023d27ab92fcf568b")


def test_every_witness_for_a_up_to_3000_matches_the_recorded_digest():
    # Every claim, inverse lemmas and odd-A node-loop witnesses included:
    # start, expected value and script text per A in the claim's domain.
    claims = build_claims()
    lines = []
    for claim_id, claim in claims.items():
        for a in range(1, 3001):
            if claim.applies(a):
                w = build_witness(claim, a)
                lines.append(f"{claim_id} {a} {w.start} "
                             f"{claim.expected_fn(a)} {w.actions.render()}\n")
    assert len(lines) == 59_000
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "6fd265dc7707aa4bd830ad56e4be6649e9d838be9a4f1865d8f733b7ad3a39cc")
