"""Executable catalog of the ternary-suffix lemmas and theorems.

Each claim instantiates an input from the parameter A (the cluster base),
runs a witness script under M1 guards, and compares the endpoint against an
arithmetic target. Every witness is one literal action script, chosen by A's
residue class.

Suffix-digit arithmetic used throughout (base 3, A is the prefix value):
    A0 = 3A, A1 = 3A+1, A2 = 3A+2, and e.g. A21 = 9A+7.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .actions import ActionSeq, ModelId, inverse_seq, seq_of

# Core scripts, one per unconditional suffix lemma; each reverse lemma is
# its forward script inverted. A10, A02, A01 and A00 are 9A+3, 9A+2, 9A+1
# and 9A, so the scripts to A11 = 9A+4 add 1, 2, 3 and 4 to any value; A20
# -> A21 adds 1 too and is the first script again.
SEQ_10_11 = seq_of("TDDFFBBT")
SEQ_11_10 = inverse_seq(SEQ_10_11)
SEQ_02_11 = seq_of("DFFBTT")
SEQ_11_02 = inverse_seq(SEQ_02_11)
SEQ_01_11 = seq_of("DDFFBBTT")
SEQ_11_01 = inverse_seq(SEQ_01_11)
SEQ_00_11 = seq_of("TDDFDDFFBBBBTT")
SEQ_11_00 = inverse_seq(SEQ_00_11)
SEQ_20_21 = SEQ_10_11
SEQ_21_20 = inverse_seq(SEQ_20_21)
SEQ_12_21 = seq_of("DDDFFBBTBT")
SEQ_21_12 = inverse_seq(SEQ_12_21)
SEQ_ATTACH = seq_of("TT")             # A -> A11

# Appending / erasing a trailing '2'. For any value v = 3W+2 (numeral W2):
# T, D land on (2W+1)12; swapping the 12-suffix to 21 and halving gives
# W22 = 3v+2. Guard-legal for every such v, so one script covers the
# R0... and R1... appending lemmas at once. Its inverse erases the 2.
SEQ_APPEND2 = seq_of("TD") + SEQ_12_21 + seq_of("B")
SEQ_BACKSPACE2 = inverse_seq(SEQ_APPEND2)

# Conditional 3-cluster-to-5-cluster scripts A21 -> A11 and A22 -> A11,
# keyed by the input's offset from 9A (7 or 8), then indexed by a_class(A).
SEQ_TO_11 = {
    7: (seq_of("TB") + SEQ_02_11 + seq_of("FFFDTT"),
        seq_of("DTTB") + SEQ_02_11 + seq_of("FFF") + SEQ_02_11 + SEQ_11_01
        + seq_of("T"),
        SEQ_21_12 + seq_of("TTB") + SEQ_02_11 + seq_of("FFFDT"),
        seq_of("F") + SEQ_BACKSPACE2 + seq_of("TT")),
    8: (seq_of("BFFDTT"),
        seq_of("D") + SEQ_21_12 + seq_of("BF") + SEQ_02_11 + SEQ_11_01
        + seq_of("T"),
        seq_of("TB") + SEQ_BACKSPACE2 + SEQ_BACKSPACE2 + seq_of("DT"),
        SEQ_BACKSPACE2 + SEQ_BACKSPACE2 + seq_of("TT")),
}
A_CLASS_NAMES = ("even", "last0", "last1", "last2")   # claim id suffixes


def a_class(a: int) -> int:
    """The class that picks A's conditional script: 0 for even A, else
    1 + A mod 3, i.e. 1 + the last ternary digit of odd A."""
    return 0 if a % 2 == 0 else 1 + a % 3


# Node-loop hop 3h+2 => h, chosen by h's parity. M1's guards read only
# x mod 2, x mod 3 and x > 1, so walked on the forms 6s+2 (h = 2s, s >= 1)
# and 6s+5 (h = 2s+1, s >= 0) every B, F and D guard holds for all s.
SEQ_HOP_EVEN = seq_of("BFD")
SEQ_HOP_ODD = seq_of("DFDDTTBBBBFDF")

# Succession identities over exact rationals, +1 through +4.
SUCCESSION_SEQS = {1: SEQ_10_11, 2: SEQ_02_11, 3: SEQ_01_11, 4: SEQ_00_11}

# Short hops to 4 (= 11 in base 3) for values below the first 9-cluster.
SMALL_TO_FOUR = {
    1: "T", 2: "D", 3: "TBTBB", 4: "", 5: "TBB", 6: "BTBTBB", 7: "FD", 8: "B",
}


def seq_21_to_11(a: int) -> ActionSeq:
    """A21 -> A11 script for A's class."""
    return SEQ_TO_11[7][a_class(a)]


def seq_22_to_11(a: int) -> ActionSeq:
    """A22 -> A11 script for A's class."""
    return SEQ_TO_11[8][a_class(a)]


_SEQ_FF = seq_of("FF")   # erases a trailing '11': 9W+4 -> 3W+1 -> W

# Per residue r = v mod 9: the scripts from 9W+r to A11 = 9W+4 or to A21 =
# 9W+7, then the conditional script on to 9W+4, if one.
_TO_HUB = (((SEQ_00_11,), None), ((SEQ_01_11,), None), ((SEQ_02_11,), None),
           ((SEQ_10_11,), None), ((), None), ((SEQ_12_21,), seq_21_to_11),
           ((SEQ_20_21,), seq_21_to_11), ((), seq_21_to_11),
           ((), seq_22_to_11))


def to_eleven_script(value: int) -> ActionSeq:
    """A full witness script value => 4 built from the cluster lemmas.

    Strips two ternary digits per round: move within the 9-cluster to the
    hub 9W+4, then erase the '11' suffix; finish with a table lookup once
    below 9.
    """
    if value < 1:
        raise ValueError(f"positive integer required, got {value}")
    parts = []
    v = value
    while v > 8:
        w, r = divmod(v, 9)
        lead, hop = _TO_HUB[r]
        parts += lead
        if hop:
            parts.append(hop(w))
        parts.append(_SEQ_FF)
        v = w
    if SMALL_TO_FOUR[v]:
        parts.append(seq_of(SMALL_TO_FOUR[v]))
    steps = tuple(a for part in parts for a in part.steps)
    return ActionSeq(steps)


@dataclass(frozen=True)
class Claim:
    """One catalog entry: an executable reading of a lemma or theorem."""

    id: str
    input_fn: Callable[[int], int]
    expected_fn: Callable[[int], int]
    build: Callable[[int], ActionSeq]
    applies: Callable[[int], bool] = lambda a: True
    model: ModelId = ModelId.M1
    inverse_of: str | None = None  # a label: bench/child.py reads it
    close_cycle: bool = False
    min_a: int = 1


def _simple(claim_id, offset_in, offset_out, seq, *, applies=None):
    return Claim(
        id=claim_id,
        input_fn=lambda a: 9 * a + offset_in,
        expected_fn=lambda a: 9 * a + offset_out,
        build=lambda a: seq,
        applies=applies or (lambda a: True),
    )


def _lemma_pair(offset, cls):
    """The conditional lemma A2d => A11 for the A of class cls, where the
    input 9A + offset ends in the digits 2d, and its inverse A11 => A2d.

    The inverse swaps the forward lemma's input and expected value, keeps
    its domain and replays its script inverted, computed once here. In M1,
    T at x is undone by F at 3x+1 and B by D, so the inverse passes for
    exactly the A where the forward lemma passes.
    """
    cluster, name = f"2{offset - 6}", A_CLASS_NAMES[cls]
    seq = SEQ_TO_11[offset][cls]
    forward = _simple(f"L.{cluster}-11.{name}", offset, 4, seq,
                      applies=lambda a: a_class(a) == cls)
    back = inverse_seq(seq)
    inverse = replace(forward, id=f"L.11-{cluster}.{name}",
                      input_fn=forward.expected_fn,
                      expected_fn=forward.input_fn, build=lambda a: back,
                      inverse_of=forward.id)
    return forward, inverse


# How many trailing 2s T.append2 appends and T.backspace2 erases.
APPEND_DEPTH = 6
SEQ_APPEND2_ITERATED = ActionSeq(SEQ_APPEND2.steps * APPEND_DEPTH)
SEQ_BACKSPACE2_ITERATED = ActionSeq(SEQ_BACKSPACE2.steps * APPEND_DEPTH)


def _append2_expected(a):
    # Appending one '2' maps v to 3v + 2, i.e. v + 1 triples.
    return (a + 1) * 3**APPEND_DEPTH - 1


def build_claims() -> dict[str, Claim]:
    claims = [
        _simple("L.10-11", 3, 4, SEQ_10_11),
        _simple("L.11-10", 4, 3, SEQ_11_10),
        _simple("L.02-11", 2, 4, SEQ_02_11),
        _simple("L.11-02", 4, 2, SEQ_11_02),
        _simple("L.01-11", 1, 4, SEQ_01_11),
        _simple("L.11-01", 4, 1, SEQ_11_01),
        _simple("L.00-11", 0, 4, SEQ_00_11),
        _simple("L.11-00", 4, 0, SEQ_11_00),
        _simple("L.20-21", 6, 7, SEQ_20_21),
        _simple("L.21-20", 7, 6, SEQ_21_20),
        _simple("L.12-21", 5, 7, SEQ_12_21),
        _simple("L.21-12", 7, 5, SEQ_21_12),
        Claim(
            id="T.attach",
            input_fn=lambda a: a,
            expected_fn=lambda a: 9 * a + 4,
            build=lambda a: SEQ_ATTACH,
        ),
        # 3-cluster to 5-cluster, conditional on A, each with its inverse.
        *(claim for offset in SEQ_TO_11 for cls in range(len(A_CLASS_NAMES))
          for claim in _lemma_pair(offset, cls)),
        Claim(
            id="T.append2",
            input_fn=lambda a: a,
            expected_fn=_append2_expected,
            build=lambda a: SEQ_APPEND2_ITERATED,
            applies=lambda a: a % 3 == 2,
        ),
        Claim(
            id="T.backspace2",
            input_fn=_append2_expected,
            expected_fn=lambda a: a,
            build=lambda a: SEQ_BACKSPACE2_ITERATED,
            applies=lambda a: a % 3 == 2,
        ),
        Claim(
            id="T.a-11",
            input_fn=lambda a: a,
            expected_fn=lambda a: 4,
            build=to_eleven_script,
        ),
        Claim(
            id="T.node-loop",
            input_fn=lambda a: a,
            expected_fn=_node_loop_waypoint,
            build=_node_loop_build,
            close_cycle=True,
        ),
    ]
    return {c.id: c for c in claims}


def _node_loop_waypoint(a: int) -> int:
    # Descend to floor(a/2) per the source argument; a=1 cycles through 4,2.
    return 1 if a == 1 else a // 2


# A = 1 cycles through 4 and 2. Even A: A => A11 => (A/2)02 => (A/2)11 =>
# A/2. Odd A = 2h+1: A => A111 => h's ..202 => ..211 => h's ..2 = 3h+2,
# then the hop 3h+2 => h for h's parity.
_NODE_LOOP_ONE = seq_of("TBB")
_NODE_LOOP_EVEN = seq_of("TTB") + SEQ_02_11 + seq_of("FF")
_NODE_LOOP_ODD = tuple(seq_of("TTTB") + SEQ_02_11 + seq_of("FF") + hop
                       for hop in (SEQ_HOP_EVEN, SEQ_HOP_ODD))


def _node_loop_build(a: int) -> ActionSeq:
    if a == 1:
        return _NODE_LOOP_ONE
    if a % 2 == 0:
        return _NODE_LOOP_EVEN
    return _NODE_LOOP_ODD[a // 2 % 2]
