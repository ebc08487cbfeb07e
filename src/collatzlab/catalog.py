"""Executable catalog of the ternary-suffix lemmas and theorems.

Each claim is rows of affine data in the parameter A (the cluster base):
for the A of a residue class, one literal action script run under M1
guards takes an input affine in A to an expected value affine in A.

Suffix-digit arithmetic used throughout (base 3, A is the prefix value):
    A0 = 3A, A1 = 3A+1, A2 = 3A+2, and e.g. A21 = 9A+7.
"""

from __future__ import annotations

from functools import cached_property
from math import gcd, lcm

from .actions import ActionSeq, ModelId, inverse_seq, seq_of
from .errors import Record

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

# T.a-11's rows. A round takes A = 9W + r >= 9 to W. _LEADS[r] moves
# 9W + r to the hub A11 = 9W + 4 when r < 5, else to A21 = 9W + 7 (r < 8)
# or A22 = 9W + 8, from which SEQ_TO_11[max(r, 7)][a_class(W)] goes on to
# the hub; then FF erases the '11' (9W+4 -> 3W+1 -> W). a_class reads only
# W mod 6, so A = 54s + 9c + r, with W = 6s + c >= 1, is one row per (c, r).
_EMPTY = seq_of("")
_LEADS = (SEQ_00_11, SEQ_01_11, SEQ_02_11, SEQ_10_11, _EMPTY, SEQ_12_21,
          SEQ_20_21, _EMPTY, _EMPTY)
_ROUND_ROWS = tuple(
    (54, 9 * c + r, (54, 9 * c + r), (6, c),
     lead + (SEQ_TO_11[max(r, 7)][a_class(c)] if r >= 5 else _EMPTY)
     + seq_of("FF"), int(c == 0))
    for c in range(6) for r, lead in enumerate(_LEADS))
# One base row per v < 9: SMALL_TO_FOUR[v] on the least form m*s + v (m a
# multiple of 9) it proves on for every s, ending on e*s + 4. The round
# rows come first and take every A >= 9, so only A = v reaches it; the
# empty row 4 -> 4 ends the chain.
_BASE_ROWS = tuple((m, v, (m, v), (e, 4), seq_of(SMALL_TO_FOUR[v]), 0)
                   for v, m, e in ((1, 9, 27), (2, 9, 18), (3, 72, 81),
                                   (4, 9, 9), (5, 36, 27), (6, 144, 81),
                                   (7, 9, 6), (8, 18, 9)))


class Claim(Record):
    """One catalog entry: an id and rows (modulus, residue, start, end,
    script, least). A row holds for A = modulus*s + residue with s >= least:
    its script takes start to end, where a form (m, c) means m*s + c. A's
    first matching row gives its input, expected value and script; A is in
    the claim's domain when some row matches. In a chained claim a row's
    end is the claim's next A: A's script runs on through the rows of that
    end, and of theirs, up to a row that ends on its own input. inverse_of
    is a label (bench/child.py reads it); only T.a-11 is chained."""

    # no __slots__: cached_property keeps _index in the instance dict
    _fields = ("id", "rows", "inverse_of", "chained")
    model = ModelId.M1
    min_a = 1

    def __init__(self, id: str, rows: tuple[tuple, ...],
                 inverse_of: str | None = None, chained: bool = False):
        self.id, self.rows = id, rows
        self.inverse_of, self.chained = inverse_of, chained

    @cached_property
    def _index(self):
        """(period, table, meets): table[t] holds, in order, the rows whose
        class holds every A = t mod period, the lcm of the moduli; meets[j],
        each earlier row's (modulus, residue, least) that can meet row j's."""
        period = lcm(*(modulus for modulus, *_ in self.rows))
        table = [[] for _ in range(period)]
        for row in self.rows:   # each residue is below its modulus
            for t in range(row[1], period, row[0]):
                table[t].append(row)
        meets = [[(m0, r0, s0) for m0, r0, *_, s0 in self.rows[:j]
                  if (residue - r0) % gcd(modulus, m0) == 0]
                 for j, (modulus, residue, *_) in enumerate(self.rows)]
        return period, table, meets

    def _first(self, a):
        """(input, end, script) of A's first matching row, or None."""
        period, table, _ = self._index
        for modulus, _, start, end, script, least in table[a % period]:
            if (s := a // modulus) >= least:
                return start[0] * s + start[1], end[0] * s + end[1], script
        return None

    def at(self, a: int) -> tuple[int, int, ActionSeq] | None:
        """(input, expected value, script) of A, or None: its first row's,
        or in a chained claim the last end and the scripts of the chain."""
        found = self._first(a)
        if found is None or not self.chained:
            return found
        start, end, script = found
        steps, x = script.steps, a
        while end != x:
            x = end
            _, end, script = self._first(x)
            steps += script.steps
        return start, end, ActionSeq(steps)

    def columns(self, chunk: range):
        """at over a step-1 range, a row at a time: (ss, start, end, script,
        least) for each row that is the first matching row of some A of
        chunk, where ss holds the row's s of those A, ascending, as a range
        of consecutive s. A row drops the A of an earlier row only when the
        two residue classes can meet, and then ss is a list. A chained
        claim yields every row, with no s where it is no A's first, as the
        chain of an A of chunk can run through any of them."""
        for (modulus, residue, start, end, script, least), meets in zip(
                self.rows, self._index[2]):
            ss = range(max(least, -((residue - chunk.start) // modulus)),
                       (chunk.stop - 1 - residue) // modulus + 1)
            for m0, r0, s0 in meets:
                ss = [s for s in ss if (a := modulus * s + residue) % m0
                      != r0 or a // m0 < s0]
            if ss or self.chained:
                yield ss, start, end, script, least

    def applies(self, a: int) -> bool:
        return self.at(a) is not None

    def row(self, a: int) -> tuple[int, int, ActionSeq]:
        """at(a), or ValueError when A is outside the claim's domain."""
        if (found := self.at(a)) is None:
            raise ValueError(f"A = {a} is outside the domain of {self.id}")
        return found

    def expected_fn(self, a: int) -> int:
        return self.row(a)[1]

    def build(self, a: int) -> ActionSeq:
        return self.row(a)[2]


def _row(start, end, script, modulus=1, residue=0):
    """The row on A = modulus*s + residue >= 1 of a claim whose input and
    expected value are the forms start and end in A."""
    (m, c), (m2, c2) = start, end
    return (modulus, residue, (m * modulus, m * residue + c),
            (m2 * modulus, m2 * residue + c2), script, int(residue == 0))


def _inverse(rows):
    """rows with their forms swapped and their scripts inverted. In M1, T
    at x is undone by F at 3x+1 and B by D, so each inverse row holds
    wherever its row holds, and visits the same values in reverse."""
    return tuple((modulus, residue, end, start, inverse_seq(script), least)
                 for modulus, residue, start, end, script, least in rows)


def _class_residues(cls):
    """(modulus, residues) of the A with a_class(A) == cls, for the least
    modulus whose residues cover exactly the class's residues mod 6 (a_class
    reads only A mod 6). One row per class keeps the per-A lookup short."""
    in_class = [r for r in range(6) if a_class(r) == cls]
    for modulus in (1, 2, 3, 6):
        kept = sorted({r % modulus for r in in_class})
        if len(kept) * 6 == len(in_class) * modulus:
            return modulus, kept


def _lemma_pair(offset, cls):
    """The conditional lemma A2d => A11 for the A of class cls, where the
    input 9A + offset ends in the digits 2d, and its inverse A11 => A2d."""
    cluster, name = f"2{offset - 6}", A_CLASS_NAMES[cls]
    modulus, residues = _class_residues(cls)
    rows = tuple(_row((9, offset), (9, 4), SEQ_TO_11[offset][cls], modulus,
                      r) for r in residues)
    forward = Claim(f"L.{cluster}-11.{name}", rows)
    inverse = Claim(f"L.11-{cluster}.{name}", _inverse(rows),
                    inverse_of=forward.id)
    return forward, inverse


# How many trailing 2s T.append2 appends and T.backspace2 erases. Appending
# one '2' maps v to 3v + 2, i.e. v + 1 triples.
APPEND_DEPTH = 6
_APPEND2_ROWS = (_row((1, 0), (3**APPEND_DEPTH, 3**APPEND_DEPTH - 1),
                      ActionSeq(SEQ_APPEND2.steps * APPEND_DEPTH), 3, 2),)


# The unconditional suffix lemmas, as (digits d, digits d2, script): the
# script moves 9A + int(d, 3) to 9A + int(d2, 3) for every A >= 1.
_SUFFIX_LEMMAS = tuple(
    Claim(f"L.{d}-{d2}", (_row((9, int(d, 3)), (9, int(d2, 3)), seq),))
    for d, d2, seq in (("10", "11", SEQ_10_11), ("11", "10", SEQ_11_10),
                       ("02", "11", SEQ_02_11), ("11", "02", SEQ_11_02),
                       ("01", "11", SEQ_01_11), ("11", "01", SEQ_11_01),
                       ("00", "11", SEQ_00_11), ("11", "00", SEQ_11_00),
                       ("20", "21", SEQ_20_21), ("21", "20", SEQ_21_20),
                       ("12", "21", SEQ_12_21), ("21", "12", SEQ_21_12)))

# Moves 9k+r => 9k+4 (digits d => 11, r = int(d, 3)) inside the nine
# cluster, one script per parity p of k = 2s+p. Walked on the forms
# 18s + 9p + r, every M1 guard holds for all s >= 1 - p.
_SPLIT_TO_11 = (("12", "DFDTTBTBBFFD", "BFDT"),
                ("20", "TDDFFBBBFDTT", "TDDFFBFDTTBTBBFFDT"),
                ("21", "FBFDTT", "FDFDTTBTBBFFDT"),
                ("22", "BFFDTT", "DFDTTBTBBFFDFDFDTTBTBBFFDT"))
_SPLIT_ROWS = {digits: tuple(_row((9, int(digits, 3)), (9, 4), seq_of(text),
                                  2, p) for p, text in enumerate(scripts))
               for digits, *scripts in _SPLIT_TO_11}

# Per ordered pair (src_r, dst_r) of a cluster member and its hub, the claim
# whose rows take 9k + src_r to 9k + dst_r for every k >= 1; src_r and dst_r
# are the constant terms of its first row's forms.
CLUSTER_TABLE = {
    (claim.rows[0][2][1], claim.rows[0][3][1]): claim for claim in (
        *_SUFFIX_LEMMAS,
        *(Claim(f"C.{d}-11", rows) for d, rows in _SPLIT_ROWS.items()),
        *(Claim(f"C.11-{d}", _inverse(rows))
          for d, rows in _SPLIT_ROWS.items()))}


def build_claims() -> dict[str, Claim]:
    claims = [
        *_SUFFIX_LEMMAS,
        Claim("T.attach", (_row((1, 0), (9, 4), SEQ_ATTACH),)),
        # 3-cluster to 5-cluster, conditional on A, each with its inverse.
        *(claim for offset in SEQ_TO_11 for cls in range(len(A_CLASS_NAMES))
          for claim in _lemma_pair(offset, cls)),
        Claim("T.append2", _APPEND2_ROWS),
        Claim("T.backspace2", _inverse(_APPEND2_ROWS)),
        # Reaches 4 = 11 in base 3 by erasing two ternary digits a round.
        Claim("T.a-11", _ROUND_ROWS + _BASE_ROWS, chained=True),
        # Walks A to A // 2. Even A: A => A11 => (A/2)02 => (A/2)11 => A/2.
        # Odd A = 2h+1: A => A111 => h's ..202 => ..211 => h's ..2 = 3h+2,
        # then the hop 3h+2 => h for h's parity. A = 1 cycles through 4 and
        # 2: TBB takes 4s+1 to 3s+1 for every s, but the row before it
        # takes the A = 4s+1 from 5 on, so only A = 1 reaches it.
        Claim("T.node-loop", (
            (2, 0, (2, 0), (1, 0), seq_of("TTB") + SEQ_02_11 + seq_of("FF"),
             1),
            (4, 1, (4, 1), (2, 0), seq_of("TTTB") + SEQ_02_11 + seq_of("FF")
             + SEQ_HOP_EVEN, 1),
            (4, 3, (4, 3), (2, 1), seq_of("TTTB") + SEQ_02_11 + seq_of("FF")
             + SEQ_HOP_ODD, 0),
            (4, 1, (4, 1), (3, 1), seq_of("TBB"), 0))),
    ]
    return {c.id: c for c in claims}
