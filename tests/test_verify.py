"""Report schema, the claim registry and its special checks."""

import io
import json
import math
import pickle

import pytest

from collatzlab.actions import (Action, ActionSeq, ModelId, Path, apply_seq,
                                evaluate_exact, inverse_seq, seq_of)
from collatzlab import search
from collatzlab.catalog import (CLUSTER_TABLE, SUCCESSION_SEQS, Claim,
                               build_claims)
from collatzlab.errors import DomainViolation, GuardViolation, UnknownClaim
from collatzlab.models import successors
from collatzlab.search import SearchBounds, Unreachable, bfs_until
from collatzlab.verify import (CHUNK, CLUSTER_HUB, CLUSTER_MEMBERS, Failure,
                               VerifyReport, all_claim_ids, build_witness,
                               descending_witness, run_any_claim, run_claims,
                               write_reports)


def written(reports, fmt, include_timing=False):
    out = io.StringIO()
    write_reports(reports, fmt, out, include_timing)
    return out.getvalue()


def test_report_json_schema():
    report = run_any_claim("L.10-11", range(1, 6))
    data = json.loads(written([report], "json"))
    assert set(data) == {"claim_id", "model", "range", "pass", "fail",
                         "skipped", "failures", "bounds"}
    assert data["claim_id"] == "L.10-11"
    assert data["model"] == "M1"
    assert data["range"] == [1, 5]
    assert data["pass"] == 5 and data["fail"] == 0 and data["skipped"] == 0
    # timing is opt-in, never in the default payload
    assert "wall_ms" not in data
    assert "wall_ms" in json.loads(written([report], "json", True))


def test_report_csv_row():
    report = run_any_claim("L.10-11", range(1, 6))
    assert written([report], "csv").splitlines() == [
        "claim_id,model,lo,hi,pass,fail,skipped", "L.10-11,M1,1,5,5,0,0"]


def test_run_claims_rejects_unknown_ids_and_unread_bounds_before_any_work(
        monkeypatch):
    from collatzlab import verify

    ran = []
    monkeypatch.setattr(verify, "run_any_claim",
                        lambda *args: ran.append(args))
    with pytest.raises(UnknownClaim) as info:
        run_claims(["L.10-11", "L.bogus", "L.nope"], range(1, 6))
    assert info.value.claim_id == "L.bogus"
    bounds = SearchBounds(max_value=7, max_depth=2)
    with pytest.raises(ValueError) as info:
        run_claims(["L.10-11", "T.succ1"], range(1, 6), bounds)
    assert str(info.value) == ("--max-value and --max-depth bound no search "
                               "of L.10-11, T.succ1")
    assert ran == []
    # one claim that reads the bounds is enough, and serial runs go through
    # the module's run_any_claim
    run_claims(["L.10-11", "T.edge-loop"], range(1, 6), bounds)
    assert [args[0] for args in ran] == ["L.10-11", "T.edge-loop"]


def test_failure_payload_is_replayable():
    failure = Failure(7, 3, "endpoint mismatch", [7, 22, 11])
    d = failure.to_dict()
    assert d == {"input": 7, "step_index": 3, "reason": "endpoint mismatch",
                 "trace": ["7", "22", "11"]}


def test_every_record_survives_a_pickle_round_trip():
    from collatzlab.experiments import delooping_experiment

    # the process pool ships Failures and SearchBounds through pickle
    report = run_any_claim("T.edge-loop", range(1, 21))
    assert report.failures
    records = [Failure(7, 3, "endpoint mismatch", [7, 22, 11]), report,
               *delooping_experiment(100).phases,
               SearchBounds(max_value=4096, max_depth=12, max_states=50)]
    for record in records:
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record, record


def test_unknown_claim():
    with pytest.raises(UnknownClaim):
        run_any_claim("L.no-such", range(1, 2))


def test_conditional_claims_skip_inapplicable_inputs():
    report = run_any_claim("L.21-11.even", range(1, 11))
    assert report.passed == 5 and report.skipped == 5 and report.failed == 0


def test_inverse_claims_replay_backward():
    report = run_any_claim("L.11-21.even", range(1, 21))
    assert report.failed == 0
    assert report.passed == 10  # even A only


def test_inverse_claims_replay_the_inverted_forward_script():
    claims = build_claims()
    inverses = [c for c in claims.values() if c.inverse_of is not None]
    assert len(inverses) == 8
    for claim in inverses:
        forward = claims[claim.inverse_of]
        for a in range(1, 301):
            if claim.applies(a):
                assert claim.build(a) == inverse_seq(forward.build(a)), \
                    (claim.id, a)


def _run_mutated(monkeypatch, mutated, claim_id, a_range):
    """run_any_claim over the catalog mutated in place of the default one."""
    from collatzlab import verify

    registry = verify._registry(mutated)
    monkeypatch.setattr(verify, "_default_registry", lambda: registry)
    return run_any_claim(claim_id, a_range)


def test_every_single_letter_mutation_of_an_inverse_script_fails(
        monkeypatch):
    # the verdict comes from the inverse claim's own script, not from a
    # replay of its forward lemma
    claims = build_claims()
    for claim_id, claim in claims.items():
        if claim.inverse_of is None:
            continue
        for j, row in enumerate(claim.rows):
            steps = row[4].steps
            for i, letter in enumerate(steps):
                for other in Action:
                    if other is letter:
                        continue
                    mutant = ActionSeq(steps[:i] + (other,) + steps[i + 1:])
                    rows = list(claim.rows)
                    rows[j] = row[:4] + (mutant,) + row[5:]
                    mutated = dict(claims)
                    mutated[claim_id] = Claim(claim.id, tuple(rows),
                                              claim.inverse_of, claim.chained)
                    report = _run_mutated(monkeypatch, mutated, claim_id,
                                          range(1, 37))
                    assert report.failed > 0, (claim_id, mutant.render())


def test_build_witness_validates():
    claims = build_claims()
    witness = build_witness(claims["L.10-11"], 5)
    assert witness.start == 48 and witness.end == 49
    assert witness.validate()


def test_node_loop_closes_cycles():
    report = run_any_claim("T.node-loop", range(1, 101))
    assert report.failed == 0, [f.to_dict() for f in report.failures]


def test_succession_endpoints_and_flag_count():
    report = run_any_claim("T.succ1", range(1, 1001))
    assert report.failed == 0
    assert report.claim_id == "T.succ1"
    assert report.model == "M2"
    assert "nonpositive_intermediate_inputs" in report.bounds
    with pytest.raises(UnknownClaim):
        run_any_claim("T.succ5", range(1, 2))


def test_cluster_mutual_reachability_small():
    for kind in ("five", "three", "nine"):
        report = run_any_claim(f"T.cluster-{kind}", range(1, 21))
        assert report.failed == 0, (kind, report.failures[:2])
    assert run_any_claim("T.cluster-five", range(0, 2)).skipped == 1  # k=0 skipped
    with pytest.raises(UnknownClaim):
        run_any_claim("T.cluster-seven", range(1, 2))


def test_descending_witnesses():
    for claim_id in ("T.descend-ms", "L.descend-m1"):
        report = run_any_claim(claim_id, range(2, 201))
        assert report.failed == 0
    # a=1 is skipped: nothing below 1 to descend to
    assert run_any_claim("T.descend-ms", range(1, 3)).skipped == 1
    with pytest.raises(UnknownClaim):
        run_any_claim("T.descend-m0", range(2, 3))


def test_descend_failures_name_the_budget():
    # 3 has no move below 3 inside a value cap of 1: proven, not a budget
    capped = run_any_claim("T.descend-ms", range(3, 4), SearchBounds(max_value=1))
    assert [f.reason for f in capped.failures] == ["unreachable-within-bounds"]
    # one search layer from 27 leaves the frontier alive: a budget ran out
    shallow = run_any_claim("L.descend-m1", range(27, 28),
                            SearchBounds(max_value=10**6, max_depth=1))
    assert [f.reason for f in shallow.failures] == ["budget-exceeded"]
    assert descending_witness(3, ModelId.MS, SearchBounds(max_value=1)) \
        == Unreachable(bound_exhausted=False)


def bfs_until_below(a, model, cap, max_depth):
    """Reference: breadth-first search from a for a value below a, with every
    generated value <= cap; "found", or the Unreachable tag."""
    seen, frontier = {a}, [a]
    for _ in range(max_depth):
        nxt = []
        for x in frontier:
            for _, y in successors(x, model):
                if y > cap or y in seen:
                    continue
                if y < a:
                    return "found"
                seen.add(y)
                nxt.append(y)
        frontier = nxt
        if not frontier:
            return "unreachable-within-bounds"
    return "budget-exceeded"


@pytest.mark.parametrize("claim_id, model", [("T.descend-ms", ModelId.MS),
                                             ("L.descend-m1", ModelId.M1)])
def test_descend_shortcuts_honour_the_value_cap(claim_id, model):
    # halving 6 gives 3 and stripping 10 gives 3, both above a cap of 2
    bounds = SearchBounds(max_value=2)
    report = run_any_claim(claim_id, range(2, 13), bounds)
    assert (report.passed, report.failed) == (3, 8)
    verdicts = {a: bfs_until_below(a, model, 2, bounds.max_depth)
                for a in range(2, 13)}
    assert [a for a, v in verdicts.items() if v == "found"] == [2, 4, 7]
    assert {f.input: f.reason for f in report.failures} == {
        a: v for a, v in verdicts.items() if v != "found"}


def descending_witness_with_halving(a, model, bounds=None):
    """Reference: descending_witness as it was with a halving shortcut in
    front of F, so F was also tried on an even A whose half is above cap."""
    limit = bounds.max_depth if bounds is not None else 1000
    cap = bounds.max_value if bounds is not None else a * 2**20
    if a % 2 == 0 and a // 2 <= cap:
        return apply_seq(seq_of("B"), a, model)
    if a % 3 == 1 and a > 1 and (a - 1) // 3 <= cap:
        return apply_seq(seq_of("F"), a, model)
    steps, x = [], a
    while x >= a and len(steps) < limit:
        y = 3 * x + 1 if x % 2 else x // 2
        if y > cap:
            break
        steps.append(Action.T if x % 2 else Action.B)
        x = y
    if x < a:
        return apply_seq(ActionSeq(tuple(steps)), a, model)
    result = bfs_until(model, a, lambda v: v < a,
                       bounds or SearchBounds(max_value=a * 2**20,
                                              max_depth=512))
    if isinstance(result, Unreachable):
        return result
    return apply_seq(result.actions, a, model)


@pytest.mark.parametrize("model", [ModelId.MS, ModelId.M1], ids=str)
def test_descending_witness_matches_the_halving_shortcut(model):
    # the M0 walk's first step halves an even A under the same cap check,
    # and the BFS fallback tries T and B before F
    grid = [(range(2, 1201), None)]
    grid += [(range(2, 301), SearchBounds(max_value=cap))
             for cap in (2, 10, 1000)]
    grid += [(range(2, 301), SearchBounds(max_value=1000, max_depth=depth))
             for depth in (1, 3, 5)]
    for a_range, bounds in grid:
        for a in a_range:
            assert descending_witness(a, model, bounds) == \
                descending_witness_with_halving(a, model, bounds), (a, bounds)


def test_descending_witness_is_guard_legal():
    for a in (2, 7, 27, 97, 703):
        trace = descending_witness(a, ModelId.MS)
        assert trace is not None
        assert trace.end < a
        assert trace.values[0] == a
    # the walks are returned as built, not replayed, so A must be >= 1
    for a in (0, -5):
        with pytest.raises(ValueError, match="positive integer required"):
            descending_witness(a, ModelId.MS, SearchBounds(max_value=100))


def test_descending_witness_default_depth_is_512():
    # the M0 walk from 63,728,127 first drops below it after 613 steps, so
    # with no bounds it stops at 512 and the BFS fallback finds the witness
    a = 63_728_127
    trace = descending_witness(a, ModelId.MS)
    assert trace.validate()
    assert trace.end < a
    assert len(trace) <= 512


def test_edge_loop_directed_reading_reports_findings():
    # MS forward moves only shrink toward {1,2,4}; 3A+1 > A is never
    # forward-reachable from an even A, so the directed reading fails and
    # says so rather than pretending
    report = run_any_claim("T.edge-loop", range(2, 11))
    assert report.skipped == 4  # odd A
    assert report.failed == 5
    assert all("no MS path" in f.reason for f in report.failures)
    # A = 0 is not a positive integer: skipped, not a search with a zero cap
    report = run_any_claim("T.edge-loop", range(0, 3))
    assert (report.skipped, report.failed) == (2, 1)


def edge_loop_verdict(a, bounds):
    """Reference: bounded MS BFS A => 3A+1 that skips the edge 3A+1 -F-> A;
    "found", or the Unreachable tag."""
    target = 3 * a + 1
    seen, frontier = {a}, [a]
    for _ in range(bounds.max_depth):
        nxt = []
        for x in frontier:
            for action, y in successors(x, ModelId.MS):
                if (x, action) == (target, Action.F):
                    continue
                if y > bounds.max_value or y in seen:
                    continue
                if y == target:
                    return "found"
                seen.add(y)
                nxt.append(y)
        if len(seen) > bounds.max_states:
            return "budget-exceeded"
        frontier = nxt
        if not frontier:
            return "unreachable-within-bounds"
    return "budget-exceeded"


def test_edge_loop_verdicts_match_a_search_that_skips_the_edge():
    a_range = range(2, 801, 2)
    bounds = {a: SearchBounds(max_value=a * 2**10, max_depth=48,
                              max_states=20_000) for a in a_range}
    expected = {a: edge_loop_verdict(a, bounds[a]) for a in a_range}
    assert expected[94] == "found"
    report = run_any_claim("T.edge-loop", a_range)
    got = {a: "found" for a in a_range}
    got.update((f.input, f.reason.split(":")[0]) for f in report.failures)
    assert got == expected
    capped = SearchBounds(max_value=500, max_depth=6, max_states=50)
    report = run_any_claim("T.edge-loop", range(2, 101), capped)
    got = {a: "found" for a in range(2, 101, 2)}
    got.update((f.input, f.reason.split(":")[0]) for f in report.failures)
    assert got == {a: edge_loop_verdict(a, capped) for a in range(2, 101, 2)}


def test_witness_outside_a_claims_domain_names_the_claim_and_a():
    claim = build_claims()["L.21-11.even"]   # even A only
    for call in (lambda: build_witness(claim, 3), lambda: claim.build(3),
                 lambda: claim.expected_fn(3)):
        with pytest.raises(ValueError,
                           match=r"A = 3 is outside the domain of "
                                 r"L\.21-11\.even"):
            call()


def test_run_any_claim_dispatch():
    ids = all_claim_ids()
    assert ids[0] == "T.succ1" and "T.edge-loop" in ids
    assert len(ids) == len(set(ids))
    report = run_any_claim("T.cluster-five", range(1, 3),
                           SearchBounds(max_value=2**16))
    assert report.bounds["max_value"] == 2**16
    assert report.failed == 0


def cluster_oracle(kind, a_range, search_bounds=None, replay=None):
    """Reference cluster report: one bidirectional search per ordered
    (member, hub) pair and k >= 1, under the claim's value and depth caps;
    with no search_bounds, under the cap 2^20, the claim's default cap up
    to k = 6,471.

    A replay spares the search when it is guard-legal, ends at the pair's
    target, stays within the cap and is no longer than the depth cap: with
    replay="table", the pair's CLUSTER_TABLE row for k, from Claim.at; with
    replay="learned", any path the search found for the pair at an earlier
    k, never a catalog script.
    """
    from collatzlab.search import bfs_reach_bidirectional

    if search_bounds is None:
        bounds = SearchBounds(max_value=2**20)
    else:
        bounds = SearchBounds(max_value=search_bounds.max_value,
                              max_depth=search_bounds.max_depth)

    def fits(seq, src, dst):
        try:
            path = apply_seq(seq, src, ModelId.M1)
        except (GuardViolation, DomainViolation):
            return False
        return (path.end == dst and path.peak <= bounds.max_value
                and len(seq) <= bounds.max_depth)

    hub_r = CLUSTER_HUB[kind]
    learned = {}
    passed = skipped = 0
    all_failures = []
    for k in a_range:
        if k < 1:
            skipped += 1
            continue
        failures = []
        for r in CLUSTER_MEMBERS[kind]:
            if r == hub_r:
                continue
            for src_r, dst_r in ((r, hub_r), (hub_r, r)):
                src, dst = 9 * k + src_r, 9 * k + dst_r
                paths = learned.setdefault((src_r, dst_r), [])
                replays = (paths if replay == "learned" else
                           [CLUSTER_TABLE[src_r, dst_r].at(k)[2]]
                           if replay == "table" else [])
                if any(fits(seq, src, dst) for seq in replays):
                    continue
                result = bfs_reach_bidirectional(ModelId.M1, src, dst, bounds)
                if isinstance(result, Unreachable):
                    tag = ("budget-exceeded" if result.bound_exhausted
                           else "unreachable-within-bounds")
                    failures.append(Failure(
                        k, None, f"{tag}: pair {src} => {dst} "
                                 f"with cap {bounds.max_value}"))
                else:
                    paths.append(result.actions)
        all_failures += failures
        passed += not failures
    return VerifyReport(f"T.cluster-{kind}", "M1", (a_range.start, a_range[-1]),
                        passed, skipped, all_failures,
                        {"max_value": bounds.max_value,
                         "max_depth": bounds.max_depth}, 0.0).to_dict()


@pytest.mark.parametrize("kind, a_range, bounds", [
    ("five", range(1, 61), None),
    ("three", range(1, 61), None),
    ("nine", range(1, 61), None),
    ("nine", range(1, 201), SearchBounds(max_value=4096, max_depth=12)),
    ("five", range(1, 4), SearchBounds(max_value=2**20, max_depth=1)),
    # the cap 2^20 of the old default: k >= 116,508 puts the pairs above
    # it, and the search reports every miss
    ("nine", range(116495, 116516), SearchBounds(max_value=2**20)),
    # the first k whose proved table script leaves the 2^20 cap: 8 => 4 at
    # k = 6,473 (nine) and 0 => 4 at k = 7,282 (five); the search decides
    ("nine", range(6471, 6476), SearchBounds(max_value=2**20)),
    ("five", range(7280, 7285), SearchBounds(max_value=2**20)),
    # longer than a chunk, and most table scripts miss under these bounds,
    # so every chunk goes back through the per-k check
    ("five", range(1, CHUNK + 3), SearchBounds(max_value=4096, max_depth=12)),
])
def test_cluster_replay_matches_search_only(kind, a_range, bounds):
    report = run_any_claim(f"T.cluster-{kind}", a_range, bounds)
    assert report.to_dict() == cluster_oracle(kind, a_range, bounds)


def _count_searches(monkeypatch):
    from collatzlab import verify

    calls = []
    search = verify.bfs_reach_bidirectional

    def counted(*args):
        calls.append(args[1:3])
        return search(*args)

    monkeypatch.setattr(verify, "bfs_reach_bidirectional", counted)
    return calls


@pytest.mark.parametrize("kind", ["five", "three", "nine"])
def test_cluster_claims_to_1000_replay_the_table_and_run_no_search(
        monkeypatch, kind):
    calls = _count_searches(monkeypatch)
    report = run_any_claim(f"T.cluster-{kind}", range(1, 1001))
    assert (report.passed, report.failed, calls) == (1000, 0, [])


def test_cluster_search_still_runs_where_the_table_misses(monkeypatch):
    # under cap 4096 and depth 12 most table scripts do not fit
    calls = _count_searches(monkeypatch)
    bounds = SearchBounds(max_value=4096, max_depth=12)
    report = run_any_claim("T.cluster-five", range(1, 40), bounds)
    assert len(calls) == 82
    assert (report.passed, report.failed) == (22, 34)


def test_cluster_failures_use_the_shared_tag():
    report = run_any_claim("T.cluster-five", range(116500, 116511),
                           SearchBounds(max_value=2**20))
    assert (report.passed, report.failed) == (0, 54)
    assert report.failures[0].reason == ("unreachable-within-bounds: pair "
                                         "1048503 => 1048504 with cap 1048576")


def test_the_default_cluster_cap_holds_every_table_row():
    from collatzlab.actions import walk_form
    from collatzlab.verify import _cluster_bounds

    # every peak form a*s + b of a row on k = m*s + r, s >= least, is at
    # most 18 * (9k + 8) for every such s: both are affine in s, so the
    # slopes and the values at least decide it (some slopes equal 18 * 9m)
    for claim in CLUSTER_TABLE.values():
        for m, r, start, _, script, least in claim.rows:
            assert len(script) <= 64, claim.id
            _, peaks = walk_form(script.steps, *start, least, ModelId.M1)
            for a, b in peaks:
                assert a <= 18 * 9 * m, (claim.id, a, b)
                assert a * least + b <= 18 * (9 * (m * least + r) + 8), \
                    (claim.id, a, b)
    # the rule leaves the cap at 2^20 exactly up to k = 6,471
    assert 18 * (9 * 6471 + 8) <= 2**20 < 18 * (9 * 6472 + 8)
    assert [_cluster_bounds(None, k).max_value for k in (1, 6471, 6472)] \
        == [2**20, 2**20, 1_048_608]


def test_cluster_bounds_are_read_at_the_largest_k_of_a_backward_range():
    # the default cap grows with k, so a report over k = 6,400..10,000
    # names the cap at k = 10,000, whichever way its range runs
    expected = {"max_value": 18 * (9 * 10000 + 8), "max_depth": 64}
    assert expected["max_value"] == 1_620_144
    for a_range in (range(10000, 6399, -1), range(10000, 6399, -7)):
        forward = run_any_claim("T.cluster-nine", a_range[::-1])
        backward = run_any_claim("T.cluster-nine", a_range)
        assert forward.bounds == backward.bounds == expected, a_range


def _per_a_catalog(claim, a_range):
    """Reference: each A checked on its own from Claim.at and apply_seq."""
    passed = skipped = 0
    failures = []
    for a in a_range:
        row = claim.at(a)
        if row is None:
            skipped += 1
            continue
        start, expected, script = row
        try:
            witness = apply_seq(script, start, ModelId.M1)
        except (GuardViolation, DomainViolation) as exc:
            failures.append(Failure(a, exc.step_index, str(exc)))
            continue
        if witness.end != expected:
            failures.append(Failure(
                a, None, f"endpoint {witness.end} != expected {expected}",
                list(witness.values)))
            continue
        if claim.id == "T.node-loop":
            try:
                back = apply_seq(inverse_seq(script), witness.end, ModelId.M1)
            except (GuardViolation, DomainViolation) as exc:
                failures.append(Failure(
                    a, exc.step_index, f"cycle-closing replay illegal: {exc}",
                    list(witness.values)))
                continue
            if back.end != start:
                failures.append(Failure(
                    a, None, f"cycle did not close: {back.end}",
                    list(back.values)))
                continue
        passed += 1
    return VerifyReport(claim.id, "M1", (a_range.start, a_range[-1]), passed,
                        skipped, failures, {}, 0.0).to_dict()


def _per_a_succession(offset, a_range):
    """Reference: each x evaluated on its own with evaluate_exact."""
    passed = dipped = 0
    failures = []
    for x in a_range:
        end, flagged = evaluate_exact(SUCCESSION_SEQS[offset], x)
        dipped += bool(flagged)
        if end == x + offset:
            passed += 1
        else:
            failures.append(Failure(
                x, None, f"ended at {end}, expected {x + offset}"))
    return VerifyReport(f"T.succ{offset}", "M2", (a_range.start, a_range[-1]),
                        passed, 0, failures,
                        {"nonpositive_intermediate_inputs": dipped},
                        0.0).to_dict()


def _oracle(claim_id, a_range):
    if claim_id.startswith("T.succ"):
        return _per_a_succession(int(claim_id[len("T.succ"):]), a_range)
    if claim_id.startswith("T.cluster-"):
        return cluster_oracle(claim_id[len("T.cluster-"):], a_range,
                              replay="table")
    return _per_a_catalog(build_claims()[claim_id], a_range)


@pytest.mark.parametrize("claim_id", [
    "T.succ2", "T.node-loop", "L.21-11.last1", "T.cluster-five"])
@pytest.mark.parametrize("a_range", [
    range(1, CHUNK), range(1, CHUNK + 1), range(1, CHUNK + 2),
    range(0, CHUNK + 1), range(-CHUNK - 4, 3), range(-5, 2 * CHUNK - 3)],
    ids=["chunk-1", "chunk", "chunk+1", "from0", "negative", "across"])
def test_column_checks_match_a_per_a_oracle_at_chunk_boundaries(
        claim_id, a_range):
    report = run_any_claim(claim_id, a_range)
    assert report.to_dict() == _oracle(claim_id, a_range)


COLUMN_CLAIMS = [*(f"T.succ{i}" for i in SUCCESSION_SEQS), *build_claims(),
                 *(f"T.cluster-{kind}" for kind in CLUSTER_MEMBERS)]


@pytest.mark.parametrize("claim_id", COLUMN_CLAIMS)
def test_every_column_check_matches_the_oracle_across_a_chunk_edge(claim_id):
    a_range = range(CHUNK - 40, CHUNK + 41)
    report = run_any_claim(claim_id, a_range)
    assert report.to_dict() == _oracle(claim_id, a_range)


def test_an_empty_range_is_a_value_error():
    for claim_id in ("L.10-11", "T.cluster-five", "T.edge-loop"):
        with pytest.raises(ValueError, match="empty range"):
            run_any_claim(claim_id, range(5, 5))


@pytest.mark.parametrize("claim_id, row, index", [
    ("T.node-loop", 3, 2),     # the A = 1 row: only the first chunk misses
    ("T.node-loop", 2, 5),     # A = 4s+3: every chunk misses
    ("L.21-11.last1", 0, 0),
    ("T.a-11", 28, 0),         # a round row: every chunk misses
])
def test_a_mutant_row_falls_back_to_the_per_a_check(claim_id, row, index,
                                                    monkeypatch):
    claims = build_claims()
    claim = claims[claim_id]
    entry = claim.rows[row]
    steps = entry[4].steps
    other = next(a for a in Action if a is not steps[index])
    mutant = ActionSeq(steps[:index] + (other,) + steps[index + 1:])
    rows = list(claim.rows)
    rows[row] = entry[:4] + (mutant,) + entry[5:]
    mutated = dict(claims)
    mutated[claim_id] = Claim(claim.id, tuple(rows), claim.inverse_of,
                              claim.chained)
    a_range = range(1, 3 * CHUNK + 2)
    report = _run_mutated(monkeypatch, mutated, claim_id, a_range)
    assert report.failed > 0
    assert report.to_dict() == _per_a_catalog(mutated[claim_id], a_range)


# Column verdicts against per-A checks: a column check passes a chunk, with
# the per-A counts, exactly when no A of it fails, and gives None otherwise.
ORACLE_CHUNKS = [range(CHUNK - 40, CHUNK + 41), range(-60, 20),
                 range(1, CHUNK + 1), range(CHUNK + 1, 2 * CHUNK + 1),
                 range(2 * CHUNK + 1, 3001)]
# the chained T.a-11 comes last, so the ids of the others keep their index
ROW_CLAIMS = [*(claim for claim in build_claims().values()
                if not claim.chained), *CLUSTER_TABLE.values(),
              build_claims()["T.a-11"]]


def _per_a_rows_hold(claim, chunk, bounds=None):
    """Reference for verify._rows_hold: A by A, through Claim.at and
    apply_seq, under the depth and value caps when bounds is given."""
    passed = 0
    for a in chunk:
        if (found := claim.at(a)) is None:
            continue
        start, expected, script = found
        try:
            path = apply_seq(script, start, claim.model)
        except (GuardViolation, DomainViolation):
            return None
        if path.end != expected or bounds is not None and (
                len(script) > bounds.max_depth
                or path.peak > bounds.max_value):
            return None
        passed += 1
    return passed


@pytest.mark.parametrize("claim", ROW_CLAIMS,
                         ids=[f"{claim.id}-{i}" for i, claim
                              in enumerate(ROW_CLAIMS)])
def test_every_row_column_verdict_is_the_per_a_verdict(claim):
    from collatzlab.verify import _rows_hold

    for chunk in ORACLE_CHUNKS:
        if claim.chained:
            # bounds bound one row's walk, not the chain: a chained claim,
            # like every catalog claim in verify, takes none
            assert _rows_hold(claim, chunk) == _per_a_rows_hold(claim, chunk)
            continue
        peak = max((apply_seq(found[2], found[0], claim.model).peak
                    for a in chunk if (found := claim.at(a))), default=None)
        grid = [None, SearchBounds(max_value=2**20),
                SearchBounds(max_value=4096, max_depth=12)]
        if peak is not None:
            # every row fits at its chunk's largest peak, and one does not
            # fit a cap one below it
            grid += [SearchBounds(max_value=peak, max_depth=1000),
                     SearchBounds(max_value=peak - 1, max_depth=1000)]
            assert _rows_hold(claim, chunk, grid[-2]) is not None
            assert _rows_hold(claim, chunk, grid[-1]) is None
        for bounds in grid:
            assert _rows_hold(claim, chunk, bounds) == _per_a_rows_hold(
                claim, chunk, bounds), (claim.id, chunk, bounds)


def _column_and_per_a(entry, chunk, bounds):
    """(column verdict, per-A verdict) of one registry entry on chunk:
    None when some A fails, else the (passed, skipped) counts."""
    _, _, check, column = entry
    results = [check(a, bounds) for a in chunk]
    per_a = None if any(results) else (results.count([]),
                                       results.count(None))
    return column(chunk, bounds), per_a


@pytest.mark.parametrize("offset", list(SUCCESSION_SEQS))
def test_succession_column_verdicts_and_tallies_are_the_per_a_ones(offset):
    from collatzlab.verify import _succession

    entry = _succession(offset)
    for chunk in [*ORACLE_CHUNKS, range(-3000, -2000)]:
        column, per_a = _column_and_per_a(entry, chunk, None)
        assert column == per_a == (len(chunk), 0)
    # the report's count of x that dip to <= 0 is read off the whole range;
    # the entry keeps no state, so a second reading gives the same count
    for a_range in [*ORACLE_CHUNKS, range(-3000, -2000), range(-40, 0),
                    range(-50, 3001, 7), range(20, -10, -3)]:
        expected = _per_a_succession(offset, a_range)["bounds"]
        assert entry[1](None, a_range) == expected, a_range
        assert entry[1](None, a_range) == expected, a_range


def test_a_succession_claim_run_twice_in_one_process_gives_equal_reports():
    from collatzlab.verify import build_report, chunks, run_chunk

    a_range = range(0, 3001)
    first = run_any_claim("T.succ2", a_range).to_dict()
    assert first["bounds"] == {"nonpositive_intermediate_inputs": 3}
    assert run_any_claim("T.succ2", a_range).to_dict() == first
    # a pool's units read one cached registry per process
    for _ in range(2):
        parts = [run_chunk("T.succ2", chunk) for chunk in chunks(a_range)]
        assert build_report("T.succ2", a_range, None, parts).to_dict() \
            == first


@pytest.mark.parametrize("claim_id", ["T.descend-ms", "L.descend-m1"])
def test_descend_column_verdicts_are_the_per_a_ones(claim_id):
    from collatzlab.verify import _registry

    model, _, check, column = _registry({})[claim_id]
    assert column is None
    for chunk in ORACLE_CHUNKS:
        peak = max(max(descending_witness(a, ModelId.MS).values)
                   for a in chunk if a > 1)
        for bounds in (None, SearchBounds(max_value=4096, max_depth=12),
                       SearchBounds(max_value=300, max_depth=64),
                       SearchBounds(max_value=10**6, max_depth=30),
                       SearchBounds(max_value=peak, max_depth=512),
                       SearchBounds(max_value=peak - 1, max_depth=512)):
            # the per-A check fails exactly where descending_witness gives
            # Unreachable, with its tag, and skips A < 2
            expected = [None if a < 2 else
                        [Failure(a, None, witness.tag)]
                        if isinstance(witness := descending_witness(
                            a, model, bounds), Unreachable) else []
                        for a in chunk]
            assert [check(a, bounds) for a in chunk] == expected, \
                (claim_id, chunk, bounds)


def _one_letter_mutant(claim, row, index):
    entry = claim.rows[row]
    steps = entry[4].steps
    other = next(a for a in Action if a is not steps[index])
    mutant = ActionSeq(steps[:index] + (other,) + steps[index + 1:])
    rows = list(claim.rows)
    rows[row] = entry[:4] + (mutant,) + entry[5:]
    return Claim(claim.id, tuple(rows), claim.inverse_of, claim.chained)


def test_a_planted_mutant_fails_its_chunk_then_fails_per_a(monkeypatch):
    from collatzlab import catalog, verify
    from collatzlab.verify import _rows_hold

    # the cached registry has run both entries before the tables change:
    # each reads its table when it runs
    registry = verify._default_registry()
    assert run_any_claim("T.succ1", range(1, 11)).failed == 0
    assert run_any_claim("T.cluster-five", range(1, 11)).failed == 0
    # a cluster table row: the chunk fails, and each pair goes back to the
    # replay and the search
    monkeypatch.setitem(catalog.CLUSTER_TABLE, (0, 4),
                        _one_letter_mutant(CLUSTER_TABLE[0, 4], 0, 2))
    assert _rows_hold(catalog.CLUSTER_TABLE[0, 4], range(1, 61),
                      SearchBounds(max_value=2**20)) is None
    assert run_any_claim("T.cluster-five", range(1, 61)).to_dict() \
        == cluster_oracle("five", range(1, 61), replay="table")
    # a sequence for another offset composes to x + 2, not x + 1: its
    # slope is right, its constant is not
    monkeypatch.setitem(catalog.SUCCESSION_SEQS, 1, SUCCESSION_SEQS[2])
    report = run_any_claim("T.succ1", range(1, CHUNK + 5))
    assert report.failed == CHUNK + 4
    assert report.failures[0].reason == "ended at 3, expected 2"
    assert report.to_dict() == _per_a_succession(1, range(1, CHUNK + 5))
    # a succession sequence: the composition fails, and so does every x
    mutant = _one_letter_mutant(build_claims()["L.10-11"], 0, 4).rows[0][4]
    monkeypatch.setitem(catalog.SUCCESSION_SEQS, 1, mutant)
    report = run_any_claim("T.succ1", range(-5, CHUNK + 5))
    assert report.failed == len(range(-5, CHUNK + 5))
    assert report.to_dict() == _per_a_succession(1, range(-5, CHUNK + 5))
    assert verify._default_registry() is registry
    # a catalog row: the chunk fails, and the per-A check gives the texts of
    # a replay A by A
    claims = build_claims()
    mutated = dict(claims)
    mutated["L.21-11.last1"] = _one_letter_mutant(claims["L.21-11.last1"],
                                                  0, 3)
    assert _rows_hold(mutated["L.21-11.last1"], range(1, CHUNK + 1)) is None
    report = _run_mutated(monkeypatch, mutated, "L.21-11.last1",
                          range(1, 200))
    assert report.failed > 0
    assert report.to_dict() == _per_a_catalog(mutated["L.21-11.last1"],
                                              range(1, 200))


def test_a_mutant_round_row_fails_the_chunks_that_reach_it_by_chain(
        monkeypatch):
    from collatzlab.verify import _rows_hold

    # A = 252..260 = 9*28 + r start on the round rows 36..44 and go on to
    # W = 28, whose row 28 is the mutant: no A of the chunk starts on it,
    # yet the chunk fails, and the per-A check gives the texts of a replay
    # A by A
    claims = build_claims()
    mutated = dict(claims)
    mutated["T.a-11"] = claim = _one_letter_mutant(claims["T.a-11"], 28, 0)
    a_range = range(252, 261)
    assert [len(ss) for ss, *_ in claim.columns(a_range)][28] == 0
    assert _rows_hold(claim, a_range) is None
    report = _run_mutated(monkeypatch, mutated, "T.a-11", a_range)
    assert (report.passed, report.failed) == (0, 9)
    assert report.failures[0].to_dict() == {
        "input": 252, "step_index": 18,
        "reason": "F illegal at 170 under M1 (step 18)", "trace": []}
    assert report.to_dict() == _per_a_catalog(claim, a_range)


def test_only_the_edge_loop_lacks_a_column_check_and_no_claim_holds_code():
    from collatzlab.verify import _registry

    assert [claim_id for claim_id, (*_, column) in
            _registry(build_claims()).items() if column is None] \
        == ["T.descend-ms", "L.descend-m1", "T.edge-loop"]
    for claim in [*build_claims().values(), *CLUSTER_TABLE.values()]:
        assert set(vars(claim)) >= {"id", "rows", "inverse_of", "chained"}, \
            claim.id
        for name, value in vars(claim).items():
            assert not callable(value), (claim.id, name)


def test_column_checks_replay_no_script_and_descend_builds_no_walk_list(
        monkeypatch):
    from collatzlab import actions, verify

    replays, walks, drops = [], [], []
    replay, descent, drop = actions._replay, verify.m0_descent, verify.m0_drop

    def counted_replay(*args):
        replays.append(args)
        return replay(*args)

    def counted_descent(n, *args):
        walks.append(n)
        return descent(n, *args)

    def counted_drop(n, *args):
        drops.append(n)
        return drop(n, *args)

    monkeypatch.setattr(actions, "_replay", counted_replay)
    monkeypatch.setattr(verify, "m0_descent", counted_descent)
    monkeypatch.setattr(verify, "m0_drop", counted_drop)
    # the only replays are the form walks', two per row, once per process
    verify._walked.cache_clear()
    for claim_id in COLUMN_CLAIMS:
        assert run_any_claim(claim_id, range(1, 5001)).failed == 0
    assert len(replays) == 2 * verify._walked.cache_info().misses > 0
    replays.clear()
    for claim_id in COLUMN_CLAIMS:
        assert run_any_claim(claim_id, range(1, 5001)).failed == 0
    assert (replays, walks, drops) == ([], [], [])
    # the descend claims read one m0_drop, and build no walk list, per A
    # that the F strip does not pass; each of them descends, so no A calls
    # descending_witness
    unstripped = [a for a in range(2, 5001) if a % 6 != 1]
    for claim_id in ("T.descend-ms", "L.descend-m1"):
        assert run_any_claim(claim_id, range(1, 5001)).failed == 0
    assert (replays, walks) == ([], []) and drops == 2 * unstripped


def _budget(a, bounds):
    """descending_witness's (depth limit, value cap) at a."""
    return ((512, a * 2**20) if bounds is None
            else (bounds.max_depth, bounds.max_value))


def _needs_a_walk(a, bounds):
    """Whether descending_witness(a, ...) takes neither its F strip nor an
    m0_descent walk that a decided sieve row shows within the budget: A
    above the row's bound, the row's j steps within the depth limit and
    p*A + q within the value cap."""
    limit, cap = _budget(a, bounds)
    if a % 6 == 1 and (a - 1) // 3 <= cap:
        return False
    row = search._sieve(12)[a % 4096]   # an open row's bound is infinite
    if a <= row.bound or row.j > limit:
        return True
    return row.p * a + row.q > cap


def _walk_descends(a, bounds):
    """Whether descending_witness's m0_descent walk at a, within the
    budget, ends below a."""
    limit, cap = _budget(a, bounds)
    return a <= cap and search.m0_descent(a, cap, limit)[-1] < a


def test_the_descend_column_checks_exactly_the_a_no_sieve_row_passes(
        monkeypatch):
    from collatzlab import verify

    # every descent search passes here, so the per-A check calls it on all
    # it selects: the A that need a walk and whose m0_descent walk, within
    # the budget, does not descend, each under that budget
    checked, walks = [], []
    search_descent, descent = verify._descent_search, verify.m0_descent

    def passing(a, model, bounds, limit, cap):
        checked.append(a)
        assert (limit, cap) == _budget(a, bounds)
        return Path(model, a, ActionSeq(()), a - 1, (a, a - 1))

    def counted_descent(n, *args):
        walks.append(n)
        return descent(n, *args)

    monkeypatch.setattr(verify, "m0_descent", counted_descent)
    decided = [row for row in search._sieve(12) if row.bound < math.inf]
    p, q = max(row.p for row in decided), max(row.q for row in decided)
    _, _, check, _ = verify._registry({})["T.descend-ms"]
    for chunk in ORACLE_CHUNKS:
        # the last two caps hold every row's p*A + q only for the lower
        # part of chunk
        for bounds in (None, SearchBounds(max_value=4096, max_depth=12),
                       SearchBounds(max_value=10**6, max_depth=30),
                       SearchBounds(max_value=max(p * chunk.start + q, 1)),
                       SearchBounds(max_value=max(12 * chunk[-1], 1))):
            selected = [a for a in chunk if a > 1 and _needs_a_walk(a, bounds)
                        and not _walk_descends(a, bounds)]
            checked.clear()
            monkeypatch.setattr(verify, "_descent_search", passing)
            assert [check(a, bounds) for a in chunk] == [
                None if a < 2 else [] for a in chunk]
            assert checked == selected, (chunk, bounds)
            # the real search walks m0_descent on none of them: m0_drop
            # shows each walk does not descend, so it goes to the search
            walks.clear()
            monkeypatch.setattr(verify, "_descent_search", search_descent)
            for a in chunk:
                check(a, bounds)
            assert walks == [], (chunk, bounds)


def _two_walk_witness(a, model, bounds):
    """Reference: (fast path, witness) of descending_witness as it was when
    m0_drop picked the M0 walk and m0_descent then walked it again."""
    limit, cap = _budget(a, bounds)
    if a % 6 == 1 and a > 1 and (a - 1) // 3 <= cap:
        return "strip", apply_seq(seq_of("F"), a, model)
    if a <= cap and search.m0_drop(a, cap, limit) < a:
        walk = search.m0_descent(a, cap, limit)
        return "walk", Path(model, a, search.m0_script(walk), walk[-1],
                            tuple(walk))
    return None, bfs_until(model, a, lambda v: v < a, bounds or SearchBounds(
        max_value=cap, max_depth=limit))


@pytest.mark.parametrize("model", [ModelId.MS, ModelId.M1], ids=str)
def test_each_descent_is_walked_once_and_decided_once_per_a(monkeypatch,
                                                            model):
    from collections import Counter

    from collatzlab import verify

    calls = Counter()
    for name in ("m0_descent", "m0_drop", "_fast_descent"):
        def counted(*args, _fn=getattr(verify, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(verify, name, counted)
    claim_id = {ModelId.MS: "T.descend-ms", ModelId.M1: "L.descend-m1"}[model]
    a_range = range(1, 20001)
    for bounds in (None, SearchBounds(max_value=4096, max_depth=12)):
        expected = {"claim_id": claim_id, "model": model.name,
                    "range": [1, 20000], "pass": 0, "fail": 0, "skipped": 1,
                    "failures": [], "bounds": verify._bounds_dict(bounds,
                                                                  a_range)}
        fast_paths = Counter()
        for a in a_range:
            fast, want = _two_walk_witness(a, model, bounds)
            fast_paths[fast] += 1
            calls.clear()
            assert descending_witness(a, model, bounds) == want, (a, bounds)
            # a witness on the walk path walks one m0_descent and no m0_drop
            assert calls["m0_drop"] == 0, (a, bounds)
            if fast == "walk":
                assert calls["m0_descent"] == 1, (a, bounds)
            if a < 2:
                continue
            if isinstance(want, Unreachable):
                expected["fail"] += 1
                expected["failures"].append(
                    {"input": a, "step_index": None, "reason": want.tag,
                     "trace": []})
            else:
                expected["pass"] += 1
        assert fast_paths["walk"] and fast_paths["strip"]
        assert fast_paths[None] or bounds is None
        # the report is the two-walk one, from one _fast_descent per A
        calls.clear()
        assert run_any_claim(claim_id, a_range, bounds).to_dict() == expected
        assert calls["_fast_descent"] == len(a_range) - 1
        assert calls["m0_descent"] == 0
