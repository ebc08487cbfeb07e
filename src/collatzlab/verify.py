"""Range verification of catalog claims, with replayable witnesses."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from . import catalog
from .actions import (Action, ActionSeq, ModelId, apply, apply_seq,
                      evaluate_exact, inverse_seq, seq_of)
from .errors import DomainViolation, GuardViolation, UnknownClaim
from .search import (Path, SearchBounds, Unreachable, bfs_reach,
                     bfs_reach_bidirectional)


@dataclass
class Failure:
    input: int
    step_index: int | None
    reason: str
    trace: list = field(default_factory=list)

    def to_dict(self):
        return {
            "input": self.input,
            "step_index": self.step_index,
            "reason": self.reason,
            "trace": [str(v) for v in self.trace],
        }


@dataclass
class VerifyReport:
    claim_id: str
    model: str
    range: tuple[int, int]
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    failures: list[Failure] = field(default_factory=list)
    bounds: dict = field(default_factory=dict)
    wall_ms: float = 0.0

    def record_pass(self):
        self.passed += 1

    def record_skip(self):
        self.skipped += 1

    def record_failure(self, failure: Failure):
        self.failed += 1
        self.failures.append(failure)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "claim_id": self.claim_id,
            "model": self.model,
            "range": list(self.range),
            "pass": self.passed,
            "fail": self.failed,
            "skipped": self.skipped,
            "failures": [f.to_dict() for f in self.failures],
            "bounds": self.bounds,
        }
        if include_timing:
            out["wall_ms"] = round(self.wall_ms, 3)
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.to_dict(include_timing), separators=(",", ":"))

    def csv_row(self) -> str:
        return (f"{self.claim_id},{self.model},{self.range[0]},{self.range[1]},"
                f"{self.passed},{self.failed},{self.skipped}")


CSV_HEADER = "claim_id,model,lo,hi,pass,fail,skipped"


def _bounds_dict(bounds: SearchBounds | None) -> dict:
    if bounds is None:
        return {}
    return {"max_value": bounds.max_value, "max_depth": bounds.max_depth,
            "max_states": bounds.max_states}


def _macro_bounds(current: int, bounds: SearchBounds | None) -> SearchBounds:
    if bounds is not None:
        return bounds
    return SearchBounds(max_value=current * 2**20, max_depth=64,
                        max_states=200_000)


def build_witness(claim: catalog.Claim, a: int,
                  search_bounds: SearchBounds | None = None) -> Path:
    """Execute a claim's witness construction for one A.

    Returns the full guard-checked Path; raises Guard/DomainViolation on an
    illegal scripted step. An Unreachable search segment is surfaced as a
    ValueError tagged budget-exceeded or unreachable-within-bounds.
    """
    start = claim.input_fn(a)
    value = start
    actions: list[Action] = []
    values: list[int] = [start]
    for kind, payload in claim.build(a):
        if kind == "prim":
            for action in payload:
                value = apply(action, value, claim.model,
                              step_index=len(actions))
                actions.append(action)
                values.append(value)
        else:  # bfs
            target = payload
            result = bfs_reach_bidirectional(
                claim.model, value, target, _macro_bounds(value, search_bounds))
            if isinstance(result, Unreachable):
                tag = ("budget-exceeded" if result.bound_exhausted
                       else "unreachable-within-bounds")
                raise ValueError(
                    f"{tag}: search segment {value} => {target} "
                    f"at step {len(actions)}")
            actions.extend(result.actions.steps)
            values.extend(result.values[1:])
            value = result.end
    return Path(model=claim.model, start=start,
                actions=ActionSeq(tuple(actions)), end=value,
                values=tuple(values))


def _check_one(claims, claim, a, search_bounds):
    """PASS/fail verdict plus witness for one A. Returns (ok, failure)."""
    if claim.inverse_of is not None:
        forward = claims[claim.inverse_of]
        try:
            witness = build_witness(forward, a, search_bounds)
        except (GuardViolation, DomainViolation, ValueError) as exc:
            return False, Failure(a, getattr(exc, "step_index", None),
                                  f"forward witness failed: {exc}")
        if witness.end != forward.expected_fn(a):
            return False, Failure(a, None,
                                  f"forward endpoint {witness.end} != "
                                  f"{forward.expected_fn(a)}",
                                  list(witness.values))
        # Replay backward with inverted actions under the same guards.
        try:
            back = apply_seq(inverse_seq(witness.actions), witness.end,
                             claim.model)
        except (GuardViolation, DomainViolation) as exc:
            return False, Failure(a, exc.step_index,
                                  f"inverse replay illegal: {exc}",
                                  list(witness.values))
        if back.start != claim.input_fn(a) or back.end != claim.expected_fn(a):
            return False, Failure(a, None,
                                  f"inverse replay ended at {back.end}, "
                                  f"expected {claim.expected_fn(a)}",
                                  list(back.values))
        return True, None

    try:
        witness = build_witness(claim, a, search_bounds)
    except (GuardViolation, DomainViolation) as exc:
        return False, Failure(a, exc.step_index, str(exc))
    except ValueError as exc:
        return False, Failure(a, None, str(exc))
    expected = claim.expected_fn(a)
    if witness.end != expected:
        return False, Failure(a, None,
                              f"endpoint {witness.end} != expected {expected}",
                              list(witness.values))
    if claim.close_cycle:
        try:
            back = apply_seq(inverse_seq(witness.actions), witness.end,
                             claim.model)
        except (GuardViolation, DomainViolation) as exc:
            return False, Failure(a, exc.step_index,
                                  f"cycle-closing replay illegal: {exc}",
                                  list(witness.values))
        if back.end != witness.start:
            return False, Failure(a, None,
                                  f"cycle did not close: {back.end}",
                                  list(back.values))
    return True, None


def verify_claim(claim_id: str, a_range: range,
                 search_bounds: SearchBounds | None = None,
                 claims: dict | None = None) -> VerifyReport:
    """Check one catalog claim for every A in a_range."""
    claims = claims if claims is not None else catalog.build_claims()
    if claim_id not in claims:
        raise UnknownClaim(claim_id, sorted(claims))
    claim = claims[claim_id]
    t0 = time.perf_counter()
    report = VerifyReport(claim_id=claim_id, model=claim.model.name,
                          range=(a_range.start, a_range[-1]),
                          bounds=_bounds_dict(search_bounds))
    for a in a_range:
        if a < claim.min_a or not claim.applies(a):
            report.record_skip()
            continue
        ok, failure = _check_one(claims, claim, a, search_bounds)
        if ok:
            report.record_pass()
        else:
            report.record_failure(failure)
    report.wall_ms = (time.perf_counter() - t0) * 1000
    return report


def verify_succession(offset: int, x_range: range) -> VerifyReport:
    """Exact identity check: the +offset sequence ends at x + offset.

    Evaluated over signed exact rationals; intermediates that dip to zero
    or below are informational, never failures.
    """
    if offset not in catalog.SUCCESSION_SEQS:
        raise ValueError(f"offset must be 1..4, got {offset}")
    seq = catalog.SUCCESSION_SEQS[offset]
    t0 = time.perf_counter()
    report = VerifyReport(claim_id=f"T.succ{offset}", model=ModelId.M2.name,
                          range=(x_range.start, x_range[-1]))
    nonpositive = 0
    for x in x_range:
        end, flagged = evaluate_exact(seq, x)
        if end == x + offset:
            report.record_pass()
        else:
            report.record_failure(Failure(x, None,
                                          f"ended at {end}, expected {x + offset}"))
        if flagged:
            nonpositive += 1
    report.bounds = {"nonpositive_intermediate_inputs": nonpositive}
    report.wall_ms = (time.perf_counter() - t0) * 1000
    return report


CLUSTER_MEMBERS = {
    "five": (0, 1, 2, 3, 4),
    "three": (5, 6, 7),
    "nine": (0, 1, 2, 3, 4, 5, 6, 7, 8),
}
CLUSTER_HUB = {"five": 4, "three": 7, "nine": 4}


def verify_cluster(kind: str, k_range: range, value_bound: int = 2**20,
                   max_depth: int = 64) -> VerifyReport:
    """Pairwise mutual reachability inside each cluster, by bounded search.

    Independent of the scripted lemmas: every member is connected to a hub
    member in both directions by BFS, which yields every ordered pair by
    path composition.
    """
    if kind not in CLUSTER_MEMBERS:
        raise ValueError(f"kind must be one of {sorted(CLUSTER_MEMBERS)}")
    t0 = time.perf_counter()
    report = VerifyReport(claim_id=f"T.cluster-{kind}", model=ModelId.M1.name,
                          range=(k_range.start, k_range[-1]),
                          bounds={"max_value": value_bound,
                                  "max_depth": max_depth})
    residues = CLUSTER_MEMBERS[kind]
    hub_r = CLUSTER_HUB[kind]
    bounds = SearchBounds(max_value=value_bound, max_depth=max_depth)
    for k in k_range:
        if k < 1:
            report.record_skip()
            continue
        hub = 9 * k + hub_r
        bad = []
        for r in residues:
            if r == hub_r:
                continue
            member = 9 * k + r
            to_hub = bfs_reach_bidirectional(ModelId.M1, member, hub, bounds)
            if isinstance(to_hub, Unreachable):
                bad.append((member, hub, to_hub.bound_exhausted))
            from_hub = bfs_reach_bidirectional(ModelId.M1, hub, member, bounds)
            if isinstance(from_hub, Unreachable):
                bad.append((hub, member, from_hub.bound_exhausted))
        if not bad:
            report.record_pass()
        else:
            for src, dst, exhausted in bad:
                tag = "budget-exceeded" if exhausted else "unreachable"
                report.record_failure(
                    Failure(k, None,
                            f"{tag}: pair {src} => {dst} with cap {value_bound}"))
    report.wall_ms = (time.perf_counter() - t0) * 1000
    return report


def descending_witness(a: int, model: ModelId,
                       bounds: SearchBounds | None = None):
    """A guard-legal sequence H with H(a) < a, or None.

    Fast paths: halve when even, strip when a = 1 (mod 3); otherwise the
    deterministic M0 walk until the value drops below a (its T/B moves are
    legal in both MS and M1). Falls back to bounded BFS.
    """
    if a % 2 == 0:
        return apply_seq(seq_of("B"), a, model)
    if a % 3 == 1 and a > 1:
        return apply_seq(seq_of("F"), a, model)
    steps = []
    x = a
    limit = bounds.max_depth if bounds is not None else 1000
    cap = bounds.max_value if bounds is not None else a * 2**20
    while x >= a and len(steps) < limit:
        action = Action.T if x % 2 else Action.B
        x = 3 * x + 1 if x % 2 else x // 2
        if x > cap:
            break
        steps.append(action)
    if x < a:
        return apply_seq(ActionSeq(tuple(steps)), a, model)
    from .search import bfs_until
    result = bfs_until(model, a, lambda v: v < a,
                       bounds or SearchBounds(max_value=a * 2**20,
                                              max_depth=512))
    if isinstance(result, Unreachable):
        return None
    return apply_seq(result.actions, a, model)


def verify_descending(model: ModelId, a_range: range,
                      search_bounds: SearchBounds | None = None) -> VerifyReport:
    """Descending theorem: some H with H(A) < A exists for every A >= 2."""
    if model not in (ModelId.MS, ModelId.M1):
        raise ValueError(f"descending theorem applies to MS/M1, got {model}")
    t0 = time.perf_counter()
    claim_id = "T.descend-ms" if model is ModelId.MS else "L.descend-m1"
    report = VerifyReport(claim_id=claim_id, model=model.name,
                          range=(a_range.start, a_range[-1]),
                          bounds=_bounds_dict(search_bounds))
    for a in a_range:
        if a < 2:
            report.record_skip()
            continue
        trace = descending_witness(a, model, search_bounds)
        if trace is None:
            report.record_failure(Failure(a, None, "budget-exceeded"))
        elif trace.end >= a:
            report.record_failure(Failure(a, None,
                                          f"witness ends at {trace.end} >= {a}",
                                          list(trace.values)))
        else:
            report.record_pass()
    report.wall_ms = (time.perf_counter() - t0) * 1000
    return report


def verify_edge_loop(a_range: range,
                     search_bounds: SearchBounds | None = None) -> VerifyReport:
    """Directed reading of the edge-loop theorem for even A.

    The F-edge 3A+1 -> A is in a directed MS cycle iff some MS path
    A => 3A+1 avoids that very edge; bounded BFS decides within budget.
    """
    t0 = time.perf_counter()
    report = VerifyReport(claim_id="T.edge-loop", model=ModelId.MS.name,
                          range=(a_range.start, a_range[-1]),
                          bounds=_bounds_dict(search_bounds))
    for a in a_range:
        if a % 2 != 0:
            report.record_skip()
            continue
        target = 3 * a + 1
        bounds = search_bounds or SearchBounds(max_value=a * 2**10,
                                               max_depth=48,
                                               max_states=20_000)
        result = bfs_reach(ModelId.MS, a, target, bounds,
                           forbidden_edges={(target, Action.F)})
        if isinstance(result, Unreachable):
            tag = ("budget-exceeded" if result.bound_exhausted
                   else "unreachable-within-bounds")
            report.record_failure(Failure(a, None, f"{tag}: no MS path "
                                          f"{a} => {target} avoiding the edge"))
        else:
            report.record_pass()
    report.wall_ms = (time.perf_counter() - t0) * 1000
    return report


# Order in which `verify --claim all` runs everything; deterministic.
def all_claim_ids(claims: dict | None = None) -> list[str]:
    claims = claims if claims is not None else catalog.build_claims()
    ids = [f"T.succ{i}" for i in (1, 2, 3, 4)]
    ids.extend(claims)
    ids.extend(["T.cluster-five", "T.cluster-three", "T.cluster-nine",
                "T.descend-ms", "L.descend-m1", "T.edge-loop"])
    return ids


def run_any_claim(claim_id: str, a_range: range,
                  search_bounds: SearchBounds | None = None,
                  claims: dict | None = None) -> VerifyReport:
    """Dispatch a claim id (catalog or special) over a range."""
    claims = claims if claims is not None else catalog.build_claims()
    if claim_id.startswith("T.succ") and claim_id[6:].isdigit():
        return verify_succession(int(claim_id[6:]), a_range)
    if claim_id.startswith("T.cluster-"):
        kind = claim_id[len("T.cluster-"):]
        if search_bounds is None:
            return verify_cluster(kind, a_range)
        return verify_cluster(kind, a_range, value_bound=search_bounds.max_value,
                              max_depth=search_bounds.max_depth)
    if claim_id == "T.descend-ms":
        return verify_descending(ModelId.MS, a_range, search_bounds)
    if claim_id == "L.descend-m1":
        return verify_descending(ModelId.M1, a_range, search_bounds)
    if claim_id == "T.edge-loop":
        return verify_edge_loop(a_range, search_bounds)
    return verify_claim(claim_id, a_range, search_bounds, claims)
