"""Range verification of claims, with replayable witnesses.

Every claim id, catalog lemma or special theorem, is one entry in an
ordered registry: its model, its bounds dict, a check run once per A and,
where affine forms decide a chunk, a column check run once per chunk of A.
A column check decides the chunk without a per-A replay: the scripted
claims walk each row once on its affine forms (_rows_hold, over
Claim.columns, so only the catalog reads a claim's rows), and the
succession identities compose their sequence once. It only says whether
every A passed; on any miss the chunk is checked again A by A, so every
failure and count comes from the per-A check. The descend claims and
T.edge-loop have none: their per-A checks decide each A. No entry keeps
state, and each reads the module tables when it runs.

One claim's chunk of CHUNK A is the one unit of work, serial or pooled:
run_chunk runs it, and build_report builds a claim's report once from its
chunks in range order. run_any_claim runs both in this process. This
module owns a whole verify run: run_claims schedules it, serial or pooled,
and write_reports prints it. Every run reads one registry,
_default_registry(), built once per process.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_right
from functools import cache
from typing import NamedTuple

from . import catalog
from .actions import (ModelId, Path, apply_seq, evaluate_exact,
                      evaluate_form, seq_of, walk_form)
from .actions import apply  # noqa: F401  bound for bench/tracer.py
from .errors import DomainViolation, GuardViolation, UnknownClaim
from .search import (SearchBounds, Unreachable, bfs_reach,
                     bfs_reach_bidirectional, m0_descent, m0_drop, m0_script)


class Failure(NamedTuple):
    input: int
    step_index: int | None
    reason: str
    trace: tuple | list = ()

    def to_dict(self):
        return {**self._asdict(), "trace": [str(v) for v in self.trace]}


class VerifyReport(NamedTuple):
    claim_id: str
    model: str
    range: tuple[int, int]
    passed: int
    skipped: int
    failures: list[Failure]
    bounds: dict
    wall_ms: float

    @property
    def failed(self) -> int:
        return len(self.failures)

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


def _bounds_dict(bounds: SearchBounds | None, a_range) -> dict:
    return {} if bounds is None else bounds._asdict()


def build_witness(claim: catalog.Claim, a: int) -> Path:
    """Run a claim's witness script for one A in its domain, under M1.

    Returns the full guard-checked Path; raises Guard/DomainViolation on an
    illegal step, and ValueError for an A outside the claim's domain.
    """
    start, _, script = claim.row(a)
    return apply_seq(script, start, claim.model)


# Per-A checks: check(a, search_bounds) returns None when A is outside the
# claim's domain (skipped), else the list of failures (empty on PASS).
# Column checks: column(chunk, search_bounds) takes a step-1 range of at
# most CHUNK A and returns (passed, skipped) when every A in the claim's
# domain passes, else None. Bounds-dict functions: bounds_dict(search_bounds,
# a_range) gives the report's bounds for the whole of a_range.

CHUNK = 1024


@cache
def _walked(script, start, least, model):
    """walk_form of a row's script over its start form, once per row: the
    cache holds one entry per distinct row checked in the process."""
    return walk_form(script.steps, *start, least, model)


def _rows_hold(claim, chunk, bounds=None):
    """How many A of chunk, a step-1 range, are in claim's domain, when the
    script of each of claim.columns(chunk) is proved on the row's start
    form to end on its end form, in at most bounds.max_depth steps and with
    every value <= bounds.max_value at the row's largest s in chunk when
    bounds is given (every form grows with s); None otherwise. bounds bound
    one row's walk, not a chain of rows, so a chained claim takes none."""
    passed = 0
    for ss, start, end, script, least in claim.columns(chunk):
        walk = _walked(script, start, least, claim.model)
        if walk is None or walk[0] != end:
            return None
        if bounds is not None and (
                len(script) > bounds.max_depth
                or max(a * ss[-1] + b for a, b in walk[1]) > bounds.max_value):
            return None
        passed += len(ss)
    return passed


def _catalog_claim(claim):
    # A witness needs no replay back: in M1 the inverse of every legal step
    # is legal where the step lands (T at x by F at 3x+1, B by D), so a
    # witness that ends where it should always walks back.
    def check(a, search_bounds):
        found = claim.at(a)
        if found is None:
            return None
        start, expected, script = found
        try:
            witness = apply_seq(script, start, claim.model)
        except (GuardViolation, DomainViolation) as exc:
            return [Failure(a, exc.step_index, str(exc))]
        if witness.end != expected:
            return [Failure(a, None,
                            f"endpoint {witness.end} != expected {expected}",
                            list(witness.values))]
        return []

    def column(chunk, search_bounds):
        passed = _rows_hold(claim, chunk)
        return None if passed is None else (passed, len(chunk) - passed)

    # Catalog witnesses are scripts: no search bound applies to them.
    return claim.model, lambda search_bounds, a_range: {}, check, column


# one composition per succession sequence checked in the process
_form = cache(evaluate_form)


def _succession(offset):
    """Exact identity check: the +offset sequence ends at x + offset.

    Evaluated over signed exact rationals; intermediates that dip to zero
    or below are informational, never failures: the report counts the x of
    its range that dip, in place of search bounds, read off the
    composition's low (x dips exactly when x <= low). The column check
    composes the sequence once, as (alpha*x + beta) / q, and passes a chunk
    when that is x + offset for every x. Each reads
    catalog.SUCCESSION_SEQS[offset] when it runs.
    """
    def check(x, search_bounds):
        end, _ = evaluate_exact(catalog.SUCCESSION_SEQS[offset], x)
        if end == x + offset:
            return []
        return [Failure(x, None, f"ended at {end}, expected {x + offset}")]

    def column(chunk, search_bounds):
        alpha, beta, q, _ = _form(catalog.SUCCESSION_SEQS[offset])
        return (len(chunk), 0) if (alpha, beta) == (q, offset * q) else None

    def bounds_dict(search_bounds, a_range):
        low = _form(catalog.SUCCESSION_SEQS[offset])[3]
        xs = a_range if a_range.step > 0 else a_range[::-1]
        return {"nonpositive_intermediate_inputs": bisect_right(xs, low)}

    return ModelId.M2, bounds_dict, check, column


CLUSTER_MEMBERS = {
    "five": (0, 1, 2, 3, 4),
    "three": (5, 6, 7),
    "nine": (0, 1, 2, 3, 4, 5, 6, 7, 8),
}
CLUSTER_HUB = {"five": 4, "three": 7, "nine": 4}


def _cluster_bounds(search_bounds, k):
    """Value and depth caps only; max_states keeps the search default. With
    no search bounds the cap at k is max(2^20, 18 * (9k + 8)), which is
    2^20 up to k = 6,471: no catalog.CLUSTER_TABLE row for k goes above
    18 * (9k + 8) or past 64 steps, so the table decides every pair."""
    if search_bounds is None:
        return SearchBounds(max_value=max(2**20, 18 * (9 * k + 8)))
    return SearchBounds(max_value=search_bounds.max_value,
                        max_depth=search_bounds.max_depth)


def _cluster_bounds_dict(search_bounds, a_range):
    # the caps at the range's largest k, whichever way the range runs
    bounds = _cluster_bounds(search_bounds, max(a_range[0], a_range[-1]))
    return {"max_value": bounds.max_value, "max_depth": bounds.max_depth}


def _cluster(kind):
    """Pairwise mutual reachability inside each cluster: by the proved
    table, else by bounded search.

    Every member is connected to a hub member in both directions, which
    yields every ordered pair by path composition. Each pair that fails is
    its own failure.

    M1's guards read only x mod 2, x mod 3 and x > 1, so one action script
    joins the same residue pair for a whole class of k. Each pair's row for
    k in catalog.CLUSTER_TABLE is proved on its affine forms; the per-k
    check decides it with _rows_hold on k alone, under the caps at k, and
    runs the bidirectional search only when the row does not fit them. A
    row that fits is a path the search would also accept, so every verdict
    is the search's, except that a pair whose search would run out of
    max_states can pass on its row.

    The column check decides each pair's rows once over a chunk of k, under
    the caps at the chunk's last k, and passes the chunk only when every
    row fits. The default cap fits every row at every k, and a cap the user
    sets is the same at every k, so then each k of the chunk passes too.
    """
    hub_r = CLUSTER_HUB[kind]
    pairs = [pair for r in CLUSTER_MEMBERS[kind] if r != hub_r
             for pair in ((r, hub_r), (hub_r, r))]

    def check(k, search_bounds):
        if k < 1:
            return None
        bounds = _cluster_bounds(search_bounds, k)
        failures = []
        for src_r, dst_r in pairs:
            if _rows_hold(catalog.CLUSTER_TABLE[src_r, dst_r],
                          range(k, k + 1), bounds) is not None:
                continue
            src, dst = 9 * k + src_r, 9 * k + dst_r
            result = bfs_reach_bidirectional(ModelId.M1, src, dst, bounds)
            if isinstance(result, Unreachable):
                failures.append(Failure(
                    k, None, f"{result.tag}: pair {src} => "
                             f"{dst} with cap {bounds.max_value}"))
        return failures

    def column(chunk, search_bounds):
        # Every table claim's domain is k >= 1, the k that check does not
        # skip, so each pair passes the same count.
        bounds = _cluster_bounds(search_bounds, chunk[-1])
        for pair in pairs:
            passed = _rows_hold(catalog.CLUSTER_TABLE[pair], chunk, bounds)
            if passed is None:
                return None
        return passed, len(chunk) - passed

    return ModelId.M1, _cluster_bounds_dict, check, column


_SEQ_F = seq_of("F")


def _fast_descent(a, bounds, walk=False):
    """descending_witness's (depth limit, value cap, fast path) at a: 512
    and a * 2^20 when no bounds are given. The fast path is "strip" when a
    = 1 (mod 6), a > 1 and the F strip's end (a - 1) / 3 is within the cap;
    else, when a is within the cap and a's M0 walk within both ends below
    a, "walk", read off m0_drop with no walk list, or with walk=True the
    walk's values, one m0_descent; else None: only a search can descend."""
    limit, cap = (512, a * 2**20) if bounds is None else (
        bounds.max_depth, bounds.max_value)
    if a % 6 == 1 and a > 1 and (a - 1) // 3 <= cap:
        return limit, cap, "strip"
    if a <= cap:
        if not walk:
            if m0_drop(a, cap, limit) < a:
                return limit, cap, "walk"
        elif (values := m0_descent(a, cap, limit))[-1] < a:
            return limit, cap, values
    return limit, cap, None


def _descent_search(a, model, bounds, limit, cap):
    from .search import bfs_until   # bench/tracer.py wraps search.bfs_until
    return bfs_until(model, a, lambda v: v < a,
                     bounds or SearchBounds(max_value=cap, max_depth=limit))


def descending_witness(a: int, model: ModelId,
                       bounds: SearchBounds | None = None):
    """A guard-legal Path whose end is below a, or the search's Unreachable;
    ValueError when a < 1.

    Fast paths, as _fast_descent picks them: the F strip, or the one
    ``m0_descent`` walk, whose T/B moves are legal in both MS and M1, so
    the walk is the Path as it stands. Falls back to bounded BFS, whose
    Path is guard-legal too. With no bounds, both walks use depth 512 and
    cap a * 2^20.
    """
    if a < 1:
        raise ValueError(f"positive integer required, got {a}")
    limit, cap, fast = _fast_descent(a, bounds, walk=True)
    if fast == "strip":
        return apply_seq(_SEQ_F, a, model)
    if fast:
        return Path(model, a, m0_script(fast), fast[-1], tuple(fast))
    return _descent_search(a, model, bounds, limit, cap)


def _descend(model):
    """Descending theorem: some H with H(A) < A exists for every A >= 2.

    The per-A check passes an A that _fast_descent gives a fast path and
    searches, under the same budget, only for the rest, whose walk does not
    descend within it, so an A that passes builds no Path.
    """
    def check(a, search_bounds):
        if a < 2:
            return None
        limit, cap, fast = _fast_descent(a, search_bounds)
        if fast:
            return []
        witness = _descent_search(a, model, search_bounds, limit, cap)
        return ([Failure(a, None, witness.tag)]
                if isinstance(witness, Unreachable) else [])

    return model, _bounds_dict, check, None


def _edge_loop(a, search_bounds):
    """Directed reading of the edge-loop theorem for even A.

    The F-edge 3A+1 -> A is in a directed MS cycle iff some MS path
    A => 3A+1 avoids that very edge; bounded BFS decides within budget.
    The search stops on reaching 3A+1, so it never takes that edge out.
    """
    if a % 2 != 0 or a < 1:
        return None
    target = 3 * a + 1
    bounds = search_bounds or SearchBounds(max_value=a * 2**10, max_depth=48,
                                           max_states=20_000)
    result = bfs_reach(ModelId.MS, a, target, bounds)
    if isinstance(result, Unreachable):
        return [Failure(a, None, f"{result.tag}: no MS path "
                                 f"{a} => {target} avoiding the edge")]
    return []


def _registry(claims: dict) -> dict:
    """Claim id -> (model, bounds-dict function, per-A check, column check
    or None).

    Insertion order is the `verify --claim all` order.
    """
    registry = {f"T.succ{i}": _succession(i) for i in catalog.SUCCESSION_SEQS}
    registry.update((claim_id, _catalog_claim(claim))
                    for claim_id, claim in claims.items())
    registry.update((f"T.cluster-{kind}", _cluster(kind))
                    for kind in CLUSTER_MEMBERS)
    registry["T.descend-ms"] = _descend(ModelId.MS)
    registry["L.descend-m1"] = _descend(ModelId.M1)
    registry["T.edge-loop"] = (ModelId.MS, _bounds_dict, _edge_loop, None)
    return registry


@cache
def _default_registry() -> dict:
    """The registry of catalog.build_claims(), built once per process."""
    return _registry(catalog.build_claims())


def all_claim_ids(claims: dict | None = None) -> list[str]:
    """Every claim id, in the deterministic `verify --claim all` order."""
    return list(_default_registry() if claims is None else _registry(claims))


def chunks(a_range: range) -> list[range]:
    """a_range cut into runs of CHUNK A, in order: the units of work."""
    return [a_range[i:i + CHUNK] for i in range(0, len(a_range), CHUNK)]


def run_chunk(claim_id: str, chunk: range,
              search_bounds: SearchBounds | None = None) -> tuple:
    """One unit of work: (passed, skipped, failures, seconds) of claim_id
    over chunk, one of chunks(a_range): the column check's counts when it
    passes the chunk, else the per-A check's, A by A, which give every
    failure."""
    t0 = time.perf_counter()
    _, _, check, column = _default_registry()[claim_id]
    # column checks read a chunk as consecutive A
    if column and chunk.step == 1 and (
            counts := column(chunk, search_bounds)) is not None:
        return *counts, [], time.perf_counter() - t0
    passed = skipped = 0
    failures = []
    for a in chunk:
        found = check(a, search_bounds)
        if found is None:
            skipped += 1
        elif found:
            failures += found
        else:
            passed += 1
    return passed, skipped, failures, time.perf_counter() - t0


def build_report(claim_id: str, a_range: range,
                 search_bounds: SearchBounds | None, parts) -> VerifyReport:
    """claim_id's report over a_range from parts, the run_chunk result of
    each of chunks(a_range) in range order: counts and failures in that
    order, bounds read off the whole range, wall_ms the sum of the chunk
    times."""
    model, bounds_dict, _, _ = _default_registry()[claim_id]
    passed, skipped, failures, seconds = zip(*parts)
    return VerifyReport(claim_id, model.name, (a_range.start, a_range[-1]),
                        sum(passed), sum(skipped),
                        [f for part in failures for f in part],
                        bounds_dict(search_bounds, a_range),
                        sum(seconds) * 1000)


def run_any_claim(claim_id: str, a_range: range,
                  search_bounds: SearchBounds | None = None) -> VerifyReport:
    """Check one claim (catalog or special) for every A in a_range, a
    run_chunk at a time, in this process."""
    registry = _default_registry()
    if claim_id not in registry:
        raise UnknownClaim(claim_id, sorted(registry))
    if not a_range:
        raise ValueError(f"empty range {a_range}")
    parts = [run_chunk(claim_id, chunk, search_bounds)
             for chunk in chunks(a_range)]
    return build_report(claim_id, a_range, search_bounds, parts)


def run_claims(ids, a_range: range, search_bounds: SearchBounds | None = None,
               workers: int = 1) -> list[VerifyReport]:
    """One report per id of ids, in order; before any work, UnknownClaim for
    the first unknown id and ValueError when search_bounds bound none of
    them. Serial: run_any_claim per id. Pooled: min(workers, CPUs, units)
    processes get every (id, chunk) unit in about 16 batches a process."""
    registry = _default_registry()
    if unknown := [c for c in ids if c not in registry]:
        raise UnknownClaim(unknown[0], sorted(registry))
    if search_bounds and {_bounds_dict, _cluster_bounds_dict}.isdisjoint(
            registry[c][1] for c in ids):
        raise ValueError("--max-value and --max-depth bound no search of "
                         + ", ".join(ids))
    units = [(c, chunk) for chunk in chunks(a_range) for c in ids]
    workers = min(workers, os.cpu_count() or 1, len(units))
    if workers <= 1:
        return [run_any_claim(c, a_range, search_bounds) for c in ids]
    import concurrent.futures
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(run_chunk, *zip(*units),
                              [search_bounds] * len(units),
                              chunksize=max(1, len(units) // (16 * workers))))
    return [build_report(c, a_range, search_bounds, parts[i::len(ids)])
            for i, c in enumerate(ids)]


def write_reports(reports, fmt: str, out, include_timing: bool = False):
    """Print reports to out as fmt: a JSON line each (wall_ms only with
    include_timing), a CSV table, or a text line each and 10 failures."""
    if fmt == "csv":
        out.write("claim_id,model,lo,hi,pass,fail,skipped\n")
    for r in reports:
        if fmt == "json":
            out.write(json.dumps(r.to_dict(include_timing),
                                 separators=(",", ":")) + "\n")
        elif fmt == "csv":
            out.write(f"{r.claim_id},{r.model},{r.range[0]},{r.range[1]},"
                      f"{r.passed},{r.failed},{r.skipped}\n")
        else:
            out.write(f"{'FAIL' if r.failed else 'PASS'} {r.claim_id} "
                      f"[{r.model}] range {r.range[0]}..{r.range[1]}: "
                      f"{r.passed} pass, {r.failed} fail, "
                      f"{r.skipped} skipped\n")
            for failure in r.failures[:10]:
                out.write(f"  A={failure.input}: {failure.reason}\n")
