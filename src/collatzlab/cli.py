"""Command-line interface.

Exit codes: 0 clean, 1 verified finding (a claim failure, an unexpected
cycle, a traj not at 1 or a stats row of -1 within --max-depth, an
unreachable reach target, a deloop phase 1 or 3 miss or phase-3/M0
mismatch) or an output pipe that the reader closed early, 2 usage error.
Identical invocations produce byte-identical output; timing only appears
with --timing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import verify as verify_mod
from .actions import ModelId
from .catalog import build_claims  # noqa: F401  bound for bench/tracer.py
from .errors import DepthExceeded, UnknownClaim
from .experiments import cycle_census, delooping_experiment
from .models import bounded_graph, dot_lines
from .search import (STATS_HEADER, SearchBounds, Unreachable, bfs_reach,
                     m0_reach, stats_lines, stopping_stats, trajectory)
from .ternary import to_ternary

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_USAGE = 2

BLOCK_LINES = 1024   # output lines per write of stats and dot

_MODELS = {m.value: m for m in ModelId}


def parse_range(text: str) -> range:
    """Inclusive lo..hi range syntax."""
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit() or int(lo) > int(hi):
        raise argparse.ArgumentTypeError(
            f"range must be lo..hi with lo <= hi, got {text!r}")
    return range(int(lo), int(hi) + 1)


def parse_model(text: str) -> ModelId:
    key = text.lower()
    if key not in _MODELS:
        raise argparse.ArgumentTypeError(
            f"model must be one of {', '.join(_MODELS)}, got {text!r}")
    return _MODELS[key]


def positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"positive integer required: {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatzlab",
        description="Collatz transition-system models, lemma verification "
                    "and graph experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("traj", help="deterministic M0 trajectory of n")
    p.add_argument("n", type=positive_int)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--verbose", action="store_true",
                   help="also show values in base 3")
    p.add_argument("--max-depth", type=positive_int, default=100_000)

    p = sub.add_parser("verify", help="run catalog claims over a range")
    p.add_argument("--claim", default="all",
                   help="claim id, comma-separated ids, or 'all'")
    p.add_argument("--range", type=parse_range, default=range(1, 101),
                   dest="a_range", metavar="LO..HI")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--max-value", type=positive_int, default=None)
    p.add_argument("--max-depth", type=positive_int, default=None,
                   help="path-length cap; needs --max-value (default 64)")
    p.add_argument("--timing", action="store_true",
                   help="include wall_ms in reports (non-deterministic)")
    # A string default goes through type=, so a bad env value is a usage error.
    p.add_argument("--workers", type=positive_int,
                   default=os.environ.get("COLLATZLAB_WORKERS", "1"),
                   help="worker processes, at most one per CPU and claim "
                        "chunk (default: $COLLATZLAB_WORKERS or 1)")

    p = sub.add_parser("reach", help="bounded BFS between two values")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--from", dest="src", type=positive_int, required=True)
    p.add_argument("--to", dest="dst", type=positive_int, required=True)
    p.add_argument("--max-value", type=positive_int, default=None)
    p.add_argument("--max-depth", type=positive_int, default=None,
                   help="path-length cap (default 64)")

    p = sub.add_parser("cluster", help="cluster connectivity check")
    p.add_argument("--kind", choices=tuple(verify_mod.CLUSTER_MEMBERS),
                   required=True)
    p.add_argument("--k", type=parse_range, required=True, dest="a_range",
                   metavar="LO..HI")
    p.add_argument("--value-bound", type=positive_int, default=None,
                   dest="max_value", metavar="VALUE_BOUND")
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(max_depth=None, workers=1)

    p = sub.add_parser("deloop", help="E1/E4 edge-removal experiment")
    p.add_argument("--max", type=positive_int, required=True, dest="max_value")
    p.add_argument("--headroom", type=positive_int, default=2**10)
    p.add_argument("--timing", action="store_true")

    p = sub.add_parser("cycles", help="directed cycle census")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--max", type=positive_int, required=True, dest="max_value")

    p = sub.add_parser("stats", help="stopping-time statistics CSV")
    p.add_argument("--range", type=parse_range, required=True, dest="n_range",
                   metavar="LO..HI")
    p.add_argument("--max-depth", type=positive_int, default=100_000)

    p = sub.add_parser("dot", help="DOT export of a bounded graph")
    p.add_argument("--model", type=parse_model, required=True)
    p.add_argument("--max", type=positive_int, required=True, dest="max_value")
    return parser


def _search_bounds(args):
    if args.max_value is None:
        return None
    return SearchBounds(max_value=args.max_value, max_depth=args.max_depth or 64)


def _emit_reports(reports, fmt, timing, out):
    if fmt == "json":
        for report in reports:
            out.write(report.to_json(include_timing=timing) + "\n")
    elif fmt == "csv":
        out.write(verify_mod.CSV_HEADER + "\n")
        for report in reports:
            out.write(report.csv_row() + "\n")
    else:
        for report in reports:
            status = "PASS" if report.failed == 0 else "FAIL"
            out.write(f"{status} {report.claim_id} [{report.model}] "
                      f"range {report.range[0]}..{report.range[1]}: "
                      f"{report.passed} pass, {report.failed} fail, "
                      f"{report.skipped} skipped\n")
            for failure in report.failures[:10]:
                out.write(f"  A={failure.input}: {failure.reason}\n")


def cmd_verify(args, out) -> int:
    if args.max_depth is not None and args.max_value is None:
        print("error: --max-depth needs --max-value", file=sys.stderr)
        return EXIT_USAGE
    known = verify_mod.all_claim_ids()
    if args.claim == "all":
        ids = known
    else:
        ids = [c.strip() for c in args.claim.split(",") if c.strip()]
        if not ids:
            print(f"error: no claim id in --claim {args.claim!r}",
                  file=sys.stderr)
            return EXIT_USAGE
        unknown = [c for c in ids if c not in known]
        if unknown:
            print(f"unknown claim(s): {', '.join(unknown)}", file=sys.stderr)
            print("available: " + ", ".join(sorted(known)), file=sys.stderr)
            return EXIT_USAGE
    reports = _run_claims(ids, args.a_range, _search_bounds(args),
                          args.workers)
    _emit_reports(reports, args.format, args.timing, out)
    return EXIT_FINDING if any(r.failed for r in reports) else EXIT_OK


def _run_claims(ids, rng, bounds, workers):
    """One report per claim id: verify.run_any_claim per claim when serial,
    else a pool of min(workers, CPUs, units) processes gets every (claim
    id, chunk) unit at once, chunk by chunk, in about 16 batches a process
    (one message each); each report is built from its chunks in order.
    Either way every process reads its one cached verify registry."""
    chunks = verify_mod.chunks(rng)
    units = [(c, chunk) for chunk in chunks for c in ids]
    workers = min(workers, os.cpu_count() or 1, len(units))
    if workers <= 1:
        return [verify_mod.run_any_claim(c, rng, bounds) for c in ids]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(verify_mod.run_chunk, *zip(*units),
                              [bounds] * len(units),
                              chunksize=max(1, len(units) // (16 * workers))))
    return [verify_mod.build_report(c, rng, bounds, parts[i::len(ids)])
            for i, c in enumerate(ids)]


def cmd_traj(args, out) -> int:
    path = trajectory(args.n, max_depth=args.max_depth)
    if args.format == "csv":
        out.write("step,value\n")
        for i, v in enumerate(path.values):
            out.write(f"{i},{v}\n")
    else:
        shown = (" ".join(f"{v}({to_ternary(v)})" for v in path.values)
                 if args.verbose else " ".join(str(v) for v in path.values))
        out.write(f"{shown} | steps={len(path)} peak={path.peak}\n")
    return EXIT_OK


def cmd_reach(args, out) -> int:
    # Under M0 with no bound of the user's, m0_reach decides what the
    # default search leaves open.
    bounds = _search_bounds(args) or SearchBounds(
        max_value=max(args.src, args.dst) * 2**20,
        max_depth=args.max_depth or 64)
    result = bfs_reach(args.model, args.src, args.dst, bounds)
    if (isinstance(result, Unreachable) and args.model is ModelId.M0
            and args.max_value is None and args.max_depth is None):
        try:
            result = m0_reach(args.src, args.dst)
        except DepthExceeded:
            pass   # the search's verdict stands
    if isinstance(result, Unreachable):
        out.write(f"{result.tag}: {args.src} => {args.dst} under {args.model}\n")
        return EXIT_FINDING
    out.write(result.render() + "\n")
    return EXIT_OK


def cmd_cluster(args, out) -> int:
    args.claim = f"T.cluster-{args.kind}"
    return cmd_verify(args, out)


def cmd_deloop(args, out) -> int:
    report = delooping_experiment(args.max_value, args.headroom)
    out.write(json.dumps(report.to_dict(include_timing=args.timing),
                         separators=(",", ":")) + "\n")
    clean = report.phase3_matches_m0 and all(
        p.all_reached for p in report.phases if p.phase in (1, 3))
    return EXIT_OK if clean else EXIT_FINDING


def cmd_cycles(args, out) -> int:
    cycles = cycle_census(args.model, args.max_value)
    for cycle in cycles:
        out.write(" ".join(str(v) for v in cycle) + "\n")
    if args.model is ModelId.M0 and cycles != [[1, 4, 2]]:
        return EXIT_FINDING
    return EXIT_OK


def _blocks(items):
    """items in lists of BLOCK_LINES, the last one shorter."""
    while block := list(islice(items, BLOCK_LINES)):
        yield block


def cmd_stats(args, out) -> int:
    # Nothing is written before the first block is rendered, so a bad first
    # value prints nothing. Only a row that hit --max-depth has steps -1.
    head, depth_hit = STATS_HEADER, False
    for block in _blocks(stopping_stats(args.n_range, args.max_depth)):
        depth_hit = depth_hit or min(s for _, s, _ in block) < 0
        out.write(head + stats_lines(block))
        head = ""
    return EXIT_FINDING if depth_hit else EXIT_OK


def cmd_dot(args, out) -> int:
    for block in _blocks(dot_lines(bounded_graph(args.model,
                                                 args.max_value))):
        out.write("".join(block))
    return EXIT_OK


_COMMANDS = {
    "traj": cmd_traj,
    "verify": cmd_verify,
    "reach": cmd_reach,
    "cluster": cmd_cluster,
    "deloop": cmd_deloop,
    "cycles": cmd_cycles,
    "stats": cmd_stats,
    "dot": cmd_dot,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = _COMMANDS[args.command](args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (`| head`): as Python's SIGPIPE note
        # says, point stdout at devnull so the exit flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DepthExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDING
    except (UnknownClaim, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
