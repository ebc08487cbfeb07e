"""collatzlab benchmark: seeded, closed-loop, single-client workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``). Each pass of a workload runs in a fresh interpreter and starts
only after the previous one has ended. The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (passes), and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics of one traced pass with ``--trace 1``. Lines before it record the
machine, every pass and every check. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("verify-catalog", "exact-arith", "graph-experiments")
MAX_SHIFT = 100          # seeds other than 0 shift each window by 1..100
MS_CENSUS_NODES = 10_000
SETUP_SAMPLES = 30       # interpreter starts per run for setup_s, at least
SETUP_PER_PASS = 10      # of which this many are taken before each pass
MIN_PASSES = 2           # two passes, so their outputs can be compared
PASS_TIMEOUT_S = 150
RUN_BUDGET_S = 170       # no new pass starts that would end after this

# T.edge-loop's directed reading fails for even A by design (see README);
# these are the two honest verdicts it may give, neither a benchmark failure.
EDGE_LOOP_TAGS = ("budget-exceeded", "unreachable-within-bounds")
# Acceptance criterion 7: once the F-edges are removed, node 9663 cannot
# descend without climbing to 27,114,424, so it stays unreached whenever the
# value cap (nodes x headroom) is below that. Criterion 7's cap of 10^4 x 2^10
# is part of the workload; never widen it.
DELOOP_UNREACHED, DELOOP_PEAK = 9663, 27_114_424


def make_inputs(workload: str, seed: int) -> dict:
    """The library's inputs for one seed; seed 0 gives the stated sizes."""
    rng = random.Random(seed)

    def shift():
        return 0 if seed == 0 else rng.randrange(1, MAX_SHIFT + 1)

    def window(lo, hi):
        off = shift()
        return [lo + off, hi + off]

    if workload == "verify-catalog":
        inp = {"range": window(1, 1000)}
    elif workload == "exact-arith":
        inp = {"succession": window(1, 100_000),
               "lemmas": window(1, 10_000),
               "descend": window(2, 100_000),
               "c8_seed": 90377 + seed, "c8_inverse": 10_000,
               "c8_ternary": 100_000}
    else:
        inp = {"reach_one": 10**6 + shift(), "census_m0": 10**6 + shift(),
               "deloop": [10**4 + shift(), 10**5 + shift()],
               "headroom": 2**10,
               "census_ms": MS_CENSUS_NODES + shift(),
               "nesting": window(1, 100_000), "stats": window(1, 20_000),
               "edge_loop": window(1, 4000)}
    inp["seed"] = seed
    return inp


def reference_key(workload: str, inp: dict) -> str:
    if workload.startswith("verify"):
        lo, hi = inp["range"]
        return f"verify --claim all --range {lo}..{hi}"
    rest = {k: v for k, v in inp.items() if k != "seed"}
    return f"{workload} {json.dumps(rest, sort_keys=True)}"


def pass_command(workload: str, inp: dict) -> list[str]:
    if workload.startswith("verify"):
        lo, hi = inp["range"]
        return [sys.executable, "-m", "collatzlab.cli", "verify", "--claim",
                "all", "--range", f"{lo}..{hi}", "--workers", "1"]
    return child_command("run", workload, inp)


def child_command(mode: str, workload: str, inp: dict) -> list[str]:
    return [sys.executable, str(BENCH / "child.py"), mode, workload,
            json.dumps(inp)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("COLLATZLAB_WORKERS", None)
    return env


class Proc:
    """One finished child: wall, CPU and peak RSS including its children."""

    def __init__(self, cmd, env, timeout=PASS_TIMEOUT_S):
        self.load_before = os.getloadavg()[0]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=ROOT,
                                start_new_session=True)
        self.timed_out = False

        def kill():
            self.timed_out = True
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        self.stdout = proc.stdout.read()
        reader.join()
        # wait4 reports the child's rusage with that of every descendant it
        # reaped (pool workers included): CPU summed, RSS the largest.
        _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = time.perf_counter() - t0
        timer.cancel()
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.stderr = err[0] if err else b""
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.load_after = os.getloadavg()[0]

    def describe_failure(self) -> str:
        if self.timed_out:
            return f"timed out after {PASS_TIMEOUT_S} s"
        tail = self.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return f"exit code {self.returncode}: " + " | ".join(tail)


def _window_len(pair):
    return pair[1] - pair[0] + 1


def _check_report(r, window, problems, edge_loop=False):
    """A report covers its window; only edge-loop's design verdicts fail."""
    n = _window_len(window)
    if r["range"] != list(window):
        problems.append(f"{r['claim_id']}: range {r['range']} != {window}")
    if r["pass"] + r["fail"] + r["skipped"] != n:
        problems.append(f"{r['claim_id']}: verdicts do not add up to {n}")
    if r["fail"] != len(r["failures"]):
        problems.append(f"{r['claim_id']}: {r['fail']} fails, "
                        f"{len(r['failures'])} failure records")
    if not edge_loop:
        if r["fail"]:
            problems.append(f"{r['claim_id']}: {r['fail']} failures, first "
                            f"{r['failures'][0]}")
        return
    odd = sum(a % 2 for a in range(window[0], window[1] + 1))
    if r["skipped"] != odd:
        problems.append(f"T.edge-loop skipped {r['skipped']} != {odd} odd A")
    for f in r["failures"]:
        if f["input"] % 2 or not f["reason"].startswith(EDGE_LOOP_TAGS):
            problems.append(f"T.edge-loop: unexpected failure {f}")


def check_verify_output(text: str, inp: dict, rc: int) -> list[str]:
    problems = []
    try:
        reports = [json.loads(line) for line in text.splitlines()]
    except json.JSONDecodeError as exc:
        return [f"output is not JSON lines: {exc}"]
    for r in reports:
        _check_report(r, inp["range"], problems,
                      edge_loop=r["claim_id"] == "T.edge-loop")
    if "T.edge-loop" not in [r["claim_id"] for r in reports]:
        problems.append("no T.edge-loop report")
    want_rc = 1 if any(r["fail"] for r in reports) else 0
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    return problems


def check_exact_arith(res: dict, inp: dict) -> list[str]:
    problems = []
    for r in res["succession"]:
        _check_report(r, inp["succession"], problems)
    for r in res["lemmas"]:
        _check_report(r, inp["lemmas"], problems)
    if len(res["lemmas"]) != 29:
        problems.append(f"{len(res['lemmas'])} lemma reports, expected 29")
    _check_report(res["descend"], inp["descend"], problems)
    if res["c8"]["inverse_bad"] or res["c8"]["ternary_bad"]:
        problems.append(f"criterion 8 counterexamples: {res['c8']}")
    return problems


def check_graph(res: dict, inp: dict) -> list[str]:
    problems = []
    if res["reach_one_failures"]:
        problems.append(f"all_reach_one: {res['reach_one_failures'][:5]}")
    if res["census_m0"] != [[1, 4, 2]]:
        problems.append(f"M0 census {res['census_m0'][:3]} != [[1, 4, 2]]")
    for report in res["deloop"]:
        phases = {p["phase"]: p for p in report["phases"]}
        if not report["phase3_matches_m0"] or phases[1]["failed"]:
            problems.append(f"deloop {report['max_value']}: phase-3 edge set "
                            f"or phase 1 wrong: {phases[1]['failed'][:5]}")
        if report["headroom"] != inp["headroom"]:
            problems.append(f"deloop headroom {report['headroom']}")
        if (report["max_value"] >= DELOOP_UNREACHED
                and report["max_value"] * report["headroom"] < DELOOP_PEAK
                and any(DELOOP_UNREACHED not in phases[p]["failed"]
                        for p in (2, 3))):
            problems.append(f"deloop {report['max_value']}: node "
                            f"{DELOOP_UNREACHED} reached below its peak")
    if not res["census_ms"]["cycles"]:
        problems.append("empty MS census")
    if res["nesting_bad"]:
        problems.append(f"M0 <= MS <= M1 nesting fails at {res['nesting_bad'][:5]}")
    if res["stats"]["rc"] != 0 or res["stats"]["rows"] != _window_len(inp["stats"]):
        problems.append(f"stats: {res['stats']}")
    _check_report(res["edge_loop"], inp["edge_loop"], problems, edge_loop=True)
    return problems


def check_pass(workload: str, inp: dict, proc: Proc) -> list[str]:
    """Problems with one untimed pass's output, [] when it is correct."""
    if proc.timed_out:
        return [proc.describe_failure()]
    text = proc.stdout.decode(errors="replace")
    if workload.startswith("verify"):
        if proc.returncode not in (0, 1) or proc.stderr:
            return [proc.describe_failure()]
        return check_verify_output(text, inp, proc.returncode)
    if proc.returncode != 0:
        return [proc.describe_failure()]
    try:
        res = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if workload == "exact-arith":
        return check_exact_arith(res, inp)
    return check_graph(res, inp)


def load_references() -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())


def machine_record() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "cpu": cpu, "load1": os.getloadavg()[0]}


def emit(record: dict):
    print(json.dumps(record, sort_keys=True), flush=True)


def sample_setup(env, n, samples, problems):
    """Append n timings of a fresh interpreter to `import collatzlab` plus
    build_claims() done."""
    cmd = [sys.executable, "-c", "import collatzlab; collatzlab.build_claims()"]
    for _ in range(n):
        proc = Proc(cmd, env, timeout=30)
        if proc.returncode != 0:
            problems.append("setup: " + proc.describe_failure())
            return
        samples.append(proc.wall_s)


def record_pass(i, workload, proc, problems, digest):
    emit({"pass": i, "workload": workload, "wall_s": round(proc.wall_s, 6),
          "cpu_s": round(proc.cpu_s, 6),
          "peak_rss_mb": round(proc.peak_rss_mb, 3),
          "load1_before": proc.load_before, "load1_after": proc.load_after,
          "sha256": digest, "ok": not problems, "problems": problems[:5]})


def run_check_child(workload, inp, env, output_text=None) -> list[str]:
    """Untimed witness replays; also the CLI's claim order for verify."""
    proc = Proc(child_command("check", workload, inp), env)
    if proc.returncode != 0:
        return ["check: " + proc.describe_failure()]
    res = json.loads(proc.stdout)
    problems = list(res["problems"])
    if output_text is not None:
        ids = [json.loads(line)["claim_id"] for line in output_text.splitlines()]
        if ids != res["claim_ids"]:
            problems.append("verify output does not list all_claim_ids() "
                            "in order")
    emit({"check": workload, "witnesses_replayed": res["checked"],
          "problems": problems[:5]})
    return problems


def digest_problems(digest, first, ref) -> list[str]:
    problems = []
    if first is not None and digest != first:
        problems.append("output differs from the first pass")
    if ref is not None and digest != ref:
        problems.append("output differs from the recorded reference")
    return problems


def measure(workload, inp, seconds, env):
    """Untraced run: setup samples, then passes for `seconds` (at least 2)."""
    ref = load_references().get(reference_key(workload, inp))
    emit({"reference": ref is not None, "key": reference_key(workload, inp)})
    setup, problems = [], []
    sample_setup(env, 1, [], problems)   # the first start writes bytecode
    passes, failed, first, first_text = [], 0, None, None
    t_start = time.perf_counter()
    while not problems:
        elapsed = time.perf_counter() - t_start
        if len(passes) >= MIN_PASSES and (
                elapsed >= seconds
                or elapsed + max(p.wall_s for p in passes) > RUN_BUDGET_S):
            break
        # Setup samples are spread over the run, so that one slow or fast
        # spell of the machine does not decide their median.
        sample_setup(env, SETUP_PER_PASS, setup, problems)
        proc = Proc(pass_command(workload, inp), env)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        bad = check_pass(workload, inp, proc)
        bad += digest_problems(digest, first, ref)
        if first is None and not bad:
            first, first_text = digest, proc.stdout.decode()
        record_pass(len(passes), workload, proc, bad, digest)
        passes.append(proc)
        failed += bool(bad)
    sample_setup(env, SETUP_SAMPLES - len(setup), setup, problems)
    # Passes agree byte for byte, so a failed replay fails every pass.
    if first is not None and run_check_child(
            workload, inp, env,
            first_text if workload.startswith("verify") else None):
        failed = len(passes)
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(p.cpu_s for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    } if passes and setup else {}
    attempted = max(len(passes), 1)
    failed = max(failed, int(not passes))
    print(f"# {workload}: {len(passes)} passes, failed_ops "
          f"{failed}/{attempted}, setup_s over {len(setup)} starts")
    return not problems and failed == 0, attempted, failed, metrics


def child_pass(mode, workload, inp, env, digest, rc, label, i):
    """One child.py pass that prints a digest of the workload's output.

    Returns (its JSON result or None, its Proc, whether it failed)."""
    proc = Proc(child_command(mode, workload, inp), env)
    try:
        res = json.loads(proc.stdout)
        bad = digest_problems(res["sha256"], digest, None)
        if res["rc"] != rc:
            bad.append(f"{label} exit code {res['rc']}")
    except (json.JSONDecodeError, KeyError):
        res, bad = None, [proc.describe_failure()]
    record_pass(i, f"{workload} {label}", proc, bad, res and res["sha256"])
    return res, proc, bool(bad)


def traced(workload, inp, env):
    """Per-layer run: one untraced pass, one traced pass, witness replays.

    On verify-catalog an untraced `--workers 2` pass over the same range
    gives the pool metrics."""
    ref = load_references().get(reference_key(workload, inp))
    plain = Proc(pass_command(workload, inp), env)
    digest = hashlib.sha256(plain.stdout).hexdigest()
    bad = check_pass(workload, inp, plain) + digest_problems(digest, None, ref)
    record_pass(0, workload, plain, bad, digest)
    rc = plain.returncode if workload.startswith("verify") else 0
    attempted, failed = 2, bool(bad)
    pool_forks, efficiency = 0, 0.0
    if workload.startswith("verify"):
        pool, pproc, p_bad = child_pass("pool", workload, inp, env, digest,
                                        rc, "--workers 2", 1)
        attempted += 1
        failed += p_bad
        if pool is not None:
            pool_forks = pool["forks"]
            efficiency = plain.wall_s / (2 * pproc.wall_s)
    res, tproc, t_bad = child_pass("trace", workload, inp, env, digest, rc,
                                   "traced", attempted - 1)
    failed += t_bad
    if run_check_child(workload, inp, env, plain.stdout.decode()
                       if workload.startswith("verify") else None):
        failed = attempted
    if res is None:
        return False, attempted, failed, {}
    values = dict(res["metrics"])
    values["cli.pool_forks"] = pool_forks
    values["cli.pool_efficiency"] = efficiency
    # Both passes are fresh interpreters timed the same way; the traced one
    # runs the same body with the wrappers installed.
    values["trace.overhead_s"] = tproc.wall_s - plain.wall_s
    units = {m["name"]: m["unit"] for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    return failed == 0, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "collatzlab" / "__init__.py").is_file():
        print(f"error: no collatzlab sources under {SRC}; run from the root "
              "of a collatzlab checkout", file=sys.stderr)
        return 2
    env = child_env()
    inp = make_inputs(args.workload, args.seed)
    emit({"machine": machine_record(), "workload": args.workload,
          "seed": args.seed, "inputs": inp, "trace": args.trace})
    if args.trace:
        ok, attempted, failed, metrics = traced(args.workload, inp, env)
    else:
        ok, attempted, failed, metrics = measure(args.workload, inp,
                                                 args.seconds, env)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    print(json.dumps({
        "correct": ok, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
