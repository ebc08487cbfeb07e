"""One benchmark pass, run in a fresh interpreter by bench/run.py.

    python3 bench/child.py run   WORKLOAD INPUTS_JSON   # library workloads
    python3 bench/child.py trace WORKLOAD INPUTS_JSON   # any workload, traced
    python3 bench/child.py pool  WORKLOAD INPUTS_JSON   # verify at two workers
    python3 bench/child.py check WORKLOAD INPUTS_JSON   # replay sampled witnesses

``run`` prints the workload's results as one canonical JSON line; run.py
hashes it and checks it. ``trace`` installs bench/tracer.py first, runs the
same body, and prints the per-layer metrics. ``pool`` runs ``verify`` with
``--workers 2`` and counts the process forks it makes. ``check`` runs after
the timed passes and replays a seeded sample of witnesses with the library's
own validators (``Path.validate``, ``validate_trace``).

Library calls go through module attributes (``verify.run_any_claim``, not a
name imported at start-up) so that the traced run sees them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys

from collatzlab import (actions, catalog, cli, experiments, models, search,
                        ternary, verify)
from collatzlab.actions import Action, ActionSeq, ModelId

# Criterion 2 of the acceptance gate: the 29 scripted lemmas (no search).
LEMMA_IDS = [
    "L.10-11", "L.11-10", "L.02-11", "L.11-02", "L.01-11", "L.11-01",
    "L.00-11", "L.11-00", "L.20-21", "L.21-20", "L.12-21", "L.21-12",
    "T.attach",
    "L.21-11.even", "L.11-21.even", "L.21-11.last0", "L.11-21.last0",
    "L.21-11.last1", "L.11-21.last1", "L.21-11.last2", "L.11-21.last2",
    "L.22-11.even", "L.11-22.even", "L.22-11.last0", "L.11-22.last0",
    "L.22-11.last1", "L.11-22.last1", "L.22-11.last2", "L.11-22.last2",
]


def _range(pair):
    return range(pair[0], pair[1] + 1)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def exact_arith(inp):
    """Criteria 1, 2 and 4, plus the inverse and ternary parts of 8."""
    out = {
        "succession": [verify.run_any_claim(f"T.succ{c}",
                                            _range(inp["succession"])).to_dict()
                       for c in (1, 2, 3, 4)],
        "lemmas": [verify.run_any_claim(cid, _range(inp["lemmas"])).to_dict()
                   for cid in LEMMA_IDS],
        "descend": verify.run_any_claim("T.descend-ms",
                                        _range(inp["descend"])).to_dict(),
    }
    rng = random.Random(inp["c8_seed"])
    letters = list(Action)
    inverse_bad = []
    for _ in range(inp["c8_inverse"]):
        seq = ActionSeq(tuple(rng.choice(letters)
                              for _ in range(rng.randint(1, 12))))
        x = rng.randint(1, 10**9)
        forward, _ = actions.evaluate_exact(seq, x)
        back, _ = actions.evaluate_exact(actions.inverse_seq(seq), forward)
        if back != x:
            inverse_bad.append([seq.render(), x])
    ternary_bad = []
    for _ in range(inp["c8_ternary"]):
        n = rng.randint(1, 10**12)
        t = ternary.to_ternary(n)
        oracle, m = "", n
        while m:
            oracle = str(m % 3) + oracle
            m //= 3
        if str(t) != oracle or ternary.from_ternary(t) != n:
            ternary_bad.append(n)
    out["c8"] = {"inverse_bad": inverse_bad, "ternary_bad": ternary_bad}
    return out


def graph_experiments(inp):
    """Criteria 5, 6, 7 and the nesting part of 8, plus larger graph runs."""
    deloop = [experiments.delooping_experiment(n, inp["headroom"]).to_dict()
              for n in inp["deloop"]]
    census_ms = experiments.cycle_census(ModelId.MS, inp["census_ms"])
    nesting_bad = []
    for x in _range(inp["nesting"]):
        m0 = set(models.successors(x, ModelId.M0))
        ms = set(models.successors(x, ModelId.MS))
        m1 = set(models.successors(x, ModelId.M1))
        if not m0 <= ms <= m1:
            nesting_bad.append(x)
    stats = io.StringIO()
    lo, hi = inp["stats"]
    rc = cli.main(["stats", "--range", f"{lo}..{hi}"], out=stats)
    return {
        "reach_one_failures": search.all_reach_one(inp["reach_one"]),
        "census_m0": experiments.cycle_census(ModelId.M0, inp["census_m0"]),
        "deloop": deloop,
        "census_ms": {"cycles": len(census_ms),
                      "sha256": hashlib.sha256(
                          canonical(census_ms).encode()).hexdigest(),
                      "sample": census_ms[:3] + census_ms[-3:]},
        "nesting_bad": nesting_bad,
        "stats": {"rc": rc, "rows": stats.getvalue().count("\n") - 1,
                  "sha256": hashlib.sha256(
                      stats.getvalue().encode()).hexdigest()},
        "edge_loop": verify.run_any_claim("T.edge-loop",
                                          _range(inp["edge_loop"])).to_dict(),
    }


def verify_cli(inp, workers):
    """The `verify --claim all` command, in-process (traced runs only)."""
    out = io.StringIO()
    lo, hi = inp["range"]
    rc = cli.main(["verify", "--claim", "all", "--range", f"{lo}..{hi}",
                   "--workers", str(workers)], out=out)
    return rc, out.getvalue()


LIBRARY_BODIES = {"exact-arith": exact_arith,
                  "graph-experiments": graph_experiments}


def trace_pass(workload, inp):
    import tracer as tracing

    tr = tracing.Tracer()
    tracing.install(tr)
    if workload in LIBRARY_BODIES:
        rc = 0
        text = canonical(LIBRARY_BODIES[workload](inp)) + "\n"
    else:
        rc, text = verify_cli(inp, 1)
    metrics = tracing.layer_metrics(tr)
    metrics["cli.output_bytes"] = len(text.encode())
    print(canonical({"rc": rc,
                     "sha256": hashlib.sha256(text.encode()).hexdigest(),
                     "metrics": metrics}))


def pool_pass(inp):
    """`verify` at two workers; counts the forks its process pools make."""
    forks = []
    os.register_at_fork(before=lambda: forks.append(1))
    rc, text = verify_cli(inp, 2)
    print(canonical({"rc": rc, "forks": len(forks),
                     "sha256": hashlib.sha256(text.encode()).hexdigest()}))


def _check_witnesses(claims, claim_ids, a_values, problems) -> int:
    """Rebuild and replay catalog witnesses; returns how many were checked."""
    checked = 0
    for claim_id in claim_ids:
        claim = claims[claim_id]
        for a in a_values:
            if a < claim.min_a or not claim.applies(a):
                continue
            checked += 1
            if claim.inverse_of is not None:
                forward = claims[claim.inverse_of]
                path = verify.build_witness(forward, a)
                back = actions.apply_seq(actions.inverse_seq(path.actions),
                                         path.end, claim.model)
                ok = (path.validate() and actions.validate_trace(back)
                      and back.end == claim.expected_fn(a))
            else:
                path = verify.build_witness(claim, a)
                ok = path.validate() and path.end == claim.expected_fn(a)
            if not ok:
                problems.append(f"{claim_id} witness for A={a} does not replay")
    return checked


def check(workload, inp, seed):
    """Replay a seeded sample of witnesses; prints checked count and problems."""
    rng = random.Random(seed)
    claims = catalog.build_claims()
    problems = []
    checked = 0
    result = {}
    if workload.startswith("verify"):
        result["claim_ids"] = verify.all_claim_ids(claims)
        window = _range(inp["range"])
        a_values = rng.sample(window, 4)
        ids = [c for c in claims if claims[c].build is not None
               or claims[c].inverse_of is not None]
        checked += _check_witnesses(claims, ids, a_values, problems)
        bounds = search.SearchBounds(max_value=2**20, max_depth=64)
        for k in a_values:
            for r in (0, 5, 8):
                hub = 9 * k + (7 if r == 5 else 4)
                for src, dst in ((9 * k + r, hub), (hub, 9 * k + r)):
                    path = search.bfs_reach_bidirectional(ModelId.M1, src,
                                                          dst, bounds)
                    checked += 1
                    if not (isinstance(path, search.Path) and path.validate()
                            and path.start == src and path.end == dst):
                        problems.append(f"cluster pair {src}=>{dst} "
                                        "does not replay")
    elif workload == "exact-arith":
        a_values = rng.sample(_range(inp["lemmas"]), 20)
        checked += _check_witnesses(claims, LEMMA_IDS, a_values, problems)
        for a in rng.sample(_range(inp["descend"]), 200):
            trace = verify.descending_witness(a, ModelId.MS)
            checked += 1
            if trace is None or not (trace.end < a
                                     and actions.validate_trace(trace)):
                problems.append(f"descending witness for A={a} fails")
    else:
        for n in rng.sample(_range(inp["stats"]), 50):
            path = search.trajectory(n)
            x, steps = n, 0
            while x != 1:
                x = 3 * x + 1 if x % 2 else x // 2
                steps += 1
            checked += 1
            if not (path.validate() and len(path) == steps):
                problems.append(f"trajectory of {n} does not replay")
        for cycle in experiments.cycle_census(ModelId.MS, 300):
            checked += 1
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                if y not in {v for _, v in models.successors(x, ModelId.MS)}:
                    problems.append(f"MS cycle {cycle} has no edge {x}->{y}")
    result.update(checked=checked, problems=problems)
    print(canonical(result))


def main(argv):
    mode, workload, inp = argv[0], argv[1], json.loads(argv[2])
    seed = inp["seed"]
    if mode == "run":
        print(canonical(LIBRARY_BODIES[workload](inp)))
    elif mode == "trace":
        trace_pass(workload, inp)
    elif mode == "pool":
        pool_pass(inp)
    elif mode == "check":
        check(workload, inp, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
