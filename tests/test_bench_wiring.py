"""The benchmark's tracer can still wrap every library function it counts.

bench/tracer.py replaces functions by module attribute; renaming or
unbinding one of them makes `bench/run.py --trace 1` fail. These tests run
the tracer against the library in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_against_the_library():
    code = ("import sys; sys.path.insert(0, 'bench'); import tracer; "
            "tracer.install(tracer.Tracer())")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_tracer_sees_cluster_replays_and_searches():
    # fallback searches go through verify.bfs_reach_bidirectional, the
    # attribute the tracer wraps; under cap 4096 and depth 12 most proved
    # table rows miss, so it searches. The rows are decided on their affine
    # forms, with no replay through verify.apply_seq
    code = ("import sys, json; sys.path.insert(0, 'bench'); import tracer; "
            "tr = tracer.Tracer(); tracer.install(tr); "
            "from collatzlab import search, verify; "
            "verify.run_any_claim('T.cluster-five', range(1, 40), "
            "search.SearchBounds(max_value=4096, max_depth=12)); "
            "print(json.dumps(dict(tr.count)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count = json.loads(proc.stdout)
    assert count.get("actions.apply_seq", 0) == 0
    assert 1 <= count["search.bidir.calls"] < 8 * 39


def test_tracer_counts_a_11_steps_and_no_node_loop_searches():
    # T.a-11 and T.node-loop walk their rows a chunk of A at a time, on
    # affine forms: T.a-11 replays no step through verify.apply_seq, which
    # the tracer counts, and T.node-loop runs no search
    code = ("import sys, json; sys.path.insert(0, 'bench'); import tracer; "
            "tr = tracer.Tracer(); tracer.install(tr); "
            "from collatzlab import verify; "
            "verify.run_any_claim('T.node-loop', range(1, 200)); "
            "searches = tr.count.get('search.bidir.calls', 0); "
            "tr.count.clear(); "
            "report = verify.run_any_claim('T.a-11', range(1, 200)); "
            "print(json.dumps({'searches': searches, "
            "'passed': report.passed, "
            "'steps': tracer.layer_metrics(tr)['actions.steps_applied']}))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"searches": 0, "passed": 199,
                                       "steps": 0}


def run_child(mode, workload, inputs):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "bench/child.py", mode, workload, json.dumps(inputs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_benchmark_witness_check_agrees_with_the_catalog():
    # bench/child.py check replays each inverse lemma as its forward witness
    # run backward, found through Claim.inverse_of, and compares the end
    # with the inverse claim's expected value
    for workload, inputs in (
            ("exact-arith", {"lemmas": [1, 10000], "descend": [2, 100000],
                             "seed": 0}),
            ("verify-catalog", {"range": [1, 1000], "seed": 0})):
        out = run_child("check", workload, inputs)
        assert out["checked"] > 0, workload
        assert out["problems"] == [], workload


def test_benchmark_exact_arith_pass_checks_inverses_and_ternary():
    # bench/child.py renders each value with str(to_ternary(n)) and reads it
    # back with from_ternary against its own base-3 oracle
    out = run_child("run", "exact-arith", {
        "succession": [1, 20], "lemmas": [1, 20], "descend": [2, 50],
        "c8_seed": 0, "c8_inverse": 200, "c8_ternary": 2000, "seed": 0})
    assert out["c8"] == {"inverse_bad": [], "ternary_bad": []}
    assert out["descend"]["fail"] == 0


def test_benchmark_graph_experiments_check_replays_cleanly():
    out = run_child("check", "graph-experiments",
                    {"stats": [1, 2000], "seed": 0})
    assert out["checked"] > 0
    assert out["problems"] == []


def test_tracer_times_the_graph_experiments_layers():
    # bench/tracer.py times deloop, the census and bounded_graph through
    # the library's module attributes
    out = run_child("trace", "graph-experiments", {
        "reach_one": 1000, "census_m0": 1000, "deloop": [100, 300],
        "headroom": 2, "census_ms": 100, "nesting": [1, 100],
        "stats": [1, 100], "edge_loop": [1, 40], "seed": 0})
    assert out["rc"] == 0
    for name in ("experiments.deloop_s", "experiments.census_s.MS",
                 "models.bounded_graph_s"):
        assert out["metrics"][name] > 0, name


def test_building_the_claims_leaves_the_sieve_and_row_indexes_unbuilt():
    # every workload's setup imports the library and builds the claims; the
    # descent sieve and each claim's row index are built on first use, so
    # neither adds to setup_s
    code = ("import collatzlab; from collatzlab import search; "
            "from collatzlab.catalog import CLUSTER_TABLE; "
            "claims = [*collatzlab.build_claims().values(), "
            "*CLUSTER_TABLE.values()]; "
            "print(search._sieve.cache_info().currsize, "
            "sum('_index' in vars(claim) for claim in claims))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def _fresh(*args):
    """A fresh interpreter run with the library's source on its path."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_building_the_claims_imports_only_the_catalog_and_what_it_needs():
    # setup_s times a fresh `import collatzlab; collatzlab.build_claims()`:
    # the package loads each export on first access, no module imports
    # dataclasses (and the inspect it pulls in), and fractions (and its
    # decimal) loads only once a Fraction is built
    proc = _fresh("-c", "import sys; before = set(sys.modules); "
                        "import collatzlab; collatzlab.build_claims(); "
                        "print(*sorted(set(sys.modules) - before))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}
    assert {name for name in loaded if name.startswith("collatzlab")} == {
        "collatzlab", "collatzlab.actions", "collatzlab.catalog",
        "collatzlab.errors", "collatzlab.ternary"}


def _imported(stderr):
    """Every module name a ``-X importtime`` run reports."""
    return {line.rpartition("|")[2].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


def test_the_headline_run_imports_no_dataclasses_inspect_or_fractions():
    # beyond what a bare interpreter imports on this host at start-up
    bare = _fresh("-X", "importtime", "-c", "pass")
    proc = _fresh("-X", "importtime", "-m", "collatzlab.cli", "verify",
                  "--claim", "all", "--range", "1..1000")
    assert proc.returncode == 1, proc.stderr   # T.edge-loop's failures
    loaded = _imported(proc.stderr) - _imported(bare.stderr)
    assert "collatzlab.verify" in loaded   # the cli itself runs as __main__
    assert not loaded & {"dataclasses", "inspect", "fractions"}
