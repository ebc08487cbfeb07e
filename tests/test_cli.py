"""End-to-end CLI behaviour: formats, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from collatzlab import cli
from collatzlab.cli import main


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_traj_text_and_verbose():
    code, text = run(["traj", "6"])
    assert code == 0
    assert text.startswith("6 3 10 5 16 8 4 2 1 | steps=8 peak=16")
    code, text = run(["traj", "6", "--verbose"])
    assert code == 0
    assert "10(101)" in text  # decimal alongside base 3


def test_traj_csv():
    code, text = run(["traj", "5", "--format", "csv"])
    assert code == 0
    assert text.splitlines()[:3] == ["step,value", "0,5", "1,16"]


def test_verify_json_and_exit_codes():
    code, text = run(["verify", "--claim", "L.10-11", "--range", "1..50"])
    assert code == 0
    data = json.loads(text)
    assert data["pass"] == 50 and data["fail"] == 0
    assert "wall_ms" not in data
    # a claim with verified findings exits 1
    code, text = run(["verify", "--claim", "T.edge-loop", "--range", "2..10"])
    assert code == 1
    assert json.loads(text)["fail"] > 0


def test_verify_csv_format():
    code, text = run(["verify", "--claim", "L.10-11", "--range", "1..5",
                      "--format", "csv"])
    assert code == 0
    assert text.splitlines() == ["claim_id,model,lo,hi,pass,fail,skipped",
                                 "L.10-11,M1,1,5,5,0,0"]


def test_verify_unknown_claim_is_usage_error():
    code, _ = run(["verify", "--claim", "L.bogus", "--range", "1..5"])
    assert code == 2


def test_verify_timing_flag_adds_wall_ms():
    code, text = run(["verify", "--claim", "L.10-11", "--range", "1..5",
                      "--timing"])
    assert code == 0
    assert "wall_ms" in json.loads(text)


def test_verify_is_deterministic():
    argv = ["verify", "--claim", "T.succ1,L.02-11,T.node-loop",
            "--range", "1..200"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second


def test_serial_verify_builds_the_catalog_once(monkeypatch):
    import functools

    from collatzlab import catalog, verify

    # a fresh cache, so the count starts from an unbuilt registry
    monkeypatch.setattr(verify, "_default_registry",
                        functools.cache(verify._default_registry.__wrapped__))
    build = catalog.build_claims
    calls = []

    def counted():
        calls.append(1)
        return build()

    monkeypatch.setattr(catalog, "build_claims", counted)
    for _ in range(2):
        code, _ = run(["verify", "--claim", "all", "--range", "1..3"])
        assert code in (0, 1)
    assert verify.run_any_claim("L.10-11", range(1, 6)).failed == 0
    assert verify.all_claim_ids()[0] == "T.succ1"
    assert len(calls) == 1


def test_cluster_replay_output_does_not_depend_on_workers():
    # a report's bounds are read off its whole range: the succession dips
    # over all its chunks, and, past k = 6,471, the default cluster cap at
    # the range's last k. x = 0, 1 and 2 each dip to <= 0 under the +2
    # script
    for argv in (["verify", "--claim", "T.cluster-nine,T.cluster-three",
                  "--range", "1..80"],
                 ["verify", "--claim", "T.cluster-nine,T.cluster-three,"
                  "T.succ2", "--range", "6000..7000"],
                 ["verify", "--claim", "T.succ2", "--range", "0..3"]):
        single = run(argv + ["--workers", "1"])
        assert single[0] == 0
        assert run(argv + ["--workers", "2"]) == single, argv
    assert '"nonpositive_intermediate_inputs":3' in single[1]


def test_workers_do_not_reorder_failures_spread_over_chunks(monkeypatch):
    # each report is built from its chunks in range order, so nothing sorts
    # the failures; here they fall in all three chunks of 0..3000
    from collatzlab.verify import CHUNK

    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # a pool on any host
    argv = ["verify", "--claim", "T.descend-ms,T.cluster-five,T.succ2",
            "--range", "0..3000", "--max-value", "4096", "--max-depth", "12"]
    for fmt in ("json", "csv", "text"):
        single = run(argv + ["--format", fmt, "--workers", "1"])
        assert single[0] == 1
        assert run(argv + ["--format", fmt, "--workers", "2"]) == single, fmt
        if fmt == "json":
            descend, cluster, succ = map(json.loads, single[1].splitlines())
    for report, failed in ((descend, 662), (cluster, 21_664)):
        assert report["fail"] == failed
        assert {f["input"] // CHUNK for f in report["failures"]} == {0, 1, 2}
    assert succ["bounds"] == {"nonpositive_intermediate_inputs": 3}


def test_the_pool_has_at_most_one_process_per_cpu_and_per_unit(monkeypatch):
    # a recording executor stands in for the pool, so no process starts
    import concurrent.futures

    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    argv = ["verify", "--claim", "L.10-11,T.succ1", "--range", "1..3000"]
    serial = run(argv)  # 2 claims of 3 chunks each: 6 units
    for cpus, workers, pool in ((3, "5000", [3]), (64, "5000", [6]),
                                (64, "4", [4]), (None, "5000", []),
                                (64, "1", [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert run(argv + ["--workers", workers]) == serial
        assert sizes == pool, (cpus, workers)
    monkeypatch.setenv("COLLATZLAB_WORKERS", "5000")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sizes.clear()
    assert run(argv) == serial and sizes == [3]


def test_reach():
    code, text = run(["reach", "--model", "ms", "--from", "7", "--to", "1"])
    assert code == 0
    assert text.strip() == "7 -F-> 2 -B-> 1"
    code, text = run(["reach", "--model", "ms", "--from", "2", "--to", "7"])
    assert code == 1
    assert "unreachable" in text


def test_cycles():
    code, text = run(["cycles", "--model", "m0", "--max", "1000"])
    assert code == 0
    assert text == "1 4 2\n"


def test_stats():
    code, text = run(["stats", "--range", "27..27"])
    assert code == 0
    assert text.splitlines() == ["n,steps,peak", "27,111,9232"]


# SHA-256 of the output, recorded before stopping_stats was memoised and
# before the phase-3 check stopped building bounded graphs.
GOLDEN_OUTPUTS = [
    (["stats", "--range", "1..20000"], 0,
     "46b901fdb07f5cf83966bb2cdafa50ad5e594fb689870887d207c0746979694d"),
    (["stats", "--range", "500..3000", "--max-depth", "100"], 1,
     "d852d69103aec0ad8a55adc7a1b9eae7be91085371f0d1f99de968cd34e9c4a5"),
    (["deloop", "--max", "100000"], 1,
     "87b927038e91568d05b6e950acadabd4b293618316b37e312baa14e65f0ddc91"),
    # The headline catalog run, as bench/reference.json records it; it
    # exits 1 because T.edge-loop's directed reading fails by design.
    (["verify", "--claim", "all", "--range", "1..1000"], 1,
     "c2295f22205238f484580c5acd4f559823de97ffa241be39bdffd7682ec1ae0c"),
    # Recorded while to_ternary still returned a digit-tuple value class,
    # and while _reaches_known still walked M0 before its BFS; at headroom
    # 2 the BFS decides nodes whose walk leaves the cap.
    (["traj", "27", "--verbose"], 0,
     "949a214bc6dae4db16969977a07d63ef52053d0be960f25d569001e3c505ed47"),
    (["deloop", "--max", "300", "--headroom", "2"], 1,
     "980011f6442cb4b32f972c7e2ba5df3827a10e15563249842268e74c1ad4a914"),
    # Recorded while the BFS kernel still took forbidden_edges, M2 graph
    # mode stepped through its own successors branch, and descending_witness
    # halved an even A before trying F; the capped run takes the shortcuts'
    # cap checks and the BFS fallback.
    (["dot", "--model", "ms", "--max", "50"], 0,
     "5cd28fc8783c9bc76f9dc0ae3e5549a98d7755d81397a021c8b03f65e906ef15"),
    (["reach", "--model", "m2", "--from", "7", "--to", "1"], 0,
     "e4b135fa18f21efab2565727eebd1e1af911c93e7a127db8f7fd096c7543bd3e"),
    (["verify", "--claim", "T.descend-ms,L.descend-m1,T.edge-loop",
      "--range", "1..3000"], 1,
     "5ece9a18fd5e315b060d0ebf861a547409292aceb3e977090c7dbe766794a015"),
    (["verify", "--claim", "T.descend-ms,L.descend-m1", "--range", "2..400",
      "--max-value", "50", "--max-depth", "5"], 1,
     "b87b932e99c9d1276d31ef23960d1e3c17b4d29a9cc774a57e1aa4041ee1706d"),
    # Recorded while the MS/M1 census still went through networkx's
    # simple_cycles and the M0 census coloured every node 1..max.
    (["cycles", "--model", "ms", "--max", "10000"], 0,
     "308b4a7ac70cf548085e0a63da8444f0fb36470062c98d3e11ce12fb40e46031"),
    (["cycles", "--model", "m1", "--max", "60"], 0,
     "66193204c980b2b6ad2377bfc731b6079dc4f84d639c73c6fb73e587b74bc70f"),
    (["cycles", "--model", "m0", "--max", "100000"], 0,
     "b3be4c416109f16be5ab2a5a3c7d4be46c7e41b2ea5fb307f97afa2d5d478e41"),
    # Recorded while the phase-3 check still compared MS minus E1 and E4
    # with M0 node by node; at headroom 1 the value cap is the node bound.
    (["deloop", "--max", "1000", "--headroom", "1"], 1,
     "cafff374a25fef0b709d2d621676531001a549a02cdb901164324372759945b2"),
    # Recorded while bfs and each direction of the bidirectional search
    # still had their own expansion loop; the last cluster run fails on
    # unreachable-within-bounds under the 2^20 cap.
    (["reach", "--model", "ms", "--from", "2", "--to", "7"], 1,
     "da6d7a79a6d4084ef5902a623286e3a47cb905967ab514f1643cbf2d9a4588cc"),
    (["reach", "--model", "m1", "--from", "1", "--to", "1000000",
      "--max-value", "10000000", "--max-depth", "3"], 1,
     "3d42568d581c3a493466aa40e187d2e4617a5b9fe40982c9badc9374a7ca41a4"),
    (["reach", "--model", "m1", "--from", "1108", "--to", "1111"], 0,
     "252ce0feefdc427e5f20942d3df069c8b43bd72f7a393a78f5b5ce1f61d147a0"),
    (["cluster", "--kind", "nine", "--k", "1..300"], 0,
     "051c4b2905809b839e37c6ae28b62c54e4566021e88029bcefad5a2c9e1fd032"),
    (["cluster", "--kind", "five", "--k", "9700..9730"], 0,
     "ba61940785b7745c3b75cae4dab2a672276f735eb3bcc5471a90566c563f6619"),
    # Under the cap 2^20, the default before it grew with k, the five
    # cluster fails pairs from k = 9,724 on.
    (["cluster", "--kind", "five", "--k", "9700..9730",
      "--value-bound", "1048576"], 1,
     "3937237515cf30bc959fec3eae77632275dbbc438649c9b83bb683fbf4a3688d"),
    # Recorded while trajectory still had its own 3x+1 loop, verify had its
    # own parity-to-letter table and the catalog split A's class in three
    # places. The 951-line trajectory peaks near 10^12; at depth 110, 27
    # misses 1 and stdout stays empty; under cap 2 every A > 2 is above it.
    (["traj", "63728127", "--format", "csv"], 0,
     "3ccb2e38e9c526fb3b1ad7e3da3a80ab5da30343dd4351810cb7eb90ba409054"),
    (["traj", "27", "--max-depth", "111"], 0,
     "6df6c44c52cca3cf3cfb0e276032ae06da094d31a751e67e0d8764e67cb11547"),
    (["traj", "27", "--max-depth", "110"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["verify", "--claim", "T.descend-ms,L.descend-m1", "--range", "2..12",
      "--max-value", "2"], 1,
     "3b83109edec720f08a33223d764f94b051166a3d62c9d2a3c16ff5f69c1963f7"),
    (["verify", "--claim", "T.a-11,L.21-11.last1,L.11-22.last0",
      "--range", "1..3000"], 0,
     "7e72123523882efdeadc895e72dfcf66eef73992456bc19b58059a9052e8beb8"),
    # Recorded while `cluster` still built its own bounds and ran, emitted
    # and scored its claim apart from `verify`. Under cap 4096 the nine
    # cluster fails 100 pairs; the text lists the first 10 (11 lines).
    (["cluster", "--kind", "nine", "--k", "1..120", "--value-bound", "4096",
      "--format", "text"], 1,
     "35d27238e8d51cc997b29e101f5fcb543c6270bd733ee481c46c2089bd01b684"),
    (["cluster", "--kind", "five", "--k", "9700..9730", "--format", "csv"], 0,
     "940bcd24fb250413119b7fcf5187e6100164832551ecfe21b722e043fe30c494"),
    (["cluster", "--kind", "five", "--k", "9700..9730", "--format", "csv",
      "--value-bound", "1048576"], 1,
     "9b828376c30610ba7dbf2f1a4a85b318ae97f2a78a816cf50db3f2be4cb45851"),
    (["cluster", "--kind", "three", "--k", "1..200", "--format", "text"], 0,
     "0993b669c3830512a45ca1bb53eef374194d864b85765056a8c4be154a7970a0"),
    # Recorded before the cluster checks replayed a proved script table.
    # Around k = 6,473 some nine-cluster table scripts leave the 2^20 cap,
    # the default before it grew with k; under cap 2^14 and depth 20 the
    # five cluster fails 128 pairs from k = 156 on. In both, table rows and
    # searches interleave. At the default cap the table decides every pair.
    (["cluster", "--kind", "nine", "--k", "6460..6490"], 0,
     "dd6ca0c8b3dda661549b4d154726f1f2ced35efe3ca32230b8070bf433441918"),
    (["cluster", "--kind", "nine", "--k", "6460..6490",
      "--value-bound", "1048576"], 0,
     "5241e71b982a4b462308687914bc040082a4aad55cf66fdc3947042eb955f7ab"),
    (["verify", "--claim", "T.cluster-five", "--range", "1..400",
      "--max-value", "16384", "--max-depth", "20"], 1,
     "7908c097e2ff36d7612765cad892e554ae872b31f63a6dc96e530fc25520417d"),
]


def test_graph_outputs_match_the_recorded_golden_digests():
    for argv, exit_code, digest in GOLDEN_OUTPUTS:
        code, text = run(argv)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, argv
        assert code == exit_code, argv


def test_stats_depth_hit_is_a_finding():
    code, text = run(["stats", "--range", "27..27", "--max-depth", "110"])
    assert code == 1
    assert text.splitlines() == ["n,steps,peak", "27,-1,-1"]


def test_stats_rejects_zero_before_printing_anything(capsys):
    code, text = run(["stats", "--range", "0..3"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == \
        "error: positive integer required, got 0\n"


def test_stats_single_row_ranges():
    for argv, code, rows in (
            (["--range", "1..1"], 0, ["1,0,1"]),
            (["--range", "7..7"], 0, ["7,16,52"]),
            (["--range", "27..27", "--max-depth", "111"], 0, ["27,111,9232"]),
            (["--range", "27..27", "--max-depth", "1"], 1, ["27,-1,-1"])):
        assert run(["stats", *argv]) == (
            code, "\n".join(["n,steps,peak", *rows, ""])), argv


def test_a_depth_hit_in_the_last_rows_is_a_finding():
    # 6,171 needs 261 steps; every smaller n needs at most 237.
    code, text = run(["stats", "--range", "1..6171", "--max-depth", "260"])
    lines = text.splitlines()
    assert code == 1
    assert len(lines) == 6172 and lines[-1] == "6171,-1,-1"
    assert sum("-" in line for line in lines) == 1
    code, text = run(["stats", "--range", "1..6171", "--max-depth", "261"])
    assert code == 0 and text.endswith("\n6171,261,975400\n")


class CountingSink:
    """An output stream that keeps each write apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def test_stats_and_dot_write_blocks_that_join_to_the_whole_text():
    from collatzlab.actions import ModelId
    from collatzlab.models import bounded_graph, to_dot
    from collatzlab.search import stats_csv

    # One write of the whole text was 3.39 MB at 2 * 10^5 rows.
    for argv, whole in (
            (["stats", "--range", "1..200000"], stats_csv(range(1, 200001))),
            (["dot", "--model", "ms", "--max", "5000"],
             to_dot(bounded_graph(ModelId.MS, 5000)))):
        sink = CountingSink()
        assert main(argv, out=sink) == 0
        assert "".join(sink.writes) == whole, argv
        lines = [w.count("\n") for w in sink.writes]
        assert len(lines) > 2 and max(lines) <= cli.BLOCK_LINES + 1, argv
        assert max(map(len, sink.writes)) < 200_000, argv


def test_m0_reach_is_decided_by_the_trajectory(monkeypatch):
    from collatzlab import search

    # The walk from 27 needs 111 steps, more than the default depth 64; it
    # never passes 3.
    _, long_path = run(["reach", "--model", "m0", "--from", "27", "--to", "1",
                        "--max-depth", "200"])
    assert run(["reach", "--model", "m0", "--from", "27", "--to", "1"]) == (
        0, long_path)
    code, text = run(["reach", "--model", "m0", "--from", "27", "--to", "5"])
    assert code == 0 and long_path.startswith(text[:-1] + " -T-> 16 ")
    assert run(["reach", "--model", "m0", "--from", "27", "--to", "3"]) == (
        1, "unreachable-within-bounds: 27 => 3 under M0\n")
    # With a bound of the user's, the search alone decides.
    for bound in (["--max-depth", "64"], ["--max-value", "10000000"]):
        assert run(["reach", "--model", "m0", "--from", "27", "--to", "1",
                    *bound]) == (1, "budget-exceeded: 27 => 1 under M0\n")
    assert run(["reach", "--model", "m0", "--from", "27", "--to", "1",
                "--max-value", "9231", "--max-depth", "200"]) == (
        1, "unreachable-within-bounds: 27 => 1 under M0\n")

    def too_deep(n, max_depth):
        raise cli.DepthExceeded(n, max_depth)

    monkeypatch.setattr(search, "trajectory", too_deep)
    assert run(["reach", "--model", "m0", "--from", "27", "--to", "1"]) == (
        1, "budget-exceeded: 27 => 1 under M0\n")


def test_dot():
    code, text = run(["dot", "--model", "ms", "--max", "8"])
    assert code == 0
    assert text.startswith("digraph collatz {")
    assert '4 -> 1 [label="F", color="red"];' in text


def test_deloop():
    code, text = run(["deloop", "--max", "100"])
    assert code == 0
    data = json.loads(text)
    assert data["phase3_matches_m0"] is True
    assert "wall_ms" not in data


def test_cluster():
    code, text = run(["cluster", "--kind", "five", "--k", "1..5"])
    assert code == 0
    assert json.loads(text)["fail"] == 0


def test_cluster_prints_what_verify_prints_for_its_claim():
    for kind, window, bound, fmt in itertools.product(
            ("five", "three", "nine"), ("1..12", "110..116"),
            (None, "300", "4096"), ("json", "csv", "text")):
        cluster = run(["cluster", "--kind", kind, "--k", window,
                       "--format", fmt]
                      + (["--value-bound", bound] if bound else []))
        verify = run(["verify", "--claim", f"T.cluster-{kind}",
                      "--range", window, "--format", fmt]
                     + (["--max-value", bound] if bound else []))
        assert cluster == verify, (kind, window, bound, fmt)


def test_cluster_default_cap_equals_the_explicit_2_pow_20(monkeypatch):
    from collatzlab.verify import CLUSTER_MEMBERS, run_any_claim
    from test_verify import _count_searches

    argv = ["cluster", "--kind", "five", "--k", "1..300"]
    default = run(argv)
    assert default == run(argv + ["--value-bound", str(2**20)])
    assert hashlib.sha256(default[1].encode()).hexdigest().startswith(
        "7d5b50a6641e86a6")
    # the default cap, max(2^20, 18 * (9k + 8)), is 2^20 up to k = 6,471;
    # the report shows the cap at the range's last k
    argv = ["cluster", "--kind", "five", "--k", "6400..6471"]
    assert run(argv) == run(argv + ["--value-bound", str(2**20)])
    code, text = run(["cluster", "--kind", "five", "--k", "6400..6472"])
    assert (code, json.loads(text)["bounds"]["max_value"]) == (0, 1_048_608)
    # under it the proved table decides every pair, with no search
    calls = _count_searches(monkeypatch)
    for kind in CLUSTER_MEMBERS:
        report = run_any_claim(f"T.cluster-{kind}", range(1, 100_001))
        assert (report.passed, report.failed) == (100_000, 0), kind
    assert calls == []


def test_bad_usage():
    code, _ = run(["verify", "--range", "10..2"])
    assert code == 2
    code, _ = run(["traj", "-3"])
    assert code == 2
    code, _ = run(["nope"])
    assert code == 2


def test_traj_depth_budget_is_a_finding_not_a_traceback(capsys):
    code, text = run(["traj", "27", "--max-depth", "5"])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err == "error: 27 did not reach 1 within 5 steps\n"


def test_workers_env_must_be_a_positive_integer(monkeypatch, capsys):
    argv = ["verify", "--claim", "L.10-11", "--range", "1..5"]
    for bad in ("abc", "0"):
        monkeypatch.setenv("COLLATZLAB_WORKERS", bad)
        code, text = run(argv)
        assert code == 2, bad
        assert text == ""
        assert "positive integer required" in capsys.readouterr().err
    monkeypatch.setenv("COLLATZLAB_WORKERS", "2")
    assert run(argv)[0] == 0


def test_verify_max_depth_needs_max_value(capsys):
    code, text = run(["verify", "--claim", "L.10-11", "--range", "1..5",
                      "--max-depth", "3"])
    assert code == 2
    assert text == ""
    assert "--max-depth needs --max-value" in capsys.readouterr().err
    # --max-value alone keeps the old depth default of 64
    code, text = run(["verify", "--claim", "L.descend-m1", "--range", "2..3",
                      "--max-value", "1000"])
    assert code == 0
    assert json.loads(text)["bounds"] == {"max_value": 1000, "max_depth": 64,
                                          "max_states": 1_000_000}


def test_verify_cluster_honours_max_depth():
    code, text = run(["verify", "--claim", "T.cluster-five", "--range", "1..3",
                      "--max-value", "1048576", "--max-depth", "1"])
    data = json.loads(text)
    assert data["bounds"] == {"max_value": 1048576, "max_depth": 1}
    # one search layer cannot join 9k+r to the hub 9k+4
    assert code == 1 and data["pass"] == 0


def test_catalog_claims_run_no_search_so_print_no_bounds():
    # T.node-loop's odd-A hop is a script now: a value cap of 5 used to
    # fail A = 3 on the search segment 5 => 1
    code, text = run(["verify", "--claim", "T.node-loop", "--range", "1..3",
                      "--max-value", "5"])
    assert code == 0
    assert '"bounds":{}' in text and '"pass":3' in text
    code, text = run(["verify", "--claim", "L.10-11", "--range", "1..5",
                      "--max-value", "1000"])
    assert code == 0
    assert '"bounds":{}' in text


def test_reach_failure_uses_the_shared_tag():
    code, text = run(["reach", "--model", "ms", "--from", "2", "--to", "7"])
    assert code == 1
    assert text == "unreachable-within-bounds: 2 => 7 under MS\n"


def test_search_bounds_from_args():
    from argparse import Namespace

    from collatzlab.cli import _search_bounds
    assert _search_bounds(Namespace(max_value=None, max_depth=7)) is None
    bounds = _search_bounds(Namespace(max_value=50, max_depth=7))
    assert (bounds.max_value, bounds.max_depth) == (50, 7)


def test_graph_commands_reject_the_rational_model(capsys):
    for command in ("cycles", "dot"):
        code, text = run([command, "--model", "m2", "--max", "6"])
        assert code == 2, command
        assert text == ""
        assert capsys.readouterr().err.startswith("error: ")
    # reach searches M2 without materializing a graph, so it still works
    assert run(["reach", "--model", "m2", "--from", "2", "--to", "7"]) \
        == (0, "2 -T-> 7\n")


def test_verify_empty_claim_list_is_usage_error(capsys):
    for spec in (",", "", " , "):
        code, text = run(["verify", "--claim", spec, "--range", "1..5"])
        assert code == 2, spec
        assert text == ""
        assert "error: no claim id" in capsys.readouterr().err


# Small argvs for every subcommand, valid and invalid alike.
_NUM = st.sampled_from(["0", "1", "2", "3", "5", "9", "20", "-1", "x", ""])
_RANGE = st.one_of(
    st.builds("{}..{}".format, st.integers(0, 6), st.integers(0, 6)),
    st.sampled_from(["", "3", "1..", "a..b"]))
_MODEL = st.sampled_from(["m0", "ms", "m1", "m2", "mx"])
_CLAIM = st.sampled_from(["all", ",", "", "L.10-11", "T.succ1,T.edge-loop",
                          "T.cluster-five", "T.descend-ms", "bogus"])


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_ARGVS = st.one_of(
    _argv(st.just(["traj"]), _NUM.map(lambda n: [n]),
          _opt("--format", st.sampled_from(["text", "csv", "xml"])),
          _opt("--max-depth", _NUM)),
    _argv(st.just(["verify"]), _opt("--claim", _CLAIM), _opt("--range", _RANGE),
          _opt("--format", st.sampled_from(["json", "csv", "text"])),
          _opt("--max-value", _NUM), _opt("--max-depth", _NUM)),
    _argv(st.just(["reach"]), _opt("--model", _MODEL), _opt("--from", _NUM),
          _opt("--to", _NUM), _opt("--max-value", _NUM),
          st.sampled_from(["1", "4", "6", "0"]).map(
              lambda d: ["--max-depth", d])),
    _argv(st.just(["cluster"]),
          _opt("--kind", st.sampled_from(["five", "three", "nine", "two"])),
          _opt("--k", _RANGE), _opt("--value-bound", _NUM)),
    _argv(st.just(["deloop"]), _opt("--max", _NUM), _opt("--headroom", _NUM)),
    _argv(st.just(["cycles"]), _opt("--model", _MODEL), _opt("--max", _NUM)),
    _argv(st.just(["stats"]), _opt("--range", _RANGE),
          _opt("--max-depth", _NUM)),
    _argv(st.just(["dot"]), _opt("--model", _MODEL), _opt("--max", _NUM)),
)


@settings(max_examples=150, deadline=None)
@given(_ARGVS)
def test_cli_fuzz_exits_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if "--claim" in argv and not argv[argv.index("--claim") + 1].strip(" ,"):
        assert code == 2, argv  # an empty claim list is a usage error


def test_a_reader_that_closes_the_pipe_early_gets_no_traceback():
    # The read end is closed before the command starts, so its first write
    # fails, as under `collatzlab cycles --model ms --max 10000 | head -1`
    # once head has gone.
    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "collatzlab.cli", "cycles", "--model",
             "ms", "--max", "10000"], stdout=write_end, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
