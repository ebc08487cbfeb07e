"""Record the output digests that bench/run.py compares each pass against.

    python3 bench/record_reference.py

Runs one pass of every workload for seeds 0..11, checks it as run.py does,
and writes bench/reference.json. Record again only when a change is meant to
alter the library's output.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


SEEDS = range(12)


def main() -> int:
    env = run.child_env()
    refs = {}
    for seed in SEEDS:
        for workload in run.WORKLOADS:
            inp = run.make_inputs(workload, seed)
            key = run.reference_key(workload, inp)
            if key in refs:
                continue
            proc = run.Proc(run.pass_command(workload, inp), env)
            problems = run.check_pass(workload, inp, proc)
            if problems:
                print(f"{workload} seed {seed}: {problems[:3]}",
                      file=sys.stderr)
                return 1
            refs[key] = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{workload} seed {seed}: {proc.wall_s:.2f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
