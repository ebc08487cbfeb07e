"""The benchmark's tracer can still wrap every library function it counts.

bench/tracer.py replaces functions by module attribute; renaming or
unbinding one of them makes `bench/run.py --trace 1` fail. This test runs
the tracer's install step against the library in a fresh interpreter.
"""

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
