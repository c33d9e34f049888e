"""The benchmark's tracer must still find every callable it wraps.

perfbench/tracing.py wraps guidefit functions and methods by name. Deleting
or renaming one of them breaks only `perfbench/run.py --trace 1` and
`perfbench/selftest.py`, neither of which the unit tests run, so this test
installs the tracer in a fresh interpreter (it rebinds module attributes,
which must not leak into this process). It reads perfbench/ and changes
nothing there.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_on_current_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
