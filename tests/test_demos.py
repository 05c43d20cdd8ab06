"""Every narrative script in ``demos/`` runs to completion.

Each demo runs in its own subprocess with a scratch working directory, so
the files a demo writes (demo 05's report and trace CSVs) land there and
not in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the demo subprocess imports this checkout's package, installed or not
DEMO_ENV = {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a warning fails the demo, as it fails any test in this process
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=DEMO_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
