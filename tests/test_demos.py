"""Every narrative script in ``demos/`` runs to completion.

Each demo runs in its own subprocess with a scratch working directory, so
the files a demo writes (demo 05's report and trace CSVs) land there and
not in the checkout.
"""

import hashlib
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


DEMO_05_STDOUT = """\
acog2: chose eta=1; sum 82.56 +/- 2.25, cost 17.21 +/- 2.80
per-run sums: [84.82, 78.73, 79.9, 82.49, 80.66, 83.4, 84.17, 84.54, 81.63, 85.23]
CSV written to report_acog2.csv

5-fold CV sum: 89.29 (folds: [95.3, 89.8, 88.0, 86.1, 87.3])

final regret 60.6, fitted log-log slope 0.46 (sublinear < 1)
per-round trace written to trace_acog2.csv
"""
# sha256 of demo 05's per-round trace, and of its report without the
# elapsed_ms columns, the only ones that depend on the machine
DEMO_05_TRACE_SHA256 = "2a48dd538fd0b7704419c2e596e12b0fafc5dba75ed2284567c6328b729293c0"
DEMO_05_REPORT_SHA256 = "a53e44f6ac6247fb441b3b043fea60ed6736487c0c3625a70aa54bbe768c1468"


def without_elapsed(csv_text: str) -> str:
    rows = [line.split(",") for line in csv_text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("elapsed_ms")]
    return "".join(",".join(row[i] for i in keep) + "\n" for row in rows)


def test_demo_05_output_is_pinned(tmp_path):
    demo = ROOT / "demos" / "05_benchmark_harness.py"
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=DEMO_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEMO_05_STDOUT
    trace = (tmp_path / "trace_acog2.csv").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == DEMO_05_TRACE_SHA256
    report = without_elapsed((tmp_path / "report_acog2.csv").read_text(encoding="utf-8"))
    assert hashlib.sha256(report.encode()).hexdigest() == DEMO_05_REPORT_SHA256
