"""Print the end-to-end metrics of every workload, by name and with units.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Runs run.py once per workload and shows its human-readable lines (the JSON
result line is left out).  Exits non-zero if any workload fails to run or
reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        if not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
