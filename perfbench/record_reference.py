"""Record the correctness reference that run.py checks experiments against.

    python3 perfbench/record_reference.py FIRST LAST

For every workload and every seed from FIRST to LAST it runs one untraced
repetition of the current source and stores each experiment's selected eta
and the digest of its CSV's deterministic columns in reference.json, next
to this file.  Run it only on a commit whose outputs are known good: the
reference defines what "correct" means for later commits.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import HERE, check_experiment, run_child
from workloads import WORKLOADS, generate


def main(first: int, last: int) -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    out_root = HERE / ".out"
    out_root.mkdir(exist_ok=True)
    for wl in WORKLOADS.values():
        for seed in range(first, last + 1):
            work = Path(tempfile.mkdtemp(prefix="record-", dir=out_root))
            try:
                data = work / f"{wl.shape.name}.libsvm"
                generate(wl.shape, seed, data)
                rep = run_child(work, wl, seed, data, 0, False, max(os.sched_getaffinity(0)))
                entry = {}
                for exp in rep["experiments"]:
                    problems = check_experiment(exp, wl, seed, rep, None)
                    if problems:
                        print(f"{wl.name} seed {seed} {exp['algo']}: {problems}", file=sys.stderr)
                        return 1
                    entry[exp["algo"]] = {"eta": exp["eta"], "digest": exp["digest"]}
            finally:
                shutil.rmtree(work, ignore_errors=True)
            reference.setdefault(wl.name, {})[str(seed)] = entry
            print(wl.name, seed, entry, flush=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
