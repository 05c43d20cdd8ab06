"""Speed probe: fixed reference work pinned to the core a repetition runs on.

    python3 perfbench/probe.py CPU OUT.json

The core's speed changes by tens of percent from second to second when other
machines' work shares the physical core, so a repetition's own time is
mostly a measure of its neighbours.  The probe shares the core with the
repetition (the scheduler time-slices the two every few milliseconds), so
both see the same slow and fast stretches.  It runs chunks of fixed work
until SIGTERM and then writes one ``[monotonic end, CPU seconds]`` pair per
chunk to OUT.json; run.py divides a repetition's CPU time by the probe's
CPU time per chunk over the same interval.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import numpy as np

CHUNK_ITERS = 1000


def chunk(w: np.ndarray, idx: np.ndarray, v: np.ndarray) -> float:
    """Interpreter work around small fancy-indexed numpy calls, the shape of
    a learner's round.  Sharing a core with the workloads, it slows by the
    same factor as they do to within about 15%, closer than a blend that adds
    matrix products, large copies and factorizations."""
    acc = 0.0
    for _ in range(CHUNK_ITERS):
        acc += float(w[idx] @ v)
        w[idx] -= 1e-12 * v
    return acc


def main(cpu: int, out_path: str) -> int:
    os.sched_setaffinity(0, {cpu})
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    w = np.zeros(64)
    idx = np.arange(0, 64, 5)
    v = np.ones(idx.size)
    chunk(w, idx, v)  # warm up before the first timed chunk
    print("ready", flush=True)
    records = []
    while not stop:
        c0 = time.process_time()
        chunk(w, idx, v)
        records.append((time.monotonic(), time.process_time() - c0))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), sys.argv[2]))
