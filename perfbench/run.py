"""The costsense benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It generates the workload's LIBSVM
file from the seed, then repeats the workload in fresh child processes (each
one ``load_dataset`` followed by every ``run_experiment``/``run_cv`` through
to its CSV) until S seconds have passed, with at least three repetitions.
Every experiment's CSV is checked: invariants that hold for any seed, and
the selected eta plus every deterministic column against the reference in
``reference.json`` where it holds the seed.  End-to-end metrics are medians
over repetitions; with ``--trace 1`` untraced and traced repetitions
alternate, and the per-layer metrics come from the traced ones.

Times are paced: each repetition runs pinned to a core that it shares with
the speed probe (probe.py), and its CPU seconds are multiplied by
REF_CHUNK_S over the probe's mean CPU seconds per chunk in the same
interval.  That is the time the work takes on an uncontended core of the
reference machine.  On the shared 2-core VM the bounds were set on, raw
times of identical repetitions vary by up to 1.7x as other tenants load the
physical core; paced ones vary by 1.5-3%.  Paced times count CPU work only,
not time the program spends blocked.  Raw wall and CPU medians are printed
beside them.  ``setup_s`` is the median over repetitions of the median of
each child's paced loads.

Human-readable lines come first; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (shape,
environment, every repetition, raw spans of the last traced repetition) go to
``perfbench/.out/``.  BLAS is pinned to one thread in this process and its
children.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import ctypes
import glob
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracing import tail_percentile
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
CHILD_TIMEOUT_S = 100
# CPU seconds of one probe chunk on an uncontended core of the machine the
# bounds were set on (2-core x86_64 VM, Python 3.11, numpy 2.4)
REF_CHUNK_S = 0.0025
MIN_CHUNKS = 8
# ExperimentConfig defaults the workloads keep
ALPHA_P, ALPHA_N, C_P, C_N = 0.5, 0.5, 0.9, 0.1
ELAPSED_COLUMNS = ("elapsed_ms", "elapsed_ms_std")


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing source, bad arguments, child crash)."""


# ---- environment ------------------------------------------------------------

def _openblas() -> tuple[str, int | None]:
    """OpenBLAS configuration string and thread count, from numpy's bundled
    library when it can be found; the build record otherwise."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                except AttributeError:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), int(get_threads())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(), None


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "costsense").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    config, threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": config,
        "blas_threads": threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(ROOT),
        "src_sha256": _src_digest(ROOT),
    }


# ---- correctness ------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def check_csv(path: str, wl, seed: int, t_pos: int, t_neg: int) -> tuple[str, list]:
    """Digest of the CSV's deterministic columns, and every invariant it breaks."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    keep = [i for i, name in enumerate(header) if name not in ELAPSED_COLUMNS]
    canon = "\n".join(",".join(line.split(",")[i] for i in keep) for line in lines)
    digest = hashlib.sha256(canon.encode()).hexdigest()[:16]

    problems = []
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    runs, agg = rows[:-1], rows[-1]
    expected = wl.folds if wl.mode == "cv" else wl.permutations
    if len(runs) != expected or agg.get("run_id") != "aggregate":
        return digest, [f"{len(runs)} run rows, expected {expected} plus an aggregate row"]
    eta = float(agg["eta"])
    if eta not in wl.eta_grid:
        problems.append(f"eta {eta} not in the grid")
    for i, r in enumerate(runs):
        f = {k: float(v) for k, v in r.items() if k != "run_id" and v != ""}
        mp, mn = f["mistakes_pos"], f["mistakes_neg"]
        if int(r["seed"]) != seed + i or f["eta"] != eta:
            problems.append(f"row {i}: seed {r['seed']} / eta {r['eta']} out of sequence")
        if mp < 0 or mn < 0 or mp != int(mp) or mn != int(mn):
            problems.append(f"row {i}: bad mistake counts {mp}, {mn}")
        if not _close(f["sum"], ALPHA_P * f["sensitivity"] + ALPHA_N * f["specificity"]):
            problems.append(f"row {i}: sum disagrees with sensitivity/specificity")
        if not _close(f["cost"], C_P * mp + C_N * mn):
            problems.append(f"row {i}: cost disagrees with the mistake counts")
        if wl.mode != "cv" and not (
            _close(f["sensitivity"], 100.0 * (t_pos - mp) / t_pos)
            and _close(f["specificity"], 100.0 * (t_neg - mn) / t_neg)
        ):
            problems.append(f"row {i}: sensitivity/specificity disagree with the class counts")
    for col in ("sum", "cost", "mistakes_pos", "mistakes_neg"):
        mean = float(np.mean([float(r[col]) for r in runs]))
        if not _close(float(agg[col]), mean):
            problems.append(f"aggregate {col} {agg[col]} is not the mean {mean!r}")
    return digest, problems


def load_reference() -> dict:
    path = HERE / "reference.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_experiment(exp: dict, wl, seed: int, rep: dict, expected: dict | None) -> list:
    """Every reason this experiment counts as failed (an empty list if none)."""
    if exp["error"]:
        return ["raised:\n" + exp["error"]]
    if not os.path.isfile(exp["csv"]):
        return ["no CSV written"]
    try:
        digest, problems = check_csv(exp["csv"], wl, seed, rep["t_pos"], rep["t_neg"])
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable CSV: {exc!r}"]
    exp["digest"] = digest
    if expected is not None:
        if exp["eta"] != expected["eta"]:
            problems.append(f"selected eta {exp['eta']!r}, expected {expected['eta']!r}")
        if digest != expected["digest"]:
            problems.append(f"CSV digest {digest}, expected {expected['digest']}")
    return problems


# ---- repetitions --------------------------------------------------------------

class Probe:
    """The speed probe running on ``cpu`` for the life of a ``with`` block;
    ``pace()`` afterwards reads what it measured."""

    def __init__(self, cpu: int, path: Path):
        self.cpu, self.path = cpu, path

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(self.cpu), str(self.path)],
            stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise BenchmarkError("speed probe did not start")
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise
        finally:
            self.proc.stdout.close()

    def pace(self) -> "Pace":
        if self.proc.returncode != 0:
            raise BenchmarkError(f"speed probe exited {self.proc.returncode}")
        return Pace(json.loads(self.path.read_text()))


class Pace:
    """Converts CPU seconds measured beside the probe into seconds on an
    uncontended reference core."""

    def __init__(self, records: list):
        if not records:
            raise BenchmarkError("speed probe recorded no chunks")
        self.ends = [end for end, _ in records]
        self.cpus = [cpu for _, cpu in records]

    def chunk_s(self, iv: dict) -> float:
        """Mean probe CPU seconds per chunk over the interval (at least
        MIN_CHUNKS chunks, centred on it when it is shorter)."""
        lo = bisect.bisect_left(self.ends, iv["start"])
        hi = bisect.bisect_right(self.ends, iv["end"])
        if hi - lo < MIN_CHUNKS:
            mid = bisect.bisect_left(self.ends, (iv["start"] + iv["end"]) / 2)
            lo = max(0, min(mid - MIN_CHUNKS // 2, len(self.ends) - MIN_CHUNKS))
            hi = lo + MIN_CHUNKS
        chunk = self.cpus[lo:hi]
        return sum(chunk) / len(chunk)

    def seconds(self, iv: dict) -> float:
        return iv["cpu"] * REF_CHUNK_S / self.chunk_s(iv)


def run_child(work: Path, wl, seed: int, data: Path, rep: int, traced: bool, cpu: int) -> dict:
    out_dir = work / f"rep{rep}"
    out_dir.mkdir()
    spec = {"root": str(ROOT), "workload": wl.name, "seed": seed, "data": str(data),
            "out_dir": str(out_dir), "trace": traced, "cpu": cpu}
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec_path)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"repetition {rep} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def _median(values) -> float:
    return float(statistics.median(values))


def summarize(bench: dict, wl, reps: list, traced_run: bool, pace: Pace) -> tuple[dict, dict, dict]:
    """End-to-end metrics (untraced repetitions), per-layer metrics (traced
    ones, empty without tracing) and the raw figures behind them."""
    plain = [r for r in reps if not r["traced"]]
    exp = [pace.seconds(r["experiment"]) for r in plain]
    exp_s = _median(exp)
    e2e = {
        "setup_s": _median([_median([pace.seconds(iv) for iv in r["loads"]]) for r in plain]),
        "experiment_s": exp_s,
        "rounds_per_s": wl.rounds(plain[0]["rows"]) / exp_s,
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
    }
    raw = {
        "experiment_s_per_rep": exp,
        "experiment_wall_s": _median([r["experiment"]["end"] - r["experiment"]["start"] for r in plain]),
        "experiment_cpu_s": _median([r["experiment"]["cpu"] for r in plain]),
        "probe_chunk_ms": 1e3 * _median([pace.chunk_s(r["experiment"]) for r in plain]),
    }
    if not traced_run:
        return e2e, {}, raw
    traced = [r for r in reps if r["traced"]]
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    unknown = sorted(set(traced[0]["layers"]) - set(units))
    if unknown:
        raise BenchmarkError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    scaled = []
    for r in traced:
        # spans and counters are wall-clock inside the child; scale them the
        # way the child's whole experiment interval scales
        iv = r["experiment"]
        scale = pace.seconds(iv) / (iv["end"] - iv["start"])
        scaled.append({k: v * scale if units[k] in ("s", "us") else v
                       for k, v in r["layers"].items()})
    layers = {k: _median([s[k] for s in scaled]) for k in scaled[0]}
    traced_s = _median([pace.seconds(r["experiment"]) for r in traced])
    layers["trace.overhead_s"] = traced_s - exp_s
    layers["trace.overhead_ratio"] = (traced_s - exp_s) / exp_s
    return e2e, layers, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "costsense" / "harness.py").is_file():
        raise BenchmarkError(f"no costsense source under {ROOT / 'src'}; run from a source checkout")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    wl = WORKLOADS[args.workload]
    traced_run = bool(args.trace)
    reference = load_reference().get(wl.name, {}).get(str(args.seed))

    out_root = HERE / ".out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_root))
    try:
        data = work / f"{wl.shape.name}.libsvm"
        shape = generate(wl.shape, args.seed, data)
        env = environment()
        # without a recorded reference, every repetition must match the first
        expected = dict(reference or {})
        reps, failures, attempted = [], [], 0
        cpu = max(os.sched_getaffinity(0))
        start = time.perf_counter()
        with Probe(cpu, work / "probe.json") as probe:
            while len(reps) < MIN_REPS * (1 + traced_run) or time.perf_counter() - start < args.seconds:
                traced = traced_run and len(reps) % 2 == 1
                rep = run_child(work, wl, args.seed, data, len(reps), traced, cpu)
                for exp in rep["experiments"]:
                    attempted += 1
                    problems = check_experiment(exp, wl, args.seed, rep, expected.get(exp["algo"]))
                    if problems:
                        failures.append({"rep": len(reps), "algo": exp["algo"], "problems": problems})
                    else:
                        expected.setdefault(exp["algo"], {"eta": exp["eta"], "digest": exp["digest"]})
                reps.append(rep)
        measured_s = time.perf_counter() - start
        e2e, layers, raw = summarize(bench, wl, reps, traced_run, probe.pace())

        failed = len(failures)
        plain = [r for r in reps if not r["traced"]]
        lines = [
            f"workload {wl.name}  seed {args.seed}  {'traced' if traced_run else 'untraced'}",
            f"  input: rows={shape['rows']} d={shape['d']} nnz mean={shape['nnz_mean']:.2f} "
            f"[{shape['nnz_min']}..{shape['nnz_max']}] pos:neg={shape['pos_to_neg']} "
            f"values={shape['values']}",
            f"  protocol: {len(wl.algos)} algos ({', '.join(wl.algos)}) x {wl.passes_per_algo()} "
            f"passes x {shape['rows']} rows = {wl.rounds(shape['rows'])} rounds per repetition; "
            f"metric={wl.metric} rho={wl.rho_mode} etas={len(wl.eta_grid)}",
            f"  repetitions: {len(plain)} untraced, {len(reps) - len(plain)} traced, "
            f"{measured_s:.1f} s; reference for this seed: {'yes' if reference else 'no (invariants and repeatability only)'}",
            f"  env: " + " ".join(f"{k}={v}" for k, v in env.items()),
        ]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
        for name, value in e2e.items():
            lines.append(f"  {name:<14} {value:.6g} {units.get(name, '')}")
        times = raw["experiment_s_per_rep"]
        tail, pct, n = tail_percentile(times)
        lines.append(f"  experiment_s over {n} repetitions: median {_median(times):.4g} s, "
                     f"min {min(times):.4g} s, p{pct:.0f} {tail:.4g} s")
        lines.append(f"  raw medians beside the probe: experiment wall {raw['experiment_wall_s']:.4g} s, "
                     f"CPU {raw['experiment_cpu_s']:.4g} s; probe chunk {raw['probe_chunk_ms']:.4g} ms "
                     f"(reference {1e3 * REF_CHUNK_S:g} ms)")
        lines.append(f"  {'failed_ratio':<14} {failed / attempted:.6g} ratio ({failed}/{attempted} experiments)")
        for f in failures:
            lines.append(f"  FAILED rep {f['rep']} {f['algo']}: " + "; ".join(f["problems"]))
        wanted = bench["per_layer"] if traced_run else bench["end_to_end"]
        values = layers if traced_run else e2e
        stem = out_root / f"{wl.name}-seed{args.seed}-trace{args.trace}"
        if traced_run:
            last_traced = [r for r in reps if r["traced"]][-1]
            shutil.copy(last_traced["spans"], f"{stem}-spans.json")
            mapping = json.loads((HERE / "mapping.json").read_text())["metrics"]
            for m in wanted:
                name = m["name"]
                if name in layers:
                    moves = mapping[name]["moves"]
                    where = f"-> {moves} on {', '.join(mapping[name]['on'])}" if moves else "(context)"
                    lines.append(f"  {name:<44} {layers[name]:<12.6g} {units[name]:<6} {where}")
            for algo, t in last_traced["tails"].items():
                lines.append(f"  pass tail {algo}: p{t['percentile']:.0f} of {t['samples']} passes")
            absent = [m["name"] for m in wanted if m["name"] not in layers]
            lines.append(f"  not exercised on this workload (reported as 0): {', '.join(absent)}")
        print("\n".join(lines))

        details = {
            "workload": wl.name, "seed": args.seed, "shape": shape, "env": env,
            "end_to_end": e2e, "per_layer": layers, "raw": raw, "failures": failures,
            "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        }
        Path(f"{stem}.json").write_text(json.dumps(details, indent=1))

        metrics = {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in wanted
        }
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchmarkError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
