"""Workload definitions and the seeded LIBSVM generator behind them.

Each workload names a data shape and the experiments run on it.  The
generator draws only 64-bit words from a Philox stream keyed by the seed and
does integer arithmetic on them, so a seed yields the same file byte for
byte on any machine and numpy version that keeps Philox's raw stream.  Feature values are written as three-decimal strings, which the
package's parser turns into floats; labels come from a noisy integer linear
teacher, the same for every seed, whose threshold fixes the class ratio
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAPER_ETA_GRID = tuple(10.0**k for k in range(-5, 6))


@dataclass(frozen=True)
class Shape:
    name: str
    rows: int
    d: int
    pos_fraction: float  # positives / rows
    binary: bool
    nnz: str  # how many features a row has, in words


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    algos: tuple
    mode: str  # "experiment" (grid selection + permutations) or "cv"
    eta_grid: tuple
    metric: str
    rho_mode: str
    permutations: int = 20
    folds: int = 0

    def passes_per_algo(self) -> int:
        if self.mode == "cv":
            return self.folds
        selection = 3 * len(self.eta_grid) if len(self.eta_grid) > 1 else 0
        return selection + self.permutations

    def rounds(self, rows: int) -> int:
        """Learner rounds in one repetition: every pass touches every row once
        (a CV fold trains on k-1 folds and predicts the held-out one)."""
        return len(self.algos) * self.passes_per_algo() * rows


# The a9a categories: 14 one-hot groups whose sizes sum to 123.
A9A_GROUPS = (9, 16, 7, 15, 6, 5, 2, 10, 14, 9, 8, 7, 8, 7)

SHAPES = {
    "ijcnn1": Shape("ijcnn1", rows=1500, d=22, pos_fraction=1 / 10.4, binary=False,
                    nnz="13: one of features 1-10 set to 1, features 11-22 real in [-1, 1]"),
    "highd": Shape("highd", rows=350, d=100_000, pos_fraction=1 / 10.0, binary=False,
                   nnz="uniform 10..30 (mean 20), indices log-uniform (Zipf-like), values in (0, 1]"),
    "a9a": Shape("a9a", rows=1300, d=123, pos_fraction=1 / 4.2, binary=True,
                 nnz=f"14: one feature from each of {len(A9A_GROUPS)} one-hot groups"),
}

# Why each workload exists is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ijcnn1-grid", SHAPES["ijcnn1"], ("cog2", "acog2-diag"), "experiment",
            PAPER_ETA_GRID, "sum", "oracle",
        ),
        Workload(
            "highd-sparse", SHAPES["highd"], ("cog2", "acog2-diag", "ssacog2"), "experiment",
            (1.0,), "sum", "laplace",
        ),
        Workload(
            "a9a-cv", SHAPES["a9a"], ("acog2", "sacog2", "ssacog2"), "cv",
            (1.0,), "cost", "oracle", folds=5,
        ),
    )
}


class _Words:
    """Raw 64-bit words off a Philox stream, consumed in order."""

    def __init__(self, seed: int, salt: int):
        self._bits = np.random.Philox(key=[seed & (2**64 - 1), salt])

    def ints(self, n: int, low: int, high: int) -> np.ndarray:
        """n integers in [low, high] (inclusive)."""
        raw = self._bits.random_raw(n).astype(np.uint64)
        return (raw % np.uint64(high - low + 1)).astype(np.int64) + low


def _labels(scores: np.ndarray, pos_fraction: float) -> np.ndarray:
    """+1 for the top round(rows * pos_fraction) scores, ties broken by row."""
    n = scores.size
    n_pos = max(1, min(n - 1, int(round(n * pos_fraction))))
    order = np.lexsort((np.arange(n), -scores))
    y = np.full(n, -1, dtype=np.int64)
    y[order[:n_pos]] = 1
    return y


def _value(k: int) -> str:
    """k/1000 as a LIBSVM value string; k is a nonzero integer in [-1000, 1000]."""
    sign = "-" if k < 0 else ""
    k = abs(k)
    return f"{sign}1" if k == 1000 else f"{sign}0.{k:03d}"


def _rows_ijcnn1(shape: Shape, w: _Words, fixed: _Words):
    n = shape.rows
    cat = w.ints(n, 0, 9)
    mags = w.ints(n * 12, 1, 1000).reshape(n, 12)
    signs = w.ints(n * 12, 0, 1).reshape(n, 12) * 2 - 1
    vals = mags * signs
    w_cat = fixed.ints(10, -500, 500) * 1000
    w_real = fixed.ints(12, -1000, 1000)
    noise = w.ints(n, -600_000, 600_000)
    scores = w_cat[cat] + vals @ w_real + noise
    rows = []
    for i in range(n):
        feats = [(int(cat[i]) + 1, 1000)] + [(11 + j, int(vals[i, j])) for j in range(12)]
        rows.append(feats)
    return rows, scores


def _rows_highd(shape: Shape, w: _Words, fixed: _Words):
    n, d = shape.rows, shape.d
    nnz = w.ints(n, 10, 30)
    top = d.bit_length()
    rows = []
    for i in range(n):
        k = int(nnz[i])
        picked: list[int] = []
        seen = set()
        while len(picked) < k:
            levels = w.ints(2 * k, 0, top - 1)
            offs = w.ints(2 * k, 0, 2**top - 1)
            for lv, off in zip(levels.tolist(), offs.tolist()):
                idx = (1 << lv) + off % (1 << lv)
                idx = (idx - 1) % d + 1
                if idx not in seen:
                    seen.add(idx)
                    picked.append(idx)
                    if len(picked) == k:
                        break
        if i == 0 and d not in seen:
            picked[-1] = d  # the file's max index fixes d
        mags = w.ints(k, 1, 1000).tolist()
        rows.append(sorted(zip(picked, mags)))
    teacher = fixed.ints(d + 1, -1000, 1000)
    scores = np.array([sum(int(teacher[j]) * v for j, v in r) for r in rows], dtype=np.int64)
    scores += w.ints(n, -300_000, 300_000)
    return rows, scores


def _rows_a9a(shape: Shape, w: _Words, fixed: _Words):
    n = shape.rows
    starts = np.cumsum((1,) + A9A_GROUPS[:-1])
    picks = []
    for size in A9A_GROUPS:
        # min of two uniform draws skews each category toward its first values
        a = w.ints(n, 0, size - 1)
        b = w.ints(n, 0, size - 1)
        picks.append(np.minimum(a, b))
    idx = np.stack(picks, axis=1) + starts  # n x 14, increasing along rows
    idx[0, -1] = shape.d
    teacher = fixed.ints(shape.d + 1, -1000, 1000)
    scores = teacher[idx].sum(axis=1) + w.ints(n, -1500, 1500)
    rows = [[(int(j), 1000) for j in r] for r in idx]
    return rows, scores


_GENERATORS = {"ijcnn1": (_rows_ijcnn1, 1), "highd": (_rows_highd, 2), "a9a": (_rows_a9a, 3)}


def generate(shape: Shape, seed: int, path) -> dict:
    """Write ``shape.rows`` LIBSVM lines to ``path``; return the shape record."""
    make, salt = _GENERATORS[shape.name]
    # the teacher is part of the shape, fixed across seeds, so that seeds
    # vary the samples but not how separable the data is
    rows, scores = make(shape, _Words(seed, salt), _Words(0, salt + 16))
    labels = _labels(np.asarray(scores, dtype=np.int64), shape.pos_fraction)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for y, feats in zip(labels.tolist(), rows):
            cells = " ".join(f"{j}:{_value(v)}" for j, v in feats)
            fh.write(("+1 " if y == 1 else "-1 ") + cells + "\n")
    nnz = np.array([len(r) for r in rows])
    n_pos = int((labels == 1).sum())
    return {
        "shape": shape.name,
        "seed": seed,
        "rows": shape.rows,
        "d": shape.d,
        "nnz_mean": float(nnz.mean()),
        "nnz_min": int(nnz.min()),
        "nnz_max": int(nnz.max()),
        "nnz": shape.nnz,
        "pos": n_pos,
        "neg": shape.rows - n_pos,
        "pos_to_neg": f"1:{(shape.rows - n_pos) / n_pos:.2f}",
        "values": "binary" if shape.binary else "real",
    }
