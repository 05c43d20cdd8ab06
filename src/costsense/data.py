"""LIBSVM-format data loading, per-sample normalization, and seeded shuffling.

Feature indices are 1-based on disk (LIBSVM convention); every row the
package hands out is ``(positions, values, label)`` with the 0-based
``positions`` through which learners address weight vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM text: bad label, bad token, or bad index order."""


@dataclass(eq=False)
class Dataset:
    """Samples stored as columns (CSR), plus the counts the learners need.

    Row ``i`` is ``labels[i]`` (+1/-1) with the 0-based feature ``positions``
    and unit-norm ``values`` in ``indptr[i]:indptr[i + 1]``.
    """

    labels: np.ndarray
    indptr: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    d: int
    t_pos: int
    t_neg: int

    def __post_init__(self):
        # one (positions, values, label) tuple per row: cheaper per round than slicing
        cuts = self.indptr[1:-1]
        self._rows = list(
            zip(np.split(self.positions, cuts), np.split(self.values, cuts), self.labels.tolist())
        )

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray, int]:
        return self._rows[i]

    def rows(self, order: np.ndarray):
        """``(positions, values, label)`` of each row index in ``order``, in turn;
        the arrays are views of the columns, so callers must not write to them."""
        return map(self._rows.__getitem__, order.tolist())


def _tokenize(line: str, lineno: int | None) -> tuple[int, list, list]:
    """Label, 1-based indices and values of one line, validated."""
    where = f"line {lineno}: " if lineno is not None else ""
    hash_at = line.find("#")
    if hash_at >= 0:
        line = line[:hash_at]
    tokens = line.split()
    if not tokens:
        raise LibsvmFormatError(where + "empty line")
    try:
        raw_label = float(tokens[0])
    except ValueError:
        raise LibsvmFormatError(where + f"unparseable label {tokens[0]!r}") from None
    if raw_label == 1:
        label = 1
    elif raw_label == -1:
        label = -1
    else:
        raise LibsvmFormatError(where + f"non-binary label {tokens[0]!r}")

    indices = []
    values = []
    prev = 0
    for tok in tokens[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise LibsvmFormatError(where + f"malformed token {tok!r}")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise LibsvmFormatError(where + f"malformed token {tok!r}") from None
        if not math.isfinite(val):
            raise LibsvmFormatError(where + f"non-finite feature value {tok!r}")
        if idx < 1:
            raise LibsvmFormatError(where + f"feature index {idx} < 1")
        if idx <= prev:
            raise LibsvmFormatError(
                where + f"feature index {idx} not increasing (previous {prev})"
            )
        prev = idx
        indices.append(idx)
        values.append(val)
    return label, indices, values


def parse_libsvm_line(line: str, lineno: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse one ``<label> <index>:<value> ...`` line into ``(positions,
    values, label)``: 0-based int64 positions and the raw float64 values.

    Labels +1/1 map to +1 and -1 maps to -1; anything else is rejected
    (binary classification only).  A ``#`` starts a comment running to the
    end of the line.
    """
    label, indices, values = _tokenize(line, lineno)
    return np.array(indices, dtype=np.int64) - 1, np.array(values, dtype=np.float64), label


def load_dataset(path, d_override: int | None = None) -> Dataset:
    """Load and per-sample normalize a LIBSVM file into columns.

    ``d_override`` widens the dimensionality when a companion split uses
    higher feature indices than this file; it may not shrink it.
    """
    labels, indptr, indices, values, norms = [], [0], [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            label, idx, val = _tokenize(raw, lineno)
            n = float(np.linalg.norm(val))
            if n == 0.0:
                raise LibsvmFormatError(
                    f"line {lineno}: all-zero feature vector cannot be normalized"
                )
            labels.append(label)
            indices += idx
            values += val
            indptr.append(len(indices))
            norms.append(n)
    if not labels:
        raise LibsvmFormatError(f"{path}: no examples found")
    positions = np.array(indices, dtype=np.int64) - 1
    d = int(positions.max()) + 1
    if d_override is not None:
        if d_override < d:
            raise ValueError(f"d_override {d_override} below observed max index {d}")
        d = d_override
    values = np.array(values) / np.repeat(norms, np.diff(indptr))
    t_pos = labels.count(1)
    return Dataset(np.array(labels, dtype=np.int64), np.array(indptr, dtype=np.int64),
                   positions, values, d, t_pos, len(labels) - t_pos)


def permutation(n: int, seed: int) -> np.ndarray:
    """Seeded ordering of 0..n-1, identical on every platform and version.

    The algorithm is pinned end to end: 64-bit words come straight off the
    Philox counter-based stream keyed by ``seed`` (a cross-platform,
    cross-version guarantee), each bounded draw uses masked rejection
    (``word & mask`` with the smallest all-ones mask covering the bound,
    rejected until in range), and the shuffle is backward Fisher-Yates
    (swap index i with a uniform draw from 0..i, for i = n-1 down to 1).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    bits = np.random.Philox(key=seed)
    # Python ints and lists: cheaper per swap than numpy scalars and arrays
    words = bits.random_raw(2 * n).tolist()
    order = list(range(n))
    k = 0
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if k == len(words):
                words = bits.random_raw(n).tolist()
                k = 0
            j = words[k] & mask
            k += 1
            if j <= i:
                break
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


def split_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Partition indices 0..n-1 into k seeded folds of near-equal size.

    The first ``n mod k`` folds carry one extra element.
    """
    if k < 2 or k > n:
        raise ValueError(f"fold count {k} out of range for {n} examples")
    order = permutation(n, seed)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        folds.append(order[start : start + size].copy())
        start += size
    return folds
