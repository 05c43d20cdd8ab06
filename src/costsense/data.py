"""LIBSVM-format data loading, per-sample normalization, and seeded shuffling.

Feature indices are 1-based on disk (LIBSVM convention); a loaded
:class:`Dataset` is its columns, and every row it hands out is
``(positions, values, label)``, sliced from them, with the 0-based
``positions`` through which learners address weight vectors.  Passes that
read a different row per lane take all rows at once from ``Dataset.padded()``.

:func:`load_dataset` has two paths.  A plain file (its docstring says what
that is) is parsed whole, in vectorized byte scans and one ``np.fromstring``
call; any other goes through the line path, :func:`parse_libsvm_line`'s
tokenizer line by line, which also skips blank and comment lines.  Both give
the same :class:`Dataset` bit for bit, and every error message, with its
line number, comes from the line path.

A dataset's seeded orders, ``Dataset.order(seed)``, are :func:`permutation`'s,
computed once per seed and kept, read-only, for as long as the dataset lives,
so every experiment run on one loaded dataset shares them; so are its
cross-validation splits, ``Dataset.cv_split(k, seed)``.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class LibsvmFormatError(ValueError):
    """Malformed LIBSVM text: bad label, bad token, or bad index order."""


class PaddedRows(NamedTuple):
    """Every row of a :class:`Dataset` at once, padded to the longest: row
    ``i`` is ``positions[i]``/``values[i]`` (n x K).  Positions are renumbered
    onto the columns some row uses, plus any kept leading columns, in order;
    ``width - 1`` is a column no row uses, and every padding slot points there
    with value 0.0.  A row of 4q + 3 entries has two padding slots before its
    last entry."""

    positions: np.ndarray
    values: np.ndarray
    width: int
    sq_norms: np.ndarray  # each row's values @ values, as one-row code takes it


@dataclass(eq=False)
class Dataset:
    """Samples stored as columns (CSR), and the class counts of ``labels``.

    Row ``i`` is ``labels[i]`` (+1/-1) with the 0-based feature ``positions``
    and unit-norm ``values`` in ``indptr[i]:indptr[i + 1]``.  :meth:`padded`,
    :meth:`order` and :meth:`cv_split` build their arrays on first use and
    keep them as long as the dataset.
    """

    labels: np.ndarray
    indptr: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    d: int
    t_pos: int = field(init=False)
    t_neg: int = field(init=False)

    def __post_init__(self):
        self.t_pos = int(np.count_nonzero(self.labels == 1))
        self.t_neg = self.labels.size - self.t_pos
        self._padded = {}
        self._orders = {}
        self._splits = {}

    def __len__(self) -> int:
        return self.labels.size

    def __getitem__(self, i: int) -> tuple[np.ndarray, np.ndarray, int]:
        """Row ``i`` as :meth:`rows` gives it; indices follow a list's rules."""
        lo, hi = self.indptr[:-1][i], self.indptr[1:][i]
        return self.positions[lo:hi], self.values[lo:hi], int(self.labels[i])

    def rows(self, order: np.ndarray):
        """``(positions, values, label)`` of each row index in ``order``, in turn;
        the arrays are views of the columns, so callers must not write to them."""
        positions, values = self.positions, self.values
        for lo, hi, y in zip(self.indptr[:-1][order].tolist(), self.indptr[1:][order].tolist(),
                             self.labels[order].tolist()):
            yield positions[lo:hi], values[lo:hi], y

    def order(self, seed: int) -> np.ndarray:
        """``permutation(len(self), seed)``, computed on first use and kept:
        the same read-only array on every call."""
        if seed not in self._orders:
            order = self._orders[seed] = permutation(len(self), seed)
            order.flags.writeable = False
        return self._orders[seed]

    def cv_split(self, k: int, seed: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each fold's (training order, held-out rows) for k folds at ``seed``,
        computed on first use and kept, read-only.  Fold i holds out
        ``split_folds(len(self), k, seed)[i]`` and trains on the other folds'
        rows, concatenated, in the order ``permutation(len(train), seed + i)``."""
        if (k, seed) not in self._splits:
            folds = split_folds(len(self), k, seed)
            split = []
            for i, heldout in enumerate(folds):
                train = np.concatenate(folds[:i] + folds[i + 1:])
                order = train[permutation(train.size, seed + i)]
                order.flags.writeable = heldout.flags.writeable = False
                split.append((order, heldout))
            self._splits[k, seed] = tuple(split)
        return self._splits[k, seed]

    def padded(self, keep: int = 0) -> PaddedRows:
        """The rows as :class:`PaddedRows`, built on first use and kept.
        Columns ``0..keep-1`` stay in the renumbering whether or not a row
        uses them, as columns ``0..keep-1`` (a sketch's canonical init lives
        there)."""
        if keep in self._padded:
            return self._padded[keep]
        in_use = np.zeros(self.d, dtype=bool)
        in_use[self.positions] = True
        in_use[:keep] = True
        used = np.flatnonzero(in_use)
        nnz = np.diff(self.indptr)
        row = np.repeat(np.arange(len(nnz)), nnz)
        slot = np.arange(self.positions.size) - np.repeat(self.indptr[:-1], nnz)
        # OpenBLAS's gemv adds the last 3 of 4q + 3 columns as a pair and then
        # one column, and a block of 4 as one; two padding slots before such a
        # row's last entry make the padded product add it as the unpadded one
        # does, so a sketched lane's Z x is the one-row code's, bit for bit
        tail3 = nnz % 4 == 3
        slot[self.indptr[1:][tail3] - 1] += 2
        shape = (len(nnz), int((nnz + 2 * tail3).max()))
        positions = np.full(shape, used.size, dtype=np.int64)
        positions[row, slot] = np.searchsorted(used, self.positions)
        values = np.zeros(shape)
        values[row, slot] = self.values
        # row by row as PA-I's one-row code: a vectorized sum differs on rows of 16+
        sq_norms = np.array([float(v @ v) for _, v, _ in self.rows(np.arange(len(nnz)))])
        rows = self._padded[keep] = PaddedRows(positions, values, used.size + 1, sq_norms)
        return rows


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
    if prev >= 2**63:  # indices increase, so the last one is the largest
        raise LibsvmFormatError(where + f"feature index {prev} past the int64 range")
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

    The file is read once, as bytes.  A plain file is parsed whole by numpy;
    any other goes line by line through :func:`parse_libsvm_line`'s
    tokenizer.  Both paths give the same :class:`Dataset` bit for bit.  A
    file that is not plain may still load, and every error, with its line
    number, is the line path's.  A file is plain when it has

    - only the bytes ``0-9 + - . e E :``, space, tab and ``\\n``, or ``\\r``
      right before ``\\n``;
    - no blank or comment line, and on every line a label and at least one
      feature;
    - feature tokens ``<digits>:<value>``, with at most 16 digits;
    - labels of +1 or -1;
    - indices from 1 to below 2**53, increasing along each line;
    - every row norm within [2**-511, inf): every value is finite, and no
      row needs rescaling.

    ``d_override`` widens the dimensionality when a companion split uses
    higher feature indices than this file; it may not shrink it.
    """
    with open(path, "rb") as fh:
        text = fh.read()
    labels, indptr, positions, values, norms = _bulk_rows(text) or _line_rows(text, path)
    d = int(positions.max()) + 1
    if d_override is not None:
        if d_override < d:
            raise ValueError(f"d_override {d_override} below observed max index {d}")
        d = d_override
    values = values / np.repeat(norms, np.diff(indptr))
    return Dataset(labels, indptr, positions, values, d)


def _line_rows(text: bytes, path):
    """Labels, ``indptr``, 0-based positions, raw values and row norms of a
    LIBSVM file's ``text``, tokenized line by line and validated as it goes."""
    labels, indptr, indices, values, norms = [], [0], [], [], []
    # norm() takes sqrt(x @ x); where x @ x overflows, or is zero or subnormal
    # (norm below 2**-511), the row is rescaled below.  The lines are the
    # ones a text-mode open() of the file yields, decoding errors included
    with io.TextIOWrapper(io.BytesIO(text), encoding="utf-8") as lines, np.errstate(over="ignore"):
        for lineno, raw in enumerate(lines, start=1):
            if not raw.strip() or raw.lstrip().startswith("#"):
                continue
            label, idx, val = _tokenize(raw, lineno)
            n = float(np.linalg.norm(val))
            if not 2.0**-511 <= n < math.inf:
                top = max(map(abs, val), default=0.0)
                if top == 0.0:
                    raise LibsvmFormatError(
                        f"line {lineno}: all-zero feature vector cannot be normalized"
                    )
                # divided by its largest magnitude, the row's norm lies in [1, sqrt(nnz)]
                val = [v / top for v in val]
                n = float(np.linalg.norm(val))
            labels.append(label)
            indices += idx
            values += val
            indptr.append(len(indices))
            norms.append(n)
    if not labels:
        raise LibsvmFormatError(f"{path}: no examples found")
    return (np.array(labels, dtype=np.int64), np.array(indptr, dtype=np.int64),
            np.array(indices, dtype=np.int64) - 1, np.array(values), norms)


def _bulk_rows(text: bytes):
    """What :func:`_line_rows` returns for ``text`` if it is plain (see
    :func:`load_dataset`), from vectorized byte scans and one
    ``np.fromstring`` call; None for any other text."""
    if text.translate(None, b"0123456789+-.eE: \t\r\n") or text.count(b"\r") != text.count(b"\r\n"):
        return None
    buf = np.frombuffer(text, dtype=np.uint8)
    space = buf <= 32  # of the plain bytes, space, tab, \r and \n
    begins = np.empty_like(space)
    begins[:1] = ~space[:1]
    np.greater(space[:-1], space[1:], out=begins[1:])
    starts = np.flatnonzero(begins)  # each token's first byte
    ends = np.flatnonzero(buf == 10)
    if text[-1:] != b"\n":
        ends = np.append(ends, buf.size)
    tokens = np.diff(np.searchsorted(starts, ends), prepend=0)  # per line
    if tokens.min() < 2:
        return None
    is_feature = np.ones(starts.size, dtype=bool)
    is_feature[np.cumsum(tokens) - tokens] = False  # each line's label
    feature_starts = starts[is_feature]
    # the k-th colon ends the k-th feature token's digits: then every feature
    # token holds exactly one colon, and no label holds one
    colons = np.flatnonzero(buf == 58)
    if colons.size != feature_starts.size:
        return None
    digits = colons - feature_starts
    if digits.min() < 1 or digits.max() > 16:
        return None
    # read each index from its digits, and blank them and the colons out, so
    # that np.fromstring reads only labels and values
    index = np.zeros(colons.size, dtype=np.int64)
    blanked = buf.copy()
    blanked[colons] = 32
    for j in range(int(digits.max())):
        has = digits > j
        at = feature_starts[has] + j
        digit = buf[at] - 48  # wraps past 9 below b"0"
        if (digit > 9).any():
            return None
        index[has] = index[has] * 10 + digit
        blanked[at] = 32
    try:
        # numpy warns (2.0 to 2.3) or raises (later) at text it cannot read
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            numbers = np.fromstring(blanked.tobytes(), sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if numbers.size != starts.size:
        return None  # an empty value
    indptr = np.zeros(tokens.size + 1, dtype=np.int64)
    np.cumsum(tokens - 1, out=indptr[1:])
    label_at = np.arange(tokens.size) + indptr[:-1]
    labels = numbers[label_at]
    values = np.delete(numbers, label_at)
    rising = index[1:] > index[:-1]
    rising[indptr[1:-1] - 1] = True  # a row's first index follows another row's
    if not (((labels == 1) | (labels == -1)).all() and index.min() >= 1
            and index.max() < 2**53 and rising.all()):
        return None
    # v.dot(v) on a contiguous v is what np.linalg.norm takes the root of
    bounds = indptr.tolist()
    with np.errstate(over="ignore"):
        norms = np.array([math.sqrt(v.dot(v)) for v in
                          (values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))])
    if not ((norms >= 2.0**-511) & (norms < math.inf)).all():
        return None
    return labels.astype(np.int64), indptr, index - 1, values, norms


def permutation(n: int, seed: int) -> np.ndarray:
    """Seeded ordering of 0..n-1, identical on every platform and version.

    The algorithm is pinned end to end: 64-bit words come straight off the
    Philox counter-based stream keyed by ``seed`` (a cross-platform,
    cross-version guarantee), each bounded draw uses masked rejection
    (``word & mask`` with the smallest all-ones mask covering the bound,
    rejected until in range), and the shuffle is backward Fisher-Yates
    (swap index i with a uniform draw from 0..i, for i = n-1 down to 1).
    The stream is read in order, 2n words at first and n more whenever those
    run out.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    bits = np.random.Philox(key=seed)
    words = bits.random_raw(2 * n)
    k = 0
    order = list(range(n))
    i = n - 1
    # a band is every i under one mask: its words are masked in one numpy
    # call, and Python (ints and lists, cheaper per swap than numpy scalars)
    # runs only the accept test and the swap.  A band takes 1.4 to 2 words
    # per i, so the slice of 2 per i almost always finishes it
    while i:
        mask = (1 << i.bit_length()) - 1
        low = (mask + 1) >> 1
        while i >= low:
            if k == words.size:
                words = bits.random_raw(n)
                k = 0
            top, rejected = i, 0
            for j in (words[k:k + 2 * (i - low) + 8] & mask).tolist():
                if j <= i:
                    order[i], order[j] = order[j], order[i]
                    i -= 1
                    if i < low:
                        break
                else:
                    rejected += 1
            k += top - i + rejected
    return np.array(order, dtype=np.int64)


def split_folds(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Partition indices 0..n-1 into k seeded folds of near-equal size.

    The first ``n mod k`` folds carry one extra element.
    """
    if k < 2 or k > n:
        raise ValueError(f"fold count {k} out of range for {n} examples")
    return np.array_split(permutation(n, seed), k)
