from pathlib import Path

import numpy as np
import pytest

from costsense.data import (
    Dataset,
    LibsvmFormatError,
    load_dataset,
    parse_libsvm_line,
    permutation,
    split_folds,
)

DATASETS = Path(__file__).resolve().parent.parent / "datasets"


def dataset_or_skip(name):
    path = DATASETS / name
    if not path.exists():
        pytest.skip(f"{name} not vendored; see datasets/README.md")
    return path


class TestParseLine:
    def test_basic_positive(self):
        positions, values, label = parse_libsvm_line("+1 1:0.5 3:2")
        assert label == 1
        assert positions.tolist() == [0, 2]
        assert values.dtype == np.float64 and values.tolist() == [0.5, 2.0]

    def test_basic_negative(self):
        positions, values, label = parse_libsvm_line("-1 2:1")
        assert label == -1
        assert positions.tolist() == [1]
        assert values.tolist() == [1.0]

    def test_bare_one_is_positive(self):
        assert parse_libsvm_line("1 1:1")[2] == 1

    def test_non_binary_label_rejected(self):
        with pytest.raises(LibsvmFormatError, match="non-binary"):
            parse_libsvm_line("3 1:1")

    def test_unparseable_label_rejected(self):
        with pytest.raises(LibsvmFormatError, match="label"):
            parse_libsvm_line("abc 1:1")

    def test_malformed_token(self):
        with pytest.raises(LibsvmFormatError, match="malformed"):
            parse_libsvm_line("+1 1:0.5 oops")

    def test_non_increasing_index(self):
        with pytest.raises(LibsvmFormatError, match="not increasing"):
            parse_libsvm_line("+1 3:1 3:2")
        with pytest.raises(LibsvmFormatError, match="not increasing"):
            parse_libsvm_line("+1 3:1 2:2")

    def test_index_below_one(self):
        with pytest.raises(LibsvmFormatError, match="< 1"):
            parse_libsvm_line("+1 0:1")

    def test_index_within_int64(self):
        assert parse_libsvm_line(f"+1 {2**63 - 1}:1")[0].tolist() == [2**63 - 2]
        with pytest.raises(LibsvmFormatError, match=f"line 3: feature index {2**63} past the int64"):
            parse_libsvm_line(f"+1 {2**63}:1", lineno=3)

    def test_lineno_in_message(self):
        with pytest.raises(LibsvmFormatError, match="line 7"):
            parse_libsvm_line("+1 0:1", lineno=7)

    def test_comment_stripped(self):
        positions, _, _ = parse_libsvm_line("+1 1:2 # trailing note")
        assert positions.tolist() == [0]

    def test_positions_are_zero_based(self):
        positions, _, _ = parse_libsvm_line("+1 1:0.5 3:2")
        assert positions.dtype == np.int64 and positions.tolist() == [0, 2]

    def test_round_trip(self, tmp_path):
        for text in ["+1 1:0.5 3:2", "-1 2:1", "+1 1:-3.25 7:1e-09 12:4"]:
            positions, values, label = parse_libsvm_line(text)
            line = write_rows(tmp_path / "row.libsvm", [(label, positions + 1, values)]).read_text()
            again = parse_libsvm_line(line)
            assert again[2] == label
            assert again[0].tolist() == positions.tolist()
            assert again[1].tolist() == values.tolist()


def write_rows(path, rows):
    """A LIBSVM file of (label, 1-based indices, values) rows, values in full precision."""
    path.write_text("".join(
        f"{label:+d} " + " ".join(f"{i}:{float(v)!r}" for i, v in zip(idx, vals)) + "\n"
        for label, idx, vals in rows
    ))
    return path


class TestNormalize:
    """Per-sample unit-norm scaling, as ``load_dataset`` applies it."""

    def test_three_four_five(self, tmp_path):
        ds = load_dataset(write_rows(tmp_path / "one.libsvm", [(1, [1, 2], [3.0, 4.0])]))
        np.testing.assert_allclose(ds[0][1], [0.6, 0.8])

    def test_single_negative_coordinate(self, tmp_path):
        ds = load_dataset(write_rows(tmp_path / "one.libsvm", [(1, [5], [-2.0])]))
        np.testing.assert_allclose(ds[0][1], [-1.0])

    def test_zero_vector_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="all-zero"):
            load_dataset(write_rows(tmp_path / "zero.libsvm", [(1, [1], [0.0])]))

    def test_unit_norm_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for _ in range(50):
            nnz = rng.integers(1, 20)
            idx = np.sort(rng.choice(1000, size=nnz, replace=False)) + 1
            vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-3, 4)
            rows.append((1, idx, vals))
        ds = load_dataset(write_rows(tmp_path / "rand.libsvm", rows))
        for _, values, _ in ds.rows(np.arange(len(ds))):
            assert abs(np.linalg.norm(values) - 1.0) < 1e-12

    def test_idempotent(self, tmp_path):
        once = load_dataset(write_rows(tmp_path / "a.libsvm", [(1, [1, 2, 9], [3.0, 4.0, -1.0])]))
        positions, values, label = once[0]
        twice = load_dataset(write_rows(tmp_path / "b.libsvm", [(label, positions + 1, values)]))
        np.testing.assert_allclose(twice[0][1], values, atol=1e-12)

    def test_label_unchanged(self, tmp_path):
        assert load_dataset(write_rows(tmp_path / "neg.libsvm", [(-1, [1], [5.0])]))[0][2] == -1


class TestLoadDataset:
    def test_two_line_file(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("+1 1:1\n-1 2:1\n")
        ds = load_dataset(p)
        assert len(ds) == 2
        assert ds.d == 2
        assert ds.t_pos == 1 and ds.t_neg == 1

    def test_counts_partition(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("+1 1:1\n-1 2:1\n-1 1:2 2:1\n+1 3:4\n")
        ds = load_dataset(p)
        assert ds.t_pos + ds.t_neg == len(ds)
        assert ds.d == 3

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.libsvm"
        p.write_text("+1 1:1\n+1 2:oops\n")
        with pytest.raises(LibsvmFormatError, match="line 2"):
            load_dataset(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.libsvm"
        p.write_text("")
        with pytest.raises(LibsvmFormatError):
            load_dataset(p)

    def test_zero_vector_rejected_at_load(self, tmp_path):
        p = tmp_path / "zero.libsvm"
        p.write_text("+1 1:1\n-1 3:0\n")
        with pytest.raises(LibsvmFormatError, match="line 2"):
            load_dataset(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_value_rejected_at_load(self, tmp_path, value):
        p = tmp_path / "nonfinite.libsvm"
        p.write_text(f"+1 1:1\n-1 1:{value} 2:1\n")
        with pytest.raises(LibsvmFormatError, match="line 2: non-finite"):
            load_dataset(p)

    @pytest.mark.parametrize("line,message", [
        ("+1 99999999999999999999:1", "feature index 99999999999999999999 past the int64 range"),
    ])
    def test_out_of_range_row_rejected_at_load(self, tmp_path, line, message):
        p = tmp_path / "huge.libsvm"
        p.write_text(f"+1 1:1\n{line}\n")
        with pytest.raises(LibsvmFormatError, match=f"^line 2: {message}$"):
            load_dataset(p)

    @pytest.mark.parametrize("value,unit", [
        (1e153, 0.7071067811865476),  # x @ x = 2e306 is finite: x / norm(x)
        (1e308, 0.7071067811865475),  # x @ x overflows: x / 1e308 / sqrt(2)
    ], ids=["1e153", "1e308"])
    def test_large_finite_norm_kept(self, tmp_path, value, unit):
        p = tmp_path / "large.libsvm"
        p.write_text(f"+1 1:{value} 2:{value}\n")
        assert load_dataset(p)[0][1].tolist() == [unit] * 2

    @pytest.mark.parametrize("values,unit", [
        ([1e-200], 1.0),  # x @ x underflows to 0
        ([1e-160, 1e-160], 0.7071067811865475),  # x @ x = 2e-320 is subnormal
    ], ids=["1e-200", "1e-160"])
    def test_small_nonzero_norm_kept(self, tmp_path, values, unit):
        p = tmp_path / "small.libsvm"
        p.write_text("+1 " + " ".join(f"{i}:{v}" for i, v in enumerate(values, start=1)) + "\n")
        assert load_dataset(p)[0][1].tolist() == [unit] * len(values)

    def test_zero_vector_rejected_with_its_line(self, tmp_path):
        p = tmp_path / "zero.libsvm"
        p.write_text("+1 1:1e-200\n-1 1:0 2:-0.0\n")
        with pytest.raises(LibsvmFormatError,
                           match="^line 2: all-zero feature vector cannot be normalized$"):
            load_dataset(p)

    def test_samples_normalized(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("+1 1:3 2:4\n")
        ds = load_dataset(p)
        np.testing.assert_allclose(ds[0][1], [0.6, 0.8])

    def test_d_override(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("+1 1:1\n")
        assert load_dataset(p, d_override=10).d == 10
        with pytest.raises(ValueError):
            load_dataset(p, d_override=0)

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("# header comment\n+1 1:1\n\n-1 2:1\n")
        assert len(load_dataset(p)) == 2

    def test_rows_bitwise_equal_to_per_line_reference(self):
        # the reference is the per-sample path: parse one line, then divide by its norm
        path = DATASETS / "toy_imbalanced.libsvm"
        lines = [l for l in path.read_text().splitlines() if l.strip() and not l.startswith("#")]
        ds = load_dataset(path)
        rows = list(ds.rows(np.arange(len(ds))))
        assert len(rows) == len(lines) == 320
        for line, (positions, values, y) in zip(lines, rows):
            ref_positions, ref_values, ref_label = parse_libsvm_line(line)
            ref_values = ref_values / float(np.linalg.norm(ref_values))
            assert y == ref_label
            assert positions.dtype == ref_positions.dtype
            assert positions.tobytes() == ref_positions.tobytes()
            assert values.tobytes() == ref_values.tobytes()

    def test_rows_follow_order(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("+1 1:1\n-1 2:1 3:1\n+1 4:2\n")
        ds = load_dataset(p)
        rows = list(ds.rows(np.array([2, 0, 2])))
        assert [y for _, _, y in rows] == [1, 1, 1]
        assert all(type(y) is int for _, _, y in rows)
        assert [p.tolist() for p, _, _ in rows] == [[3], [0], [3]]
        # rows are views of the columns, not copies
        assert all(np.shares_memory(v, ds.values) for _, v, _ in rows)
        assert list(ds.rows(np.array([], dtype=np.int64))) == []

    def test_class_counts_come_from_the_labels(self):
        labels = np.array([1, -1, -1, 1, -1])
        ds = Dataset(labels, np.arange(6), np.zeros(5, dtype=np.int64), np.ones(5), 1)
        assert (ds.t_pos, ds.t_neg) == (2, 3)
        with pytest.raises(TypeError):
            Dataset(labels, np.arange(6), np.zeros(5, dtype=np.int64), np.ones(5), 1, 4, 1)

    def test_indexing_behaves_like_a_list(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("+1 1:1\n-1 2:3 5:4\n")
        ds = load_dataset(p)
        positions, values, label = ds[-1]
        assert label == -1
        assert positions.tolist() == [1, 4]
        np.testing.assert_array_equal(values, [0.6, 0.8])
        with pytest.raises(IndexError):
            ds[len(ds)]


class TestPadded:
    def test_layout(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("+1 4:1\n-1 5:1 7:1 9:1\n")
        ds = load_dataset(p)
        rows = ds.padded()
        # columns 3, 4, 6, 8 renumbered 0..3; padding points at column 4
        assert rows.width == 5
        # a row of 3 entries keeps its last two slots on, after two padding slots
        assert rows.positions.tolist() == [[0, 4, 4, 4, 4], [1, 2, 4, 4, 3]]
        np.testing.assert_array_equal(rows.values[1], [ds[1][1][0], ds[1][1][1], 0, 0, ds[1][1][2]])
        np.testing.assert_array_equal(rows.sq_norms, [1.0, float(ds[1][1] @ ds[1][1])])
        assert ds.padded() is rows

    def test_kept_columns_lead_the_renumbering(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("+1 4:1\n-1 2:1 7:1\n")
        kept = load_dataset(p).padded(3)
        # columns 0, 1, 2 kept, then 3 and 6; padding points at column 5
        assert kept.width == 6
        assert kept.positions.tolist() == [[3, 5], [1, 4]]

    @pytest.mark.parametrize("nnz", range(1, 14))
    def test_padded_product_is_the_unpadded_one(self, tmp_path, nnz):
        # a row of nnz entries beside one of 16: m = 5 rows gathered into its
        # slots as slots x m and multiplied transposed, as a sketched lane
        # does, give the one-row product bit for bit
        p = tmp_path / "rows.libsvm"
        p.write_text("+1 " + " ".join(f"{j}:1" for j in range(1, nnz + 1)) + "\n"
                     "-1 " + " ".join(f"{j}:1" for j in range(1, 17)) + "\n")
        rows = load_dataset(p).padded()
        slots = np.flatnonzero(rows.positions[0] != rows.width - 1)
        assert slots.size == nnz
        rng = np.random.default_rng(nnz)
        for _ in range(50):
            Z, x = rng.standard_normal((nnz, 5)), rng.standard_normal(nnz)
            gathered, xp = np.zeros((2, 16, 5)), np.zeros((2, 16))
            gathered[:, slots], xp[:, slots] = Z, x
            lanes = (gathered.mT @ xp[..., None])[..., 0]
            np.testing.assert_array_equal(lanes[1], Z.T @ x)

class TestBenchmarkFiles:
    def test_german_shape(self):
        ds = load_dataset(dataset_or_skip("german.numer"))
        assert len(ds) == 1000
        assert ds.d == 24
        assert ds.t_neg / ds.t_pos == pytest.approx(2.33, abs=0.01)

    def test_a9a_shape(self):
        ds = load_dataset(dataset_or_skip("a9a"), d_override=123)
        assert len(ds) == 48842
        assert ds.d == 123

    def test_ijcnn1_shape(self):
        ds = load_dataset(dataset_or_skip("ijcnn1"))
        assert len(ds) == 141691
        assert ds.d == 22


class TestPermutation:
    def test_singleton(self):
        assert permutation(1, 123).tolist() == [0]

    def test_deterministic(self):
        for seed in (0, 1, 99, 2**40):
            a = permutation(257, seed)
            b = permutation(257, seed)
            assert a.tolist() == b.tolist()

    def test_is_bijection(self):
        for n in (2, 3, 17, 100):
            p = permutation(n, 5)
            assert sorted(p.tolist()) == list(range(n))

    def test_seeds_differ(self):
        # statistical sanity: distinct seeds give distinct orderings
        hits = 0
        for s in range(100):
            if permutation(5, 2 * s).tolist() != permutation(5, 2 * s + 1).tolist():
                hits += 1
        assert hits > 0

    def test_frozen_reference_ordering(self):
        # pinned output of the documented generator; any change to the
        # Philox raw stream, the masked-rejection draw, or the backward
        # Fisher-Yates order shows up here
        assert permutation(8, 42).tolist() == [2, 4, 0, 5, 1, 3, 7, 6]
        assert permutation(5, 7).tolist() == [1, 2, 0, 3, 4]

    def test_position_frequencies_roughly_uniform(self):
        counts = np.zeros((5, 5))
        for s in range(2000):
            p = permutation(5, s)
            for pos, v in enumerate(p):
                counts[pos, v] += 1
        assert np.abs(counts / 2000 - 0.2).max() < 0.05

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            permutation(0, 1)

    @staticmethod
    def frozen_loop(n, seed):
        """The numpy-array loop ``permutation`` used before it moved to Python
        lists, plus whether it ran out of its first 2n words (the refill)."""
        order = np.arange(n, dtype=np.int64)
        if n == 1:
            return order, False
        bits = np.random.Philox(key=seed)
        buf = bits.random_raw(2 * n)
        k = 0
        refilled = False
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if k == buf.size:
                    buf = bits.random_raw(n)
                    k = 0
                    refilled = True
                j = int(buf[k]) & mask
                k += 1
                if j <= i:
                    break
            order[i], order[j] = order[j], order[i]
        return order, refilled

    # ``seeds`` first seeds, or the listed ones: the band edges (n - 1 a power
    # of two, or one below), a9a-cv's CV training length and the largest key
    @pytest.mark.parametrize("n,seeds", [
        (1, 50), (2, 2000), (3, 2000), (17, 2000), (1500, 100),
        *((n, 200) for n in (4, 5, 8, 9, 64, 65)), *((n, 50) for n in (1024, 1025, 4097)),
        (1040, 100), pytest.param(1500, [2**128 - 1], id="1500-largest_key"),
    ])
    def test_equals_frozen_loop(self, n, seeds):
        for seed in range(seeds) if isinstance(seeds, int) else seeds:
            got = permutation(n, seed)
            assert got.dtype == np.int64
            assert np.array_equal(got, self.frozen_loop(n, seed)[0]), seed

    def test_refill_branch_covered(self):
        # seeds in the ranges above whose draws pass the first 2n words
        for n, seed in ((3, 1178), (17, 529)):
            want, refilled = self.frozen_loop(n, seed)
            assert refilled
            assert np.array_equal(permutation(n, seed), want)


class TestSplitFolds:
    def test_even_split(self):
        folds = split_folds(10, 5, seed=3)
        assert [len(f) for f in folds] == [2, 2, 2, 2, 2]

    def test_remainder_goes_to_first_folds(self):
        folds = split_folds(11, 5, seed=3)
        assert [len(f) for f in folds] == [3, 2, 2, 2, 2]

    def test_partition_property_sweep(self):
        for n in range(2, 201, 7):
            for k in range(2, n + 1, 5):
                folds = split_folds(n, k, seed=n * 31 + k)
                merged = np.concatenate(folds)
                assert len(merged) == n
                assert sorted(merged.tolist()) == list(range(n))
                sizes = {len(f) for f in folds}
                assert max(sizes) - min(sizes) <= 1

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            split_folds(10, 1, seed=0)
        with pytest.raises(ValueError):
            split_folds(10, 11, seed=0)

    def test_folds_of_a_loaded_dataset(self, tmp_path):
        p = tmp_path / "toy.libsvm"
        p.write_text("".join(f"+1 1:{i + 1}\n" for i in range(6)))
        ds = load_dataset(p)
        folds = split_folds(len(ds), 3, seed=0)
        assert [len(f) for f in folds] == [2, 2, 2]
