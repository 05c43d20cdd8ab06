"""``load_dataset``'s bulk path against its line path.

A plain file is parsed whole (``data._bulk_rows``); any other goes line by
line (``data._line_rows``).  The bulk path must give the line path's
:class:`Dataset` bit for bit on the toy set and on the benchmark's seed-0
files, written by ``perfbench/workloads.py`` (only read) into a temporary
directory, and on their CRLF and no-final-newline copies.  Every kind of
text that is not plain must reach the line path, which keeps its messages
and line numbers.  A derandomized fuzz over a small token alphabet checks
that both paths give the same arrays, or the same error.
"""

import importlib.util
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from costsense import data
from costsense.data import LibsvmFormatError, load_dataset

ROOT = Path(__file__).resolve().parent.parent
TOY = ROOT / "datasets" / "toy_imbalanced.libsvm"


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    with mock.patch.dict(sys.modules, {spec.name: module}):
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The toy file and the three workload files, each also with CRLF line
    ends and without its final newline."""
    workloads = _workloads()
    out = tmp_path_factory.mktemp("bulk")
    paths = {"toy": TOY}
    for name in ("ijcnn1", "a9a", "highd"):
        paths[name] = out / f"{name}.libsvm"
        workloads.generate(workloads.SHAPES[name], 0, paths[name])
    for name, path in list(paths.items()):
        text = path.read_bytes()
        assert text.endswith(b"\n") and b"\r" not in text
        paths[f"{name}-crlf"] = out / f"{name}-crlf.libsvm"
        paths[f"{name}-crlf"].write_bytes(text.replace(b"\n", b"\r\n"))
        paths[f"{name}-open"] = out / f"{name}-open.libsvm"
        paths[f"{name}-open"].write_bytes(text[:-1])
    return paths


def line_path_load(path):
    with mock.patch.object(data, "_bulk_rows", return_value=None):
        return load_dataset(path)


def assert_same(got, want):
    assert (got.d, got.t_pos, got.t_neg) == (want.d, want.t_pos, want.t_neg)
    for name in ("labels", "indptr", "positions", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def outcome(load, path):
    """The Dataset ``load`` gives, or the type and message of its error."""
    try:
        return load(path)
    except ValueError as exc:  # LibsvmFormatError and UnicodeDecodeError among them
        return type(exc), str(exc)


@pytest.mark.parametrize("name", [f"{base}{copy}" for base in ("toy", "ijcnn1", "a9a", "highd")
                                  for copy in ("", "-crlf", "-open")])
def test_bulk_path_gives_the_line_paths_dataset(files, name):
    with mock.patch.object(data, "_line_rows", wraps=data._line_rows) as line:
        got = load_dataset(files[name])
    assert not line.called
    assert_same(got, line_path_load(files[name]))


# text that is not plain, each kind once, and what the line path makes of it:
# the row count it loads, or its error message
NOT_PLAIN = [
    ("# header\n+1 1:1\n-1 2:1\n", 2),
    ("+1 1:1 # note\n-1 2:1\n", 2),
    ("+1 1:1\n\n-1 2:1\n", 2),
    ("+1 1:1\n \t\n-1 2:1\n", 2),
    ("+1 1:1\n-1 2:1\n\n", 2),
    ("+1 1:1\r 2:3\n", "line 2: unparseable label '2:3'"),
    ("+1 1:1\r-1 2:1\r", 2),
    ("+1 1:1\x0b2:1\n", 1),
    ("+1 1:1\xa0 2:1\n", 1),
    ("+1 1:1_0\n", 1),
    ("+1 1:0x1p3\n", "line 1: malformed token '1:0x1p3'"),
    ("+1 1:1\n-1 1:nan 2:1\n", "line 2: non-finite feature value '1:nan'"),
    ("+1 1:1\n-1 1:1e400\n", "line 2: non-finite feature value '1:1e400'"),
    ("+1 1:1\n2 1:1\n", "line 2: non-binary label '2'"),
    ("+1 1:1\n-0 1:1\n", "line 2: non-binary label '-0'"),
    ("+1 1:1\n1e 1:1\n", "line 2: unparseable label '1e'"),
    ("+1 1:1\n-1\n", "line 2: all-zero feature vector cannot be normalized"),
    ("+1 1:1\n-1 1:1 2\n", "line 2: malformed token '2'"),
    ("+1 1:1\n+1 1:1:1\n", "line 2: malformed token '1:1:1'"),
    ("+1 1:1\n+1 :1\n", "line 2: malformed token ':1'"),
    ("+1 1:1\n+1 1: 2:1\n", "line 2: malformed token '1:'"),
    ("+1 1:1\n+1 1.5:1\n", "line 2: malformed token '1.5:1'"),
    ("+1 1:1\n+1 1e1:1\n", "line 2: malformed token '1e1:1'"),
    ("+1 +2:1\n", 1),
    ("+1 1:1\n+1 -2:1\n", "line 2: feature index -2 < 1"),
    ("+1 1:1\n+1 0:1\n", "line 2: feature index 0 < 1"),
    ("+1 1:1\n+1 3:1 2:1\n", "line 2: feature index 2 not increasing (previous 3)"),
    ("+1 1:1\n+1 3:1 3:1\n", "line 2: feature index 3 not increasing (previous 3)"),
    ("+1 1:1\n+1 1:1.2.3\n", "line 2: malformed token '1:1.2.3'"),
    (f"+1 {2**53}:1\n", 1),
    ("+1 00000000000000001:1\n", 1),
    ("+1 1:1e308 2:1e308\n", 1),
    ("+1 1:1e-200\n", 1),
    ("+1 1:1\n-1 1:0 2:-0.0\n", "line 2: all-zero feature vector cannot be normalized"),
    ("", "no examples found"),
    ("\n", "no examples found"),
    ("  \n", "no examples found"),
]


@pytest.mark.parametrize("text,want", NOT_PLAIN)
def test_text_that_is_not_plain_reaches_the_line_path(tmp_path, text, want):
    path = tmp_path / "rows.libsvm"
    path.write_bytes(text.encode("utf-8"))
    assert data._bulk_rows(path.read_bytes()) is None
    with mock.patch.object(data, "_line_rows", wraps=data._line_rows) as line:
        got = outcome(load_dataset, path)
    line.assert_called_once()
    if isinstance(want, int):
        assert len(got) == want
        assert_same(got, line_path_load(path))
    else:
        assert got[0] is LibsvmFormatError
        assert got[1] == want or got[1] == f"{path}: {want}"


def test_undecodable_bytes_raise_as_the_line_path_does(tmp_path):
    path = tmp_path / "latin1.libsvm"
    path.write_bytes(b"+1 1:1\n-1 2:1\xe9\n")
    assert outcome(load_dataset, path) == outcome(line_path_load, path)
    assert outcome(load_dataset, path)[0] is UnicodeDecodeError


@pytest.mark.parametrize("action", ["error", "ignore", "always"])
def test_numpy_that_warns_at_unreadable_text(tmp_path, action):
    """numpy 2.0 to 2.3 warn where np.fromstring cannot read a number, and
    return the numbers before it, where later numpy raises; the bulk path
    falls back on either, whatever the warning filters, and lets no warning
    out."""
    def fromstring(text, sep):
        warnings.warn("string or file could not be read to its end due to unmatched data",
                      DeprecationWarning, stacklevel=2)
        return np.ones(1)

    path = tmp_path / "rows.libsvm"
    path.write_text("+1 1:1\n+1 1:1.2.3\n")
    with warnings.catch_warnings(record=True) as caught, \
            mock.patch.object(np, "fromstring", fromstring):
        warnings.simplefilter(action)
        got = outcome(load_dataset, path)
    assert got == (LibsvmFormatError, "line 2: malformed token '1:1.2.3'")
    assert caught == []


@pytest.mark.parametrize("text", [
    "+1 1:1\n", "1 1:1", "1.0 1:0.5 3:2\n", "-1 2:1\r\n+1 1:3 2:4",
    "  +1\t1:1  2:-.5e-3 \n-1e0 7:5. 9:+4\n", f"+1 1:1 {2**53 - 1}:2\n",
    "+1 0000000000000001:1 10:1e-150 11:1e150\n",
])
def test_plain_text_takes_the_bulk_path(tmp_path, text):
    path = tmp_path / "rows.libsvm"
    path.write_text(text, newline="")
    with mock.patch.object(data, "_line_rows", wraps=data._line_rows) as line:
        got = load_dataset(path)
    assert not line.called
    assert_same(got, line_path_load(path))


values = st.one_of(
    st.sampled_from(["1", "0", "-1", ".5", "5.", "+4", "-2.5e-3", "1E5", "0.000"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
rows = st.builds(
    lambda lead, label, gap, row: lead + label + "".join(f"{gap}{i}:{v}" for i, v in sorted(row)),
    st.sampled_from(["", " "]),
    st.sampled_from(["+1", "-1", "1", "-1.0", "+1e0"]),
    st.sampled_from([" ", "  ", "\t"]),
    st.lists(st.tuples(st.integers(1, 10**6), values), min_size=1, max_size=5,
             unique_by=lambda f: f[0]),
)
# what an edit writes: each can make plain text not plain, or leave it plain
snippets = st.sampled_from(["", " ", "\t", "\n", "\r", "\r\n", "#", ":", "e", "E", ".", "-",
                            "+", "0", "1", "00", "9" * 17, "nan", "inf", "1e400", "_", "\x0c",
                            "\xa0"])


@st.composite
def texts(draw):
    """Plain rows, then up to two edits that each cut up to two characters
    somewhere and write a snippet there."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(draw(st.lists(rows, min_size=1, max_size=6))) + draw(st.sampled_from([end, ""]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(snippets) + text[at + draw(st.integers(0, 2)):]
    return text


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.libsvm"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(text=texts())
def test_fuzz_bulk_and_line_paths_agree(fuzz_path, text):
    fuzz_path.write_bytes(text.encode("utf-8"))
    got, want = outcome(load_dataset, fuzz_path), outcome(line_path_load, fuzz_path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_same(got, want)
