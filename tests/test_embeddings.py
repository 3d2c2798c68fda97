import errno
import io
import logging
import math
import os
import sys
import threading
import tracemalloc
import warnings
from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from helpers import make_table, random_table, vector_of, write_embeddings
from spellvar import embeddings
from spellvar.embeddings import EmbeddingTable, cosine, load_embeddings, normalize
from spellvar.errors import DegenerateVectorError, ParseError

# 32 / (sqrt(14) * sqrt(77)), frozen from an arbitrary-precision computation
COS_123_456 = 0.9746318461970763
F32_MAX = float(np.finfo(np.float32).max)


def reference_load(raw: bytes, format: str = "plain"):
    """The loader's rules applied one line at a time with ``float()``, the
    reference the block parser must match: ``(vocabulary, matrix,
    duplicates)``, or the ParseError of the first bad line. One space after
    a record's last value, as word2vec's text writer leaves, is dropped."""
    lines = raw.splitlines()
    dimension = None
    start = 0
    if format == "headered":
        if not lines:
            raise ParseError("empty embedding source")
        header = lines[0].split(b" ")
        if len(header) != 2:
            raise ParseError("header must be 'count dimension'", line=1)
        try:
            int(header[0])
            dimension = int(header[1])
        except ValueError:
            raise ParseError("non-integer header field", line=1) from None
        if dimension < 1:
            raise ParseError("header dimension must be positive", line=1)
        start = 1
    tokens, seen, rows, duplicates = [], set(), [], 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line:
            continue
        fields = line.split(b" ")
        if len(fields) > 2 and fields[-1] == b"" and fields[-2] != b"":
            fields.pop()
        token = fields[0].decode("utf-8", "surrogateescape")
        if dimension is None:
            dimension = len(fields) - 1
            if dimension < 1:
                raise ParseError("first record has no values", line=lineno)
        values = fields[1:]
        if len(values) != dimension:
            raise ParseError(f"expected {dimension} values, found {len(values)}", line=lineno)
        try:
            floats = [float(f) for f in values]
        except ValueError:
            raise ParseError(f"non-numeric value in {values!r}", line=lineno) from None
        if not all(np.isfinite(floats)):
            raise ParseError("non-finite value", line=lineno)
        with np.errstate(over="ignore"):
            if not np.isfinite(np.array(floats, dtype=np.float32)).all():
                raise ParseError("value out of float32 range", line=lineno)
        if token in seen:
            duplicates += 1
            continue
        seen.add(token)
        tokens.append(token)
        rows.append(floats)
    if not rows:
        raise ParseError("empty embedding source")
    return tuple(tokens), np.array(rows, dtype=np.float64).astype(np.float32), duplicates


def outcome(load, raw: bytes, format: str = "plain"):
    """What a load gives, in a form two loaders can be compared by."""
    try:
        result = load(raw, format)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line
    if isinstance(result, EmbeddingTable):
        result = result.vocabulary, result.matrix, result.duplicates
    vocabulary, matrix, duplicates = result
    return vocabulary, matrix.dtype, matrix.shape, matrix.tobytes(), duplicates


# Value texts float() and np.loadtxt disagree on, or that are bad or at a limit.
# float() of a str, unlike of bytes, reads a non-ASCII digit or space (U+0661,
# U+FF11, NBSP, U+2000) and 0x1c-0x1f. The last two round to float64 on a
# float32 tie, which breaks toward even: 1.0 and 1.0000002, where one rounding
# straight to float32 gives 1.0000001.
ODD_VALUES = [
    b"", b"x", b"1_0", b"0x1", b"1e", b"nan", b"-inf", b"1e999", b"1e39", b"-1e39",
    b"3.4028235e38", b"3.4028236e38", b"1e-50", b"2.5e-45", b"+.5", b"5.", b"-0",
    b"\xff", b"\xc2\xa01", b"1\x1c", b"\x1f2", b"\x0b1", b"1\x0c", b"\t1", b"1\t2", b"1\x00",
    "\u0661".encode(), "\uff11".encode(), "1\u2000".encode(),
    b"1.00000005960464477625798673798840354720", b"1.00000017881393432530451326201159645279",
]
TOKENS = [b"a", b"b", b"A", b"", b"caf\xe9", b"\xff"]


@st.composite
def embedding_sources(draw):
    """A small embedding source, plain or headered, often malformed."""
    dimension = draw(st.integers(1, 3))
    value = st.one_of(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    ).map(lambda v: repr(v).encode())
    record = st.builds(
        lambda token, values, end: token + b" " + b" ".join(values) + end,
        st.sampled_from(TOKENS),
        st.lists(
            st.one_of(value, value, value, st.sampled_from(ODD_VALUES)),
            min_size=dimension, max_size=dimension,
        ),
        st.sampled_from([b"", b"", b"", b" ", b"  "]),
    )
    odd_line = st.sampled_from([b"", b" ", b"a", b"a ", b"a  1", b"b 1 2 3 4"])
    lines = draw(st.lists(st.one_of(record, record, record, odd_line), max_size=8))
    if draw(st.booleans()):
        header = st.sampled_from([b"%d %d" % (len(lines), dimension), b"x 1", b"2", b"2 0", b""])
        lines.insert(0, draw(header))
    ends = draw(st.lists(
        st.sampled_from([b"\n", b"\r", b"\r\n"]), min_size=len(lines), max_size=len(lines)
    ))
    raw = b"".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        raw = raw.rstrip(b"\r\n")
    return raw


@contextmanager
def split_forced():
    """Load a path in two processes however small it is, as where two CPUs are allowed;
    yields a mock of ``os.fork`` that counts the children forked."""
    with (
        mock.patch.object(embeddings, "SPLIT_BYTES", 0),
        mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}, create=True),
        mock.patch.object(os, "fork", side_effect=os.fork) as fork,
    ):
        yield fork


@contextmanager
def second_thread():
    """A Python thread beside the main one, alive until the block ends."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_between(first: bytes, second: bytes) -> bytes:
    """``first + second``, then as many blank lines as put the middle byte on ``first``'s
    closing line feed, so that a load split at the first line feed from the middle on
    parses ``first`` in the parent and ``second`` in the child."""
    raw = first + second + b"\n" * (len(first) - len(second) - 2)
    assert first.endswith(b"\n") and len(raw) // 2 == len(first) - 1
    return raw


def split_outcome(tmp_path, raw: bytes, format: str = "plain"):
    """``outcome`` of a split load of ``raw`` from a file, which forks one child and
    leaves none."""
    path = tmp_path / "vectors.txt"
    path.write_bytes(raw)
    with split_forced() as fork:
        got = outcome(load_embeddings, path, format)
    assert fork.call_count == 1
    assert_no_child()
    return got


class TestLoad:
    def test_plain_minimal(self):
        table = load_embeddings(b"a 1 0\nb 0 1\n")
        assert table.dimension == 2
        assert table.vocabulary == ("a", "b")

    def test_headered(self):
        table = load_embeddings(b"2 3\na 1 0 0\nb 0 1 0\n", format="headered")
        assert table.dimension == 3
        assert len(table) == 2

    def test_dimension_mismatch_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(b"a 1 0\nb 1 2 3\n")

    def test_headered_dimension_enforced(self):
        with pytest.raises(ParseError, match="line 3"):
            load_embeddings(b"2 2\na 1 0\nb 1 2 3\n", format="headered")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="line 1"):
            load_embeddings(b"a 1 x\n")

    def test_non_finite_value(self):
        with pytest.raises(ParseError, match="line 2"):
            load_embeddings(b"a 1 0\nb nan 0\n")

    def test_empty_source(self):
        with pytest.raises(ParseError, match="empty"):
            load_embeddings(b"")
        with pytest.raises(ParseError, match="empty"):
            load_embeddings(b"", format="headered")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="line 1"):
            load_embeddings(b"2\na 1\n", format="headered")
        with pytest.raises(ParseError, match="line 1"):
            load_embeddings(b"two 3\na 1 2 3\n", format="headered")
        # int() of a str would read the Arabic-Indic digit three as 3.
        with pytest.raises(ParseError, match="^line 1: non-integer header field$"):
            load_embeddings("\u0663 1\na 1\nb 2\nc 3\n".encode(), format="headered")

    def test_duplicates_keep_first_and_tally(self):
        table = load_embeddings(b"a 1 0\na 5 5\nb 0 1\n")
        assert table.vocabulary == ("a", "b")
        assert table.duplicates == 1
        np.testing.assert_array_equal(vector_of(table, "a"), [1.0, 0.0])

    def test_blank_lines_skipped(self):
        table = load_embeddings(b"a 1 0\n\nb 0 1\n")
        assert table.vocabulary == ("a", "b")

    def test_opaque_token_bytes(self):
        # invalid UTF-8 in a token must survive load + write unchanged
        raw = b"caf\xe9 1 0\nplain 0 1\n"
        table = load_embeddings(raw)
        sink = io.BytesIO()
        write_embeddings(table, sink)
        assert sink.getvalue().splitlines()[0].startswith(b"caf\xe9 ")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            load_embeddings(b"a 1\n", format="binary")

    @pytest.mark.parametrize("raw, line", [
        (b"a 1 0\nb 1e39 0.5\n", 2),
        (b"a -3.4028236e38 0\n", 1),
        (b"a 1 0\nb 0 -1e39\nc x 0\n", 2),  # the first bad line, whatever its fault
    ])
    def test_value_past_float32_range(self, raw, line):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as caught:
                load_embeddings(raw)
        assert str(caught.value) == f"line {line}: value out of float32 range"
        assert caught.value.line == line

    @pytest.mark.parametrize("format, header", [("plain", b""), ("headered", b"2 2\n")])
    def test_one_space_after_the_last_value_is_dropped(self, format, header):
        # word2vec's text writer prints each value as "%lf ", fastText's .vec
        # writer likewise: a record may end in one space, not in two.
        records = [b"a 0.1 0.2", b"b -1 2.5e-3"]
        clean = load_embeddings(header + b"\n".join(records) + b"\n", format)
        spaced = load_embeddings(header + b" \n".join(records) + b" \n", format)
        assert spaced.vocabulary == clean.vocabulary == ("a", "b")
        assert spaced.matrix.tobytes() == clean.matrix.tobytes()
        line = 1 + len(header.splitlines())
        with pytest.raises(ParseError, match=f"^line {line}: "):
            load_embeddings(header + b"  \n".join(records) + b"  \n", format)

    def test_largest_float32_loads(self):
        table = load_embeddings(b"a 3.4028235e38 -3.4028235e38\n")
        assert table.matrix.tolist() == [[F32_MAX, -F32_MAX]]


class TestBlockParser:
    """The streaming block parser against the line-by-line reference."""

    @seed(20261018)
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        raw=embedding_sources(),
        format=st.sampled_from(["plain", "headered"]),
        block=st.integers(1, 3),
        split=st.booleans(),
    )
    def test_matches_line_by_line_reference(self, tmp_path, raw, format, block, split):
        # The source is the bytes, or a file loaded in two processes.
        with (
            mock.patch.object(embeddings, "BLOCK_LINES", block),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error")
            got = split_outcome(tmp_path, raw, format) if split else outcome(
                load_embeddings, raw, format)
        assert got == outcome(reference_load, raw, format)

    def test_odd_values_inside_a_block(self):
        for value in ODD_VALUES:
            raw = b"a 1 2\nb 3 " + value + b"\nc 4 5\n"
            assert outcome(load_embeddings, raw) == outcome(reference_load, raw), value

    @pytest.mark.parametrize("shift", range(-3, 4))
    def test_crlf_split_across_the_chunk_read(self, shift):
        # The first line's CR is byte 8192 * reads - 1 + shift of the source:
        # at shift 0 the CR ends one 8192-byte read of the text reader and
        # its LF starts the next.
        for reads in (1, 2, 3):
            first = b"a" * (8192 * reads - 3 + shift) + b" 1"
            raw = first + b"\r\nb 2\r\nc x\r\n"
            with pytest.raises(ParseError, match="^line 3: non-numeric"):
                load_embeddings(raw)
            table = load_embeddings(raw[:-6])
            assert outcome(load_embeddings, raw[:-6]) == outcome(reference_load, raw[:-6])
            assert len(table) == 2

    def test_peak_memory_is_below_the_text_size(self, monkeypatch):
        # Beside the matrix and the tokens the loader holds one block of
        # records; shrinking it lets a small file show that bound.
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 64)
        rows, dimension = 4000, 10
        value = b"-0." + b"1234567890" * 10
        line = b" ".join([value] * dimension)
        raw = b"".join(b"w%d %s\n" % (i, line) for i in range(rows))
        assert len(raw) >= 5 * rows * dimension * 4
        tracemalloc.start()
        try:
            table = load_embeddings(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.matrix.shape == (rows, dimension)
        assert peak < len(raw)

    def test_peak_memory_is_the_table_plus_two_block_texts(self, monkeypatch):
        # Beside what the table keeps (its matrix and its tokens) the loader
        # holds one block's values texts and, while it scans them for
        # 0x1c-0x1f, their joined copy: 2.02 block texts here. Keeping that
        # copy through np.loadtxt would take 2.17, and each line kept whole
        # as well, 3.15.
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 64)
        rows, dimension = 1000, 100
        value = b"-0." + b"1234567890" * 10
        line = b" ".join([value] * dimension)
        raw = b"".join(b"w%d %s\n" % (i, line) for i in range(rows))
        block_text = len(raw) // rows * embeddings.BLOCK_LINES
        tracemalloc.start()
        try:
            table = load_embeddings(raw)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.matrix.shape == (rows, dimension)
        assert peak < kept + 2.1 * block_text

    @pytest.mark.parametrize("split", [False, True], ids=["one process", "two processes"])
    def test_peak_memory_on_repeats_is_bounded_by_the_matrix(
            self, monkeypatch, tmp_path, split):
        # A repeated token's row is dropped with its block: 2.15 and 2.17 block texts here.
        # Keeping every row to drop the repeats at the end took 4.66 in one process.
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 64)
        rows, tokens, dimension = 4000, 10, 100
        line = b" ".join([b"-0." + b"1234567890" * 10] * dimension)
        raw = b"".join(b"w%d %s\n" % (i % tokens, line) for i in range(rows))
        block_text = len(raw) // rows * embeddings.BLOCK_LINES
        path = tmp_path / "vectors.txt"
        path.write_bytes(raw)
        with split_forced() if split else nullcontext():
            tracemalloc.start()
            try:
                table = load_embeddings(path if split else raw)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert (len(table), table.duplicates) == (tokens, rows - tokens)
        assert peak < table.matrix.nbytes + 2.5 * block_text


class TestSplitLoad:
    """A path loaded in two processes: the parent parses the lines before the first line
    feed from the middle byte on, a forked child those after it."""

    @pytest.mark.parametrize("first, second, message", [
        # A bad line in each part: the parent's is the first in the file.
        (b"a 1 2\nb 1 x\n", b"c 1 y\n", "line 2: non-numeric value in [b'1', b'x']"),
        # Blank lines ended by CRLF and CR just before the split are counted.
        (b"a 1 2\r\n\r\n\r\r\n", b"b 1 x\n", "line 5: non-numeric value in [b'1', b'x']"),
        (b"a 1 2\r\r\n\r\n\n", b"b 1\r\n", "line 5: expected 2 values, found 1"),
        # The child reads another dimension from its first record.
        (b"a 1 2\nb 3 4\n", b"c 1 2 3\n", "line 3: expected 2 values, found 3"),
        (b"\n\n\n\n\n\n\n\n\n\n", b"c\nd 1\n", "line 11: first record has no values"),
    ])
    def test_first_bad_line_across_the_split(self, tmp_path, first, second, message):
        raw = split_between(first, second)
        got = split_outcome(tmp_path, raw)
        assert got == ("ParseError", message, int(message.split()[1][:-1]))
        assert got == outcome(reference_load, raw) == outcome(load_embeddings, raw)

    @pytest.mark.parametrize("first, second, vocabulary, duplicates", [
        (b"a 1 2\nb 3 4\n\n", b"a 5 6\nc 7 8\n", ("a", "b", "c"), 1),
        (b"a 1 2\nb 3 4\n", "\ufeffc 5 6\n".encode(), ("a", "b", "\ufeffc"), 0),
        (b"\n\n\n\n\n\n\n\n", b"a 1 2\n", ("a",), 0),
        # The child's row for a token held here is dropped, and the rows around it kept.
        (b"a 1 2\nb 3 4\n" + b"\n" * 8, b"c 5 6\nb 9 0\nd 7 8\n", ("a", "b", "c", "d"), 1),
        # Two records, not the child's one token, count toward the duplicates.
        (b"a 1 2\nb 3 4\nx 0 1\ny 1 0\n\n", b"c 5 6\nc 7 8\nb 9 0\n",
         ("a", "b", "x", "y", "c"), 2),
    ], ids=["repeated token", "U+FEFF opens the child's part", "no record before the split",
            "a repeat inside the child's part", "repeats in the child's part"])
    def test_table_across_the_split(self, tmp_path, first, second, vocabulary, duplicates):
        raw = split_between(first, second)
        got = split_outcome(tmp_path, raw)
        assert got[0] == vocabulary and got[-1] == duplicates
        assert got == outcome(reference_load, raw) == outcome(load_embeddings, raw)

    def test_a_byte_order_mark_is_dropped_only_at_the_start_of_the_file(self, tmp_path):
        raw = split_between(b"\xef\xbb\xbfa 1 2\nb 3 4\n", "\ufeffc 5 6\n".encode())
        got = split_outcome(tmp_path, raw)
        assert got[0] == ("a", "b", "\ufeffc")
        assert got == outcome(load_embeddings, raw)

    def test_header_count_mismatch_is_one_warning(self, tmp_path, caplog):
        raw = split_between(b"5 2\na 1 2\nb 3 4\n", b"c 5 6\nd 7 8\n")
        with caplog.at_level(logging.INFO, logger="spellvar.embeddings"):
            got = split_outcome(tmp_path, raw, "headered")
        assert got[0] == ("a", "b", "c", "d")
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
            ("WARNING", "header declares 5 records, found 4")
        ]

    @pytest.mark.parametrize("rows", [1000, 8000])
    def test_the_parent_holds_the_table_plus_two_block_texts(self, monkeypatch, tmp_path, rows):
        # TestBlockParser's bound for one process holds for the parent, which takes the
        # child's rows a block at a time, not its text: 1.64 and 1.35 block texts here.
        # A finiteness check with a bool per value took 1.83 at 8,000 rows, and holding
        # the child's part whole 4.18.
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 64)
        dimension = 100
        line = b" ".join([b"-0." + b"1234567890" * 10] * dimension)
        raw = b"".join(b"w%d %s\n" % (i, line) for i in range(rows))
        block_text = len(raw) // rows * embeddings.BLOCK_LINES
        path = tmp_path / "vectors.txt"
        path.write_bytes(raw)
        with split_forced() as fork:
            tracemalloc.start()
            try:
                table = load_embeddings(path)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert fork.call_count == 1
        assert table.matrix.shape == (rows, dimension)
        assert peak < kept + 2.1 * block_text

    @pytest.mark.xfail(sys.version_info >= (3, 12), strict=True, reason=(
        "ROADMAP item 5: from Python 3.12 os.fork() warns (DeprecationWarning) in a process "
        "with a native thread beside the main one, such as a BLAS thread pool"))
    def test_a_split_load_forks_once_and_warns_nothing(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_bytes(split_between(b"a 1 2\nb 3 4\n\n\n", b"c 5 6\nd 7 8\n"))
        with split_forced() as fork, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            table = load_embeddings(path)
        assert fork.call_count == 1
        assert [str(w.message) for w in caught] == []
        assert table.vocabulary == ("a", "b", "c", "d")
        assert_no_child()

    @pytest.mark.parametrize("case", [
        "a second thread", "one CPU", "bytes", "an open binary file", "a path below SPLIT_BYTES"])
    def test_no_fork_where_the_load_must_not_split(self, tmp_path, case):
        # A child forked while another thread holds a lock would find it held for good.
        raw = split_between(b"a 1 2\nb 3 4\n\n\n", b"c 5 6\na 7 8\n")
        path = tmp_path / "vectors.txt"
        path.write_bytes(raw)
        guard = {
            "a second thread": second_thread(),
            "one CPU": mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True),
            "a path below SPLIT_BYTES": mock.patch.object(embeddings, "SPLIT_BYTES", len(raw) + 1),
        }.get(case, nullcontext())
        with split_forced() as fork, guard, path.open("rb") as file:
            source = {"bytes": raw, "an open binary file": file}.get(case, path)
            got = outcome(lambda _, format: load_embeddings(source, format), raw)
        assert fork.call_count == 0
        assert got == outcome(reference_load, raw) == outcome(load_embeddings, raw)
        assert got[0] == ("a", "b", "c")

    def test_a_parse_error_in_the_first_part_leaves_no_child(self, tmp_path):
        # The child's part is long enough to be still parsing when the parent fails.
        second = b"".join(b"w%d 1 2\n" % i for i in range(20000))
        raw = b"a 1 2\nb x 2\n" + second
        path = tmp_path / "vectors.txt"
        path.write_bytes(raw)
        with split_forced() as fork, pytest.raises(ParseError, match="^line 2: non-numeric"):
            load_embeddings(path)
        assert fork.call_count == 1
        assert_no_child()

    @pytest.mark.parametrize("second", [b"c 5 6\na 7 8\n", b"c 5 6\nd 7 x\n"])
    def test_a_child_that_dies_leaves_no_child_and_its_part_is_parsed_here(
            self, tmp_path, monkeypatch, second):
        parent, parse_block = os.getpid(), embeddings._parse_block

        def dying(*args):
            if os.getpid() != parent:
                os._exit(1)
            return parse_block(*args)

        monkeypatch.setattr(embeddings, "_parse_block", dying)
        raw = split_between(b"a 1 2\nb 3 4\n\n\n", second)
        assert split_outcome(tmp_path, raw) == outcome(reference_load, raw)

    def test_the_child_rows_of_tokens_held_here_are_dropped_a_block_at_a_time(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 2)
        raw = split_between(b"a 1 2\nb 3 4\n" + b"\n" * 32,
                            b"c 5 6\na 0 0\nd 7 8\ne 9 9\nb 0 0\nf 1 1\ng 2 2\n")
        got = split_outcome(tmp_path, raw)
        assert got[0] == tuple("abcdefg") and got[-1] == 2
        assert got == outcome(reference_load, raw)

    @pytest.mark.parametrize("cut", [0, 10, 24, 32, 35, 38, 44, 46, 48, 50, 54, 61])
    def test_a_child_payload_cut_short_is_parsed_here(self, tmp_path, monkeypatch, cut):
        # The child's 62 bytes: a 32-byte head, "c\nd\ne\n", then 3 rows of 8 bytes, read
        # one at a time, so a cut inside them comes after some are on the matrix.
        monkeypatch.setattr(embeddings, "BLOCK_LINES", 1)
        fdopen = os.fdopen

        class CutPipe:
            """The child's end of the pipe, which writes only the first ``cut`` bytes."""

            def __init__(self, pipe):
                self.pipe, self.left = pipe, cut

            def write(self, data):
                data = memoryview(data).cast("B")[: self.left]
                self.left -= len(data)
                self.pipe.write(data)

            def writelines(self, parts):
                for part in parts:
                    self.write(part)

        def cutting(fd, mode="r", *args, **kwargs):
            pipe = fdopen(fd, mode, *args, **kwargs)
            return CutPipe(pipe) if mode == "wb" else pipe

        monkeypatch.setattr(os, "fdopen", cutting)
        raw = split_between(b"a 1 2\nb 3 4\nx 0 1\ny 1 0\n" + b"\n" * 20,
                            b"c 5 6\nd 7 8\ne 9 0\n")
        assert split_outcome(tmp_path, raw) == outcome(load_embeddings, raw)

    @pytest.mark.parametrize("first", [b"a 1 2\nb 3 4\n\n\n", b"a 1 2\nb 3 x\n\n\n"],
                             ids=["clean", "bad line before the split"])
    def test_a_failed_fork_closes_the_pipe_and_parses_the_whole_file_here(self, tmp_path, first):
        raw = split_between(first, b"c 5 6\na 7 8\n")
        path = tmp_path / "vectors.txt"
        path.write_bytes(raw)
        descriptors = len(os.listdir("/proc/self/fd"))
        with split_forced() as fork:
            fork.side_effect = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            got = outcome(load_embeddings, path)
        assert fork.call_count == 1
        assert len(os.listdir("/proc/self/fd")) == descriptors
        assert got == outcome(reference_load, raw)


class TestLoadAtDefaults:
    """The loader as the CLI runs it: its own block size and log levels."""

    def test_first_bad_line_named_across_default_blocks(self):
        # Over two full blocks: a float32 overflow late in block 1 and a
        # non-numeric value in block 2, each a line of its own.
        rng = np.random.default_rng(20261018)
        rows = rng.normal(scale=10.0, size=(2 * embeddings.BLOCK_LINES + 100, 3))
        lines = [
            b"w%d %s" % (i, b" ".join(repr(float(v)).encode() for v in row))
            for i, row in enumerate(rows)
        ]
        overflow, non_numeric = embeddings.BLOCK_LINES - 5, embeddings.BLOCK_LINES + 500
        bad = list(lines)
        bad.insert(non_numeric, b"bad 1 x 2")
        bad.insert(overflow, b"big 1 1e39 2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for raw, message in [
                (bad, f"line {overflow + 1}: value out of float32 range"),
                (bad[:overflow] + bad[overflow + 1:],
                 f"line {non_numeric + 1}: non-numeric value in [b'1', b'x', b'2']"),
            ]:
                raw = b"\n".join(raw) + b"\n"
                with pytest.raises(ParseError) as caught:
                    load_embeddings(raw)
                assert str(caught.value) == message
                assert outcome(load_embeddings, raw) == outcome(reference_load, raw)
            clean = b"\n".join(lines) + b"\n"
            table = load_embeddings(clean)
        assert table.matrix.shape == (len(lines), 3)
        assert outcome(load_embeddings, clean) == outcome(reference_load, clean)

    def test_clean_ascii_source_never_reaches_the_line_parser(self, monkeypatch):
        # Every block of a clean file is vouched for by np.loadtxt alone.
        def refuse(record, dimension):
            raise AssertionError(f"line {record[0]} parsed line by line")

        monkeypatch.setattr(embeddings, "_parse_row", refuse)
        rows = np.random.default_rng(27).normal(size=(2 * embeddings.BLOCK_LINES + 100, 3))
        raw = b"".join(
            b"w%d %s\n" % (i, b" ".join(repr(float(v)).encode() for v in row))
            for i, row in enumerate(rows)
        )
        table = load_embeddings(raw)
        assert table.matrix.tolist() == rows.astype(np.float32).tolist()

    @pytest.mark.parametrize("declared, logged", [
        (2, []),
        (3, [("WARNING", "header declares 3 records, found 2")]),
    ])
    def test_header_count_mismatch_is_a_warning(self, caplog, declared, logged):
        with caplog.at_level(logging.INFO, logger="spellvar.embeddings"):
            load_embeddings(b"%d 2\na 1 0\nb 0 1\n" % declared, format="headered")
        assert [(r.levelname, r.getMessage()) for r in caplog.records] == logged


class TestRoundTrip:
    def test_load_write_load_identical(self):
        table = load_embeddings(b"a 0.1 -2.5e-3\nb 7 1e6\n")
        sink = io.BytesIO()
        write_embeddings(table, sink)
        again = load_embeddings(sink.getvalue())
        assert again.vocabulary == table.vocabulary
        np.testing.assert_array_equal(again.matrix, table.matrix)

    def test_headered_round_trip(self):
        table = load_embeddings(b"2 2\na 1 2\nb 3 4\n", format="headered")
        sink = io.BytesIO()
        write_embeddings(table, sink, format="headered")
        again = load_embeddings(sink.getvalue(), format="headered")
        assert again.vocabulary == table.vocabulary
        np.testing.assert_array_equal(again.matrix, table.matrix)

    @given(
        st.lists(
            st.lists(
                st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
                min_size=3,
                max_size=3,
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50)
    def test_round_trip_property(self, rows):
        vectors = {f"t{i}": row for i, row in enumerate(rows)}
        table = make_table(vectors)
        sink = io.BytesIO()
        write_embeddings(table, sink)
        again = load_embeddings(sink.getvalue())
        assert again.vocabulary == table.vocabulary
        np.testing.assert_array_equal(again.matrix, table.matrix)


class TestNormalize:
    def test_three_four_five(self):
        table = normalize(make_table({"a": [3.0, 4.0]}))
        np.testing.assert_allclose(vector_of(table, "a"), [0.6, 0.8], atol=1e-7)

    def test_zero_row_marked_degenerate(self):
        table = normalize(make_table({"a": [0.0, 0.0], "b": [1.0, 1.0]}))
        np.testing.assert_array_equal(vector_of(table, "a"), [0.0, 0.0])
        assert table.degenerate.tolist() == [True, False]

    def test_exact_unit_rows_unchanged(self):
        table = normalize(make_table({"x": [1.0, 0.0], "y": [0.0, -1.0]}))
        np.testing.assert_allclose(vector_of(table, "x"), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(vector_of(table, "y"), [0.0, -1.0], atol=1e-12)

    def test_rows_unit_after_normalize(self):
        rng = np.random.default_rng(3)
        vectors = {f"t{i}": list(rng.normal(size=4) * 100) for i in range(20)}
        table = normalize(make_table(vectors))
        norms = np.linalg.norm(table.matrix.astype(np.float64), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)

    def test_holds_no_float64_copy_beside_its_quotient(self):
        # Rows are done a block at a time, so beside the float32 result the
        # work holds one float64 square of a block, not a whole-matrix copy.
        raw = random_table(np.random.default_rng(7), 3 * embeddings.BLOCK_LINES + 500, 50)
        work = raw.matrix.astype(np.float64)
        expected = (work / np.linalg.norm(work, axis=1)[:, None]).astype(np.float32)
        del work
        tracemalloc.start()
        try:
            table = normalize(raw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(table.matrix, expected)
        assert peak < table.matrix.nbytes + 1.5 * embeddings.BLOCK_LINES * 50 * 8


class TestVectorOf:
    def test_hit(self):
        table = make_table({"a": [1.0, 0.0]})
        np.testing.assert_array_equal(vector_of(table, "a"), [1.0, 0.0])

    def test_miss(self):
        table = make_table({"a": [1.0, 0.0]})
        assert vector_of(table, "zzz") is None

    def test_case_sensitive(self):
        table = make_table({"Sucks": [1.0, 0.0], "sucks": [0.0, 1.0]})
        np.testing.assert_array_equal(vector_of(table, "Sucks"), [1.0, 0.0])
        np.testing.assert_array_equal(vector_of(table, "sucks"), [0.0, 1.0])


class TestCosine:
    def test_identical(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_frozen_value(self):
        assert cosine([1, 2, 3], [4, 5, 6]) == pytest.approx(COS_123_456, abs=1e-6)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            cosine([0.0, 0.0], [1.0, 0.0])

    @pytest.mark.parametrize("m", [2, 7, 11, -2, -7, -11])
    def test_quotient_past_one_is_clamped_to_exactly_one(self, m):
        # The correctly rounded sums of q and its float32 multiple m·q give a
        # quotient just past ±1; the score is exactly 1.0 or -1.0.
        q = np.array([0.7, 0.3, 0.1], dtype=np.float32)
        u, v = q.astype(np.float64), (m * q).astype(np.float64)
        uu, vv = math.fsum((u * u).tolist()), math.fsum((v * v).tolist())
        assert abs(math.fsum((u * v).tolist()) / (math.sqrt(uu) * math.sqrt(vv))) > 1.0
        assert cosine(u, v) == cosine(v, u) == math.copysign(1.0, m)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine([1.0], [1.0, 0.0])

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=6),
        st.data(),
    )
    @settings(max_examples=200)
    def test_symmetry_exact(self, u, data):
        v = data.draw(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=len(u), max_size=len(u))
        )
        if np.linalg.norm(u) == 0 or np.linalg.norm(v) == 0:
            return
        assert cosine(u, v) == cosine(v, u)

    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=6),
        st.floats(0.001, 1000),
    )
    @settings(max_examples=200)
    def test_positive_scaling_gives_one(self, u, c):
        if np.linalg.norm(u) < 1e-6:
            return
        scaled = [c * x for x in u]
        assert cosine(u, scaled) == pytest.approx(1.0, abs=1e-9)
        negated = [-c * x for x in u]
        assert cosine(u, negated) == pytest.approx(-1.0, abs=1e-9)

    def test_normalized_dot_equals_cosine(self):
        rng = np.random.default_rng(11)
        vectors = {f"t{i}": list(rng.normal(size=5)) for i in range(30)}
        table = normalize(make_table(vectors))
        m = table.matrix.astype(np.float64)
        for i in range(0, 30, 3):
            for j in range(1, 30, 4):
                assert cosine(m[i], m[j]) == pytest.approx(
                    float(np.dot(m[i], m[j])), abs=1e-6
                )


class TestTableInvariants:
    def test_duplicate_vocabulary_rejected(self):
        # The token named is the first one seen a second time.
        for vocabulary, named in [(("a", "a"), "'a'"), (("a", "b", "b", "a"), "'b'")]:
            with pytest.raises(ValueError, match=f"^duplicate token in vocabulary: {named}$"):
                EmbeddingTable(
                    dimension=2,
                    vocabulary=vocabulary,
                    matrix=np.zeros((len(vocabulary), 2), dtype=np.float32),
                )

    def test_shape_mismatch_rejected(self):
        # So are a zero dimension with a matching (n, 0) matrix, and a NaN or an infinity,
        # in the first row or the last.
        for dimension, matrix, message in [
            (3, np.zeros((1, 2), dtype=np.float32), "^matrix shape "),
            (0, np.zeros((1, 0), dtype=np.float32), "^dimension must be positive, got 0$"),
            (2, np.array([[1.0, np.nan]], dtype=np.float32), "^matrix contains non-finite"),
            (2, np.array([[-np.inf, 0.0]], dtype=np.float32), "^matrix contains non-finite"),
        ] + [
            (2, np.array([[1.0, 2.0], [3.0, bad]], dtype=np.float32),
             "^matrix contains non-finite entries$")
            for bad in (np.nan, np.inf, -np.inf)
        ]:
            with pytest.raises(ValueError, match=message):
                EmbeddingTable(dimension=dimension, vocabulary=("a", "b")[: len(matrix)],
                               matrix=matrix)

    def test_the_finiteness_check_holds_no_array_of_the_matrix_size(self):
        # A bool per value was a quarter of a float32 matrix; min and max hold 0.002 here.
        matrix = np.ones((64, 20_000), dtype=np.float32)
        vocabulary = tuple(f"t{i}" for i in range(len(matrix)))
        tracemalloc.start()
        try:
            EmbeddingTable(dimension=20_000, vocabulary=vocabulary, matrix=matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * matrix.nbytes

    def test_degenerate_flags_exactly_the_zero_rows(self):
        tiny = float(np.float32(1.4e-45))  # the smallest float32 subnormal
        table = make_table({"z": [0.0, 0.0], "m": [-0.0, 0.0], "t": [tiny, 0.0], "u": [0.0, -1.0]})
        assert table.degenerate.tolist() == [True, True, False, False]

    def test_matrix_read_only(self):
        table = make_table({"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 9.0
