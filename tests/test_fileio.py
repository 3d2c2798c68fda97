import codecs
import errno
import hashlib
import io
import os
import re
import stat
import threading

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import pair
from spellvar import _fileio
from spellvar.cli import load_config, main
from spellvar.embeddings import load_embeddings
from spellvar._fileio import (
    UTF8,
    binary_writers,
    format_record,
    join_items,
    read_records,
    split_items,
    text_reader,
    write_records,
    write_text,
)
from spellvar.errors import ParseError
from spellvar.evaluate import load_report_rows
from spellvar.extract import read_definitions, read_pairs, write_pairs
from spellvar.vocab import build_lexicon, load_frequencies, load_lexicon, write_lexicon


def _fields(*fields):
    return list(fields)


class TestRecordCodec:
    def test_plain_record_is_written_as_is(self):
        assert format_record(["a", "b c", "d,e:f"]) == "a\tb c\td,e:f\n"

    def test_every_field_is_escaped(self):
        assert format_record(["a\\b", "t\tn\nr\r"]) == "a\\\\b\tt\\tn\\nr\\r\n"
        assert format_record(["\ufeffa", "x\ufeffy"]) == "\\za\tx\\zy\n"

    def test_read_unescapes_every_field_and_skips_blank_lines(self):
        records = list(read_records(b"a\\\\b\tt\\tn\\nr\\r\n\nx\ty\n", 2, _fields))
        assert records == [["a\\b", "t\tn\nr\r"], ["x", "y"]]

    def test_unknown_escape_reads_as_itself(self):
        assert list(read_records(b"C:\\slang\\\tx\n", 2, _fields)) == [["C:\\slang\\", "x"]]

    def test_records_written_before_u_feff_had_its_escape_read_the_same(self):
        # Such a writer left every U+FEFF as itself, and escaped the rest as now.
        raw = "ur\tx\ufeffy\nu\ufeff\ta\\\\b\\t\n".encode()
        assert list(read_records(raw, 2, _fields)) == [["ur", "x\ufeffy"], ["u\ufeff", "a\\b\t"]]

    # A backslash before any letter but the codec's reads as itself, so only a
    # lone \z in a foreign dump reads otherwise than before.
    @pytest.mark.parametrize("written, read", [
        (b"\\u2019", "\\u2019"), (b"\\b", "\\b"), (b"\\x", "\\x"), (b"\\\\z", "\\z"),
        (b"\\z", "\ufeff"),
    ], ids=["u2019", "b", "x", "escaped backslash z", "lone z"])
    def test_a_foreign_dump_reads_as_before_but_for_a_lone_z(self, written, read):
        [entry] = read_definitions(b"e1\tsuxx\tsee " + written + b" here\n")
        assert entry.definition_text == f"see {read} here"

    def test_field_count_error(self):
        with pytest.raises(ParseError, match="line 2: expected 3 tab-separated fields, found 2"):
            list(read_records(b"a\tb\tc\nd\te\n", 3, _fields))

    def test_a_record_value_error_is_the_parse_error_of_its_line(self):
        def first(a, b):
            if "\t" in a:
                raise ValueError(f"bad field {a!r}")
            return a

        records = read_records(b"ok\tb\n\nx\\ty\tz\n", 2, first)
        assert next(records) == "ok"
        with pytest.raises(ParseError, match=re.escape("line 3: bad field 'x\\ty'")) as info:
            next(records)
        assert info.value.line == 3

    def test_non_utf8_bytes_survive_a_path(self, tmp_path):
        path = tmp_path / "r.tsv"
        write_records(path, [("caf\udcff", "1")])
        assert path.read_bytes() == b"caf\xff\t1\n"
        assert list(read_records(path, 2, _fields)) == [["caf\udcff", "1"]]

    def test_items(self):
        items = ["a,b:0.5", "c\\d", "", "plain"]
        assert join_items(items) == "a\\cb:0.5,c\\\\d,,plain"
        assert split_items(join_items(items)) == items
        assert split_items("") == []


# Line ends, bytes that are not UTF-8 or that str.splitlines() would split at,
# and the byte-order mark.
_ODD_PIECES = [b"\n", b"\r", b"\r\n", b"\x85", "\u2028".encode(), b"\xff", b"\xc3", b"\xed\xa0\x80",
               codecs.BOM_UTF8]


@st.composite
def line_sources(draw):
    """Arbitrary bytes, half of them behind a line end placed within 3 bytes
    of an 8192-byte read of ``io.TextIOWrapper``."""
    raw = b"".join(draw(st.lists(st.one_of(st.binary(max_size=6), st.sampled_from(_ODD_PIECES)))))
    if draw(st.booleans()):
        edge = 8192 * draw(st.integers(1, 2)) + draw(st.integers(-3, 3))
        fill = draw(st.sampled_from([b"a", b"\xc3\xa9", b"\xff"]))
        end = draw(st.sampled_from([b"\n", b"\r", b"\r\n"]))
        raw = (fill * edge)[: edge - 1] + end + raw
    return raw


class TestTextReader:
    @seed(20261018)
    @settings(max_examples=300, deadline=None)
    @given(raw=line_sources())
    def test_lines_re_encoded_are_the_splitlines_of_the_bytes(self, raw):
        with text_reader(raw) as stream:
            lines = [line.rstrip("\n").encode(**UTF8) for line in stream]
        assert lines == raw.removeprefix(codecs.BOM_UTF8).splitlines()


def _table(table):
    return table.vocabulary, table.matrix.tobytes()


# Each loader, and an input whose second line holds a U+FEFF of its own.
_LOADERS = {
    "config": (load_config, "worst = 1\nname = a\ufeffb\n"),
    "lexicon": (load_lexicon, "your\nthe\ufeff\n"),
    "frequencies": (load_frequencies, "ur\t5\nyo\ufeffu\t3\n"),
    "pairs": (read_pairs, "ur\tyour\te1\tdouble_quote\tunvalidated\n"
                          "u\ufeff\tyou\te2\tbracket\tunvalidated\n"),
    "definitions": (lambda path: list(read_definitions(path)),
                    'ud01\tsuxx\tA spelling of "sucks".\nud02\tu\ufeff\tyou\n'),
    "report": (load_report_rows, "ur\tyour\tscored\t1\tyour:0.993884\n"
                                 "u\ufeff\tyou\tinformal_missing\t-\t\n"),
    "plain embeddings": (lambda path: _table(load_embeddings(path)),
                         "ur 1 0\nyo\ufeffu 0.9 0.1\n"),
    "headered embeddings": (lambda path: _table(load_embeddings(path, format="headered")),
                            "2 2\nur 1 0\nyo\ufeffu 0.9 0.1\n"),
}


@pytest.mark.parametrize("name", _LOADERS)
def test_a_leading_byte_order_mark_is_dropped(tmp_path, name):
    """Each loader reads a file that starts with a UTF-8 byte-order mark as it
    reads the same file without one; a U+FEFF further on reads as itself."""
    load, text = _LOADERS[name]
    paths = {}
    for kind, data in [("plain", text.encode()), ("marked", codecs.BOM_UTF8 + text.encode()),
                       ("stripped", text.replace("\ufeff", "").encode())]:
        paths[kind] = tmp_path / kind
        paths[kind].write_bytes(data)
    assert load(str(paths["marked"])) == load(str(paths["plain"]))
    assert load(str(paths["marked"])) != load(str(paths["stripped"]))


class TestPathWriters:
    def test_failed_text_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_bytes(b"old contents\n")

        def interrupted():
            yield pair("suxx", "sucks")
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_pairs(interrupted(), path)
        assert path.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["pairs.tsv"]

    def test_failed_binary_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "table.vec"
        path.write_bytes(b"old 1 2\n")
        with pytest.raises(RuntimeError):
            with binary_writers(path) as (stream,):
                stream.write(b"new 3 4\n")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old 1 2\n"
        assert os.listdir(tmp_path) == ["table.vec"]

    @pytest.mark.parametrize("old", [None, b"old\n"], ids=["new", "existing"])
    def test_longest_file_names_are_written(self, tmp_path, old):
        # 250 bytes leave no room under the 255-byte name limit for a suffix.
        path = tmp_path / ("a" * 250)
        if old is not None:
            path.write_bytes(old)
        write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert os.listdir(tmp_path) == [path.name]

    def test_new_file_mode_follows_the_umask(self, tmp_path):
        path = tmp_path / "out.tsv"
        write_records(path, [("a", "b")])
        mask = os.umask(0)
        os.umask(mask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~mask

    def test_replaced_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "out.tsv"
        path.write_text("old\n", encoding="utf-8")
        path.chmod(0o600)
        write_records(path, [("a", "b")])
        assert path.stat().st_mode & 0o777 == 0o600
        assert path.read_text(encoding="utf-8") == "a\tb\n"

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "real.tsv"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.tsv"
        link.symlink_to(target)
        write_records(link, [("a", "b")])
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == "a\tb\n"

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_records(fifo, [("a", "b")])
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"a\tb\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_outputs_are_replaced_together_and_a_fifo_written_in_place(self, tmp_path):
        path, fifo = tmp_path / "out.txt", tmp_path / "out.fifo"
        path.write_bytes(b"old\n")
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with binary_writers(path, fifo) as (text_stream, fifo_stream):
            write_text(text_stream, "new\n")
            write_text(fifo_stream, "piped\n")
            assert path.read_bytes() == b"old\n"
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"piped\n"]
        assert path.read_bytes() == b"new\n"
        assert sorted(os.listdir(tmp_path)) == ["out.fifo", "out.txt"]

    def test_a_failed_close_replaces_no_output(self, tmp_path, monkeypatch):
        # The first output's buffered bytes meet a full disk only when its
        # close flushes them, after the second output was written.
        paths = [tmp_path / "a.txt", tmp_path / "b.txt"]
        for path in paths:
            path.write_bytes(b"old\n")

        class FullDisk(io.FileIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        opened = []

        def opening(file, mode):
            opened.append(file)
            return io.BufferedWriter((FullDisk if len(opened) == 1 else io.FileIO)(file, mode))

        monkeypatch.setattr(_fileio, "open", opening, raising=False)
        with pytest.raises(OSError, match="No space left"):
            with binary_writers(*paths) as streams:
                for stream in streams:
                    stream.write(b"new\n")
        assert len(opened) == 2
        assert [path.read_bytes() for path in paths] == [b"old\n", b"old\n"]
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]

    def test_a_failed_replace_leaves_no_temporary_file(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        with pytest.raises(IsADirectoryError):
            with binary_writers(first, second) as streams:
                for stream in streams:
                    stream.write(b"new\n")
                second.mkdir()
        assert first.read_bytes() == b"new\n"
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]

    def test_an_output_under_a_missing_directory_is_named_by_its_own_path(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.txt").write_text("a b a\n", encoding="utf-8")
        assert main(["count-freq", "--corpus", "c.txt", "--freq", "nodir/f.tsv"]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'nodir/f.tsv'\n"
        )
        assert os.listdir(tmp_path) == ["c.txt"]
        with pytest.raises(FileNotFoundError) as caught:
            write_text(tmp_path / "nodir" / "f.tsv", "x\n")
        assert caught.value.errno == errno.ENOENT
        assert caught.value.filename == str(tmp_path / "nodir" / "f.tsv")

    def test_a_stray_file_with_a_former_temporary_name_is_left_alone(self, tmp_path):
        # Temporary files were once named by the target's hash and the pid, so
        # a killed run's leftover blocked a later run that got the same pid.
        path = tmp_path / "out.tsv"
        stray = tmp_path / f"{hashlib.sha256(b'out.tsv').hexdigest()}.{os.getpid()}.tmp"
        stray.write_bytes(b"left by a killed run\n")
        write_text(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert stray.read_bytes() == b"left by a killed run\n"
        assert sorted(os.listdir(tmp_path)) == sorted([path.name, stray.name])

    def test_stream_sink_stays_open(self):
        sink = io.BytesIO()
        write_records(sink, [("a", "b")])
        assert not sink.closed
        assert sink.getvalue() == b"a\tb\n"

    @pytest.mark.parametrize("write", [
        lambda sink: write_lexicon(build_lexicon(["caf\udcc3\udca9"]), sink),
        lambda sink: write_pairs([pair("caf\udcc3\udca9", "cafe")], sink),
        lambda sink: write_text(sink, "\ufeffyour\t5\n"),
    ], ids=["lexicon", "pairs", "leading-bom"])
    def test_text_that_would_not_read_back_is_refused_before_writing(self, tmp_path, write):
        path = tmp_path / "out.txt"
        path.write_bytes(b"old contents\n")
        with pytest.raises(ValueError, match="would not read back"):
            write(path)
        assert path.read_bytes() == b"old contents\n"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_text_stream_is_rejected(self):
        with pytest.raises(TypeError):
            list(read_records(io.StringIO("a\tb\n"), 2, _fields))
        with pytest.raises(TypeError):
            write_records(io.StringIO(), [("a", "b")])
