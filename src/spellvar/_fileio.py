"""File access for the package: the one place that opens files, and the
tab-separated record codec.

Opening. Every loader reads a path, raw bytes or an open binary file object;
writers take a path or an open binary file object, and a text stream fails
with TypeError. Only paths are opened (and closed) here. Text is UTF-8 with
``surrogateescape``: a byte that is not UTF-8 reads as a lone surrogate and
is written back as the same byte. A path is written through a new sibling
temporary file, randomly named, that replaces it only once the whole output
is written, so a failed write leaves the old file as it was; ``binary_writers``
extends that to every output of one command. ``text_reader`` is the one place
that decodes, dropping a leading UTF-8 byte-order mark, and ``write_text`` the
one place that encodes, writing none; a caller's stream stays open.

Records. A record is one line of tab-separated fields, ended by a line feed only
(one carriage return before it is dropped; a lone one is field data). In every field a
backslash, tab, line feed, carriage return and U+FEFF are written ``\\\\``, ``\\t``,
``\\n``, ``\\r`` and ``\\z``, so no record file opens with a byte-order mark; a
backslash before any other character reads as itself. A list nested in one field
(``join_items``) is comma-separated, and a backslash or comma inside an item is
written ``\\\\`` or ``\\c`` before the field itself is escaped. ``read_records``
builds each record, naming the line of a wrong field count or of the builder's ValueError
(ParseError). A count or rank field reads only as ``str`` writes a positive int (``count_field``).
"""

from __future__ import annotations

import io
import os
import re
import stat
from contextlib import ExitStack, contextmanager, suppress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ParseError

UTF8 = {"encoding": "utf-8", "errors": "surrogateescape"}  # text_reader also drops a BOM
_BACKSLASH_RE = re.compile(r"\\(.)", re.DOTALL)


def _escaper(letters: dict[str, str]):
    """``(escape, unescape)`` writing each key of ``letters`` as a backslash
    and its letter."""
    table = str.maketrans({c: "\\" + e for c, e in letters.items()})
    back = {e: c for c, e in letters.items()}

    def unescape(text: str) -> str:
        return _BACKSLASH_RE.sub(lambda m: back.get(m[1], m[0]), text)

    return (lambda text: text.translate(table)), unescape


_escape, _unescape = _escaper({"\\": "\\", "\t": "t", "\n": "n", "\r": "r", "\ufeff": "z"})
_escape_item, _unescape_item = _escaper({"\\": "\\", ",": "c"})


@contextmanager
def binary_writers(*sinks):
    """A binary stream per sink. A path is written in place only when it
    exists and is not a regular file (a device or a pipe, which cannot be
    replaced); any other path through a new temporary file beside it, with a
    random fixed-length name so it fits however long the name is. Every
    stream is written and closed before a temporary file replaces its path,
    keeping its permission bits, so a failed write or close replaces none."""
    renames = []
    try:
        with ExitStack() as stack:  # closes every file, even after one fails
            yield [_open(sink, stack, renames) for sink in sinks]
        for temp, path in renames:
            os.replace(temp, path)
    except BaseException:
        for temp, _ in renames:
            with suppress(FileNotFoundError):  # replaced its path already
                os.remove(temp)
        raise


def _open(sink, stack, renames):
    if not isinstance(sink, (str, Path)):
        return sink
    path = os.path.realpath(sink)
    old = os.stat(path) if os.path.exists(path) else None
    if old is not None and not stat.S_ISREG(old.st_mode):
        return stack.enter_context(open(path, "wb"))
    temp = os.path.join(os.path.dirname(path), f"{os.urandom(16).hex()}.tmp")
    try:
        stream = stack.enter_context(open(temp, "xb"))
    except OSError as exc:  # name the output, not its temporary file
        exc.filename = os.fspath(sink)
        raise
    renames.append((temp, path))
    if old is not None:
        os.chmod(temp, stat.S_IMODE(old.st_mode))
    return stream


class _Head(io.FileIO):
    """A file that reads as if it ended at byte ``end``."""

    def __init__(self, path, end: int):
        super().__init__(path)
        self.end = end

    def readinto(self, buffer):
        return super().readinto(memoryview(buffer)[: max(0, self.end - self.tell())])


@contextmanager
def text_reader(source, start: int = 0, end: int | None = None, newline: str | None = None):
    """A text stream over a path (only its bytes ``[start, end)``), bytes or the caller's
    binary stream, which it leaves open; ``newline`` is ``io.TextIOWrapper``'s."""
    with ExitStack() as stack:
        if isinstance(source, (str, Path)):
            source = open(source, "rb") if end is None else io.BufferedReader(_Head(source, end))
            stack.enter_context(source).seek(start)
        elif isinstance(source, bytes):
            source = io.BytesIO(source)
        codec = "utf-8" if start else "utf-8-sig"  # a byte-order mark is dropped at byte 0 only
        stream = io.TextIOWrapper(source, codec, "surrogateescape", newline)
        try:
            yield stream
        finally:
            stream.detach()


def write_text(sink, text: str) -> None:
    """ValueError, before ``sink`` is opened, if ``text`` would not decode back as
    written: lone surrogates that spell UTF-8, or a leading byte-order mark."""
    data = text.encode(**UTF8)
    if not text.isascii() and data.decode("utf-8-sig", "surrogateescape") != text:
        raise ValueError("text would not read back as written")
    with binary_writers(sink) as (stream,):
        stream.write(data)


def format_record(fields: Sequence[str]) -> str:
    """One line: the fields, escaped, tab-joined, and a newline."""
    line = "\t".join(fields)
    if (line.count("\t") >= len(fields) or "\\" in line or "\n" in line or "\r" in line
            or "\ufeff" in line):
        line = "\t".join([_escape(f) for f in fields])
    return line + "\n"


def write_records(sink, records: Iterable[Sequence[str]]) -> None:
    write_text(sink, "".join(map(format_record, records)))


def read_records(source, width: int, record: Callable) -> Iterator:
    """``record(*fields)`` per non-blank line of ``width`` unescaped fields (see Records)."""
    with text_reader(source, newline="\n") as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line[:-2] if line[-2:] == "\r\n" else line.removesuffix("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != width:
                raise ParseError(
                    f"expected {width} tab-separated fields, found {len(fields)}",
                    line=lineno,
                )
            if "\\" in line:
                fields = [_unescape(f) if "\\" in f else f for f in fields]
            try:
                built = record(*fields)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            yield built


def count_field(text: str, name: str) -> int:
    """The positive integer that ``str`` writes as ``text``; ValueError otherwise."""
    try:
        value = int(text)
        if str(value) != text:  # int() also takes "1_0", " 1", "+1", "01", "١"
            raise ValueError
    except ValueError:
        raise ValueError(f"non-integer {name} {text!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def join_items(items: Sequence[str]) -> str:
    """A comma-separated list for one field; ``split_items`` reads it back."""
    text = ",".join(items)
    if text.count(",") >= len(items) or "\\" in text:
        text = ",".join(map(_escape_item, items))
    return text


def split_items(text: str) -> list[str]:
    items = text.split(",") if text else []
    return [_unescape_item(item) for item in items] if "\\" in text else items
