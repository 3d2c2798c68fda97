"""Dense word-vector storage and cosine geometry.

Loads the common one-record-per-line text interchange format (GloVe-style
``plain``, or word2vec-style ``headered`` with a leading ``count dim``
line), keeps vectors in a contiguous float32 matrix, and serves lookups
and cosine similarities for the ranking code.

Tokens are opaque bytes, fields are split on single spaces, and one space may
follow a record's last value (word2vec's and fastText's writers leave it). A
non-UTF-8 byte reads as a lone surrogate (surrogateescape), so it encodes back
to the same byte. A table is immutable once built and safe to share across threads.

Loading streams the source: it is read line by line through ``_fileio.text_reader``,
each line held as the text it decodes to, and its records are parsed ``BLOCK_LINES``
at a time, each block by one ``np.loadtxt`` call, or line by line where that call
cannot vouch for the block; the line parser alone holds the rules and messages for one line. So
beside the matrix the loader holds one block of records, each line split once into its token and its
values text, however large the file or many its repeated tokens, also where a forked child parses
the second half of a path of ``SPLIT_BYTES`` or more and hands its rows over a block at a time, for
the same result. Values are parsed exactly as ``float()`` parses their bytes, so a non-ASCII digit
or space is refused, and must be finite in float32: a wrong value count, a non-numeric value, a NaN
or infinity, or a value past float32's range is a ParseError naming its line.
"""

from __future__ import annotations

import logging
import math
import os
import signal
import threading
from dataclasses import dataclass, field, replace
from itertools import count, islice
from typing import Iterable

import numpy as np

from ._fileio import UTF8, text_reader
from .errors import DegenerateVectorError, MissingTokenError, ParseError

log = logging.getLogger(__name__)

BLOCK_LINES = 4096  # records parsed, or rows normalized, per numpy call
SPLIT_BYTES = 2 << 20  # a path this long or longer is parsed by two processes where it can be


@dataclass(frozen=True)
class EmbeddingTable:
    """Vocabulary plus a row-per-token matrix of word vectors.

    ``degenerate`` flags all-zero rows; they stay in the vocabulary but are
    excluded from neighbor ranking, and ``normalize`` leaves them untouched.
    ``duplicates`` counts input records that were dropped because their
    token had already been seen.
    """

    dimension: int
    vocabulary: tuple[str, ...]
    matrix: np.ndarray
    duplicates: int = 0
    index: dict[str, int] = field(init=False, repr=False, compare=False)
    degenerate: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be positive, got {self.dimension}")
        if self.matrix.shape != (len(self.vocabulary), self.dimension):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match "
                f"{len(self.vocabulary)} tokens x {self.dimension} dims"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValueError("matrix contains non-finite entries")
        index = dict(zip(self.vocabulary, range(len(self.vocabulary))))
        if len(index) < len(self.vocabulary):  # name the first token seen twice
            seen = set()
            token = next(t for t in self.vocabulary if t in seen or seen.add(t))
            raise ValueError(f"duplicate token in vocabulary: {token!r}")
        object.__setattr__(self, "index", index)
        # Exact: a nonzero float32 squares to a nonzero float64.
        object.__setattr__(self, "degenerate", ~self.matrix.any(axis=1))
        self.matrix.setflags(write=False)

    def __len__(self) -> int:
        return len(self.vocabulary)

    def query_row(self, token: str) -> int:
        """Query ``token``'s row: MissingTokenError if absent, DegenerateVectorError if zero."""
        if (i := self.index.get(token)) is None:
            raise MissingTokenError(token)
        if self.degenerate[i]:
            raise DegenerateVectorError(f"informal token {token!r} has a zero vector")
        return i


def _parse_row(record: tuple[int, str, str, str], dimension: int) -> np.ndarray:
    """One record's values as float32, each parsed from its bytes, or the line's ParseError."""
    lineno, _, sep, values = record
    fields = values.encode(**UTF8).split(b" ") if sep else []
    if len(fields) != dimension:
        raise ParseError(
            f"expected {dimension} values, found {len(fields)}", line=lineno
        )
    try:
        values = [float(f) for f in fields]
    except ValueError:
        raise ParseError(f"non-numeric value in {fields!r}", line=lineno) from None
    if not all(np.isfinite(values)):
        raise ParseError("non-finite value", line=lineno)
    with np.errstate(over="ignore"):
        row = np.array(values, dtype=np.float32)
    if not np.isfinite(row).all():
        raise ParseError("value out of float32 range", line=lineno)
    return row


def _parse_block(block: list[tuple[int, str, str, str]], dimension: int) -> np.ndarray:
    """The float32 rows of ``(line number, token, separator, values)`` records.

    One ``np.loadtxt`` call parses the values straight to float32, each by ``float()``'s
    correctly rounded routine and then rounded as ``_parse_row`` rounds it (past float32's
    range, to inf). Unlike ``float()`` on bytes, it skips an empty values text and takes
    0x1c-0x1f and non-ASCII spaces for space; a block with an empty or non-ASCII text or
    0x1c-0x1f (sought in a joined copy not kept), or that it rejects, reads in the wrong
    shape, or finds not finite, goes to ``_parse_row``.
    """
    texts = [values for _, _, _, values in block]
    rows = None
    if ("" not in texts and all(map(str.isascii, texts))
            and not any(map("".join(texts).__contains__, "\x1c\x1d\x1e\x1f"))):
        try:
            rows = np.loadtxt(texts, dtype=np.float32, delimiter=" ", comments=None, ndmin=2)
        except ValueError:  # a malformed value: the line-by-line parse names it
            pass
    if rows is None or rows.shape != (len(block), dimension) or not np.isfinite(rows).all():
        return np.vstack([_parse_row(record, dimension) for record in block])
    return rows


def load_embeddings(source, format: str = "plain") -> EmbeddingTable:
    """Parse an embedding file into an EmbeddingTable.

    ``source`` may be a path, bytes, or a binary file object. ``format`` is
    ``plain`` (dimension inferred from the first data line) or ``headered``
    (first line is ``count dim``). Duplicate tokens keep the first occurrence, and a repeat's
    row is dropped with its block; ``duplicates`` is the records read less the tokens kept.

    The source is read line by line through ``text_reader``, each line split as
    ``bytes.splitlines()`` splits (at LF, CR or CRLF), kept as the text it decodes to,
    and split once at its first space; one space after the last value is dropped. The
    token is kept as decoded; the header and ``_parse_row``'s values are parsed from their
    bytes. ``_parse_block`` parses ``BLOCK_LINES`` non-blank lines at a time with one numpy call
    straight to float32, and ``_parse_row`` any block it cannot vouch for. Each value is parsed as
    ``float()`` parses its bytes and stored as float32; a value that is not finite or not in
    float32's range is a ParseError naming its line, the first bad one in the file. A header count
    that differs from the records found is logged as a warning. Beside the matrix and the tokens it
    holds one block of lines. A path of at least ``SPLIT_BYTES`` is parsed by two processes where 2
    or more CPUs are allowed, no other thread runs and ``os.fork`` succeeds (a forked child takes
    the lines after the first line feed from the middle byte on, and the parent reads its rows onto
    the matrix a block at a time), else by one: the same table, warnings, errors, memory bound.
    """
    if format not in ("plain", "headered"):
        raise ValueError(f"unknown embedding format: {format!r}")
    dimension, pid = None, None
    first: dict[str, int] = {}  # token -> the number of its first record, in that order
    seen = 0  # the records read here or by the child, each numbered by the count before it
    matrix = bytearray()  # the float32 rows of the tokens in first, grown in place block by block
    numbers = count(1)  # line numbers, the second part's following the first's
    parts = [(0, None)]  # the byte ranges parsed in this process
    try:  # os.sched_getaffinity exists only where os.fork does
        if (isinstance(source, (str, os.PathLike)) and threading.active_count() == 1
                and (size := os.path.getsize(source)) >= SPLIT_BYTES
                and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) > 1):
            with text_reader(source, size // 2) as stream:  # split just past the next line feed
                split = size // 2 + len(stream.buffer.readline())
            read, write = os.pipe()  # the child writes unbuffered, as os._exit flushes nothing
            try:
                pid = os.fork()
            except OSError:  # no child (EAGAIN, ENOMEM): this process parses the whole file
                os.close(read), os.close(write)
            else:
                pipe = os.fdopen(read, "rb") if pid else os.fdopen(write, "wb", 0)
                os.close(write if pid else read)
                parts = [(0, split), (split, None)] if pid else [(split, None)]
        for start, end in parts:
            if pid and end is None:  # the child's part, unless cut short or of another dimension
                head = pipe.read(24).ljust(24, b"\xff")  # cut short, its counts read < 0
                found, parsed, rows = np.frombuffer(head, np.int64).tolist()
                at = len(matrix)
                for n in range(0, rows, BLOCK_LINES):  # its rows straight onto the matrix
                    matrix += pipe.read(4 * found * min(BLOCK_LINES, rows - n))
                tokens = pipe.read().decode(**UTF8).split("\n")[:-1]  # whole only after whole rows
                if len(tokens) == rows and dimension in (None, found):
                    keep = [i - seen for i, t in enumerate(tokens, seen)
                            if first.setdefault(t, i) == i]  # the rows of tokens new here
                    seen, dimension = seen + parsed, found
                    if len(keep) < rows:  # move the kept rows up, over those of tokens held here
                        part = np.frombuffer(matrix, np.float32, offset=at).reshape(rows, found)
                        for j in range(0, len(keep), BLOCK_LINES):  # keep[j] >= j: read first
                            part[: len(keep)][j : j + BLOCK_LINES] = part[keep[j : j + BLOCK_LINES]]
                        del part, matrix[at + 4 * found * len(keep) :]  # the view first
                    continue
                del matrix[at:]
            with text_reader(source, start, end) as stream:
                lines = zip((line.rstrip("\n") for line in stream), numbers)  # numbered as read
                if format == "headered" and start == 0:
                    line, _ = next(lines, (None, 1))
                    if line is None:
                        raise ParseError("empty embedding source")
                    header = line.encode(**UTF8).split(b" ")
                    if len(header) != 2:
                        raise ParseError("header must be 'count dimension'", line=1)
                    try:
                        declared_count, dimension = int(header[0]), int(header[1])
                    except ValueError:
                        raise ParseError("non-integer header field", line=1) from None
                    if dimension < 1:
                        raise ParseError("header dimension must be positive", line=1)

                # A record may end in one space after its last value, as word2vec's
                # "%lf " leaves it.
                records = ((n, *(line[:-1] if line[-1:] == " " != line[-2:-1] and " " in line[:-1]
                                 else line).partition(" ")) for line, n in lines if line)
                for block in iter(lambda: list(islice(records, BLOCK_LINES)), []):
                    if dimension is None:
                        lineno, _, sep, values = block[0]
                        dimension = len(sep) + values.count(" ")
                        if dimension < 1:
                            raise ParseError("first record has no values", line=lineno)
                    rows = _parse_block(block, dimension)
                    keep = [i - seen for i, (_, t, _, _) in enumerate(block, seen)
                            if first.setdefault(t, i) == i]  # the rows of new tokens
                    seen += len(block)
                    matrix.extend(rows if len(keep) == len(rows) else rows[keep])
        if pid == 0:  # the child writes its dimension (0 with no record), record and token
            head = np.array([dimension or 0, seen, len(first)], np.int64)  # counts, rows, tokens
            pipe.writelines([head, matrix, "".join(t + "\n" for t in first).encode(**UTF8)])
    finally:
        if pid == 0:  # the parent checks that it read all the child wrote, not how it ended
            os._exit(0)
        if pid:  # stop the child, if it still runs, and reap it
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    if not first:
        raise ParseError("empty embedding source")
    if duplicates := seen - len(first):
        log.warning("dropped %d duplicate embedding records", duplicates)
    if format == "headered" and declared_count != seen:
        log.warning("header declares %d records, found %d", declared_count, seen)
    return EmbeddingTable(
        dimension=dimension,
        vocabulary=tuple(first),
        matrix=np.frombuffer(matrix, dtype=np.float32).reshape(len(first), dimension),
        duplicates=duplicates,
    )


def normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Return a copy with every nonzero row scaled to unit Euclidean norm.

    Zero rows are left as-is and remain flagged degenerate. Beside the float32 result the
    work holds one float64 block, ``BLOCK_LINES`` rows squared. Ranking accepts any table.
    """
    unit = np.empty_like(table.matrix)
    for start in range(0, len(table), BLOCK_LINES):
        rows = table.matrix[start : start + BLOCK_LINES]
        norms = np.sqrt(np.square(rows, dtype=np.float64).sum(axis=1))
        norms[norms == 0.0] = 1.0
        np.divide(rows, norms[:, None], out=unit[start : start + BLOCK_LINES], casting="same_kind")
    return replace(table, matrix=unit)


def cosine(u: Iterable[float], v: Iterable[float]) -> float:
    """Cosine similarity dot(u,v)/(|u||v|), clamped to [-1, 1]: the score.

    The dot product and both squared norms are ``math.fsum`` of the float64
    products, so no summation order can change the value. Raises
    DegenerateVectorError on a zero vector and ValueError on a dimension
    mismatch.
    """
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    aa, bb = math.fsum((a * a).tolist()), math.fsum((b * b).tolist())
    if aa == 0.0 or bb == 0.0:
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    return max(-1.0, min(1.0, math.fsum((a * b).tolist()) / (math.sqrt(aa) * math.sqrt(bb))))
