"""Dense word-vector storage and cosine geometry.

Loads the common one-record-per-line text interchange format (GloVe-style
``plain``, or word2vec-style ``headered`` with a leading ``count dim``
line), keeps vectors in a contiguous float32 matrix, and serves lookups
and cosine similarities for the ranking code.

Tokens are treated as opaque byte sequences split on single spaces;
a non-UTF-8 byte reads as a lone surrogate (surrogateescape), so it
encodes back to the same byte.
A table is immutable once built and safe to share across threads.

Loading streams the source: it is read line by line through
``_fileio.text_reader``, and its records are parsed ``BLOCK_LINES`` at a
time, each block by one ``np.loadtxt`` call, or line by line where that call
cannot vouch for the block; the line parser alone holds the rules and
messages for one line. So beside the matrix the loader holds one block of
records, each line split once into its token and its values text, however
large the file. Values are parsed exactly as ``float()`` parses them, and
must be finite in float32: a wrong value count, a non-numeric value, a NaN
or infinity, or a value past float32's range is a ParseError naming its line.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable

import numpy as np

from ._fileio import UTF8, text_reader
from .errors import DegenerateVectorError, MissingTokenError, ParseError

log = logging.getLogger(__name__)

BLOCK_LINES = 4096  # records parsed, or rows normalized, per numpy call


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


def _parse_row(record: tuple[int, bytes, bytes, bytes], dimension: int) -> np.ndarray:
    """One record's values as float32, or the ParseError for its line."""
    lineno, _, sep, values = record
    fields = values.split(b" ") if sep else []
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


def _parse_block(block: list[tuple[int, bytes, bytes, bytes]], dimension: int) -> np.ndarray:
    """The float32 rows of ``(line number, token, separator, values)`` records.

    One ``np.loadtxt`` call parses the values, by ``float()``'s correctly
    rounded routine. It skips an empty values text and takes the bytes
    0x1c-0x1f (sought in a joined copy that is not kept) for space around a
    number; a block with either, or that it rejects, reads in the wrong shape,
    or finds not finite in float32, is parsed by ``_parse_row`` line by line.
    """
    texts = [values for _, _, _, values in block]
    rows = None
    if b"" not in texts and not any(map(b"".join(texts).__contains__, b"\x1c\x1d\x1e\x1f")):
        try:
            with np.errstate(over="ignore"):
                rows = np.loadtxt(
                    texts, dtype=np.float64, delimiter=" ", comments=None,
                    ndmin=2, encoding="ascii",
                ).astype(np.float32)
        except ValueError:  # a malformed value: the line-by-line parse names it
            pass
    if rows is None or rows.shape != (len(block), dimension) or not np.isfinite(rows).all():
        return np.vstack([_parse_row(record, dimension) for record in block])
    return rows


def load_embeddings(source, format: str = "plain") -> EmbeddingTable:
    """Parse an embedding file into an EmbeddingTable.

    ``source`` may be a path, bytes, or a binary file object. ``format`` is
    ``plain`` (dimension inferred from the first data line) or ``headered``
    (first line is ``count dim``). Duplicate tokens keep the first
    occurrence and are tallied on the returned table.

    The source is read line by line through ``text_reader``, each line split
    as ``bytes.splitlines()`` splits (at LF, CR or CRLF), turned back into its
    bytes and split once at its first space. ``_parse_block`` parses
    ``BLOCK_LINES`` non-blank lines at a time with one numpy call, and
    ``_parse_row`` any block it cannot vouch for. Each value is parsed as
    ``float()`` parses it and stored as float32; a value that is not finite or
    not in float32's range is a ParseError naming its line, the first bad one
    in the file. A header count that differs from the records found is logged
    as a warning. Beside the matrix and the tokens it holds one block of lines.
    """
    if format not in ("plain", "headered"):
        raise ValueError(f"unknown embedding format: {format!r}")
    dimension = None
    vocabulary: dict[str, int] = {}  # token -> row, in first-occurrence order
    matrix = bytearray()  # the float32 rows, grown in place block by block
    duplicates = 0
    with text_reader(source) as stream:
        lines = enumerate((line.rstrip("\n").encode(**UTF8) for line in stream), start=1)
        if format == "headered":
            _, line = next(lines, (1, None))
            if line is None:
                raise ParseError("empty embedding source")
            header = line.split(b" ")
            if len(header) != 2:
                raise ParseError("header must be 'count dimension'", line=1)
            try:
                declared_count, dimension = int(header[0]), int(header[1])
            except ValueError:
                raise ParseError("non-integer header field", line=1) from None
            if dimension < 1:
                raise ParseError("header dimension must be positive", line=1)

        records = ((lineno, *line.partition(b" ")) for lineno, line in lines if line)
        for block in iter(lambda: list(islice(records, BLOCK_LINES)), []):
            if dimension is None:
                lineno, _, sep, values = block[0]
                dimension = len(sep) + values.count(b" ")
                if dimension < 1:
                    raise ParseError("first record has no values", line=lineno)
            rows = _parse_block(block, dimension)
            keep = []
            for i, record in enumerate(block):
                token = record[1].decode(**UTF8)
                if token not in vocabulary:
                    vocabulary[token] = len(vocabulary)
                    keep.append(i)
            duplicates += len(block) - len(keep)
            matrix.extend(rows if len(keep) == len(rows) else rows[keep])

    if not vocabulary:
        raise ParseError("empty embedding source")
    if duplicates:
        log.warning("dropped %d duplicate embedding records", duplicates)
    if format == "headered" and declared_count != len(vocabulary) + duplicates:
        log.warning(
            "header declares %d records, found %d", declared_count,
            len(vocabulary) + duplicates,
        )
    return EmbeddingTable(
        dimension=dimension,
        vocabulary=tuple(vocabulary),
        matrix=np.frombuffer(matrix, dtype=np.float32).reshape(len(vocabulary), dimension),
        duplicates=duplicates,
    )


def normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Return a copy with every nonzero row scaled to unit Euclidean norm.

    Zero rows are left as-is and remain flagged degenerate. Rows are done
    ``BLOCK_LINES`` at a time into the float32 result, so beside it the work
    holds a few float64 blocks. Ranking accepts any table, normalized or not.
    """
    unit = np.empty_like(table.matrix)
    for start in range(0, len(table), BLOCK_LINES):
        rows = table.matrix[start : start + BLOCK_LINES]
        norms = np.linalg.norm(rows.astype(np.float64), axis=1)
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
    dot = math.fsum((a * b).tolist())
    return cosine_of_sums(dot, math.fsum((a * a).tolist()), math.fsum((b * b).tolist()))


def cosine_of_sums(ab: float, aa: float, bb: float) -> float:
    """``cosine`` from the ``math.fsum`` sums of u·v, u·u and v·v."""
    if aa == 0.0 or bb == 0.0:
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    return max(-1.0, min(1.0, ab / (math.sqrt(aa) * math.sqrt(bb))))
