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
time, each block with one ``np.loadtxt`` call and cast to float32 as it is
parsed. So beside the matrix the loader holds one block of text, however
large the file. Values are parsed exactly as ``float()`` parses them, and
must be finite in float32: a non-numeric value, a NaN or infinity, or a value
past float32's range is a ParseError naming its line.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from ._fileio import UTF8, text_reader
from .errors import DegenerateVectorError, ParseError

log = logging.getLogger(__name__)

NORM_TOLERANCE = 1e-6  # unit-norm slack for the normalized-table invariant
BLOCK_LINES = 4096  # records parsed per numpy call


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
    normalized: bool = False
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
        index = {}
        for i, token in enumerate(self.vocabulary):
            if token in index:
                raise ValueError(f"duplicate token in vocabulary: {token!r}")
            index[token] = i
        object.__setattr__(self, "index", index)
        # Exact: a nonzero float32 squares to a nonzero float64.
        object.__setattr__(self, "degenerate", ~self.matrix.any(axis=1))
        if self.normalized:
            norms = np.linalg.norm(self.matrix.astype(np.float64), axis=1)
            live = norms[norms > 0.0]
            if live.size and np.max(np.abs(live - 1.0)) > NORM_TOLERANCE:
                raise ValueError("normalized flag set but rows are not unit length")
        self.matrix.setflags(write=False)

    def __len__(self) -> int:
        return len(self.vocabulary)

    def __contains__(self, token: str) -> bool:
        return token in self.index


def _parse_row(fields: list[bytes], dimension: int, lineno: int) -> np.ndarray:
    """One record's values as float32, or the ParseError for its line."""
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
    return _float32(np.asarray(values, dtype=np.float64)[None], [lineno])[0]


def _float32(rows: np.ndarray, linenos: list[int]) -> np.ndarray:
    """Finite float64 ``rows`` as float32; a value that does not fit is a
    ParseError naming its line."""
    with np.errstate(over="ignore"):
        narrow = rows.astype(np.float32)
    past = ~np.isfinite(narrow).all(axis=1)
    if past.any():
        raise ParseError("value out of float32 range", line=linenos[past.argmax()])
    return narrow


def _parse_block(block: list[tuple[int, bytes, bytes | None]], dimension: int) -> np.ndarray:
    """The float32 rows of ``(line number, token, values text)`` records.

    One ``np.loadtxt`` call parses the block. It converts with the same
    correctly rounded routine as ``float()``, so the values are identical.
    When it cannot be used or fails, or finds a value that is not finite,
    the block is parsed again line by line, which names the first bad line.
    """
    values = [text for _, _, text in block]
    rows = None
    if _loadtxt_reads_as_float(values):
        try:
            rows = np.loadtxt(
                values, dtype=np.float64, delimiter=" ", comments=None,
                ndmin=2, encoding="ascii",
            )
        except ValueError:  # a malformed value: the line-by-line parse names it
            pass
    if rows is None or rows.shape != (len(block), dimension) or not np.isfinite(rows).all():
        return np.vstack([
            _parse_row([] if text is None else text.split(b" "), dimension, lineno)
            for lineno, _, text in block
        ])
    return _float32(rows, [lineno for lineno, _, _ in block])


def _loadtxt_reads_as_float(values: list[bytes | None]) -> bool:
    """Whether np.loadtxt reads the values texts as ``float()`` does. It
    skips an empty line, and it takes the bytes 0x1c-0x1f for space around
    a number, where ``float()`` rejects both. None (a line with no space)
    is not text at all."""
    if None in values or b"" in values:
        return False
    text = b"".join(values)
    return not any(byte in text for byte in (b"\x1c", b"\x1d", b"\x1e", b"\x1f"))


def _records(lines: Iterable[tuple[int, bytes]]) -> Iterator[tuple[int, bytes, bytes | None]]:
    """``(line number, token, values text)`` per non-blank line; the text is
    None for a line with no space."""
    for lineno, line in lines:
        if line:
            token, space, text = line.partition(b" ")
            yield lineno, token, text if space else None


def load_embeddings(source, format: str = "plain") -> EmbeddingTable:
    """Parse an embedding file into an EmbeddingTable.

    ``source`` may be a path, bytes, or a binary file object. ``format`` is
    ``plain`` (dimension inferred from the first data line) or ``headered``
    (first line is ``count dim``). Duplicate tokens keep the first
    occurrence and are tallied on the returned table.

    The source is read line by line through ``text_reader``, each line split
    as ``bytes.splitlines()`` splits (at LF, CR or CRLF) and turned back into
    its bytes, and parsed ``BLOCK_LINES`` records at a time with one numpy
    call per block. Each value is parsed as ``float()`` parses it and stored
    as float32; a value that is not finite, or that does not fit in float32,
    is a ParseError naming its line, and the first bad line in the file is
    the one named. Only the matrix grows with the file: beside it the loader
    holds one block of text.
    """
    if format not in ("plain", "headered"):
        raise ValueError(f"unknown embedding format: {format!r}")
    dimension = None
    tokens: list[str] = []
    seen: set[str] = set()
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

        records = _records(lines)
        for block in iter(lambda: list(islice(records, BLOCK_LINES)), []):
            if dimension is None:
                lineno, _, text = block[0]
                if text is None:
                    raise ParseError("first record has no values", line=lineno)
                dimension = text.count(b" ") + 1
            rows = _parse_block(block, dimension)
            keep = []
            for i, (_, key, _) in enumerate(block):
                token = key.decode(**UTF8)
                if token in seen:
                    duplicates += 1
                    continue
                seen.add(token)
                tokens.append(token)
                keep.append(i)
            matrix.extend(rows if len(keep) == len(rows) else rows[keep])

    if not tokens:
        raise ParseError("empty embedding source")
    if duplicates:
        log.warning("dropped %d duplicate embedding records", duplicates)
    if format == "headered" and declared_count != len(tokens) + duplicates:
        log.debug(
            "header declares %d records, found %d", declared_count,
            len(tokens) + duplicates,
        )
    return EmbeddingTable(
        dimension=dimension,
        vocabulary=tuple(tokens),
        matrix=np.frombuffer(matrix, dtype=np.float32).reshape(len(tokens), dimension),
        duplicates=duplicates,
    )


def normalize(table: EmbeddingTable) -> EmbeddingTable:
    """Return a copy with every nonzero row scaled to unit Euclidean norm.

    Zero rows are left as-is and remain flagged degenerate. Raises
    ValueError if the table is already normalized.
    """
    if table.normalized:
        raise ValueError("table is already normalized")
    work = table.matrix.astype(np.float64)
    norms = np.linalg.norm(work, axis=1)
    scale = np.where(norms > 0.0, norms, 1.0)
    unit = (work / scale[:, None]).astype(np.float32)
    return EmbeddingTable(
        dimension=table.dimension,
        vocabulary=table.vocabulary,
        matrix=unit,
        normalized=True,
        duplicates=table.duplicates,
    )


def cosine(u: Iterable[float], v: Iterable[float]) -> float:
    """Cosine similarity dot(u,v)/(|u||v|), clamped to [-1, 1].

    Raises DegenerateVectorError on a zero vector and ValueError on a
    dimension mismatch.
    """
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise DegenerateVectorError("cosine of a zero vector is undefined")
    return float(np.clip(np.dot(a, b) / (na * nb), -1.0, 1.0))
