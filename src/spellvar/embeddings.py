"""Dense word-vector storage and cosine geometry.

Loads the common one-record-per-line text interchange format (GloVe-style
``plain``, or word2vec-style ``headered`` with a leading ``count dim``
line), keeps vectors in a contiguous float32 matrix, and serves lookups
and cosine similarities for the ranking code.

Tokens are treated as opaque byte sequences split on single spaces;
non-UTF-8 bytes survive a load/write round trip via surrogateescape.
A table is immutable once built and safe to share across threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ._fileio import UTF8, binary_reader, binary_writer
from .errors import DegenerateVectorError, ParseError

log = logging.getLogger(__name__)

NORM_TOLERANCE = 1e-6  # unit-norm slack for the normalized-table invariant


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
        norms = np.linalg.norm(self.matrix.astype(np.float64), axis=1)
        object.__setattr__(self, "degenerate", norms == 0.0)
        if self.normalized:
            live = norms[norms > 0.0]
            if live.size and np.max(np.abs(live - 1.0)) > NORM_TOLERANCE:
                raise ValueError("normalized flag set but rows are not unit length")
        self.matrix.setflags(write=False)

    def __len__(self) -> int:
        return len(self.vocabulary)

    def __contains__(self, token: str) -> bool:
        return token in self.index


def _parse_row(fields: list[bytes], dimension: int, lineno: int) -> np.ndarray:
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
    return np.asarray(values, dtype=np.float64)


def load_embeddings(source, format: str = "plain") -> EmbeddingTable:
    """Parse an embedding file into an EmbeddingTable.

    ``source`` may be a path, bytes, or a binary file object. ``format`` is
    ``plain`` (dimension inferred from the first data line) or ``headered``
    (first line is ``count dim``). Values are parsed as float64 and stored
    as float32. Duplicate tokens keep the first occurrence and are tallied
    on the returned table.
    """
    if format not in ("plain", "headered"):
        raise ValueError(f"unknown embedding format: {format!r}")
    with binary_reader(source) as stream:
        lines = stream.read().splitlines()

    dimension = None
    start = 0
    if format == "headered":
        if not lines:
            raise ParseError("empty embedding source")
        header = lines[0].split(b" ")
        if len(header) != 2:
            raise ParseError("header must be 'count dimension'", line=1)
        try:
            declared_count, dimension = int(header[0]), int(header[1])
        except ValueError:
            raise ParseError("non-integer header field", line=1) from None
        if dimension < 1:
            raise ParseError("header dimension must be positive", line=1)
        start = 1

    tokens: list[str] = []
    seen: set[str] = set()
    rows: list[np.ndarray] = []
    duplicates = 0
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line:
            continue
        fields = line.split(b" ")
        token = fields[0].decode(**UTF8)
        if dimension is None:
            dimension = len(fields) - 1
            if dimension < 1:
                raise ParseError("first record has no values", line=lineno)
        row = _parse_row(fields[1:], dimension, lineno)
        if token in seen:
            duplicates += 1
            continue
        seen.add(token)
        tokens.append(token)
        rows.append(row)

    if not rows:
        raise ParseError("empty embedding source")
    if duplicates:
        log.warning("dropped %d duplicate embedding records", duplicates)
    if format == "headered" and declared_count != len(tokens) + duplicates:
        log.debug(
            "header declares %d records, found %d", declared_count,
            len(tokens) + duplicates,
        )
    matrix = np.vstack(rows).astype(np.float32)
    return EmbeddingTable(
        dimension=dimension,
        vocabulary=tuple(tokens),
        matrix=matrix,
        duplicates=duplicates,
    )


def write_embeddings(table: EmbeddingTable, sink, format: str = "plain") -> None:
    """Serialize a table back to the text interchange format.

    Values are written with full float precision, so load -> write -> load
    reproduces the stored float32 matrix exactly.
    """
    if format not in ("plain", "headered"):
        raise ValueError(f"unknown embedding format: {format!r}")
    with binary_writer(sink) as stream:
        if format == "headered":
            stream.write(f"{len(table)} {table.dimension}\n".encode("ascii"))
        for token, row in zip(table.vocabulary, table.matrix):
            values = b" ".join(repr(float(v)).encode("ascii") for v in row)
            stream.write(token.encode(**UTF8) + b" " + values + b"\n")


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


def vector_of(table: EmbeddingTable, token: str) -> np.ndarray | None:
    """The stored row for ``token`` (case-sensitive), or None if absent."""
    i = table.index.get(token)
    return None if i is None else table.matrix[i]


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
