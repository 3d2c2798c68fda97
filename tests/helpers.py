"""Shared builders and fixture writers for the test suite."""

import io
import math
import re
from collections import Counter

import numpy as np

from spellvar._fileio import UTF8, binary_writers, write_records
from spellvar.embeddings import EmbeddingTable
from spellvar.evaluate import write_report
from spellvar.extract import Delimiter, VariantPair
from spellvar.vocab import FormalLexicon


def make_table(vectors: dict[str, list[float]]) -> EmbeddingTable:
    """Build a table from a token -> vector mapping, in insertion order."""
    tokens = tuple(vectors)
    matrix = np.array([vectors[t] for t in tokens], dtype=np.float32)
    return EmbeddingTable(dimension=matrix.shape[1], vocabulary=tokens, matrix=matrix)


def random_table(rng, n_tokens: int, dimension: int, prefix: str = "t") -> EmbeddingTable:
    matrix = rng.normal(size=(n_tokens, dimension)).astype(np.float32)
    tokens = tuple(f"{prefix}{i:04d}" for i in range(n_tokens))
    return EmbeddingTable(dimension=dimension, vocabulary=tokens, matrix=matrix)


def vector_of(table: EmbeddingTable, token: str) -> np.ndarray | None:
    """The stored row for ``token`` (case-sensitive), or None if absent."""
    i = table.index.get(token)
    return None if i is None else table.matrix[i]


def report_text(report) -> str:
    """The text report ``write_report`` writes, read from an in-memory sink."""
    text_sink = io.BytesIO()
    write_report(report, text_sink, io.BytesIO())
    return text_sink.getvalue().decode(**UTF8)


def write_embeddings(table: EmbeddingTable, sink, format: str = "plain") -> None:
    """Write a table in the text interchange format ``load_embeddings`` reads.

    Values are written with full float precision, so load -> write -> load
    reproduces the stored float32 matrix exactly.
    """
    if format not in ("plain", "headered"):
        raise ValueError(f"unknown embedding format: {format!r}")
    with binary_writers(sink) as (stream,):
        if format == "headered":
            stream.write(f"{len(table)} {table.dimension}\n".encode("ascii"))
        for token, row in zip(table.vocabulary, table.matrix):
            values = b" ".join(repr(float(v)).encode("ascii") for v in row)
            stream.write(token.encode(**UTF8) + b" " + values + b"\n")


def write_definitions(entries, sink) -> None:
    """Write a definitions dump that ``read_definitions`` reads back."""
    write_records(sink, entries)


def lexicon_of(*tokens: str) -> FormalLexicon:
    return FormalLexicon(tokens=frozenset(t.lower() for t in tokens))


def pair(informal: str, formal: str, entry_id: str = "e0") -> VariantPair:
    return VariantPair(
        informal=informal,
        formal=formal,
        entry_id=entry_id,
        delimiter=Delimiter.DOUBLE_QUOTE,
    )


def forced_rank_setup(target_ranks: list[int], n_candidates: int):
    """Vectors engineered so pair i's formal target lands at target_ranks[i].

    Informal tokens are one-hot axes; each formal candidate carries one
    similarity slot per informal axis plus a ballast component that pads
    its norm to 1. Slot values step down by 0.01 per rank position, so
    orderings are unambiguous at float32 precision.

    Returns (vectors, pairs) where vectors maps token -> list[float] and
    pairs is [(informal_token, formal_token), ...].
    """
    n_queries = len(target_ranks)
    assert all(1 <= r <= n_candidates for r in target_ranks)
    dim = n_queries + 1
    formal_tokens = [f"w{j:03d}" for j in range(n_candidates)]
    # distinct targets, one per query
    targets = [formal_tokens[j] for j in range(n_queries)]
    slots = np.zeros((n_candidates, n_queries))
    for qi, rank in enumerate(target_ranks):
        order = [qi] + [j for j in range(n_candidates) if j != qi]
        # move the target from the front to its forced position
        order.remove(qi)
        order.insert(rank - 1, qi)
        for position, j in enumerate(order, start=1):
            slots[j, qi] = 0.5 - 0.01 * (position - 1)
    vectors = {}
    for i in range(n_queries):
        one_hot = [0.0] * dim
        one_hot[i] = 1.0
        vectors[f"inf{i}"] = one_hot
    for j, token in enumerate(formal_tokens):
        ballast = math.sqrt(max(0.0, 1.0 - float(np.sum(slots[j] ** 2))))
        vectors[token] = list(slots[j]) + [ballast]
    pairs = [(f"inf{i}", targets[i]) for i in range(n_queries)]
    return vectors, pairs


# --- references the optimized mining code is compared against -------------


def reference_tokenize(text: str):
    """The tokenizer as a plain per-character loop: lowercase, split on
    whitespace, strip outer non-alphanumerics, drop empty tokens."""
    for raw in text.lower().split():
        start, end = 0, len(raw)
        while start < end and not raw[start].isalnum():
            start += 1
        while end > start and not raw[end - 1].isalnum():
            end -= 1
        if start < end:
            yield raw[start:end]


def reference_counts(lines) -> tuple[dict[str, int], int]:
    """Per-token counts and the stream length, counted one token at a time."""
    counts: dict[str, int] = {}
    total = 0
    for line in lines:
        for token in reference_tokenize(line):
            counts[token] = counts.get(token, 0) + 1
            total += 1
    return counts, total


def reference_lexicon(lines, min_count: int) -> frozenset[str]:
    counts = Counter(token.lower() for line in lines for token in reference_tokenize(line))
    return frozenset(t for t, c in counts.items() if c >= min_count)


_REF_TEMPLATE = re.compile(r"spelling[^.,]* (?:'(\w+)'|\"(\w+)\"|\[(\w+)\])")
_REF_QUOTES = str.maketrans({"\u2018": "'", "\u2019": "'", "\u201c": '"', "\u201d": '"'})
_REF_DELIMITERS = ("single_quote", "double_quote", "bracket")


def reference_mine(entries, counts: dict[str, int], min_freq: int):
    """The extraction pipeline one stage at a time: a lowercased scan for
    "spelling", the quote fold by ``str.translate`` on every hit, the
    template on the folded text, an id-ordered sort, then the cascade, whose
    "name" check lowercases the definition again.

    A variant that does not fold to a single word is a template miss.
    Returns the kept pairs as (informal, formal, entry_id, delimiter,
    validation) tuples and the stats as a dict.
    """
    entries = list(entries)
    by_id = {e.entry_id: e for e in entries}
    hits = [e for e in entries if "spelling" in e.definition_text.lower()]
    candidates = []
    for e in hits:
        m = _REF_TEMPLATE.search(e.definition_text.translate(_REF_QUOTES))
        if m is None:
            continue
        informal, formal = e.headword.lower(), m[m.lastindex].lower()
        if informal != formal and re.fullmatch(r"\w+", formal):
            candidates.append((informal, formal, e.entry_id, _REF_DELIMITERS[m.lastindex - 1]))
    candidates.sort(key=lambda c: c[2])
    stats = dict.fromkeys(("excluded_name", "excluded_frequency", "excluded_nonascii"), 0)
    stats.update(definitions_scanned=len(entries), spelling_hits=len(hits),
                 candidates_extracted=len(candidates))
    kept = []
    for informal, formal, entry_id, delimiter in candidates:
        if not informal.isascii():
            stats["excluded_nonascii"] += 1
        elif re.search(r"\bname\b", by_id[entry_id].definition_text.lower()):
            stats["excluded_name"] += 1
        elif counts.get(informal, 0) < min_freq:
            stats["excluded_frequency"] += 1
        else:
            kept.append((informal, formal, entry_id, delimiter, "unvalidated"))
    return kept, stats
