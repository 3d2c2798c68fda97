"""Formal lexicon and corpus frequency tables.

The lexicon is a ``frozenset`` of the tokens counted as standard-dialect vocabulary;
neighbor ranking is restricted to it. The frequency table is a ``Counter`` of token
occurrences in an informal corpus sample, used to drop rare headwords during pair
extraction. Each writer refuses, before writing, what its loader would refuse.

The stored lexicon is folded to lowercase, and membership is exact: a
token is in the lexicon only as stored, so ``Your`` is not a formal token
while ``your`` is. The corpus tokenization used for lexicon building
and frequency counting is ``str.lower``, then a split on whitespace as
``str.split()`` does it, then each token loses the characters at either
end that are not ``str.isalnum`` (so internal apostrophes and hyphens
stay). It is recorded in evaluation report headers since it is a toolkit
choice, not an input property.
"""

from __future__ import annotations

import logging
from collections import Counter
from typing import Iterable

from ._fileio import count_field, read_records, text_reader, write_records, write_text
from .errors import ParseError

log = logging.getLogger(__name__)

TOKENIZATION_NOTE = (
    "lowercased, whitespace-split, outer non-alphanumerics stripped"
)
_ASCII_NON_ALNUM = "".join(c for c in map(chr, range(128)) if not c.isalnum())


class FormalLexicon(frozenset):
    """A frozenset of lowercase formal tokens; ``duplicates`` counts lines a load collapsed."""

    def __new__(cls, tokens: Iterable[str] = (), duplicates: int = 0):
        lexicon = super().__new__(cls, tokens)
        lexicon.duplicates = duplicates
        return lexicon


class FrequencyTable(Counter):
    """Exact token counts from a corpus sample; an absent token counts 0."""

    def __init__(self, counts=()):  # a keyword ``counts`` is the table, not a token
        super().__init__(counts)

    total_tokens = property(Counter.total)


def tokenize(text: str) -> list[str]:
    """The tokens of ``text``, as a list: ``text.lower().split()``, each
    stripped of its outer non-``isalnum`` characters, empty ones dropped.
    Only a token with a non-ASCII non-alphanumeric at an end, once the
    ASCII ones are stripped, is stripped again of its own non-alphanumerics."""
    tokens = []
    for raw in text.lower().split():
        if not raw.isalnum():
            raw = raw.strip(_ASCII_NON_ALNUM)
            if raw and not (raw[0].isalnum() and raw[-1].isalnum()):
                raw = raw.strip("".join(c for c in raw if not c.isalnum()))
            if not raw:
                continue
        tokens.append(raw)
    return tokens


def build_lexicon(corpus: Iterable[str], min_count: int = 1) -> FormalLexicon:
    """Collect every token occurring at least ``min_count`` times.

    ``corpus`` is a pre-tokenized stream. Tokens are folded to lowercase
    and counted together; each distinct token is folded once, after
    counting. Raises ValueError on an empty corpus.
    """
    if min_count < 1:
        raise ValueError(f"min_count must be positive, got {min_count}")
    counts: Counter[str] = Counter()
    for token, count in Counter(corpus).items():
        counts[token.lower()] += count
    if not counts:
        raise ValueError("empty corpus")
    return FormalLexicon(t for t, c in counts.items() if c >= min_count)


def load_lexicon(source) -> FormalLexicon:
    """Read a one-token-per-line lexicon file.

    Tokens are folded to lowercase; duplicates (post-fold) are collapsed
    and tallied. Raises ParseError if the file holds no tokens.
    """
    with text_reader(source) as stream:
        counts = Counter(filter(None, (line.strip().lower() for line in stream)))
    if not counts:
        raise ParseError("empty lexicon file")
    duplicates = counts.total() - len(counts)
    if duplicates:
        log.warning("collapsed %d duplicate lexicon tokens", duplicates)
    return FormalLexicon(counts, duplicates)


def write_lexicon(lexicon: FormalLexicon, sink) -> None:
    """Write one token per line, sorted; ValueError, before writing, if it would not read back."""
    tokens = sorted(lexicon)
    if not tokens:
        raise ValueError("empty lexicon would not read back")
    for token in tokens:  # the loader's rule; a blank line keeps a leading U+FEFF in a token
        if not token or "\n" in token or "\r" in token or token.strip().lower() != token:
            raise ValueError(f"lexicon token {token!r} would not read back as written")
    write_text(sink, "\n" * tokens[0].startswith("\ufeff") + "".join(t + "\n" for t in tokens))


def count_frequencies(corpus: Iterable[str]) -> FrequencyTable:
    """Exact per-token counts; total_tokens is the stream length."""
    return FrequencyTable(corpus)


def load_frequencies(source) -> FrequencyTable:
    """Read a ``token TAB count`` file; each count is a positive int as ``str`` writes
    it, and no token may appear twice (a ParseError naming the line)."""
    counts: dict[str, int] = {}

    def entry(token: str, count_text: str) -> tuple[str, int]:
        count = count_field(count_text, "count")
        if token in counts:
            raise ValueError(f"repeated token {token!r}")
        return token, count

    counts.update(read_records(source, 2, entry))  # each pair is stored before the next is read
    return FrequencyTable(counts)


def write_frequencies(table: FrequencyTable, sink) -> None:
    """Write ``token TAB count`` lines, most frequent first; ValueError, before writing,
    for a count ``load_frequencies`` would refuse, such as 0 or -1."""
    for count in filter(lambda c: type(c) is not int or c < 1, table.values()):
        count_field(str(count), "count")  # the rule's one owner; a plain int >= 1 passes it
    ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
    write_records(sink, ((token, str(count)) for token, count in ranked))

