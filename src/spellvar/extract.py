"""Candidate spelling-variant mining from dictionary-definition dumps.

A definition like ``[Demoscene] spelling of "Sucks".`` under the headword
``suxx`` yields the candidate pair (suxx, sucks). The template: the word
"spelling", a run free of periods and commas, a space, then a quoted or
bracketed single word. Candidates then pass a cascade that drops
non-ASCII headwords, definitions containing the word "name", and
headwords too rare in an informal-corpus frequency table.

``mine_pairs`` is the one pipeline: it runs the scan, the template and
the cascade in a single pass over a lazily read dump, so it holds entry ids
and kept pairs, not the dump's text. Extraction is deterministic: it orders
its output by entry id, whatever the order of the dump.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

from ._fileio import read_records, write_records
from .vocab import FrequencyTable

SPELLING_MARKER = "spelling"

# One alternative per delimiter kind instead of a backreference closer, so
# that bracketed cross-reference links ("[fark]") close with "]". Each
# group is named after its Delimiter member.
_CANDIDATE_RE = re.compile(
    r"spelling[^.,]* (?:'(?P<SINGLE_QUOTE>\w+)'|\"(?P<DOUBLE_QUOTE>\w+)\"|\[(?P<BRACKET>\w+)\])"
)

# Typographic quotes appear in web-scraped text; fold them before matching.
# They are not ASCII, so ASCII text needs no folding.
_QUOTE_FOLD = (("\u2018", "'"), ("\u2019", "'"), ("\u201c", '"'), ("\u201d", '"'))

_NAME_RE = re.compile(r"\bname\b")

_WORD_RE = re.compile(r"\w+\Z")


class Delimiter(str, enum.Enum):
    """How a definition quoted its variant; a member is the ``str`` the pairs file holds."""
    SINGLE_QUOTE = "single_quote"
    DOUBLE_QUOTE = "double_quote"
    BRACKET = "bracket"


class Validation(str, enum.Enum):
    """A pair's review status; a member is the ``str`` the pairs file holds."""
    UNVALIDATED = "unvalidated"
    CONFIRMED = "confirmed"
    REJECTED_NAME = "rejected_name"
    REJECTED_OTHER = "rejected_other"


_ENTRY_FIELDS = [("entry_id", str), ("headword", str), ("definition_text", str)]


class DefinitionEntry(NamedTuple("_Entry", _ENTRY_FIELDS)):
    """One dictionary record: an id, the headword, and the definition.

    A named tuple: a dump's records build faster and take less memory
    than as a dataclass.
    """

    __slots__ = ()

    def __new__(cls, entry_id: str, headword: str, definition_text: str):
        if not definition_text:
            raise ValueError(f"entry {entry_id!r} has an empty definition")
        return tuple.__new__(cls, (entry_id, headword, definition_text))


@dataclass
class VariantPair:
    """An (informal, formal) candidate with provenance and review status."""

    informal: str
    formal: str
    entry_id: str
    delimiter: Delimiter
    validation: Validation = Validation.UNVALIDATED

    def __post_init__(self):
        if not self.informal:
            raise ValueError("empty informal token")
        if self.informal.lower() == self.formal.lower():
            raise ValueError(
                f"degenerate pair: {self.informal!r} equals its variant"
            )
        if not _WORD_RE.match(self.formal):
            raise ValueError(f"formal token is not a single word: {self.formal!r}")


@dataclass
class ExtractionStats:
    """Tallies for one extraction run: the scan, then the cascade."""

    definitions_scanned: int = 0
    spelling_hits: int = 0
    candidates_extracted: int = 0
    excluded_name: int = 0
    excluded_frequency: int = 0
    excluded_nonascii: int = 0

    def as_text(self) -> str:
        return "".join(f"{k}: {v}\n" for k, v in asdict(self).items())

    def as_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True) + "\n"


def extract_candidate(entry: DefinitionEntry) -> VariantPair | None:
    """Apply the template to one definition; first match wins.

    Headword and variant are folded to lowercase. Returns None when the
    template does not match, when the headword is empty, when the match
    points back at the headword, or when the variant does not fold to a
    single word (``İ`` folds to ``i`` and a combining dot).
    """
    text = entry.definition_text
    if not text.isascii():
        for quote, plain in _QUOTE_FOLD:
            text = text.replace(quote, plain)
    m = _CANDIDATE_RE.search(text)
    if m is None:
        return None
    try:
        return VariantPair(
            informal=entry.headword.lower(),
            formal=m[m.lastgroup].lower(),
            entry_id=entry.entry_id,
            delimiter=Delimiter[m.lastgroup],
        )
    except ValueError:
        return None


def mine_pairs(
    entries: Iterable[DefinitionEntry],
    freq: FrequencyTable,
    min_freq: int,
) -> tuple[list[VariantPair], ExtractionStats]:
    """The extraction pipeline, in one pass over ``entries``.

    Each definition is lowercased once, for both the "spelling" scan and
    the "name" check; the template matches the text as it is. Each
    candidate then meets the exclusion cascade, where the first failed
    check claims it: non-ASCII headword, a definition holding the word
    "name", headword frequency below ``min_freq``. The kept pairs come out
    ordered by entry id, so a dump gives the same output in any order;
    a repeated entry id is a ValueError.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be positive, got {min_freq}")
    seen: set[str] = set()
    stats = ExtractionStats()
    kept: list[VariantPair] = []
    for entry in entries:
        if entry.entry_id in seen:
            raise ValueError(f"duplicate entry id in dump: {entry.entry_id!r}")
        seen.add(entry.entry_id)
        lowered = entry.definition_text.lower()
        if SPELLING_MARKER not in lowered:
            continue
        stats.spelling_hits += 1
        pair = extract_candidate(entry)
        if pair is None:
            continue
        stats.candidates_extracted += 1
        if not pair.informal.isascii():
            stats.excluded_nonascii += 1
        elif "name" in lowered and _NAME_RE.search(lowered):  # the substring test is cheaper
            stats.excluded_name += 1
        elif freq[pair.informal] < min_freq:
            stats.excluded_frequency += 1
        else:
            kept.append(pair)
    stats.definitions_scanned = len(seen)
    kept.sort(key=attrgetter("entry_id"))
    return kept, stats


# --- file formats ---------------------------------------------------------
#
# Both files are records of the _fileio codec, one per line, every field
# escaped, so a definition or a token may hold any text, U+FEFF included.
#
# definitions dump: entry_id TAB headword TAB definition_text.
#
# pairs file: informal TAB formal TAB entry_id TAB delimiter TAB validation.


def read_definitions(source) -> Iterator[DefinitionEntry]:
    """Yield a definitions dump's entries lazily; a bad line raises its
    ParseError when the stream reaches it. An empty file is an empty dump;
    ids are checked for repeats by ``mine_pairs``, which takes any iterable."""
    return read_records(source, 3, DefinitionEntry)


def write_pairs(pairs: Iterable[VariantPair], sink) -> None:
    """Write one record per pair, in the given order; ``read_pairs`` reads back what it writes."""
    write_records(sink, ((p.informal, p.formal, p.entry_id, p.delimiter, p.validation)
                         for p in pairs))


def read_pairs(source) -> list[VariantPair]:
    """Read a pairs file; a bad line is the ParseError naming it."""
    return list(read_records(source, 5, lambda i, f, e, d, v: VariantPair(
        i, f, e, Delimiter(d), Validation(v))))
