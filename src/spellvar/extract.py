"""Candidate spelling-variant mining from dictionary-definition dumps.

A definition like ``[Demoscene] spelling of "Sucks".`` under the headword
``suxx`` yields the candidate pair (suxx, sucks). The template: the word
"spelling", a run free of periods and commas, a space, then a quoted or
bracketed single word. Candidates then pass a cascade that drops
non-ASCII headwords, definitions containing the word "name", and
headwords too rare in an informal-corpus frequency table.

Extraction is deterministic: the pipeline orders its output by entry id,
whatever the order of the dump.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Mapping

from ._fileio import read_records, write_records
from .errors import ParseError
from .vocab import FrequencyTable

SPELLING_MARKER = "spelling"

# One alternative per delimiter kind instead of a backreference closer, so
# that bracketed cross-reference links ("[fark]") close with "]".
_CANDIDATE_RE = re.compile(
    r"spelling[^.,]* (?:'(?P<single>\w+)'|\"(?P<double>\w+)\"|\[(?P<bracket>\w+)\])"
)

# Typographic quotes appear in web-scraped text; fold them before matching.
_QUOTE_FOLD = str.maketrans({"\u2018": "'", "\u2019": "'", "\u201c": '"', "\u201d": '"'})

_NAME_RE = re.compile(r"\bname\b")

_WORD_RE = re.compile(r"\w+\Z")


class Delimiter(enum.Enum):
    SINGLE_QUOTE = "single_quote"
    DOUBLE_QUOTE = "double_quote"
    BRACKET = "bracket"


class Validation(enum.Enum):
    UNVALIDATED = "unvalidated"
    CONFIRMED = "confirmed"
    REJECTED_NAME = "rejected_name"
    REJECTED_OTHER = "rejected_other"


@dataclass(frozen=True)
class DefinitionEntry:
    """One dictionary record: an id, the headword, and the definition."""

    entry_id: str
    headword: str
    definition_text: str

    def __post_init__(self):
        if not self.definition_text:
            raise ValueError(f"entry {self.entry_id!r} has an empty definition")


@dataclass
class VariantPair:
    """An (informal, formal) candidate with provenance and review status."""

    informal: str
    formal: str
    entry_id: str
    delimiter: Delimiter
    validation: Validation = Validation.UNVALIDATED

    def __post_init__(self):
        if self.informal.lower() == self.formal.lower():
            raise ValueError(
                f"degenerate pair: {self.informal!r} equals its variant"
            )
        if not _WORD_RE.match(self.formal):
            raise ValueError(f"formal token is not a single word: {self.formal!r}")


@dataclass
class ExtractionStats:
    """Tallies for one extraction run.

    ``definitions_scanned`` and ``spelling_hits`` describe the scan stage
    and are filled by the pipeline, not by ``apply_filters`` alone.
    """

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


def find_spelling_definitions(
    entries: Iterable[DefinitionEntry],
) -> Iterator[DefinitionEntry]:
    """Yield entries whose definition contains "spelling", case-folded."""
    for entry in entries:
        if SPELLING_MARKER in entry.definition_text.lower():
            yield entry


def extract_candidate(entry: DefinitionEntry) -> VariantPair | None:
    """Apply the template to one definition; first match wins.

    Headword and variant are folded to lowercase. Returns None when the
    template does not match or the match points back at the headword.
    """
    text = entry.definition_text.translate(_QUOTE_FOLD)
    m = _CANDIDATE_RE.search(text)
    if m is None:
        return None
    if m.group("single") is not None:
        variant, delimiter = m.group("single"), Delimiter.SINGLE_QUOTE
    elif m.group("double") is not None:
        variant, delimiter = m.group("double"), Delimiter.DOUBLE_QUOTE
    else:
        variant, delimiter = m.group("bracket"), Delimiter.BRACKET
    informal = entry.headword.lower()
    formal = variant.lower()
    if informal == formal:
        return None
    return VariantPair(
        informal=informal,
        formal=formal,
        entry_id=entry.entry_id,
        delimiter=delimiter,
    )


def apply_filters(
    pairs: list[VariantPair],
    entries_by_id: Mapping[str, DefinitionEntry],
    freq: FrequencyTable,
    min_freq: int,
    *,
    definitions_scanned: int = 0,
    spelling_hits: int = 0,
) -> tuple[list[VariantPair], ExtractionStats]:
    """Run the exclusion cascade over extracted candidates.

    Checks per pair, first failure claims it: non-ASCII headword, source
    definition containing the word "name" (marks the pair rejected_name),
    headword frequency below ``min_freq``. Raises LookupError when a
    pair's entry id is not resolvable.
    """
    if min_freq < 1:
        raise ValueError(f"min_freq must be positive, got {min_freq}")
    stats = ExtractionStats(
        definitions_scanned=definitions_scanned,
        spelling_hits=spelling_hits,
        candidates_extracted=len(pairs),
    )
    kept: list[VariantPair] = []
    for pair in pairs:
        entry = entries_by_id.get(pair.entry_id)
        if entry is None:
            raise LookupError(f"unresolvable entry id: {pair.entry_id!r}")
        if not pair.informal.isascii():
            stats.excluded_nonascii += 1
        elif _NAME_RE.search(entry.definition_text.lower()):
            pair.validation = Validation.REJECTED_NAME
            stats.excluded_name += 1
        elif freq[pair.informal] < min_freq:
            stats.excluded_frequency += 1
        else:
            kept.append(pair)
    return kept, stats


def mine_pairs(
    entries: Iterable[DefinitionEntry],
    freq: FrequencyTable,
    min_freq: int,
) -> tuple[list[VariantPair], ExtractionStats]:
    """Full pipeline: scan, extract, order by entry id, filter.

    The kept pairs come out ordered by entry id, not by dump order.
    """
    entries = list(entries)
    by_id: dict[str, DefinitionEntry] = {}
    for entry in entries:
        if entry.entry_id in by_id:
            raise ValueError(f"duplicate entry id in dump: {entry.entry_id!r}")
        by_id[entry.entry_id] = entry
    hits = list(find_spelling_definitions(entries))
    extracted = (extract_candidate(e) for e in hits)
    candidates = sorted(
        (p for p in extracted if p is not None), key=lambda p: p.entry_id
    )
    return apply_filters(
        candidates,
        by_id,
        freq,
        min_freq,
        definitions_scanned=len(entries),
        spelling_hits=len(hits),
    )


# --- file formats ---------------------------------------------------------
#
# Both files are records of the _fileio codec, one per line, every field
# escaped, so a definition may hold any text.
#
# definitions dump: entry_id TAB headword TAB definition_text.
#
# pairs file: informal TAB formal TAB entry_id TAB delimiter TAB validation.


def read_definitions(source) -> list[DefinitionEntry]:
    """Read a definitions dump. An empty file is an empty dump."""
    entries: list[DefinitionEntry] = []
    seen: set[str] = set()
    for lineno, (entry_id, headword, definition) in read_records(source, 3):
        if entry_id in seen:
            raise ParseError(f"duplicate entry id {entry_id!r}", line=lineno)
        if not definition:
            raise ParseError(f"empty definition for {entry_id!r}", line=lineno)
        seen.add(entry_id)
        entries.append(DefinitionEntry(entry_id, headword, definition))
    return entries


def write_definitions(entries: Iterable[DefinitionEntry], sink) -> None:
    write_records(sink, ((e.entry_id, e.headword, e.definition_text) for e in entries))


def write_pairs(pairs: Iterable[VariantPair], sink) -> None:
    write_records(sink, (
        (p.informal, p.formal, p.entry_id, p.delimiter.value, p.validation.value)
        for p in pairs
    ))


def read_pairs(source) -> list[VariantPair]:
    pairs: list[VariantPair] = []
    for lineno, fields in read_records(source, 5):
        informal, formal, entry_id, delimiter, validation = fields
        try:
            pairs.append(
                VariantPair(
                    informal=informal,
                    formal=formal,
                    entry_id=entry_id,
                    delimiter=Delimiter(delimiter),
                    validation=Validation(validation),
                )
            )
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    return pairs
