import io
import json
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import reference_mine, write_definitions
from spellvar.cli import main
from spellvar._fileio import _escape, _unescape, format_record, read_records, write_records
from spellvar.errors import ParseError
from spellvar.extract import (
    DefinitionEntry,
    Delimiter,
    ExtractionStats,
    Validation,
    VariantPair,
    extract_candidate,
    mine_pairs,
    read_definitions,
    read_pairs,
    write_pairs,
)
from spellvar.vocab import FrequencyTable, count_frequencies, tokenize

DATA = Path(__file__).parent / "data"

# A field as a decoded file can hold it: any text, or bytes that need not be
# UTF-8, whose stray bytes decode to lone surrogates under surrogateescape.
FIELD = st.one_of(
    st.text(
        alphabet=st.one_of(
            st.characters(blacklist_categories=("Cs",)), st.sampled_from("\\\t\n\r,:")
        ),
        max_size=20,
    ),
    st.binary(max_size=20).map(lambda b: b.decode("utf-8", "surrogateescape")),
)


def entry(definition, headword="head", entry_id="e1"):
    return DefinitionEntry(entry_id=entry_id, headword=headword, definition_text=definition)


def spelling_hits(entries) -> int:
    return mine_pairs(entries, FrequencyTable(), 1)[1].spelling_hits


class TestFindSpellingDefinitions:
    """The "spelling" scan, as ``mine_pairs`` counts it."""

    def test_substring_case_folded(self):
        entries = [
            entry('[Demoscene] spelling of "Sucks".', headword="suxx", entry_id="e1"),
            entry("The wrong way to spell definitely.", headword="definately", entry_id="e2"),
            entry("A common MISSPELLING of the word niece.", headword="neice", entry_id="e3"),
        ]
        assert [e.headword for e in entries if spelling_hits([e])] == ["suxx", "neice"]
        assert spelling_hits(entries) == 2

    def test_empty(self):
        kept, stats = mine_pairs([], FrequencyTable(), 1)
        assert kept == []
        assert (stats.definitions_scanned, stats.spelling_hits) == (0, 0)


class TestExtractCandidate:
    def test_double_quote(self):
        pair = extract_candidate(entry('[Demoscene] spelling of "Sucks".', headword="suxx"))
        assert (pair.informal, pair.formal) == ("suxx", "sucks")
        assert pair.delimiter is Delimiter.DOUBLE_QUOTE
        assert pair.validation is Validation.UNVALIDATED

    def test_single_quote(self):
        pair = extract_candidate(entry("Incorrect spelling of 'really'.", headword="realy"))
        assert (pair.informal, pair.formal) == ("realy", "really")
        assert pair.delimiter is Delimiter.SINGLE_QUOTE

    def test_bracket_link(self):
        pair = extract_candidate(
            entry("The correct spelling of moran when posting to [fark]", headword="moran")
        )
        assert (pair.informal, pair.formal) == ("moran", "fark")
        assert pair.delimiter is Delimiter.BRACKET

    def test_headword_folded(self):
        pair = extract_candidate(
            entry('The ancient spelling of the word "Iranian".', headword="Aryan")
        )
        assert (pair.informal, pair.formal) == ("aryan", "iranian")

    def test_greedy_run_takes_last_delimited_word(self):
        text = (
            "However, the younger generation (that were born after 1983) think it is a "
            'great word for someone who likes "Nu Metal" And go around calling people '
            'fake moshas (or as the spelling was originally "Moshers".'
        )
        pair = extract_candidate(entry(text, headword="mosha"))
        assert (pair.informal, pair.formal) == ("mosha", "moshers")

    def test_long_distance_capture(self):
        text = (
            "The spelling bee champion of his 1st grade class above me neglected to "
            'correctly spell "acquired", so it seems all of you who are reading this '
            "get a double-dose of spelling corrections."
        )
        pair = extract_candidate(entry(text, headword="recieve"))
        assert (pair.informal, pair.formal) == ("recieve", "acquired")

    def test_comma_stops_the_run(self):
        text = (
            "Neice is a common misspelling of the word niece, meaning the daughter of "
            "one's brother or sister. The correct spelling is niece."
        )
        assert extract_candidate(entry(text, headword="neice")) is None

    def test_period_stops_the_run(self):
        assert extract_candidate(entry('A spelling. Of "Sucks".', headword="suxx")) is None

    def test_no_marker(self):
        assert extract_candidate(entry('I spell "sucks" this way.', headword="suxx")) is None

    def test_marker_is_lowercase_only(self):
        assert extract_candidate(entry('The Spelling of "Sucks".', headword="suxx")) is None

    def test_marker_matches_inside_longer_words(self):
        pair = extract_candidate(entry('A common misspelling of "niece".', headword="neice"))
        assert (pair.informal, pair.formal) == ("neice", "niece")

    def test_multiword_quote_not_extracted(self):
        assert extract_candidate(entry('A spelling of "Nu Metal".', headword="numetal")) is None

    def test_unterminated_quote_not_extracted(self):
        assert extract_candidate(entry('A spelling of "sucks', headword="suxx")) is None

    def test_first_match_wins(self):
        pair = extract_candidate(
            entry('A spelling of "first". Also a spelling of "second".', headword="x")
        )
        assert pair.formal == "first"

    def test_self_match_dropped(self):
        assert extract_candidate(entry('Another spelling of "Sucks".', headword="sucks")) is None
        assert extract_candidate(entry('Another spelling of "Sucks".', headword="SUCKS")) is None

    def test_curly_quotes_folded(self):
        pair = extract_candidate(
            entry("A spelling of “Sucks”.", headword="suxx")
        )
        assert pair.formal == "sucks"
        assert pair.delimiter is Delimiter.DOUBLE_QUOTE
        pair = extract_candidate(
            entry("A spelling of ‘really’ online.", headword="realy")
        )
        assert pair.formal == "really"
        assert pair.delimiter is Delimiter.SINGLE_QUOTE

    def test_space_required_before_delimiter(self):
        assert extract_candidate(entry('A spelling-"sucks" thing.', headword="suxx")) is None


class TestVariantPair:
    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            VariantPair("sucks", "Sucks", "e1", Delimiter.DOUBLE_QUOTE)

    def test_multiword_formal_rejected(self):
        with pytest.raises(ValueError, match="single word"):
            VariantPair("x", "two words", "e1", Delimiter.DOUBLE_QUOTE)
        with pytest.raises(ValueError, match="single word"):
            VariantPair("x", "", "e1", Delimiter.DOUBLE_QUOTE)

    def test_empty_definition_rejected(self):
        with pytest.raises(ValueError, match="empty definition"):
            DefinitionEntry(entry_id="e1", headword="h", definition_text="")


def run_filters(defs_and_freqs, min_freq=100):
    """defs_and_freqs: list of (headword, definition, freq_count)."""
    entries = []
    counts = {}
    for i, (head, definition, count) in enumerate(defs_and_freqs):
        entries.append(entry(definition, headword=head, entry_id=f"e{i}"))
        if count:
            counts[head.lower()] = count
    return mine_pairs(entries, FrequencyTable(counts=counts), min_freq)


class TestApplyFilters:
    """The exclusion cascade, as ``mine_pairs`` runs it."""

    def test_all_pass(self):
        kept, stats = run_filters([("suxx", 'A spelling of "Sucks".', 500)])
        assert [p.informal for p in kept] == ["suxx"]
        assert stats.candidates_extracted == 1
        assert (stats.excluded_name, stats.excluded_frequency, stats.excluded_nonascii) == (0, 0, 0)

    def test_name_word_excludes_and_marks(self):
        kept, stats = run_filters(
            [("jimbo", 'Another spelling of "James". Usually a name.', 500)]
        )
        assert kept == []
        assert stats.excluded_name == 1

    def test_name_match_is_word_bounded(self):
        kept, stats = run_filters(
            [("jimbo", 'A spelling of "James" fans renamed their namesake.', 500)]
        )
        assert len(kept) == 1
        assert stats.excluded_name == 0

    def test_name_match_case_folded(self):
        kept, stats = run_filters([("jimbo", 'NAME variant spelling of "James".', 500)])
        assert kept == []
        assert stats.excluded_name == 1

    def test_frequency_boundary(self):
        kept, stats = run_filters(
            [
                ("rare", 'A spelling of "sucks".', 99),
                ("edge", 'A spelling of "sucks".', 100),
                ("unseen", 'A spelling of "sucks".', 0),
            ]
        )
        assert [p.informal for p in kept] == ["edge"]
        assert stats.excluded_frequency == 2

    def test_non_ascii_headword(self):
        kept, stats = run_filters([("über", 'A spelling of "uber".', 500)])
        assert kept == []
        assert stats.excluded_nonascii == 1

    def test_cascade_order_is_exclusive(self):
        # fails every check; only the first (non-ASCII) claims it
        kept, stats = run_filters(
            [("über", 'A name spelling of "uber".', 0)]
        )
        assert kept == []
        assert (stats.excluded_nonascii, stats.excluded_name, stats.excluded_frequency) == (1, 0, 0)
        # name outranks frequency
        kept, stats = run_filters([("jimbo", 'A name spelling of "James".', 0)])
        assert (stats.excluded_name, stats.excluded_frequency) == (1, 0)

    def test_stats_arithmetic(self):
        kept, stats = run_filters(
            [
                ("good", 'A spelling of "fine".', 500),
                ("jimbo", 'A name spelling of "James".', 500),
                ("rare", 'A spelling of "scarce".', 3),
                ("über", 'A spelling of "uber".', 500),
            ]
        )
        assert stats.candidates_extracted == (
            len(kept)
            + stats.excluded_name
            + stats.excluded_frequency
            + stats.excluded_nonascii
        )
        assert len(kept) == 1

    def test_headword_is_looked_up_as_written_not_as_tokenized(self):
        # The corpus counts "'sup" as "sup", and "ur mom" as two tokens; a
        # headword meets the table lowercased as written, so neither is found.
        freq = count_frequencies(tokenize("'sup 'sup 'sup ur mom"))
        assert (freq["sup"], freq["ur"], freq["mom"]) == (3, 1, 1)
        entries = [DefinitionEntry("e1", "'Sup", 'A spelling of "wassup".'),
                   DefinitionEntry("e2", "ur mom", 'A spelling of "yourmom".')]
        kept, stats = mine_pairs(entries, freq, 1)
        assert kept == []
        assert (stats.candidates_extracted, stats.excluded_frequency) == (2, 2)

    def test_bad_min_freq(self):
        with pytest.raises(ValueError, match="min_freq"):
            mine_pairs([], FrequencyTable(), 0)

    def test_empty_headword_never_kept(self):
        # a frequency file may count the empty token; the pair is a template miss
        kept, stats = run_filters([("", 'A spelling of "sucks".', 500)], min_freq=1)
        assert kept == []
        assert (stats.spelling_hits, stats.candidates_extracted) == (1, 0)


class TestMinePairs:
    FREQ = FrequencyTable(counts={"alpha": 500, "beta": 500, "gamma": 500})

    def entries(self):
        return [
            entry('A spelling of "three".', headword="gamma", entry_id="e3"),
            entry('A spelling of "one".', headword="alpha", entry_id="e1"),
            entry('A spelling of "two".', headword="beta", entry_id="e2"),
        ]

    def test_output_ordered_by_entry_id(self):
        kept, stats = mine_pairs(self.entries(), self.FREQ, 100)
        assert [(p.entry_id, p.formal) for p in kept] == [
            ("e1", "one"),
            ("e2", "two"),
            ("e3", "three"),
        ]
        assert stats.definitions_scanned == 3
        assert stats.spelling_hits == 3

    def test_duplicate_entry_id_rejected(self):
        dupes = [
            entry("text one here", entry_id="e1"),
            entry("text two here", entry_id="e1"),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            mine_pairs(dupes, self.FREQ, 100)

    def test_sample_dump_end_to_end(self):
        entries = read_definitions(DATA / "definitions_sample.tsv")
        from spellvar.vocab import load_frequencies

        freq = load_frequencies(DATA / "frequencies_sample.tsv")
        kept, stats = mine_pairs(entries, freq, 100)
        assert [(p.informal, p.formal) for p in kept] == [
            ("suxx", "sucks"),
            ("recieve", "acquired"),
            ("moran", "fark"),
            ("aryan", "iranian"),
            ("mosha", "moshers"),
        ]
        assert stats.definitions_scanned == 7
        assert stats.spelling_hits == 6
        assert stats.candidates_extracted == 5


# Definitions for the reference comparison: the template's parts, each
# drawn from near misses. The scan for "spelling" is case-folded and the
# template is not, so "SPELLING of 'x'" is a hit but no candidate.
# Typographic quotes come in otherwise ASCII text and next to other
# non-ASCII characters. "İname" lowercases to "i", a combining dot and
# "name", so it holds the word "name" only after lowercasing.
DEFINITION = st.tuples(
    st.one_of(st.text(max_size=3), st.sampled_from(("A ", "Mis", "The é ", "İname ", "NaMe: "))),
    st.sampled_from(("spelling", "SPELLING", "Spelling", "Misspelling", "spell")),
    st.sampled_from((" of", " of the word", "", ",", ".", " of é", " name", " \u2018or\u2019")),
    st.sampled_from((" ", "", "  ")),
    st.sampled_from(("'", '"', "[", "\u2018", "\u201c", "\u2019", "\u201d")),
    st.sampled_from(("sucks", "Sucks", "İstanbul", "suxx", "Word", "\u212aelvin", "two words", "é", "x")),
    st.sampled_from(("'", '"', "]", "\u2019", "\u201d", "\u2018", "\u201c")),
    st.one_of(st.text(max_size=3), st.sampled_from((".", " name.", ", a NaMe", " İname", " renamed"))),
).map("".join)
HEADWORD = st.sampled_from(("suxx", "Word", "sucks", "x", "über", "İ", "istanbul", "k", "ñame"))
COUNTS = {"suxx": 500, "word": 120, "sucks": 100, "x": 99, "über": 500, "k": 300}


class TestMinePairsReference:
    @seed(20261019)
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 999), HEADWORD, DEFINITION), max_size=12,
                 unique_by=lambda r: r[0]),
        st.integers(1, 200),
    )
    def test_matches_stage_by_stage_reference(self, records, min_freq):
        entries = [DefinitionEntry(f"e{i:03d}", head, text) for i, head, text in records]
        kept, stats = mine_pairs(entries, FrequencyTable(COUNTS), min_freq)
        expected_kept, expected_stats = reference_mine(entries, COUNTS, min_freq)
        assert [
            (p.informal, p.formal, p.entry_id, p.delimiter.value, p.validation.value)
            for p in kept
        ] == expected_kept
        assert json.loads(stats.as_json()) == expected_stats


class TestStatsRendering:
    def test_as_text(self):
        stats = ExtractionStats(definitions_scanned=7, spelling_hits=6, candidates_extracted=5)
        text = stats.as_text()
        assert "definitions_scanned: 7\n" in text
        assert "spelling_hits: 6\n" in text
        assert text.endswith("\n")
        assert len(text.splitlines()) == 6

    def test_as_json(self):
        stats = ExtractionStats(candidates_extracted=5, excluded_name=2)
        data = json.loads(stats.as_json())
        assert data["candidates_extracted"] == 5
        assert data["excluded_name"] == 2
        assert len(data) == 6


class TestDefinitionsIO:
    def test_round_trip_with_escapes(self):
        entries = [
            DefinitionEntry("e1", "suxx", 'line one\nline two\twith tab\\and slash'),
            DefinitionEntry("e2", "braj", "plain"),
        ]
        sink = io.BytesIO()
        write_definitions(entries, sink)
        assert b"\\n" in sink.getvalue()
        assert len(sink.getvalue().splitlines()) == 2
        again = list(read_definitions(sink.getvalue()))
        assert again == entries
        # A lone carriage return in a definition is field data, written back escaped.
        raw = b"e1\thw\tfirst part\rsecond part\ne2\thw2\tok\n"
        entries = list(read_definitions(raw))
        assert entries == [
            DefinitionEntry("e1", "hw", "first part\rsecond part"), DefinitionEntry("e2", "hw2", "ok"),
        ]
        sink = io.BytesIO()
        write_definitions(entries, sink)
        assert sink.getvalue() == raw.replace(b"\r", b"\\r")

    def test_empty_file_is_empty_dump(self):
        assert list(read_definitions(b"")) == []

    def test_field_count_error(self):
        with pytest.raises(ParseError, match="line 2"):
            list(read_definitions(b"e1\thead\tdef text\ne2\tonly-two-fields\n"))

    def test_duplicate_id_error(self, tmp_path, capsys):
        defs = tmp_path / "defs.tsv"
        defs.write_bytes(b'e1\ta\tA spelling of "x".\ne1\tb\tsecond def\n')
        freq = tmp_path / "freq.tsv"
        freq.write_bytes(b"a\t500\n")
        pairs = tmp_path / "pairs.tsv"
        code = main(["extract", "--defs", str(defs), "--freq", str(freq),
                     "--pairs", str(pairs), "--min-freq", "1"])
        assert code == 1
        assert "duplicate entry id in dump: 'e1'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["defs.tsv", "freq.tsv"]

    def test_empty_definition_error(self):
        with pytest.raises(ParseError, match="line 1"):
            list(read_definitions(b"e1\thead\t\n"))

    def test_sample_file_parses(self):
        entries = list(read_definitions(DATA / "definitions_sample.tsv"))
        assert len(entries) == 7
        assert entries[3].headword == "Aryan"  # raw case preserved at parse time

    def test_entries_are_yielded_before_a_bad_line(self):
        entries = read_definitions(b"e1\thead\tdef text\ne2\tonly-two-fields\n")
        assert next(entries) == DefinitionEntry("e1", "head", "def text")
        with pytest.raises(ParseError, match="line 2"):
            next(entries)

    def test_mining_a_dump_holds_its_ids_not_its_text(self, tmp_path):
        # Long definitions without "spelling": nothing is kept but the ids.
        path = tmp_path / "defs.tsv"
        write_definitions(
            (DefinitionEntry(f"e{i}", f"head{i}", "lorem ipsum dolor " * 100)
             for i in range(2000)),
            path,
        )
        tracemalloc.start()
        try:
            kept, stats = mine_pairs(read_definitions(path), FrequencyTable(), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept == [] and stats.definitions_scanned == 2000
        assert peak < path.stat().st_size / 8

    def test_carriage_return_round_trips_through_a_path(self, tmp_path):
        entries = [DefinitionEntry("e1", "suxx", "one\rtwo\r\nthree")]
        path = tmp_path / "defs.tsv"
        write_definitions(entries, path)
        assert list(read_definitions(path)) == entries

    @given(
        st.integers(2, 5).flatmap(
            lambda w: st.tuples(
                st.just(w), st.lists(st.lists(FIELD, min_size=w, max_size=w), max_size=6)
            )
        )
    )
    @settings(max_examples=150)
    def test_escape_round_trip(self, tmp_path_factory, width_records):
        width, records = width_records
        for fields in records:
            for text in fields:
                escaped = _escape(text)
                assert not {"\n", "\t", "\r"} & set(escaped)
                assert _unescape(escaped) == text
            assert format_record(fields).count("\t") == width - 1
        path = tmp_path_factory.getbasetemp() / "records.tsv"
        if "".join(map(format_record, records)).startswith("\ufeff"):
            # the reader drops a leading byte-order mark, so the writer refuses one
            with pytest.raises(ValueError, match="would not read back"):
                write_records(path, records)
            return
        write_records(path, records)
        assert list(read_records(path, width, lambda *fields: list(fields))) == records


class TestPairsIO:
    def test_round_trip(self):
        pairs = [
            VariantPair("suxx", "sucks", "e1", Delimiter.DOUBLE_QUOTE),
            VariantPair("moran", "fark", "e2", Delimiter.BRACKET, Validation.CONFIRMED),
            VariantPair("jimbo", "james", "e3", Delimiter.SINGLE_QUOTE, Validation.REJECTED_NAME),
        ]
        sink = io.BytesIO()
        write_pairs(pairs, sink)
        lines = sink.getvalue().decode().splitlines()
        assert lines[0] == "suxx\tsucks\te1\tdouble_quote\tunvalidated"
        assert read_pairs(sink.getvalue()) == pairs

    def test_field_count_error(self):
        with pytest.raises(ParseError, match="line 1"):
            read_pairs(b"suxx\tsucks\te1\tdouble_quote\n")

    def test_bad_delimiter_value(self):
        with pytest.raises(ParseError, match="line 1"):
            read_pairs(b"suxx\tsucks\te1\tparens\tunvalidated\n")

    def test_bad_validation_value(self):
        with pytest.raises(ParseError, match="line 1"):
            read_pairs(b"suxx\tsucks\te1\tdouble_quote\tmaybe\n")

    def test_empty_informal_rejected(self):
        with pytest.raises(ParseError, match="line 2: empty informal"):
            read_pairs(b"suxx\tsucks\te1\tdouble_quote\tunvalidated\n"
                       b"\tx\te2\tdouble_quote\tunvalidated\n")

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ParseError, match="line 1"):
            read_pairs(b"sucks\tSucks\te1\tdouble_quote\tunvalidated\n")

    def test_empty_file(self):
        assert read_pairs(b"") == []
