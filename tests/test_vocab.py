import io
from itertools import chain

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import lexicon_of, reference_counts, reference_lexicon, reference_tokenize
from spellvar.errors import ParseError
from spellvar.vocab import (
    FrequencyTable,
    build_lexicon,
    count_frequencies,
    load_frequencies,
    load_lexicon,
    tokenize,
    write_frequencies,
    write_lexicon,
)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert list(tokenize("The Cat sat")) == ["the", "cat", "sat"]

    def test_outer_punctuation_stripped(self):
        assert list(tokenize("Hello, world!")) == ["hello", "world"]

    def test_inner_punctuation_kept(self):
        assert list(tokenize("don't re-do")) == ["don't", "re-do"]

    def test_pure_punctuation_dropped(self):
        assert list(tokenize("a -- b ???")) == ["a", "b"]

    def test_empty(self):
        assert list(tokenize("")) == []
        assert list(tokenize("   \t\n ")) == []


# Characters the tokenizer must treat exactly as the reference does: ASCII and
# non-ASCII punctuation at either end of a token, apostrophes and hyphens
# inside one, "İ" (lowercases to two code points, the second not
# alphanumeric), the Kelvin sign (lowercases to ASCII "k"), "Σ" (final form
# at a word end), and separators str.split() splits on besides the ASCII
# blanks: NBSP, 0x1c-0x1f, U+0085 and U+2028.
TRICKY = "aZ9 '-.,!?\"()[]—–«»¿¡’“”…·\u0307\u00a0\x1c\x1d\x1e\x1f\x85\u2028İ\u212aΣé"
LINE = st.one_of(
    st.text(alphabet=st.one_of(st.sampled_from(TRICKY), st.characters()), max_size=30),
    st.binary(max_size=30).map(lambda b: b.decode("utf-8", "surrogateescape")),
)


class TestTokenizerReference:
    """tokenize, count_frequencies and build_lexicon against the per-character loop."""

    @seed(20261018)
    @settings(max_examples=600, deadline=None)
    @given(st.lists(LINE, max_size=6), st.integers(1, 3))
    def test_matches_per_character_reference(self, lines, min_count):
        for line in lines:
            assert tokenize(line) == list(reference_tokenize(line))
        counts, total = reference_counts(lines)
        table = count_frequencies(chain.from_iterable(map(tokenize, lines)))
        assert (table.counts, table.total_tokens) == (counts, total)
        if not total:
            with pytest.raises(ValueError, match="empty corpus"):
                build_lexicon(chain.from_iterable(map(tokenize, lines)), min_count)
            return
        lexicon = build_lexicon(chain.from_iterable(map(tokenize, lines)), min_count)
        assert lexicon.tokens == reference_lexicon(lines, min_count)

    def test_slow_path_cases(self):
        text = "«Word» —x— ’tis ΣΑΣ \udcffa\udcff İ \u212a a-\u0307 \u00a0-b-\x85"
        assert tokenize(text) == list(reference_tokenize(text))
        assert tokenize(text) == ["word", "x", "tis", "σας", "a", "i", "k", "a", "b"]


class TestBuildLexicon:
    def test_min_count_threshold(self):
        # token stream "the cat the": threshold 2 keeps only "the"
        lex = build_lexicon(["the", "cat", "the"], min_count=2)
        assert lex.tokens == frozenset({"the"})

    def test_inclusive_floor(self):
        lex = build_lexicon(["the", "cat", "the"], min_count=1)
        assert lex.tokens == frozenset({"the", "cat"})

    def test_min_count_one_gives_distinct_tokens(self):
        tokens = ["b", "a", "b", "c", "a"]
        lex = build_lexicon(tokens, min_count=1)
        assert lex.tokens == frozenset(tokens)

    def test_folds_case(self):
        lex = build_lexicon(["Two", "two"], min_count=2)
        assert lex.tokens == frozenset({"two"})

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_lexicon([])

    def test_bad_min_count_rejected(self):
        with pytest.raises(ValueError):
            build_lexicon(["a"], min_count=0)

    @given(
        st.lists(st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=20),
        st.integers(1, 5),
    )
    @settings(max_examples=100)
    def test_raising_min_count_shrinks_lexicon(self, tokens, min_count):
        lo = build_lexicon(tokens, min_count=min_count)
        hi = build_lexicon(tokens, min_count=min_count + 1)
        assert hi.tokens <= lo.tokens


class TestLexiconIO:
    def test_membership_is_exact_probe(self):
        lex = lexicon_of("sucks", "receive")
        assert "sucks" in lex
        assert "receive" in lex
        assert "SUCKS" not in lex
        assert "Receive" not in lex
        assert "nope" not in lex

    def test_load_folds_and_dedups(self):
        lex = load_lexicon(b"Sucks\nsucks\nreceive\n")
        assert lex.tokens == frozenset({"sucks", "receive"})
        assert lex.duplicates == 1
        lex = load_lexicon(b"A\n \na\n\n\t\nb\n")
        assert lex.tokens == frozenset({"a", "b"})
        assert lex.duplicates == 1

    def test_load_skips_blank_lines(self):
        lex = load_lexicon(b"a\n\nb\n")
        assert lex.tokens == frozenset({"a", "b"})

    def test_load_empty_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            load_lexicon(b"")
        with pytest.raises(ParseError, match="empty"):
            load_lexicon(b"\n\n")

    def test_write_sorted(self):
        sink = io.BytesIO()
        write_lexicon(lexicon_of("zebra", "apple", "mango"), sink)
        assert sink.getvalue() == b"apple\nmango\nzebra\n"

    @pytest.mark.parametrize("token", ["x\ny", " pad", "a\tb", "", "\u3000", "\ufeffa"])
    def test_write_rejects_a_token_that_would_not_read_back(self, token):
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="would not read back") as raised:
            write_lexicon(build_lexicon(["ok", token]), sink)
        assert repr(token) in str(raised.value)
        assert sink.getvalue() == b""

    def test_write_rejects_an_empty_lexicon(self):
        # load_lexicon refuses a file with no token, so none is written.
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="empty lexicon would not read back"):
            write_lexicon(build_lexicon(["a", "b"], min_count=2), sink)
        assert sink.getvalue() == b""

    @given(st.lists(st.text(max_size=4), min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_built_lexicon_reads_back_or_write_raises(self, tokens):
        lexicon = build_lexicon(tokens)
        sink = io.BytesIO()
        try:
            write_lexicon(lexicon, sink)
        except ValueError:
            assert any(t.split() != [t] or t.startswith("\ufeff") for t in lexicon.tokens)
            return
        assert load_lexicon(sink.getvalue()).tokens == lexicon.tokens

    def test_round_trip(self):
        lex = lexicon_of("gamma", "alpha", "beta")
        sink = io.BytesIO()
        write_lexicon(lex, sink)
        again = load_lexicon(sink.getvalue())
        assert again.tokens == lex.tokens


class TestFrequencies:
    def test_count_basic(self):
        freq = count_frequencies(["a", "a", "b"])
        assert freq.counts == {"a": 2, "b": 1}
        assert freq.total_tokens == 3

    def test_empty_stream(self):
        freq = count_frequencies([])
        assert freq.counts == {}
        assert freq.total_tokens == 0

    def test_missing_token_is_zero(self):
        freq = count_frequencies(["a"])
        assert freq["zzz"] == 0

    @given(st.lists(st.text(alphabet="xy", min_size=1, max_size=3), max_size=25), st.randoms())
    @settings(max_examples=100)
    def test_stream_order_irrelevant(self, tokens, rnd):
        shuffled = list(tokens)
        rnd.shuffle(shuffled)
        a = count_frequencies(tokens)
        b = count_frequencies(shuffled)
        assert a.counts == b.counts
        assert a.total_tokens == b.total_tokens

    def test_write_orders_by_count_then_token(self):
        freq = FrequencyTable(counts={"b": 2, "a": 2, "c": 9})
        sink = io.BytesIO()
        write_frequencies(freq, sink)
        assert sink.getvalue() == b"c\t9\na\t2\nb\t2\n"

    def test_load_round_trip(self):
        freq = count_frequencies(["one two two three three three"])
        sink = io.BytesIO()
        write_frequencies(freq, sink)
        again = load_frequencies(sink.getvalue())
        assert again.counts == freq.counts
        assert again.total_tokens == freq.total_tokens
        # One carriage return before each line feed is dropped, so a CRLF file loads.
        assert load_frequencies(sink.getvalue().replace(b"\n", b"\r\n")).counts == freq.counts

    def test_tokens_with_tabs_and_backslashes_round_trip(self, tmp_path):
        table = FrequencyTable(counts={"a\tb": 2, "back\\slash": 1, "plain": 5})
        path = tmp_path / "freq.tsv"
        write_frequencies(table, path)
        assert load_frequencies(path).counts == table.counts

    def test_load_rejects_bad_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            load_frequencies(b"solo\n")
        # A record ends only at a line feed: a lone carriage return is field data.
        with pytest.raises(ParseError) as caught:
            load_frequencies(b"a\t5\rb\t6\n")
        assert str(caught.value) == "line 1: expected 2 tab-separated fields, found 3"

    def test_load_rejects_non_integer(self):
        with pytest.raises(ParseError, match="^line 2: non-integer count 'many'$"):
            load_frequencies(b"a\t1\nb\tmany\n")
        # A count reads only as str() writes it, though int() takes each of
        # these; a text str() never writes is refused before its value is checked.
        for text in ("+5", " 5", "5 ", "05", "5_0", "\u0665", "\uff11", "00", "-03"):
            with pytest.raises(ParseError) as raised:
                load_frequencies(f"a\t{text}\n".encode())
            assert str(raised.value) == f"line 1: non-integer count {text!r}"

    def test_load_rejects_nonpositive(self):
        with pytest.raises(ParseError, match="^line 1: count must be >= 1, got 0$"):
            load_frequencies(b"a\t0\n")
        with pytest.raises(ParseError, match="^line 1: count must be >= 1, got -3$"):
            load_frequencies(b"a\t-3\n")

    def test_load_rejects_repeated_token(self):
        # Keeping either count would make total_tokens disagree with the file.
        with pytest.raises(ParseError, match="^line 3: repeated token 'a'$") as caught:
            load_frequencies(b"a\t5\nb\t3\na\t7\n")
        assert caught.value.line == 3

    def test_load_empty_gives_empty_table(self):
        freq = load_frequencies(b"")
        assert freq.total_tokens == 0
        assert freq["anything"] == 0

