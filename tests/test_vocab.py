import io
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import lexicon_of, reference_counts, reference_lexicon, reference_tokenize
from spellvar.errors import ParseError
from spellvar.vocab import (
    FormalLexicon,
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
        assert (dict(table), table.total_tokens) == (counts, total)
        if not total:
            with pytest.raises(ValueError, match="empty corpus"):
                build_lexicon(chain.from_iterable(map(tokenize, lines)), min_count)
            return
        lexicon = build_lexicon(chain.from_iterable(map(tokenize, lines)), min_count)
        assert lexicon == reference_lexicon(lines, min_count)

    def test_slow_path_cases(self):
        text = "«Word» —x— ’tis ΣΑΣ \udcffa\udcff İ \u212a a-\u0307 \u00a0-b-\x85"
        assert tokenize(text) == list(reference_tokenize(text))
        assert tokenize(text) == ["word", "x", "tis", "σας", "a", "i", "k", "a", "b"]


class TestBuildLexicon:
    def test_min_count_threshold(self):
        # token stream "the cat the": threshold 2 keeps only "the"
        lex = build_lexicon(["the", "cat", "the"], min_count=2)
        assert lex == frozenset({"the"})

    def test_inclusive_floor(self):
        lex = build_lexicon(["the", "cat", "the"], min_count=1)
        assert lex == frozenset({"the", "cat"})

    def test_min_count_one_gives_distinct_tokens(self):
        tokens = ["b", "a", "b", "c", "a"]
        lex = build_lexicon(tokens, min_count=1)
        assert lex == frozenset(tokens)

    def test_folds_case(self):
        lex = build_lexicon(["Two", "two"], min_count=2)
        assert lex == frozenset({"two"})

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
        assert hi <= lo


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
        assert lex == frozenset({"sucks", "receive"})
        assert lex.duplicates == 1
        lex = load_lexicon(b"A\n \na\n\n\t\nb\n")
        assert lex == frozenset({"a", "b"})
        assert lex.duplicates == 1

    def test_load_skips_blank_lines(self):
        lex = load_lexicon(b"a\n\nb\n")
        assert lex == frozenset({"a", "b"})

    def test_load_empty_rejected(self):
        with pytest.raises(ParseError, match="empty"):
            load_lexicon(b"")
        with pytest.raises(ParseError, match="empty"):
            load_lexicon(b"\n\n")

    def test_write_sorted(self):
        sink = io.BytesIO()
        write_lexicon(lexicon_of("zebra", "apple", "mango"), sink)
        assert sink.getvalue() == b"apple\nmango\nzebra\n"

    # load_lexicon folds case, so "Your" would read back as "your".
    @pytest.mark.parametrize(
        "token", ["x\ny", "x\ry", " pad", "pad ", "", "\u3000", "Your"])
    def test_write_rejects_a_token_that_would_not_read_back(self, token):
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="would not read back") as raised:
            write_lexicon(FormalLexicon({"ok", token}), sink)
        assert repr(token) in str(raised.value)
        assert sink.getvalue() == b""

    # The load splits lines only at LF, CR and CRLF, then strips each line's ends;
    # U+FEFF is not whitespace, and "\ufeffa" sorts after "ok", so it is not the file's first.
    @pytest.mark.parametrize("token", [
        "a b", "a\tb", "a\x1cb", "a\x85b", "a\u3000b", "a\x0bb", "a\x0cb", "a\u2028b", "\ufeffa"])
    def test_a_token_with_inner_whitespace_reads_back(self, token):
        sink = io.BytesIO()
        write_lexicon(FormalLexicon({"ok", token}), sink)
        assert load_lexicon(sink.getvalue()) == {"ok", token}

    def test_a_loaded_lexicon_writes_back(self):
        lexicon = load_lexicon(b"a\n\xef\xbb\xbfb\n")
        assert lexicon == {"a", "\ufeffb"}
        sink = io.BytesIO()
        write_lexicon(lexicon, sink)
        assert sink.getvalue() == b"a\n\xef\xbb\xbfb\n"
        assert load_lexicon(sink.getvalue()) == lexicon

    def test_write_refuses_a_lexicon_whose_first_token_opens_with_u_feff(self):
        # The load would drop it as a byte-order mark; write_text refuses it.
        sink = io.BytesIO()
        with pytest.raises(ValueError, match="^text would not read back as written$"):
            write_lexicon(FormalLexicon({"\ufeffa", "\ufeffb"}), sink)
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
        except ValueError:  # the loader's rule, or a file that would open with U+FEFF
            assert any(not t or "\n" in t or "\r" in t or t.strip().lower() != t
                       for t in lexicon) or min(lexicon).startswith("\ufeff")
            return
        assert load_lexicon(sink.getvalue()) == lexicon

    def test_round_trip(self):
        lex = lexicon_of("gamma", "alpha", "beta")
        sink = io.BytesIO()
        write_lexicon(lex, sink)
        again = load_lexicon(sink.getvalue())
        assert again == lex


class TestFrequencies:
    def test_count_basic(self):
        freq = count_frequencies(["a", "a", "b"])
        assert dict(freq) == {"a": 2, "b": 1}
        assert freq.total_tokens == 3

    def test_empty_stream(self):
        freq = count_frequencies([])
        assert dict(freq) == {}
        assert freq.total_tokens == 0

    def test_missing_token_is_zero(self):
        freq = count_frequencies(["a"])
        assert freq["zzz"] == 0

    def test_counts_keyword_is_the_table(self):
        # A bare Counter would count a keyword as a token: {"counts": {...}}.
        freq = FrequencyTable(counts={"a": 5, "b": 2})
        assert isinstance(freq, Counter)
        assert (dict(freq), freq["counts"], freq.total_tokens) == ({"a": 5, "b": 2}, 0, 7)
        assert dict(FrequencyTable({"a": 5})) == dict(FrequencyTable(counts=["a"] * 5))
        with pytest.raises(TypeError):
            FrequencyTable(a=5)

    @given(st.lists(st.text(alphabet="xy", min_size=1, max_size=3), max_size=25), st.randoms())
    @settings(max_examples=100)
    def test_stream_order_irrelevant(self, tokens, rnd):
        shuffled = list(tokens)
        rnd.shuffle(shuffled)
        a = count_frequencies(tokens)
        b = count_frequencies(shuffled)
        assert dict(a) == dict(b)
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
        assert dict(again) == dict(freq)
        assert again.total_tokens == freq.total_tokens
        # One carriage return before each line feed is dropped, so a CRLF file loads.
        assert dict(load_frequencies(sink.getvalue().replace(b"\n", b"\r\n"))) == dict(freq)

    @pytest.mark.parametrize("counts, lowered", [
        ({"a": 2, "c": 0}, None),
        ({"a": 2, "b": 1}, "b"),
        ({"a": 2.0}, None),
        ({"a": True}, None),
    ], ids=["zero", "lowered by -=", "float", "bool"])
    def test_write_refuses_a_count_the_load_refuses(self, counts, lowered):
        table = FrequencyTable(counts)
        if lowered:
            table[lowered] -= 2
        sink = io.BytesIO()
        with pytest.raises(ValueError) as refused:
            write_frequencies(table, sink)
        assert sink.getvalue() == b""
        # The lines the writer would have written, and the load's error on them.
        ranked = sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))
        with pytest.raises(ParseError) as caught:
            load_frequencies("".join(f"{t}\t{c}\n" for t, c in ranked).encode())
        assert str(caught.value) == f"line {len(ranked)}: {refused.value}"

    def test_tokens_with_tabs_and_backslashes_round_trip(self, tmp_path):
        table = FrequencyTable(counts={"a\tb": 2, "back\\slash": 1, "plain": 5})
        path = tmp_path / "freq.tsv"
        write_frequencies(table, path)
        assert dict(load_frequencies(path)) == dict(table)

    def test_a_loaded_table_writes_back(self):
        # "\ufeffb" is the most frequent, so its line opens the file, with \z.
        table = load_frequencies(b"a\t1\n\xef\xbb\xbfb\t5\n")
        assert dict(table) == {"a": 1, "\ufeffb": 5}
        sink = io.BytesIO()
        write_frequencies(table, sink)
        assert sink.getvalue() == b"\\zb\t5\na\t1\n"
        assert load_frequencies(sink.getvalue()) == table

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

