"""The five commands chained through ``cli.main`` on generated inputs.

count-freq and build-vocab read one corpus, extract mines a definitions dump
against the frequencies, evaluate scores the mined pairs and report reads the
report back; evaluate and report also run on a pairs file written by hand. Each
command either exits 0 having written all of its outputs, or prints ``error:``
and exits 1 having written none; no writer refuses what the loaders accepted.
Every file a command writes reads back through the tool's own
loader into what, written again, gives the same bytes.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import write_definitions
from spellvar._fileio import UTF8, write_text
from spellvar.cli import main
from spellvar.evaluate import EvalConfig, EvalReport, load_report_rows, render_report_tsv
from spellvar.extract import Delimiter, Validation, read_pairs, write_pairs
from spellvar.vocab import load_frequencies, load_lexicon, write_frequencies, write_lexicon

# Tokens the inputs share, so that pairs reach evaluate and neighbours the
# report: the codecs' special characters, non-ASCII letters, an inner U+FEFF,
# and a byte that is not UTF-8 (read as a lone surrogate).
WORDS = ["ur", "your", "u", "you", "teh", "the", "a,b", "a\\b", "a:b", "é", "x\ufeffy",
         "a\udcffb", "\u0130", "\u01c5"]
HEADWORDS = WORDS + ["UR", "Teh", "\ufeffu"]
FORMALS = ["your", "you", "the", "é", "\u01c5"]  # words the template can match
INFORMALS = ["ur", "u", "teh", "UR", "a,b", "a\\b", "a:b"]  # ASCII, so extract can keep them
SPACE = ["", "\t", "\ufeff", "\x1c", "\r", "-", "'", "#", "\udcc3", "\udca9"]
QUOTES = [('"', '"'), ("'", "'"), ("[", "]"), ("\u201c", "\u201d"), ("\u2018", "\u2019")]


def _encoded(text: str, bom: bool) -> bytes:
    return b"\xef\xbb\xbf" * bom + text.encode(**UTF8)


@st.composite
def pipeline_inputs(draw):
    """A corpus, a definitions dump, an embeddings file and a --min-freq; now
    and then a dump or embeddings file ends in a bad line, or the corpus holds
    no token."""
    word = st.sampled_from(HEADWORDS)
    piece = st.one_of(word, word, word, st.sampled_from(SPACE))
    lines = draw(st.lists(st.lists(piece, max_size=10).map(" ".join), max_size=10))
    lines += [" ".join(w for w in FORMALS + INFORMALS for _ in range(draw(st.integers(0, 2))))]
    corpus = _encoded("\n".join(lines), draw(st.booleans()))

    formal, informal = st.sampled_from(FORMALS), st.sampled_from(INFORMALS)
    template = st.builds(
        lambda pre, quote, word, post: f"{pre}spelling of {quote[0]}{word}{quote[1]}{post}",
        st.sampled_from(["", "Alternative ", "[Slang] ", "Misspelling, "]),
        st.sampled_from(QUOTES), st.one_of(formal, formal, st.sampled_from(WORDS)),
        st.sampled_from(["", ".", ". x", "..", " name"]),
    )
    definition = st.one_of(template, template, template, st.sampled_from(["spelling", "a\\b\tc"]))
    entries = draw(st.lists(st.tuples(st.sampled_from(["", "", "\t", "\\", "\ufeff", ","]),
                                      st.one_of(informal, informal, word), definition),
                           min_size=1, max_size=10))
    dump = io.BytesIO()
    write_definitions([(f"e{i}{tail}", h, d) for i, (tail, h, d) in enumerate(entries)], dump)
    dump = dump.getvalue() + draw(st.sampled_from([b""] * 5 + [b"e0\tur\tdup\n", b"x\ty\n",
                                                              b"e99\tur\t\n"]))

    value = st.sampled_from(["0", "1", "-1", "0.5", "2", "1e-3"])
    vectors = [f"{token} {draw(value)} {draw(value)}"
               for token in draw(st.permutations(HEADWORDS)) if draw(value) != "0"]
    vectors += draw(st.sampled_from([[]] * 7 + [["ur 1"]]))
    embeddings = _encoded("".join(line + "\n" for line in vectors), draw(st.booleans()))
    return corpus, dump, embeddings, draw(st.sampled_from(["1", "2"]))


def _write_report_rows(rows, sink) -> None:
    """Report rows as ``evaluate`` writes its ``.tsv``."""
    write_text(sink, render_report_tsv(EvalReport(rows, EvalConfig())))


def _rewritten(load, write):
    """What ``write`` makes of what ``load`` reads from a path."""
    def rewrite(path) -> bytes:
        sink = io.BytesIO()
        write(load(path), sink)
        return sink.getvalue()
    return rewrite


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(inputs=pipeline_inputs())
def test_every_command_succeeds_whole_or_fails_whole_and_its_files_read_back(inputs):
    corpus, dump, embeddings, min_freq = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in [("corpus.txt", corpus), ("defs.tsv", dump), ("emb.vec", embeddings)]:
            (tmp / name).write_bytes(data)
        p = {name: str(tmp / name) for name in ("corpus.txt", "defs.tsv", "emb.vec", "freq.tsv",
                                                "lex.txt", "pairs.tsv", "eval.report")}
        stages = [
            (["count-freq", "--corpus", p["corpus.txt"], "--freq", p["freq.tsv"]],
             {"freq.tsv": _rewritten(load_frequencies, write_frequencies)}),
            (["build-vocab", "--corpus", p["corpus.txt"], "--lexicon", p["lex.txt"]],
             {"lex.txt": _rewritten(load_lexicon, write_lexicon)}),
            (["extract", "--defs", p["defs.tsv"], "--freq", p["freq.tsv"],
              "--min-freq", min_freq, "--pairs", p["pairs.tsv"]],
             {"pairs.tsv": _rewritten(read_pairs, write_pairs), "pairs.tsv.stats": None,
              "pairs.tsv.stats.json": None}),
            (["evaluate", "--pairs", p["pairs.tsv"], "--lexicon", p["lex.txt"],
              "--embeddings", p["emb.vec"], "--report", p["eval.report"], "--cutoffs", "1,2"],
             {"eval.report": None,
              "eval.report.tsv": _rewritten(load_report_rows, _write_report_rows)}),
            (["report", "--report", p["eval.report"] + ".tsv"], {}),
        ]
        for argv, outputs in stages:
            before = set(os.listdir(tmp))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            after = set(os.listdir(tmp))
            if code != 0:
                assert (code, out.getvalue(), after) == (1, "", before), argv
                assert err.getvalue().startswith("error: "), argv
                assert "would not read back" not in err.getvalue(), argv
                continue
            assert after == before | set(outputs), argv
            for name, rewrite in outputs.items():
                if rewrite is not None:
                    assert rewrite(tmp / name) == (tmp / name).read_bytes(), (argv, name)
            if argv[0] == "evaluate":
                report = (tmp / "eval.report").read_bytes()
                assert report.endswith((tmp / "eval.report.tsv").read_bytes())


# Informal tokens a person might write in a pairs file that extract would never
# write: U+FEFF at the start, inside or alone, and the codecs' special characters.
HAND_INFORMALS = ["\ufeffur", "\ufeffu", "u\ufeff", "t\ufeffeh", "\ufeff", "ur", "a,b", "a\\b",
                  "a:b", "a\tb", "x\ny", "c\rd", "a\udcffb"]
HAND_FORMALS = ["your", "you", "the", "ghost"]  # "ghost" is not in the lexicon
HAND_LEXICON = "your\nyou\nthe\n\ufeffthe\na:b,c\n"
_BY_HAND = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})
BAD_PAIR_LINES = ["ur\tyour\te9\tbracket\tmaybe", "ur\tyour\te9\tbracket",
                  "ur\t\ufeffthe\te9\tbracket\tconfirmed"]


@st.composite
def hand_written_inputs(draw):
    """A pairs file with every ``Validation``, each U+FEFF written as itself or
    as ``\\z``, now and then a bad line; the rows it holds; and an embeddings file."""
    rows = draw(st.lists(st.tuples(
        st.sampled_from(HAND_INFORMALS), st.sampled_from(HAND_FORMALS),
        st.sampled_from(["e1", "e\ufeff2", "\ufeffe3", "e,4"]),
        st.sampled_from(list(Delimiter)), st.sampled_from(list(Validation)),
    ), min_size=1, max_size=8))
    rows += [("ur", "your", "e0", Delimiter.BRACKET, v) for v in Validation]
    rows = draw(st.permutations(rows))
    lines = []
    for row in rows:
        fields = [field.translate(_BY_HAND) for field in row]
        lines.append("\t".join(f.replace("\ufeff", "\\z") if draw(st.booleans()) else f
                               for f in fields))
    bad = draw(st.sampled_from([None] * 5 + BAD_PAIR_LINES))
    lines += [bad] if bad else []
    bom = draw(st.booleans())
    if not bom and lines[0].startswith("\ufeff"):  # read as a byte-order mark, and dropped
        rows[0] = (rows[0][0][1:], *rows[0][1:])
        bad = bad or not rows[0][0]
    pairs = _encoded("".join(line + "\n" for line in lines), bom)

    value = st.sampled_from(["0", "1", "-1", "0.5", "2"])
    tokens = [t for t in HAND_INFORMALS + HAND_FORMALS[1:] + ["\ufeffthe", "a:b,c"]
              if not any(c in t for c in "\t\n\r") and draw(st.booleans())]
    vectors = ["your 1 0"]  # first, so that no token opens the file
    vectors += [f"{t} {draw(value)} {draw(value)}" for t in draw(st.permutations(tokens))]
    embeddings = "".join(line + "\n" for line in vectors).encode(**UTF8)
    return rows, bad, pairs, embeddings


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(inputs=hand_written_inputs())
def test_a_hand_written_pairs_file_is_evaluated_whole_or_refused_whole(inputs):
    rows, bad, pairs, embeddings = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, data in [("pairs.tsv", pairs), ("emb.vec", embeddings),
                           ("lex.txt", HAND_LEXICON.encode())]:
            (tmp / name).write_bytes(data)
        report = str(tmp / "eval.report")
        argv = ["evaluate", "--pairs", str(tmp / "pairs.tsv"), "--lexicon", str(tmp / "lex.txt"),
                "--embeddings", str(tmp / "emb.vec"), "--report", report, "--cutoffs", "1,2"]
        for command in (argv, ["report", "--report", report + ".tsv"]):
            before = set(os.listdir(tmp))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(command)
            after = set(os.listdir(tmp))
            if command is argv and bad:
                assert (code, out.getvalue(), after) == (1, "", before)
                assert err.getvalue().startswith("error: line ")
                assert "would not read back" not in err.getvalue()
                return
            assert code == 0, err.getvalue()
        assert after == before == {"pairs.tsv", "emb.vec", "lex.txt", "eval.report",
                                   "eval.report.tsv"}
        tsv = (tmp / "eval.report.tsv").read_bytes()
        assert (tmp / "eval.report").read_bytes().endswith(tsv)
        assert _rewritten(load_report_rows, _write_report_rows)(tmp / "eval.report.tsv") == tsv
        kept = [(i, f) for i, f, _, _, v in rows
                if not v.startswith("rejected") and f in ("your", "you", "the")]
        assert [(r.pair.informal, r.pair.formal) for r in load_report_rows(tsv)] == kept
