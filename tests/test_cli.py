import contextlib
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spellvar
from helpers import (
    forced_rank_setup, lexicon_of, make_table, pair, random_table, write_embeddings,
)
from spellvar import cli, vocab
from spellvar.cli import _parse_bool, _parse_cutoffs, build_parser, load_config, main
from spellvar.evaluate import load_report_rows
from spellvar.extract import write_pairs
from spellvar.vocab import write_lexicon

DATA = Path(__file__).parent / "data"

EXPECTED_PAIRS = """\
suxx\tsucks\tud01\tdouble_quote\tunvalidated
recieve\tacquired\tud02\tdouble_quote\tunvalidated
moran\tfark\tud03\tbracket\tunvalidated
aryan\tiranian\tud04\tdouble_quote\tunvalidated
mosha\tmoshers\tud05\tdouble_quote\tunvalidated
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_eval_inputs(tmp_path, pairs_lines=("ur\tyour\te1\tdouble_quote\tunvalidated",)):
    emb = tmp_path / "emb.vec"
    emb.write_text("ur 1 0\nyour 0.9 0.1\nbabylon 0 1\n", encoding="utf-8")
    lex = tmp_path / "lex.txt"
    lex.write_text("your\nbabylon\n", encoding="utf-8")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(line + "\n" for line in pairs_lines), encoding="utf-8")
    report = tmp_path / "out.report"
    return emb, lex, pairs, report


class TestHelpers:
    def test_parse_cutoffs(self):
        assert _parse_cutoffs("1,5,10,20") == (1, 5, 10, 20)
        assert _parse_cutoffs("3") == (3,)
        with pytest.raises(ValueError):
            _parse_cutoffs("1,two")

    def test_parse_bool(self):
        assert _parse_bool("true") and _parse_bool("Yes") and _parse_bool("1")
        assert not _parse_bool("false") and not _parse_bool("off")
        with pytest.raises(ValueError):
            _parse_bool("please")

    def test_load_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# a comment\nmin-freq = 50\npairs = out.tsv  # trailing\n\n",
            encoding="utf-8",
        )
        assert load_config(str(cfg)) == {"min_freq": "50", "pairs": "out.tsv"}

    def test_hash_starts_a_comment_only_at_line_start_or_after_whitespace(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "pairs = runs/#1/pairs.tsv\nk = 1  # note\nworst=3#x\n\t# indented\n"
            "cutoffs = 1,5\t# after a tab\n#min-freq = 9\n",
            encoding="utf-8",
        )
        assert load_config(str(cfg)) == {
            "pairs": "runs/#1/pairs.tsv", "k": "1", "worst": "3#x", "cutoffs": "1,5",
        }

    def test_a_repeated_key_names_the_file_line_and_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-freq = 5\npairs = out.tsv\nmin_freq = 50\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{cfg}:3: repeated key 'min_freq'")):
            load_config(str(cfg))

    def test_load_config_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n", encoding="utf-8")
        with pytest.raises(ValueError, match="key = value"):
            load_config(str(cfg))


class TestExtractCommand:
    def test_sample_dump(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        code, out, _ = run(
            capsys,
            "extract",
            "--defs", str(DATA / "definitions_sample.tsv"),
            "--freq", str(DATA / "frequencies_sample.tsv"),
            "--pairs", str(pairs),
        )
        assert code == 0
        assert pairs.read_text(encoding="utf-8") == EXPECTED_PAIRS
        stats_text = (tmp_path / "pairs.tsv.stats").read_text(encoding="utf-8")
        assert "definitions_scanned: 7\n" in stats_text
        assert "spelling_hits: 6\n" in stats_text
        assert "candidates_extracted: 5\n" in stats_text
        stats = json.loads((tmp_path / "pairs.tsv.stats.json").read_text(encoding="utf-8"))
        assert stats["candidates_extracted"] == 5
        assert out.endswith(f"pairs kept: 5 -> {pairs}\n")
        assert "definitions_scanned: 7" in out

    def test_min_freq_flag(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        code, _, _ = run(
            capsys,
            "extract",
            "--defs", str(DATA / "definitions_sample.tsv"),
            "--freq", str(DATA / "frequencies_sample.tsv"),
            "--pairs", str(pairs),
            "--min-freq", "1000",
        )
        assert code == 0
        lines = pairs.read_text(encoding="utf-8").splitlines()
        assert [l.split("\t")[0] for l in lines] == ["moran"]
        stats = json.loads((tmp_path / "pairs.tsv.stats.json").read_text(encoding="utf-8"))
        assert stats["excluded_frequency"] == 4

    def test_empty_dump_succeeds(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        freq = tmp_path / "freq.tsv"
        freq.write_text("the\t10\n", encoding="utf-8")
        pairs = tmp_path / "pairs.tsv"
        code, out, _ = run(
            capsys, "extract",
            "--defs", str(empty), "--freq", str(freq), "--pairs", str(pairs),
        )
        assert code == 0
        assert pairs.read_text(encoding="utf-8") == ""
        assert "pairs kept: 0" in out

    def test_missing_freq_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "extract",
            "--defs", str(DATA / "definitions_sample.tsv"),
            "--freq", str(tmp_path / "nope.tsv"),
            "--pairs", str(tmp_path / "pairs.tsv"),
        )
        assert code == 1
        assert err.startswith("error:")

    def test_failed_output_replaces_no_output(self, tmp_path, capsys):
        # The stats JSON cannot be written, so pairs.tsv keeps its old bytes
        # and no .stats file or temporary file is left.
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes(b"old pairs\n")
        (tmp_path / "pairs.tsv.stats.json").mkdir()
        code, _, err = run(
            capsys, "extract",
            "--defs", str(DATA / "definitions_sample.tsv"),
            "--freq", str(DATA / "frequencies_sample.tsv"),
            "--pairs", str(pairs),
        )
        assert code == 1
        assert err.startswith("error:")
        assert pairs.read_bytes() == b"old pairs\n"
        assert sorted(os.listdir(tmp_path)) == ["pairs.tsv", "pairs.tsv.stats.json"]

    def test_bad_last_line_writes_no_output(self, tmp_path, capsys):
        # The dump is mined as it is read, so its last line fails only after
        # every other entry was mined; nothing is written.
        defs = tmp_path / "defs.tsv"
        defs.write_bytes(
            (DATA / "definitions_sample.tsv").read_bytes() + b"ud99\tonly-two-fields\n"
        )
        code, out, err = run(
            capsys, "extract",
            "--defs", str(defs),
            "--freq", str(DATA / "frequencies_sample.tsv"),
            "--pairs", str(tmp_path / "pairs.tsv"),
        )
        assert (code, out) == (1, "")
        assert err == "error: line 8: expected 3 tab-separated fields, found 2\n"
        assert os.listdir(tmp_path) == ["defs.tsv"]

    def test_frequency_file_is_read_before_the_dump(self, tmp_path, capsys):
        defs = tmp_path / "defs.tsv"
        defs.write_bytes(b"e1\tonly-two-fields\n")
        code, _, err = run(
            capsys, "extract",
            "--defs", str(defs),
            "--freq", str(tmp_path / "nope.tsv"),
            "--pairs", str(tmp_path / "pairs.tsv"),
        )
        assert code == 1
        assert err.startswith("error:") and "nope.tsv" in err
        # A count that count-freq never writes (int() reads "5_0" as 50).
        freq = tmp_path / "freq.tsv"
        freq.write_bytes(b"lol\t5_0\n")
        assert run(
            capsys, "extract",
            "--defs", str(defs), "--freq", str(freq), "--pairs", str(tmp_path / "pairs.tsv"),
        ) == (1, "", "error: line 1: non-integer count '5_0'\n")
        assert sorted(os.listdir(tmp_path)) == ["defs.tsv", "freq.tsv"]

    def test_long_output_names(self, tmp_path, capsys):
        # The three outputs' names are 240, 246 and 251 bytes long.
        pairs = tmp_path / ("p" * 240)
        code, _, _ = run(
            capsys, "extract",
            "--defs", str(DATA / "definitions_sample.tsv"),
            "--freq", str(DATA / "frequencies_sample.tsv"),
            "--pairs", str(pairs),
        )
        assert code == 0
        assert pairs.read_text(encoding="utf-8") == EXPECTED_PAIRS
        assert sorted(os.listdir(tmp_path)) == [
            pairs.name, f"{pairs.name}.stats", f"{pairs.name}.stats.json",
        ]

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "extract", "--freq", "x", "--pairs", "y")
        assert code == 1
        assert "missing required option --defs" in err

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"defs = {DATA / 'definitions_sample.tsv'}\n"
            f"freq = {DATA / 'frequencies_sample.tsv'}\n"
            f"pairs = {tmp_path / 'from_config.tsv'}\n"
            "min-freq = 1000\n",
            encoding="utf-8",
        )
        code, _, _ = run(capsys, "extract", "--config", str(cfg))
        assert code == 0
        assert len((tmp_path / "from_config.tsv").read_text(encoding="utf-8").splitlines()) == 1

        code, _, _ = run(capsys, "extract", "--config", str(cfg), "--min-freq", "100")
        assert code == 0
        assert (tmp_path / "from_config.tsv").read_text(encoding="utf-8") == EXPECTED_PAIRS

    def test_variant_folding_to_more_than_a_word_is_a_template_miss(self, tmp_path, capsys):
        # "İ" lowercases to "i" plus a combining dot, which is not a word character.
        defs = tmp_path / "defs.tsv"
        defs.write_text(
            'e1\tistanbul\tMisspelling of "İstanbul".\ne2\tsuxx\tA spelling of "Sucks".\n',
            encoding="utf-8",
        )
        freq = tmp_path / "freq.tsv"
        freq.write_text("istanbul\t500\nsuxx\t500\n", encoding="utf-8")
        pairs = tmp_path / "pairs.tsv"
        code, _, err = run(
            capsys, "extract", "--defs", str(defs), "--freq", str(freq), "--pairs", str(pairs),
        )
        assert (code, err) == (0, "")
        assert pairs.read_text(encoding="utf-8") == "suxx\tsucks\te2\tdouble_quote\tunvalidated\n"
        assert (tmp_path / "pairs.tsv.stats").read_text(encoding="utf-8") == (
            "definitions_scanned: 2\nspelling_hits: 2\ncandidates_extracted: 1\n"
            "excluded_name: 0\nexcluded_frequency: 0\nexcluded_nonascii: 0\n"
        )


class TestVocabCommands:
    def test_build_vocab(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("The cat sat.\nThe dog ran!\n", encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        code, out, _ = run(
            capsys, "build-vocab",
            "--corpus", str(corpus), "--lexicon", str(lexicon), "--min-count", "2",
        )
        assert code == 0
        assert lexicon.read_text(encoding="utf-8") == "the\n"
        assert "lexicon tokens: 1" in out

    def test_build_vocab_refuses_an_empty_lexicon(self, tmp_path, capsys):
        # No token occurs --min-count times: the lexicon would not read back.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("The cat sat.\nThe dog ran!\n", encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        argv = ("build-vocab", "--corpus", str(corpus), "--lexicon", str(lexicon),
                "--min-count", "5")
        assert run(capsys, *argv) == (1, "", "error: empty lexicon would not read back\n")
        assert sorted(os.listdir(tmp_path)) == ["corpus.txt"]
        lexicon.write_bytes(b"old\n")
        assert run(capsys, *argv)[0] == 1
        assert lexicon.read_bytes() == b"old\n"
        assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "lex.txt"]

    def test_build_vocab_default_min_count(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("b a c a\n", encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        code, _, _ = run(capsys, "build-vocab", "--corpus", str(corpus), "--lexicon", str(lexicon))
        assert code == 0
        assert lexicon.read_text(encoding="utf-8") == "a\nb\nc\n"

    def test_count_freq(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("b a b.\nB c\n", encoding="utf-8")
        freq = tmp_path / "freq.tsv"
        code, out, _ = run(capsys, "count-freq", "--corpus", str(corpus), "--freq", str(freq))
        assert code == 0
        assert freq.read_text(encoding="utf-8") == "b\t3\na\t1\nc\t1\n"
        assert "distinct tokens: 3 (total 5)" in out

    def test_non_utf8_corpus_byte_survives_count_freq_and_extract(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"suxx caf\xffe suxx\ncaf\xffe caf\xffe\n")
        freq = tmp_path / "freq.tsv"
        assert run(capsys, "count-freq", "--corpus", str(corpus), "--freq", str(freq))[0] == 0
        assert freq.read_bytes() == b"caf\xffe\t3\nsuxx\t2\n"
        assert vocab.load_frequencies(freq)["caf\udcffe"] == 3
        defs = tmp_path / "defs.tsv"
        defs.write_text('ud01\tsuxx\t[Demoscene] spelling of "Sucks".\n', encoding="utf-8")
        pairs = tmp_path / "pairs.tsv"
        code, out, _ = run(
            capsys, "extract", "--defs", str(defs), "--freq", str(freq),
            "--pairs", str(pairs), "--min-freq", "2",
        )
        assert code == 0
        assert "pairs kept: 1" in out


def write_blas_fixture(tmp_path, name):
    """Evaluate inputs: the criterion 9 fixture, or a pool large enough for
    BLAS to split its products across threads, of random rows or of random
    rows whose first 600 are permutations of one vector, tied for the
    all-ones query in the last row."""
    if name == "criterion9":
        vectors, raw_pairs = forced_rank_setup([1, 3, 9, 2], 25)
        table = make_table(vectors)
        lexicon = [f"w{j:03d}" for j in range(25)]
    elif name == "permuted_rows":
        rng = np.random.default_rng(10)
        rows = list(rng.normal(size=(3000, 64)))
        v = rng.random(64)
        rows[:600] = [rng.permutation(v) for _ in range(600)]
        rows[-1] = np.ones(64)
        table = make_table({f"t{i:04d}": row for i, row in enumerate(rows)})
        lexicon = table.vocabulary[:2500]
        raw_pairs = [(table.vocabulary[-1], table.vocabulary[j]) for j in range(0, 600, 8)]
    else:
        rng = np.random.default_rng(9)
        table = random_table(rng, 3000, 64)
        lexicon = table.vocabulary[:2500]
        raw_pairs = [(table.vocabulary[i], table.vocabulary[(i * 7) % 2500])
                     for i in range(0, 3000, 15)]
    write_embeddings(table, tmp_path / "emb.vec")
    write_lexicon(lexicon_of(*lexicon), tmp_path / "lex.txt")
    write_pairs(
        [pair(i, f, entry_id=f"e{n}") for n, (i, f) in enumerate(raw_pairs) if i != f],
        tmp_path / "pairs.tsv",
    )


class TestEvaluateCommand:
    @pytest.mark.parametrize("fixture", ["criterion9", "large_pool", "permuted_rows"])
    def test_blas_thread_count_does_not_change_outputs(self, tmp_path, fixture):
        write_blas_fixture(tmp_path, fixture)
        src = str(Path(spellvar.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, PYTHONPATH=path)
            subprocess.run(
                [sys.executable, "-c", "from spellvar.cli import entry_point; entry_point()",
                 "evaluate", "--pairs", "pairs.tsv", "--lexicon", "lex.txt",
                 "--embeddings", "emb.vec", "--report", "run.report"],
                cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append(
                ((tmp_path / "run.report").read_bytes(), (tmp_path / "run.report.tsv").read_bytes())
            )
        assert outputs[0] == outputs[1]
        assert b"\tscored\t" in outputs[0][1]

    def test_end_to_end(self, tmp_path, capsys):
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        code, out, _ = run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
        )
        assert code == 0
        text = report.read_text(encoding="utf-8")
        assert text.startswith("spelling-variant evaluation report\n")
        assert "accuracy@1: 1.000000 (1/1)" in text
        assert f"lexicon: {lex}" in text
        assert f"embeddings: {emb}" in text
        assert "pairs_removed_by_lexicon: 0" in text
        tsv = (tmp_path / "out.report.tsv").read_text(encoding="utf-8")
        assert tsv.startswith("ur\tyour\tscored\t1\t")
        assert "pairs: 1  evaluated: 1  scored: 1  missing_informal: 0  missing_formal: 0" in out
        assert "accuracy@1 = 1.000 (1/1)" in out
        assert "accuracy@20 = 1.000 (1/1)" in out

    def test_formal_missing_from_embeddings(self, tmp_path, capsys):
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        lex.write_text("your\nbabylon\nabsent\n", encoding="utf-8")
        pairs.write_text("ur\tabsent\te1\tdouble_quote\tunvalidated\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
        )
        assert code == 0
        assert "missing_formal: 1" in out
        assert "ur\tabsent\tformal_missing\t-\t" in (tmp_path / "out.report.tsv").read_text(
            encoding="utf-8"
        )

    def test_lexicon_prefilter_drops_pairs(self, tmp_path, capsys):
        emb, lex, pairs, report = write_eval_inputs(
            tmp_path,
            pairs_lines=(
                "ur\tyour\te1\tdouble_quote\tunvalidated",
                "braj\tbrah\te2\tdouble_quote\tunvalidated",
            ),
        )
        code, out, _ = run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
        )
        assert code == 0
        assert "pairs: 2  evaluated: 1" in out
        assert "pairs_removed_by_lexicon: 1" in report.read_text(encoding="utf-8")

    @pytest.mark.parametrize("validation, kept", [
        ("rejected_name", 0), ("rejected_other", 0), ("confirmed", 1), ("unvalidated", 1),
    ])
    def test_pairs_marked_rejected_are_not_evaluated(
        self, tmp_path, capsys, caplog, validation, kept
    ):
        emb, lex, pairs, report = write_eval_inputs(
            tmp_path, pairs_lines=(f"ur\tyour\te1\tdouble_quote\t{validation}",)
        )
        with caplog.at_level(logging.INFO):
            code, out, _ = run(
                capsys, "evaluate", "--pairs", str(pairs), "--lexicon", str(lex),
                "--embeddings", str(emb), "--report", str(report),
            )
        assert code == 0
        assert out.startswith(f"pairs: 1  evaluated: {kept}  scored: {kept}  ")
        text = report.read_text(encoding="utf-8")
        assert "\npairs_removed_by_lexicon: 0\n" in text
        assert f"\npairs: {kept}\nscored: {kept}\n" in text
        assert caplog.messages == ([] if kept else ["validation rejected 1 of 1 pairs"])

    def test_lexicon_prefilter_keeps_input_order(self, tmp_path):
        emb, lex, pairs, report = write_eval_inputs(tmp_path, pairs_lines=(
            "ur\tyour\te1\tdouble_quote\tunvalidated",
            "braj\tbrah\te2\tdouble_quote\tunvalidated",
            "ur\tbabylon\te3\tdouble_quote\tunvalidated",
            "x\tzzz\te4\tdouble_quote\tunvalidated",
            "ghost\tyour\te5\tdouble_quote\tunvalidated",
        ))
        src = str(Path(spellvar.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "spellvar", "evaluate", "--pairs", str(pairs),
             "--lexicon", str(lex), "--embeddings", str(emb), "--report", str(report)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, "lexicon filter removed 2 of 5 pairs\n")
        assert done.stdout.startswith("pairs: 5  evaluated: 3  scored: 2  ")
        assert "\npairs_removed_by_lexicon: 2\n" in report.read_text(encoding="utf-8")
        rows = (tmp_path / "out.report.tsv").read_text(encoding="utf-8").splitlines()
        assert [row.split("\t")[:3] for row in rows] == [
            ["ur", "your", "scored"], ["ur", "babylon", "scored"],
            ["ghost", "your", "informal_missing"],
        ]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "ab"]),
                              st.text(alphabet="cd", min_size=1, max_size=2)), max_size=8),
           st.sets(st.text(alphabet="cd", min_size=1, max_size=2), min_size=1, max_size=4))
    def test_lexicon_prefilter_property(self, raw_pairs, lex_tokens):
        """evaluate scores exactly the pairs whose formal token is in the
        lexicon, in input order, and counts the rest as removed; evaluated
        again, the kept pairs lose nothing."""
        kept = [(i, f) for i, f in raw_pairs if f in lex_tokens]
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "emb.vec").write_text(
                "a 1 0\nb 0 1\nc 1 1\nd 1 2\ncc 2 1\ncd 3 1\ndc 1 3\n", encoding="utf-8")
            write_lexicon(lexicon_of(*lex_tokens), str(tmp / "lex.txt"))
            for name, these in (("all.tsv", raw_pairs), ("kept.tsv", kept)):
                write_pairs([pair(i, f, entry_id=f"e{n}") for n, (i, f) in enumerate(these)],
                            str(tmp / name))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["evaluate", "--pairs", str(tmp / name),
                                 "--lexicon", str(tmp / "lex.txt"),
                                 "--embeddings", str(tmp / "emb.vec"),
                                 "--report", str(tmp / "r")]) == 0
                assert out.getvalue().startswith(f"pairs: {len(these)}  evaluated: {len(kept)}  ")
                removed = f"\npairs_removed_by_lexicon: {len(these) - len(kept)}\n"
                assert removed in (tmp / "r").read_text(encoding="utf-8")
                rows = (tmp / "r.tsv").read_text(encoding="utf-8").splitlines()
                assert [tuple(row.split("\t")[:2]) for row in rows] == kept

    def test_rerun_byte_identical(self, tmp_path, capsys):
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        argv = (
            "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
        )
        assert run(capsys, *argv)[0] == 0
        first = report.read_bytes(), (tmp_path / "out.report.tsv").read_bytes()
        assert run(capsys, *argv)[0] == 0
        second = report.read_bytes(), (tmp_path / "out.report.tsv").read_bytes()
        assert first == second

    def test_cutoffs_and_exclude_self_flags(self, tmp_path, capsys):
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        code, _, _ = run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
            "--cutoffs", "1,2", "--no-exclude-self",
        )
        assert code == 0
        text = report.read_text(encoding="utf-8")
        assert "k: 2\n" in text
        assert "cutoffs: 1,2\n" in text
        assert "exclude_self: false\n" in text

    def test_config_fallback_and_cli_override(self, tmp_path, capsys):
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"pairs = {pairs}\nlexicon = {lex}\nembeddings = {emb}\n"
            f"report = {report}\ncutoffs = 1,2\nthreads = 1\n",
            encoding="utf-8",
        )
        code, _, _ = run(capsys, "evaluate", "--config", str(cfg))
        assert code == 0
        assert "cutoffs: 1,2\n" in report.read_text(encoding="utf-8")

        code, _, _ = run(capsys, "evaluate", "--config", str(cfg), "--cutoffs", "1")
        assert code == 0
        assert "cutoffs: 1\n" in report.read_text(encoding="utf-8")

    def test_bad_embedding_file(self, tmp_path, capsys):
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        emb.write_text("ur 1 0\nyour 0.9\n", encoding="utf-8")
        code, _, err = run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
        )
        assert code == 1
        assert "error:" in err and "line 2" in err

    def test_informal_token_opening_with_u_feff_opens_the_tsv_escaped(self, tmp_path, capsys):
        # With the first pair removed by the lexicon, the second pair's row
        # opens the .tsv. Its U+FEFF is written as \z, so the file does not
        # open with a byte-order mark, and the row reads back as scored.
        emb, lex, pairs, report = write_eval_inputs(tmp_path, (
            "zz\tnotinlex\te1\tbracket\tunvalidated",
            "\ufeffur\tyour\te2\tbracket\tunvalidated",
        ))
        emb.write_text("your 0.9 0.1\n\ufeffur 1 0\nthe 0 1\n", encoding="utf-8")
        lex.write_text("your\nthe\n", encoding="utf-8")
        code, out, err = run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
        )
        assert (code, err) == (0, "")
        assert out.startswith("pairs: 2  evaluated: 1  scored: 1  ")
        tsv = Path(f"{report}.tsv").read_bytes()
        assert tsv.startswith(b"\\zur\tyour\tscored\t1\tyour:")
        assert report.read_bytes().endswith(tsv)
        [row] = load_report_rows(tsv)
        assert (row.pair.informal, row.pair.formal, row.rank) == ("\ufeffur", "your", 1)

    @pytest.mark.parametrize("old", [None, b"old report\n"], ids=["new", "existing"])
    def test_failed_output_replaces_no_output(self, tmp_path, capsys, old):
        # The .tsv cannot be written, so the text report is left as it was.
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        if old is not None:
            report.write_bytes(old)
        Path(f"{report}.tsv").mkdir()
        before = sorted(os.listdir(tmp_path))
        code, _, err = run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
        )
        assert code == 1
        assert err.startswith("error:")
        assert sorted(os.listdir(tmp_path)) == before
        if old is not None:
            assert report.read_bytes() == old

    @pytest.mark.parametrize("text", ["0", "-3", ""])
    def test_bad_cutoffs_rejected_before_any_output(self, tmp_path, capsys, text):
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        code, out, err = run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
            "--cutoffs", text,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --cutoffs: cutoffs must be")
        assert not report.exists()


@pytest.mark.parametrize("command, option, value, message", [
    pytest.param("evaluate", "cutoffs", "1,two", "cutoffs must be integers: '1,two'",
                 id="evaluate"),
    pytest.param("report", "cutoffs", "1,two", "cutoffs must be integers: '1,two'",
                 id="report"),
    pytest.param("evaluate", "cutoffs", "1,,5", "cutoffs must be integers: '1,,5'",
                 id="evaluate-cutoffs-empty-item"),
    pytest.param("report", "cutoffs", "5,", "cutoffs must be integers: '5,'",
                 id="report-cutoffs-trailing-comma"),
    pytest.param("report", "cutoffs", "", "cutoffs must be non-empty", id="report-cutoffs-empty"),
    pytest.param("report", "worst", "two", "invalid literal for int() with base 10: 'two'",
                 id="report-worst"),
    pytest.param("extract", "min-freq", "2.5",
                 "invalid literal for int() with base 10: '2.5'", id="extract-min-freq"),
    pytest.param("build-vocab", "min-count", "many",
                 "invalid literal for int() with base 10: 'many'", id="build-vocab-min-count"),
    pytest.param("evaluate", "cutoffs", "0",
                 "cutoffs must be strictly increasing positive integers: (0,)",
                 id="evaluate-cutoffs-range"),
    pytest.param("report", "worst", "0", "must be >= 1, got 0", id="report-worst-range"),
    pytest.param("extract", "min-freq", "0", "must be >= 1, got 0", id="extract-min-freq-range"),
    pytest.param("build-vocab", "min-count", "0", "must be >= 1, got 0",
                 id="build-vocab-min-count-range"),
])
def test_bad_cutoffs_same_error_from_flag_and_config(
    tmp_path, capsys, command, option, value, message
):
    """The same bad value fails alike from a flag and from the config file;
    the message names the option, and the file when the value came from one."""
    emb, lex, pairs, report = write_eval_inputs(tmp_path)
    tsv = tmp_path / "r.tsv"
    tsv.write_text("ur\tyour\tscored\t1\tyour:0.993884\n", encoding="utf-8")
    inputs = {
        "evaluate": ("--pairs", str(pairs), "--lexicon", str(lex),
                     "--embeddings", str(emb), "--report", str(report)),
        "report": ("--report", str(tsv)),
        "extract": ("--defs", str(tmp_path / "defs.tsv"), "--freq", str(tmp_path / "f.tsv"),
                    "--pairs", str(tmp_path / "out.tsv")),
        "build-vocab": ("--corpus", str(tmp_path / "corpus.txt"),
                        "--lexicon", str(tmp_path / "out.txt")),
    }[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option} = {value}\n", encoding="utf-8")
    from_flag = run(capsys, command, *inputs, f"--{option}", value)
    from_config = run(capsys, command, *inputs, "--config", str(cfg))
    assert from_flag == (1, "", f"error: --{option}: {message}\n")
    assert from_config == (1, "", f"error: {cfg}: {option}: {message}\n")


def test_config_value_outside_choices_names_the_file(tmp_path, capsys):
    """A config value outside an option's choices fails before any input is
    read, naming the file; a bad flag value stays argparse's usage error."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format = bogus\n", encoding="utf-8")
    argv = ("evaluate", "--pairs", str(tmp_path / "absent.tsv"), "--lexicon", "l",
            "--embeddings", "e", "--report", str(tmp_path / "r"))
    assert run(capsys, *argv, "--config", str(cfg)) == (
        1, "", f"error: {cfg}: format: invalid choice: 'bogus' (choose from 'plain', 'headered')\n")
    with pytest.raises(SystemExit) as caught:
        main([*argv, "--format", "bogus"])
    assert caught.value.code == 2
    assert "argument --format: invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(("extract", "--defs", "d", "--freq", "f", "--min-freq", "x"),
                 "--min-freq: invalid literal for int() with base 10: 'x'", id="extract"),
    pytest.param(("build-vocab", "--corpus", "c", "--min-count", "x"),
                 "--min-count: invalid literal for int() with base 10: 'x'", id="build-vocab"),
    pytest.param(("evaluate", "--pairs", "p", "--lexicon", "l", "--embeddings", "e",
                  "--cutoffs", "x"), "--cutoffs: cutoffs must be integers: 'x'", id="evaluate"),
    pytest.param(("report", "--report", "r", "--cutoffs", "0", "--worst", "x"),
                 "--cutoffs: cutoffs must be strictly increasing positive integers: (0,)",
                 id="report"),
])
def test_first_bad_option_in_help_order_is_reported(capsys, argv, message):
    """Options are resolved in --help order and the first one missing,
    unconvertible or out of range is reported."""
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# A value other than the default for each option that has one.
OPTION_VALUES = {"min-freq": "7", "min-count": "3", "format": "headered",
                 "cutoffs": "2,4", "worst": "3", "no-exclude-self": "true"}
# Texts that int() reads as the number, as a person may type them.
TYPED_VALUES = {"min-freq": {"05": 5, "+5": 5}}


def resolved(*argv):
    return vars(cli.resolve(build_parser().parse_args(list(argv))))


@pytest.mark.parametrize("command, option", [
    pytest.param(name, option, id=f"{name}--{option.name}")
    for name, command in cli.COMMANDS.items() for option in command.options
])
def test_config_value_equals_flag_value(tmp_path, command, option):
    """Every option reads the same from --config as from its flag, and a
    value other than its default changes what the command gets."""
    required = [arg for other in cli.COMMANDS[command].options
                if other.default is None and other is not option
                for arg in ("--" + other.name, "x")]
    value = OPTION_VALUES.get(option.name, "given.tsv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option.name} = {value}\n", encoding="utf-8")
    flag = ["--" + option.name] if option.conv is _parse_bool else ["--" + option.name, value]
    from_flag = resolved(command, *required, *flag)
    assert resolved(command, *required, "--config", str(cfg)) == from_flag
    if option.default is not None:
        assert from_flag != resolved(command, *required)
    if option.conv is _parse_bool:
        cfg.write_text(f"{option.name} = false\n", encoding="utf-8")
        assert resolved(command, *required, "--config", str(cfg)) == resolved(command, *required)
    # A typed value keeps int()'s rule, unlike a count in a record file.
    for typed, number in TYPED_VALUES.get(option.name, {}).items():
        cfg.write_text(f"{option.name} = {typed}\n", encoding="utf-8")
        dest = option.name.replace("-", "_")
        assert resolved(command, *required, "--" + option.name, typed)[dest] == number
        assert resolved(command, *required, "--config", str(cfg))[dest] == number


@pytest.mark.parametrize("error", [IndexError, KeyError])
def test_an_internal_lookup_error_keeps_its_traceback(monkeypatch, error):
    # Only errors about the input print as "error: ..."; a bug's
    # IndexError or KeyError propagates out of main.
    def broken(opts):
        raise error("internal")

    command = cli.COMMANDS["count-freq"]._replace(func=broken)
    monkeypatch.setitem(cli.COMMANDS, "count-freq", command)
    with pytest.raises(error):
        main(["count-freq", "--corpus", "corpus.txt", "--freq", "freq.tsv"])


def test_help_is_unchanged(monkeypatch):
    """Every --help text, at 80 columns, matches tests/data/cli_help.txt."""
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    texts = [("spellvar", parser), *subparsers.choices.items()]
    assert "".join(f"== {name}\n{p.format_help()}" for name, p in texts) == (
        DATA / "cli_help.txt"
    ).read_text(encoding="utf-8")


class TestReportCommand:
    def test_resummarize(self, tmp_path, capsys):
        emb, lex, pairs, report = write_eval_inputs(tmp_path)
        assert run(
            capsys, "evaluate",
            "--pairs", str(pairs), "--lexicon", str(lex),
            "--embeddings", str(emb), "--report", str(report),
        )[0] == 0
        code, out, _ = run(
            capsys, "report", "--report", str(tmp_path / "out.report.tsv"),
            "--cutoffs", "1", "--worst", "1",
        )
        assert code == 0
        assert "pairs: 1  scored: 1" in out
        assert "accuracy@1 = 1.000 (1/1)" in out
        assert "worst pairs by target rank:" in out
        assert "ur -> your" in out

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "report", "--report", str(tmp_path / "nope.tsv"))
        assert code == 1
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--cutoffs", "0"), "cutoffs must be strictly increasing positive integers"),
            (("--cutoffs", "-3"), "cutoffs must be strictly increasing positive integers"),
            (("--cutoffs", ""), "cutoffs must be non-empty"),
            (("--worst", "0"), "--worst: must be >= 1, got 0"),
        ],
        ids=["cutoffs=0", "cutoffs=-3", "cutoffs=empty", "worst=0"],
    )
    def test_bad_arguments_rejected_before_any_output(self, tmp_path, capsys, flags, message):
        tsv = tmp_path / "r.tsv"
        tsv.write_text("ur\tyour\tscored\t1\tyour:0.993884\n", encoding="utf-8")
        code, out, err = run(capsys, "report", "--report", str(tsv), *flags)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and message in err


def test_every_flag_is_read(tmp_path, capsys, monkeypatch):
    """Each option a subcommand defines, apart from --config, is read by its
    command when it runs, so no flag is accepted and then ignored."""
    asked: list[str] = []
    resolve = cli.resolve

    class Recording:
        def __init__(self, values):
            self._values = values

        def __getattr__(self, name):
            asked.append(name)
            return getattr(self._values, name)

    monkeypatch.setattr(cli, "resolve", lambda args: Recording(resolve(args)))
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("ur your babylon\n", encoding="utf-8")
    emb, lex, pairs, report = write_eval_inputs(tmp_path)
    runs = [
        ("extract", "--defs", str(DATA / "definitions_sample.tsv"),
         "--freq", str(DATA / "frequencies_sample.tsv"), "--pairs", str(tmp_path / "p.tsv")),
        ("build-vocab", "--corpus", str(corpus), "--lexicon", str(tmp_path / "l.txt")),
        ("count-freq", "--corpus", str(corpus), "--freq", str(tmp_path / "f.tsv")),
        ("evaluate", "--pairs", str(pairs), "--lexicon", str(lex),
         "--embeddings", str(emb), "--report", str(report)),
        ("report", "--report", str(tmp_path / "out.report.tsv")),
    ]
    read = {}
    for argv in runs:
        asked.clear()
        assert run(capsys, *argv)[0] == 0
        read[argv[0]] = set(asked)

    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(subparsers.choices) == {argv[0] for argv in runs}
    for name, parser in subparsers.choices.items():
        defined = {a.dest for a in parser._actions} - {"help", "config"}
        assert defined - read[name] == set(), name


class TestParser:
    @pytest.mark.parametrize("module", ["spellvar", "spellvar.cli"])
    def test_python_m_runs_the_cli(self, module):
        src = str(Path(spellvar.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        bogus, helped = (
            subprocess.run(
                [sys.executable, "-m", module, *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            for argv in (["evaluate", "--bogus"], ["--help"])
        )
        assert bogus.returncode == 2
        assert "spellvar: error: unrecognized arguments: --bogus" in bogus.stderr
        assert helped.returncode == 0
        assert helped.stdout.startswith("usage: spellvar")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])
