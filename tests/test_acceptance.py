"""Acceptance suite: one test per shipping criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import contextlib
import io
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from helpers import (
    forced_rank_setup, lexicon_of, make_table, pair, random_table, report_text, write_embeddings,
)
from spellvar.cli import main
from spellvar.embeddings import EmbeddingTable, normalize
from spellvar.evaluate import (
    EvalConfig,
    PairStatus,
    brute_force_rank,
    evaluate_pairs,
    rank_formal_neighbors,
    render_report_tsv,
    summarize_rows,
)
from spellvar.extract import (
    DefinitionEntry,
    mine_pairs,
    read_definitions,
    write_pairs,
)
from spellvar.vocab import FrequencyTable, write_lexicon

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL  {description}")
        raise
    print(
        f"criterion {number}: PASS  {description}"
        f"  [{time.perf_counter() - start:.2f}s]"
    )


def quiet_main(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_criterion_1_extraction_fixture(tmp_path):
    with criterion(1, "bundled mini-dump yields exactly the five expected pairs in under 1s"):
        pairs_path = tmp_path / "pairs.tsv"
        start = time.perf_counter()
        code, _ = quiet_main(
            [
                "extract",
                "--defs", str(DATA / "definitions_sample.tsv"),
                "--freq", str(DATA / "frequencies_sample.tsv"),
                "--pairs", str(pairs_path),
            ]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0, f"extraction took {elapsed:.2f}s"
        got = [
            tuple(line.split("\t")[:2])
            for line in pairs_path.read_text(encoding="utf-8").splitlines()
        ]
        assert got == [
            ("suxx", "sucks"),
            ("recieve", "acquired"),
            ("moran", "fark"),
            ("aryan", "iranian"),
            ("mosha", "moshers"),
        ]

        entries = {e.entry_id: e for e in read_definitions(DATA / "definitions_sample.tsv")}
        freq = FrequencyTable()
        # "neice": marker present, variant unquoted
        _, stats = mine_pairs([entries["ud06"]], freq, 1)
        assert (stats.spelling_hits, stats.candidates_extracted) == (1, 0)
        # "definately": definition lacks the marker
        _, stats = mine_pairs([entries["ud07"]], freq, 1)
        assert stats.spelling_hits == 0


def _random_dump(rng):
    """A small synthetic definitions dump plus frequency table and threshold."""
    alphabet = "abcdefghij"

    def word(lo=3, hi=9):
        size = int(rng.integers(lo, hi))
        return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=size))

    entries = []
    counts = {}
    for i in range(int(rng.integers(2, 12))):
        head = word()
        if rng.random() < 0.15:
            head = "ü" + head  # non-ASCII headword
        variant = word()
        roll = rng.random()
        if roll < 0.30:
            definition = f'Common spelling of "{variant}".'
        elif roll < 0.45:
            definition = f"The correct spelling of '{variant}' in chat."
        elif roll < 0.55:
            definition = f"Another spelling of [{variant}] around here."
        elif roll < 0.70:
            definition = f'A spelling of "{variant}". Often used as a name.'
        elif roll < 0.85:
            definition = f"Talk about {variant} with no marker at all."
        else:
            definition = f'A spelling, then "{variant}" after the comma.'
        entries.append(
            DefinitionEntry(entry_id=f"d{i:03d}", headword=head, definition_text=definition)
        )
        if rng.random() < 0.7:
            counts[head.lower()] = int(rng.integers(1, 200))
    freq = FrequencyTable(counts=counts)
    min_freq = int(rng.choice([1, 50, 100, 150]))
    return entries, freq, min_freq


def test_criterion_2_stats_arithmetic_on_synthetic_dumps():
    with criterion(2, "candidate tally equals kept plus every exclusion class on 1000 random dumps"):
        rng = np.random.default_rng(20260823)
        for _ in range(1000):
            entries, freq, min_freq = _random_dump(rng)
            kept, stats = mine_pairs(entries, freq, min_freq)
            assert stats.candidates_extracted == (
                len(kept)
                + stats.excluded_name
                + stats.excluded_frequency
                + stats.excluded_nonascii
            )
            assert stats.definitions_scanned == len(entries)
            assert stats.spelling_hits <= stats.definitions_scanned
            assert stats.candidates_extracted <= stats.spelling_hits


def test_criterion_3_oracle_equivalence():
    with criterion(3, "batched ranking matches the pairwise oracle on 1000 random instances in under 30s"):
        rng = np.random.default_rng(31337)
        start = time.perf_counter()
        compared = 0
        attempts = 0
        while compared < 1000:
            attempts += 1
            assert attempts < 2000, "instance generation kept producing empty pools"
            n = int(rng.integers(5, 201))
            dim = int(rng.integers(2, 11))
            table = random_table(rng, n, dim)
            keep = rng.random(n) < rng.uniform(0.2, 0.9)
            chosen = [t for t, m in zip(table.vocabulary, keep) if m]
            if not chosen:
                chosen = [table.vocabulary[0]]
            lex = lexicon_of(*chosen)
            informal = table.vocabulary[int(rng.integers(0, n))]
            exclude_self = bool(rng.integers(0, 2))
            if exclude_self and chosen == [informal]:
                continue
            k = int(rng.integers(1, n + 3))
            oracle = brute_force_rank(table, informal, lex, exclude_self=exclude_self)
            fast = rank_formal_neighbors(table, informal, lex, k, exclude_self=exclude_self)
            assert len(fast) == min(k, len(oracle))
            assert [t for t, _ in fast] == [t for t, _ in oracle[: len(fast)]]
            for (_, a), (_, b) in zip(fast, oracle):
                assert abs(a - b) <= 1e-12
            compared += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"{compared} instances took {elapsed:.1f}s"


def _fixture_eval(vectors, pairs, lex, extra_tokens=None):
    vectors = dict(vectors)
    if extra_tokens:
        rng = np.random.default_rng(99)
        dim = len(next(iter(vectors.values())))
        for token in extra_tokens:
            vectors[token] = list(rng.normal(size=dim))
    table = normalize(make_table(vectors))
    cfg = EvalConfig()
    report = evaluate_pairs(table, pairs, lex, cfg)
    report.metadata.update(lexicon="lex.txt", embeddings="emb.vec")
    return report


def test_criterion_4_vocabulary_restriction_invariance():
    with criterion(4, "adding 100 out-of-lexicon tokens leaves both report renderings byte-identical"):
        vectors, raw_pairs = forced_rank_setup([1, 2, 7, 3, 15], 40)
        lex = lexicon_of(*(f"w{j:03d}" for j in range(40)))
        pairs = [pair(i, f, entry_id=f"e{n}") for n, (i, f) in enumerate(raw_pairs)]
        pairs.append(pair("ghost", "w000", entry_id="e90"))     # informal_missing
        pairs.append(pair("inf0", "junk001", entry_id="e91"))   # formal never in lexicon

        base = _fixture_eval(vectors, pairs, lex)
        grown = _fixture_eval(
            vectors, pairs, lex, extra_tokens=[f"junk{i:03d}" for i in range(100)]
        )
        assert report_text(grown).encode() == report_text(base).encode()
        assert render_report_tsv(grown).encode() == render_report_tsv(base).encode()
        assert grown.candidate_count == base.candidate_count == 40


def test_criterion_5_positive_scaling_invariance():
    with criterion(5, "independent positive row scaling leaves every status and rank unchanged"):
        rng = np.random.default_rng(5)
        raw = random_table(rng, 80, 8)
        lex = lexicon_of(*raw.vocabulary[40:])
        pairs = [
            pair(raw.vocabulary[i], raw.vocabulary[40 + i], entry_id=f"e{i}")
            for i in range(30)
        ]
        before = evaluate_pairs(normalize(raw), pairs, lex, EvalConfig())

        scales = rng.uniform(0.1, 10.0, size=len(raw))
        scaled = (raw.matrix.astype(np.float64) * scales[:, None]).astype(np.float32)
        rescaled = EmbeddingTable(
            dimension=raw.dimension, vocabulary=raw.vocabulary, matrix=scaled
        )
        after = evaluate_pairs(normalize(rescaled), pairs, lex, EvalConfig())

        assert [r.status for r in after.per_pair] == [r.status for r in before.per_pair]
        assert [r.rank for r in after.per_pair] == [r.rank for r in before.per_pair]
        cutoffs = EvalConfig().cutoffs
        assert summarize_rows(after.per_pair, cutoffs) == summarize_rows(before.per_pair, cutoffs)

        # same property on the engineered fixture, where gaps are coarse by design
        vectors, raw_pairs = forced_rank_setup([1, 4, 11], 20)
        fpairs = [pair(i, f, entry_id=f"f{n}") for n, (i, f) in enumerate(raw_pairs)]
        flex = lexicon_of(*(f"w{j:03d}" for j in range(20)))
        plain = evaluate_pairs(
            normalize(make_table(vectors)), fpairs, flex, EvalConfig()
        )
        srng = np.random.default_rng(55)
        svectors = {
            t: [x * c for x in v]
            for (t, v), c in zip(vectors.items(), srng.uniform(0.1, 10.0, len(vectors)))
        }
        scaled_report = evaluate_pairs(
            normalize(make_table(svectors)), fpairs, flex, EvalConfig()
        )
        assert [r.rank for r in scaled_report.per_pair] == [1, 4, 11]
        assert [r.rank for r in plain.per_pair] == [1, 4, 11]


def test_criterion_6_accuracy_monotone_and_saturating():
    with criterion(6, "accuracy is non-decreasing in the cutoff and hits 1.0 at the pool size"):
        for seed in (101, 202, 303, 404, 505):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 40))
            dim = int(rng.integers(3, 9))
            table = random_table(rng, n, dim)
            chosen = [t for t in table.vocabulary if rng.random() < 0.6]
            if not chosen:
                chosen = [table.vocabulary[0]]
            lex = lexicon_of(*chosen)
            m = len(chosen)
            pairs = []
            for i in range(8):
                formal = chosen[int(rng.integers(0, m))]
                informal = table.vocabulary[int(rng.integers(0, n))]
                if informal == formal:
                    continue
                pairs.append(pair(informal, formal, entry_id=f"e{i}"))
            if not pairs:
                continue
            cfg = EvalConfig(k=m, cutoffs=tuple(range(1, m + 1)))
            report = evaluate_pairs(normalize(table), pairs, lex, cfg)
            counts, hits_at = summarize_rows(report.per_pair, cfg.cutoffs)
            assert counts[PairStatus.SCORED] == len(pairs)
            values = [hits_at[c] for c in cfg.cutoffs]
            assert values == sorted(values)
            assert hits_at[m] == len(pairs)


def test_criterion_7_synthetic_end_to_end_accuracy():
    with criterion(7, "500 informal vectors at 1% noise all rank their target first (accuracy@1 exactly 1.0)"):
        rng = np.random.default_rng(7)
        n, dim = 500, 50
        formals = rng.normal(size=(n, dim))
        noise = rng.normal(size=(n, dim))
        noise *= (
            0.01 * np.linalg.norm(formals, axis=1) / np.linalg.norm(noise, axis=1)
        )[:, None]
        vectors = {f"w{i:03d}": list(formals[i]) for i in range(n)}
        vectors.update({f"inf{i:03d}": list(formals[i] + noise[i]) for i in range(n)})
        lex = lexicon_of(*(f"w{i:03d}" for i in range(n)))
        pairs = [pair(f"inf{i:03d}", f"w{i:03d}", entry_id=f"e{i}") for i in range(n)]
        report = evaluate_pairs(normalize(make_table(vectors)), pairs, lex, EvalConfig())
        counts, hits_at = summarize_rows(report.per_pair, (1,))
        assert counts[PairStatus.SCORED] == n
        assert hits_at[1] == n


def test_criterion_8_report_format_expresses_reference_fractions(tmp_path):
    with criterion(8, "a 620-row report with 70 rank-1 and 146 top-20 rows prints 0.113 and 0.235"):
        lines = []
        ranks = [1] * 70 + [2 + (i % 19) for i in range(76)] + [21 + (i % 300) for i in range(474)]
        assert len(ranks) == 620
        assert sum(r <= 1 for r in ranks) == 70
        assert sum(r <= 20 for r in ranks) == 146
        for i, rank in enumerate(ranks):
            lines.append(f"inf{i:04d}\tfrm{i:04d}\tscored\t{rank}\tfrm{i:04d}:0.500000")
        tsv = tmp_path / "hand.report.tsv"
        tsv.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

        code, out = quiet_main(["report", "--report", str(tsv)])
        assert code == 0
        assert "pairs: 620  scored: 620" in out
        assert "accuracy@1 = 0.113 (70/620)" in out
        assert "accuracy@20 = 0.235 (146/620)" in out


def test_criterion_9_determinism_across_threads_and_reruns(tmp_path):
    with criterion(9, "every command is byte-identical across reruns"):
        # extract
        extract_snapshots = []
        pairs_path = tmp_path / "pairs.tsv"
        for _ in range(4):
            code, _ = quiet_main(
                [
                    "extract",
                    "--defs", str(DATA / "definitions_sample.tsv"),
                    "--freq", str(DATA / "frequencies_sample.tsv"),
                    "--pairs", str(pairs_path),
                ]
            )
            assert code == 0
            extract_snapshots.append(
                (
                    pairs_path.read_bytes(),
                    (tmp_path / "pairs.tsv.stats").read_bytes(),
                    (tmp_path / "pairs.tsv.stats.json").read_bytes(),
                )
            )
        assert all(s == extract_snapshots[0] for s in extract_snapshots[1:])

        # build-vocab and count-freq
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat\nthe dog sat too\n", encoding="utf-8")
        vocab_snapshots, freq_snapshots = [], []
        for _ in range(2):
            assert quiet_main(
                ["build-vocab", "--corpus", str(corpus), "--lexicon", str(tmp_path / "lex.out")]
            )[0] == 0
            vocab_snapshots.append((tmp_path / "lex.out").read_bytes())
            assert quiet_main(
                ["count-freq", "--corpus", str(corpus), "--freq", str(tmp_path / "freq.out")]
            )[0] == 0
            freq_snapshots.append((tmp_path / "freq.out").read_bytes())
        assert vocab_snapshots[0] == vocab_snapshots[1]
        assert freq_snapshots[0] == freq_snapshots[1]

        # evaluate + report
        vectors, raw_pairs = forced_rank_setup([1, 3, 9, 2], 25)
        emb_path = tmp_path / "emb.vec"
        write_embeddings(make_table(vectors), emb_path)
        lex_path = tmp_path / "lex.txt"
        write_lexicon(lexicon_of(*(f"w{j:03d}" for j in range(25))), lex_path)
        eval_pairs_path = tmp_path / "eval_pairs.tsv"
        write_pairs(
            [pair(i, f, entry_id=f"e{n}") for n, (i, f) in enumerate(raw_pairs)],
            eval_pairs_path,
        )
        report_path = tmp_path / "run.report"
        eval_snapshots, report_outputs = [], []
        for _ in range(4):
            code, _ = quiet_main(
                [
                    "evaluate",
                    "--pairs", str(eval_pairs_path),
                    "--lexicon", str(lex_path),
                    "--embeddings", str(emb_path),
                    "--report", str(report_path),
                ]
            )
            assert code == 0
            eval_snapshots.append(
                (report_path.read_bytes(), (tmp_path / "run.report.tsv").read_bytes())
            )
            code, out = quiet_main(
                ["report", "--report", str(tmp_path / "run.report.tsv")]
            )
            assert code == 0
            report_outputs.append(out)
        assert all(s == eval_snapshots[0] for s in eval_snapshots[1:])
        assert all(o == report_outputs[0] for o in report_outputs[1:])
