import io
import math
import os
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import forced_rank_setup, lexicon_of, make_table, pair, random_table, report_text
from spellvar import evaluate
from spellvar.embeddings import BLOCK_LINES, EmbeddingTable, load_embeddings, normalize
from spellvar.errors import DegenerateVectorError, MissingTokenError, ParseError
from spellvar.vocab import FormalLexicon
from spellvar.evaluate import (
    DEFAULT_CUTOFFS,
    CandidatePool,
    EvalConfig,
    EvalReport,
    PairResult,
    PairStatus,
    ReportPair,
    accuracy_summary,
    brute_force_rank,
    diagnostics_rows,
    evaluate_pairs,
    load_report_rows,
    rank_formal_neighbors,
    render_report_tsv,
    summarize_rows,
    write_report,
)

# 0.9 / sqrt(0.82), frozen from an arbitrary-precision computation
SIM_UR_YOUR = 0.9938837346736189

# An embedding token: any bytes but the separators of the table format.
TOKEN_BYTES = st.binary(min_size=1, max_size=6).filter(lambda b: not set(b) & set(b" \n\r"))


class TestEvalConfig:
    def test_defaults(self):
        cfg = EvalConfig()
        assert cfg.k == 20
        assert cfg.cutoffs == DEFAULT_CUTOFFS == (1, 5, 10, 20)
        assert cfg.exclude_self is True

    def test_k_validated(self):
        with pytest.raises(ValueError):
            EvalConfig(k=0)

    def test_cutoffs_validated(self):
        with pytest.raises(ValueError):
            EvalConfig(cutoffs=())
        with pytest.raises(ValueError):
            EvalConfig(cutoffs=(5, 5))
        with pytest.raises(ValueError):
            EvalConfig(cutoffs=(10, 5))
        with pytest.raises(ValueError):
            EvalConfig(cutoffs=(0, 5))


UR_TABLE = {"ur": [1.0, 0.0], "your": [0.9, 0.1], "babylon": [0.0, 1.0]}


class TestRankFormalNeighbors:
    def test_two_candidate_ranking(self):
        table = make_table(UR_TABLE)
        lex = lexicon_of("your", "babylon")
        top = rank_formal_neighbors(table, "ur", lex, k=1)
        assert [t for t, _ in top] == ["your"]
        assert top[0][1] == pytest.approx(SIM_UR_YOUR, abs=1e-6)

    def test_saturation_returns_full_pool(self):
        table = make_table(UR_TABLE)
        lex = lexicon_of("your", "babylon")
        top = rank_formal_neighbors(table, "ur", lex, k=50)
        assert [t for t, _ in top] == ["your", "babylon"]
        assert top[1][1] == pytest.approx(0.0, abs=1e-9)

    def test_pool_restricted_to_lexicon(self):
        table = make_table(UR_TABLE)
        top = rank_formal_neighbors(table, "ur", lexicon_of("babylon"), k=5)
        assert [t for t, _ in top] == ["babylon"]

    def test_lexicon_tokens_absent_from_vocabulary_ignored(self):
        table = make_table(UR_TABLE)
        lex = lexicon_of("your", "ghost")
        top = rank_formal_neighbors(table, "ur", lex, k=5)
        assert [t for t, _ in top] == ["your"]

    def test_membership_is_exact_so_case_twins_stay_out(self):
        # "Your" is nearer to "ur" than "your" is, but only "your" is a
        # lexicon token as stored; every ranking path leaves "Your" out
        table = make_table(
            {"ur": [1.0, 0.0], "Your": [0.95, 0.05], "your": [0.9, 0.1], "other": [0.0, 1.0]}
        )
        lex = lexicon_of("your", "other")
        assert [t for t, _ in rank_formal_neighbors(table, "ur", lex, k=5)] == ["your", "other"]
        assert [t for t, _ in brute_force_rank(table, "ur", lex)] == ["your", "other"]
        report = evaluate_pairs(normalize(table), [pair("ur", "your")], lex, EvalConfig())
        assert report.per_pair[0].rank == 1
        assert report.candidate_count == 2

    def test_informal_missing(self):
        table = make_table(UR_TABLE)
        with pytest.raises(MissingTokenError):
            rank_formal_neighbors(table, "ghost", lexicon_of("your"), k=1)

    def test_missing_token_error_prints_its_message(self):
        # KeyError's str() is the repr of its argument: the message in quotes.
        with pytest.raises(KeyError) as caught:
            rank_formal_neighbors(make_table(UR_TABLE), "ghost", lexicon_of("your"), k=1)
        assert isinstance(caught.value, MissingTokenError)
        assert str(caught.value) == "token not in embedding vocabulary: 'ghost'"

    def test_informal_degenerate(self):
        table = make_table({"ur": [0.0, 0.0], "your": [1.0, 0.0]})
        with pytest.raises(DegenerateVectorError):
            rank_formal_neighbors(table, "ur", lexicon_of("your"), k=1)

    def test_empty_pool_after_self_exclusion(self):
        table = make_table({"ur": [1.0, 0.0]})
        with pytest.raises(ValueError, match="empty candidate set"):
            rank_formal_neighbors(table, "ur", lexicon_of("ur"), k=1)

    def test_empty_pool_without_self_exclusion(self):
        # "ghost" shares no token with the table; "hole" has a zero vector.
        table = make_table({"ur": [1.0, 0.0], "hole": [0.0, 0.0]})
        for lex in (lexicon_of("ghost"), lexicon_of("hole")):
            with pytest.raises(ValueError, match="empty candidate set"):
                rank_formal_neighbors(table, "ur", lex, k=1, exclude_self=False)
            pool = CandidatePool(table, lex)
            assert (len(pool.tokens), pool.pool.shape, pool.norms.shape) == (0, (0, 2), (0,))
            assert evaluate_pairs(table, [], lex, EvalConfig()).candidate_count == 0

    def test_exclude_self_semantics(self):
        table = make_table({"ur": [1.0, 0.0], "your": [0.9, 0.1]})
        lex = lexicon_of("ur", "your")
        kept_in = rank_formal_neighbors(table, "ur", lex, k=5, exclude_self=False)
        assert [t for t, _ in kept_in] == ["ur", "your"]
        assert kept_in[0][1] == pytest.approx(1.0, abs=1e-9)
        dropped = rank_formal_neighbors(table, "ur", lex, k=5, exclude_self=True)
        assert [t for t, _ in dropped] == ["your"]

    def test_degenerate_candidates_left_out(self):
        table = make_table(
            {"ur": [1.0, 0.0], "your": [0.9, 0.1], "hole": [0.0, 0.0]}
        )
        top = rank_formal_neighbors(table, "ur", lexicon_of("your", "hole"), k=5)
        assert [t for t, _ in top] == ["your"]

    def test_bad_k(self):
        table = make_table(UR_TABLE)
        with pytest.raises(ValueError):
            rank_formal_neighbors(table, "ur", lexicon_of("your"), k=0)

    def test_unnormalized_and_normalized_agree_on_order(self):
        rng = np.random.default_rng(7)
        raw = random_table(rng, 30, 6)
        lex = lexicon_of(*raw.vocabulary[10:])
        a = rank_formal_neighbors(raw, "t0001", lex, k=10)
        b = rank_formal_neighbors(normalize(raw), "t0001", lex, k=10)
        assert [t for t, _ in a] == [t for t, _ in b]


class TestBruteForceRank:
    def test_hand_set_similarities(self):
        # cosines to the query are exactly the first components: 0.9 > 0.5 > 0.1,
        # assigned against lexicographic order so similarity must win
        table = make_table(
            {
                "q": [1.0, 0.0],
                "zzz": [0.9, np.sqrt(1 - 0.81)],
                "mmm": [0.5, np.sqrt(1 - 0.25)],
                "aaa": [0.1, np.sqrt(1 - 0.01)],
            }
        )
        ranking = brute_force_rank(table, "q", lexicon_of("zzz", "mmm", "aaa"))
        assert [t for t, _ in ranking] == ["zzz", "mmm", "aaa"]
        sims = [s for _, s in ranking]
        assert sims == pytest.approx([0.9, 0.5, 0.1], abs=1e-6)

    def test_tie_breaks_lexicographically(self):
        table = make_table(
            {"q": [1.0, 0.0], "beta": [0.5, 0.5], "alpha": [0.5, 0.5]}
        )
        ranking = brute_force_rank(table, "q", lexicon_of("alpha", "beta"))
        assert [t for t, _ in ranking] == ["alpha", "beta"]
        assert ranking[0][1] == ranking[1][1]

    def test_errors_match_fast_path(self):
        table = make_table({"q": [1.0, 0.0]})
        with pytest.raises(MissingTokenError):
            brute_force_rank(table, "ghost", lexicon_of("q"))
        with pytest.raises(ValueError, match="empty candidate set"):
            brute_force_rank(table, "q", lexicon_of("q"))

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_oracle(self, seed, exclude_self):
        rng = np.random.default_rng(seed)
        table = random_table(rng, int(rng.integers(3, 40)), int(rng.integers(2, 8)))
        picks = rng.random(len(table)) < 0.6
        if not picks.any():
            picks[0] = True
        lex = lexicon_of(*(t for t, keep in zip(table.vocabulary, picks) if keep))
        informal = table.vocabulary[int(rng.integers(0, len(table)))]
        if exclude_self and informal in lex and picks.sum() == 1:
            return
        k = int(rng.integers(1, len(table) + 2))
        oracle = brute_force_rank(table, informal, lex, exclude_self=exclude_self)
        fast = rank_formal_neighbors(table, informal, lex, k, exclude_self=exclude_self)
        assert [t for t, _ in fast] == [t for t, _ in oracle[:k]]
        for (_, a), (_, b) in zip(fast, oracle):
            assert abs(a - b) < 1e-12


def eval_forced(target_ranks, n_candidates, cutoffs=(1, 5, 10, 20), k=20, **kwargs):
    vectors, raw_pairs = forced_rank_setup(target_ranks, n_candidates)
    table = normalize(make_table(vectors))
    lex = lexicon_of(*(f"w{j:03d}" for j in range(n_candidates)))
    pairs = [pair(i, f, entry_id=f"e{n}") for n, (i, f) in enumerate(raw_pairs)]
    cfg = EvalConfig(k=k, cutoffs=cutoffs)
    report = evaluate_pairs(table, pairs, lex, cfg, **kwargs)
    return table, lex, pairs, report


def tally(report):
    """``(scored rows, hits_at)`` of a report at its own cutoffs."""
    counts, hits_at = summarize_rows(report.per_pair, report.config.cutoffs)
    return counts[PairStatus.SCORED], hits_at


class TestEvaluatePairs:
    def test_identical_vectors_rank_one(self):
        table = make_table({"ur": [0.6, 0.8], "your": [0.6, 0.8], "other": [1.0, 0.0]})
        report = evaluate_pairs(
            table, [pair("ur", "your")], lexicon_of("your", "other"), EvalConfig()
        )
        assert report.per_pair[0].rank == 1
        assert tally(report) == (1, {1: 1, 5: 1, 10: 1, 20: 1})

    def test_statuses(self):
        table = normalize(
            make_table(
                {
                    "ur": [1.0, 0.0],
                    "your": [0.9, 0.1],
                    "zero": [0.0, 0.0],
                    "informalish": [0.5, 0.5],
                }
            )
        )
        lex = lexicon_of("your", "zero")
        pairs = [
            pair("ur", "your", "e1"),            # scored
            pair("ghost", "your", "e2"),         # informal not in vocabulary
            pair("zero", "your", "e3"),          # informal vector degenerate
            pair("ur", "missing", "e4"),         # formal not in vocabulary
            pair("ur", "informalish", "e5"),     # formal outside lexicon
            pair("ur", "zero", "e6"),            # formal vector degenerate
        ]
        report = evaluate_pairs(table, pairs, lex, EvalConfig())
        statuses = [r.status for r in report.per_pair]
        assert statuses == [
            PairStatus.SCORED,
            PairStatus.INFORMAL_MISSING,
            PairStatus.INFORMAL_MISSING,
            PairStatus.FORMAL_MISSING,
            PairStatus.FORMAL_MISSING,
            PairStatus.FORMAL_MISSING,
        ]
        counts, _ = summarize_rows(report.per_pair, report.config.cutoffs)
        assert counts == {
            PairStatus.SCORED: 1, PairStatus.INFORMAL_MISSING: 2, PairStatus.FORMAL_MISSING: 3
        }
        assert sum(counts.values()) == len(report.per_pair)
        # unscored rows carry no rank and no neighbors
        for r in report.per_pair[1:]:
            assert r.rank is None
            assert r.top_neighbors == []

    def test_forced_ranks_and_accuracy(self):
        table, lex, pairs, report = eval_forced([1, 1, 3, 25], 30)
        assert [r.rank for r in report.per_pair] == [1, 1, 3, 25]
        assert tally(report) == (4, {1: 2, 5: 3, 10: 3, 20: 3})
        assert report.candidate_count == 30
        # agreement with the pairwise oracle on every target position
        for p, r in zip(pairs, report.per_pair):
            ordering = brute_force_rank(table, p.informal, lex)
            assert [t for t, _ in ordering].index(p.formal) + 1 == r.rank

    def test_rank_beyond_k_still_exact(self):
        _, _, _, report = eval_forced([7], 12, cutoffs=(1, 2), k=2)
        r = report.per_pair[0]
        assert r.rank == 7
        assert len(r.top_neighbors) == 2
        assert tally(report) == (1, {1: 0, 2: 0})

    def test_top_neighbors_saturate_at_pool_size(self):
        _, _, _, report = eval_forced([2], 3, cutoffs=(1,), k=20)
        assert len(report.per_pair[0].top_neighbors) == 3

    def test_accuracy_monotone_and_saturating(self):
        n = 8
        _, _, _, report = eval_forced([1, 2, 5, 8], n, cutoffs=tuple(range(1, n + 1)))
        scored, hits_at = tally(report)
        values = [hits_at[c] for c in range(1, n + 1)]
        assert values == sorted(values)
        assert hits_at[n] == scored == 4

    def test_no_scored_pairs_flagged(self):
        table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        report = evaluate_pairs(
            table, [pair("ghost", "b")], lexicon_of("b"), EvalConfig()
        )
        assert tally(report) == (0, {})
        assert "warning: no scored pairs" in report_text(report)

    def test_results_keep_input_order(self):
        table = normalize(make_table(UR_TABLE))
        pairs = [pair("ur", "your", "e1"), pair("ghost", "your", "e2"), pair("ur", "babylon", "e3")]
        report = evaluate_pairs(table, pairs, lexicon_of("your", "babylon"), EvalConfig())
        assert [r.pair.entry_id for r in report.per_pair] == ["e1", "e2", "e3"]

    def test_block_boundaries_do_not_change_results(self):
        # two full blocks plus a remainder; self-excluded, kept and unscored
        # pairs interleaved across the block edges
        rng = np.random.default_rng(11)
        table = normalize(random_table(rng, 80, 5))
        lex = lexicon_of(*table.vocabulary[:60])
        pairs = []
        for n in range(3 * evaluate.BLOCK):
            informal = table.vocabulary[int(rng.integers(0, 80))]
            formal = table.vocabulary[int(rng.integers(0, 60))]
            if n % 9 == 4:
                informal = "ghost"
            if n % 11 == 5:
                formal = table.vocabulary[70]  # outside the lexicon
            if formal != informal:
                pairs.append(pair(informal, formal, entry_id=f"e{n}"))
        cfg = EvalConfig(k=7, cutoffs=(1, 5))
        report = evaluate_pairs(table, pairs, lex, cfg)
        statuses = {r.status for r in report.per_pair}
        assert len(statuses) == 3
        assert any(r.status is PairStatus.SCORED and r.pair.informal in lex
                   for r in report.per_pair)
        scored, _ = tally(report)
        assert scored > 2 * evaluate.BLOCK
        assert scored % evaluate.BLOCK
        alone = [evaluate_pairs(table, [p], lex, cfg).per_pair[0] for p in pairs]
        assert report.per_pair == alone

    def test_self_token_excluded_but_target_never(self):
        table = make_table({"luff": [1.0, 0.0], "love": [0.8, 0.6]})
        lex = lexicon_of("luff", "love")
        report = evaluate_pairs(table, [pair("luff", "love")], lex, EvalConfig())
        r = report.per_pair[0]
        assert r.rank == 1
        assert [t for t, _ in r.top_neighbors] == ["love"]
        kept = evaluate_pairs(
            table, [pair("luff", "love")], lex, EvalConfig(exclude_self=False)
        )
        assert kept.per_pair[0].rank == 2  # its own vector now outranks the target

    def test_candidate_count_reported(self):
        table = normalize(make_table(UR_TABLE))
        report = evaluate_pairs(
            table, [pair("ur", "your")], lexicon_of("your", "babylon", "ghost"), EvalConfig()
        )
        assert report.candidate_count == 2


def duplicate_rows_instance(rng):
    """A normalized table whose rows are drawn with replacement from a few
    random vectors, so identical rows sit at different positions, and a
    lexicon over about 70% of it."""
    n = int(rng.integers(20, 301))
    dim = int(rng.integers(2, 65))
    base = rng.normal(size=(int(rng.integers(2, 9)), dim))
    matrix = base[rng.integers(0, len(base), size=n)].astype(np.float32)
    tokens = tuple(f"t{i:04d}" for i in range(n))
    table = normalize(EmbeddingTable(dimension=dim, vocabulary=tokens, matrix=matrix))
    keep = rng.random(n) < 0.7
    keep[:2] = True
    return table, lexicon_of(*(t for t, m in zip(tokens, keep) if m))


def assert_duplicate_rows_match_oracle(rng, instances, queries=50):
    for _ in range(instances):
        table, lex = duplicate_rows_instance(rng)
        pool = [t for t in table.vocabulary if t in lex]
        exclude_self = bool(rng.integers(0, 2))
        k = int(rng.integers(1, len(pool) + 3))
        pairs = []
        while len(pairs) < queries:
            informal = table.vocabulary[int(rng.integers(0, len(table)))]
            formal = pool[int(rng.integers(0, len(pool)))]
            if informal != formal:
                pairs.append(pair(informal, formal))
        report = evaluate_pairs(
            table, pairs, lex, EvalConfig(k=k, cutoffs=(1,), exclude_self=exclude_self)
        )
        for p, r in zip(pairs, report.per_pair):
            oracle = brute_force_rank(table, p.informal, lex, exclude_self=exclude_self)
            tokens = [t for t, _ in oracle]
            assert r.rank == tokens.index(p.formal) + 1
            assert [t for t, _ in r.top_neighbors] == tokens[:k]
            for (_, a), (_, b) in zip(r.top_neighbors, oracle):
                assert abs(a - b) <= 1e-12
            fast = rank_formal_neighbors(table, p.informal, lex, k, exclude_self)
            assert fast == r.top_neighbors


def rounding_edge_instance():
    """q and three unit rows at dim 1000: "half" scores the float32 nearest
    1.5e-6, half-way between two 6-decimal values; "zero" scores 0.0, where
    -0.000000 turns into 0.000000; "far" lies far from any edge."""
    rows = np.zeros((4, 1000), dtype=np.float32)
    rows[0, 0] = rows[1, 1] = rows[2, 1] = rows[3, 1] = 1.0
    rows[1, 0], rows[3, 0] = 1.5e-6, 0.3
    table = EmbeddingTable(1000, ("q", "half", "zero", "far"), rows)
    return table, lexicon_of("half", "zero", "far")


def near_tie_instance():
    """48 lexicon rows, then q = (0.6, 0.7, 0.8, 0.3) in float32, outside the
    lexicon; each row is q with one coordinate moved 1 to 6 float32 ulps up or down.
    Their cosines with q take 35 distinct values, neighbours 1.1e-16 to 3.9e-15
    apart, all inside the pool's slack of 4.7e-15: near-ties that do not tie."""
    q = np.array([0.6, 0.7, 0.8, 0.3], dtype=np.float32)
    rows, tokens = [], []
    for j in range(4):
        for way, toward in (("u", np.inf), ("d", -np.inf)):
            row = q.copy()
            for m in range(1, 7):
                row[j] = np.nextafter(row[j], np.float32(toward))
                rows.append(row.copy())
                tokens.append(f"c{j}{way}{m}")
    table = EmbeddingTable(4, (*tokens, "q"), np.vstack(rows + [q]))
    return table, lexicon_of(*tokens)


def permuted_rows_instance(rng, n, dim):
    """A table of n permutations of one random float32 vector, tokens
    ``p0000``..., plus an all-ones ``ones`` row outside the lexicon."""
    v = rng.random(dim).astype(np.float32)
    rows = [rng.permutation(v) for _ in range(n)] + [np.ones(dim, dtype=np.float32)]
    tokens = tuple(f"p{i:04d}" for i in range(n)) + ("ones",)
    table = EmbeddingTable(dimension=dim, vocabulary=tokens, matrix=np.vstack(rows))
    return table, lexicon_of(*tokens[:-1])


class TestRankingEngineEdges:
    def test_duplicate_vectors_match_oracle(self):
        assert_duplicate_rows_match_oracle(np.random.default_rng(20231), instances=12)

    # identical rows of a scaled or negated, unnormalized table tie exactly,
    # and the tie breaks by token order, as in the oracle
    @pytest.mark.parametrize("multiplier", [np.float32(1), np.float32(-3)])
    def test_identical_rows_are_scored_once(self, multiplier):
        table, lex = duplicate_rows_instance(np.random.default_rng(8))
        table = EmbeddingTable(
            dimension=table.dimension,
            vocabulary=table.vocabulary,
            matrix=table.matrix * multiplier,
        )
        pool = sum(t in lex for t in table.vocabulary)
        for informal in table.vocabulary:
            oracle = brute_force_rank(table, informal, lex)
            fast = rank_formal_neighbors(table, informal, lex, k=pool)
            assert [t for t, _ in fast] == [t for t, _ in oracle]
            for (_, a), (_, b) in zip(fast, oracle):
                assert abs(a - b) <= 1e-12

    def test_permuted_vector_ties_match_oracle(self):
        # Permutations of one vector have equal cosines with the all-ones
        # query, but a product summed in another order rounds each its own
        # way. First the k-th score and every target sit inside that tie, and
        # the pairs span three blocks; then the query itself joins the pool
        # and k = 1 leaves the tie, so only the targets' own bands settle ranks.
        table, lex = permuted_rows_instance(np.random.default_rng(12), 2000, 50)
        table = normalize(table)
        picks = np.random.default_rng(13).choice(2000, size=2 * evaluate.BLOCK + 10, replace=False)
        pairs = [pair("ones", f"p{i:04d}", entry_id=f"e{i}") for i in picks]
        runs = [(lex, 20, True, pairs), (lexicon_of(*table.vocabulary), 1, False, pairs[:8])]
        for lex, k, exclude_self, pairs in runs:
            cfg = EvalConfig(k=k, cutoffs=(1,), exclude_self=exclude_self)
            report = evaluate_pairs(table, pairs, lex, cfg)
            oracle = brute_force_rank(table, "ones", lex, exclude_self)
            tokens = [t for t, _ in oracle]
            assert oracle[-2000][1] == oracle[-1][1]
            for p, r in zip(pairs, report.per_pair):
                assert r.rank == tokens.index(p.formal) + 1
                assert [t for t, _ in r.top_neighbors] == tokens[:k]
                for (_, a), (_, b) in zip(r.top_neighbors, oracle):
                    assert abs(a - b) <= 1e-12
            fast = rank_formal_neighbors(table, "ones", lex, k, exclude_self)
            assert fast == report.per_pair[0].top_neighbors

    def test_ties_of_rows_scaled_by_powers_of_two_match_oracle(self):
        # Scaling by a power of two is exact, so an unnormalized table keeps
        # the permuted rows' ties.
        rng = np.random.default_rng(14)
        table, lex = permuted_rows_instance(rng, 2000, 50)
        scales = 2.0 ** rng.integers(-6, 7, size=(len(table), 1))
        scales[-1] = 1.0
        table = EmbeddingTable(
            dimension=50,
            vocabulary=table.vocabulary,
            matrix=(table.matrix * scales).astype(np.float32),
        )
        oracle = brute_force_rank(table, "ones", lex)
        assert oracle[0][1] == oracle[-1][1]
        for k in (20, 2000):
            fast = rank_formal_neighbors(table, "ones", lex, k)
            assert [t for t, _ in fast] == [t for t, _ in oracle[:k]]
            for (_, a), (_, b) in zip(fast, oracle):
                assert abs(a - b) <= 1e-12

    def test_large_pool_matches_oracle(self):
        # A pool past 10k rows, two full blocks of scored pairs and a partial
        # third, every other pair self-excluded; the first and last pair of
        # each block (an even n and an odd one) are checked against the oracle.
        rng = np.random.default_rng(20261018)
        table = normalize(random_table(rng, 10_300, 50))
        lex = lexicon_of(*table.vocabulary[:10_000])
        pairs = []
        for n in range(2 * evaluate.BLOCK + 40):
            informal = table.vocabulary[int(rng.integers(0, 10_000)) if n % 2 else -1 - n]
            formal = table.vocabulary[int(rng.integers(0, 10_000))]
            pairs.append(pair(informal, formal, entry_id=f"e{n}"))
        k = 20
        report = evaluate_pairs(table, pairs, lex, EvalConfig(k=k, cutoffs=(1,)))
        assert report.candidate_count == 10_000
        assert tally(report)[0] == len(pairs)
        starts = range(0, len(pairs), evaluate.BLOCK)
        for n in [m for s in starts for m in (s, min(s + evaluate.BLOCK, len(pairs)) - 1)]:
            p, r = pairs[n], report.per_pair[n]
            assert (p.informal in lex) == (n % 2 == 1)
            oracle = brute_force_rank(table, p.informal, lex)
            tokens = [t for t, _ in oracle]
            assert r.rank == tokens.index(p.formal) + 1
            assert [t for t, _ in r.top_neighbors] == tokens[:k]
            for (_, a), (_, b) in zip(r.top_neighbors, oracle):
                assert abs(a - b) <= 1e-12

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_ranking_holds_one_block_array_beside_the_product(self, blocks):
        # At dim 8 each block's pool x BLOCK float64 product outweighs the
        # ranker's own pool. Beside it a block holds no array of its size: the
        # norms divide it in place, and each query is ranked in its own row.
        # Over three blocks, each product is written into the last one's array.
        table = normalize(random_table(np.random.default_rng(5), 20_000, 8))
        lex = lexicon_of(*table.vocabulary)
        pairs = [
            pair(table.vocabulary[i], table.vocabulary[i + 1], entry_id=f"e{i}")
            for i in range(blocks * evaluate.BLOCK)
        ]
        tracemalloc.start()
        try:
            report = evaluate_pairs(table, pairs, lex, EvalConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tally(report)[0] == blocks * evaluate.BLOCK
        assert peak < 2 * len(table) * evaluate.BLOCK * 8

    @pytest.mark.parametrize("k", [5, 6, 50])
    def test_exclude_self_with_k_at_least_pool_size(self, k):
        table = normalize(random_table(np.random.default_rng(3), 6, 3))
        lex = lexicon_of(*table.vocabulary)
        top = rank_formal_neighbors(table, "t0002", lex, k=k)
        assert [t for t, _ in top] == [
            t for t, _ in brute_force_rank(table, "t0002", lex)
        ][:k]
        assert len(top) == min(k, 5)
        assert all(np.isfinite(s) for _, s in top)
        report = evaluate_pairs(
            table, [pair("t0002", "t0004")], lex, EvalConfig(k=k, cutoffs=(1,))
        )
        assert report.per_pair[0].top_neighbors == top

    def test_scores_clipped_to_one_tie_by_token_order(self):
        q = np.array([0.7, 0.3, 0.1], dtype=np.float32)
        vectors = {"w7": 7 * q, "q": q, "w11": 11 * q, "w2": 2 * q, "far": [0, 0, 1]}
        table = make_table({t: list(v) for t, v in vectors.items()})
        a = q.astype(np.float64)
        for m in (2, 7, 11):
            b = (m * q).astype(np.float64)
            assert np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)) > 1.0
        lex = lexicon_of(*vectors)
        top = rank_formal_neighbors(table, "q", lex, k=5, exclude_self=False)
        assert top[:4] == [("q", 1.0), ("w11", 1.0), ("w2", 1.0), ("w7", 1.0)]
        assert top == brute_force_rank(table, "q", lex, exclude_self=False)
        unit = normalize(table)
        report = evaluate_pairs(unit, [pair("q", "w2")], lex, EvalConfig(k=2, cutoffs=(1,)))
        oracle = [t for t, _ in brute_force_rank(unit, "q", lex)]
        assert report.per_pair[0].rank == oracle.index("w2") + 1 == 2  # q is excluded

    def test_target_tied_with_earlier_and_later_tokens(self):
        table = normalize(make_table(
            {
                "q": [1.0, 0.0],
                "zeta": [0.6, 0.8],
                "best": [0.9, 0.1],
                "mid": [0.6, 0.8],
                "alpha": [0.6, 0.8],
                "low": [0.0, 1.0],
            }
        ))
        lex = lexicon_of("zeta", "best", "mid", "alpha", "low")
        oracle = [t for t, _ in brute_force_rank(table, "q", lex)]
        assert oracle == ["best", "alpha", "mid", "zeta", "low"]
        pairs = [pair("q", t) for t in ("alpha", "mid", "zeta")]
        report = evaluate_pairs(table, pairs, lex, EvalConfig(cutoffs=(1,)))
        assert [r.rank for r in report.per_pair] == [2, 3, 4]

    def test_written_values_near_a_rounding_edge_are_scored_again(self, monkeypatch):
        # At dim 1000 the slack covers the float32 nearest to 1.5e-6.
        table, lex = rounding_edge_instance()
        again, rescore = [], evaluate.CandidatePool.rescore
        monkeypatch.setattr(
            evaluate.CandidatePool, "rescore",
            lambda self, rows, q: again.extend(self.pool[rows, 0]) or rescore(self, rows, q),
        )
        top = rank_formal_neighbors(table, "q", lex, k=3)
        assert [t for t, _ in top] == ["far", "half", "zero"]
        assert sorted(again) == [0.0, np.float32(1.5e-6)]
        assert [f"{v:.6f}" for _, v in top] == ["0.287348", "0.000002", "0.000000"]

    def test_near_ties_with_distinct_cosines_match_oracle(self):
        # The target's band holds near-ties whose cosines differ, so every rank
        # rests on scoring that band again, not on token order.
        table, lex = near_tie_instance()
        oracle = brute_force_rank(table, "q", lex)
        scores = sorted({s for _, s in oracle})
        gaps = np.diff(scores)
        assert len(oracle) == 48 and len(scores) == 35
        assert gaps.min() >= 1.1e-16 and gaps.max() <= CandidatePool(table, lex).slack
        tokens = [t for t, _ in oracle]
        pairs = [pair("q", t, entry_id=f"e{n}") for n, t in enumerate(table.vocabulary[:-1])]
        report = evaluate_pairs(table, pairs, lex, EvalConfig(k=5, cutoffs=(1,)))
        for p, r in zip(pairs, report.per_pair):
            assert r.rank == tokens.index(p.formal) + 1
            assert [t for t, _ in r.top_neighbors] == tokens[:5]
            for (_, a), (_, b) in zip(r.top_neighbors, oracle):
                assert abs(a - b) <= 1e-12

    def test_report_does_not_depend_on_how_the_norms_are_summed(self, monkeypatch):
        # The slack bound holds for a norm summed in any order. So the pool's
        # norms taken as BLOCK_LINES-row slices of np.linalg.norm, as one einsum
        # reduction, or from an exact fsum of each row's squares (exact products:
        # the rows are float32) give the same report and the same neighbours,
        # on exact ties, near-ties and rounding edges too, though the norms differ.
        def sliced(pool):
            norms = np.empty(len(pool))
            for start in range(0, len(pool), BLOCK_LINES):
                norms[start : start + BLOCK_LINES] = np.linalg.norm(
                    pool[start : start + BLOCK_LINES], axis=1)
            return norms

        ways = [
            sliced,
            lambda pool: np.sqrt(np.einsum("ij,ij->i", pool, pool)),
            lambda pool: np.sqrt([math.fsum(row * row) for row in pool]),
        ]
        rng = np.random.default_rng(41)
        table = normalize(random_table(rng, BLOCK_LINES + 300, 40))
        instances = [
            (table, lexicon_of(*table.vocabulary[::2])),
            permuted_rows_instance(rng, 300, 50),
            duplicate_rows_instance(rng),
            rounding_edge_instance(),
            near_tie_instance(),
        ]
        cases = []
        for table, lex in instances:
            candidates = sorted(t for t in table.vocabulary if t in lex)
            informals = table.vocabulary[-40:]  # "ones" and "q" among them
            formals = [candidates[i % len(candidates)] for i in range(len(informals))]
            pairs = [pair(i, f if f != i else candidates[candidates.index(f) - 1], entry_id=f"e{n}")
                     for n, (i, f) in enumerate(zip(informals, formals))]
            cases.append((table, lex, pairs))

        init, runs = CandidatePool.__init__, []
        for way in ways:
            def build(self, table, lexicon, way=way):
                init(self, table, lexicon)
                self.norms = way(self.pool)

            monkeypatch.setattr(CandidatePool, "__init__", build)
            run = []
            for table, lex, pairs in cases:
                report = evaluate_pairs(table, pairs, lex, EvalConfig(cutoffs=(1,)))
                pool = CandidatePool(table, lex)
                near = [[(t, evaluate._score_text(s)) for t, s in pool.neighbors(p.informal, 20)]
                        for p in pairs]
                run.append((render_report_tsv(report), near, pool.norms.tobytes()))
            runs.append(run)
        printed = [[(tsv, near) for tsv, near, _ in run] for run in runs]
        assert printed[1] == printed[0] and printed[2] == printed[0]
        for i in (0, 1):  # the random and permuted tables' norms do differ
            assert len({run[i][2] for run in runs}) > 1

    def test_one_score_text_serves_ranker_writer_reader_and_diagnostics(self, monkeypatch):
        # With whole-number text, 0.5 (q·half / |half| = 1/2 exactly) is a
        # rounding edge and 0.5 ± slack print apart, so the ranker must score
        # it again; at six decimals it is far from any edge. The writer, the
        # reader and the diagnostics then all use the same text.
        monkeypatch.setattr(evaluate, "_score_text", lambda score: f"{score:.0f}")
        table = make_table({"q": [1, 0, 0, 0], "half": [1, 1, 1, 1], "far": [1, 0.3, 0, 0]})
        again, rescore = [], evaluate.CandidatePool.rescore
        monkeypatch.setattr(
            evaluate.CandidatePool, "rescore",
            lambda self, rows, q: again.extend(map(self.tokens.__getitem__, rows))
            or rescore(self, rows, q),
        )
        lex = lexicon_of("half", "far")
        report = evaluate_pairs(table, [pair("q", "half")], lex, EvalConfig())
        assert again == ["half"]
        tsv = render_report_tsv(report)
        assert tsv == "q\thalf\tscored\t2\tfar:1,half:0\n"
        [row] = load_report_rows(tsv.encode())
        assert row.top_neighbors == [("far", 1.0), ("half", 0.0)]
        assert "nearest: far:1, half:0" in diagnostics_rows([row], n_worst=1)


class TestCandidatePool:
    @pytest.mark.parametrize("instance", ["duplicate_rows", "permuted_rows", "near_ties"])
    def test_a_held_pool_answers_as_fresh_pools_in_any_order(self, instance, monkeypatch):
        # One pool serves every token, forward then in reverse, with and
        # without self-exclusion, and scores rows again on the way; it never
        # changes. Each answer equals a fresh pool's and the oracle's top k.
        rng = np.random.default_rng(31)
        if instance == "duplicate_rows":
            table, lex = duplicate_rows_instance(rng)
        elif instance == "permuted_rows":
            table, lex = permuted_rows_instance(rng, 150, 12)
        else:
            table, lex = near_tie_instance()
        k = 12
        pool = CandidatePool(table, lex)

        def arrays():
            return {name: (a.dtype, a.shape, a.tobytes())
                    for name, a in vars(pool).items() if isinstance(a, np.ndarray)}

        built, held_rescores, rescore = arrays(), [], CandidatePool.rescore
        monkeypatch.setattr(
            CandidatePool, "rescore",
            lambda self, rows, q: (self is pool and held_rescores.append(len(rows)))
            or rescore(self, rows, q),
        )
        for exclude_self in (True, False):
            oracle = {t: brute_force_rank(table, t, lex, exclude_self) for t in table.vocabulary}
            for tokens in (table.vocabulary, table.vocabulary[::-1]):
                for informal in tokens:
                    held = pool.neighbors(informal, k, exclude_self)
                    assert held == rank_formal_neighbors(table, informal, lex, k, exclude_self)
                    assert [t for t, _ in held] == [t for t, _ in oracle[informal][:k]]
                    for (_, a), (_, b) in zip(held, oracle[informal]):
                        assert abs(a - b) <= 1e-12
        assert held_rescores
        assert arrays() == built

    def test_build_holds_one_pool_sized_array(self):
        # Beside the float64 pool the build holds the float32 rows it is cast
        # from, and sums each row's squares without storing them for the norms:
        # 1.53x the pool here, and 2.06x with a square of the whole pool.
        table = random_table(np.random.default_rng(8), 3 * BLOCK_LINES + 500, 64)
        lex = lexicon_of(*table.vocabulary)
        tracemalloc.start()
        try:
            pool = CandidatePool(table, lex)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pool.tokens) == len(table)
        assert peak < 1.75 * pool.pool.nbytes

    def test_neighbors_raises_as_the_wrapper_does(self):
        table = make_table({"ur": [1.0, 0.0], "your": [0.9, 0.1], "hole": [0.0, 0.0]})
        lex = lexicon_of("your")
        pool = CandidatePool(table, lex)
        cases = [
            ("ghost", 1, MissingTokenError), ("hole", 1, DegenerateVectorError),
            ("ur", 0, ValueError), ("ghost", 0, ValueError), ("hole", -1, ValueError),
            ("your", 1, ValueError),  # the pool is empty once "your" is excluded
        ]
        for informal, k, error in cases:
            with pytest.raises(error) as held:
                pool.neighbors(informal, k)
            with pytest.raises(error) as fresh:
                rank_formal_neighbors(table, informal, lex, k)
            assert type(held.value) is type(fresh.value)
            assert str(held.value) == str(fresh.value)
        assert pool.neighbors("ur", 1) == rank_formal_neighbors(table, "ur", lex, 1)


class TestReportRendering:
    def report(self):
        _, _, _, report = eval_forced([1, 3], 5, cutoffs=(1, 2), k=2)
        report.metadata.update(lexicon="lex.txt", embeddings="emb.vec")
        return report

    def test_text_header(self):
        text = report_text(self.report())
        lines = text.splitlines()
        assert lines[0] == "spelling-variant evaluation report"
        assert "k: 2" in lines
        assert "cutoffs: 1,2" in lines
        assert "exclude_self: true" in lines
        assert "lexicon: lex.txt" in lines
        assert "embeddings: emb.vec" in lines
        assert "formal_candidates: 5" in lines
        assert "pairs: 2" in lines
        assert "scored: 2" in lines
        assert "accuracy@1: 0.500000 (1/2)" in lines
        assert "accuracy@2: 0.500000 (1/2)" in lines
        assert "informal\tformal\tstatus\trank\ttop_neighbors" in lines

    def test_text_bytes_with_and_without_input_names(self):
        # Pinned from the renderer that kept the input names in fields of
        # their own: the header keeps every line's bytes and place.
        table, lex, pairs, _ = eval_forced([1, 3], 5)
        pairs += [pair("ghost", "w000", "e8"), pair("inf0", "w009", "e9")]
        report = evaluate_pairs(table, pairs, lex, EvalConfig(k=2, cutoffs=(1, 2)))
        head = "spelling-variant evaluation report\nk: 2\ncutoffs: 1,2\nexclude_self: true\n"
        folding = (
            "lexicon_folding: lowercase\ncorpus_tokenization: lowercased, whitespace-split, "
            "outer non-alphanumerics stripped\n"
        )
        tail = (
            "formal_candidates: 5\npairs: 4\nscored: 2\nmissing_informal: 1\n"
            "missing_formal: 1\naccuracy@1: 0.500000 (1/2)\naccuracy@2: 0.500000 (1/2)\n\n"
            "informal\tformal\tstatus\trank\ttop_neighbors\n"
            "inf0\tw000\tscored\t1\tw000:0.500000,w001:0.490000\n"
            "inf1\tw001\tscored\t3\tw000:0.500000,w002:0.490000\n"
            "ghost\tw000\tinformal_missing\t-\t\n"
            "inf0\tw009\tformal_missing\t-\t\n"
        )
        assert report_text(report) == head + "lexicon: \nembeddings: \n" + folding + tail
        report.metadata.update(lexicon="lex.txt", embeddings="emb.vec", pairs_file="pairs.tsv",
                               embedding_format="plain", pairs_removed_by_lexicon="1")
        named = (
            "lexicon: lex.txt\nembeddings: emb.vec\n" + folding
            + "pairs_file: pairs.tsv\nembedding_format: plain\npairs_removed_by_lexicon: 1\n"
        )
        assert report_text(report) == head + named + tail

    def test_text_rows_match_tsv(self):
        report = self.report()
        text = report_text(report)
        tsv = render_report_tsv(report)
        assert text.endswith(tsv)
        assert len(tsv.splitlines()) == 2

    def test_missing_row_uses_dash(self):
        table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        report = evaluate_pairs(table, [pair("ghost", "b")], lexicon_of("b"), EvalConfig())
        row = render_report_tsv(report).rstrip("\n")
        assert row == "ghost\tb\tinformal_missing\t-\t"

    def test_write_report_both_sinks(self):
        report = self.report()
        text_sink, tsv_sink = io.BytesIO(), io.BytesIO()
        write_report(report, text_sink, tsv_sink)
        text = evaluate._report_header(report) + render_report_tsv(report)
        assert text_sink.getvalue().decode() == text
        assert tsv_sink.getvalue().decode() == render_report_tsv(report)

    def test_non_utf8_neighbor_token_is_written_and_read_back(self, tmp_path):
        table = normalize(load_embeddings(b"ur 1 0\nyour 0.9 0.1\nbab\xffylon 0.5 0.5\n"))
        lexicon = lexicon_of("your", "bab\udcffylon")
        report = evaluate_pairs(table, [pair("ur", "your")], lexicon, EvalConfig(k=2))
        text_path, tsv_path = tmp_path / "run.report", tmp_path / "run.report.tsv"
        text_path.write_bytes(b"old report\n")
        write_report(report, text_path, tsv_path)
        assert b"bab\xffylon:0.7" in text_path.read_bytes()
        [row] = load_report_rows(tsv_path)
        assert [t for t, _ in row.top_neighbors] == ["your", "bab\udcffylon"]

    def test_rendering_failure_writes_neither_file(self, tmp_path):
        report = self.report()
        report.per_pair.append(
            PairResult(pair("x", "y"), PairStatus.SCORED, 1, [("y", "not a number")])
        )
        text_path, tsv_path = tmp_path / "run.report", tmp_path / "run.report.tsv"
        text_path.write_bytes(b"old report\n")
        tsv_path.write_bytes(b"old tsv\n")
        with pytest.raises(ValueError):
            write_report(report, text_path, tsv_path)
        assert text_path.read_bytes() == b"old report\n"
        assert tsv_path.read_bytes() == b"old tsv\n"
        assert sorted(os.listdir(tmp_path)) == ["run.report", "run.report.tsv"]

    @given(st.lists(TOKEN_BYTES, min_size=1, max_size=8, unique=True), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_tokens_round_trip_through_a_report_file(self, tmp_path_factory, raw, seed):
        rng = np.random.default_rng(seed)
        lines = [
            b" ".join([token] + [repr(float(v)).encode() for v in rng.normal(size=3)])
            for token in raw + [b"target"]
        ]
        table = normalize(load_embeddings(b"\n".join(lines) + b"\n"))
        informal = table.vocabulary[0]
        assume(informal.lower() != "target")
        lexicon = FormalLexicon(frozenset(t.lower() for t in table.vocabulary))
        config = EvalConfig(k=len(table.vocabulary))
        report = evaluate_pairs(table, [pair(informal, "target")], lexicon, config)
        base = tmp_path_factory.getbasetemp()
        write_report(report, base / "prop.report", base / "prop.report.tsv")
        [row] = load_report_rows(base / "prop.report.tsv")
        [result] = report.per_pair
        assert (row.pair.informal, row.pair.formal, row.rank) == (informal, "target", result.rank)
        assert [t for t, _ in row.top_neighbors] == [t for t, _ in result.top_neighbors]
        expected = [float(f"{s:.6f}") for _, s in result.top_neighbors]
        assert [s for _, s in row.top_neighbors] == expected

    def test_round_trip_through_tsv(self):
        report = self.report()
        rows = load_report_rows(render_report_tsv(report).encode())
        assert len(rows) == 2
        for row, result in zip(rows, report.per_pair):
            assert row.pair.informal == result.pair.informal
            assert row.pair.formal == result.pair.formal
            assert row.status is result.status
            assert row.rank == result.rank
            assert [t for t, _ in row.top_neighbors] == [
                t for t, _ in result.top_neighbors
            ]
            for (_, a), (_, b) in zip(row.top_neighbors, result.top_neighbors):
                assert a == pytest.approx(b, abs=5e-7)  # %.6f quantization

    def test_a_row_opening_with_u_feff_round_trips_through_tsv(self):
        # The first row's U+FEFF, in its informal token and in a neighbour, is
        # written \z, so the file does not open with a byte-order mark.
        tsv = (b"\\zur\tyour\tscored\t1\tyour:0.993884,\\zthe:0.100000\n"
               b"u\\z\tyou\tinformal_missing\t-\t\n")
        rows = load_report_rows(tsv)
        assert [r.pair.informal for r in rows] == ["\ufeffur", "u\ufeff"]
        assert [t for t, _ in rows[0].top_neighbors] == ["your", "\ufeffthe"]
        assert render_report_tsv(EvalReport(rows, EvalConfig())).encode() == tsv

    def test_summarize_rows_matches_report(self):
        table, lex, pairs, _ = eval_forced([1, 3], 5)
        pairs += [pair("ghost", "w000", "e8"), pair("inf0", "w009", "e9")]
        report = evaluate_pairs(table, pairs, lex, EvalConfig(k=2, cutoffs=(1, 2)))
        rows = load_report_rows(render_report_tsv(report).encode())
        expected = (
            {PairStatus.SCORED: 2, PairStatus.INFORMAL_MISSING: 1, PairStatus.FORMAL_MISSING: 1},
            {1: 1, 2: 1},
        )
        assert summarize_rows(report.per_pair, report.config.cutoffs) == expected
        assert summarize_rows(rows, report.config.cutoffs) == expected

        # 70/620 and 146/620 have no exact binary form; the report header,
        # the stdout summary and the reloaded rows must still show the hit
        # counts evaluate_pairs found.
        angles = {f"f{j:02d}": 0.05 * (j + 1) for j in range(21)}  # f00 nearest q
        formal = {t: [np.cos(a), np.sin(a)] for t, a in angles.items()}
        table = normalize(make_table({"q": [1.0, 0.0], **formal}))
        targets = ["f00"] * 70 + [f"f{1 + i % 19:02d}" for i in range(76)] + ["f20"] * 474
        pairs = [pair("q", t, entry_id=f"e{n}") for n, t in enumerate(targets)]
        report = evaluate_pairs(table, pairs, lexicon_of(*formal), EvalConfig(cutoffs=(1, 20)))
        assert tally(report) == (620, {1: 70, 20: 146})

        header = [l for l in report_text(report).splitlines() if l.startswith("accuracy@")]
        assert header == ["accuracy@1: 0.112903 (70/620)", "accuracy@20: 0.235484 (146/620)"]
        scored, hits = tally(report)
        summary = accuracy_summary(hits, scored)
        assert summary == ["accuracy@1 = 0.113 (70/620)", "accuracy@20 = 0.235 (146/620)"]
        rows = load_report_rows(render_report_tsv(report).encode())
        counts, hits = summarize_rows(rows, (1, 20))
        assert (counts, hits) == ({PairStatus.SCORED: 620}, {1: 70, 20: 146})
        assert accuracy_summary(hits, counts[PairStatus.SCORED]) == summary

    def test_summarize_rows_empty(self):
        assert summarize_rows([], (1, 5)) == (Counter(), {})


class TestLoadReportRows:
    GOOD = b"ur\tyour\tscored\t1\tyour:0.993884,babylon:0.000000\n"

    @pytest.mark.parametrize("status", list(PairStatus))
    def test_each_status_is_the_text_its_field_holds(self, status):
        scored = status is PairStatus.SCORED
        row = PairResult(ReportPair("ur", "your"), status, 1 if scored else None,
                         [("your", 0.5)] if scored else [])
        tsv_sink = io.BytesIO()
        write_report(EvalReport([row], EvalConfig()), io.BytesIO(), tsv_sink)
        assert tsv_sink.getvalue().decode().split("\t")[2] == status.value
        [read] = load_report_rows(tsv_sink.getvalue())
        assert read.status is status and status == status.value

    def test_parses(self):
        rows = load_report_rows(self.GOOD)
        assert rows[0].rank == 1
        assert rows[0].top_neighbors == [("your", 0.993884), ("babylon", 0.0)]

    def test_rows_are_the_results_evaluate_pairs_reports(self):
        # A line records no entry id or delimiter, so its pair is a ReportPair;
        # the rows render back to the same bytes as evaluate_pairs' results.
        tsv = self.GOOD + b"ghost\tx\tinformal_missing\t-\t\n"
        rows = load_report_rows(tsv)
        assert rows == [
            PairResult(ReportPair("ur", "your"), PairStatus.SCORED, 1,
                       [("your", 0.993884), ("babylon", 0.0)]),
            PairResult(ReportPair("ghost", "x"), PairStatus.INFORMAL_MISSING, None, []),
        ]
        assert render_report_tsv(EvalReport(rows, EvalConfig())).encode() == tsv

    def test_neighbor_token_may_contain_colon(self):
        rows = load_report_rows(b"a\tb\tscored\t2\tx:y:0.500000\n")
        assert rows[0].top_neighbors == [("x:y", 0.5)]

    def test_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            load_report_rows(b"ur\tyour\tscored\t1\n")

    def test_unknown_status(self):
        with pytest.raises(ParseError, match="status"):
            load_report_rows(b"ur\tyour\tperfect\t1\t\n")

    def test_rank_presence_must_match_status(self):
        with pytest.raises(ParseError, match="rank"):
            load_report_rows(b"ur\tyour\tscored\t-\t\n")
        with pytest.raises(ParseError, match="rank"):
            load_report_rows(b"ur\tyour\tformal_missing\t3\t\n")

    @pytest.mark.parametrize("line", [
        b"ur\tyour\tinformal_missing\t-\ta:0.500000\n",
        b"ur\tyour\tformal_missing\t-\ta:0.500000\n",
        b"ur\tyour\tscored\t1\t\n",
    ], ids=["informal_missing", "formal_missing", "scored"])
    def test_neighbors_present_exactly_for_scored_rows(self, line):
        # The writer lists neighbours only for a scored row, and a scored row
        # always has at least one: the candidate pool is never empty.
        with pytest.raises(ParseError) as raised:
            load_report_rows(self.GOOD + line)
        assert str(raised.value) == "line 2: neighbors must be present exactly for scored rows"

    def test_bad_rank(self):
        for rank in ("first", "1_0", " 1", "+1", "05", "\u0665"):
            with pytest.raises(ParseError) as raised:
                load_report_rows(f"ur\tyour\tscored\t{rank}\t\n".encode())
            assert str(raised.value) == f"line 1: non-integer rank {rank!r}"
        with pytest.raises(ParseError, match="^line 1: rank must be >= 1, got 0$"):
            load_report_rows(b"ur\tyour\tscored\t0\t\n")

    def test_malformed_neighbor(self):
        with pytest.raises(ParseError, match="neighbor"):
            load_report_rows(b"ur\tyour\tscored\t1\tyour\n")

    @pytest.mark.parametrize("neighbors", [
        "a:0.1,,b:0.2", "a:0.1,", ",a:0.1", "a:x", "a,b:0.1", "0.5", "a:nan", "a:inf", "a:-inf",
        "a:0.100000,,b:0.200000", "a:0.100000,",
        ":0.500000", "a:1_0.5", "a:0.5", "a:+0.500000", "a: 0.500000",
    ])
    def test_malformed_neighbor_lists(self, neighbors):
        with pytest.raises(ParseError, match="malformed neighbor"):
            load_report_rows(f"ur\tyour\tscored\t1\t{neighbors}\n".encode())

    @pytest.mark.parametrize(
        "token", ["a,b", "a\tb", "a\\b", "a\\cb", "x:0.500000,y", "a\nb\rc"],
        ids=["comma", "tab", "backslash", "escape-lookalike", "list-lookalike", "newlines"],
    )
    def test_neighbor_token_round_trips(self, token):
        table = normalize(make_table({"ur": [1.0, 0.0], "your": [0.9, 0.1], token: [0.5, 0.5]}))
        report = evaluate_pairs(table, [pair("ur", "your")], lexicon_of("your", token), EvalConfig(k=2))
        [row] = load_report_rows(render_report_tsv(report).encode())
        assert [t for t, _ in row.top_neighbors] == ["your", token]
        assert len(render_report_tsv(report).splitlines()) == 1


class TestAccuracySummary:
    def test_fraction_rendering(self):
        lines = accuracy_summary({1: 70, 20: 146}, 620)
        assert lines == [
            "accuracy@1 = 0.113 (70/620)",
            "accuracy@20 = 0.235 (146/620)",
        ]


class TestDiagnostics:
    def rows(self, ranks):
        return [
            PairResult(ReportPair(f"inf{i}", f"w{i:03d}"), PairStatus.SCORED, r,
                       [(f"n{i}", 0.25)])
            for i, r in enumerate(ranks)
        ]

    def test_orders_by_descending_rank(self):
        text = diagnostics_rows(self.rows([1, 40]), n_worst=2)
        lines = text.splitlines()
        assert lines[0] == "worst pairs by target rank:"
        assert "rank     40" in lines[1]
        assert "inf1 -> w001" in lines[1]
        assert "rank      1" in lines[2]

    def test_rank_ties_keep_input_order(self):
        text = diagnostics_rows(self.rows([5, 5, 1]), n_worst=3)
        lines = text.splitlines()[1:]
        assert "inf0" in lines[0]
        assert "inf1" in lines[1]

    def test_saturates_at_scored_count(self):
        text = diagnostics_rows(self.rows([2, 3]), n_worst=99)
        assert len(text.splitlines()) == 3

    def test_skips_unscored(self):
        rows = self.rows([4]) + [
            PairResult(ReportPair("ghost", "x"), PairStatus.INFORMAL_MISSING, None, [])
        ]
        text = diagnostics_rows(rows, n_worst=5)
        assert "ghost" not in text

    def test_top_five_neighbors_shown(self):
        row = PairResult(
            ReportPair("a", "b"), PairStatus.SCORED, 9,
            [(f"n{i}", 0.9 - 0.1 * i) for i in range(8)],
        )
        text = diagnostics_rows([row], n_worst=1)
        assert "n4:" in text
        assert "n5:" not in text

    def test_no_scored_pairs(self):
        text = diagnostics_rows([], n_worst=3)
        assert "(no scored pairs)" in text

    def test_bad_n_worst(self):
        with pytest.raises(ValueError):
            diagnostics_rows([], n_worst=0)

    def test_rows_of_an_evaluated_report(self):
        _, _, _, report = eval_forced([6, 2], 9, cutoffs=(1,), k=5)
        rows = load_report_rows(render_report_tsv(report).encode())
        text = diagnostics_rows(rows, n_worst=1)
        assert "inf0 -> w000" in text
        assert "rank      6" in text
