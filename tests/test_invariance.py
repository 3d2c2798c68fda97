"""The metric's invariants, run through ``cli.main``'s ``evaluate``.

The candidate pool is the lexicon's tokens that have a nonzero row in the
table. So the report, its ``.tsv`` and stdout do not change when the table's
rows are permuted, or when it gains rows for tokens in neither the lexicon nor
the pairs: such a row can enter no ranking and no pair's status. The claim
stops there. A row for a pair's absent informal token scores that pair, and a
row for a lexicon token absent from the table joins the pool and can move
ranks.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import pair
from spellvar.cli import main
from spellvar.evaluate import load_report_rows
from spellvar.extract import write_pairs
from spellvar.vocab import FormalLexicon, write_lexicon

FORMALS = ["your", "you", "the", "are", "see"]
INFORMALS = ["ur", "u", "teh", "r", "c"]  # none a lexicon token
# In neither the lexicon nor the pairs: a case twin of a lexicon token is not one.
EXTRAS = ["lol", "Your", "THE", "zz", "é"]
NEW = "0new"  # a lexicon token with no row, sorted before every other token
# Few values, so that scores often tie and the token order breaks the tie.
VECTOR = st.lists(st.sampled_from(["-1", "0", "0.5", "1", "2"]), min_size=3, max_size=3)
NONZERO = VECTOR.filter(lambda v: set(v) != {"0"})


@st.composite
def evaluate_inputs(draw):
    """A lexicon, pairs and table rows (``(token, values)``, distinct tokens, a
    zero row now and then) over FORMALS and INFORMALS."""
    lexicon = draw(st.lists(st.sampled_from(FORMALS), min_size=1, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(INFORMALS), st.sampled_from(FORMALS)),
                          min_size=1, max_size=8))
    tokens = draw(st.lists(st.sampled_from(FORMALS + INFORMALS), min_size=1, unique=True))
    return lexicon, pairs, [(token, draw(VECTOR)) for token in tokens]


@contextlib.contextmanager
def evaluator():
    """A function giving ``evaluate``'s exit code, report, ``.tsv`` and stdout on a
    lexicon, pairs and table rows. Each call writes its inputs to the same paths,
    which the report header names."""
    with tempfile.TemporaryDirectory() as tmp:
        lex, pairs_tsv, emb, out = (str(Path(tmp, name)) for name in ("l", "p", "e", "r"))

        def evaluate(lexicon, pairs, rows) -> tuple:
            write_lexicon(FormalLexicon(frozenset(lexicon)), lex)
            write_pairs([pair(i, f, f"e{n}") for n, (i, f) in enumerate(pairs)], pairs_tsv)
            Path(emb).write_text("".join(f"{t} {' '.join(v)}\n" for t, v in rows), "utf-8")
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(["evaluate", "--pairs", pairs_tsv, "--lexicon", lex,
                             "--embeddings", emb, "--report", out, "--cutoffs", "1,2,5"])
            return code, Path(out).read_bytes(), Path(out + ".tsv").read_bytes(), stdout.getvalue()

        yield evaluate


@seed(20261021)
@settings(max_examples=40, deadline=None)
@given(inputs=evaluate_inputs(), data=st.data())
def test_row_order_and_rows_outside_the_lexicon_and_pairs_change_nothing(inputs, data):
    lexicon, pairs, rows = inputs
    # Two added rows may share a token: that is one more duplicate warning on stderr.
    extras = data.draw(st.lists(st.tuples(st.sampled_from(EXTRAS), VECTOR), min_size=1))
    with evaluator() as evaluate:
        base = evaluate(lexicon, pairs, rows)
        assert base[0] == 0
        assert evaluate(lexicon, pairs, rows + extras) == base
        assert evaluate(lexicon, pairs, data.draw(st.permutations(rows))) == base
        assert evaluate(lexicon, pairs, data.draw(st.permutations(rows + extras))) == base


@seed(20261022)
@settings(max_examples=20, deadline=None)
@given(inputs=evaluate_inputs(), vector=NONZERO, data=st.data())
def test_a_row_for_an_absent_informal_token_scores_its_pairs(inputs, vector, data):
    lexicon, pairs, rows = inputs
    informal, formal = data.draw(st.sampled_from(pairs).filter(lambda p: p[1] in lexicon))
    # The pair's formal token is in the pool, and its informal token has no row.
    rows = [(t, v) for t, v in rows if t not in (informal, formal)] + [(formal, vector)]
    with evaluator() as evaluate:
        before = load_report_rows(evaluate(lexicon, pairs, rows)[2])
        after = load_report_rows(evaluate(lexicon, pairs, rows + [(informal, vector)])[2])
    assert len(before) == len(after)
    for old, new in zip(before, after):
        if old.pair.informal != informal:
            assert new == old
        else:
            assert old.status.value == "informal_missing"
            assert new.status.value != "informal_missing"
    assert any(r.pair == (informal, formal) and r.status.value == "scored" for r in after)


@seed(20261023)
@settings(max_examples=20, deadline=None)
@given(inputs=evaluate_inputs(), vector=NONZERO, data=st.data())
def test_a_row_for_a_lexicon_token_joins_the_pool_and_can_move_ranks(inputs, vector, data):
    lexicon, pairs, rows = inputs
    informal, formal = data.draw(st.sampled_from(pairs).filter(lambda p: p[1] in lexicon))
    rows = [(t, v) for t, v in rows if t not in (informal, formal)]
    rows += [(informal, vector), (formal, data.draw(NONZERO))]
    lexicon = lexicon + [NEW]
    with evaluator() as evaluate:
        before = evaluate(lexicon, pairs, rows)
        # The new token points where the informal token does: it scores the highest
        # cosine there is, and it wins a tie by token order.
        after = evaluate(lexicon, pairs, rows + [(NEW, vector)])

    def candidates(run) -> int:
        [line] = [l for l in run[1].decode().splitlines() if l.startswith("formal_candidates: ")]
        return int(line.split()[1])

    assert candidates(after) == candidates(before) + 1
    for old, new in zip(load_report_rows(before[2]), load_report_rows(after[2])):
        assert (new.pair, new.status) == (old.pair, old.status)
        if old.status.value == "scored":
            assert new.rank - old.rank in (0, 1)
            if old.pair.informal == informal:
                assert new.rank == old.rank + 1
                assert new.top_neighbors[0][0] == NEW
