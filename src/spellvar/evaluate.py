"""Rank-based scoring of embeddings on informal/formal variant pairs.

For each (informal, formal) pair the candidate pool is the intersection
of the formal lexicon with the embedding vocabulary (zero vectors left
out). Candidates are ordered by cosine similarity to the informal token,
ties broken by ascending token order, and the pair scores the 1-based
rank of its formal target in that full ordering. accuracy@k is the share
of scored pairs whose target landed in the top k.

Restricting the pool to the lexicon is what keeps the metric stable when
the embedding vocabulary grows by more informal tokens: additions outside
the lexicon cannot enter any ranking.

A score is ``embeddings.cosine`` of the two float32 rows. One engine,
``CandidatePool``, serves ``evaluate_pairs``, ``rank_formal_neighbors`` and any
caller who holds one. It filters queries in fixed blocks of one float64 product
each, scores near-ties and values whose ``_score_text`` could change within slack
again with ``cosine``, and counts ranks without sorting the pool. A pool never
changes once built, so a held pool answers a token the same whatever it was asked
before. ``brute_force_rank`` ranks one ``cosine`` at a time: the tests' oracle.
"""

from __future__ import annotations

import enum
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from ._fileio import (
    binary_writers, count_field, format_record, join_items, read_records, split_items, write_text,
)
from .embeddings import EmbeddingTable, cosine
from .errors import DegenerateVectorError, MissingTokenError
from .extract import VariantPair
from .vocab import TOKENIZATION_NOTE, FormalLexicon

DEFAULT_CUTOFFS = (1, 5, 10, 20)
# Queries per matrix product. A constant: it must not follow the thread count.
BLOCK = 32


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs.

    ``k`` bounds the neighbor list recorded per pair; ``cutoffs`` are the
    accuracy@c thresholds reported. The tie-break rule is fixed:
    descending similarity, then ascending token order.
    """

    k: int = 20
    cutoffs: tuple[int, ...] = DEFAULT_CUTOFFS
    exclude_self: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        check_cutoffs(self.cutoffs)


def check_cutoffs(cutoffs: tuple[int, ...]) -> tuple[int, ...]:
    """``cutoffs`` itself, if non-empty and strictly increasing positive
    integers; ValueError otherwise."""
    if not cutoffs:
        raise ValueError("cutoffs must be non-empty")
    if any(c < 1 for c in cutoffs) or any(a >= b for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be strictly increasing positive integers: {cutoffs}")
    return cutoffs


class PairStatus(str, enum.Enum):
    """A pair's outcome; a member is the ``str`` a report line holds."""
    SCORED = "scored"
    INFORMAL_MISSING = "informal_missing"
    FORMAL_MISSING = "formal_missing"


# The pair of a report line, which records no entry id or delimiter.
ReportPair = namedtuple("ReportPair", "informal formal")


@dataclass
class PairResult:
    pair: VariantPair | ReportPair
    status: PairStatus
    rank: int | None = None
    top_neighbors: list[tuple[str, float]] = field(default_factory=list)


@dataclass
class EvalReport:
    per_pair: list[PairResult]
    config: EvalConfig
    candidate_count: int = 0
    metadata: dict[str, str] = field(default_factory=dict)


def _score_text(score: float) -> str:
    """A score as the report and the diagnostics print it."""
    return f"{score:.6f}"


class CandidatePool:
    """The candidate pool of one table and lexicon, and the one ranking engine.

    Built once, it holds the pool (lexicon tokens with nonzero vectors, in token order) as one
    float64 matrix with per-row norms, and never changes: a held pool answers a token the same
    whatever it was asked before. Each ``search`` adds one BLOCK × pool float64 product, scores
    ``(C·q) / (|C|·|q|)`` clipped to [-1, 1] and ``rescore``s near-ties and ``_score_text`` edges.
    """

    def __init__(self, table: EmbeddingTable, lexicon: FormalLexicon):
        self.table = table
        live = zip(table.vocabulary, table.degenerate.tolist())
        self.tokens: list[str] = sorted(t for t, zero in live if not zero and t in lexicon)
        self.pool = table.matrix[[table.index[t] for t in self.tokens]].astype(np.float64)
        self.norms = np.sqrt(np.einsum("ij,ij->i", self.pool, self.pool))  # no pool-sized square
        # Higham (2002), §3.1: a length-d float64 dot product, summed in any
        # order, errs by at most γ_d·|c|·|q|, γ_n = n·u / (1 - n·u), u = 2**-53.
        # With the norms' γ_d each and one rounding in each division (by |q|,
        # then by |c|), a product score is within γ_{3d+2} of the exact cosine;
        # `cosine` is within γ_7. So scores more than slack = 2·γ_{3d+9} apart,
        # or farther than it from a rounding edge, order and print as `cosine`'s do.
        n = 3 * table.dimension + 9
        self.slack = 2 * n * 2.0**-53 / (1 - n * 2.0**-53)
        self.position = {t: i for i, t in enumerate(self.tokens)}

    def search(
        self, queries: list[tuple[str, str | None]], k: int, exclude_self: bool
    ) -> Iterator[tuple[list[tuple[str, float]], int | None]]:
        """``(top k, target rank)`` per ``(informal, target)``; an informal token
        ``query_row`` rejects raises its error, and the target is a pool token
        other than it, or None. Rank = 1 + #(higher scores) + #(equal scores at
        earlier tokens); the top k are the k best by (-score, token)."""
        padded, product = np.zeros((BLOCK, self.pool.shape[1])), np.empty((BLOCK, len(self.pool)))
        for start in range(0, len(queries), BLOCK):
            block = queries[start : start + BLOCK]
            b = len(block)
            padded[:b] = self.table.matrix[[self.table.query_row(q) for q, _ in block]]
            # BLAS rounds a dot product differently in another product shape;
            # a fixed one keeps each query's scores independent of its block.
            cos = np.matmul(padded, self.pool.T, out=product)[:b]
            cos /= np.linalg.norm(padded[:b], axis=1)[:, None]
            cos /= self.norms
            np.clip(cos, -1.0, 1.0, out=cos)
            # Each row holds one query's product scores, replaced where scored again.
            for s, q, (informal, target) in zip(cos, padded, block):
                p = self.position.get(informal) if exclude_self else None
                if p is not None:
                    s[p] = -np.inf  # never in the top k: n counts finite scores
                n = min(k, len(s) - (p is not None))
                if n == 0:
                    raise ValueError("empty candidate set")
                top = np.flatnonzero(s >= np.partition(s, len(s) - n)[len(s) - n] - self.slack)
                top = top[np.lexsort((top, -s[top]))]
                tied = np.diff(s[top]) >= -self.slack
                # Rounding to text is monotone and `cosine` lies within slack of v.
                edge = [_score_text(v - self.slack) != _score_text(v + self.slack)
                        for v in s[top].tolist()]
                again = top[np.r_[tied, False] | np.r_[False, tied] | edge]
                if target is not None:
                    t = self.position[target]
                    band = np.flatnonzero(np.abs(s - s[t]) <= self.slack)
                    again = np.union1d(again, band) if len(band) > 1 else again
                if len(again):
                    s[again] = self.rescore(again, q)
                top = top[np.lexsort((top, -s[top]))][:n]
                # Out of the band a row keeps its side of s[t]: rescoring moves a score <= slack/2.
                rank = None if target is None else (
                    1 + np.count_nonzero(s > s[t]) + np.count_nonzero(s[:t] == s[t]))
                yield [(self.tokens[i], float(s[i])) for i in top], rank

    def rescore(self, rows: np.ndarray, q: np.ndarray) -> list[float]:
        """``cosine(self.pool[i], q)`` for each row i that ``search`` scores again."""
        return [cosine(self.pool[i], q) for i in rows.tolist()]

    def neighbors(self, informal: str, k: int, exclude_self=True) -> list[tuple[str, float]]:
        """The k pool tokens most similar to ``informal``, best first (fewer only when
        the pool is smaller); ValueError for k < 1 or an empty pool, else ``query_row``'s."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return next(self.search([(informal, None)], k, exclude_self))[0]


def rank_formal_neighbors(
    table: EmbeddingTable,
    informal: str,
    lexicon: FormalLexicon,
    k: int,
    exclude_self: bool = True,
) -> list[tuple[str, float]]:
    """A fresh pool's ``neighbors``: its results and errors, so a refused call costs one build."""
    return CandidatePool(table, lexicon).neighbors(informal, k, exclude_self)


def brute_force_rank(
    table: EmbeddingTable,
    informal: str,
    lexicon: FormalLexicon,
    exclude_self: bool = True,
) -> list[tuple[str, float]]:
    """Oracle twin of rank_formal_neighbors: full ranking, one cosine at
    a time, no batching, no shared state."""
    query = table.matrix[table.query_row(informal)]
    scored = []
    for i, token in enumerate(table.vocabulary):
        if token not in lexicon or table.degenerate[i]:
            continue
        if exclude_self and token == informal:
            continue
        scored.append((token, cosine(query, table.matrix[i])))
    if not scored:
        raise ValueError("empty candidate set")
    return sorted(scored, key=lambda ts: (-ts[1], ts[0]))


def evaluate_pairs(
    table: EmbeddingTable,
    pairs: list[VariantPair],
    lexicon: FormalLexicon,
    config: EvalConfig,
) -> EvalReport:
    """Score every pair; ``summarize_rows`` counts the results.

    Pair statuses: informal_missing when ``table.query_row`` rejects the
    informal token (absent, or a zero vector), formal_missing when the
    target is outside lexicon-and-vocabulary, else scored with the
    target's rank in the full restricted ordering. Only scored pairs
    enter the accuracy denominator.
    """
    pool = CandidatePool(table, lexicon)
    results = []
    for pair in pairs:
        status = PairStatus.SCORED if pair.formal in pool.position else PairStatus.FORMAL_MISSING
        try:
            table.query_row(pair.informal)
        except (MissingTokenError, DegenerateVectorError):
            status = PairStatus.INFORMAL_MISSING
        results.append(PairResult(pair, status))
    scored = [r for r in results if r.status is PairStatus.SCORED]
    queries = [(r.pair.informal, r.pair.formal) for r in scored]
    for r, (top, rank) in zip(scored, pool.search(queries, config.k, config.exclude_self)):
        r.top_neighbors, r.rank = top, rank
    return EvalReport(
        per_pair=results,
        config=config,
        candidate_count=len(pool.tokens),
        metadata={"lexicon": "", "embeddings": "", "lexicon_folding": "lowercase",
                  "corpus_tokenization": TOKENIZATION_NOTE},
    )


def diagnostics_rows(rows: list[PairResult], n_worst: int) -> str:
    """The worst-ranked scored report rows, each with its nearest formal tokens.

    Rows are listed by descending rank; ties keep input order.
    """
    if n_worst < 1:
        raise ValueError(f"n_worst must be >= 1, got {n_worst}")
    scored = sorted((r for r in rows if r.status is PairStatus.SCORED), key=lambda r: -r.rank)
    lines = ["worst pairs by target rank:"]
    for r in scored[:n_worst]:
        near = ", ".join(f"{t}:{_score_text(s)}" for t, s in r.top_neighbors[:5])
        lines.append(
            f"  rank {r.rank:>6d}  {r.pair.informal} -> {r.pair.formal}  nearest: {near}"
        )
    if not scored:
        lines.append("  (no scored pairs)")
    return "\n".join(lines) + "\n"


# --- report serialization -------------------------------------------------


def accuracy_summary(hits_at: dict[int, int], scored_count: int) -> list[str]:
    """``accuracy@c = 0.xxx (n/m)`` lines, one per cutoff."""
    return [
        f"accuracy@{c} = {h / scored_count:.3f} ({h}/{scored_count})"
        for c, h in sorted(hits_at.items())
    ]


def _result_fields(r: PairResult) -> tuple[str, ...]:
    rank = "-" if r.rank is None else str(r.rank)
    neighbors = join_items([f"{t}:{_score_text(s)}" for t, s in r.top_neighbors])
    return r.pair.informal, r.pair.formal, r.status, rank, neighbors


def _report_header(report: EvalReport) -> str:
    """The text report's key:value header and its table's column line."""
    cfg = report.config
    counts, hits_at = summarize_rows(report.per_pair, cfg.cutoffs)
    n = counts[PairStatus.SCORED]
    lines = [
        "spelling-variant evaluation report",
        f"k: {cfg.k}",
        f"cutoffs: {','.join(str(c) for c in cfg.cutoffs)}",
        f"exclude_self: {str(cfg.exclude_self).lower()}",
    ]
    lines += [f"{key}: {value}" for key, value in report.metadata.items()]
    lines += [
        f"formal_candidates: {report.candidate_count}",
        f"pairs: {len(report.per_pair)}",
        f"scored: {n}",
        f"missing_informal: {counts[PairStatus.INFORMAL_MISSING]}",
        f"missing_formal: {counts[PairStatus.FORMAL_MISSING]}",
    ]
    if not n:
        lines.append("warning: no scored pairs, accuracy undefined")
    for c, h in sorted(hits_at.items()):
        lines.append(f"accuracy@{c}: {h / n:.6f} ({h}/{n})")
    lines.append("")
    lines.append("informal\tformal\tstatus\trank\ttop_neighbors")
    return "\n".join(lines) + "\n"


def render_report_tsv(report: EvalReport) -> str:
    """Machine form: informal TAB formal TAB status TAB rank TAB neighbors."""
    return "".join(format_record(_result_fields(r)) for r in report.per_pair)


def write_report(report: EvalReport, text_sink, tsv_sink) -> None:
    """Render the header and the TSV once, before opening either sink; the
    text form is the header then the TSV. Replace neither unless both are written."""
    header, tsv = _report_header(report), render_report_tsv(report)
    with binary_writers(text_sink, tsv_sink) as (text_stream, tsv_stream):
        write_text(text_stream, header + tsv)
        write_text(tsv_stream, tsv)


def _report_row(informal, formal, status_text, rank_text, neighbor_text) -> PairResult:
    try:
        status = PairStatus(status_text)
    except ValueError:
        raise ValueError(f"unknown status {status_text!r}") from None
    rank = None if rank_text == "-" else count_field(rank_text, "rank")
    if (rank is None) == (status is PairStatus.SCORED):
        raise ValueError("rank must be present exactly for scored rows")
    if (not neighbor_text) == (status is PairStatus.SCORED):
        raise ValueError("neighbors must be present exactly for scored rows")
    neighbors: list[tuple[str, float]] = []
    for item in split_items(neighbor_text):
        token, _, sim_text = item.rpartition(":")
        try:  # as written: a token, and a finite score as `_score_text` prints it
            score = float(sim_text)
            if not token or _score_text(score) != sim_text or not math.isfinite(score):
                raise ValueError
        except ValueError:
            raise ValueError(f"malformed neighbor {item!r}") from None
        neighbors.append((token, score))
    return PairResult(ReportPair(informal, formal), status, rank, neighbors)


def load_report_rows(source) -> list[PairResult]:
    """The machine-readable report's lines as ``PairResult`` rows; a bad line is its ParseError."""
    return list(read_records(source, 5, _report_row))


def summarize_rows(rows: list, cutoffs: Iterable[int]) -> tuple[Counter, dict[int, int]]:
    """The one tally of report rows: ``(rows per status, hits_at)``, ``hits_at[c]``
    the scored rows ranked c or better (``{}`` if none)."""
    ranks = [r.rank for r in rows if r.status is PairStatus.SCORED]
    hits_at = {c: sum(rank <= c for rank in ranks) for c in cutoffs} if ranks else {}
    return Counter(r.status for r in rows), hits_at
