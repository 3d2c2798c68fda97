"""Spans around spellvar's public functions, installed from outside the package.

The tracer replaces each target function with a wrapper in every spellvar
module that binds it, so calls through ``spellvar.cli`` (which imports
``load_embeddings`` and ``normalize`` by name) are caught as well as calls
through the defining module. Functions called once per item
(``extract_candidate``, ``tokenize``, ``cosine``) are left alone: wrapping
them would time the wrapper.

``layer_metrics`` turns one iteration's spans into the per-layer numbers.
A layer's time is its self time: its spans' durations minus the wrapped
calls nested in them. ``MOVES`` records which end-to-end figure each
per-layer metric should move, on which workload.
"""

from __future__ import annotations

import importlib
import inspect
import os
import statistics
import sys
import threading
import time

TARGETS = {
    "extract": ("read_definitions", "mine_pairs", "apply_filters", "write_pairs", "read_pairs"),
    "vocab": ("load_frequencies", "count_frequencies", "build_lexicon",
              "write_frequencies", "write_lexicon", "load_lexicon"),
    "embeddings": ("load_embeddings", "normalize"),
    "evaluate": ("evaluate_pairs", "write_report", "load_report_rows"),
}

# Per-layer metric -> what it should move. Layers idle on a workload read 0
# there, and the prediction for them is no change.
MOVES = {
    "extract.read_definitions_s": "extract_s, defs_per_s, peak_rss_mb on mine",
    "extract.mine_pairs_s": "extract_s, defs_per_s on mine (self time, filters excluded)",
    "extract.apply_filters_s": "extract_s, defs_per_s on mine",
    "extract.write_pairs_s": "extract_s on mine",
    "extract.read_pairs_s": "evaluate_s on score",
    "extract.hits_per_def": "defs_per_s on mine (count, set by the input)",
    "extract.kept_per_candidate": "extract_s on mine (count, set by the input)",
    "vocab.load_frequencies_s": "extract_s on mine",
    "vocab.count_frequencies_s": "count_freq_s on mine (includes the lazy read and tokenize)",
    "vocab.build_lexicon_s": "build_vocab_s on mine (includes the lazy read and tokenize)",
    "vocab.write_frequencies_s": "count_freq_s on mine",
    "vocab.write_lexicon_s": "build_vocab_s on mine",
    "vocab.tokens_per_s": "count_freq_s, build_vocab_s on mine",
    "vocab.load_lexicon_s": "negligible on score",
    "embeddings.load_embeddings_s": "evaluate_s on score (about a quarter of it)",
    "embeddings.normalize_s": "evaluate_s on score",
    "embeddings.parse_mb_per_s": "evaluate_s on score (MB of table text per second of load_embeddings)",
    "embeddings.rss_per_matrix": "peak_rss_mb on score (peak RSS / float32 matrix bytes)",
    "evaluate.pool_build_s": "evaluate.rank_formal_neighbors_ms (most of it); negligible on score",
    "evaluate.evaluate_pairs_s": "evaluate_s, pairs_per_s on score",
    "evaluate.rank_s": "evaluate_s, pairs_per_s on score (evaluate_pairs_s minus pool_build_s)",
    "evaluate.gflops": "pairs_per_s on score (computed: 2*scored*pool*dim/rank_s)",
    "evaluate.pool_size": "count, set by the input",
    "evaluate.self_excluded": "count, set by the input",
    "evaluate.scored_per_pair": "count, set by the input",
    "evaluate.rank_formal_neighbors_ms": "none end to end: the library's per-query path, timed after the CLI commands, outside wall_s",
    "evaluate.write_report_s": "wall_s, evaluate_s on score",
    "evaluate.load_report_rows_s": "wall_s on score",
    "cli.self_s": "wall_s on mine, score (argument and config parsing, stats files, printing)",
    "trace.overhead_s": "none: traced wall_s minus untraced wall_s",
}

POOL_BUILD_REPEATS = 3
RANK_QUERIES = 20  # scored informal tokens timed through rank_formal_neighbors


class Span:
    __slots__ = ("label", "start", "end", "child", "parent", "args", "kwargs", "result")

    def __init__(self, label, parent):
        self.label = label
        self.parent = parent
        self.child = 0.0
        self.args = self.kwargs = self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


# Results the metrics need, reduced at span end so the tracer holds no large
# object (a held raw table would raise the traced peak RSS).
_CAPTURE = {
    "extract.mine_pairs": lambda a, k, r: (len(r[0]), r[1]),
    "vocab.count_frequencies": lambda a, k, r: r.total_tokens,
    "embeddings.load_embeddings": lambda a, k, r: r.matrix.shape,
}
_KEEP_ARGS = {"embeddings.load_embeddings", "evaluate.evaluate_pairs"}


class Tracer:
    """Records spans for calls made on the main thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._bindings: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "spellvar" or name.startswith("spellvar.")]
        for short, names in TARGETS.items():
            home = importlib.import_module(f"spellvar.{short}")
            for name in names:
                fn = getattr(home, name, None)
                if fn is None:
                    continue
                label = f"{short}.{name}"
                self.originals[label] = fn
                wrapper = self._wrap(label, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._bindings.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._bindings):
            setattr(module, attr, fn)
        self._bindings.clear()

    def _wrap(self, label, fn):
        spans, stack = self.spans, self._stack
        main = threading.main_thread()
        capture = _CAPTURE.get(label)
        keep = label in _KEEP_ARGS

        def traced(*args, **kwargs):
            if threading.current_thread() is not main:
                return fn(*args, **kwargs)
            span = Span(label, stack[-1] if stack else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                spans.append(span)
            if keep:
                span.args, span.kwargs = args, kwargs
            if capture is not None:
                span.result = capture(args, kwargs, result)
            elif keep:
                span.result = result
            return result

        traced.__wrapped__ = fn
        return traced

    def bound(self, span: Span) -> dict:
        sig = inspect.signature(self.originals[span.label])
        return sig.bind(*span.args, **span.kwargs).arguments


def _in_pool(table, lexicon, token) -> bool:
    i = table.index.get(token)
    return i is not None and not table.degenerate[i] and token in lexicon


def _pool_build(evaluate, table, lexicon, config) -> tuple[float, int]:
    """Median time of evaluate_pairs with no pairs: the candidate-pool build."""
    times, size = [], 0
    for _ in range(POOL_BUILD_REPEATS):
        t0 = time.perf_counter()
        report = evaluate.evaluate_pairs(table, [], lexicon, config)
        times.append(time.perf_counter() - t0)
        size = report.candidate_count
    return statistics.median(times), size


def _query_ms(evaluate, table, lexicon, config, tokens) -> float:
    """Median time of one rank_formal_neighbors call, in ms."""
    times = []
    for token in tokens:
        t0 = time.perf_counter()
        evaluate.rank_formal_neighbors(table, token, lexicon, config.k, config.exclude_self)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def layer_metrics(tracer: Tracer, windows, peak_rss_kb: int) -> dict[str, float]:
    """Per-layer numbers for one iteration; call after ``uninstall``.

    ``windows`` are the (start, end) times of the CLI commands, for
    ``cli.self_s``. The pool build and the per-query path are timed here,
    on the table and lexicon evaluate_pairs received.
    """
    from spellvar import evaluate

    m = dict.fromkeys(MOVES, 0.0)
    by_label: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_label.setdefault(span.label, []).append(span)
        key = span.label + "_s"
        if key in m:
            m[key] += span.self_time

    for start, end in windows:
        inside = sum(s.duration for s in tracer.spans
                     if s.parent is None and start <= s.start and s.end <= end)
        m["cli.self_s"] += (end - start) - inside

    for span in by_label.get("extract.mine_pairs", []):
        kept, stats = span.result
        m["extract.hits_per_def"] = stats.spelling_hits / max(stats.definitions_scanned, 1)
        m["extract.kept_per_candidate"] = kept / max(stats.candidates_extracted, 1)
    counted = by_label.get("vocab.count_frequencies", [])
    if counted:
        m["vocab.tokens_per_s"] = sum(s.result for s in counted) / sum(s.self_time for s in counted)

    for span in by_label.get("embeddings.load_embeddings", []):
        source = span.args[0]
        if isinstance(source, str):
            m["embeddings.parse_mb_per_s"] = os.path.getsize(source) / 1e6 / span.self_time
        rows, dim = span.result
        m["embeddings.rss_per_matrix"] = peak_rss_kb * 1024 / (rows * dim * 4)

    for span in by_label.get("evaluate.evaluate_pairs", []):
        args = tracer.bound(span)
        table, lexicon, config, report = args["table"], args["lexicon"], args["config"], span.result
        pool_s, pool_size = _pool_build(evaluate, table, lexicon, config)
        scored = [r.pair.informal for r in report.per_pair if r.status.value == "scored"]
        m["evaluate.pool_build_s"] = pool_s
        m["evaluate.pool_size"] = pool_size
        m["evaluate.rank_s"] = m["evaluate.evaluate_pairs_s"] - pool_s
        if m["evaluate.rank_s"] > 0:
            m["evaluate.gflops"] = 2 * len(scored) * pool_size * table.dimension / m["evaluate.rank_s"] / 1e9
        if config.exclude_self:
            m["evaluate.self_excluded"] = sum(_in_pool(table, lexicon, t) for t in scored)
        m["evaluate.scored_per_pair"] = len(scored) / max(len(report.per_pair), 1)
        if scored:
            sample = scored[:RANK_QUERIES]
            m["evaluate.rank_formal_neighbors_ms"] = _query_ms(evaluate, table, lexicon, config, sample)
    return m
