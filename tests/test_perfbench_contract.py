"""perfbench's tracer still finds every name it binds in the package.

``perfbench/tracing.py`` wraps library functions by name and reads their
arguments and results by name (``evaluate_pairs``' ``table``, ``lexicon``
and ``config``, ``per_pair[*].pair``, ``candidate_count``,
``FrequencyTable.total_tokens``). This runs the five commands under the
tracer on a tiny input and checks the per-layer metrics it reports.
"""

import importlib.util
import math
import resource
import time
from pathlib import Path

from spellvar import cli

_spec = importlib.util.spec_from_file_location(
    "tracing", Path(__file__).parent.parent / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


def test_every_layer_metric_is_reported(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("suxx sucks your the\nsuxx your the\n", encoding="utf-8")
    defs = tmp_path / "defs.tsv"
    defs.write_text('ud01\tsuxx\tA spelling of "sucks".\nud02\tyo\tno variant\n',
                    encoding="utf-8")
    emb = tmp_path / "emb.vec"
    emb.write_text("suxx 1 0.1\nsucks 0.9 0.2\nyour 0 1\nthe 0.5 0.5\n", encoding="utf-8")
    freq, lexicon, pairs, report = (str(tmp_path / name) for name in ("f", "l", "p", "r"))
    commands = [
        ["count-freq", "--corpus", str(corpus), "--freq", freq],
        ["build-vocab", "--corpus", str(corpus), "--lexicon", lexicon],
        ["extract", "--defs", str(defs), "--freq", freq, "--min-freq", "1", "--pairs", pairs],
        ["evaluate", "--pairs", pairs, "--lexicon", lexicon, "--embeddings", str(emb),
         "--report", report],
        ["report", "--report", report + ".tsv"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        windows = []
        for argv in commands:
            start = time.perf_counter()
            assert cli.main(argv) == 0, capsys.readouterr().err
            windows.append((start, time.perf_counter()))
    finally:
        tracer.uninstall()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = tracing.layer_metrics(tracer, windows, peak_kb)
    assert metrics.keys() == tracing.MOVES.keys()
    assert all(math.isfinite(value) for value in metrics.values())
    for name in ("evaluate.pool_size", "vocab.tokens_per_s", "extract.mine_pairs_s"):
        assert metrics[name] > 0, name
