"""Command-line pipeline: extract, build-vocab, count-freq, evaluate, report.

Each stage is independently rerunnable. Flags override an optional flat
``key = value`` config file whose keys mirror the flag names; a command
ignores keys it has no flag for, so one file can drive every command.
Every run is deterministic: identical inputs give byte-identical output
files, whatever the BLAS build or its thread count.
"""

from __future__ import annotations

import argparse
import logging
import sys
from itertools import chain

from . import evaluate as ev
from . import extract as ex
from . import vocab
from ._fileio import binary_writers, text_reader, write_text
from .embeddings import load_embeddings, normalize
from .errors import SpellvarError

log = logging.getLogger(__name__)

DEFAULT_MIN_FREQ = 100
DEFAULT_MIN_COUNT = 1


def _parse_cutoffs(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(",") if c)
    except ValueError:
        raise ValueError(f"cutoffs must be integers: {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def load_config(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; '#' starts a comment."""
    values: dict[str, str] = {}
    with text_reader(path) as stream:
        for lineno, line in enumerate(stream, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


class Options:
    """Flag values with config-file fallback and built-in defaults. A value
    that fails to convert names its option, and the config file it came from."""

    def __init__(self, args: argparse.Namespace):
        self._args = args
        self._config = load_config(args.config) if args.config else {}

    def get(self, name, default=None, conv=None, required=False):
        key = name.replace("_", "-")
        value, source = getattr(self._args, name, None), "--" + key
        if value is None:
            value, source = self._config.get(name), f"{self._args.config}: {key}"
        if conv and isinstance(value, str):
            try:
                value = conv(value)
            except ValueError as exc:
                raise ValueError(f"{source}: {exc}") from None
        if value is None:
            value = default
        if value is None and required:
            raise ValueError(f"missing required option --{key}")
        return value


def cmd_extract(args: argparse.Namespace) -> int:
    opts = Options(args)
    defs_path = opts.get("defs", required=True)
    freq_path = opts.get("freq", required=True)
    pairs_path = opts.get("pairs", required=True)
    min_freq = opts.get("min_freq", default=DEFAULT_MIN_FREQ, conv=int)

    freq = vocab.load_frequencies(freq_path)
    kept, stats = ex.mine_pairs(ex.read_definitions(defs_path), freq, min_freq)

    outputs = (pairs_path, pairs_path + ".stats", pairs_path + ".stats.json")
    with binary_writers(*outputs) as (pairs_out, stats_out, json_out):
        ex.write_pairs(kept, pairs_out)
        write_text(stats_out, stats.as_text())
        write_text(json_out, stats.as_json())
    print(stats.as_text(), end="")
    print(f"pairs kept: {len(kept)} -> {pairs_path}")
    return 0


def cmd_build_vocab(args: argparse.Namespace) -> int:
    opts = Options(args)
    corpus_path = opts.get("corpus", required=True)
    lexicon_path = opts.get("lexicon", required=True)
    min_count = opts.get("min_count", default=DEFAULT_MIN_COUNT, conv=int)

    with text_reader(corpus_path) as stream:
        tokens = chain.from_iterable(map(vocab.tokenize, stream))
        lexicon = vocab.build_lexicon(tokens, min_count)
    vocab.write_lexicon(lexicon, lexicon_path)
    print(f"lexicon tokens: {len(lexicon)} -> {lexicon_path}")
    return 0


def cmd_count_freq(args: argparse.Namespace) -> int:
    opts = Options(args)
    corpus_path = opts.get("corpus", required=True)
    freq_path = opts.get("freq", required=True)

    with text_reader(corpus_path) as stream:
        tokens = chain.from_iterable(map(vocab.tokenize, stream))
        table = vocab.count_frequencies(tokens)
    vocab.write_frequencies(table, freq_path)
    print(f"distinct tokens: {len(table)} (total {table.total_tokens}) -> {freq_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    opts = Options(args)
    pairs_path = opts.get("pairs", required=True)
    lexicon_path = opts.get("lexicon", required=True)
    embeddings_path = opts.get("embeddings", required=True)
    report_path = opts.get("report", required=True)
    fmt = opts.get("format", default="plain")
    cutoffs = ev.check_cutoffs(
        opts.get("cutoffs", default=ev.DEFAULT_CUTOFFS, conv=_parse_cutoffs)
    )
    exclude_self = not opts.get("no_exclude_self", default=False, conv=_parse_bool)
    config = ev.EvalConfig(k=max(cutoffs), cutoffs=cutoffs, exclude_self=exclude_self)

    pairs = ex.read_pairs(pairs_path)
    lexicon = vocab.load_lexicon(lexicon_path)
    table = normalize(load_embeddings(embeddings_path, format=fmt))

    retained, removed = vocab.filter_pairs_by_lexicon(pairs, lexicon)
    if removed:
        log.info("lexicon filter removed %d of %d pairs", len(removed), len(pairs))
    report = ev.evaluate_pairs(
        table,
        retained,
        lexicon,
        config,
        lexicon_label=lexicon_path,
        embedding_label=embeddings_path,
    )
    report.metadata["pairs_file"] = pairs_path
    report.metadata["embedding_format"] = fmt
    report.metadata["pairs_removed_by_lexicon"] = str(len(removed))

    ev.write_report(report, report_path, report_path + ".tsv")
    print(
        f"pairs: {len(pairs)}  evaluated: {len(retained)}  "
        f"scored: {report.scored_count}  "
        f"missing_informal: {report.missing_informal}  "
        f"missing_formal: {report.missing_formal}"
    )
    for line in ev.accuracy_summary(report.hits_at, report.scored_count):
        print(line)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    opts = Options(args)
    report_path = opts.get("report", required=True)
    cutoffs = ev.check_cutoffs(
        opts.get("cutoffs", default=ev.DEFAULT_CUTOFFS, conv=_parse_cutoffs)
    )
    worst = opts.get("worst", default=10, conv=int)
    if worst < 1:
        raise ValueError(f"--worst must be >= 1, got {worst}")

    rows = ev.load_report_rows(report_path)
    scored_count, hits_at = ev.summarize_rows(rows, cutoffs)
    print(f"pairs: {len(rows)}  scored: {scored_count}")
    for line in ev.accuracy_summary(hits_at, scored_count):
        print(line)
    print(ev.diagnostics_rows(rows, worst), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spellvar",
        description=(
            "Mine informal/formal spelling-variant pairs from dictionary "
            "dumps and score embeddings by formal-neighbor rank."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="mine candidate pairs from a definitions dump")
    p.add_argument("--defs", help="definitions dump (id TAB headword TAB definition)")
    p.add_argument("--freq", help="token TAB count frequency file")
    p.add_argument("--min-freq", dest="min_freq",
                   help=f"drop headwords rarer than this (default {DEFAULT_MIN_FREQ})")
    p.add_argument("--pairs", help="output pairs file")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("build-vocab", help="build a formal lexicon from a corpus")
    p.add_argument("--corpus", help="plain-text corpus file")
    p.add_argument("--min-count", dest="min_count",
                   help=f"minimum occurrences (default {DEFAULT_MIN_COUNT})")
    p.add_argument("--lexicon", help="output lexicon file, one token per line")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("count-freq", help="count token frequencies in a corpus")
    p.add_argument("--corpus", help="plain-text corpus file")
    p.add_argument("--freq", help="output token TAB count file")
    p.set_defaults(func=cmd_count_freq)

    p = sub.add_parser("evaluate", help="rank formal neighbors for each pair")
    p.add_argument("--pairs", help="pairs file from extract")
    p.add_argument("--lexicon", help="formal lexicon file")
    p.add_argument("--embeddings", help="embedding text file")
    p.add_argument("--format", choices=("plain", "headered"),
                   help="embedding file layout (default plain)")
    p.add_argument("--cutoffs", help="accuracy cutoffs, comma-separated (default 1,5,10,20)")
    p.add_argument("--no-exclude-self", action="store_true", default=None,
                   dest="no_exclude_self",
                   help="let the informal token rank as its own neighbor")
    p.add_argument("--report", help="output report path (text; .tsv added for machine form)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="re-summarize a saved machine-readable report")
    p.add_argument("--report", help="machine-readable report (.tsv) path")
    p.add_argument("--cutoffs", help="accuracy cutoffs, comma-separated (default 1,5,10,20)")
    p.add_argument("--worst", help="how many worst pairs to list (default 10)")
    p.set_defaults(func=cmd_report)

    for p in sub.choices.values():
        p.add_argument("--config", help="flat key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpellvarError, OSError, LookupError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
